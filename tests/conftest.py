import os

import pytest


@pytest.fixture(autouse=True)
def no_child_process_left():
    """Fail a test after which a child process of the test run is still
    there, running or not yet reaped: the sweep writers fork children and
    must reap every one before they return."""
    yield
    if not hasattr(os, "WNOHANG"):
        return
    try:
        pid, status = os.waitpid(-1, os.WNOHANG)  # reaps one that has exited
    except ChildProcessError:  # no child at all
        return
    state = "still running" if pid == 0 else f"{pid} exited unreaped, status {status}"
    pytest.fail(f"a child process was left behind: {state}")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance criterion lines after the run, when collected."""
    try:
        from test_acceptance import CRITERION_LINES
    except Exception:
        return
    if CRITERION_LINES:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)
