"""Rewrite perfbench/reference/ from the package in this checkout's src/.

    python3 perfbench/make_reference.py

The committed references were taken this way at the commit that added the
benchmark; regenerating them accepts the current program's outputs as
correct, so do it only when an output is meant to change.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import check
from workloads import EXPORT, FIGURES, OUT_DIR, ROOT, import_package


def main() -> int:
    os.chdir(ROOT)
    os.environ["SQZLAB_THREADS"] = "1"
    sqzlab = import_package()
    shutil.rmtree(OUT_DIR, ignore_errors=True)
    refs = {}
    for workload in (FIGURES, EXPORT):
        for argv in workload.argv:
            if sqzlab.cli.main(list(argv)) != 0:
                raise SystemExit(f"sqzlab {' '.join(argv)} failed")
        ref = {}
        for path in sorted((ROOT / OUT_DIR / workload.name).iterdir()):
            if workload is FIGURES:
                ref[path.name] = check.svg_curves(path.read_text())
            else:
                read = check.read_csv_table if path.suffix == ".csv" else check.read_json_table
                ref[path.name] = check.table_summary(read(path))
        refs[workload.name] = ref
    refs["points"] = {"outputs": check.anchor_outputs().tolist()}
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    for name, ref in refs.items():
        (check.REFERENCE_DIR / f"{name}.json").write_text(json.dumps(ref) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
