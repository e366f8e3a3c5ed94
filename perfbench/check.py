"""Correctness checks of the program's outputs against committed references.

References live in `perfbench/reference/` and were taken from the program
itself (see `make_reference.py`). Numbers are compared with tolerances,
never as bytes; skip counts, the rows that are skipped and the number of
frontier bins filled must match exactly. The `points` outputs are checked
against closed forms re-implemented here with numpy, independently of the
package, plus a committed set of anchor records.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np

from workloads import ANCHOR_COUNT, ANCHOR_SEED, POINT_KINDS, evaluate, import_package, point_inputs

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# The vacuum floor on the overall uncertainty, as in the acceptance suite.
FLOOR = 1.0 - 1e-9

# SVG pixel coordinates are printed with 2 decimals. Evaluating the OPA at
# the exact tau instead of the nearest RK4 step (up to 1.2e-4 away) moves
# points across alpha_sq bin edges; held against the neighbouring bins, the
# opa_phase curves then differ by at most 0.10 px (0.02 dB), elsewhere 0.
SVG_PX_TOL = 0.5
# The OPO's Cardano root loses digits to cancellation at small seeds: its
# alpha_sq differs from a bisection root by up to 1.5e-7 relative over 400k
# draws (deamplifying regime). Every other value agrees to 1.1e-13; om keeps
# room for a reordering of (1 - cc*dd)^3, which cancels near cc*dd = 1.
TABLE_RTOL = 1e-6
POINT_RTOL = {"beamsplitter": 1e-12, "opo": 1e-6, "optomech": 1e-9}

_NUMERIC = ("alpha_sq", "var_x", "var_p", "squeeze_db", "uncertainty")


def load_reference(name: str) -> dict:
    return json.loads((REFERENCE_DIR / f"{name}.json").read_text())


# ------------------------------------------------------------------ svg

_POLYLINE = re.compile(r'<polyline points="([^"]*)"[^>]*stroke="(#[0-9a-f]{6})"')
_LEGEND = re.compile(r"U &#8804; ([^<]*)</text>")


def svg_curves(text: str) -> dict:
    """Legend labels and, per stroke colour, the polyline pixel coordinates."""
    curves = {}
    for coords, color in _POLYLINE.findall(text):
        pts = [tuple(float(v) for v in pair.split(",")) for pair in coords.split()]
        curves[color] = pts
    return {"legend": _LEGEND.findall(text), "curves": curves}


def _envelope_gap(pts: np.ndarray, other: np.ndarray, radius: float) -> float:
    """How far (px) a curve rises above the best of `other` within one bin.

    Smaller y is more squeezing. A point that crosses a bin edge moves its
    value to the neighbouring bin, so each point is held against the best
    point of `other` within `radius` px in x, not against its own bin.
    """
    gap = 0.0
    for x, y in pts:
        near = other[np.abs(other[:, 0] - x) <= radius, 1]
        best = near.min() if near.size else np.inf
        gap = max(gap, best - y)
    return gap


def compare_svg(got: dict, ref: dict) -> list[str]:
    errors = []
    if got["legend"] != ref["legend"]:
        errors.append(f"legend {got['legend']} != {ref['legend']}")
    if sorted(got["curves"]) != sorted(ref["curves"]):
        errors.append("different set of drawn curves")
        return errors
    for color, ref_pts in ref["curves"].items():
        a, b = np.asarray(got["curves"][color]), np.asarray(ref_pts)
        if len(a) != len(b):
            errors.append(f"curve {color}: {len(a)} bins filled, expected {len(b)}")
            continue
        radius = 1.5 * float(np.diff(b[:, 0]).min(initial=np.inf))
        gap = max(_envelope_gap(a, b, radius), _envelope_gap(b, a, radius))
        if gap > SVG_PX_TOL:
            errors.append(f"curve {color}: off by {gap:.3g} px > {SVG_PX_TOL}")
    return errors


# --------------------------------------------------------------- tables


def skip_class(reason: str) -> str:
    """Stable class of a free-text skip reason."""
    if not reason:
        return "ok"
    if "cutoff" in reason:
        return "cutoff"
    if "cap" in reason:
        return "cap"
    return "domain"


def read_csv_table(path: Path) -> dict:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    cols = list(zip(*(ln.split(",", len(header) - 1) for ln in lines[1:])))
    table = dict(zip(header, cols))
    params = header[1:header.index("alpha_sq")]
    return _columns(
        method=table["method"][0] if cols else "",
        params={p: table[p] for p in params},
        numeric={c: table[c] for c in _NUMERIC},
        reasons=table["skip_reason"],
    )


def read_json_table(path: Path) -> dict:
    points = json.loads(path.read_text())["points"]
    names = list(points[0]["values"]) if points else []
    return _columns(
        method=points[0]["method"] if points else "",
        params={p: [pt["values"][p] for pt in points] for p in names},
        numeric={c: [pt.get(c, "") for pt in points] for c in _NUMERIC},
        reasons=[pt["skip_reason"] for pt in points],
    )


def _floats(values) -> np.ndarray:
    return np.array([math.nan if v == "" else float(v) for v in values])


def _columns(method: str, params: dict, numeric: dict, reasons) -> dict:
    return {
        "method": method,
        "params": {k: _floats(v) for k, v in params.items()},
        "numeric": {k: _floats(v) for k, v in numeric.items()},
        "classes": [skip_class(r) for r in reasons],
    }


def table_summary(table: dict, stride: int = 100) -> dict:
    """What the reference keeps of a sweep table: exact skip layout, a
    stride sample of rows and order-independent sums over every ok row."""
    classes = table["classes"]
    ok = np.array([c == "ok" for c in classes], dtype=bool)
    sums = {}
    for name, col in table["numeric"].items():
        v = col[ok]
        if name == "squeeze_db":
            sums[name] = [float(v.sum()), float(np.abs(v).sum())]
        else:
            logs = np.log(v[v > 0.0])
            sums[name] = [float(logs.sum()), float(np.abs(logs).sum())]
    idx = list(range(0, len(classes), stride))
    return {
        "method": table["method"],
        "rows": len(classes),
        "skips": {c: classes.count(c) for c in sorted(set(classes))},
        "skip_layout_sha256": hashlib.sha256(" ".join(classes).encode()).hexdigest(),
        "sums": sums,
        "sample_index": idx,
        "sample": {
            name: [float(col[i]) for i in idx]
            for name, col in {**table["params"], **table["numeric"]}.items()
        },
    }


def _close(a, b, rtol: float) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    same_nan = np.isnan(a) == np.isnan(b)
    a, b = np.nan_to_num(a), np.nan_to_num(b)
    return bool(same_nan.all() and (np.abs(a - b) <= rtol * np.abs(b) + 1e-300).all())


def compare_table(got: dict, ref: dict, rtol: float = TABLE_RTOL) -> list[str]:
    errors = []
    for key in ("method", "rows", "skips", "skip_layout_sha256"):
        if got[key] != ref[key]:
            errors.append(f"{key}: {got[key]!r} != {ref[key]!r}")
    if errors:
        return errors
    for name, (total, scale) in ref["sums"].items():
        if abs(got["sums"][name][0] - total) > rtol * scale + 1e-12:
            errors.append(f"sum over {name}: {got['sums'][name][0]!r} != {total!r}")
    for name, values in ref["sample"].items():
        if not _close(got["sample"].get(name, []), values, rtol):
            errors.append(f"sampled column {name} differs beyond rtol {rtol:g}")
    return errors


# --------------------------------------------------------------- points


def _opo_root(p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Real root of x^3 + p x + q = 0 for p > 0, by bisection on
    [-q/p, 0] (where the monotone cubic changes sign) and Newton polish."""
    lo, hi = -q / p, np.zeros_like(q)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        neg = mid**3 + p * mid + q < 0.0
        lo, hi = np.where(neg, mid, lo), np.where(neg, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(2):
        x = x - (x**3 + p * x + q) / (3.0 * x * x + p)
    return x


def reference_points(kind: np.ndarray, params: np.ndarray) -> np.ndarray:
    """(alpha_sq, var_x, var_p) per record, from the documented closed forms."""
    out = np.empty((len(kind), 3))
    for k, (module, *_, flavour) in enumerate(POINT_KINDS):
        sel = kind == k
        a, b, c = params[sel].T
        if module == "beamsplitter":
            c2, s2 = np.cos(b) ** 2, np.sin(b) ** 2
            res = (s2, np.exp(-2.0 * a) * c2 + s2, np.exp(2.0 * a) * c2 + s2)
        elif module == "opo":
            e_p = -a / 4.0 if flavour == "phase" else a / 4.0
            e_s = b * np.abs(e_p)
            x = _opo_root((1.0 + 4.0 * e_p) / 2.0, e_s)
            r, a_p = x * x, -x * x - 2.0 * e_p
            var_x = ((r - a_p / 2 - 0.25) ** 2 + r) / (r - a_p / 2 + 0.25) ** 2
            var_p = ((r + a_p / 2 - 0.25) ** 2 + r) / (r + a_p / 2 + 0.25) ** 2
            res = (((e_s + x) / e_p) ** 2, var_x, var_p)
        else:
            cd, thermal = a * b, 2.0 * c + 1.0
            alpha = (1.0 - cd) ** 3 / (2.0 * a * a * (1.0 + b * b))
            squeezed = (1.0 + b * b) * (1.0 - cd) / 2.0 + a * b * b * thermal
            anti = ((1.0 - cd) ** 2 + 4.0 * a * thermal) / (1.0 + cd) ** 2
            res = (alpha, squeezed, anti) if flavour == "amplitude" else (alpha, anti, squeezed)
        out[sel] = np.column_stack(res)
    return out


def point_mismatches(kind: np.ndarray, got: np.ndarray, want: np.ndarray) -> np.ndarray:
    """Boolean mask of records whose outputs differ beyond their rtol."""
    rtol = np.array([POINT_RTOL[module] for module, *_ in POINT_KINDS])[kind]
    return ~(np.abs(got - want) <= rtol[:, None] * np.abs(want)).all(axis=1)


def anchor_outputs() -> np.ndarray:
    """The package's outputs on the fixed anchor records."""
    return evaluate(import_package(), *point_inputs(ANCHOR_SEED, ANCHOR_COUNT))


def bad_anchors(ref: dict) -> int:
    """Anchor records whose outputs moved from the reference beyond rtol."""
    kind, _ = point_inputs(ANCHOR_SEED, ANCHOR_COUNT)
    return int(point_mismatches(kind, anchor_outputs(), np.asarray(ref["outputs"])).sum())


# ---------------------------------------------------------- physicality


def points_physicality(kind: np.ndarray, out: np.ndarray) -> dict:
    """physicality() per evaluator module of `points` outputs."""
    modules = [k[0] for k in POINT_KINDS]
    result = {}
    for module in dict.fromkeys(modules):
        sel = np.isin(kind, [i for i, m in enumerate(modules) if m == module])
        result[module] = physicality(out[sel, 1], out[sel, 2])
    return result


def physicality(var_x: np.ndarray, var_p: np.ndarray) -> dict:
    """Minimum overall uncertainty and the count of points below the floor."""
    u = np.sqrt(var_x * var_p)
    return {
        "ok_points": int(u.size),
        "min_uncertainty": float(u.min()) if u.size else math.nan,
        "below_floor": int((u < FLOOR).sum()),
    }
