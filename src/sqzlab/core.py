"""Shared conventions, scalar types and squeezing metrics.

Conventions used throughout the package:

* Quadratures are X = a + a† and P = i(a† - a), so the vacuum has
  variance 1 in both. A squeeze parameter b maps the variances of a
  squeezed vacuum to (e^{-2b}, e^{2b}).
* The squeeze factor is reported in dB, positive when the smaller
  variance lies below the vacuum level: squeeze_db = -10*log10(min var).
* The overall uncertainty is the product of the standard deviations,
  sqrt(var_x * var_p); it equals 1 for pure minimum-uncertainty states.

All functions here are pure and safe to call concurrently. Column
evaluators (the array forms of the evaluators, which sweeps use) record a
skipped row in a Skips object, which formats the message the scalar
evaluator raises when the reason is read; MAX_GRID_POINTS bounds the rows
of one sweep or time grid.

The value types are frozen dataclasses whose __init__ is written out: it
runs every check on the arguments, raising DomainError before any field
is stored, and then stores the fields straight into the instance
__dict__, which costs less than the generated __init__'s
object.__setattr__ per field. Fields, defaults, eq, hash, repr,
dataclasses.replace and pickling are those of the dataclass.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping

import numpy as np

# The most rows one sweep grid or trajectory time grid may have; all of a
# grid's columns are allocated at once.
MAX_GRID_POINTS = 2_000_000

_FINITE_POSITIVE = "{} must be finite and positive, got {!r}"
_PRODUCT = "var_x*var_p must be finite, got {!r}"
_ALPHA_SQ = "alpha_sq must be finite and >= 0, got {!r}"


class DomainError(ValueError):
    """A parameter or input lies outside the physically valid domain."""


class SqueezedAxis(enum.Enum):
    AMPLITUDE = "amplitude"
    PHASE = "phase"


class Regime(enum.Enum):
    """Operating mode of a seeded parametric process.

    PHASE_SQUEEZING is the amplifying configuration (seed grows, phase
    quadrature squeezed); AMPLITUDE_SQUEEZING is the deamplifying one.
    """

    PHASE_SQUEEZING = "phase"
    AMPLITUDE_SQUEEZING = "amplitude"


class _Factory:
    """Default of a field filled by its default_factory; prints as the
    generated __init__'s default does in a signature."""

    def __repr__(self) -> str:
        return "<factory>"


_FACTORY = _Factory()


@dataclass(frozen=True)
class QuadratureStats:
    """Pair of dimensionless quadrature variances (vacuum = 1)."""

    var_x: float
    var_p: float

    def __init__(self, var_x: float, var_p: float) -> None:
        if not math.isfinite(var_x) or var_x <= 0.0:
            raise DomainError(_FINITE_POSITIVE.format("var_x", var_x))
        if not math.isfinite(var_p) or var_p <= 0.0:
            raise DomainError(_FINITE_POSITIVE.format("var_p", var_p))
        if var_x * var_p == math.inf:
            raise DomainError(_PRODUCT.format(var_x * var_p))
        d = self.__dict__
        d["var_x"] = var_x
        d["var_p"] = var_p


@dataclass(frozen=True)
class SqueezeMetrics:
    """Derived squeezing figures for one quadrature pair."""

    squeeze_db: float
    antisqueeze_db: float
    uncertainty: float
    squeezed_axis: SqueezedAxis


@dataclass(frozen=True)
class MethodPoint:
    """One evaluated operating point of a squeezing method.

    ``alpha_sq`` is the squared output displacement relative to the pump
    input displacement. ``params`` is an opaque method-specific record;
    each method module documents its keys.
    """

    alpha_sq: float
    stats: QuadratureStats
    params: Mapping[str, object] = field(default_factory=dict)

    def __init__(
        self,
        alpha_sq: float,
        stats: QuadratureStats,
        params: Mapping[str, object] = _FACTORY,
    ) -> None:
        if not math.isfinite(alpha_sq) or alpha_sq < 0.0:
            raise DomainError(_ALPHA_SQ.format(alpha_sq))
        d = self.__dict__
        d["alpha_sq"] = alpha_sq
        d["stats"] = stats
        d["params"] = {} if params is _FACTORY else params

    @property
    def uncertainty(self) -> float:
        return uncertainty(self.stats)

    @property
    def squeeze_db(self) -> float:
        return squeeze_metrics(self.stats).squeeze_db


def uncertainty(stats: QuadratureStats) -> float:
    """Overall uncertainty sqrt(var_x * var_p) of a quadrature pair."""
    return math.sqrt(stats.var_x * stats.var_p)


def mapped(fn: Callable[..., float], *columns: np.ndarray) -> np.ndarray:
    """fn, a math function, value by value: numpy's exp, cbrt, log10 and
    power can differ from libm in the last ulp."""
    return np.fromiter(map(fn, *(c.tolist() for c in columns)), float, len(columns[0]))


def distinct(col: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of a float column and the index of each row's value
    among them. Values are told apart by their bits, so -0.0 keeps its own
    entry; a grid column repeats its axis values over many rows."""
    bits = np.asarray(col, dtype=float).view(np.uint64)
    values, row_of = np.unique(bits, return_inverse=True)
    return values.view(float), row_of


class Skips:
    """Which rows of a column evaluation are skipped, and why. It reads as
    the skip reason per row, "" where ok: indexing gives the reason of a
    row (a str) or of many (an object array), as tolist() gives all.

    Each check skips the rows still ok where it fails, with the template of
    the message the scalar evaluator raises. It keeps those rows, the
    template and the values the message needs, and formats the messages
    when a reason is next read, each once; a run that reads none formats
    none.
    Checks run in the scalar order, so a row keeps the reason of the first
    check it fails; skip() gives rows a reason in place of any they had.
    """

    def __init__(self, n: int) -> None:
        self.ok = np.ones(n, dtype=bool)
        self._pending: list[tuple[np.ndarray, str, list[np.ndarray]]] = []
        self._text: np.ndarray | None = None  # the reasons, once read

    def check(self, valid: np.ndarray, template: str, *columns: np.ndarray) -> None:
        """Skip the ok rows where valid is False; the template is formatted
        with their values in columns."""
        self.skip(np.flatnonzero(self.ok & ~valid), template, *columns)

    def skip(self, rows: np.ndarray, template: str, *columns: np.ndarray) -> None:
        """Skip rows whatever they held; the template is formatted with their
        values in columns."""
        if rows.size:
            self.ok[rows] = False
            self._pending.append((rows, template, [c[rows] for c in columns]))

    def _reasons(self) -> np.ndarray:
        """The reason column, after formatting the skips made since the last read."""
        if self._text is None:
            self._text = np.full(len(self.ok), "", dtype=object)
        text = self._text
        for rows, template, values in self._pending:  # later ones win
            if values:
                text[rows] = list(map(template.format, *(v.tolist() for v in values)))
            else:
                text[rows] = template.format()
        self._pending.clear()
        return text

    def __len__(self) -> int:
        return len(self.ok)

    def __getitem__(self, rows):
        return self._reasons()[rows]

    def __iter__(self) -> Iterator[str]:
        return iter(self._reasons())

    def tolist(self) -> list[str]:
        return self._reasons().tolist()

    def outputs(self, alpha_sq, var_x, var_p) -> tuple:
        """The QuadratureStats and MethodPoint checks, then the table columns
        (alpha_sq, var_x, var_p, ok, reason), NaN where a row is skipped;
        the reason column is this object."""
        with np.errstate(invalid="ignore", over="ignore"):
            for name, v in (("var_x", var_x), ("var_p", var_p)):
                template = _FINITE_POSITIVE.replace("{}", name, 1)
                self.check((abs(v) < math.inf) & (v > 0.0), template, v)
            product = var_x * var_p
            self.check(product != math.inf, _PRODUCT, product)
            del product  # a grid-sized column: free it before the outputs are built
            finite = abs(alpha_sq) < math.inf
            self.check(finite & (alpha_sq >= 0.0), _ALPHA_SQ, alpha_sq)
        return (
            *(np.where(self.ok, c, math.nan) for c in (alpha_sq, var_x, var_p)),
            self.ok, self,
        )


def squeeze_columns(var_x: np.ndarray, var_p: np.ndarray) -> tuple[np.ndarray, ...]:
    """(squeeze_db, uncertainty) over arrays, equal to squeeze_metrics bit for bit."""
    lo = np.minimum(var_x, var_p)  # math.log10: np.log10 can differ by an ulp
    db = -10.0 * mapped(math.log10, lo)
    return db, np.sqrt(var_x * var_p)


def squeeze_metrics(stats: QuadratureStats) -> SqueezeMetrics:
    """Compute squeeze/antisqueeze factors in dB and the uncertainty product.

    The axis is AMPLITUDE when var_x <= var_p, PHASE otherwise. The sign
    convention makes squeeze_db positive exactly when the smaller variance
    is below vacuum.
    """
    lo = min(stats.var_x, stats.var_p)
    hi = max(stats.var_x, stats.var_p)
    axis = SqueezedAxis.AMPLITUDE if stats.var_x <= stats.var_p else SqueezedAxis.PHASE
    return SqueezeMetrics(
        squeeze_db=-10.0 * math.log10(lo),
        antisqueeze_db=-10.0 * math.log10(hi),
        uncertainty=uncertainty(stats),
        squeezed_axis=axis,
    )
