"""Core data types shared by every other module.

A composite sample is a struct of columns, one row per record: the observed
covariate ``x``, the hidden covariate ``u``, the population label ``s``, and
the treatment ``a`` and outcome ``y`` of trial and observational rows (-1 and
NaN on target rows, which carry neither).  Cohort draws return one-label
samples and :meth:`CompositeSample.concat` stacks them.  The hidden covariate
drives confounding in the synthetic worlds and is a column like any other.
The estimators cannot read it, as they read no sample: they take one trial
arm, ``trial_arm_arrays(a)``, as an ``estimators.Arm`` and the target
population as an ``estimators.Target``, and neither holds ``u``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

# Population labels.
TARGET = 0
TRIAL = 1
OS = 2

_COLUMNS = ("x", "u", "s", "a", "y")  # CompositeSample fields and CSV header

# The trial's randomization probability: draw_trial treats each patient with
# it, and the inverse-odds weights divide by it.
TREATMENT_PROB = 0.5


class PositivityError(ValueError):
    """A covariate group present in the target has no trial support."""


class GenerationError(RuntimeError):
    """Synthetic data generation failed (e.g. covariance factorization)."""


def derive_seed(*parts) -> int:
    """Derive a stable 64-bit seed from a tuple of str, int, float or bool parts.

    Uses blake2b over the reprs, so results do not depend on
    PYTHONHASHSEED or on the process the call runs in.  Numpy scalars are
    converted to the builtin they hold first, so ``np.int64(5)`` seeds like
    ``5``; any other type raises TypeError rather than seeding by its repr.
    """
    h = hashlib.blake2b(digest_size=8)
    for part in parts:
        if isinstance(part, np.generic):
            part = part.item()
        if not isinstance(part, (str, int, float, bool)):
            raise TypeError(f"seed parts must be str, int, float or bool, not {type(part).__name__}")
        h.update(repr(part).encode())
        h.update(b"\x1f")
    return int.from_bytes(h.digest(), "little")


def reject_repeats(what: str, ids: Sequence) -> None:
    """ValueError naming the ids listed more than once: a repeated id would
    come back as repeated table rows, each averaging all of its copies."""
    repeated = sorted({i for i in ids if ids.count(i) > 1})
    if repeated:
        raise ValueError(f"{what} more than once: {repeated}")


def check_names(what: str, names: Sequence[str], valid: Iterable[str]) -> tuple[str, ...]:
    """``names`` as a tuple; ValueError if it is empty, if one is unknown
    (listing the ``valid`` ``what``) or if one is named twice."""
    if not names:
        raise ValueError(f"no {what} selected")
    unknown = [n for n in names if n not in valid]
    if unknown:
        raise ValueError(f"unknown {what} {unknown}; valid: {', '.join(valid)}")
    reject_repeats(f"{what} named", list(names))
    return tuple(names)


def is_degree(degree) -> bool:
    """Whether ``degree`` is a fit degree: an int, not a bool, and nonnegative."""
    return isinstance(degree, int) and not isinstance(degree, bool) and degree >= 0


@dataclass(frozen=True, eq=False)
class CompositeSample:
    """Equal-length record columns, one row per record of the population
    labelled in ``s``.

    ``a`` is -1 and ``y`` NaN exactly on target rows; elsewhere ``a`` is 0 or
    1 and ``y`` finite, and ``x`` is finite everywhere.
    """

    x: np.ndarray
    u: np.ndarray
    s: np.ndarray
    a: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        for name in _COLUMNS:
            col = np.asarray(getattr(self, name))
            integral = name in ("s", "a")
            if col.ndim != 1:
                raise ValueError(f"column {name} must be one-dimensional")
            if integral and col.size and col.dtype.kind not in "iu":
                raise ValueError(f"column {name} must hold integers, not {col.dtype}")
            object.__setattr__(self, name, col.astype(np.int64 if integral else float, copy=False))
        if len({getattr(self, name).shape[0] for name in _COLUMNS}) != 1:
            raise ValueError("columns must have equal lengths")
        if not ((self.s == TARGET) | (self.s == TRIAL) | (self.s == OS)).all():
            raise ValueError(f"unknown population label in {np.unique(self.s)}")
        if not np.isfinite(self.x).all():
            raise ValueError("column x must be finite")
        has_a = self.a != -1
        if not (np.array_equal(has_a, ~np.isnan(self.y)) and np.array_equal(has_a, self.s != TARGET)):
            raise ValueError("treatment and outcome must be present exactly on non-target records")
        # a is -1 and y NaN on target rows alone, so these two read the other rows
        if ((self.a < -1) | (self.a > 1)).any():
            raise ValueError("column a must be 0 or 1 on trial and observational records")
        if np.isinf(self.y).any():
            raise ValueError("column y must be finite on trial and observational records")

    @staticmethod
    def cohort(s: int, x, u, a=None, y=None) -> "CompositeSample":
        """Rows of one population; target rows take no treatment or outcome."""
        n = len(x)
        a, y = (np.full(n, -1), np.full(n, np.nan)) if a is None else (a, y)
        return CompositeSample(x, u, np.full(n, s), a, y)

    @staticmethod
    def concat(*parts: "CompositeSample") -> "CompositeSample":
        """The rows of ``parts``, in order."""
        return CompositeSample(*(np.concatenate([getattr(p, c) for p in parts]) for c in _COLUMNS))

    @staticmethod
    def from_records(rows: Iterable[tuple]) -> "CompositeSample":
        """A sample from ``(x, u, s, a, y)`` rows, with a = -1 and y = NaN on target rows.
        Each column keeps its values' type, so a label that is not an integer is rejected."""
        rows = list(rows)
        columns = np.array(rows, dtype=object).reshape(len(rows), len(_COLUMNS)).T
        return CompositeSample(*(np.array(column.tolist()) for column in columns))

    def __len__(self) -> int:
        return self.x.shape[0]

    def __eq__(self, other) -> bool:
        """Equal when every column holds the same values, NaN matching NaN."""
        if not isinstance(other, CompositeSample):
            return NotImplemented
        return all(np.array_equal(getattr(self, c), getattr(other, c), equal_nan=True) for c in _COLUMNS)

    # -- array views ---------------------------------------------------

    def x_array(self) -> np.ndarray:
        return self.x

    def s_array(self) -> np.ndarray:
        return self.s

    def a_array(self) -> np.ndarray:
        """Treatments; -1 where absent (target records)."""
        return self.a

    def y_array(self) -> np.ndarray:
        """Outcomes; NaN where absent (target records)."""
        return self.y

    def target_x(self) -> np.ndarray:
        return self.x[self.s == TARGET]

    def trial_arm_arrays(self, a: int) -> tuple[np.ndarray, np.ndarray]:
        """Covariates and outcomes of trial records with treatment ``a``;
        ValueError unless ``a`` is the int 0 or 1 (bools excluded)."""
        if not (isinstance(a, int) and not isinstance(a, bool) and a in (0, 1)):
            raise ValueError(f"treatment arm a must be 0 or 1, got {a!r}")
        mask = (self.s == TRIAL) & (self.a == a)
        return self.x[mask], self.y[mask]


# -- world parameters ---------------------------------------------------------


@dataclass(frozen=True)
class KernelParams:
    """Linear + squared-exponential kernel weights for one GP-drawn function.

    A length-scale of ``None`` marks the inactive axis: the SE factor along
    that axis is identically 1 (the infinite-length-scale limit, exactly).
    """

    alpha_x: float
    alpha_u: float
    l_x: float | None
    l_u: float | None

    def __post_init__(self):
        if not (0 <= self.alpha_x < math.inf and 0 <= self.alpha_u < math.inf):
            raise ValueError("linear-kernel weights must be nonnegative and finite")
        for l in (self.l_x, self.l_u):
            if l is not None and not 0 < l < math.inf:
                raise ValueError("active length-scales must be strictly positive and finite")


@dataclass(frozen=True)
class GlmParams:
    """Degree-5 polynomial surface ``scale*(c0 + sum c_x x^j) + gamma*(u and
    xu terms)``: an outcome surface (at scale 1), or the logit of a
    participation or treatment probability."""

    c0: float
    c_x: tuple[float, ...]
    c_u: tuple[float, ...]
    c_xu: tuple[float, ...]
    gamma: float
    scale: float = 1.0

    def __post_init__(self):
        for arr in (self.c_x, self.c_u, self.c_xu):
            if len(arr) != 5:
                raise ValueError("coefficient arrays must have length 5")
        if not all(map(math.isfinite, (self.c0, *self.c_x, *self.c_u, *self.c_xu))):
            raise ValueError("coefficients must be finite")
        if not 0 <= self.gamma < math.inf:
            raise ValueError("gamma must be nonnegative and finite")
        if not 0 < self.scale < math.inf:
            raise ValueError("scale must be positive and finite")


# -- result records ----------------------------------------------------------


@dataclass(frozen=True)
class EstimateRecord:
    """A single point estimate of the target-population mean potential outcome."""

    point_estimate: float
    warnings: tuple[str, ...] = ()

    def __post_init__(self):
        if not math.isfinite(self.point_estimate):
            raise ValueError("point estimate must be finite")


# -- CSV serialization -------------------------------------------------------


def _cell(value) -> str:
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, bool):
        value = int(value)
    return repr(value) if isinstance(value, float) else str(value)


def csv_text(columns: Sequence[str], rows: Iterable[Mapping]) -> str:
    """CSV text: the header, then each row's values under ``columns``.

    Numpy scalars are written as the builtin they hold.  Floats are written
    by ``repr`` (which round-trips), booleans as 1/0 and anything else by
    ``str``; cells are quoted only where CSV needs it.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows([_cell(row[c]) for c in columns] for row in rows)
    return buf.getvalue()


def write_sample_csv(sample: CompositeSample, path: str | Path, include_hidden: bool = False) -> None:
    """Write a sample as CSV (columns x,u,s,a,y; empty cells for absent fields).

    The hidden covariate is written only when ``include_hidden`` is set;
    otherwise its column is left empty.
    """
    rows = []
    for x, u, s, a, y in zip(*(getattr(sample, c).tolist() for c in _COLUMNS)):
        present = s != TARGET
        hidden = u if include_hidden else ""
        rows.append({"x": x, "u": hidden, "s": s, "a": a if present else "", "y": y if present else ""})
    Path(path).write_text(csv_text(_COLUMNS, rows))


def read_sample_csv(path: str | Path) -> CompositeSample:
    """Read a sample written by :func:`write_sample_csv`.  A malformed file
    raises ValueError naming it and, for a row that does not parse, the line."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty file; expected the CSV header {','.join(_COLUMNS)}")
        if tuple(header) != _COLUMNS:
            raise ValueError(f"{path}: unexpected CSV header {header}")
        for row in reader:
            try:
                if len(row) != len(_COLUMNS):
                    raise ValueError(f"expected {len(_COLUMNS)} cells, got {len(row)}")
                x, u, s, a, y = row
                rows.append((float(x), float(u) if u else math.nan, int(s), int(a) if a else -1,
                             float(y) if y else math.nan))
            except ValueError as exc:
                raise ValueError(f"{path}, line {reader.line_num}: {exc}") from None
    try:
        return CompositeSample.from_records(rows)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
