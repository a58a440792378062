"""Uniform tensor grids, boundary traces, and solved-field containers."""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError

KINDS = ("quarter", "half", "torus")


@dataclass(frozen=True)
class Grid2D:
    """Uniform grid on [0, L1] x [0, L2] with spacing h in both directions.

    Node layout depends on the domain kind: the quarter domain keeps both
    ends in x2 (n2 + 1 nodes, Dirichlet floor at x2 = 0), the half domain is
    x2-periodic and stores n2 nodes with x2 = L2 identified with x2 = 0, and
    the torus is periodic in both directions (n1 x n2 nodes, no trace at
    all). On quarter and half, x1 runs over n1 + 1 nodes with the trace at
    x1 = 0.
    """
    L1: float
    L2: float
    h: float
    n1: int
    n2: int

    def x1_nodes(self, kind: str) -> np.ndarray:
        _check_kind(kind)
        n = self.n1 if kind == "torus" else self.n1 + 1
        return np.arange(n) * self.h

    def x2(self, kind: str) -> np.ndarray:
        _check_kind(kind)
        n = self.n2 if kind in ("half", "torus") else self.n2 + 1
        return np.arange(n) * self.h


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise InputError(f"domain kind must be one of {KINDS}, got {kind!r}")


def make_grid(L1: float, L2: float, h: float) -> Grid2D:
    if not all(0 < v < math.inf for v in (L1, L2, h)):
        raise InputError("make_grid: need finite positive L1, L2, h")
    n1 = round(L1 / h)
    n2 = round(L2 / h)
    if abs(n1 * h - L1) > 1e-9 * max(1.0, L1) or abs(n2 * h - L2) > 1e-9 * max(1.0, L2):
        raise InputError(f"grid spacing h={h:g} does not divide L1={L1:g}, L2={L2:g}")
    if n1 < 2 or n2 < 2:
        raise InputError("make_grid: need at least 2 cells per direction")
    return Grid2D(float(L1), float(L2), float(h), n1, n2)


def as_trace(trace, grid: Grid2D, kind: str) -> np.ndarray:
    """Normalize a trace spec (scalar, callable, or array) to a node array.

    Quarter traces are forced to 0 at the corner shared with the Dirichlet
    floor; half traces are plain periodic node values.
    """
    _check_kind(kind)
    if kind == "torus":
        raise InputError("the torus has no trace side")
    x2 = grid.x2(kind)
    if callable(trace):
        vals = np.asarray([float(trace(x)) for x in x2], dtype=float)
    elif np.isscalar(trace):
        vals = np.full(x2.size, float(trace))
    else:
        vals = np.asarray(trace, dtype=float).copy()
        if vals.shape != x2.shape:
            raise InputError(f"trace has {vals.size} values, grid wants {x2.size}")
    if not np.all(np.isfinite(vals)):
        raise InputError("trace contains non-finite values")
    if kind == "quarter":
        vals[0] = 0.0     # floor wins the shared corner
    return vals


@dataclass(eq=False)
class Field:
    """A field on a grid: full node array including boundary rows."""
    values: np.ndarray
    grid: Grid2D
    kind: str
    residual: float = np.inf
    meta: dict = field(default_factory=dict)


# "%.17g" of each float of an array, as an object array of str; the floats
# reach it as Python floats, with no list of them
_format_17g = np.frompyfunc("%.17g".__mod__, 1, 1)


def save_field_csv(f: Field, path: str) -> None:
    """Row-major x1,x2,u dump with 17 significant digits.

    The bytes are those of a `csv.writer` in its default dialect: no field
    needs quoting, and every line ends in \r\n. Solved fields repeat their
    values (rows settle on the far-field limit row, and half rows are nearly
    constant in x2), so each distinct float is formatted once with `%.17g`,
    and each row of u fills a template that carries the row's x1 and x2
    strings with `%s`. Values are keyed by bit pattern, not by float
    equality, so 0.0 and -0.0 keep their own strings; `%.17g` and
    `{:.17g}` share CPython's float-to-string path.
    """
    vals = np.ascontiguousarray(f.values, dtype=np.float64)
    # keyed on the flat bit patterns: the shape of np.unique's inverse
    # differs between numpy 2.x releases for inputs of more than one axis
    bits, inv = np.unique(vals.view(np.int64).ravel(), return_inverse=True)
    cells = _format_17g(bits.view(np.float64))[inv].reshape(vals.shape)
    x1 = [f"{v:.17g}," for v in f.grid.x1_nodes(f.kind).tolist()]
    x2 = [f"{v:.17g},%s\r\n" for v in f.grid.x2(f.kind).tolist()]
    with open(path, "w", newline="") as fh:
        fh.write("x1,x2,u\r\n")
        for a, row in zip(x1, cells):
            fh.write((a + a.join(x2)) % tuple(row))


def load_field_csv(path: str):
    """Read back a field dump; returns (x1 nodes, x2 nodes, value array)."""
    xs, ys, us = [], [], []
    with open(path, newline="") as fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None or [c.strip() for c in header[:3]] != ["x1", "x2", "u"]:
            raise InputError(f"{path}: expected header x1,x2,u")
        for row in rd:
            xs.append(float(row[0]))
            ys.append(float(row[1]))
            us.append(float(row[2]))
    x1 = np.unique(np.asarray(xs))
    x2 = np.unique(np.asarray(ys))
    vals = np.asarray(us).reshape(x1.size, x2.size)
    return x1, x2, vals
