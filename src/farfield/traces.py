"""Boundary trace constructors, including the spec-string mini-language.

Accepted forms:

  constant:<c>                    flat trace at level c
  bump:<center>,<width>,<height>  smooth compactly supported bump
  profile:<z>                     the rising profile to z, sampled on the nodes
  table:<path>                    CSV with header y,value, linearly interpolated
"""

from __future__ import annotations

import csv

import numpy as np

from .errors import InputError
from .grids import Grid2D
from .nonlinearity import Nonlinearity
from .profile1d import compute_profile


def bump(y, center: float, width: float, height: float):
    """height * exp(1 - 1/(1 - s^2)) on |s| < 1 with s = (y - center)/width."""
    if width <= 0:
        raise InputError("bump: need width > 0")
    y = np.asarray(y, dtype=float)
    s = (y - center) / width
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = height * np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def trace_from_table(path: str, y_nodes: np.ndarray) -> np.ndarray:
    ys, vs = [], []
    try:
        fh = open(path, newline="")
    except OSError as exc:
        raise InputError(f"trace table {path}: {exc}") from exc
    with fh:
        rd = csv.reader(fh)
        header = next(rd, None)
        if header is None or [c.strip() for c in header[:2]] != ["y", "value"]:
            raise InputError(f"{path}: expected header y,value")
        for lineno, row in enumerate(rd, start=2):
            try:
                ys.append(float(row[0]))
                vs.append(float(row[1]))
            except (ValueError, IndexError):
                raise InputError(f"{path}:{lineno}: want two numbers y,value") from None
    if len(ys) < 2:
        raise InputError(f"{path}: need at least 2 rows")
    ys = np.asarray(ys)
    vs = np.asarray(vs)
    if np.any(np.diff(ys) <= 0):
        raise InputError(f"{path}: y column must increase strictly")
    return np.interp(y_nodes, ys, vs)


def _numbers(spec: str, args: str, names: str) -> list:
    """A spec's comma-separated numeric arguments, one for each of `names`."""
    try:
        vals = [float(p) for p in args.split(",")]
    except ValueError:
        vals = []
    if len(vals) != len(names.split(",")):
        raise InputError(f"trace {spec!r}: want numeric {names}")
    return vals


def make_trace(spec: str, nl: Nonlinearity, grid: Grid2D, kind: str) -> np.ndarray:
    """Build the trace node array for a spec string (see module docstring)."""
    if not isinstance(spec, str) or ":" not in spec:
        raise InputError(f"trace spec must look like 'name:args', got {spec!r}")
    name, _, args = spec.partition(":")
    y = grid.x2(kind)
    if name == "constant":
        c, = _numbers(spec, args, "c")
        return np.full(y.size, c)
    if name == "bump":
        return bump(y, *_numbers(spec, args, "center,width,height"))
    if name == "profile":
        z, = _numbers(spec, args, "z")
        return compute_profile(nl, z, xi_max=float(y[-1]), n=y.size - 1).values
    if name == "table":
        return trace_from_table(args, y)
    raise InputError(f"unknown trace kind {name!r} "
                     "(constant | bump | profile | table)")
