"""Far-field trajectory analysis of solved fields.

A solved field on a truncated domain is read as a trajectory: sliding the
view toward larger x1 is the semiflow, and the question is what the view
settles on. Shifting is pure array slicing, so the semigroup laws hold
bit-exactly by construction. The limit candidates form a small table:

  quarter : the rising profiles V_z for z in the reachable-zero set, plus
            the zero state when f(0) = 0 (the table's launch slopes are
            strictly increasing, which is what makes detection well posed);
  half    : the constants in the zero set of f (flat intervals count as
            ranges of constants).

Detection measures sup-distance between trailing windows of the field and
each candidate at a ladder of shifts, then asks whether the best candidate
wins clearly and whether its distance has dropped below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from .grids import Field, Grid2D
from .nonlinearity import Nonlinearity, compute_Zf, zero_set
from .profile1d import compute_profile

_M_MARGIN = 0.5            # levels up to M + this stay candidates
_MARGIN_FACTOR = 2.0       # runner-up must be this many times farther
_CONV_TOL = 1e-2
_WINDOW_FRAC = 0.25        # comparison window length, as a share of n1


def shift(field: Field, delta: float) -> Field:
    """Slide the view by delta toward large x1 (exact node slicing).

    delta must be a grid multiple; the result keeps every surviving node
    value bit-identical, which is what makes the semigroup laws exact.
    """
    g = field.grid
    k_real = delta / g.h
    k = round(k_real)
    if abs(k_real - k) > 1e-9:
        raise InputError(f"shift by {delta:g} is not a multiple of h={g.h:g}")
    if k < 0:
        raise InputError("shift must be forward (delta >= 0)")
    if g.n1 - k < 2:
        raise InputError(f"shift by {delta:g} leaves fewer than 3 x1 nodes")
    vals = field.values[k:, :].copy()
    g2 = Grid2D((g.n1 - k) * g.h, g.L2, g.h, g.n1 - k, g.n2)
    meta = dict(field.meta)
    meta["shifted_by"] = meta.get("shifted_by", 0.0) + k * g.h
    return Field(vals, g2, field.kind, field.residual, meta)


@dataclass(eq=False)
class MEstimate:
    M: float                # sup of u over the last trailing window
    m: float                # inf of u over the last trailing window
    deltas: np.ndarray      # |change of M| between successive windows


def estimate_M(field: Field,
               window_fracs: tuple = (0.25, 0.5, 0.75)) -> MEstimate:
    """Bound the eventual amplitude from trailing windows x1 >= frac * L1.

    The fractions must increase inside (0, 1); later (smaller) windows see
    only the far field, and the drift of the sup between windows is the
    Cauchy indicator for whether the truncation was long enough.
    """
    fr = tuple(float(f) for f in window_fracs)
    if not fr or any(not 0.0 < f < 1.0 for f in fr) or list(fr) != sorted(set(fr)):
        raise InputError("window_fracs must increase strictly inside (0, 1)")
    vals = field.values
    g = field.grid
    Ms, ms = [], []
    for f in fr:
        k0 = min(int(math.ceil(f * g.n1 - 1e-9)), g.n1 - 1)
        Ms.append(float(np.max(vals[k0:, :])))
        ms.append(float(np.min(vals[k0:, :])))
    return MEstimate(Ms[-1], ms[-1], np.abs(np.diff(np.array(Ms))))


@dataclass(eq=False)
class AttractorTable:
    kind: str
    M_cap: float                         # admission ceiling for levels
    zs: np.ndarray                       # representative levels
    profiles: list[np.ndarray] | None    # quarter: V_z over the x2 nodes
    intervals: tuple = ()                # half: flat ranges of admissible constants


def attractor_table(nl: Nonlinearity, grid: Grid2D, kind: str,
                    M_cap: float) -> AttractorTable:
    """Candidate limit states with levels at most M_cap.

    Quarter candidates are full profiles sampled on the grid's x2 nodes; the
    strict increase of their launch slopes is asserted because that is what
    separates them. Half candidates are the admissible constants.
    """
    if kind == "quarter":
        zf = compute_Zf(nl)
        zs = [z for z in zf.points if z <= M_cap]
        profiles = [compute_profile(nl, z, xi_max=grid.L2, n=grid.n2) for z in zs]
        if np.any(np.diff([p.slope0 for p in profiles]) <= 0):
            raise ConsistencyError("candidate launch slopes fail to increase; "
                                   "the level table cannot separate its entries")
        return AttractorTable("quarter", M_cap, np.asarray(zs, dtype=float),
                              [p.values for p in profiles])
    E = zero_set(nl)
    pts = [z for z in E.points if z <= M_cap]
    ivs = tuple((a, min(b, M_cap)) for a, b in E.intervals if a <= M_cap)
    return AttractorTable("half", M_cap, np.asarray(pts, dtype=float), None, ivs)


def _window(field: Field, k0: int, w: int):
    """Trailing comparison window: rows k0..k0+w, bottom 3/4 of x2 (quarter)."""
    if field.kind == "quarter":
        j_hi = int(math.floor(0.75 * field.grid.n2)) + 1
        return field.values[k0:k0 + w + 1, :j_hi]
    return field.values[k0:k0 + w + 1, :]


def _candidate_distance(win: np.ndarray, table: AttractorTable, idx: int,
                        j_cap: int) -> tuple[float, float]:
    """Sup-distance of a window to candidate idx; returns (distance, level)."""
    if table.kind == "quarter":
        prof = table.profiles[idx][:j_cap]
        return float(np.max(np.abs(win - prof[None, :]))), float(table.zs[idx])
    if idx < table.zs.size:
        z = float(table.zs[idx])
        return float(np.max(np.abs(win - z))), z
    a, b = table.intervals[idx - table.zs.size]
    c = float(np.clip(np.median(win), a, b))
    return float(np.max(np.abs(win - c))), c


@dataclass(eq=False)
class TrajectoryReport:
    detected_z: float | None
    converged: bool
    M: float
    m: float
    tail_slope: float | None
    distances: list          # [{"h": shift, "z": best level, "d": distance}, ...]
    notes: tuple = ()

    def to_json_dict(self) -> dict:
        return {
            "detected_z": self.detected_z,
            "converged": self.converged,
            "M": self.M,
            "m": self.m,
            "tail_slope": self.tail_slope,
            "distances": self.distances,
            "notes": list(self.notes),
        }


def check_ladder(n_shifts: int, conv_tol: float) -> None:
    """omega_limit's argument check, for callers that run it before a solve."""
    if n_shifts < 1 or not 0 < conv_tol < math.inf:
        raise InputError("omega_limit: need n_shifts >= 1 and finite conv_tol > 0")


def omega_limit(nl: Nonlinearity, field: Field, table: AttractorTable | None = None,
                n_shifts: int = 16, conv_tol: float = _CONV_TOL) -> TrajectoryReport:
    """Detect the far-field limit of a solved field.

    Measures the sup-distance from trailing windows to every candidate at a
    geometric ladder of shifts. Candidates come from the supplied table, or
    from attractor_table capped just above the field's trailing amplitude.
    Converged means the winning candidate's final distance is below conv_tol
    and the runner-up (if any) is at least twice as far. tail_slope is the
    fitted exponential rate of the winner's distance over the shift ladder,
    a health check on the truncation size.
    """
    check_ladder(n_shifts, conv_tol)
    g = field.grid
    notes = []
    est = estimate_M(field)
    if table is None:
        table = attractor_table(nl, g, field.kind, est.M + _M_MARGIN)
    n_cand = (len(table.zs) if table.kind == "quarter"
              else table.zs.size + len(table.intervals))
    if n_cand == 0:
        return TrajectoryReport(None, False, est.M, est.m, None, [],
                                ("no candidate levels at or below the field amplitude",))

    w = max(2, int(math.floor(_WINDOW_FRAC * g.n1)))
    k_max = g.n1 - w
    if k_max < 1:
        raise InputError("field too short in x1 for trajectory analysis")
    ks = np.unique(np.clip(np.round(
        np.geomspace(1, k_max, n_shifts)).astype(int), 1, k_max))
    j_cap = int(math.floor(0.75 * g.n2)) + 1 if field.kind == "quarter" else g.n2

    per_cand = np.empty((ks.size, n_cand))
    levels = np.empty((ks.size, n_cand))
    for a, k0 in enumerate(ks):
        win = _window(field, int(k0), w)
        for idx in range(n_cand):
            per_cand[a, idx], levels[a, idx] = _candidate_distance(win, table, idx, j_cap)

    final = per_cand[-1]
    best = int(np.argmin(final))
    ok_margin = True
    if n_cand > 1:
        runner = np.partition(final, 1)[1]
        ok_margin = runner >= _MARGIN_FACTOR * final[best]
        if not ok_margin:
            notes.append("runner-up candidate too close; detection ambiguous")
    converged = bool(final[best] <= conv_tol and ok_margin)

    # One row per (shift, candidate); each candidate keeps the level it
    # settled on at the final shift so rows group into per-candidate curves.
    dist_rows = []
    for a, k0 in enumerate(ks):
        for idx in range(n_cand):
            dist_rows.append({"h": float(k0 * g.h), "z": float(levels[-1, idx]),
                              "d": float(per_cand[a, idx])})
    dbest = per_cand[:, best]
    pos = dbest > 0
    tail_slope = None
    if np.count_nonzero(pos) >= 3:
        tail_slope = float(np.polyfit(ks[pos] * g.h, np.log(dbest[pos]), 1)[0])

    detected = float(levels[-1, best])
    return TrajectoryReport(detected, converged, est.M, est.m, tail_slope,
                            dist_rows, tuple(notes))


def window_norm(field: Field, window, order: int = 0) -> float:
    """Sup-norm of the field over a coordinate window, optionally with
    first and second central differences (order 2).

    window is ((x1_lo, x1_hi), (x2_lo, x2_hi)) in coordinates; nodes inside
    the closed rectangle participate. Difference quotients are taken inside
    the window only, so order 2 needs at least 3 nodes per direction.
    """
    if order not in (0, 2):
        raise InputError("order must be 0 or 2")
    g = field.grid
    (a1, b1), (a2, b2) = window
    h = g.h
    x1 = g.x1_nodes(field.kind)
    x2 = g.x2(field.kind)
    if a1 < x1[0] - 1e-9 or b1 > x1[-1] + 1e-9 or a2 < x2[0] - 1e-9 or b2 > x2[-1] + 1e-9:
        raise InputError("window extends outside the field's domain")
    i0 = int(np.searchsorted(x1, a1 - 1e-9))
    i1 = int(np.searchsorted(x1, b1 + 1e-9))
    j0 = int(np.searchsorted(x2, a2 - 1e-9))
    j1 = int(np.searchsorted(x2, b2 + 1e-9))
    sub = field.values[i0:i1, j0:j1]
    if sub.size == 0:
        raise InputError("window contains no grid nodes")
    norm = float(np.max(np.abs(sub)))
    if order == 0:
        return norm
    if sub.shape[0] < 3 or sub.shape[1] < 3:
        raise InputError("order-2 window needs at least 3 nodes per direction")
    d1 = np.abs(sub[2:, :] - sub[:-2, :]) / (2 * h)
    d2 = np.abs(sub[:, 2:] - sub[:, :-2]) / (2 * h)
    dd1 = np.abs(sub[2:, :] - 2 * sub[1:-1, :] + sub[:-2, :]) / h**2
    dd2 = np.abs(sub[:, 2:] - 2 * sub[:, 1:-1] + sub[:, :-2]) / h**2
    norm += max(float(np.max(d1)), float(np.max(d2)))
    norm += max(float(np.max(dd1)), float(np.max(dd2)))
    return norm
