"""Far-field trajectory analysis of solved fields.

A solved field on a truncated domain is read as a trajectory: sliding the
view toward larger x1 is the semiflow, and the question is what the view
settles on. Shifting is pure array slicing, so the semigroup laws hold
bit-exactly by construction. The limit candidates form one table,
`attractor_table` (or `quarter_table`, from profiles already built), which
serves `omega_limit` here and both sweeps in `liouville`. Each candidate is
a closed level range, (z, z) for one level. Which kind of candidate a
field gets is read from its x2 axis in the domain table `grids.PERIODIC`:
a floor in x2 makes them rising profiles, a periodic x2 constants.

  quarter, strip : the rising profiles V_z for z in the reachable-zero set,
                   plus the zero state when f(0) = 0 (their launch slopes
                   are strictly increasing, which is what makes detection
                   well posed);
  half, box      : the constants in the zero set of f (flat intervals count
                   as ranges of constants).

Detection measures sup-distance between trailing windows of the field and
each candidate at a ladder of shifts, then asks whether the best candidate
wins clearly and whether its distance has dropped below tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConsistencyError, InputError
from .grids import Field, Grid2D, periodic_axes
from .nonlinearity import Nonlinearity, compute_Zf, zero_set
from .profile1d import compute_profile

_M_MARGIN = 0.5            # levels up to M + this stay candidates
_MARGIN_FACTOR = 2.0       # runner-up must be this many times farther
_CONV_TOL = 1e-2           # converged: the winner's final distance is at most this
_WINDOW_FRAC = 0.25        # comparison window length, as a share of n1
_M_FRAC = 0.75             # estimate_M: trailing window from this share of L1
_SLOPE_SPAN = 10.0         # tail_slope fits rungs at least this many times the final distance
_N_SHIFTS = 16             # rungs of the geometric shift ladder, before duplicates merge


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
    return Field(vals, g2, field.kind, field.residual, dict(field.meta))


@dataclass(eq=False)
class MEstimate:
    M: float                # sup of u over the trailing window
    m: float                # inf of u over the trailing window


def estimate_M(field: Field) -> MEstimate:
    """Bound the eventual amplitude from the trailing window x1 >= _M_FRAC * L1,
    which sees only the far field."""
    vals = field.values
    k0 = min(int(math.ceil(_M_FRAC * field.grid.n1 - 1e-9)), field.grid.n1 - 1)
    return MEstimate(float(np.max(vals[k0:, :])), float(np.min(vals[k0:, :])))


@dataclass(eq=False)
class AttractorTable:
    ranges: list[tuple[float, float]]    # closed level ranges, (z, z) for one level
    profiles: list[np.ndarray] | None    # with an axis: V_z for each range (z, z)


def attractor_table(nl: Nonlinearity, M_cap: float,
                    axis: tuple[float, int] | None = None) -> AttractorTable:
    """The far-field candidates with levels at most M_cap.

    With axis = (xi_max, n), the candidates are the rising profiles V_z for
    z in the reachable-zero set, sampled on the n + 1 nodes normal to the
    floor; the strict increase of their launch slopes is asserted because
    that is what separates them. Without it, they are the constants in the
    zero set of f: its points, then its flat intervals cut at M_cap.
    """
    if axis is not None:
        xi_max, n = axis
        return _profile_table({z: compute_profile(nl, z, xi_max=xi_max, n=n)
                               for z in compute_Zf(nl).points if z <= M_cap})
    E = zero_set(nl)
    return AttractorTable([(z, z) for z in E.points if z <= M_cap]
                          + [(a, min(b, M_cap)) for a, b in E.intervals if a <= M_cap],
                          None)


def _profile_table(profiles: dict) -> AttractorTable:
    """The rising profiles {z: V_z}, in level order, as candidates; the
    strict increase of their launch slopes is what separates them."""
    if np.any(np.diff([p.slope0 for p in profiles.values()]) <= 0):
        raise ConsistencyError("candidate launch slopes fail to increase; "
                               "the level table cannot separate its entries")
    return AttractorTable([(z, z) for z in profiles], [p.values for p in profiles.values()])


def quarter_table(field: Field, profiles: dict) -> AttractorTable:
    """omega_limit's own candidates for a quarter field, cut from profiles
    {z: V_z} already built on its x2 nodes for every reachable level."""
    cap = estimate_M(field).M + _M_MARGIN
    return _profile_table({z: p for z, p in profiles.items() if z <= cap})


@dataclass(eq=False)
class TrajectoryReport:
    detected_z: float | None
    converged: bool
    M: float
    m: float
    tail_slope: float | None
    distances: list          # [{"h": shift, "z": best level, "d": distance}, ...]
    notes: tuple = ()


def omega_limit(nl: Nonlinearity, field: Field,
                table: AttractorTable | None = None) -> TrajectoryReport:
    """Detect the far-field limit of a solved field.

    Measures the sup-distance from trailing windows to every candidate at a
    geometric ladder of _N_SHIFTS shifts. Candidates come from the supplied
    table, or from attractor_table capped just above the field's trailing
    amplitude: the rising profiles over a floor in x2, the constants over a
    periodic x2.
    Converged means the winning candidate's final distance is at most
    _CONV_TOL and the runner-up (if any) is at least twice as far.
    tail_slope is the fitted exponential rate of the winner's distance over
    the rungs of the shift ladder at least _SLOPE_SPAN times its final
    distance, None when fewer than 3 qualify.
    """
    g = field.grid
    notes = []
    est = estimate_M(field)
    floor = not periodic_axes(field.kind)[1]     # a floor in x2: rising profiles
    if table is None:
        table = attractor_table(nl, est.M + _M_MARGIN, (g.L2, g.n2) if floor else None)
    n_cand = len(table.ranges)
    if n_cand == 0:
        return TrajectoryReport(None, False, est.M, est.m, None, [],
                                ("no candidate levels at or below the field amplitude",))

    w = max(2, int(math.floor(_WINDOW_FRAC * g.n1)))
    k_max = g.n1 - w
    if k_max < 1:
        raise InputError("field too short in x1 for trajectory analysis")
    ks = np.unique(np.clip(np.round(
        np.geomspace(1, k_max, _N_SHIFTS)).astype(int), 1, k_max))
    # windows over a floor keep the bottom 3/4 of the x2 nodes
    j_cap = int(math.floor(0.75 * g.n2)) + 1 if floor else g.n2

    per_cand = np.empty((ks.size, n_cand))
    levels = np.empty((ks.size, n_cand))
    for a, k0 in enumerate(ks):
        win = field.values[k0:k0 + w + 1, :j_cap]
        for idx, (lo, hi) in enumerate(table.ranges):
            if table.profiles is not None:
                c, levels[a, idx] = table.profiles[idx][None, :j_cap], lo
            else:
                c = levels[a, idx] = lo if lo == hi else float(np.clip(np.median(win), lo, hi))
            per_cand[a, idx] = np.max(np.abs(win - c))

    final = per_cand[-1]
    best = int(np.argmin(final))
    ok_margin = True
    if n_cand > 1:
        runner = np.partition(final, 1)[1]
        ok_margin = runner >= _MARGIN_FACTOR * final[best]
        if not ok_margin:
            notes.append("runner-up candidate too close; detection ambiguous")
    converged = bool(final[best] <= _CONV_TOL and ok_margin)

    # One row per (shift, candidate); each candidate keeps the level it
    # settled on at the final shift so rows group into per-candidate curves.
    dist_rows = []
    for a, k0 in enumerate(ks):
        for idx in range(n_cand):
            dist_rows.append({"h": float(k0 * g.h), "z": float(levels[-1, idx]),
                              "d": float(per_cand[a, idx])})
    # the fit skips the rungs near the final distance, which sit at the
    # solver's tolerance or the grid's error floor and read as noise
    dbest = per_cand[:, best]
    fit = (dbest > 0) & (dbest >= _SLOPE_SPAN * dbest[-1])
    tail_slope = None
    if np.count_nonzero(fit) >= 3:
        tail_slope = float(np.polyfit(ks[fit] * g.h, np.log(dbest[fit]), 1)[0])

    detected = float(levels[-1, best])
    return TrajectoryReport(detected, converged, est.M, est.m, tail_slope,
                            dist_rows, tuple(notes))
