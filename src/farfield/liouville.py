"""Randomized sweeps over compact surrogate domains.

The unbounded-domain rigidity statements (bounded entire states are
constants; floor-anchored states are the rising profiles) cannot be tested
directly, so this module runs their compact surrogates many times from
random smooth starts:

  box sweep   : doubly periodic torus, random start, expect a constant at a
                zero of f;
  strip sweep : floor at x1 = 0, x2-periodic, random start vanishing on the
                floor, expect the rising profile over the floor with no
                lateral variation.

Each trial runs the semi-implicit flow from its start down to the rounding
floor, so it reports the state the evolution selects: the flow keeps order
down to its basin, and in the basin it sums its geometric tail in jumps of
at most 2x a step. Newton finishes only a trial whose flow stops
contracting above tol. The flow's operator (L, b and the K - L solver) is
fixed by the sweep's grid and trace, so a sweep gathers it once and its
trials share it; a second sweep on the grid builds no L or solver. Every
report carries an explicit surrogate-domain banner so the results are
never mistaken for statements about the unbounded problem. Trials are
reproducible: trials run one after another, trial k of a sweep with seed
s draws from SeedSequence((s, k)), and aggregation is in trial order.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .elliptic import (FlowOperator, _apply_boundary, _finish, flow_operator,
                       flow_relax, newton_solve)
from .errors import InputError, NumericError
from .grids import Field, Grid2D, as_trace, make_grid, periodic_axes
from .nonlinearity import Nonlinearity
from .trajectory import AttractorTable, attractor_table

SURROGATE_BANNER = ("results on a compact surrogate domain; "
                    "not direct evidence about the unbounded problem")

_CONST_TOL = 1e-4
_N_MODES = 8
_AMP_MAX = 3.0
_TRIAL_TOL = 1e-9          # residual a trial's state must reach


def noise_start(grid: Grid2D, kind: str, rng: np.random.Generator) -> np.ndarray:
    """Random smooth nonnegative start: 8 cosine modes, amplitudes in [0, 3].

    The 1/8 mode averaging keeps the field at or below 3, so sweeps with the
    oscillatory member stay under its first positive plateau. Where x1 is
    not periodic (the strip's half domain) the trace row is zeroed. The 24
    uniforms come in one draw, three per mode (amplitude, then the two
    phases), and the modes a cos(2 pi k x + ph1) cos(2 pi k y + ph2) sum as
    one rank-8 product.
    """
    a, ph1, ph2 = rng.random(3 * _N_MODES).reshape(_N_MODES, 3).T
    wave = 2.0 * np.pi * np.arange(1, _N_MODES + 1)
    x = grid.x1_nodes(kind) / grid.L1
    y = grid.x2(kind) / grid.L2
    u = ((_AMP_MAX * a) * np.cos(np.outer(x, wave) + 2.0 * np.pi * ph1)
         @ np.cos(np.outer(wave, y) + (2.0 * np.pi * ph2)[:, None]))
    u = np.clip(u / _N_MODES, 0.0, None)
    if not periodic_axes(kind)[0]:
        u[0, :] = 0.0
    return u


@dataclass(eq=False)
class TrialResult:
    index: int
    outcome: str                  # constant | profile | other | unconverged
    residual: float | None        # None when the trial did not converge
    deviation: float | None = None   # max - min of the converged field
    level: float | None = None    # constant trials: the level reached
    dist_to_zero_set: float | None = None
    lateral_variation: float | None = None
    nearest_z: float | None = None
    profile_distance: float | None = None


@dataclass(eq=False)
class SweepReport:
    domain: str                   # box | strip
    L: float
    h: float
    n_trials: int
    seed: int
    trials: list
    counts: dict
    converged: int = 0
    constant_count: int = 0
    max_deviation: float | None = None
    zero_distance: float | None = None   # worst distance of a level to the zero set
    notes: tuple = (SURROGATE_BANNER,)


def _robust_solve(nl: Nonlinearity, grid: Grid2D, kind: str, tr, u0: np.ndarray,
                  op: FlowOperator) -> Field:
    """Flow to the rounding floor; Newton finishes only if it stalls above _TRIAL_TOL.

    The semi-implicit flow keeps order down to a residual of 1e-5, so the
    trial lands on the state the evolution from u0 selects; Newton run
    straight from noise could land on any state, the unstable ones
    included. Below 1e-5 the flow runs while each step at least halves the
    residual, and jumps its geometric tail once two ratios agree (at most 2x
    a step), which carries it to the rounding floor (about 5e-14 at
    h = 0.25 and 2e-13 at h = 0.125, so no fixed target fits every grid).
    A state at or below _TRIAL_TOL is the answer; otherwise Newton starts
    from it. `op` is the sweep's shared `flow_operator`, built for the
    trace tr.
    """
    u = _apply_boundary(u0, kind, tr)
    u_flow, _, res, _ = flow_relax(nl, u, grid, kind, res_target=0.0, basin=1e-5,
                                   op=op)
    if res <= _TRIAL_TOL:
        return _finish(nl, u_flow, grid, kind, res, {"method": "flow", "iterations": 0})
    return newton_solve(nl, grid, kind, u_flow, tol=_TRIAL_TOL)


def _classify_box(f: Field, table: AttractorTable) -> TrialResult:
    u = f.values
    spread = float(np.max(u) - np.min(u))
    if spread >= _CONST_TOL:
        return TrialResult(-1, "other", f.residual, deviation=spread)
    level = float(np.mean(u))
    return TrialResult(-1, "constant", f.residual, deviation=spread, level=level,
                       dist_to_zero_set=min(max(a - level, level - b, 0.0)
                                            for a, b in table.ranges))


def _classify_strip(f: Field, table: AttractorTable) -> TrialResult:
    u = f.values
    lat = float(np.max(np.max(u, axis=1) - np.min(u, axis=1)))
    height_mean = np.mean(u, axis=1)
    best_z, best_d = None, np.inf
    for (z, _), prof in zip(table.ranges, table.profiles):
        d = float(np.max(np.abs(height_mean - prof)))
        if d < best_d:
            best_z, best_d = z, d
    outcome = "profile" if (lat < _CONST_TOL and best_d < 1e-2) else "other"
    return TrialResult(-1, outcome, f.residual, deviation=lat,
                       lateral_variation=lat, nearest_z=best_z,
                       profile_distance=best_d)


def _sweep(nl: Nonlinearity, domain: str, L: float, h: float, n_trials: int,
           seed: int) -> SweepReport:
    """Trials run in order; trial k draws its start from SeedSequence((seed, k))."""
    if n_trials < 1:
        raise InputError("need n_trials >= 1")
    if seed < 0:
        raise InputError(f"need seed >= 0, got {seed}")
    grid = make_grid(L, L, h)
    zeros = attractor_table(nl, nl.s_max)
    if not zeros.ranges:
        raise InputError("the nonlinearity has no zeros in its window; "
                         "every bounded state would be transient")
    box = domain == "box"
    kind, tr = ("torus", None) if box else ("half", as_trace(0.0, grid, "half"))
    table = zeros if box else attractor_table(nl, _AMP_MAX + 0.5, (L, grid.n1))
    op = flow_operator(nl, grid, kind, tr)

    trials = []
    for k in range(n_trials):
        rng = np.random.default_rng(np.random.SeedSequence((seed, k)))
        u0 = noise_start(grid, kind, rng)
        try:
            f = _robust_solve(nl, grid, kind, tr, u0, op)
        except NumericError:
            trials.append(TrialResult(k, "unconverged", None))
            continue
        t = _classify_box(f, table) if box else _classify_strip(f, table)
        t.index = k
        trials.append(t)

    counts = dict(Counter(t.outcome for t in trials))
    conv = [t for t in trials if t.outcome != "unconverged"]
    return SweepReport(domain, float(L), float(h), n_trials, seed, trials,
                       counts, converged=len(conv),
                       constant_count=counts.get("constant", 0),
                       max_deviation=max((t.deviation for t in conv), default=None),
                       zero_distance=max((t.dist_to_zero_set for t in conv
                                          if t.outcome == "constant"), default=None))


def periodic_box_sweep(nl: Nonlinearity, L: float = 16.0, h: float = 0.25,
                       n_trials: int = 20, seed: int = 0) -> SweepReport:
    """Random-start sweep on the doubly periodic box."""
    return _sweep(nl, "box", L, h, n_trials, seed)


def halfspace_strip_sweep(nl: Nonlinearity, L: float = 16.0, h: float = 0.25,
                          n_trials: int = 20, seed: int = 0) -> SweepReport:
    """Random-start sweep on the floor-anchored, laterally periodic strip.

    The strip reuses the half-domain stencil with a zero trace: the trace
    column is the floor, x1 is height, and x2 wraps laterally. Candidate
    height profiles come from `attractor_table`, the candidate table that
    `omega_limit` and the box sweep also read, sampled along the height
    axis and capped just above the start amplitude.
    """
    return _sweep(nl, "strip", L, h, n_trials, seed)

