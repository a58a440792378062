"""Random-start sweeps on compact surrogates."""

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict

import numpy as np
import pytest

import farfield.elliptic as elliptic
import farfield.liouville as liouville
from farfield.elliptic import solve_field
from farfield.errors import ConsistencyError, InputError, NumericError
from farfield.grids import make_grid
from farfield.liouville import (SURROGATE_BANNER, halfspace_strip_sweep,
                                noise_start, periodic_box_sweep)
from farfield.nonlinearity import from_table, make, zero_set


# ---------------------------------------------------------------------------
# random starts

def test_noise_start_shape_and_bounds():
    g = make_grid(8.0, 8.0, 0.5)
    u = noise_start(g, "torus", np.random.default_rng(7))
    assert u.shape == (g.n1, g.n2)
    assert u.min() >= 0.0
    assert u.max() <= 3.0


def test_noise_start_is_deterministic_per_seed():
    g = make_grid(8.0, 8.0, 0.5)
    u1 = noise_start(g, "torus", np.random.default_rng(7))
    u2 = noise_start(g, "torus", np.random.default_rng(7))
    u3 = noise_start(g, "torus", np.random.default_rng(8))
    assert np.array_equal(u1, u2)
    assert not np.array_equal(u1, u3)


def _reference_noise_start(grid, kind, rng):
    # one mode at a time, each drawing its amplitude, then its two phases
    x = grid.x1_nodes(kind)[:, None] / grid.L1
    y = grid.x2(kind)[None, :] / grid.L2
    u = np.zeros((x.size, y.shape[1]))
    for k in range(1, 9):
        a = rng.uniform(0.0, 3.0)
        ph1, ph2 = rng.uniform(0.0, 2.0 * np.pi, size=2)
        u += a * np.cos(2.0 * np.pi * k * x + ph1) * np.cos(2.0 * np.pi * k * y + ph2)
    u = np.clip(u / 8, 0.0, None)
    if kind == "half":
        u[0, :] = 0.0
    return u


@pytest.mark.parametrize("kind", ["torus", "half"])
def test_noise_start_matches_the_mode_loop(kind):
    # the rank-8 product sums the loop's mode products in another order
    g = make_grid(8.0, 8.0, 0.25)
    for seed in range(20):
        u = noise_start(g, kind, np.random.default_rng(seed))
        ref = _reference_noise_start(g, kind, np.random.default_rng(seed))
        assert u.shape == ref.shape
        assert np.max(np.abs(u - ref)) <= 1e-15, seed
        assert u.min() >= 0.0
        if kind == "half":
            assert np.all(u[0, :] == 0.0)


def test_noise_start_half_zeroes_the_floor():
    g = make_grid(8.0, 8.0, 0.5)
    u = noise_start(g, "half", np.random.default_rng(7))
    assert u.shape == (g.n1 + 1, g.n2)
    assert np.all(u[0, :] == 0.0)
    assert u[1:].max() > 0.0


# ---------------------------------------------------------------------------
# box sweep

def test_box_sweep_all_trials_settle_on_a_plateau():
    nl = make("abs-sin")
    rep = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=4, seed=0)
    assert rep.counts == {"constant": 4}
    assert rep.converged == 4
    assert rep.constant_count == 4
    for t in rep.trials:
        assert t.deviation < 1e-12
        assert abs(t.level - math.pi) < 1e-10
        assert t.dist_to_zero_set < 1e-12
    assert rep.max_deviation < 1e-12
    assert rep.zero_distance < 1e-12


def test_box_sweep_is_reproducible_bit_exact():
    nl = make("abs-sin")
    a = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=4, seed=3)
    b = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=4, seed=3)
    for ta, tb in zip(a.trials, b.trials):
        assert asdict(ta) == asdict(tb)


def test_box_sweep_trials_are_a_prefix_of_longer_sweeps():
    # trial k depends only on (seed, k), not on how many trials follow it
    nl = make("abs-sin")
    a = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=2, seed=0)
    b = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=4, seed=0)
    assert [asdict(t) for t in a.trials] == \
        [asdict(t) for t in b.trials[:2]]


@pytest.mark.parametrize("sweep", [periodic_box_sweep, halfspace_strip_sweep])
def test_sweep_assembles_once(sweep, monkeypatch, cold_operators):
    # L is assembled once, on the sweep's first trial: every trial's flow
    # gets that one kept L back and builds only its own b
    real_assemble, real_kron = elliptic.assemble_laplacian, elliptic._kron_sum
    Ls, built = [], []
    monkeypatch.setattr(elliptic, "assemble_laplacian",
                        lambda *a, **kw: (lambda Lb: Ls.append(Lb[0]) or Lb)(real_assemble(*a, **kw)))
    monkeypatch.setattr(elliptic, "_kron_sum",
                        lambda *a, **kw: built.append(None) or real_kron(*a, **kw))
    rep = sweep(make("abs-sin"), L=8.0, h=0.5, n_trials=3, seed=0)
    assert rep.converged == 3
    assert len(Ls) >= 3 and all(L is Ls[0] for L in Ls)
    assert len(built) == 1


@pytest.mark.parametrize("sweep", [periodic_box_sweep, halfspace_strip_sweep])
def test_sweeps_on_one_grid_build_once_per_process(sweep, monkeypatch, cold_operators):
    # L and the dense eigenbases of its two axes (the flow's K - L solver)
    # depend on the grid alone: the first sweep builds each once for all its
    # trials, and a second sweep on the grid, with another seed, builds none
    built = []
    for name in ("_kron_sum", "_axis_eigenbasis"):
        real = getattr(elliptic, name)
        monkeypatch.setattr(elliptic, name, lambda *a, _n=name, _f=real, **kw:
                            built.append(_n) or _f(*a, **kw))
    nl = make("abs-sin")
    for seed in (0, 1):
        rep = sweep(nl, L=8.0, h=0.5, n_trials=3, seed=seed)
        assert rep.converged == 3
        assert sorted(built) == ["_axis_eigenbasis", "_axis_eigenbasis", "_kron_sum"]


def test_sweep_is_blas_thread_invariant():
    # on 64 x 64 unknowns the flow's shifted solves are dense matrix
    # products; the sweep's report must not depend on the BLAS thread count
    code = ("import json; from dataclasses import asdict; "
            "from farfield.nonlinearity import make; "
            "from farfield.liouville import periodic_box_sweep, halfspace_strip_sweep; "
            "nl = make('abs-sin'); "
            "print(json.dumps([asdict(s(nl, L=16.0, h=0.25, n_trials=4, seed=5)) "
            "for s in (periodic_box_sweep, halfspace_strip_sweep)]))")
    src = os.path.dirname(os.path.dirname(liouville.__file__))
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, check=True, timeout=120)
        outs.append(proc.stdout)
    reports = json.loads(outs[0])
    assert [r["converged"] for r in reports] == [4, 4]
    assert outs[0] == outs[1]


def test_box_sweep_counts_failed_trials_without_dying(monkeypatch):
    nl = make("abs-sin")
    real = liouville._robust_solve
    calls = []

    def flaky(*args, **kwargs):
        calls.append(None)
        if len(calls) == 2:
            raise NumericError("injected failure")
        return real(*args, **kwargs)

    monkeypatch.setattr(liouville, "_robust_solve", flaky)
    rep = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=4, seed=0)
    assert rep.counts == {"constant": 3, "unconverged": 1}
    assert rep.converged == 3
    bad = rep.trials[1]
    assert bad.outcome == "unconverged"
    assert bad.residual is None


def test_every_box_trial_lands_on_pi():
    # |sin| >= 0, so the torus mean never falls under the flow: from these
    # nonnegative starts the evolution selects pi, never the zero state
    nl = make("abs-sin")
    rep = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=20, seed=0)
    assert rep.counts == {"constant": 20}
    assert all(abs(t.level - math.pi) < 1e-10 for t in rep.trials)


def test_box_levels_inside_flat_zero_intervals_are_at_distance_zero():
    # cantor:3 vanishes on flat intervals and has no isolated zero, so every
    # distance comes from a candidate range (a, b) with a < b; a level strictly
    # inside one is a zero, at distance exactly 0
    nl = make("cantor:3")
    rep = periodic_box_sweep(nl, L=4.0, h=0.25, n_trials=4, seed=0)
    assert rep.counts == {"constant": 4}
    assert all(t.dist_to_zero_set == 0.0 for t in rep.trials)
    assert rep.zero_distance == 0.0
    intervals = zero_set(nl).intervals
    assert any(a < t.level < b for t in rep.trials for a, b in intervals)


def _flat_interval_start(g):
    # cantor:3 vanishes on [0.963, 1]: from 0.97 under a trace of 0.99 the
    # state stays where f' = 0, a flow step cuts the residual only by about
    # K / (K + slowest Laplacian eigenvalue), and the flow hands off to Newton.
    # Returns the term and the start, its trace row set to 0.99
    u0 = np.full((g.n1 + 1, g.n2), 0.97)
    u0[0, :] = 0.99
    return make("cantor:3"), u0


def test_singular_factor_is_a_numeric_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(elliptic, "splu", singular)
    nl = make("abs-sin")
    g = make_grid(4.0, 4.0, 0.5)
    u0 = noise_start(g, "torus", np.random.default_rng(0))
    with pytest.raises(NumericError, match="singular"):
        elliptic.newton_solve(nl, g, "torus", u0)
    nl, u0 = _flat_interval_start(g)
    with pytest.raises(NumericError, match="singular"):
        liouville._robust_solve(nl, g, "half", u0)


def test_flow_that_stops_contracting_hands_off_to_newton(monkeypatch):
    calls = []
    real = liouville.newton_solve
    monkeypatch.setattr(liouville, "newton_solve",
                        lambda *a, **kw: calls.append(None) or real(*a, **kw))
    g = make_grid(4.0, 4.0, 0.5)
    nl, u0 = _flat_interval_start(g)
    f = liouville._robust_solve(nl, g, "half", u0)
    assert len(calls) == 1
    assert f.meta["method"] == "newton" and f.meta["iterations"] >= 1
    assert f.residual <= 1e-9
    # a trial that needs no handoff never calls Newton
    box = periodic_box_sweep(make("abs-sin"), L=8.0, h=0.5, n_trials=2, seed=0)
    assert box.counts == {"constant": 2}
    assert len(calls) == 1


def test_consistency_error_is_not_swallowed(monkeypatch):
    real = liouville.newton_solve
    calls = []

    def inconsistent_once(*args, **kwargs):
        calls.append(None)
        if len(calls) == 1:
            raise ConsistencyError("injected disagreement")
        return real(*args, **kwargs)

    monkeypatch.setattr(liouville, "newton_solve", inconsistent_once)
    g = make_grid(4.0, 4.0, 0.5)
    nl, u0 = _flat_interval_start(g)
    with pytest.raises(ConsistencyError):
        liouville._robust_solve(nl, g, "half", u0)


def _strip_starts(n=20):
    # the sweep's own abs-sin strip starts (L 8, h 0.25, seed 0): noise_start
    # zeroes their trace row, the floor
    g = make_grid(8.0, 8.0, 0.25)
    starts = [noise_start(g, "half", np.random.default_rng(np.random.SeedSequence((0, k))))
              for k in range(n)]
    return make("abs-sin"), g, starts


def test_basin_flow_jumps_its_geometric_tail_to_the_plain_flow_state():
    # in the basin the strip flow contracts by a steady 0.335 a step; the
    # tail jump sums that geometric tail, so the flow reaches the rounding
    # floor in fewer steps and lands where the plain flow does
    nl, g, starts = _strip_starts()
    steps = []
    for u0 in starts:
        u, k, res, _ = elliptic.flow_relax(nl, u0, g, "half", res_target=0.0,
                                           basin=1e-5)
        u_plain, _, res_plain, _ = elliptic.flow_relax(nl, u0, g, "half",
                                                       res_target=1e-12)
        assert res <= 1e-12 and res_plain <= 1e-12
        assert float(np.max(np.abs(u - u_plain))) <= 1e-12
        steps.append(k)
    assert np.median(steps) <= 28, steps


def test_tail_jump_waits_for_the_basin():
    # above the basin the flow is the plain order-keeping step: a basin flow
    # matches the plain flow bit for bit until one step after its residual
    # first reaches the basin; the step after that is the first jump
    basin = 1e-5
    nl, g, starts = _strip_starts(1)
    for k0 in range(1, 40):
        _, _, res, _ = elliptic.flow_relax(nl, starts[0], g, "half", res_target=0.0,
                                           max_steps=k0)
        if res <= basin:
            break
    runs = {cap: [elliptic.flow_relax(nl, starts[0], g, "half", res_target=0.0,
                                      max_steps=cap, basin=b)[0]
                  for b in (basin, None)]
            for cap in (k0 + 1, k0 + 2)}
    assert np.array_equal(*runs[k0 + 1])
    assert not np.array_equal(*runs[k0 + 2])


_SWEEP_COUNTS = {   # (domain, h): verdicts of 20 abs-sin trials, L 8, seed 0
    ("box", 0.5): {"constant": 20}, ("strip", 0.5): {"other": 20},
    ("box", 0.25): {"constant": 20}, ("strip", 0.25): {"profile": 20},
    ("box", 0.125): {"constant": 20}, ("strip", 0.125): {"profile": 20},
}


@pytest.mark.parametrize("domain, h", list(_SWEEP_COUNTS))
def test_sweep_tails_keep_verdicts_without_newton(domain, h, monkeypatch):
    # the tail jump lands every trial on the rounding floor: no trial stalls
    # above _TRIAL_TOL, so none reaches Newton
    def refuse(*args, **kwargs):
        raise AssertionError("no abs-sin trial should reach Newton")

    monkeypatch.setattr(liouville, "newton_solve", refuse)
    sweep = periodic_box_sweep if domain == "box" else halfspace_strip_sweep
    rep = sweep(make("abs-sin"), L=8.0, h=h, n_trials=20, seed=0)
    assert rep.counts == _SWEEP_COUNTS[domain, h]
    assert all(t.residual <= 1e-12 for t in rep.trials)


# ---------------------------------------------------------------------------
# strip sweep

def test_strip_sweep_finds_rising_profiles():
    nl = make("abs-sin")
    rep = halfspace_strip_sweep(nl, L=8.0, h=0.5, n_trials=4, seed=0)
    # every trial climbs to the pi profile; at h = 0.5 the discretization
    # error of the profile (O(h^2), see the refinement test) exceeds the
    # match tolerance, and the classifier refuses the match rather than
    # stretching the tolerance
    assert rep.counts == {"other": 4}
    for t in rep.trials:
        assert t.nearest_z == pytest.approx(math.pi, abs=1e-6)
        assert t.lateral_variation < 1e-4
        assert t.profile_distance > 1e-2


def test_strip_profile_distance_is_discretization_order():
    nl = make("abs-sin")
    dist = {h: [t.profile_distance for t in
                halfspace_strip_sweep(nl, L=8.0, h=h, n_trials=2, seed=0).trials]
            for h in (0.5, 0.25)}
    for coarse, fine in zip(dist[0.5], dist[0.25]):
        assert fine < 1e-2
        assert 3.0 < coarse / fine < 5.0


def test_strip_sweep_trials_are_a_prefix_of_longer_sweeps():
    nl = make("abs-sin")
    a = halfspace_strip_sweep(nl, L=8.0, h=0.5, n_trials=2, seed=0)
    b = halfspace_strip_sweep(nl, L=8.0, h=0.5, n_trials=4, seed=0)
    assert [asdict(t) for t in a.trials] == \
        [asdict(t) for t in b.trials[:2]]


# ---------------------------------------------------------------------------
# report plumbing and validation

def test_sweep_report_json_schema():
    nl = make("abs-sin")
    rep = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=2, seed=1)
    d = asdict(rep)
    assert set(d) == {"domain", "L", "h", "n_trials", "seed", "converged",
                      "constant_count", "max_deviation", "zero_distance",
                      "trials", "counts", "notes"}
    assert d["domain"] == "box"
    assert len(d["trials"]) == 2
    assert set(d["trials"][0]) == {"index", "outcome", "residual",
                                   "deviation", "level", "dist_to_zero_set",
                                   "lateral_variation", "nearest_z",
                                   "profile_distance"}
    assert SURROGATE_BANNER in d["notes"]


def test_sweep_aggregate_invariants():
    nl = make("abs-sin")
    rep = halfspace_strip_sweep(nl, L=8.0, h=0.5, n_trials=4, seed=2)
    assert sum(rep.counts.values()) == rep.n_trials
    assert rep.constant_count <= rep.converged <= rep.n_trials


def test_sweep_rejects_zero_free_nonlinearity():
    nl = from_table([0.0, 1.0], [1.0, 1.0])
    with pytest.raises(InputError):
        periodic_box_sweep(nl, L=4.0, h=0.5, n_trials=1)
    with pytest.raises(InputError):
        halfspace_strip_sweep(nl, L=4.0, h=0.5, n_trials=1)


def test_sweep_rejects_empty_trial_count():
    nl = make("abs-sin")
    with pytest.raises(InputError):
        periodic_box_sweep(nl, n_trials=0)


def test_zero_start_on_torus_stays_zero():
    nl = make("abs-sin")
    g = make_grid(8.0, 8.0, 0.5)
    f = solve_field(nl, g, "torus", None, method="newton",
                    u0=np.zeros((g.n1, g.n2)))
    assert np.max(np.abs(f.values)) == 0.0

