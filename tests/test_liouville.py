"""Random-start sweeps on compact surrogates."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import farfield.elliptic as elliptic
import farfield.liouville as liouville
from farfield.elliptic import solve_field
from farfield.errors import ConsistencyError, InputError, NumericError
from farfield.grids import make_grid
from farfield.liouville import (SURROGATE_BANNER, halfspace_strip_sweep,
                                noise_start, periodic_box_sweep)
from farfield.nonlinearity import from_table, make


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
        assert ta.to_json_dict() == tb.to_json_dict()


def test_box_sweep_trials_are_a_prefix_of_longer_sweeps():
    # trial k depends only on (seed, k), not on how many trials follow it
    nl = make("abs-sin")
    a = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=2, seed=0)
    b = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=4, seed=0)
    assert [t.to_json_dict() for t in a.trials] == \
        [t.to_json_dict() for t in b.trials[:2]]


@pytest.mark.parametrize("sweep", [periodic_box_sweep, halfspace_strip_sweep])
def test_sweep_assembles_once(sweep, monkeypatch):
    # L, b and the shifted solver are fixed for the sweep: every trial's
    # flow shares the one flow operator built before the first trial
    real = elliptic.assemble_laplacian
    calls = []
    monkeypatch.setattr(elliptic, "assemble_laplacian",
                        lambda *a, **kw: calls.append(None) or real(*a, **kw))
    rep = sweep(make("abs-sin"), L=8.0, h=0.5, n_trials=3, seed=0)
    assert rep.converged == 3
    assert len(calls) == 1


def test_sweep_is_blas_thread_invariant():
    # on 64 x 64 unknowns the flow's shifted solves are dense matrix
    # products; the sweep's report must not depend on the BLAS thread count
    code = ("import json; from farfield.nonlinearity import make; "
            "from farfield.liouville import periodic_box_sweep, halfspace_strip_sweep; "
            "nl = make('abs-sin'); "
            "print(json.dumps([s(nl, L=16.0, h=0.25, n_trials=4, seed=5).to_json_dict() "
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
    assert math.isnan(bad.residual)


def test_every_box_trial_lands_on_pi():
    # |sin| >= 0, so the torus mean never falls under the flow: from these
    # nonnegative starts the evolution selects pi, never the zero state
    nl = make("abs-sin")
    rep = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=20, seed=0)
    assert rep.counts == {"constant": 20}
    assert all(abs(t.level - math.pi) < 1e-10 for t in rep.trials)


def _flat_interval_start(g):
    # cantor:3 vanishes on [0.963, 1]: from 0.97 under a trace of 0.99 the
    # state stays where f' = 0, a flow step cuts the residual only by about
    # K / (K + slowest Laplacian eigenvalue), and the flow hands off to Newton.
    # Returns the term, the start and the flow operator for that trace
    nl = make("cantor:3")
    return (nl, np.full((g.n1 + 1, g.n2), 0.97),
            elliptic.flow_operator(nl, g, "half", np.full(g.n2, 0.99)))


def test_singular_factor_is_a_numeric_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(elliptic, "splu", singular)
    nl = make("abs-sin")
    g = make_grid(4.0, 4.0, 0.5)
    u0 = noise_start(g, "torus", np.random.default_rng(0))
    with pytest.raises(NumericError, match="singular"):
        elliptic.newton_solve(nl, g, "torus", None, u0)
    nl, u0, op = _flat_interval_start(g)
    with pytest.raises(NumericError, match="singular"):
        liouville._robust_solve(nl, g, "half", 0.99, u0, op)


def test_flow_that_stops_contracting_hands_off_to_newton(monkeypatch):
    calls = []
    real = liouville.newton_solve
    monkeypatch.setattr(liouville, "newton_solve",
                        lambda *a, **kw: calls.append(None) or real(*a, **kw))
    g = make_grid(4.0, 4.0, 0.5)
    nl, u0, op = _flat_interval_start(g)
    f = liouville._robust_solve(nl, g, "half", 0.99, u0, op)
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
    nl, u0, op = _flat_interval_start(g)
    with pytest.raises(ConsistencyError):
        liouville._robust_solve(nl, g, "half", 0.99, u0, op)


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
    assert [t.to_json_dict() for t in a.trials] == \
        [t.to_json_dict() for t in b.trials[:2]]


# ---------------------------------------------------------------------------
# report plumbing and validation

def test_sweep_report_json_schema():
    nl = make("abs-sin")
    rep = periodic_box_sweep(nl, L=8.0, h=0.5, n_trials=2, seed=1)
    d = rep.to_json_dict()
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

