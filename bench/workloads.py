"""The benchmark's workloads: the CLI calls each one makes, and their checks.

Every workload is a closed loop with one client: the next call starts when
the previous one returns.  Calls come in rounds whose mix of job kinds is
fixed, so the seed changes the inputs but not the share of each kind.  The
seed reaches only the benchmark; the program sees the generated arguments.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks


@dataclass(frozen=True)
class Call:
    argv: tuple
    jobs: int                              # 1, or the trials of a sweep
    check: Callable[[str], list]           # output dir -> one verdict per job


@dataclass(frozen=True)
class Workload:
    name: str
    tail_q: float          # job_s_tail is this quantile of job wall time
    min_jobs: int          # leaves at least 10 jobs above the tail quantile
    trial_jobs: bool       # a job is a sweep trial, timed by the trial clock
    prepare: Callable      # () -> inputs shared by every round (set-up)
    rounds: Callable       # (inputs, random.Random) -> iterator of call lists
    warmup: Callable       # inputs -> the fixed untimed warm-up call


def _min_jobs(q: float) -> int:
    return math.ceil(10 / (1.0 - q) - 1e-9)


# -- profile-catalog ------------------------------------------------------
# Every positive reachable level of three reaction terms; nearly all the work
# is 1-D quadrature and the RK4 cross-check, and the elliptic layer is idle.

CATALOG = ("abs-sin", "logistic", "cantor:3")


def _profile_call(f: str, z: float) -> Call:
    return Call(("profile", "--f", f, "--z", repr(z)), 1,
                partial(checks.check_profile, f=f, z=z))


def _catalog_prepare():
    from farfield.nonlinearity import compute_Zf, make
    return [(f, float(z)) for f in CATALOG for z in compute_Zf(make(f)).points if z > 0]


def _catalog_rounds(levels, rng: random.Random):
    while True:
        order = list(levels)
        rng.shuffle(order)
        yield [_profile_call(f, z) for f, z in order]


PROFILE_CATALOG = Workload(
    "profile-catalog", 0.67, _min_jobs(0.67), False, _catalog_prepare, _catalog_rounds,
    lambda levels: _profile_call("logistic", 1.0))


# -- solve-detect ---------------------------------------------------------
# Solve on a large grid, then detect the far-field limit: operator assembly,
# the explicit flow, one big factorization, omega_limit and the CSV dump.

GRID_Q = ("--L1", "60", "--L2", "30", "--h", "0.25")
GRID_H = ("--L1", "60", "--L2", "20", "--h", "0.25")
# The half job's limit 2 pi is a kink of |sin|: the numeric Jacobian reads
# about 0 there instead of -1, and Newton's first step lands at a residual of
# up to 2.6e-8 for c in [4.5, 6], then creeps.  At tol 1e-8 it crept below
# in 1 to 12 iterations, and on some draws (c = 5.029090466054633) not in 60,
# so the job failed; bench/tests/test_bench.py pins that case.  At 1e-7 every c
# stops after the first step.
HALF_TOL = 1e-7
QUARTER_TOL = 1e-9      # the CLI default


def _quarter_call(c: float, w: float, a: float) -> Call:
    argv = ("solve-quarter", "--f", "linear-decay", *GRID_Q,
            "--trace", f"bump:{c!r},{w!r},{a!r}", "--dump-fields")
    return Call(argv, 1, partial(checks.check_solve, expected_z=1.0, tol=QUARTER_TOL))


def _half_call(c: float) -> Call:
    argv = ("solve-half", "--f", "abs-sin", *GRID_H, "--trace", f"constant:{c!r}",
            "--tol", repr(HALF_TOL), "--dump-fields")
    return Call(argv, 1, partial(checks.check_solve, expected_z=2.0 * math.pi,
                                 tol=HALF_TOL))


def _solve_rounds(_inputs, rng: random.Random):
    # The half job's flow step count depends on c, so c is drawn
    # stratified: one value from each quarter of [4.5, 6] per round.
    while True:
        strata = rng.sample(range(4), 4)
        calls = []
        for s in strata:
            calls.append(_quarter_call(rng.uniform(5.0, 25.0), rng.uniform(2.0, 8.0),
                                       rng.uniform(0.2, 0.9)))
            calls.append(_half_call(4.5 + 1.5 * (s + rng.random()) / 4.0))
        yield calls


SOLVE_DETECT = Workload(
    "solve-detect", 0.67, _min_jobs(0.67), False, lambda: None, _solve_rounds,
    lambda _inputs: _quarter_call(15.0, 5.0, 0.55))


# -- sweep-trials ---------------------------------------------------------
# Many small repeated solves: random-start Newton, and flow plus Newton when
# that fails.  The box is 8 x 8 at h = 0.25 (32^2 unknowns): trial times are
# bimodal, and only a few hundred trials a run keep the share of slow trials,
# and with it every timing, steady from seed to seed.

SWEEP_L = 8.0
SWEEP_H = 0.25
SWEEP_TRIALS = 20


def _sweep_call(domain: str, seed: int, trials: int = SWEEP_TRIALS) -> Call:
    argv = ("liouville-sweep", "--f", "abs-sin", "--domain", domain,
            "--L", repr(SWEEP_L), "--h", repr(SWEEP_H), "--trials", str(trials),
            "--seed", str(seed), "--threads", "1")
    return Call(argv, trials, partial(checks.check_sweep, domain=domain, trials=trials))


def _sweep_rounds(_inputs, rng: random.Random):
    while True:
        yield [_sweep_call("box", rng.randrange(2**31)),
               _sweep_call("strip", rng.randrange(2**31))]


SWEEP_TRIALS_WL = Workload(
    "sweep-trials", 0.9, _min_jobs(0.9), True, lambda: None, _sweep_rounds,
    lambda _inputs: _sweep_call("strip", 0, trials=1))


WORKLOADS = {w.name: w for w in (PROFILE_CATALOG, SOLVE_DETECT, SWEEP_TRIALS_WL)}
