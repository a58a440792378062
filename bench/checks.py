"""Correctness checks on the artifacts a benchmark job wrote.

Each ``*_ok`` function judges parsed artifacts, so tests can hand it a
tampered answer; each ``check_*`` function reads one call's output
directory and returns one verdict per job the call carried.  A call that
wrote nothing readable fails every job it carried.
"""

from __future__ import annotations

import csv
import json
import math
import os

CROSSCHECK_TOL = 1e-6       # profile: quadrature vs RK4 launch route
CLOSED_FORM_TOL = 1e-6      # abs-sin profile to pi vs 4 arctan(e^xi) - pi
LEVEL_TOL = 1e-6            # detected far-field level vs the expected one
# sweep gates of the tier-1 random-start classification test
CONST_SPREAD = 1e-4
ZERO_SET_DIST = 1e-3
LATERAL_VARIATION = 1e-4
PROFILE_DIST = 1e-2


def _json(path: str):
    with open(path) as fh:
        return json.load(fh)


def profile_ok(summary: dict, xi: list, v: list, f: str, z: float) -> bool:
    """Route agreement, nondecreasing V, and the closed form where one exists."""
    if not summary["crosscheck"] <= CROSSCHECK_TOL:
        return False
    if any(b < a for a, b in zip(v, v[1:])):
        return False
    if f == "abs-sin" and abs(z - math.pi) < 1e-9:
        err = max(abs(vi - (4.0 * math.atan(math.exp(x)) - math.pi))
                  for x, vi in zip(xi, v))
        if not err <= CLOSED_FORM_TOL:
            return False
    return True


def check_profile(out: str, f: str, z: float) -> list[bool]:
    try:
        summary = _json(os.path.join(out, "profile.json"))
        with open(os.path.join(out, "profile.csv"), newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        xi = [float(r[0]) for r in rows]
        v = [float(r[1]) for r in rows]
        return [profile_ok(summary, xi, v, f, z)]
    except (OSError, ValueError, KeyError, IndexError):
        return [False]


def solve_ok(solve: dict, traj: dict, expected_z: float, tol: float) -> bool:
    """Residual within tol, in the window, converged, at the expected level."""
    return (solve["residual"] <= tol
            and not solve["out_of_window"]
            and traj["converged"] is True
            and traj["detected_z"] is not None
            and abs(traj["detected_z"] - expected_z) <= LEVEL_TOL)


def check_solve(out: str, expected_z: float, tol: float) -> list[bool]:
    try:
        solve = _json(os.path.join(out, "solve.json"))
        traj = _json(os.path.join(out, "trajectory.json"))
        if not os.path.isfile(os.path.join(out, "field.csv")):
            return [False]
        return [solve_ok(solve, traj, expected_z, tol)]
    except (OSError, ValueError, KeyError, TypeError):
        return [False]


def trial_ok(domain: str, trial: dict) -> bool:
    """Box: a constant at a zero of f.  Strip: the rising profile, laterally flat."""
    if domain == "box":
        return (trial["outcome"] == "constant"
                and trial["deviation"] < CONST_SPREAD
                and trial["dist_to_zero_set"] < ZERO_SET_DIST)
    return (trial["outcome"] == "profile"
            and trial["lateral_variation"] < LATERAL_VARIATION
            and trial["profile_distance"] < PROFILE_DIST)


def check_sweep(out: str, domain: str, trials: int) -> list[bool]:
    try:
        rep = _json(os.path.join(out, f"sweep_{domain}.json"))
        got = [trial_ok(domain, t) for t in rep["trials"]]
    except (OSError, ValueError, KeyError, TypeError):
        return [False] * trials
    got = got[:trials]
    return got + [False] * (trials - len(got))
