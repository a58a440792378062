"""Command line interface.

Exit codes: 0 success, 1 bad input or config, 2 numerical failure or two
routes to one quantity that disagree, 3 OS error. Every artifact-writing
command is deterministic for fixed inputs except the wall_time_ms field of
solve summaries, which is the only timing-dependent value emitted anywhere.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time

import numpy as np

from .elliptic import (dirichlet_eigenpair, radial_bubble, sliding_verify,
                       solve_field)
from .errors import ConfigError, ConsistencyError, InputError, NumericError
from .grids import make_grid, save_field_csv
from .liouville import halfspace_strip_sweep, periodic_box_sweep
from .nonlinearity import check_hypotheses, compute_Zf, make, zero_set
from .profile1d import compute_profile, save_profile_csv
from .svgplot import svg_line_plot
from .traces import make_trace
from .trajectory import check_ladder, omega_limit

# ---------------------------------------------------------------------------
# config files

_DEFAULT_CONFIG = {
    "nonlinearity": {"spec": "abs-sin", "s_max": None},
    "domain": {"kind": "quarter", "L1": 40.0, "L2": 20.0, "h": 0.25,
               "trace": "constant:0.5", "u0": None},
    "solver": {"method": "auto", "tol": 1e-9, "flow_target": 1e-3},
    "analysis": {"n_shifts": 16, "conv_tol": 1e-2},
    "output": {"dir": "out", "dump_fields": False, "plots": True},
}


def _json_type(val) -> str:
    """The JSON type of a loaded value; a bool is not a number."""
    if val is None:
        return "null"
    if isinstance(val, bool):
        return "boolean"
    if isinstance(val, (int, float)):
        return "number"
    if isinstance(val, str):
        return "string"
    return "array" if isinstance(val, list) else "object"


def load_config(path: str) -> dict:
    """Load and validate a config file; unknown keys are hard errors.

    A value must have its default's JSON type. The keys whose default is
    null (s_max, u0) take a number or null, and only they take null.
    """
    try:
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as e:
                raise ConfigError(f"{path}:{e.lineno}: {e.msg}") from None
    except FileNotFoundError:
        raise ConfigError(f"{path}: no such config file") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    cfg = json.loads(json.dumps(_DEFAULT_CONFIG))   # deep copy
    for key, val in raw.items():
        if key not in _DEFAULT_CONFIG:
            raise ConfigError(f"{path}: unknown section {key!r}")
        if not isinstance(val, dict):
            raise ConfigError(f"{path}: section {key!r} must be an object")
        for k2, v2 in val.items():
            if k2 not in _DEFAULT_CONFIG[key]:
                raise ConfigError(f"{path}: unknown key {k2!r} in section {key!r}")
            want, got = _json_type(_DEFAULT_CONFIG[key][k2]), _json_type(v2)
            if got != want and not (want == "null" and got == "number"):
                want = "number or null" if want == "null" else want
                raise ConfigError(f"{path}: {key}.{k2} must be a {want} (got {got})")
            cfg[key][k2] = v2
    return cfg


# ---------------------------------------------------------------------------
# helpers

def _write_json(obj, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _sha256(path: str) -> str:
    hsh = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            hsh.update(chunk)
    return hsh.hexdigest()


def _outdir(args) -> str:
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _nl(args):
    return make(args.f, s_max=args.smax)


def _zero_set_json(E) -> dict:
    return {"points": list(map(float, E.points)),
            "intervals": [[float(a), float(b)] for a, b in E.intervals],
            "borderline": list(map(float, E.borderline)),
            "notes": list(E.notes)}


def _plot_ladder(path: str, rows: list) -> None:
    """Distance-vs-shift SVG, one polyline per candidate level."""
    try:
        hs = sorted({r["h"] for r in rows})
        by: dict = {}
        for r in rows:
            by.setdefault(r["z"], {})[r["h"]] = max(r["d"], 1e-300)
        series = {f"level {z:.6g}": [by[z][h] for h in hs] for z in sorted(by)}
    except (KeyError, TypeError):
        raise InputError("distance ladder rows must be {h, z, d} with every "
                         "candidate present at every shift") from None
    svg_line_plot(path, hs, series, title="window distance vs shift",
                  xlabel="shift", ylabel="sup distance", logy=True)


def _write_analysis(nl, spec: str, out: str):
    """Zero set, reachable levels and hypothesis verdicts, written to
    analysis.json; returns them as (E, zf, hyp)."""
    E = zero_set(nl)
    zf = compute_Zf(nl)
    hyp = check_hypotheses(nl)
    report = {
        "f": spec,
        "s_max": nl.s_max,
        "lipschitz": nl.lipschitz,
        "zero_set": _zero_set_json(E),
        "reachable_levels": _zero_set_json(zf),
        "hypotheses": {"h1": hyp.h1, "mu": hyp.mu, "mu_prime": hyp.mu_prime,
                       "h2": hyp.h2, "h3": hyp.h3, "notes": list(hyp.notes)},
    }
    _write_json(report, os.path.join(out, "analysis.json"))
    return E, zf, hyp


def _solve(args, nl):
    """The one solve path: grid, trace, then solve_field, set from args (kind,
    L1, L2, h, trace, u0, method, tol, flow_target). Returns the field and
    the solve's wall time in ms."""
    grid = make_grid(args.L1, args.L2, args.h)
    trace = make_trace(args.trace, nl, grid, args.kind)
    t0 = time.perf_counter()
    field = solve_field(nl, grid, args.kind, trace, method=args.method,
                        u0=args.u0, tol=args.tol, flow_target=args.flow_target)
    return field, 1000.0 * (time.perf_counter() - t0)


def _far_field(args, nl, field, out: str):
    """Detect the far-field limit with args.n_shifts and conv_tol;
    write trajectory.json, and decay.svg when args.plots asks for it.
    Returns the report and the names of the files written."""
    rep = omega_limit(nl, field, n_shifts=args.n_shifts, conv_tol=args.conv_tol)
    _write_json(rep.to_json_dict(), os.path.join(out, "trajectory.json"))
    written = ["trajectory.json"]
    if args.plots:
        _plot_ladder(os.path.join(out, "decay.svg"), rep.distances)
        written.append("decay.svg")
    return rep, written


# ---------------------------------------------------------------------------
# subcommands

def cmd_analyze_f(args) -> int:
    nl = _nl(args)
    E, zf, hyp = _write_analysis(nl, args.f, _outdir(args))
    print(f"window: [0, {nl.s_max:g}], Lipschitz constant {nl.lipschitz:.6g}")
    print(f"zeros: {len(E.points)} points, {len(E.intervals)} flat intervals")
    print("reachable plateau levels: "
          + (", ".join(f"{z:.12g}" for z in zf.points) or "(none)"))
    for name, verdict in (("h1", hyp.h1), ("h2", hyp.h2), ("h3", hyp.h3)):
        word = {True: "satisfied", False: "violated", None: "inconclusive"}[verdict]
        print(f"hypothesis {name}: {word}")
    return 0


def cmd_zf(args) -> int:
    nl = _nl(args)
    zf = compute_Zf(nl)
    for z in zf.points:
        print(f"{z:.17g}")
    for note in zf.notes:
        print(f"# {note}", file=sys.stderr)
    return 0


def cmd_profile(args) -> int:
    nl = _nl(args)
    out = _outdir(args)
    p = compute_profile(nl, args.z, xi_max=args.xi_max, n=args.n)
    csv_path = os.path.join(out, "profile.csv")
    save_profile_csv(p, csv_path)
    summary = {"z": p.z, "slope0": p.slope0, "crosscheck": p.crosscheck,
               "xi_attained": p.xi_attained, "xi_max": args.xi_max, "n": args.n}
    _write_json(summary, os.path.join(out, "profile.json"))
    print(f"profile to level {p.z:.12g}: floor slope {p.slope0:.12g}, "
          f"route agreement {p.crosscheck:.3e}")
    print(f"wrote {csv_path}")
    return 0


def _solve_and_report(args, nl, out: str) -> list:
    """Solve, detect the far-field limit, write the artifacts, print a summary.

    `args` carries the domain, solver, analysis and output settings under
    their config names (`run` fills them from its config). Writes solve.json
    and trajectory.json, plus field.csv and decay.svg when args.dump_fields
    and args.plots ask for them. Returns the names of the files written.
    """
    field, wall_ms = _solve(args, nl)
    rep, written = _far_field(args, nl, field, out)
    summary = {
        "kind": args.kind, "f": args.f,
        "grid": {"L1": args.L1, "L2": args.L2, "h": args.h},
        "boundary": {"trace": args.trace, "u0": args.u0},
        "method": field.meta.get("method", args.method),
        "iterations": field.meta.get("iterations"),
        "residual": field.residual,
        "out_of_window": field.meta["out_of_window"],
        "flow_steps": field.meta.get("flow_steps"),
        "flow_capped": field.meta.get("flow_capped"),
        "handoff": field.meta.get("handoff"),
        "wall_time_ms": wall_ms,
    }
    _write_json(summary, os.path.join(out, "solve.json"))
    written.append("solve.json")
    if args.dump_fields:
        save_field_csv(field, os.path.join(out, "field.csv"))
        written.append("field.csv")
    if rep.converged:
        final = min(r["d"] for r in rep.distances if r["h"] == rep.distances[-1]["h"])
        print(f"far-field limit: level {rep.detected_z:.12g} (converged, "
              f"final distance {final:.3e})")
    else:
        print("far-field limit: not resolved on this truncation")
        for note in rep.notes:
            print(f"  note: {note}")
    print(f"residual {field.residual:.3e}, eventual amplitude "
          f"[{rep.m:.6g}, {rep.M:.6g}]")
    return written


def cmd_solve(args) -> int:
    check_ladder(args.n_shifts, args.conv_tol)     # before the solve it follows
    _solve_and_report(args, _nl(args), _outdir(args))
    return 0


def cmd_trajectory(args) -> int:
    check_ladder(args.n_shifts, args.conv_tol)
    nl = _nl(args)
    out = _outdir(args)
    field, _ = _solve(args, nl)
    rep, _ = _far_field(args, nl, field, out)
    state = "converged" if rep.converged else "unresolved"
    print(f"trajectory: {state}, level {rep.detected_z}, "
          f"tail slope {rep.tail_slope}")
    return 0


def cmd_bubble(args) -> int:
    nl = _nl(args)
    out = _outdir(args)
    bub = radial_bubble(nl, args.z, args.eps, N=args.N)
    if not bub.feasible:
        raise NumericError("cap never closed within the radial range")
    path = os.path.join(out, "bubble.csv")
    with open(path, "w", newline="") as fh:
        fh.write("r,v,vp\n")
        for r, v, vp in zip(bub.r, bub.v, bub.vp):
            fh.write(f"{r:.17g},{v:.17g},{vp:.17g}\n")
    _write_json({"z": bub.z, "eps": bub.eps, "N": bub.N, "v0": bub.v0,
                 "R": bub.R, "bisections": bub.bisections,
                 "energy": bub.energy},
                os.path.join(out, "bubble.json"))
    print(f"cap: center height {bub.v0:.12g}, radius {bub.R:.12g}, "
          f"energy {bub.energy:.12g}")
    return 0


def cmd_eigen(args) -> int:
    out = _outdir(args)
    e = dirichlet_eigenpair(args.N, args.R, n=args.n)
    _write_json({"N": e.N, "R": e.R, "value": e.value, "iterations": e.iterations},
                os.path.join(out, "eigen.json"))
    print(f"principal eigenvalue (N={e.N}, R={e.R:g}): {e.value:.15g}")
    return 0


def cmd_slide(args) -> int:
    nl = _nl(args)
    out = _outdir(args)
    field, _ = _solve(args, nl)
    cap_nl = make(args.cap_f) if args.cap_f else nl
    bub = radial_bubble(cap_nl, args.z, args.eps, N=2)
    rep = sliding_verify(field, bub, args.frm, args.to, steps=args.steps)
    _write_json({"start": list(args.frm), "stop": list(args.to), "steps": args.steps,
                 "cap_height": rep.implied_floor, "cap_radius": bub.R,
                 "min_margin": rep.min_margin, "ok": rep.ok,
                 "margins": [float(m) for m in rep.margins]},
                os.path.join(out, "slide.json"))
    if rep.ok:
        print(f"slide: field dominates the cap along the path "
              f"(min margin {rep.min_margin:.6g}); field exceeds "
              f"{rep.implied_floor:.6g} at every visited center")
    else:
        print(f"slide: cap pokes through the field (min margin {rep.min_margin:.6g})")
    return 0


def cmd_liouville_sweep(args) -> int:
    nl = _nl(args)
    out = _outdir(args)
    if args.domain == "box":
        rep = periodic_box_sweep(nl, L=args.L, h=args.h, n_trials=args.trials,
                                 seed=args.seed)
    else:
        rep = halfspace_strip_sweep(nl, L=args.L, h=args.h, n_trials=args.trials,
                                    seed=args.seed)
    _write_json(rep.to_json_dict(), os.path.join(out, f"sweep_{args.domain}.json"))
    for note in rep.notes:
        print(f"note: {note}")
    counts = ", ".join(f"{k}: {v}" for k, v in sorted(rep.counts.items()))
    print(f"{args.domain} sweep ({rep.n_trials} trials, seed {rep.seed}): {counts}")
    return 0


def cmd_plot(args) -> int:
    with open(args.input) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as e:
            raise InputError(f"{args.input}:{e.lineno}: {e.msg}") from None
    if not isinstance(data, dict):
        raise InputError(f"{args.input}: expected a report object")
    rows = data.get("distances")
    if not rows:
        raise InputError(f"{args.input}: no distance ladder to plot")
    _plot_ladder(args.output, rows)
    print(f"wrote {args.output}")
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    check_ladder(cfg["analysis"]["n_shifts"], cfg["analysis"]["conv_tol"])
    if args.out != ".":
        cfg["output"]["dir"] = args.out
    out = cfg["output"]["dir"]
    os.makedirs(out, exist_ok=True)
    # the settings under the names the solve commands' flags give them
    run = argparse.Namespace(
        f=cfg["nonlinearity"]["spec"], smax=cfg["nonlinearity"]["s_max"],
        **cfg["domain"], **cfg["solver"], **cfg["analysis"], **cfg["output"])
    nl = _nl(run)

    # 1. nonlinearity analysis
    _, zf, _ = _write_analysis(nl, run.f, out)
    written = ["analysis.json"]
    print(f"levels reachable from the floor: "
          + (", ".join(f"{z:.6g}" for z in zf.points) or "(none)"))

    # 2. profiles for every reachable level
    for i, z in enumerate(zf.points):
        p = compute_profile(nl, z, xi_max=run.L2, n=max(int(round(run.L2 / run.h)), 8))
        name = f"profile_{i}.csv"
        save_profile_csv(p, os.path.join(out, name))
        written.append(name)
    print(f"wrote {len(zf.points)} profile tables")

    # 3. solve + trajectory
    written += _solve_and_report(run, nl, out)

    # 4. manifest
    manifest = {"files": {name: _sha256(os.path.join(out, name))
                          for name in sorted(written)}}
    _write_json(manifest, os.path.join(out, "manifest.json"))
    print(f"wrote manifest for {len(written)} artifacts")
    return 0


# ---------------------------------------------------------------------------
# parser

class _Parser(argparse.ArgumentParser):
    """Exits 1 on a bad command line; flags must be spelled out in full, so a
    flag a command does not register is never read as a prefix of another."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        raise InputError(message)


_FLAGS = {
    "out": {"default": ".", "help": "output directory"},
    "seed": {"type": int, "default": 0},
    "threads": {"type": int, "default": 1, "choices": (1,),
                "help": "trials run serially; kept for existing command lines, "
                        "accepts only 1"},
    "dump-fields": {"action": "store_true", "dest": "dump_fields"},
    "no-plots": {"action": "store_false", "dest": "plots"},
    "n-shifts": {"type": int, "default": _DEFAULT_CONFIG["analysis"]["n_shifts"]},
    "conv-tol": {"type": float, "default": _DEFAULT_CONFIG["analysis"]["conv_tol"]},
}


def _add_flags(p, *names):
    """Register the named shared flags; only commands that read a flag get it."""
    for name in names:
        p.add_argument(f"--{name}", **_FLAGS[name])


def _add_f(p):
    p.add_argument("--f", required=True,
                   help="nonlinearity: logistic | abs-sin | linear-decay | "
                        "cantor:<level> | table:<path>")
    p.add_argument("--smax", type=float, default=None,
                   help="override the analysis window")


def _add_domain(p, kind_choice=False):
    """The domain and solver flags, with their defaults from _DEFAULT_CONFIG.

    flow_target has no flag; it rides along at its default, so the solve
    helpers read every setting from args as `run` gives it.
    """
    dom, sol = _DEFAULT_CONFIG["domain"], _DEFAULT_CONFIG["solver"]
    for name in ("L1", "L2", "h"):
        p.add_argument(f"--{name}", type=float, default=dom[name])
    p.add_argument("--trace", default=dom["trace"])
    p.add_argument("--method", default=sol["method"],
                   choices=("newton", "monotone", "auto"))
    p.add_argument("--u0", type=float, default=dom["u0"])
    p.add_argument("--tol", type=float, default=sol["tol"])
    if kind_choice:
        p.add_argument("--kind", default=dom["kind"], choices=("quarter", "half"))
    p.set_defaults(flow_target=sol["flow_target"])


def _point(text: str) -> tuple:
    """An X,Y flag value: exactly two finite numbers."""
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError:
        x = y = math.nan
    if not (math.isfinite(x) and math.isfinite(y)):
        raise argparse.ArgumentTypeError(f"want X,Y (two finite numbers), got {text!r}")
    return x, y


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="farfield",
                 description="far-field structure of semilinear fields "
                             "on truncated domains")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-f", help="zero set, reachable levels, hypotheses")
    _add_f(p)
    _add_flags(p, "out")
    p.set_defaults(func=cmd_analyze_f)

    p = sub.add_parser("zf", help="print the reachable plateau levels")
    _add_f(p)
    p.set_defaults(func=cmd_zf)

    p = sub.add_parser("profile", help="build a rising profile")
    _add_f(p)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--xi-max", type=float, default=20.0, dest="xi_max")
    p.add_argument("--n", type=int, default=2048)
    _add_flags(p, "out")
    p.set_defaults(func=cmd_profile)

    for kind, help_ in (("quarter", "solve on the quarter domain"),
                        ("half", "solve on the laterally periodic strip")):
        p = sub.add_parser(f"solve-{kind}", help=help_)
        _add_f(p)
        _add_domain(p)
        _add_flags(p, "out", "dump-fields", "no-plots", "n-shifts", "conv-tol")
        p.set_defaults(func=cmd_solve, kind=kind)

    p = sub.add_parser("trajectory", help="solve and classify the far-field limit")
    _add_f(p)
    _add_domain(p, kind_choice=True)
    _add_flags(p, "out", "no-plots", "n-shifts", "conv-tol")
    p.set_defaults(func=cmd_trajectory)

    p = sub.add_parser("bubble", help="radial cap for sliding comparisons")
    _add_f(p)
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--N", type=int, default=2)
    _add_flags(p, "out")
    p.set_defaults(func=cmd_bubble)

    p = sub.add_parser("eigen", help="principal Dirichlet eigenvalue of the ball")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--R", type=float, required=True)
    p.add_argument("--n", type=int, default=4096)
    _add_flags(p, "out")
    p.set_defaults(func=cmd_eigen)

    p = sub.add_parser("slide", help="slide a cap under a solved field")
    _add_f(p)
    _add_domain(p)
    p.add_argument("--cap-f", default=None, dest="cap_f",
                   help="nonlinearity for the cap (default: same as --f)")
    p.add_argument("--z", type=float, required=True)
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--from", required=True, dest="frm", metavar="X,Y", type=_point)
    p.add_argument("--to", required=True, metavar="X,Y", type=_point)
    p.add_argument("--steps", type=int, default=61)
    _add_flags(p, "out")
    p.set_defaults(func=cmd_slide, kind="quarter")

    p = sub.add_parser("liouville-sweep", help="random-start sweeps on "
                                               "compact surrogate domains")
    _add_f(p)
    p.add_argument("--domain", required=True, choices=("box", "strip"))
    p.add_argument("--L", type=float, default=16.0)
    p.add_argument("--h", type=float, default=0.25)
    p.add_argument("--trials", type=int, default=20)
    _add_flags(p, "out", "seed", "threads")
    p.set_defaults(func=cmd_liouville_sweep)

    p = sub.add_parser("plot", help="replot a saved distance ladder")
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    _add_flags(p, "out")
    p.set_defaults(func=cmd_run)

    return ap


# parse_args keeps no state between calls, so one parser serves them all
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except InputError as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    except NumericError as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return 2
    except ConsistencyError as e:
        print(f"consistency error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"os error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
