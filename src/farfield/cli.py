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
from dataclasses import asdict

import numpy as np

from .elliptic import solve_field
from .errors import ConfigError, ConsistencyError, InputError, NumericError
from .grids import format_17g, make_grid, periodic_axes, save_field_csv
from .liouville import halfspace_strip_sweep, periodic_box_sweep
from .nonlinearity import check_hypotheses, compute_Zf, make, zero_set
from .profile1d import compute_profile, save_profile_csv
from .sliding import dirichlet_eigenvalue, radial_bubble, sliding_verify
from .traces import make_trace
from .trajectory import omega_limit, quarter_table

# ---------------------------------------------------------------------------
# config files

_DEFAULT_CONFIG = {
    "nonlinearity": {"spec": "abs-sin", "s_max": None},
    "domain": {"kind": "quarter", "L1": 40.0, "L2": 20.0, "h": 0.25,
               "trace": "constant:0.5", "u0": None},
    "solver": {"method": "auto", "tol": 1e-9},
    "output": {"dir": "out", "dump_fields": False},
}
_METHODS = ("newton", "auto")     # solve_field's methods
_KINDS = ("quarter", "half")      # the domains with a solve command


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
    solver.method must be one of _METHODS and domain.kind one of _KINDS.
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
    for section, key, allowed in (("solver", "method", _METHODS), ("domain", "kind", _KINDS)):
        if cfg[section][key] not in allowed:
            raise ConfigError(f"{path}: {section}.{key} must be one of {', '.join(allowed)} "
                              f"(got {cfg[section][key]!r})")
    return cfg


# ---------------------------------------------------------------------------
# helpers

def _write_json(obj, path: str) -> None:
    """Write obj as JSON in one write (indent 2, sorted keys, a newline). A
    NaN or Infinity, which JSON lacks, is a NumericError; nothing is written."""
    try:
        text = json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as e:
        raise NumericError(f"{os.path.basename(path)}: {e}") from None
    with open(path, "w") as fh:
        fh.write(text + "\n")


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
    L1, L2, h, trace, u0, method, tol). Returns the field and the solve's
    wall time in ms."""
    grid = make_grid(args.L1, args.L2, args.h)
    trace = make_trace(args.trace, nl, grid, args.kind)
    t0 = time.perf_counter()
    field = solve_field(nl, grid, args.kind, trace, method=args.method,
                        u0=args.u0, tol=args.tol)
    return field, 1000.0 * (time.perf_counter() - t0)


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
        word = {True: "satisfied", False: "violated", None: "not evaluated"}[verdict]
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
    p = compute_profile(nl, args.z, xi_max=20.0)     # n: compute_profile's 2048
    csv_path = os.path.join(out, "profile.csv")
    save_profile_csv(p, csv_path)
    summary = {"z": p.z, "slope0": p.slope0, "crosscheck": p.crosscheck,
               "xi_attained": p.xi_attained, "xi_max": float(p.xi[-1]), "n": p.xi.size - 1}
    _write_json(summary, os.path.join(out, "profile.json"))
    print(f"profile to level {p.z:.12g}: floor slope {p.slope0:.12g}, "
          f"route agreement {p.crosscheck:.3e}")
    print(f"wrote {csv_path}")
    return 0


def _report(args, nl, out: str, field, wall_ms: float, table=None) -> list:
    """Detect the far-field limit of a solved field, write the artifacts,
    print a summary.

    `args` carries the domain, solver and output settings under their config
    names (`run` fills them from its config). Detects the limit against
    `table`, or omega_limit's own candidates, and writes trajectory.json and
    solve.json, plus field.csv when args.dump_fields asks for it. Returns the
    names of the files written.
    """
    rep = omega_limit(nl, field, table)
    # the report holds no nested dataclass, so its fields serialize as they are
    _write_json(vars(rep), os.path.join(out, "trajectory.json"))
    written = ["trajectory.json"]
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
    nl = _nl(args)
    _report(args, nl, _outdir(args), *_solve(args, nl))
    return 0


def cmd_bubble(args) -> int:
    nl = _nl(args)
    out = _outdir(args)
    bub = radial_bubble(nl, args.z, args.eps, N=args.N)
    if not bub.feasible:
        raise NumericError("cap never closed within the radial range")
    cells = format_17g(np.column_stack((bub.r, bub.v, bub.vp)))
    with open(os.path.join(out, "bubble.csv"), "wb") as fh:
        fh.write(b"r,v,vp\n")
        fh.write(b"%s,%s,%s\n" * bub.r.size % tuple(cells))
    _write_json({"z": bub.z, "eps": bub.eps, "N": bub.N, "v0": bub.a,
                 "R": bub.R, "bisections": bub.bisections,
                 "energy": bub.energy},
                os.path.join(out, "bubble.json"))
    print(f"cap: center height {bub.a:.12g}, radius {bub.R:.12g}, "
          f"energy {bub.energy:.12g}")
    return 0


def cmd_eigen(args) -> int:
    out = _outdir(args)
    value = dirichlet_eigenvalue(args.N, args.R)
    _write_json({"N": args.N, "R": args.R, "value": value},
                os.path.join(out, "eigen.json"))
    print(f"principal eigenvalue (N={args.N}, R={args.R:g}): {value:.15g}")
    return 0


def cmd_slide(args) -> int:
    nl = _nl(args)
    out = _outdir(args)
    field, _ = _solve(args, nl)
    cap_nl = make(args.cap_f) if args.cap_f else nl
    bub = radial_bubble(cap_nl, args.z, args.eps, N=2)
    rep = sliding_verify(field, bub, args.frm, args.to)
    _write_json({"start": list(args.frm), "stop": list(args.to), "steps": rep.margins.size,
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
    _write_json(asdict(rep), os.path.join(out, f"sweep_{args.domain}.json"))
    for note in rep.notes:
        print(f"note: {note}")
    counts = ", ".join(f"{k}: {v}" for k, v in sorted(rep.counts.items()))
    print(f"{args.domain} sweep ({rep.n_trials} trials, seed {rep.seed}): {counts}")
    return 0


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.out is not None:
        cfg["output"]["dir"] = args.out
    # the settings under the names the solve commands' flags give them
    run = argparse.Namespace(
        f=cfg["nonlinearity"]["spec"], smax=cfg["nonlinearity"]["s_max"],
        **cfg["domain"], **cfg["solver"], **cfg["output"])
    nl = _nl(run)

    # 1. solve first: a bad grid, trace or tol is refused before any write
    field, wall_ms = _solve(run, nl)
    out = run.dir
    os.makedirs(out, exist_ok=True)

    # 2. nonlinearity analysis
    _, zf, _ = _write_analysis(nl, run.f, out)
    written = ["analysis.json"]
    print(f"levels reachable from the floor: "
          + (", ".join(f"{z:.6g}" for z in zf.points) or "(none)"))

    # 3. profiles for every reachable level, on the field's x2 nodes
    g = field.grid
    profiles = {z: compute_profile(nl, z, xi_max=g.L2, n=g.n2) for z in zf.points}
    for i, p in enumerate(profiles.values()):
        name = f"profile_{i}.csv"
        save_profile_csv(p, os.path.join(out, name))
        written.append(name)
    print(f"wrote {len(zf.points)} profile tables")

    # 4. trajectory against the same profiles, and the solve summary
    table = quarter_table(field, profiles) if not periodic_axes(run.kind)[1] else None
    written += _report(run, nl, out, field, wall_ms, table)

    # 5. manifest
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


def _add_domain(p):
    """The domain and solver flags, with their defaults from _DEFAULT_CONFIG."""
    dom, sol = _DEFAULT_CONFIG["domain"], _DEFAULT_CONFIG["solver"]
    for name in ("L1", "L2", "h"):
        p.add_argument(f"--{name}", type=float, default=dom[name])
    p.add_argument("--trace", default=dom["trace"])
    p.add_argument("--method", default=sol["method"], choices=_METHODS)
    p.add_argument("--u0", type=float, default=dom["u0"])
    p.add_argument("--tol", type=float, default=sol["tol"])


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
    _add_flags(p, "out")
    p.set_defaults(func=cmd_profile)

    for kind, help_ in (("quarter", "solve on the quarter domain"),
                        ("half", "solve on the laterally periodic strip")):
        p = sub.add_parser(f"solve-{kind}", help=help_)
        _add_f(p)
        _add_domain(p)
        _add_flags(p, "out", "dump-fields")
        p.set_defaults(func=cmd_solve, kind=kind)

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

    p = sub.add_parser("run", help="full pipeline from a config file")
    p.add_argument("--config", required=True)
    _add_flags(p, "out")
    # an --out, "." included, overrides the config's output.dir
    p.set_defaults(func=cmd_run, out=None)

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
