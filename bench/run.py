#!/usr/bin/env python3
"""Benchmark for farfield: closed-loop CLI workloads, timed end to end.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are listed in ``BENCHMARK.json``
and defined in ``bench/workloads.py``.  Each call goes through
``farfield.cli.main(argv)`` in this process, one call at a time, with BLAS
pinned to one thread.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run, its overhead
against an untraced pass over the same inputs, and checks that the exact
counters repeat.  The last line of standard output is the result object.
See ``bench/README.md`` for the definitions.
"""

import os
import sys
import time

_T0 = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import REF_S  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3          # set-ups per run; setup_s is their median


@dataclass
class Tally:
    """Jobs of one measured pass.  Times are speed-scaled (see speed.py)."""
    times: list = field(default_factory=list)   # seconds per job
    raw_times: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wall: float = 0.0                           # seconds inside cli.main
    raw_wall: float = 0.0
    artifact_bytes: int = 0
    calls: int = 0
    refs: list = field(default_factory=list)    # speed probe seconds, between calls


def _du(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_call(cli, call, out: Path):
    """One ``cli.main`` call; returns (wall seconds, one verdict per job)."""
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main([*call.argv, "--out", str(out)])
    except Exception:   # a crash fails the call's jobs, not the benchmark
        traceback.print_exc()
        rc = None
    dt = time.perf_counter() - t0
    verdicts = call.check(str(out)) if rc == 0 else [False] * call.jobs
    return dt, verdicts


def run_round(cli, wl, calls, clock: Tracer, tally: Tally, work: Path, probe, sigs=None):
    if not tally.refs:
        tally.refs.append(probe())
    for call in calls:
        out = work / f"call{tally.calls}"
        tally.calls += 1
        n0 = len(clock.trials)
        if not wl.trial_jobs:
            clock.job = tally.attempted
        mark = clock.mark()
        dt, verdicts = run_call(cli, call, out)
        if sigs is not None:
            sigs.append(clock.since(mark))
        tally.refs.append(probe())
        scale = REF_S / (0.5 * (tally.refs[-2] + tally.refs[-1]))
        raw = clock.trials[n0:] if wl.trial_jobs else [dt]
        tally.raw_wall += dt
        tally.raw_times.extend(raw)
        tally.wall += dt * scale
        tally.times.extend(t * scale for t in raw)
        tally.attempted += call.jobs
        tally.failed += verdicts.count(False)
        if out.exists():
            tally.artifact_bytes += _du(out)
            shutil.rmtree(out)


def setup(wl, work: Path):
    """Import, generate inputs, run the warm-up call; time it all from start.

    Returns the CLI module, the inputs, a speed probe, the speed-scaled
    set-up seconds and whether the warm-up call passed its check.
    """
    sys.path.insert(0, str(SRC))
    import farfield.cli as cli
    inputs = wl.prepare()
    _, verdicts = run_call(cli, wl.warmup(inputs), work / "warmup")
    shutil.rmtree(work / "warmup", ignore_errors=True)
    setup_s = time.perf_counter() - _T0
    from speed import SpeedProbe
    probe = SpeedProbe()
    ref = statistics.median(probe() for _ in range(3))
    return cli, inputs, probe, setup_s * REF_S / ref, all(verdicts)


def child_setup_s(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed", str(seed),
         "--setup-only"], cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])


def quantile(times: list, q: float) -> float:
    """Harrell-Davis estimate: a weighted mean of all order statistics.

    Job times fall into clusters, one per job kind; a single order statistic
    jumps from one cluster to the next when jitter reorders two jobs, while
    this estimate moves smoothly.
    """
    if len(times) < 2:
        return times[0]
    from scipy.stats.mstats import hdquantiles
    return float(hdquantiles(times, prob=[q])[0])


def measure(cli, wl, inputs, rng, seconds: float, work: Path, probe) -> Tally:
    tally = Tally()
    with Tracer(full=False) as clock:
        t0 = time.perf_counter()
        for calls in wl.rounds(inputs, rng):
            run_round(cli, wl, calls, clock, tally, work, probe)
            if time.perf_counter() - t0 >= seconds and tally.attempted >= wl.min_jobs:
                break
    return tally


def measure_traced(cli, wl, inputs, rng, seconds: float, work: Path, probe):
    """Alternate traced and untraced passes over the same rounds.

    Returns the full tracer, both tallies, the exact-counter signatures of
    the first round's calls, and whether a traced replay of the first call
    reproduced its signature.
    """
    full = Tracer(full=True)
    traced, plain = Tally(), Tally()
    sigs: list = []
    first = None
    t0 = time.perf_counter()
    for r, calls in enumerate(wl.rounds(inputs, rng)):
        first = first or calls[0]
        passes = [(full, traced), (Tracer(full=False), plain)]
        for clock, tally in (passes if r % 2 == 0 else passes[::-1]):
            with clock:
                run_round(cli, wl, calls, clock, tally, work, probe,
                          sigs if (clock is full and r == 0) else None)
        if time.perf_counter() - t0 >= seconds:
            break
    replay, replay_sigs = Tracer(full=True), []
    with replay:
        run_round(cli, wl, [first], replay, Tally(), work, probe, replay_sigs)
    return full, traced, plain, sigs, replay_sigs[0] == sigs[0]


def environment(seed: int) -> dict:
    import numpy
    import scipy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas = "unknown"
    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in THREAD_VARS}, "seed": seed}


def write_spans(full: Tracer, name: str, seed: int) -> Path:
    path = OUT / f"spans-{name}-seed{seed}.jsonl"
    with open(path, "w") as fh:
        for i, (key, parent, job, t0, t1) in enumerate(full.spans):
            fh.write(json.dumps({"id": i, "name": key, "parent": parent, "job": job,
                                 "start": t0, "end": t1}) + "\n")
    return path


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if "bytes" in name:
        return "bytes"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="set up once, print {\"setup_s\": ...} and exit")
    args = ap.parse_args(argv)
    if not (SRC / "farfield" / "cli.py").is_file():
        print(f"bench: no farfield sources at {SRC / 'farfield'}; run from a checkout",
              file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        cli, inputs, probe, setup_s, warm_ok = setup(wl, work)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0 if warm_ok else 1
        rng = random.Random(args.seed)
        env = environment(args.seed)
        print("# env " + json.dumps(env, sort_keys=True))
        if args.trace:
            full, tally, plain, sigs, repeat = measure_traced(
                cli, wl, inputs, rng, args.seconds, work, probe)
            digest = hashlib.sha256(json.dumps(sigs, sort_keys=True).encode()).hexdigest()
            print(f"# counts-digest {digest} (first round, {len(sigs)} calls)")
            print(f"# counts repeat on replay of the first call: {repeat}")
            spans = write_spans(full, wl.name, args.seed).relative_to(ROOT)
            print(f"# spans written to {spans}")
            layers = full.layer_metrics(tally.attempted)
            layers["cli.artifact_bytes"] = tally.artifact_bytes / tally.attempted
            p_traced = quantile(tally.times, 0.5)
            p_plain = quantile(plain.times, 0.5)
            layers["trace.overhead_s"] = p_traced - p_plain
            layers["trace.overhead_frac"] = (p_traced - p_plain) / p_plain
            metrics = {k: metric(v, layer_unit(k)) for k, v in layers.items()}
            correct = warm_ok and repeat and tally.failed == 0 and plain.failed == 0
        else:
            setups = [setup_s] + [child_setup_s(wl.name, args.seed)
                                  for _ in range(SETUP_REPS - 1)]
            tally = measure(cli, wl, inputs, rng, args.seconds, work, probe)
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "job_s_p50": metric(quantile(tally.times, 0.5), "s"),
                "job_s_tail": metric(quantile(tally.times, wl.tail_q), "s"),
                "jobs_per_s": metric((tally.attempted - tally.failed) / tally.wall, "1/s"),
                "setup_s": metric(statistics.median(setups), "s"),
                "peak_rss_mb": metric(rss_mb, "MB"),
            }
            correct = warm_ok and tally.failed == 0
            print(f"# {wl.name}: {tally.attempted} jobs in {tally.raw_wall:.2f} s of calls "
                  f"({tally.wall:.2f} s speed-scaled); job_s_tail is "
                  f"p{round(wl.tail_q * 100)}; failed {tally.failed} "
                  f"(failed_frac {tally.failed / tally.attempted:g}); "
                  f"set-ups {', '.join(f'{s:.3f}' for s in setups)} s")
            print(f"# unscaled: job_s_p50 {quantile(tally.raw_times, 0.5):.6g} s, "
                  f"job_s_tail {quantile(tally.raw_times, wl.tail_q):.6g} s, jobs_per_s "
                  f"{(tally.attempted - tally.failed) / tally.raw_wall:.6g} 1/s; "
                  f"speed probe median {statistics.median(tally.refs):.6g} s "
                  f"(REF_S {REF_S:g} s)")
        for k, m in metrics.items():
            print(f"# {k} {m['value']:.6g} {m['unit']}")
        print(json.dumps({"correct": bool(correct), "attempted": tally.attempted,
                          "failed": tally.failed, "metrics": metrics}, allow_nan=False))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
