#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 bench/collect.py --workloads sweep-trials --seeds 1-10 [--trace 0|1]
        [--seconds S] [--out FILE]

Runs one process at a time from the repository root.  For every metric it
prints the median and the quartiles of ``statistics.quantiles(values, n=4)``
and the spread (Q3 - Q1) / median, which is what a metric's bound in
``BENCHMARK.json`` is compared with.  ``--out`` also writes the summary and
every run's result as JSON.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seeds(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(lines[-1]), [ln[2:] for ln in lines[:-1] if ln.startswith("# ")]


def summarize(results: list) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": med,
                     "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for wl in args.workloads.split(","):
        results, env = [], None
        for seed in seeds(args.seeds):
            res, notes = run(wl, seed, args.seconds, args.trace)
            env = env or json.loads(notes[0][len("env "):])
            results.append({"seed": seed, **res, "notes": notes[1:]})
            print(f"{wl} seed {seed}: correct {res['correct']}, "
                  f"{res['failed']}/{res['attempted']} failed", flush=True)
        summary = summarize(results)
        env.pop("seed", None)
        report["workloads"][wl] = {"env": env, "summary": summary, "runs": results}
        for name, s in summary.items():
            bound = bounds.get(name)
            spread = "-" if s["spread"] is None else f"{s['spread']:.3f}"
            print(f"  {name:40s} median {s['median']:.6g} {s['unit']:6s} "
                  f"[{s['q1']:.6g}, {s['q3']:.6g}] spread {spread}"
                  + (f" (bound {bound})" if bound is not None else ""), flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
