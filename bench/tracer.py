"""Spans and counters recorded from outside farfield, around its public functions.

``Tracer.install()`` replaces each traced function in every farfield module
namespace that binds it: ``from .elliptic import newton_solve`` makes
``liouville.newton_solve`` a second binding, and both are patched with the
same wrapper.  Third-party functions (``scipy``'s ``splu``, ``bicgstab`` and
``quad``) are patched only in the one farfield namespace named for them, so
their numbers stay with the layer that calls them.

Functions called tens of thousands of times per job are aggregated: they
keep counts and times but no span record, and are taken to be leaves.  Every other call leaves a span
``(name, parent span, job, start, end)``.  A layer's self time is the time
of its calls minus the time of the traced calls they made.

A tracer built with ``full=False`` patches only the sweep entry points and
``liouville.noise_start``: that is the trial clock the untraced run needs to
time sweep trials, one wrapper call per trial.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass
from time import perf_counter

LAYERS = ("nonlinearity", "profile1d", "odes", "elliptic", "trajectory",
          "liouville", "cli")

# bytes per stored factor entry: a float64 value and an int32 row index
FACTOR_ENTRY_BYTES = 12


@dataclass(frozen=True)
class Target:
    module: str          # farfield module that defines (or, if local, imports) it
    name: str
    layer: str           # metric prefix
    aggregate: bool = False
    local: bool = False  # third-party function: patch only ``module``

    @property
    def key(self) -> str:
        return f"{self.layer}.{self.name}"


TARGETS = (
    Target("nonlinearity", "integral_between", "nonlinearity", aggregate=True),
    Target("nonlinearity", "eval_capped", "nonlinearity", aggregate=True),
    Target("nonlinearity", "make", "nonlinearity"),
    Target("nonlinearity", "zero_set", "nonlinearity"),
    Target("nonlinearity", "compute_Zf", "nonlinearity"),
    Target("profile1d", "compute_profile", "profile1d"),
    Target("profile1d", "quad", "profile1d", local=True),
    Target("odes", "integrate", "odes"),
    Target("elliptic", "solve_field", "elliptic"),
    Target("elliptic", "assemble_laplacian", "elliptic"),
    Target("elliptic", "laplacian_full", "elliptic", aggregate=True),
    Target("elliptic", "flow_relax", "elliptic"),
    Target("elliptic", "newton_solve", "elliptic"),
    Target("elliptic", "splu", "elliptic", local=True),
    Target("elliptic", "bicgstab", "elliptic", local=True),
    Target("trajectory", "omega_limit", "trajectory"),
    Target("trajectory", "attractor_table", "trajectory"),
    Target("liouville", "periodic_box_sweep", "liouville"),
    Target("liouville", "halfspace_strip_sweep", "liouville"),
    Target("liouville", "noise_start", "liouville"),
    Target("cli", "main", "cli"),
    # artifact writers belong to the command layer that calls them
    Target("grids", "save_field_csv", "cli"),
    Target("profile1d", "save_profile_csv", "cli"),
)

_TRIAL_CLOCK = ("periodic_box_sweep", "halfspace_strip_sweep", "noise_start")
_MODULES = ("cli", "elliptic", "grids", "liouville", "nonlinearity", "odes",
            "profile1d", "traces", "trajectory")


def _farfield_modules():
    return [importlib.import_module(f"farfield.{n}") for n in _MODULES]


class Tracer:
    """Counters, span records and trial boundaries for one run."""

    def __init__(self, full: bool = True):
        self.full = full
        self.stat: dict[str, list] = {t.key: [0, 0.0, 0.0] for t in TARGETS}  # calls, s, self s
        self.counts: dict[str, int] = {}     # exact extras: steps, iterations, nnz, ...
        self.spans: list = []
        self.trials: list[float] = []        # seconds per sweep trial
        self.sweep_setups: list[float] = []  # seconds from sweep entry to its first trial
        self.newton_first: list[bool] = []   # per trial: first Newton converged in window
        self.job = 0
        self._stack = [[0.0, -1]]            # [child seconds, open span index]
        self._patches: list = []
        self._sweep_t0 = None
        self._trial_t0 = None
        self._first_pending = False

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        mods = _farfield_modules()
        by_name = {m.__name__.rsplit(".", 1)[1]: m for m in mods}
        for t in TARGETS:
            if not self.full and t.name not in _TRIAL_CLOCK:
                continue
            home = by_name[t.module]
            fn = getattr(home, t.name)
            wrapper = self._wrap(t, fn)
            spaces = [home] if t.local else [m for m in mods
                                             if getattr(m, t.name, None) is fn]
            for m in spaces:
                self._patches.append((m, t.name, fn))
                setattr(m, t.name, wrapper)

    def uninstall(self) -> None:
        for m, name, fn in reversed(self._patches):
            setattr(m, name, fn)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, t: Target, fn):
        stack = self._stack
        st = self.stat[t.key]
        if t.aggregate:
            # aggregated functions are leaves: nothing traced runs inside them
            def aggregated(*args, **kwargs):
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf_counter() - t0
                    stack[-1][0] += dt
                    st[0] += 1
                    st[1] += dt
                    st[2] += dt
            return aggregated

        spans = self.spans
        enter = getattr(self, f"_enter_{t.name}", None)
        leave = getattr(self, f"_leave_{t.name}", None)
        record = self.full

        def traced(*args, **kwargs):
            token = enter() if enter else None
            idx = -1
            if record:
                idx = len(spans)
                spans.append(None)
            frame = [0.0, idx]
            parent = stack[-1][1]
            stack.append(frame)
            out, ok = None, False
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                t1 = perf_counter()
                dt = t1 - t0
                stack.pop()
                stack[-1][0] += dt
                st[0] += 1
                st[1] += dt
                st[2] += dt - frame[0]
                if record:
                    spans[idx] = (t.key, parent, self.job, t0, t1)
                if leave:
                    leave(token, out, ok)
        return traced

    def _add(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def _linear_solves(self) -> int:
        return self.stat["elliptic.splu"][0] + self.stat["elliptic.bicgstab"][0]

    def _leave_integrate(self, token, out, ok):
        if ok:
            self._add("odes.integrate.steps", out.n_steps + out.rejected)

    def _leave_flow_relax(self, token, out, ok):
        if ok:
            self._add("elliptic.flow_relax.steps", out[1])

    def _leave_splu(self, token, out, ok):
        if ok:
            # SuperLU's own count of stored L and U entries; L.nnz + U.nnz
            # copies both factors out, which made traced sweep trials a
            # third slower
            self._add("elliptic.splu.factor_nnz", out.nnz)

    def _enter_newton_solve(self):
        first = self._first_pending
        self._first_pending = False
        return first, self._linear_solves(), self.stat["elliptic.splu"][0]

    def _leave_newton_solve(self, token, out, ok):
        first, solves0, splu0 = token
        self._add("elliptic.newton_solve.iterations", self._linear_solves() - solves0)
        if not ok:
            self._add("elliptic.newton_solve.failed", 1)
        if first:
            good = ok and not out.meta["out_of_window"]
            self.newton_first.append(good)
            if not good:
                self._add("liouville.wasted_splu", self.stat["elliptic.splu"][0] - splu0)

    def _enter_periodic_box_sweep(self):
        self._sweep_t0 = perf_counter()
        self._trial_t0 = None

    def _leave_periodic_box_sweep(self, token, out, ok):
        if self._trial_t0 is not None:
            self.trials.append(perf_counter() - self._trial_t0)
            self._trial_t0 = None
            self.job += 1
        self._first_pending = False

    _enter_halfspace_strip_sweep = _enter_periodic_box_sweep
    _leave_halfspace_strip_sweep = _leave_periodic_box_sweep

    def _enter_noise_start(self):
        now = perf_counter()
        if self._trial_t0 is None:
            self.sweep_setups.append(now - self._sweep_t0)
        else:
            self.trials.append(now - self._trial_t0)
            self.job += 1
        self._trial_t0 = now
        self._first_pending = True

    # -- reading ----------------------------------------------------------

    def mark(self):
        """Snapshot of the exact counters, for ``since``."""
        return ({k: v[0] for k, v in self.stat.items()}, dict(self.counts),
                len(self.newton_first))

    def since(self, mark) -> dict:
        """Exact counters accumulated after ``mark``: the determinism basis."""
        calls0, counts0, nf0 = mark
        out = {f"{k}.calls": v[0] - calls0[k] for k, v in self.stat.items()}
        for k, v in self.counts.items():
            out[k] = v - counts0.get(k, 0)
        out = {k: v for k, v in sorted(out.items()) if v}
        out["liouville.newton_first"] = "".join("1" if b else "0"
                                                 for b in self.newton_first[nf0:])
        return out

    def layer_metrics(self, jobs: int) -> dict:
        """Per-layer metrics, per job unless the name says otherwise."""
        s = self.stat
        c = self.counts
        per = 1.0 / max(jobs, 1)
        m = {}
        for key in ("nonlinearity.integral_between", "nonlinearity.eval_capped",
                    "profile1d.compute_profile", "profile1d.quad", "odes.integrate",
                    "elliptic.assemble_laplacian", "elliptic.laplacian_full",
                    "elliptic.flow_relax", "elliptic.newton_solve", "elliptic.splu"):
            m[f"{key}.calls"] = s[key][0] * per
            m[f"{key}.s"] = s[key][1] * per
        for key in ("nonlinearity.compute_Zf", "elliptic.solve_field",
                    "trajectory.omega_limit", "trajectory.attractor_table",
                    "cli.save_field_csv"):
            m[f"{key}.s"] = s[key][1] * per
        m["elliptic.bicgstab.calls"] = s["elliptic.bicgstab"][0] * per
        m["odes.integrate.steps"] = c.get("odes.integrate.steps", 0) * per
        m["elliptic.flow_relax.steps"] = c.get("elliptic.flow_relax.steps", 0) * per
        m["elliptic.newton_solve.iterations"] = (
            c.get("elliptic.newton_solve.iterations", 0) * per)
        m["elliptic.newton_solve.failed"] = c.get("elliptic.newton_solve.failed", 0) * per
        factors = s["elliptic.splu"][0]
        nnz = c.get("elliptic.splu.factor_nnz", 0) / factors if factors else 0.0
        m["elliptic.splu.factor_nnz"] = nnz
        m["elliptic.splu.factor_bytes_computed"] = nnz * FACTOR_ENTRY_BYTES
        m["liouville.trial.s"] = sum(self.trials) / len(self.trials) if self.trials else 0.0
        m["liouville.sweep_setup_s"] = (sum(self.sweep_setups) / len(self.sweep_setups)
                                        if self.sweep_setups else 0.0)
        nf = self.newton_first
        m["liouville.newton_first_ok_ratio"] = sum(nf) / len(nf) if nf else 0.0
        m["liouville.wasted_splu_frac"] = (c.get("liouville.wasted_splu", 0) / factors
                                           if factors else 0.0)
        m["cli.main.self_s"] = s["cli.main"][2] * per
        for layer in LAYERS:
            m[f"{layer}.self_s"] = per * sum(
                s[t.key][2] for t in TARGETS if t.layer == layer)
        return m
