"""The benchmark's tracer can still patch every name it reads from farfield.

bench/tracer.py wraps farfield functions by module and name. A name that
leaves its module breaks traced benchmark runs (`bench/run.py --trace 1`),
so this test installs the full tracer and checks that every target resolves
and that uninstalling puts every binding back. The tracer file is read, not
changed: it is loaded from source with no bytecode written beside it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def _load_tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)     # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve_and_are_restored(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    homes = {t.module: importlib.import_module(f"farfield.{t.module}") for t in tracer.TARGETS}
    missing = [t.key for t in tracer.TARGETS if not hasattr(homes[t.module], t.name)]
    assert not missing, f"traced names missing from farfield: {missing}"

    names = {t.name for t in tracer.TARGETS}
    modules = tracer._farfield_modules()

    def bindings():
        return {(m.__name__, n): getattr(m, n) for m in modules for n in names if hasattr(m, n)}

    before = bindings()
    t = tracer.Tracer(full=True)
    t.install()
    try:
        patched = bindings()
        for target in tracer.TARGETS:
            key = (f"farfield.{target.module}", target.name)
            assert patched[key] is not before[key], f"{target.key} was not patched"
    finally:
        t.uninstall()
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before), \
        [k for k in before if after[k] is not before[k]]
