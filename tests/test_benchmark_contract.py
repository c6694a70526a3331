"""The names the benchmark in ``perfbench/`` hooks and calls still exist.

The benchmark wraps cross-module names of vrusim with its tracer and
samples the host around the simulation calls each workload names as its
``pieces``.  A change that drops or renames one of them would only fail
when the benchmark runs; these tests make it fail here.  They use the
vrusim modules already imported, never a fresh import.
"""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import vrusim.harness

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
BENCH_MODULES = ("gen", "layers", "spans", "workloads")


@pytest.fixture
def perfbench(monkeypatch):
    """The benchmark's modules, imported by the names it imports them by."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as committed
    for name in BENCH_MODULES:
        monkeypatch.delitem(sys.modules, name, raising=False)
    yield SimpleNamespace(**{name: importlib.import_module(name) for name in BENCH_MODULES})
    for name in BENCH_MODULES:
        sys.modules.pop(name, None)


def test_tracer_installs_on_the_imported_modules(perfbench):
    # the modules the benchmark's own import hands to install()
    names = perfbench.workloads._MODULES
    mods = SimpleNamespace(**{n: importlib.import_module(f"vrusim.{n}") for n in names})
    before = vrusim.harness.simulate_run
    tracer = perfbench.spans.Tracer()
    try:
        perfbench.layers.install(tracer, mods)
        assert vrusim.harness.simulate_run is not before
    finally:
        tracer.unpatch()
    assert vrusim.harness.simulate_run is before


def test_every_workload_piece_exists(perfbench):
    for workload in perfbench.workloads.WORKLOADS.values():
        for module, name in workload.pieces:
            owner = importlib.import_module(f"vrusim.{module}")
            assert callable(getattr(owner, name, None)), f"{workload.name}: vrusim.{module}.{name}"
