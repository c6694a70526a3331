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
import yaml

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


def imported_modules(perfbench):
    """The modules the benchmark's own import hands to install()."""
    names = perfbench.workloads._MODULES
    return SimpleNamespace(**{n: importlib.import_module(f"vrusim.{n}") for n in names})


def test_tracer_installs_on_the_imported_modules(perfbench):
    before = vrusim.harness.simulate_run
    tracer = perfbench.spans.Tracer()
    try:
        perfbench.layers.install(tracer, imported_modules(perfbench))
        assert vrusim.harness.simulate_run is not before
    finally:
        tracer.unpatch()
    assert vrusim.harness.simulate_run is before


def test_tracer_tells_observation_passes_from_replays(perfbench, tmp_path):
    # the tracer classifies a run by the keywords it was called with, so a
    # call that passed `sense` or `trigger_override` positionally would
    # count every replay as an observation pass
    m = imported_modules(perfbench)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"scenarios": ["CBNA"], "speeds_kmh": [40]}), encoding="utf-8")
    config = m.config.load_config(str(cfg), subsets=["vut", "any"])
    spec = m.scenario.build_scenario(m.scenario.ScenarioKind.CBNA, 40.0)
    sites = m.placement.candidate_sites_from_units(m.sensing.default_layout()[:2])
    tracer = perfbench.spans.Tracer()
    try:
        perfbench.layers.install(tracer, m)
        m.harness.run_sweep(config)
        assert tracer.calls["aeb.observe"] == 1
        assert tracer.calls["aeb.replay"] > 0
        m.placement.evaluate_sites(sites, (spec,), config.policy, config.model)
    finally:
        tracer.unpatch()
    assert tracer.counts["placement.observe_passes"] == 1
    assert tracer.counts["placement.replays"] > 0


def test_tracer_sees_the_sensing_layer(perfbench, tmp_path):
    # sense_frame and visible_fraction are traced through the module globals
    # aeb and sensing call them by; a caller that bound a local alias would
    # drop the sensing layer from traces without any error
    m = imported_modules(perfbench)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"scenarios": ["CBNA"], "speeds_kmh": [40]}), encoding="utf-8")
    config = m.config.load_config(str(cfg), subsets=["vut"])
    tracer = perfbench.spans.Tracer()
    try:
        perfbench.layers.install(tracer, m)
        m.harness.run_sweep(config)
    finally:
        tracer.unpatch()
    assert tracer.calls["sensing.sense_frame"] > 0
    assert tracer.calls["geometry.visible_fraction"] > 0


def test_tracer_sees_the_contact_kernel(perfbench, tmp_path):
    # obb_overlap and obb_separation are traced through the module globals
    # aeb calls them by; only a sweep's avoided subsets take a stop margin,
    # so placement, which reads none, must take no exact gap
    m = imported_modules(perfbench)
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"scenarios": ["CBNA"], "speeds_kmh": [40]}), encoding="utf-8")
    config = m.config.load_config(str(cfg), subsets=["vut", "any"])
    spec = m.scenario.build_scenario(m.scenario.ScenarioKind.CBNA, 40.0)
    sites = m.placement.candidate_sites_from_units(m.sensing.default_layout()[:2])
    sweep, placement = perfbench.spans.Tracer(), perfbench.spans.Tracer()
    try:
        perfbench.layers.install(sweep, m)
        result = m.harness.run_sweep(config)
    finally:
        sweep.unpatch()
    try:
        perfbench.layers.install(placement, m)
        m.placement.evaluate_sites(sites, (spec,), config.policy, config.model)
    finally:
        placement.unpatch()
    assert sweep.calls["geometry.obb_overlap"] > 0
    assert any(sub.avoided for sub in result.cells[0].subsets)
    assert sweep.calls["geometry.obb_separation"] > 0
    assert placement.counts["placement.replays"] > 0
    assert placement.calls["geometry.obb_separation"] == 0


def test_every_workload_piece_exists(perfbench):
    for workload in perfbench.workloads.WORKLOADS.values():
        for module, name in workload.pieces:
            owner = importlib.import_module(f"vrusim.{module}")
            assert callable(getattr(owner, name, None)), f"{workload.name}: vrusim.{module}.{name}"


@pytest.mark.parametrize("seed", [1, 6])
def test_every_workload_input_loads(perfbench, tmp_path, seed):
    # the generators build units with the package's defaults and keywords
    # and write them through its layout format; what they write must load
    # as the benchmark's own run loads it
    m = imported_modules(perfbench)
    for name, workload in perfbench.workloads.WORKLOADS.items():
        work = tmp_path / name
        work.mkdir()
        inputs = workload.make_inputs(seed, work, m.sensing, m.geometry)
        config = m.config.load_config(str(inputs["config"]))
        assert config.cells(), name
        # every attribute the workloads read off the config
        for attribute in ("policy", "model", "scenarios", "speeds_by_kind", "overrides", "scene_yaws_deg", "subsets"):
            assert getattr(config, attribute) is not None, (name, attribute)
        assert config.dt == 0.005, name
        if "candidates" in inputs:
            units = m.config.read_layout(str(inputs["candidates"]), config.overrides.frame_rate, "--candidates")
            assert m.placement.candidate_sites_from_units(units), name


@pytest.mark.parametrize("name", ["sweep-replay", "sweep-dense", "placement-greedy"])
def test_every_workload_matches_its_golden(perfbench, tmp_path, name):
    # one run of the workload's own calls at seed 1 and one worker, checked
    # as the benchmark checks it: a keyword the benchmark passes that the
    # package no longer takes, or an output that moved off its golden
    # digest, fails here
    m = imported_modules(perfbench)
    workloads = perfbench.workloads
    workload = workloads.WORKLOADS[name]
    inputs = workload.make_inputs(1, tmp_path, m.sensing, m.geometry)
    state = workload.prepare(m, inputs, workloads.no_span)
    out = tmp_path / "out"
    outputs = workload.run(m, state, out, 1, workloads.no_span)
    ledger = workloads.Ledger()
    workloads.check(workload, state, out, outputs, workloads.load_golden(name)[inputs["variant"]], ledger)
    assert ledger.attempted > 0
    assert ledger.failed == 0, ledger.problems


def test_placement_workload_observes_each_cell_once(perfbench, tmp_path):
    # the benchmark scores the singles and then selects, in two calls on the
    # same objects; the second must reuse the first's passes and replays,
    # and each cell bisects its site triggers (26 replays at one per
    # distinct trigger, 9 bisected), or the saving would leave
    # placement-greedy without any test failing
    m = imported_modules(perfbench)
    workloads = perfbench.workloads
    workload = workloads.WORKLOADS["placement-greedy"]
    inputs = workload.make_inputs(1, tmp_path, m.sensing, m.geometry)
    state = workload.prepare(m, inputs, workloads.no_span)
    tracer = perfbench.spans.Tracer()
    try:
        perfbench.layers.install(tracer, m)
        workload.run(m, state, tmp_path / "out", 1, tracer.span)
    finally:
        tracer.unpatch()
    metrics = perfbench.layers.layer_metrics(tracer, 1.0, 0, 0, 0)
    assert metrics["placement.observe_passes"] == len(state.suite)
    assert metrics["placement.replay_unique_ratio"] == 1.0
    assert metrics["placement.replays"] <= 9
