"""The benchmark workloads: set-up, one timed iteration, and output checks.

Each workload drives the library entry points that ``vrusim sweep`` and
``vrusim placement`` call.  Set-up imports vrusim afresh, loads and
validates the config and parses layouts (for placement it also builds the
scenario suite); an iteration is the workload's main calls and report
writes; the checks compare the written reports with committed golden
digests and count every write and every digest comparison as an operation.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import pickle
import re
import shutil
import sys
import time
import typing
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import gen
from layers import install

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_DIR = HERE / "golden"

_MODULES = ("aeb", "config", "geometry", "harness", "metrics", "placement", "scenario", "sensing")
_DIGEST_LINE = re.compile(r"^([0-9a-f]{64})  (.+)$")


def no_span(name: str):
    return nullcontext()


def fresh_import() -> SimpleNamespace:
    """Import vrusim from this checkout's ``src`` afresh and return its modules.

    ``typing`` caches the generic aliases a module builds at import time
    (``Optional[MountPose]``, ...); they are cleared too, as in a new
    process, or every re-import would keep the classes of the one before
    alive and the memory peak would grow with the number of set-ups.
    """
    for name in [n for n in sys.modules if n == "vrusim" or n.startswith("vrusim.")]:
        del sys.modules[name]
    for clear in getattr(typing, "_cleanups", ()):
        clear()
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("vrusim")
    origin = Path(pkg.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"vrusim was imported from {origin}, not from {SRC}")
    return SimpleNamespace(
        pkg=pkg, **{name: importlib.import_module(f"vrusim.{name}") for name in _MODULES}
    )


@dataclass
class Ledger:
    """Operations attempted and failed: report writes and digest checks."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def tree_size(out: Path) -> tuple[int, int]:
    """(files, bytes) under ``out``."""
    files = size = 0
    for dirpath, _, names in os.walk(out):
        for name in names:
            files += 1
            size += os.path.getsize(os.path.join(dirpath, name))
    return files, size


def _data_rows(path: Path) -> int:
    """Lines after the header; -1 when the file is missing."""
    if not path.exists():
        return -1
    return len(path.read_text(encoding="utf-8").splitlines()) - 1


class Sweep:
    """``load_config`` then ``run_sweep`` and ``emit_reports``."""

    # the simulation calls an iteration is made of, which the host sampler
    # follows (in the pool's processes at two workers)
    pieces = (("harness", "simulate_run"), ("harness", "last_possible_brake_time"))

    def __init__(self, name: str, make_inputs, workers: int):
        self.name = name
        self.make_inputs = make_inputs
        self.workers = workers

    def prepare(self, mods, inputs: dict, span) -> SimpleNamespace:
        t0 = time.perf_counter()
        with span("config.load"):
            config = mods.config.load_config(str(inputs["config"]))
        return SimpleNamespace(config=config, load_s=time.perf_counter() - t0)

    def scored(self, state) -> int:
        """(cell, subset) evaluations: the rows of ``summary.csv``."""
        config = state.config
        cells = len(config.scene_yaws_deg) * sum(
            len(config.speeds_by_kind[kind]) for kind in config.scenarios
        )
        return cells * len(config.subsets)

    def run(self, mods, state, out: Path, workers: int, span):
        with span("harness.run_sweep"):
            result = mods.harness.run_sweep(state.config, workers=workers)
        with span("harness.emit"):
            manifest = mods.harness.emit_reports(result, str(out))
        return SimpleNamespace(result=result, manifest=manifest)

    def cli_args(self, inputs: dict, out: Path) -> list[str]:
        """The ``vrusim`` command line that writes the same reports."""
        return ["sweep", "--config", str(inputs["config"]), "--out", str(out),
                "--workers", str(self.workers)]

    def digests(self, out: Path) -> dict[str, str]:
        """The digest lines of ``manifest.txt``."""
        found = {}
        manifest = out / "manifest.txt"
        lines = manifest.read_text(encoding="utf-8").splitlines() if manifest.exists() else []
        for line in lines:
            match = _DIGEST_LINE.match(line)
            if match:
                found[match.group(2)] = match.group(1)
        return found

    def check_writes(self, state, out: Path, outputs, ledger: Ledger) -> None:
        manifest = outputs.manifest
        for _ in manifest.entries:
            ledger.op(True, "")
        for rel, msg in manifest.failures:
            ledger.op(False, f"write {rel}: {msg}")
        if all(rel != "manifest.txt" for rel, _ in manifest.failures):
            ledger.op(True, "")
        rows = _data_rows(out / "summary.csv")
        ledger.op(rows == self.scored(state),
                  f"summary.csv has {rows} rows, expected {self.scored(state)}")

    def task_bytes(self, state, outputs) -> int:
        """Pickled bytes a worker pool would move: every task and its result."""
        return sum(
            len(pickle.dumps((state.config, cell.yaw_deg, cell.kind, cell.speed_kmh)))
            + len(pickle.dumps(cell))
            for cell in outputs.result.cells
        )


class Placement:
    """``load_config``, ``parse_layout`` and the suite, then ``evaluate_sites``,
    ``greedy_select`` and the two reports ``vrusim placement`` writes."""

    name = "placement-greedy"
    workers = 1
    pieces = (("placement", "simulate_run"),)
    make_inputs = staticmethod(gen.placement_inputs)

    def prepare(self, mods, inputs: dict, span) -> SimpleNamespace:
        t0 = time.perf_counter()
        with span("config.load"):
            config = mods.config.load_config(str(inputs["config"]))
        load_s = time.perf_counter() - t0
        with span("placement.parse"):
            units = mods.sensing.parse_layout(inputs["candidates"].read_text(encoding="utf-8"))
            candidates = mods.placement.candidate_sites_from_units(units)
        suite = tuple(
            mods.scenario.build_scenario(kind, speed, config.overrides)
            for kind in config.scenarios
            for speed in config.speeds_by_kind[kind]
        )
        return SimpleNamespace(config=config, candidates=candidates, suite=suite, load_s=load_s)

    def scored(self, state) -> int:
        """(cell, subset) evaluations: K singles, then the empty set and
        K, K-1, ... candidates per greedy round, over every suite cell."""
        k = len(state.candidates)
        budget = min(gen.BUDGET, k)
        return (k + 1 + sum(k - i for i in range(budget))) * len(state.suite)

    def run(self, mods, state, out: Path, workers: int, span):
        config, candidates, suite = state.config, state.candidates, state.suite
        with span("placement.evaluate"):
            scores = mods.placement.evaluate_sites(
                candidates, suite, config.policy, config.model, dt=config.dt
            )
        with span("placement.greedy"):
            picked = mods.placement.greedy_select(
                candidates, gen.BUDGET, suite, config.policy, config.model, dt=config.dt
            )
        with span("placement.write"):
            failures = _write_placement_reports(mods, out, candidates, scores, picked)
        return SimpleNamespace(failures=failures)

    def cli_args(self, inputs: dict, out: Path) -> list[str]:
        return ["placement", "--config", str(inputs["config"]),
                "--candidates", str(inputs["candidates"]),
                "--budget", str(gen.BUDGET), "--out", str(out)]

    def digests(self, out: Path) -> dict[str, str]:
        return {
            name: sha256_file(out / name)
            for name in ("placement.csv", "selected_layout.txt")
            if (out / name).exists()
        }

    def check_writes(self, state, out: Path, outputs, ledger: Ledger) -> None:
        for rel in ("placement.csv", "selected_layout.txt"):
            error = outputs.failures.get(rel)
            ledger.op(error is None, f"write {rel}: {error}")
        if outputs.failures:
            return
        k, budget = len(state.candidates), min(gen.BUDGET, len(state.candidates))
        rows = _data_rows(out / "placement.csv")
        ledger.op(rows == k, f"placement.csv has {rows} rows, expected {k}")
        rows = _data_rows(out / "selected_layout.txt")
        ledger.op(rows == budget, f"selected_layout.txt has {rows} rows, expected {budget}")

    def task_bytes(self, state, outputs) -> int:
        return 0


def _write_placement_reports(mods, out: Path, candidates, scores, picked) -> dict[str, str]:
    """The report files of ``vrusim placement``, byte for byte (the golden
    digests are taken from the command itself); returns write errors by file."""
    lines = ["site_id,selected,selection_rank,marginal_gain,avoidance,accuracy"]
    rank = {sid: i for i, sid in enumerate(picked.selected_site_ids)}
    for score in scores:
        i = rank.get(score.site_id)
        lines.append(",".join((
            score.site_id,
            "true" if i is not None else "false",
            str(i) if i is not None else "NA",
            f"{picked.marginal_gains[i]:.6f}" if i is not None else "NA",
            f"{score.avoidance:.6f}",
            f"{score.accuracy:.6f}",
        )))
    selected = tuple(
        site.to_unit()
        for sid in picked.selected_site_ids
        for site in candidates
        if site.site_id == sid
    )
    failures = {}
    out.mkdir(parents=True, exist_ok=True)
    for rel, text in (
        ("placement.csv", "\n".join(lines) + "\n"),
        ("selected_layout.txt", mods.sensing.format_layout(selected)),
    ):
        try:
            with open(out / rel, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            failures[rel] = str(exc)
    return failures


WORKLOADS = {
    "sweep-replay": Sweep("sweep-replay", gen.sweep_replay_inputs, workers=1),
    "sweep-dense": Sweep("sweep-dense", gen.sweep_dense_inputs, workers=gen.DENSE_WORKERS),
    "placement-greedy": Placement(),
}


def setup(wl, inputs: dict, tracer=None) -> tuple[SimpleNamespace, SimpleNamespace, dict]:
    """Import vrusim, then prepare the workload; returns (modules, state, times).

    With a tracer, the wrappers go in right after the import so that set-up
    calls are traced too.
    """
    t0 = time.perf_counter()
    mods = fresh_import()
    if tracer is not None:
        install(tracer, mods)
    state = wl.prepare(mods, inputs, tracer.span if tracer else no_span)
    return mods, state, {"setup_s": time.perf_counter() - t0, "load_s": state.load_s}


def iterate(wl, mods, state, work: Path, workers: int, span=no_span):
    """One timed iteration into a fresh ``work/out``; returns (run_s, outputs, out)."""
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    t0 = time.perf_counter()
    outputs = wl.run(mods, state, out, workers, span)
    return time.perf_counter() - t0, outputs, out


def load_golden(workload: str) -> dict:
    path = GOLDEN_DIR / f"{workload}.json"
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check(wl, state, out: Path, outputs, golden: dict, ledger: Ledger) -> None:
    """Count the report writes, then compare every digest with the golden one."""
    wl.check_writes(state, out, outputs, ledger)
    found = wl.digests(out)
    for rel in sorted(set(golden) | set(found)):
        expected, got = golden.get(rel), found.get(rel)
        if expected is None:
            problem = f"golden mismatch in {rel}: file not in the golden set"
        elif got is None:
            problem = f"golden mismatch in {rel}: file missing"
        else:
            problem = f"golden mismatch in {rel}: {got[:12]} != {expected[:12]}"
        ledger.op(expected == got, problem)
