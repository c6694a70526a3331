"""Sweep execution and report emission.

A sweep cell is one (scene yaw, scenario, speed).  Each cell runs a single
unbraked observation pass that records every sensor's detections through
the whole scenario; any sensor subset is then scored by replaying the
braking kinematics from that subset's earliest confirmation.  That is the
subset's closed loop: braking starts no earlier than the confirming
frame, so a run forced from the trigger senses what the observation pass
sensed up to it (see `aeb.simulate_run`).

Cells are independent, so they may run in any number of worker processes;
results are merged in configured order and every output byte depends only
on (config, seed).
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping

from ._version import __version__
from .aeb import SafetyOutcome, format_trace, last_possible_brake_time, simulate_run, stop_margin
from .config import RunConfig, cell_tag
from .metrics import accuracy, heatmap_from_frames, mean_detections_per_frame
from .scenario import ScenarioKind, build_scenario, rotate_scenario
from .sensing import first_confirmed_time

__all__ = ["SubsetResult", "CellResult", "SweepResult", "run_sweep", "emit_reports", "Manifest"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SubsetResult:
    name: str
    sensor_ids: tuple[str, ...]
    accuracy: float
    mean_detections: float
    avoided: bool
    collision_speed: float
    stop_margin: float | None
    collision_time: float | None
    first_confirmed_time: float | None
    brake_trigger_time: float | None


@dataclass(frozen=True)
class CellResult:
    yaw_deg: float
    kind: ScenarioKind
    speed_kmh: float
    n_frames: int
    frame_rate: float
    detection_frames: Mapping[str, tuple[int, ...]]
    last_possible_brake_time: float | None
    subsets: tuple[SubsetResult, ...]
    trace_text: str | None


@dataclass(frozen=True)
class SweepResult:
    config: RunConfig
    cells: tuple[CellResult, ...]
    version: str
    config_hash: str


def _run_cell(payload: tuple[RunConfig, float, ScenarioKind, float]) -> CellResult:
    config, yaw_deg, kind, speed = payload
    spec = build_scenario(kind, speed, config.overrides)
    if yaw_deg != 0.0:
        spec = rotate_scenario(spec, math.radians(yaw_deg))
    units = config.all_units()

    watch = simulate_run(spec, units, config.model, config.policy, dt=config.dt, sense=True)
    events = watch.events_by_sensor
    n_frames = spec.n_frames
    deadline = last_possible_brake_time(spec, config.policy, dt=config.dt)

    # subsets that confirm at the same instant brake identically; only
    # summary.csv reads a stop margin, so only these replays take one
    replays: dict[float | None, tuple[SafetyOutcome, float | None, float | None]] = {}
    subsets = []
    for sub in config.subsets:
        trigger = first_confirmed_time(events, config.policy.confirm_frames, sub.sensor_ids)
        if trigger not in replays:
            replay = simulate_run(
                spec, (), config.model, config.policy,
                dt=config.dt, trigger_override=trigger, sense=False,
            )
            margin = stop_margin(replay) if replay.outcome.avoided else None
            replays[trigger] = (replay.outcome, replay.brake_trigger_time, margin)
        out, brake_trigger_time, margin = replays[trigger]
        subsets.append(
            SubsetResult(
                name=sub.name,
                sensor_ids=sub.sensor_ids,
                accuracy=accuracy(events, n_frames, sub.sensor_ids),
                mean_detections=mean_detections_per_frame(events, n_frames, sub.sensor_ids),
                avoided=out.avoided,
                collision_speed=out.collision_speed,
                stop_margin=margin,
                collision_time=out.collision_time,
                first_confirmed_time=trigger,
                brake_trigger_time=brake_trigger_time,
            )
        )

    return CellResult(
        yaw_deg=yaw_deg,
        kind=kind,
        speed_kmh=speed,
        n_frames=n_frames,
        frame_rate=spec.frame_rate,
        detection_frames={
            sensor_id: tuple(ev.frame for ev in evs) for sensor_id, evs in events.items()
        },
        last_possible_brake_time=deadline,
        subsets=tuple(subsets),
        trace_text=format_trace(watch) if config.write_traces else None,
    )


def run_sweep(config: RunConfig, workers: int = 1) -> SweepResult:
    """Execute every sweep cell; results are in configured order regardless
    of worker count. A pool starts all its workers at once, so it gets no
    more than there are cells."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    tasks = [(config, *cell) for cell in config.cells()]
    workers = min(workers, len(tasks))
    log.info("running %d sweep cells with %d worker(s)", len(tasks), workers)
    if workers == 1:
        cells = tuple(_run_cell(t) for t in tasks)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = tuple(pool.map(_run_cell, tasks))
    return SweepResult(
        config=config,
        cells=cells,
        version=__version__,
        config_hash=config.config_hash(),
    )


# ------------------------------------------------------------------ reports


@dataclass(frozen=True)
class Manifest:
    entries: tuple[tuple[str, str], ...]  # (relative path, sha256)
    failures: tuple[tuple[str, str], ...]  # (relative path, error)

    @property
    def complete(self) -> bool:
        return not self.failures


def _fmt(value) -> str:
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)


def _summary_csv(result: SweepResult) -> str:
    header = (
        "scene_yaw_deg,scenario,speed_kmh,subset,accuracy,mean_detections_per_frame,"
        "avoided,collision_speed_mps,stop_margin_m,collision_time_s,"
        "first_confirmed_time_s,brake_trigger_time_s,last_possible_brake_time_s"
    )
    lines = [header]
    for cell in result.cells:
        for sub in cell.subsets:
            lines.append(
                ",".join(
                    (
                        f"{cell.yaw_deg:g}",
                        cell.kind.display_name,
                        f"{cell.speed_kmh:g}",
                        sub.name,
                        _fmt(sub.accuracy),
                        _fmt(sub.mean_detections),
                        _fmt(sub.avoided),
                        _fmt(sub.collision_speed),
                        _fmt(sub.stop_margin),
                        _fmt(sub.collision_time),
                        _fmt(sub.first_confirmed_time),
                        _fmt(sub.brake_trigger_time),
                        _fmt(cell.last_possible_brake_time),
                    )
                )
            )
    return "\n".join(lines) + "\n"


def _yaw_cells(result: SweepResult, yaw: float) -> list[CellResult]:
    return [c for c in result.cells if c.yaw_deg == yaw]


def _accuracy_table_csv(result: SweepResult, yaw: float) -> str | None:
    """Rows = scenarios, columns = speeds, values = any-subset accuracy in %."""
    cells = _yaw_cells(result, yaw)
    if not any(s.name == "any" for c in cells for s in c.subsets):
        return None
    speeds = sorted({c.speed_kmh for c in cells})
    lines = ["scenario," + ",".join(f"{s:g}" for s in speeds)]
    for kind in result.config.scenarios:
        row = [kind.display_name]
        for speed in speeds:
            match = [c for c in cells if c.kind is kind and c.speed_kmh == speed]
            if not match:
                row.append("NA")
                continue
            sub = next(s for s in match[0].subsets if s.name == "any")
            row.append(f"{100.0 * sub.accuracy:.2f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _avoidance_csv(result: SweepResult, yaw: float) -> str:
    """Rows = subsets, columns = scenarios plus overall, values in %."""
    cells = _yaw_cells(result, yaw)
    kinds = result.config.scenarios
    lines = ["subset," + ",".join(k.display_name for k in kinds) + ",overall"]
    for sub_spec in result.config.subsets:
        row = [sub_spec.name]
        hits_all = total_all = 0
        for kind in kinds:
            flags = [
                s.avoided
                for c in cells
                if c.kind is kind
                for s in c.subsets
                if s.name == sub_spec.name
            ]
            hits_all += sum(flags)
            total_all += len(flags)
            row.append(f"{100.0 * sum(flags) / len(flags):.2f}" if flags else "NA")
        row.append(f"{100.0 * hits_all / total_all:.2f}" if total_all else "NA")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def emit_reports(result: SweepResult, out_dir: str) -> Manifest:
    """Write every report file; the manifest records a checksum per file."""
    entries: list[tuple[str, str]] = []
    failures: list[tuple[str, str]] = []

    def write(rel: str, data: str | bytes) -> None:
        blob = data.encode("utf-8") if isinstance(data, str) else data
        path = os.path.join(out_dir, rel)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            failures.append((rel, str(exc)))
            return
        entries.append((rel, hashlib.sha256(blob).hexdigest()))

    write("summary.csv", _summary_csv(result))

    for yaw in result.config.scene_yaws_deg:
        suffix = "" if yaw == 0.0 else f"_yaw{yaw:g}"
        table = _accuracy_table_csv(result, yaw)
        if table is not None:
            write(f"accuracy_table{suffix}.csv", table)
        write(f"avoidance_by_subset{suffix}.csv", _avoidance_csv(result, yaw))

    for cell in result.cells:
        tag = cell_tag(cell.yaw_deg, cell.kind, cell.speed_kmh)
        for sub in cell.subsets:
            frames = {
                sensor_id: cell.detection_frames[sensor_id] for sensor_id in sub.sensor_ids
            }
            hm = heatmap_from_frames(
                frames, cell.n_frames, cell.frame_rate, cell.last_possible_brake_time
            )
            base = f"heatmaps/{tag}_{sub.name}"
            write(base + ".csv", hm.to_csv())
            write(base + ".ppm", hm.to_ppm())
        if cell.trace_text is not None:
            write(f"traces/{tag}.txt", cell.trace_text)

    entries.sort()
    failures.sort()
    manifest_lines = [
        f"version {result.version}",
        f"config_hash {result.config_hash}",
        f"seed {result.config.model.seed}",
        f"files {len(entries)}",
    ]
    manifest_lines += [f"{digest}  {rel}" for rel, digest in entries]
    manifest_lines += [f"FAILED {rel}: {msg}" for rel, msg in failures]
    # the manifest lists everything else, so it cannot appear in itself
    try:
        with open(os.path.join(out_dir, "manifest.txt"), "wb") as fh:
            fh.write(("\n".join(manifest_lines) + "\n").encode("utf-8"))
    except OSError as exc:
        failures.append(("manifest.txt", str(exc)))

    return Manifest(entries=tuple(entries), failures=tuple(failures))
