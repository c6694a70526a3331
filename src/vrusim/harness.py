"""Sweep execution, and report emission for the sweep and placement.

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

One writer writes both commands' reports and their `manifest.txt`.
"""

from __future__ import annotations

import hashlib
import logging
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from ._version import __version__
from .aeb import RunTrace, SafetyOutcome, last_possible_brake_time, simulate_run, stop_margin
from .config import RunConfig, cell_tag
from .metrics import accuracy, heatmap_from_frames, mean_detections_per_frame
from .scenario import ScenarioKind, ScenarioOverrides, ScenarioSpec, build_scenario, rotate_scenario
from .sensing import SensorUnit, first_confirmed_time, format_layout

if TYPE_CHECKING:  # a sweep's worker processes need no placement code
    from .placement import PlacementResult, SiteScore

__all__ = ["SubsetResult", "CellResult", "SweepResult", "cell_spec", "run_sweep", "emit_reports",
           "emit_placement_reports", "format_trace", "Manifest"]

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


def cell_spec(overrides: ScenarioOverrides, yaw_deg: float, kind: ScenarioKind, speed: float) -> ScenarioSpec:
    """The scenario of the cell (yaw_deg, kind, speed): built, then turned by the scene yaw."""
    return rotate_scenario(build_scenario(kind, speed, overrides), math.radians(yaw_deg))


def _run_cell(payload: tuple[RunConfig, float, ScenarioKind, float]) -> CellResult:
    config, yaw_deg, kind, speed = payload
    spec = cell_spec(config.overrides, yaw_deg, kind, speed)
    units = config.all_units()

    watch = simulate_run(spec, units, config.model, config.policy, sense=True)
    events = watch.events_by_sensor
    n_frames = spec.n_frames
    deadline = last_possible_brake_time(spec, config.policy)

    # subsets that confirm at the same instant brake identically; only
    # summary.csv reads a stop margin, so only these replays take one
    replays: dict[float | None, tuple[SafetyOutcome, float | None, float | None]] = {}
    subsets = []
    for sub in config.subsets:
        trigger = first_confirmed_time(events, config.policy.confirm_frames, sub.sensor_ids)
        if trigger not in replays:
            replay = simulate_run(
                spec, (), config.model, config.policy, trigger_override=trigger, sense=False
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
    return SweepResult(config=config, cells=cells)


# ------------------------------------------------------------------ reports


@dataclass(frozen=True)
class Manifest:
    entries: tuple[tuple[str, str], ...]  # (relative path, sha256)
    failures: tuple[tuple[str, str], ...]  # (relative path, error)

    @property
    def complete(self) -> bool:
        return not self.failures


def _fmt(value: float | bool | None) -> str:
    """A report value as printed: NA, true/false or six decimals; a value
    that rounds to zero prints unsigned, whatever side of zero it is on."""
    if value is None:
        return "NA"
    if isinstance(value, bool):
        return "true" if value else "false"
    text = f"{value:.6f}"
    return "0.000000" if text == "-0.000000" else text


def format_trace(trace: RunTrace) -> str:
    """Render a sensing run as line-oriented text for external plotting.

    Comment lines carry the run summary; the first says which pass this is:
    ``unbraked_observation`` for a run with no brake trigger, such as the
    sweep's observation pass (each subset's outcome is in the summary), and
    ``braked`` otherwise. The header row names the columns, one
    ``det_<sensor>`` flag column per sensor in the order of its
    ``events_by_sensor``. Times print with three decimals, and at frame
    periods under a millisecond with the fewest that tell every frame
    apart.
    """
    out = trace.outcome
    kind = "unbraked_observation" if trace.brake_trigger_time is None else "braked"
    head = [
        f"# pass={kind}"
        f" scenario={trace.spec.kind.display_name}"
        f" vut_speed_mps={_fmt(trace.spec.vut_track.speed)}"
        f" frame_rate_hz={trace.spec.frame_rate:g}",
        f"# first_confirmed_time={_fmt(trace.first_confirmed_time)}"
        f" brake_trigger_time={_fmt(trace.brake_trigger_time)}"
        f" avoided={_fmt(out.avoided)}"
        f" collision_time={_fmt(out.collision_time)}"
        f" collision_speed={_fmt(out.collision_speed)}",
    ]
    cols = [
        "time", "vut_x", "vut_y", "vut_heading", "vut_speed",
        "vru_x", "vru_y", "vru_heading", "braking",
    ] + [f"det_{sensor_id}" for sensor_id in trace.events_by_sensor]
    lines = head + [",".join(cols)]
    spec = trace.spec
    steps_per_frame = spec.timeline.steps_per_frame
    detected = [{ev.frame for ev in events} for events in trace.events_by_sensor.values()]
    onset = trace.brake_trigger_time
    vut_track, vru_track = spec.vut_track, spec.vru_track
    # frames at least 10**-decimals apart round to distinct labels
    decimals = max(3, math.ceil(math.log10(spec.frame_rate)))
    for frame in range(spec.n_frames):
        t = frame / spec.frame_rate
        start = frame * steps_per_frame
        ux, uy = vut_track.locate(trace.travel[start])
        rx, ry = vru_track.locate(vru_track.speed * t)
        values = (ux, uy, vut_track.heading, trace.speeds[start], rx, ry, vru_track.heading)
        row = [f"{t:.{decimals}f}", *map(_fmt, values), "1" if onset is not None and t >= onset else "0"]
        row += ["1" if frame in frames else "0" for frames in detected]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


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
    names = [sub.name for sub in result.config.subsets]
    if "any" not in names:
        return None
    # a cell holds its subsets in configured order
    fused = names.index("any")
    by_cell = {(c.kind, c.speed_kmh): c for c in _yaw_cells(result, yaw)}
    speeds = sorted({speed for _, speed in by_cell})
    lines = ["scenario," + ",".join(f"{s:g}" for s in speeds)]
    for kind in result.config.scenarios:
        row = [kind.display_name]
        for speed in speeds:
            cell = by_cell.get((kind, speed))
            row.append("NA" if cell is None else f"{100.0 * cell.subsets[fused].accuracy:.2f}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _avoidance_csv(result: SweepResult, yaw: float) -> str:
    """Rows = subsets, columns = scenarios plus overall, values in %."""
    cells = _yaw_cells(result, yaw)
    kinds = result.config.scenarios
    by_kind = {kind: [c for c in cells if c.kind is kind] for kind in kinds}
    lines = ["subset," + ",".join(k.display_name for k in kinds) + ",overall"]
    # a cell holds its subsets in configured order
    for i, sub_spec in enumerate(result.config.subsets):
        row = [sub_spec.name]
        hits_all = total_all = 0
        for kind in kinds:
            flags = [c.subsets[i].avoided for c in by_kind[kind]]
            hits_all += sum(flags)
            total_all += len(flags)
            row.append(f"{100.0 * sum(flags) / len(flags):.2f}" if flags else "NA")
        row.append(f"{100.0 * hits_all / total_all:.2f}" if total_all else "NA")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _sweep_files(result: SweepResult) -> Iterator[tuple[str, str | bytes]]:
    """Every sweep report as (relative path, contents), made one at a time."""
    yield "summary.csv", _summary_csv(result)

    for yaw in result.config.scene_yaws_deg:
        suffix = "" if yaw == 0.0 else f"_yaw{yaw:g}"
        table = _accuracy_table_csv(result, yaw)
        if table is not None:
            yield f"accuracy_table{suffix}.csv", table
        yield f"avoidance_by_subset{suffix}.csv", _avoidance_csv(result, yaw)

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
            yield base + ".csv", hm.to_csv()
            yield base + ".ppm", hm.to_ppm()
        if cell.trace_text is not None:
            yield f"traces/{tag}.txt", cell.trace_text


def _write_reports(config: RunConfig, out_dir: str, files: Iterable[tuple[str, str | bytes]]) -> Manifest:
    """Write each (relative path, contents) under `out_dir`, then
    `manifest.txt`; a file that fails is recorded and the next attempted."""
    entries: list[tuple[str, str]] = []
    failures: list[tuple[str, str]] = []

    def write(rel: str, blob: bytes) -> bool:
        path = os.path.join(out_dir, rel)
        try:
            os.makedirs(os.path.dirname(path), exist_ok=True)
            with open(path, "wb") as fh:
                fh.write(blob)
        except OSError as exc:
            failures.append((rel, str(exc)))
            return False
        return True

    for rel, data in files:
        blob = data.encode("utf-8") if isinstance(data, str) else data
        if write(rel, blob):
            entries.append((rel, hashlib.sha256(blob).hexdigest()))

    entries.sort()
    failures.sort()
    manifest_lines = [
        f"version {__version__}",
        f"config_hash {config.config_hash()}",
        f"seed {config.model.seed}",
        f"files {len(entries)}",
    ]
    manifest_lines += [f"{digest}  {rel}" for rel, digest in entries]
    manifest_lines += [f"FAILED {rel}: {msg}" for rel, msg in failures]
    # the manifest lists everything else, so it cannot appear in itself
    write("manifest.txt", ("\n".join(manifest_lines) + "\n").encode("utf-8"))
    return Manifest(entries=tuple(entries), failures=tuple(failures))


def emit_reports(result: SweepResult, out_dir: str) -> Manifest:
    """Write every sweep report file; the manifest records a checksum per file."""
    return _write_reports(result.config, out_dir, _sweep_files(result))


def emit_placement_reports(
    config: RunConfig, units: Sequence[SensorUnit], scores: Iterable[SiteScore], picked: PlacementResult, out_dir: str
) -> Manifest:
    """Write `placement.csv`, a row per scored site, and `selected_layout.txt`,
    the picked units in selection order; the manifest is the sweep's."""
    lines = ["site_id,selected,selection_rank,marginal_gain,avoidance,accuracy"]
    rank = {sid: i for i, sid in enumerate(picked.selected_site_ids)}
    for score in scores:
        i = rank.get(score.site_id)
        lines.append(
            ",".join(
                (
                    score.site_id,
                    _fmt(i is not None),
                    str(i) if i is not None else "NA",
                    _fmt(picked.marginal_gains[i] if i is not None else None),
                    _fmt(score.avoidance),
                    _fmt(score.accuracy),
                )
            )
        )
    by_id = {unit.sensor_id: unit for unit in units}
    selected = tuple(by_id[sid] for sid in picked.selected_site_ids)
    files = (
        ("placement.csv", "\n".join(lines) + "\n"),
        ("selected_layout.txt", format_layout(selected, config.overrides.frame_rate)),
    )
    return _write_reports(config, out_dir, files)
