"""Where the tracer's wrappers go in vrusim, and the per-layer metrics.

Every wrapper sits on a name one module imported from another, so a span
is one call across a module boundary:

- ``harness._run_cell``: one sweep cell (it sets the span's cell id).
- ``harness.simulate_run`` / ``placement.simulate_run``: the observation
  pass (``sense=True``) or a subset replay (``sense=False``).
- ``harness.last_possible_brake_time`` and the ``aeb.simulate_run`` calls
  its bisection makes.
- ``aeb.obb_overlap`` / ``aeb.obb_separation``: the contact kernel.
- ``aeb.sense_frame`` and the ``sensing.visible_fraction`` it calls.
- confirmation, accuracy and heatmap helpers that harness and placement
  call, scenario construction, and the heatmap writers.
"""

from __future__ import annotations

import statistics

# spans whose self time is reported, in report order
SELF_SPANS = (
    "config.load", "placement.parse", "scenario.build", "scenario.rotate",
    "harness.run_sweep", "harness.cell", "aeb.observe", "aeb.deadline",
    "aeb.deadline_run", "aeb.replay", "geometry.obb_overlap",
    "geometry.obb_separation", "sensing.sense_frame", "geometry.visible_fraction",
    "sensing.confirm", "metrics.accuracy", "metrics.mean_detections",
    "metrics.heatmap_from_frames", "metrics.to_csv", "metrics.to_ppm",
    "harness.emit", "placement.evaluate", "placement.greedy", "placement.write",
)

# self time grouped by what it does, as shares of the traced run time
SHARES = {
    "share.kinematics": ("aeb.observe", "aeb.deadline", "aeb.deadline_run", "aeb.replay"),
    "share.contact": ("geometry.obb_overlap", "geometry.obb_separation"),
    "share.sensing": ("sensing.sense_frame", "geometry.visible_fraction"),
    "share.metrics": ("sensing.confirm", "metrics.accuracy", "metrics.mean_detections",
                      "metrics.heatmap_from_frames", "metrics.to_csv", "metrics.to_ppm"),
    "share.reports": ("harness.emit", "placement.write"),
}

_HEATMAP = ("metrics.heatmap_from_frames", "metrics.to_csv", "metrics.to_ppm")


def spec_key(spec) -> str:
    start = spec.vut_track.path[0]
    return f"{spec.kind.display_name}_{spec.vut_track.speed:.6g}_{start.x:.6g}_{start.y:.6g}"


def install(tr, m) -> None:
    """Wrap the cross-module calls of the vrusim modules in ``m``."""

    def cell_begin(args, kwargs):
        _, yaw, kind, speed = args[0]
        tr.cell = f"{kind.display_name}_{speed:g}_yaw{yaw:g}"

    def cell_end(*_):
        tr.cell = None

    def run_kind(args, kwargs):
        return "aeb.observe" if kwargs.get("sense", True) else "aeb.replay"

    def sweep_run_done(label, args, kwargs, result):
        if label == "aeb.replay":
            tr.keys["aeb.replay"].add((tr.cell, kwargs["trigger_override"]))

    def placement_run_begin(args, kwargs):
        tr.cell = spec_key(args[0])
        return run_kind(args, kwargs)

    def placement_run_done(label, args, kwargs, result):
        if label == "aeb.replay":
            key = (tr.cell, kwargs["trigger_override"])
            tr.keys["aeb.replay"].add(key)
            tr.keys["placement.replay"].add(key)
            tr.counts["placement.replays"] += 1
        else:
            tr.counts["placement.observe_passes"] += 1
        tr.cell = None

    def sensed(label, args, kwargs, result):
        if result is not None:
            tr.counts["sensing.detections"] += 1

    tr.patch(m.harness, "_run_cell", "harness.cell", before=cell_begin, after=cell_end)
    tr.patch(m.harness, "simulate_run", "aeb.run", before=run_kind, after=sweep_run_done)
    tr.patch(m.placement, "simulate_run", "aeb.run",
             before=placement_run_begin, after=placement_run_done)
    tr.patch(m.harness, "last_possible_brake_time", "aeb.deadline")
    tr.patch(m.aeb, "simulate_run", "aeb.deadline_run")
    tr.patch(m.aeb, "obb_overlap", "geometry.obb_overlap", keep=False)
    tr.patch(m.aeb, "obb_separation", "geometry.obb_separation", keep=False)
    tr.patch(m.aeb, "sense_frame", "sensing.sense_frame", keep=False, after=sensed)
    tr.patch(m.sensing, "visible_fraction", "geometry.visible_fraction", keep=False)
    for owner in (m.harness, m.placement):
        tr.patch(owner, "first_confirmed_time", "sensing.confirm")
        tr.patch(owner, "accuracy", "metrics.accuracy")
    tr.patch(m.harness, "mean_detections_per_frame", "metrics.mean_detections")
    tr.patch(m.harness, "heatmap_from_frames", "metrics.heatmap_from_frames")
    tr.patch(m.metrics.HeatmapMatrix, "to_csv", "metrics.to_csv")
    tr.patch(m.metrics.HeatmapMatrix, "to_ppm", "metrics.to_ppm")
    tr.patch(m.harness, "build_scenario", "scenario.build")
    tr.patch(m.scenario, "build_scenario", "scenario.build")
    tr.patch(m.harness, "rotate_scenario", "scenario.rotate")


def repeatable_counts(tr, files: int, size: int, task_bytes: int) -> dict[str, int]:
    """Every count of one traced iteration, flat by name."""
    counts = {f"calls.{name}": n for name, n in tr.calls.items()}
    counts.update({f"counts.{name}": n for name, n in tr.counts.items()})
    counts.update({f"distinct.{name}": len(keys) for name, keys in tr.keys.items()})
    counts.update({"files": files, "bytes": size, "task_bytes": task_bytes})
    return counts


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tr, run_s: float, files: int, size: int, task_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration that took ``run_s``."""
    calls, total = tr.calls, tr.total
    cell_s = tr.durations("harness.cell")
    out = {
        "scenario.build_calls": calls["scenario.build"],
        "scenario.build_s": total["scenario.build"],
        "aeb.observe_calls": calls["aeb.observe"],
        "aeb.observe_s": total["aeb.observe"],
        "aeb.deadline_calls": calls["aeb.deadline"],
        "aeb.deadline_runs": calls["aeb.deadline_run"],
        "aeb.deadline_s": total["aeb.deadline"],
        "aeb.replay_calls": calls["aeb.replay"],
        "aeb.replay_s": total["aeb.replay"],
        "aeb.replay_unique_ratio": _ratio(len(tr.keys["aeb.replay"]), calls["aeb.replay"]),
        "geometry.obb_overlap_calls": calls["geometry.obb_overlap"],
        "geometry.obb_overlap_s": total["geometry.obb_overlap"],
        "geometry.obb_separation_calls": calls["geometry.obb_separation"],
        "geometry.obb_separation_s": total["geometry.obb_separation"],
        "sensing.sense_frame_calls": calls["sensing.sense_frame"],
        "sensing.sense_frame_s": total["sensing.sense_frame"],
        "sensing.detections": tr.counts["sensing.detections"],
        "sensing.detect_ratio": _ratio(tr.counts["sensing.detections"], calls["sensing.sense_frame"]),
        "geometry.visible_fraction_calls": calls["geometry.visible_fraction"],
        "geometry.visible_fraction_s": total["geometry.visible_fraction"],
        "sensing.confirm_calls": calls["sensing.confirm"],
        "sensing.confirm_s": total["sensing.confirm"],
        "metrics.accuracy_s": total["metrics.accuracy"],
        "metrics.heatmap_calls": calls["metrics.heatmap_from_frames"],
        "metrics.heatmap_s": sum(total[name] for name in _HEATMAP),
        "harness.emit_s": total["harness.emit"],
        "harness.files_written": files,
        "harness.bytes_written": size,
        "harness.cells": len(cell_s),
        "harness.cell_s_p50": statistics.median(cell_s) if cell_s else 0.0,
        "harness.cell_s_max": max(cell_s, default=0.0),
        "harness.task_bytes": task_bytes,
        "placement.evaluate_s": total["placement.evaluate"],
        "placement.greedy_s": total["placement.greedy"],
        "placement.observe_passes": tr.counts["placement.observe_passes"],
        "placement.replays": tr.counts["placement.replays"],
        "placement.replay_unique_ratio": _ratio(
            len(tr.keys["placement.replay"]), tr.counts["placement.replays"]
        ),
    }
    shared = 0.0
    for share, names in SHARES.items():
        out[share] = sum(tr.self_time[name] for name in names) / run_s
        shared += out[share]
    out["share.other"] = 1.0 - shared
    for name in SELF_SPANS:
        out[f"{name}_self_s"] = tr.self_time[name]
    return out
