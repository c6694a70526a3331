"""Release gates for the whole pipeline, one test per gate.

Each test prints a single PASS line with the measured numbers once its
assertions hold, so a -s run reads as a checklist.  Tolerances are pinned
here and nowhere else; loosening one is a release decision, not a test fix.
"""

import hashlib
import itertools
import math
import random
import time
from dataclasses import replace
from pathlib import Path

import pytest
import yaml

from vrusim.aeb import AebPolicy, simulate_run
from vrusim.cli import main
from vrusim.config import load_config
from vrusim.geometry import Vec2
from vrusim.harness import emit_reports, run_sweep
from vrusim.ingest import ExternalDetection, GroundTruthRecord, match_detections
from vrusim.metrics import accuracy, heatmap_from_frames
from vrusim.placement import candidate_sites_from_units, greedy_select
from vrusim.scenario import (
    KMH,
    ActorTrack,
    ScenarioKind,
    ScenarioSpec,
    VruTrack,
    allowed_speeds_kmh,
    build_scenario,
)
from vrusim.sensing import (
    DetectionModel,
    default_layout,
    default_vut_sensor,
    first_confirmed_time,
    format_layout,
    vertical_aperture,
)

from oracles import heatmap_row, nominal_collision_check, pose_at, stopping_distance, totals
from sites import rsu

POLICY = AebPolicy()
GOLDEN = Path(__file__).parent / "golden"
GOLDEN_MANIFEST = GOLDEN / "default_sweep_manifest.txt"
GOLDEN_PLACEMENT = GOLDEN / "default_placement.txt"
GOLDEN_MATRIX = GOLDEN / "matrix_manifest.txt"
GOLDEN_MATRIX_PLACEMENT = GOLDEN / "matrix_placement.txt"

# the paths the default sweep leaves alone: rotated scenes, a 30 Hz frame
# split into 7 kinematics steps of 1/210 s, the miss coin and the traces
MATRIX_CONFIG = {
    "speeds_kmh": [25, 40, 55],
    "scene_yaw_deg": [0, 37],
    "scenario_overrides": {"frame_rate": 30},
    "detection": {"miss_probability": 0.2},
    "write_traces": True,
}


def all_cells():
    for kind in ScenarioKind:
        for speed in allowed_speeds_kmh(kind):
            yield kind, speed


# --------------------------------------------------------------- gate 1


def test_stopping_distance_matches_fine_euler():
    """Closed-form stop distance within 0.5% of a 1 ms Euler integration."""
    t0 = time.monotonic()
    worst = 0.0
    for kmh in range(20, 61, 5):
        v = kmh * KMH
        closed = stopping_distance(v, POLICY)

        dt = 0.001
        x, u, t = 0.0, v, 0.0
        while u > 0.0:
            x += u * dt
            if t >= POLICY.latency:
                u -= POLICY.deceleration * dt
            t += dt
        worst = max(worst, abs(closed - x) / x)
        assert abs(closed - x) / x <= 0.005, f"{kmh} km/h: {closed:.4f} vs {x:.4f}"
    elapsed = time.monotonic() - t0
    assert elapsed < 1.0
    print(f"PASS: stop distance within 0.5% of 1 ms Euler (worst {worst:.2e}, {elapsed:.2f}s)")


# --------------------------------------------------------------- gate 2


def test_every_cell_collides_without_sensing():
    """With sensing disabled, all 26 sweep cells collide on schedule."""
    t0 = time.monotonic()
    checked = 0
    for kind, speed in all_cells():
        spec = build_scenario(kind, speed)
        trace = simulate_run(spec, (), DetectionModel(), POLICY, sense=False)
        out = trace.outcome
        assert not out.avoided, f"{kind.display_name}@{speed:g} avoided without sensing"
        assert out.collision_time is not None
        reference = nominal_collision_check(spec)
        drift = abs(out.collision_time - reference)
        assert drift <= 1.0 / spec.frame_rate + 1e-9, (
            f"{kind.display_name}@{speed:g}: collision at {out.collision_time:.3f}, "
            f"reference frame {reference:.3f}"
        )
        checked += 1
    elapsed = time.monotonic() - t0
    assert checked == 26
    assert elapsed < 10.0
    print(f"PASS: {checked} unbraked cells collide within one frame of the reference scan ({elapsed:.2f}s)")


# --------------------------------------------------------------- gate 3


def vut_first_sight_distance(speed, model):
    spec = build_scenario(ScenarioKind.CBNA, speed)
    trace = simulate_run(spec, (default_vut_sensor(),), model, POLICY, sense=True)
    events = trace.events_by_sensor["vut"]
    assert events, f"vehicle camera never sees the cyclist at {speed:g} km/h"
    t = events[0].frame / spec.frame_rate
    pose = pose_at(spec.vru_track, spec.vru_track.speed * t)
    return math.hypot(pose.x, pose.y)


def test_wall_releases_cyclist_seventeen_meters_out():
    """The vehicle camera first sees the cyclist no farther than 17±0.5 m
    from the conflict point, at every speed."""
    geometric = DetectionModel(min_width_px=0.0, min_height_px=0.0)
    sized = DetectionModel()
    worst_geo, worst_any = 0.0, 0.0
    for speed in allowed_speeds_kmh(ScenarioKind.CBNA):
        # occlusion alone: first sight sits right at the wall edge
        d_geo = vut_first_sight_distance(speed, geometric)
        assert abs(d_geo - 17.0) <= 0.5, f"{speed:g} km/h: wall edge at {d_geo:.2f} m"
        # full gates can only delay first sight, never move it out again
        d_any = vut_first_sight_distance(speed, sized)
        assert d_any <= 17.5, f"{speed:g} km/h: first sight at {d_any:.2f} m"
        worst_geo = max(worst_geo, abs(d_geo - 17.0))
        worst_any = max(worst_any, d_any)
    print(
        "PASS: first sight of the occluded cyclist at <= 17±0.5 m "
        f"(wall-edge error {worst_geo:.2f} m, latest-gate max {worst_any:.2f} m)"
    )


# --------------------------------------------------------------- gate 4


def test_roadside_fusion_closes_the_avoidance_gap(tmp_path):
    """(a) vehicle-only handles the visible leading cyclist everywhere,
    (b) vehicle-only degrades with speed on the occluded crossing and fusion
    restores it, (c) a unit facing away from the approach contributes 0%."""
    config = load_config(subsets=("vut", "rsu1", "rsu8", "any"))
    result = run_sweep(config)
    by = {}
    for cell in result.cells:
        for sub in cell.subsets:
            by.setdefault((cell.kind, sub.name), []).append((cell.speed_kmh, sub.avoided))

    def rate(kind, name):
        flags = [a for _, a in sorted(by[(kind, name)])]
        return sum(flags) / len(flags), flags

    cbla_vut, _ = rate(ScenarioKind.CBLA, "vut")
    assert cbla_vut == 1.0, "vehicle-only must fully handle the unoccluded leading cyclist"

    cbna_vut, vut_flags = rate(ScenarioKind.CBNA, "vut")
    cbna_any, _ = rate(ScenarioKind.CBNA, "any")
    cbna_rsu1, _ = rate(ScenarioKind.CBNA, "rsu1")
    cbna_rsu8, _ = rate(ScenarioKind.CBNA, "rsu8")
    assert cbna_vut < cbna_any, "fusion must beat the occluded vehicle camera"
    assert cbna_rsu1 == 1.0, "the unobstructed corner unit alone must avoid everywhere"
    assert cbna_rsu8 == 0.0, "a unit facing away from the approach must not help"
    # once the vehicle camera fails at some speed it keeps failing above it
    assert all(not b or a for a, b in zip(vut_flags, vut_flags[1:])), vut_flags
    print(
        "PASS: avoidance vehicle-only CBLA 100%, CBNA "
        f"{100 * cbna_vut:.0f}% (non-increasing) < fused {100 * cbna_any:.0f}%, "
        "corner unit 100%, away-facing unit 0%"
    )


# --------------------------------------------------------------- gate 5


def test_adding_sensors_never_hurts():
    """On 100+ random nested subset pairs, the superset never confirms later
    and never loses a cell the subset had avoided."""
    cells = [
        (ScenarioKind.CPNC50, 30.0),
        (ScenarioKind.CPNC50, 50.0),
        (ScenarioKind.CBNA, 30.0),
        (ScenarioKind.CBNA, 45.0),
        (ScenarioKind.CBNA, 60.0),
        (ScenarioKind.CBLA, 40.0),
    ]
    config = load_config()
    units = config.all_units()
    ids = [u.sensor_id for u in units]
    observed = []
    for kind, speed in cells:
        spec = build_scenario(kind, speed)
        trace = simulate_run(spec, units, config.model, POLICY, sense=True)
        observed.append((spec, trace.events_by_sensor, {}))

    def outcome(entry, subset):
        spec, events, memo = entry
        fc = first_confirmed_time(events, POLICY.confirm_frames, subset)
        if fc not in memo:
            replay = simulate_run(
                spec, (), config.model, POLICY,
                trigger_override=fc, sense=False,
            )
            memo[fc] = replay.outcome.avoided
        return fc, memo[fc]

    rng = random.Random(20260816)
    pairs = 0
    for _ in range(120):
        entry = rng.choice(observed)
        sub = tuple(sorted(rng.sample(ids, rng.randint(1, 4))))
        extra = [s for s in ids if s not in sub]
        sup = tuple(sorted(sub + tuple(rng.sample(extra, rng.randint(1, 4)))))
        fc_sub, ok_sub = outcome(entry, sub)
        fc_sup, ok_sup = outcome(entry, sup)
        inf = float("inf")
        assert (fc_sup if fc_sup is not None else inf) <= (
            fc_sub if fc_sub is not None else inf
        ), (sub, sup)
        assert ok_sup >= ok_sub, (sub, sup)
        pairs += 1
    assert pairs >= 100
    print(f"PASS: {pairs} nested subset pairs, supersets never later and never worse")


# --------------------------------------------------------------- gate 6


def enumerated_matching(detections, truths, threshold):
    """Re-derive greedy box matching by repeated exhaustive argmax."""
    from vrusim.geometry import iou_axis_box

    cells = sorted({(d.frame, d.sensor_id) for d in detections}
                   | {(g.frame, g.sensor_id) for g in truths})
    counts = {}
    for cell in cells:
        dets = [(i, d) for i, d in enumerate(detections)
                if (d.frame, d.sensor_id) == cell]
        gts = [(j, g) for j, g in enumerate(truths)
               if (g.frame, g.sensor_id) == cell]
        used_d, used_g, tp = set(), set(), 0
        while True:
            best = None
            for i, d in dets:
                for j, g in gts:
                    if i in used_d or j in used_g or d.label != g.label:
                        continue
                    v = iou_axis_box(d.box, g.box)
                    if v <= threshold:
                        continue
                    key = (-v, i, j)
                    if best is None or key < best[0]:
                        best = (key, i, j)
            if best is None:
                break
            used_d.add(best[1])
            used_g.add(best[2])
            tp += 1
        counts[cell] = (tp, len(dets) - tp, len(gts) - tp)
    return counts


def test_box_matching_agrees_with_exhaustive_enumeration():
    """Greedy matcher equals per-step exhaustive enumeration on small cells,
    and the count identities hold."""
    from vrusim.geometry import AxisBox2

    rng = random.Random(99)
    labels = ("pedestrian", "cyclist", "car")

    def box():
        x, y = rng.randint(0, 6), rng.randint(0, 6)
        return AxisBox2(x, y, x + rng.randint(1, 5), y + rng.randint(1, 5))

    trials = 0
    for _ in range(150):
        dets, gts = [], []
        for frame in range(rng.randint(1, 3)):
            for sensor in ("cam_a", "cam_b"):
                for _ in range(rng.randint(0, 4)):
                    dets.append(ExternalDetection(
                        frame, sensor, rng.choice(labels), box(), rng.random()))
                for t_idx in range(rng.randint(0, 3)):
                    gts.append(GroundTruthRecord(
                        frame, sensor, f"t{t_idx}", rng.choice(labels), box()))
        threshold = rng.choice((0.3, 0.5))
        result = match_detections(dets, gts, iou_threshold=threshold, frame_rate=10.0, latency=0.025)
        want = enumerated_matching(dets, gts, threshold)
        got = {cell: (c.tp, c.fp, c.fn) for cell, c in result.counts.items()}
        assert got == want
        total = totals(result)
        assert total.tp + total.fp == len(dets)
        assert total.tp + total.fn == len(gts)
        trials += 1
    print(f"PASS: matcher equals exhaustive enumeration on {trials} random logs")


# --------------------------------------------------------------- gate 7


def golden_entries(path):
    """(path, sha256) pairs from committed digest lines, in file order."""
    entries = []
    for line in path.read_text(encoding="utf-8").splitlines():
        digest, rel = line.split("  ", 1)
        entries.append((rel, digest))
    return tuple(entries)


def test_full_default_sweep_is_reproducible(tmp_path):
    """Two complete default sweeps with different worker counts write
    byte-identical reports, equal to the committed golden digests, in under
    five minutes."""
    t0 = time.monotonic()
    config = load_config()
    first = emit_reports(run_sweep(config, workers=2), str(tmp_path / "a"))
    second = emit_reports(run_sweep(config, workers=4), str(tmp_path / "b"))
    elapsed = time.monotonic() - t0

    assert first.complete and second.complete
    assert first.entries == second.entries
    assert first.entries == golden_entries(GOLDEN_MANIFEST)
    bytes_a = (tmp_path / "a" / "manifest.txt").read_bytes()
    bytes_b = (tmp_path / "b" / "manifest.txt").read_bytes()
    assert bytes_a == bytes_b
    assert len(first.entries) >= 26 * 14 * 2  # heatmap pair per cell and subset
    assert elapsed < 300.0
    print(
        f"PASS: two full sweeps ({len(first.entries)} files) byte-identical "
        f"across worker counts and to the golden digests in {elapsed:.0f}s"
    )


def manifest_lines(out):
    return (out / "manifest.txt").read_text(encoding="utf-8").splitlines()


def placement_entries(tmp_path, layout_text, argv):
    """(path, sha256) of both reports `vrusim placement` writes with
    `layout_text` as its candidates, as its manifest lists them. Each digest
    must be its file's own, and the header a sweep's over the same config."""
    candidates = tmp_path / "candidates.txt"
    candidates.write_text(layout_text, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["placement", "--candidates", str(candidates), "--out", str(out), "-q", *argv]) == 0
    lines = manifest_lines(out)
    entries = tuple((rel, digest) for digest, rel in (line.split("  ", 1) for line in lines[4:]))
    assert [rel for rel, _ in entries] == ["placement.csv", "selected_layout.txt"]
    for rel, digest in entries:
        assert hashlib.sha256((out / rel).read_bytes()).hexdigest() == digest
    config_argv = argv[:2] if argv[0] == "--config" else []
    assert main(["sweep", *config_argv, "--out", str(tmp_path / "sweep"), "-q"]) == 0
    assert lines[:4] == manifest_lines(tmp_path / "sweep")[:3] + ["files 2"]
    return entries


def test_default_placement_is_reproducible(tmp_path):
    """`vrusim placement` over the default suite, with the built-in roadside
    units as candidates and a budget of 3, writes reports equal to the
    committed golden digests."""
    written = placement_entries(tmp_path, format_layout(default_layout()), ["--budget", "3"])
    assert written == golden_entries(GOLDEN_PLACEMENT)
    print("PASS: default-suite placement reports equal the golden digests")


def matrix_config_file(tmp_path):
    path = tmp_path / "matrix.yaml"
    path.write_text(yaml.safe_dump(MATRIX_CONFIG), encoding="utf-8")
    return str(path)


def test_matrix_sweep_is_reproducible(tmp_path):
    """The matrix sweep writes the same reports at 1 and 2 workers, equal to
    the committed golden digests."""
    config = load_config(matrix_config_file(tmp_path))
    first = emit_reports(run_sweep(config, workers=1), str(tmp_path / "a"))
    second = emit_reports(run_sweep(config, workers=2), str(tmp_path / "b"))
    assert first.complete and second.complete
    assert first.entries == second.entries == golden_entries(GOLDEN_MATRIX)
    assert sum(rel.startswith("traces/") for rel, _ in first.entries) == 18
    print(f"PASS: matrix sweep ({len(first.entries)} files) equals the golden digests at 1 and 2 workers")


def test_matrix_placement_is_reproducible(tmp_path):
    """`vrusim placement` over the matrix suite, with the built-in roadside
    units as candidates and rsu5 narrowed to a 30 degree camera, and a budget
    of 2, writes reports equal to the committed golden digests."""
    narrow = math.radians(30.0)
    vfov = vertical_aperture(narrow, DetectionModel.image_width_px, 1080.0)
    units = tuple(
        replace(u, hfov=narrow, vfov=vfov) if u.sensor_id == "rsu5" else u for u in default_layout()
    )
    argv = ["--config", matrix_config_file(tmp_path), "--budget", "2"]
    written = placement_entries(tmp_path, format_layout(units, 30.0), argv)
    assert written == golden_entries(GOLDEN_MATRIX_PLACEMENT)
    print("PASS: matrix-suite placement reports equal the golden digests")


# --------------------------------------------------------------- gate 8


def lane_cell(lane_y):
    vut = ActorTrack(
        4.5, 1.8, 10.0,
        (Vec2(-60.0, lane_y), Vec2(200.0, lane_y)),
    )
    ped = VruTrack(
        0.5, 0.5, 0.0,
        (Vec2(0.0, lane_y), Vec2(0.0, lane_y + 1.0)),
        height=1.8,
    )
    return ScenarioSpec(
        kind=ScenarioKind.CPNC50, vut_track=vut, vru_track=ped, occluders=(),
        sim_duration=8.0,
        frame_rate=10.0,
    )


def test_greedy_placement_matches_exhaustive_search():
    """Greedy site selection equals exhaustive search for budgets 1..3 on a
    four-candidate pool, with non-negative marginal gains."""
    suite = tuple(lane_cell(y) for y in (0.0, 60.0, 120.0))
    watcher = dict(z=5.0, yaw=math.pi / 2, pitch=math.radians(-15.0), max_range=40.0)
    sites = candidate_sites_from_units((
        rsu("s0", 0.0, -15.0, **watcher),
        rsu("s1", 0.0, 45.0, **watcher),
        rsu("s2", 0.0, 105.0, **watcher),
        # wide unit between the first two lanes; x offset keeps both lanes
        # inside the 359 degree aperture
        rsu(
            "s3", 2.0, 30.0, z=5.0, yaw=math.pi / 2, pitch=math.radians(-15.0),
            hfov=math.radians(359.0), max_range=80.0,
        ),
    ))
    model = DetectionModel(min_width_px=0.0, min_height_px=0.0)

    def performance(site_subset):
        avoided, accs = 0, []
        for spec in suite:
            units = tuple(s.to_unit() for s in site_subset)
            trace = simulate_run(spec, units, model, POLICY, sense=True)
            fc = first_confirmed_time(
                trace.events_by_sensor, POLICY.confirm_frames,
                tuple(u.sensor_id for u in units),
            )
            replay = simulate_run(
                spec, (), model, POLICY, trigger_override=fc, sense=False,
            )
            avoided += replay.outcome.avoided
            accs.append(accuracy(trace.events_by_sensor, spec.n_frames, tuple(trace.events_by_sensor)))
        return avoided / len(suite), sum(accs) / len(accs)

    for budget in (1, 2, 3):
        picked = greedy_select(sites, budget, suite, POLICY, model)
        assert len(picked.selected_site_ids) == budget
        assert all(g >= 0.0 for g in picked.marginal_gains)
        best = max(
            (performance(combo) for combo in itertools.combinations(sites, budget)),
        )
        got = (picked.avoidance_rate, picked.accuracy)
        assert got == pytest.approx(best, abs=1e-12), f"budget {budget}"
    print("PASS: greedy placement equals exhaustive search for budgets 1..3")


# --------------------------------------------------------------- gate 9


def test_heatmap_matches_hand_grid():
    """A hand-built three-sensor detection history renders to exactly the
    hand-derived grid, with the deadline column at floor(t_deadline * rate)."""
    frames = {
        "rsu2": tuple(range(4, 12)),
        "vut": (0, 1, 2, 15, 16, 17, 18, 19),
        "rsu10": (7,),
    }
    grid = heatmap_from_frames(frames, 20, 10.0, 1.23)

    assert grid.sensor_ids == ("vut", "rsu2", "rsu10")  # vehicle first, then natural
    assert grid.deadline_col == 12  # floor(1.23 * 10)
    want = [
        [1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1],
        [0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ]
    for sensor_id, row in zip(grid.sensor_ids, want):
        assert list(heatmap_row(grid, sensor_id)) == row

    csv = grid.to_csv().splitlines()
    assert csv[0].startswith("sensor,0.0,0.1,")
    assert csv[1] == "vut," + ",".join(map(str, want[0]))

    ppm = grid.to_ppm()
    magic, dims, _depth, pixels = ppm.split(b"\n", 3)
    assert magic == b"P6"
    assert dims == b"40 6"  # two by two pixels a cell

    def pixel(row, col):
        offset = 3 * (2 * row * 40 + 2 * col)
        return pixels[offset : offset + 3]

    for row in range(3):
        assert pixel(row, 12) == b"\xcc\x22\x22", "deadline column must be red"
    assert pixel(0, 0) == b"\x22\xaa\x44"  # detected
    assert pixel(1, 0) == b"\xff\xff\xff"  # missed
    print("PASS: hand-built heatmap grid reproduced exactly, deadline column at 12")
