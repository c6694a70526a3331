"""Metric aggregation tests, checked against brute-force recounts."""

import math
import random

import pytest

from vrusim.aeb import AebPolicy, last_possible_brake_time, simulate_run
from vrusim.metrics import (
    HeatmapMatrix,
    accuracy,
    heatmap_from_frames,
    mean_detections_per_frame,
    sensor_row_order,
)
from vrusim.scenario import ScenarioKind, build_scenario
from vrusim.sensing import DetectionEvent, DetectionModel, default_layout, default_vut_sensor, first_confirmed_time

from oracles import heatmap_row

POLICY = AebPolicy()
MODEL = DetectionModel()


def ev(frame: int) -> DetectionEvent:
    return DetectionEvent(frame, frame / 10.0 + 0.025)


def random_streams(rng: random.Random, sensors, n_frames):
    return {
        s: [ev(f) for f in range(n_frames) if rng.random() < rng.choice((0.1, 0.5, 0.9))]
        for s in sensors
    }


# ------------------------------------------------------------------ accuracy


def test_accuracy_basic_ratios():
    assert accuracy({"a": []}, 100, ("a",)) == 0.0
    full = {"a": [ev(f) for f in range(50)]}
    assert accuracy(full, 50, ("a",)) == 1.0
    partial = {"a": [ev(f) for f in range(892)]}
    assert accuracy(partial, 1000, ("a",)) == pytest.approx(0.892)


def test_accuracy_counts_a_frame_once_across_sensors():
    events = {"a": [ev(3)], "b": [ev(3), ev(4)]}
    assert accuracy(events, 10, ("a", "b")) == pytest.approx(0.2)


def test_accuracy_rejects_empty_window_and_unknown_sensor():
    with pytest.raises(ValueError):
        accuracy({"a": []}, 0, ("a",))
    with pytest.raises(ValueError, match="ghost"):
        accuracy({"a": []}, 10, ("ghost",))


def test_every_subset_reader_rejects_an_unknown_sensor_alike():
    # one selector names the stream a subset lacks, for the trigger and
    # both frame metrics
    events = {"a": [ev(0), ev(1), ev(2)], "b": []}
    readers = (
        lambda subset: first_confirmed_time(events, 3, subset),
        lambda subset: accuracy(events, 10, subset),
        lambda subset: mean_detections_per_frame(events, 10, subset),
    )
    for read in readers:
        with pytest.raises(ValueError) as caught:
            read(("a", "ghost", "b"))
        assert str(caught.value) == "unknown sensor id 'ghost'"


def test_accuracy_superset_never_lower():
    rng = random.Random(7)
    sensors = ["vut", "rsu1", "rsu2", "rsu3"]
    for _ in range(200):
        events = random_streams(rng, sensors, 40)
        k = rng.randint(1, 3)
        sub = rng.sample(sensors, k)
        sup = sub + [s for s in sensors if s not in sub][: rng.randint(0, 4 - k)]
        assert accuracy(events, 40, sup) >= accuracy(events, 40, sub) - 1e-12


# ------------------------------------------------------------- redundancy


def test_mean_detections_examples():
    assert mean_detections_per_frame({"a": []}, 25, ("a",)) == 0.0
    sensors = {f"rsu{i}": [ev(f) for f in range(30)] for i in range(12)}
    assert mean_detections_per_frame(sensors, 30, tuple(sensors)) == pytest.approx(12.0)


def test_mean_detections_matches_recount_and_bound():
    rng = random.Random(11)
    sensors = ["vut"] + [f"rsu{i}" for i in range(5)]
    for _ in range(100):
        events = random_streams(rng, sensors, 33)
        got = mean_detections_per_frame(events, 33, tuple(sensors))
        want = sum(len(v) for v in events.values()) / 33
        assert got == pytest.approx(want, abs=1e-12)
        assert 0.0 <= got <= len(sensors)


# ---------------------------------------------------------------- heatmaps


def test_sensor_row_order_is_vut_then_natural():
    got = sensor_row_order(["rsu10", "rsu2", "vut", "rsu1"])
    assert got == ("vut", "rsu1", "rsu2", "rsu10")


def heatmap_of(events_by_sensor, n_frames, lpbt, frame_rate=10.0):
    """The heatmap of detection streams, built as the sweep builds it."""
    frames = {sensor_id: [e.frame for e in evs] for sensor_id, evs in events_by_sensor.items()}
    return heatmap_from_frames(frames, n_frames, frame_rate, lpbt)


def test_heatmap_matches_hand_matrix():
    events = {
        "vut": [ev(2), ev(3)],
        "rsu1": [ev(0), ev(4)],
        "rsu2": [],
    }
    hm = heatmap_of(events, 5, lpbt=0.31)
    assert hm.sensor_ids == ("vut", "rsu1", "rsu2")
    assert hm.cells == (
        (False, False, True, True, False),
        (True, False, False, False, True),
        (False, False, False, False, False),
    )
    assert hm.deadline_col == 3
    assert heatmap_row(hm, "rsu1") == hm.cells[1]


def test_heatmap_deadline_lands_on_its_frame_at_25_hz():
    # 251 / 25 * 25 is 250.99999999999997: a plain floor put the column
    # one frame early, while summary.csv reports frame 251's time
    hm = heatmap_of({"vut": []}, 300, lpbt=251 / 25.0, frame_rate=25.0)
    assert hm.deadline_col == 251
    # off the grid the column still floors
    assert heatmap_of({"vut": []}, 300, lpbt=10.05, frame_rate=25.0).deadline_col == 251


def test_heatmap_from_real_run_recounts_and_spans_duration():
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    sensors = (default_vut_sensor(), *default_layout())
    lpbt = last_possible_brake_time(spec, POLICY)
    trace = simulate_run(spec, sensors, MODEL, POLICY)
    hm = heatmap_of(trace.events_by_sensor, spec.n_frames, lpbt, spec.frame_rate)
    assert len(hm.sensor_ids) == 13
    assert hm.sensor_ids[0] == "vut"
    for sensor_id in hm.sensor_ids:
        assert sum(heatmap_row(hm, sensor_id)) == len(trace.events_by_sensor[sensor_id])
    # columns cover the configured duration to within one frame
    assert abs(hm.n_frames / spec.frame_rate - spec.sim_duration) <= 1.0 / spec.frame_rate
    assert hm.deadline_col == math.floor(lpbt * spec.frame_rate)


def test_heatmap_all_false_without_sensing():
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    sensors = (default_vut_sensor(),)
    trace = simulate_run(spec, sensors, MODEL, POLICY, sense=False)
    hm = heatmap_of(trace.events_by_sensor, spec.n_frames, None, spec.frame_rate)
    assert not any(any(row) for row in hm.cells)


def test_heatmap_csv_roundtrip():
    events = {"vut": [ev(1)], "rsu3": [ev(0), ev(2)]}
    hm = heatmap_of(events, 3, lpbt=None)
    lines = hm.to_csv().strip().split("\n")
    assert lines[0] == "sensor,0.0,0.1,0.2"
    assert lines[1] == "vut,0,1,0"
    assert lines[2] == "rsu3,1,0,1"
    assert hm.deadline_col is None


@pytest.mark.parametrize(
    "frame_rate, labels",
    [
        (10.0, "0.0,0.1,0.2,0.3,0.4,0.5"),
        (20.0, "0.00,0.05,0.10,0.15,0.20,0.25"),
        (25.0, "0.00,0.04,0.08,0.12,0.16,0.20"),
        (3.0, "0.000000,0.333333,0.666667,1.000000,1.333333,1.666667"),
    ],
    ids=["10hz", "20hz", "25hz", "3hz"],
)
def test_heatmap_csv_labels_every_frame_apart(frame_rate, labels):
    # one decimal printed 25 Hz frames as 0.0,0.0,0.1,0.1,0.2
    hm = heatmap_of({"vut": []}, 6, lpbt=None, frame_rate=frame_rate)
    assert hm.to_csv().split("\n")[0] == "sensor," + labels


def test_heatmap_ppm_pixels():
    events = {"vut": [ev(0)], "rsu1": []}
    hm = heatmap_of(events, 3, lpbt=0.21)
    data = hm.to_ppm()
    header, rest = data.split(b"\n", 1)
    assert header == b"P6"
    dims, rest = rest.split(b"\n", 1)
    assert dims == b"6 4"
    _, pixels = rest.split(b"\n", 1)
    assert len(pixels) == 6 * 4 * 3
    # every other pixel of every other row: one per cell
    px = [pixels[i : i + 3] for i in range(0, len(pixels), 3)][0::2]
    px = px[0:3] + px[6:9]
    assert px[0] == b"\x22\xaa\x44"    # vut saw frame 0
    assert px[1] == b"\xff\xff\xff"    # nothing at frame 1
    assert px[2] == b"\xcc\x22\x22"    # deadline column
    assert px[3] == b"\xff\xff\xff"    # rsu1 saw nothing
    assert px[5] == b"\xcc\x22\x22"


def test_heatmap_ppm_draws_each_cell_two_pixels_square():
    events = {"vut": [ev(0), ev(3)], "rsu1": [ev(1)]}
    hm = heatmap_of(events, 4, lpbt=0.2)
    colour = {True: b"\x22\xaa\x44", False: b"\xff\xff\xff"}
    rows = [
        b"".join(b"\xcc\x22\x22" if col == 2 else colour[val] for col, val in enumerate(row))
        for row in hm.cells
    ]
    doubled = b"".join(b"".join(row[i : i + 3] * 2 for i in range(0, len(row), 3)) * 2 for row in rows)
    assert hm.to_ppm() == b"P6\n8 4\n255\n" + doubled


def test_heatmap_shape_validation():
    with pytest.raises(ValueError):
        HeatmapMatrix(("a", "b"), ((True,),), 10.0, None)
    with pytest.raises(ValueError):
        HeatmapMatrix(("a", "b"), ((True,), (True, False)), 10.0, None)
