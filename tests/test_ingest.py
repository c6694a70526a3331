"""External log parsing and IoU matching tests.

The matching oracle below re-derives the greedy rule by full enumeration:
at every step it scans every remaining (detection, ground-truth) pair and
takes the best one, instead of the production sort-and-scan.
"""

import math
import random

import pytest

from vrusim.geometry import AxisBox2, iou_axis_box
from vrusim.ingest import (
    DETECTION_LOG_HEADER,
    GROUND_TRUTH_HEADER,
    ExternalDetection,
    GroundTruthRecord,
    MatchCounts,
    match_detections,
    parse_detection_log,
    parse_ground_truth,
)
from vrusim.aeb import AebPolicy, simulate_run
from vrusim.scenario import ScenarioKind, build_scenario
from vrusim.sensing import DetectionModel, confirm_stream, default_layout, default_vut_sensor, first_confirmed_time

from oracles import totals


def det(frame, sensor, label, x0, y0, x1, y1, conf=0.9):
    return ExternalDetection(frame, sensor, label, AxisBox2(x0, y0, x1, y1), conf)


def gt(frame, sensor, target, label, x0, y0, x1, y1):
    return GroundTruthRecord(frame, sensor, target, label, AxisBox2(x0, y0, x1, y1))


def greedy_oracle(dets, gts, thr=0.5):
    """Step-by-step re-derivation: best remaining pair by exhaustive scan."""
    cells = sorted(
        {(d.frame, d.sensor_id) for d in dets} | {(g.frame, g.sensor_id) for g in gts}
    )
    out = []
    for frame, sid in cells:
        di = [i for i, d in enumerate(dets) if (d.frame, d.sensor_id) == (frame, sid)]
        gi = [j for j, g in enumerate(gts) if (g.frame, g.sensor_id) == (frame, sid)]
        remaining = {(i, j) for i in di for j in gi}
        while True:
            best = None
            for i, j in remaining:
                if dets[i].label != gts[j].label:
                    continue
                v = iou_axis_box(dets[i].box, gts[j].box)
                if v <= thr:
                    continue
                key = (-v, i, j)
                if best is None or key < best:
                    best = key
            if best is None:
                break
            _, bi, bj = best
            out.append((frame, sid, bi, bj, -best[0]))
            remaining = {(i, j) for i, j in remaining if i != bi and j != bj}
    return out


# ------------------------------------------------------------------ parsing


def test_parse_detection_log_roundtrip(tmp_path):
    p = tmp_path / "dets.csv"
    p.write_text(
        "# detector output\n"
        f"{DETECTION_LOG_HEADER}\n"
        "0,cam0,pedestrian,10,20,40,90,0.91\n"
        "\n"
        "1,cam0,pedestrian,12,21,42,91,0.88\n"
        "1,cam1,car,100,50,300,170,0.75\n"
    )
    records = parse_detection_log(p)
    assert len(records) == 3
    assert records[0] == det(0, "cam0", "pedestrian", 10, 20, 40, 90, 0.91)
    assert records[2].label == "car"


def test_parse_empty_and_header_only_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert parse_detection_log(empty) == []
    bare = tmp_path / "bare.csv"
    bare.write_text(DETECTION_LOG_HEADER + "\n")
    assert parse_detection_log(bare) == []


def test_parse_errors_name_the_line(tmp_path):
    bad_extent = tmp_path / "a.csv"
    bad_extent.write_text(f"{DETECTION_LOG_HEADER}\n0,cam0,pedestrian,50,20,40,90,0.9\n")
    with pytest.raises(ValueError, match="line 2.*negative"):
        parse_detection_log(bad_extent)

    bad_conf = tmp_path / "b.csv"
    bad_conf.write_text(f"{DETECTION_LOG_HEADER}\n\n0,cam0,pedestrian,10,20,40,90,1.5\n")
    with pytest.raises(ValueError, match="line 3"):
        parse_detection_log(bad_conf)

    bad_header = tmp_path / "c.csv"
    bad_header.write_text("frame,sensor\n")
    with pytest.raises(ValueError, match="header"):
        parse_detection_log(bad_header)

    short_row = tmp_path / "d.csv"
    short_row.write_text(f"{DETECTION_LOG_HEADER}\n0,cam0,pedestrian,10,20,40,90\n")
    with pytest.raises(ValueError, match="8.*fields"):
        parse_detection_log(short_row)


@pytest.mark.parametrize(
    "parse, kind, header, row",
    [
        (parse_detection_log, "detection log", DETECTION_LOG_HEADER, b"0,cam\xff,pedestrian,10,20,40,90,0.9\n"),
        (parse_ground_truth, "ground truth", GROUND_TRUTH_HEADER, b"0,cam0,vru,pedestri\xffn,10,20,40,90\n"),
    ],
    ids=["detection-log", "ground-truth"],
)
def test_a_log_that_is_not_utf8_names_its_kind_and_byte(tmp_path, parse, kind, header, row):
    path = tmp_path / "log.csv"
    head = f"{header}\n".encode()
    path.write_bytes(head + row)
    offset = len(head) + row.index(b"\xff")
    with pytest.raises(ValueError) as err:
        parse(path)
    assert str(err.value) == f"{kind}: byte {offset} is not UTF-8 (invalid start byte)"


@pytest.mark.parametrize(
    "parse, kind, header, row",
    [
        (parse_detection_log, "detection log", DETECTION_LOG_HEADER, "0,cam0,pedestrian,10,20,40,90,0.9"),
        (parse_ground_truth, "ground truth", GROUND_TRUTH_HEADER, "0,cam0,vru,pedestrian,10,20,40,90"),
    ],
    ids=["detection-log", "ground-truth"],
)
@pytest.mark.parametrize(
    "fault, message",
    [
        ("seven-fields", "expected 8 comma-separated fields, got 7"),
        ("frame", "frame must be an integer"),
        ("corner", "box coordinates must be numbers"),
    ],
)
def test_both_logs_check_a_row_alike(tmp_path, parse, kind, header, row, fault, message):
    fields = row.split(",")
    if fault == "seven-fields":
        del fields[-1]
    elif fault == "frame":
        fields[0] = "1.5"
    else:
        fields[-2] = "wide"  # a y corner in either layout
    path = tmp_path / "log.csv"
    path.write_text(f"{header}\n{row}\n" + ",".join(fields) + "\n")
    with pytest.raises(ValueError) as err:
        parse(path)
    assert str(err.value) == f"{kind} line 3: {message}"


def test_parse_ground_truth(tmp_path):
    p = tmp_path / "gt.csv"
    p.write_text(
        f"{GROUND_TRUTH_HEADER}\n"
        "0,cam0,vru,pedestrian,10,20,40,90\n"
        "0,cam0,parked2,car,200,40,380,160\n"
    )
    records = parse_ground_truth(p)
    assert len(records) == 2
    assert records[0].target_id == "vru"
    with pytest.raises(ValueError, match="frame"):
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{GROUND_TRUTH_HEADER}\nx,cam0,vru,pedestrian,10,20,40,90\n")
        parse_ground_truth(bad)


def test_record_validation():
    with pytest.raises(ValueError):
        det(-1, "cam0", "pedestrian", 0, 0, 1, 1)
    with pytest.raises(ValueError):
        det(0, "", "pedestrian", 0, 0, 1, 1)
    with pytest.raises(ValueError):
        det(0, "cam0", "pedestrian", 0, 0, 1, 1, conf=1.2)
    with pytest.raises(ValueError):
        gt(0, "cam0", "", "pedestrian", 0, 0, 1, 1)


# ----------------------------------------------------------------- matching


def match(dets, gts, **options):
    """`match_detections` for 10 Hz frames and a 25 ms sensor latency."""
    return match_detections(dets, gts, frame_rate=10.0, latency=0.025, **options)


def test_identical_box_is_tp():
    res = match(
        [det(0, "cam0", "pedestrian", 10, 20, 40, 90)],
        [gt(0, "cam0", "vru", "pedestrian", 10, 20, 40, 90)],
    )
    assert totals(res) == (res.counts[(0, "cam0")])
    assert totals(res).tp == 1 and totals(res).fp == 0 and totals(res).fn == 0
    assert res.pairs[0].iou == pytest.approx(1.0)


def test_low_iou_is_fp_plus_fn():
    # shifted box: IoU well below 0.5
    res = match(
        [det(0, "cam0", "pedestrian", 0, 0, 10, 10)],
        [gt(0, "cam0", "vru", "pedestrian", 8, 8, 18, 18)],
    )
    assert totals(res) == res.counts[(0, "cam0")]
    assert (totals(res).tp, totals(res).fp, totals(res).fn) == (0, 1, 1)
    assert res.events == {}


def test_double_detection_one_tp_one_fp():
    res = match(
        [
            det(0, "cam0", "pedestrian", 10, 20, 40, 90),
            det(0, "cam0", "pedestrian", 11, 20, 41, 90),
        ],
        [gt(0, "cam0", "vru", "pedestrian", 10, 20, 40, 90)],
    )
    assert (totals(res).tp, totals(res).fp, totals(res).fn) == (1, 1, 0)
    assert res.pairs[0].detection_index == 0


def test_label_mismatch_never_matches():
    res = match(
        [det(0, "cam0", "car", 10, 20, 40, 90)],
        [gt(0, "cam0", "vru", "pedestrian", 10, 20, 40, 90)],
    )
    assert (totals(res).tp, totals(res).fp, totals(res).fn) == (0, 1, 1)


def test_threshold_is_strict_with_inclusive_option():
    # intersection 1, union 2: IoU exactly 0.5
    d = [det(0, "cam0", "pedestrian", 0, 0, 2, 1)]
    g = [gt(0, "cam0", "vru", "pedestrian", 0, 0, 1, 1)]
    assert totals(match(d, g)).tp == 0


def test_cells_without_counterpart():
    res = match(
        [det(0, "cam0", "pedestrian", 0, 0, 1, 1)],
        [gt(1, "cam0", "vru", "pedestrian", 0, 0, 1, 1)],
    )
    assert res.counts[(0, "cam0")] == MatchCounts(0, 1, 0)
    assert res.counts[(1, "cam0")] == MatchCounts(0, 0, 1)


def random_fixture(rng):
    labels = ("pedestrian", "cyclist", "car")
    sensors = ("cam0", "cam1")

    def rand_box():
        x0 = rng.randint(0, 12)
        y0 = rng.randint(0, 12)
        return (x0, y0, x0 + rng.randint(1, 10), y0 + rng.randint(1, 10))

    dets, gts = [], []
    for frame in range(rng.randint(1, 3)):
        for sensor in sensors:
            for _ in range(rng.randint(0, 4)):
                dets.append(det(frame, sensor, rng.choice(labels), *rand_box()))
            for t in range(rng.randint(0, 3)):
                gts.append(gt(frame, sensor, f"t{t}", rng.choice(labels), *rand_box()))
    return dets, gts


def test_matches_full_enumeration_oracle():
    rng = random.Random(29)
    for _ in range(300):
        dets, gts = random_fixture(rng)
        thr = rng.choice((0.2, 0.5, 0.7))
        res = match(dets, gts, iou_threshold=thr)
        got = [
            (p.frame, p.sensor_id, p.detection_index, p.ground_truth_index, p.iou)
            for p in res.pairs
        ]
        assert got == greedy_oracle(dets, gts, thr)


def test_counting_identities_hold():
    rng = random.Random(31)
    for _ in range(200):
        dets, gts = random_fixture(rng)
        res = match(dets, gts)
        for (frame, sensor), counts in res.counts.items():
            n_det = sum(1 for d in dets if (d.frame, d.sensor_id) == (frame, sensor))
            n_gt = sum(1 for g in gts if (g.frame, g.sensor_id) == (frame, sensor))
            assert counts.tp + counts.fp == n_det
            assert counts.tp + counts.fn == n_gt
        # every input row is covered by exactly one cell
        assert sum(c.tp + c.fp for c in res.counts.values()) == len(dets)
        assert sum(c.tp + c.fn for c in res.counts.values()) == len(gts)


def test_raising_threshold_never_increases_tp():
    rng = random.Random(37)
    for _ in range(60):
        dets, gts = random_fixture(rng)
        tps = [
            totals(match(dets, gts, iou_threshold=t)).tp
            for t in (0.1, 0.3, 0.5, 0.7, 0.9)
        ]
        assert tps == sorted(tps, reverse=True)


def test_input_order_does_not_change_scores():
    rng = random.Random(41)
    matched = 0
    for _ in range(50):
        dets, gts = random_fixture(rng)
        shuffled_d, shuffled_g = dets[:], gts[:]
        rng.shuffle(shuffled_d)
        rng.shuffle(shuffled_g)
        # these fixtures match no pair above 0.5; at 0.2 some VRU pairs
        # match, so the event streams are compared too
        for thr in (0.5, 0.2):
            base = match(dets, gts, iou_threshold=thr)
            other = match(shuffled_d, shuffled_g, iou_threshold=thr)
            assert base.counts == other.counts
            assert sorted(round(p.iou, 12) for p in base.pairs) == sorted(
                round(p.iou, 12) for p in other.pairs
            )
            assert base.events == other.events
            matched += sum(len(stream) for streams in base.events.values() for stream in streams.values())
    assert matched > 0


# ------------------------------------------------------------ event stream


def test_tp_events_feed_the_confirmation_rule():
    dets = [det(f, "cam0", "cyclist", 10 + f, 20, 40 + f, 90) for f in range(5)]
    gts = [gt(f, "cam0", "vru", "cyclist", 10 + f, 20, 40 + f, 90) for f in range(5)]
    # a scored car in the same frames never reaches the safety stream
    dets.append(det(2, "cam0", "car", 200, 10, 260, 60))
    gts.append(gt(2, "cam0", "bg7", "car", 200, 10, 260, 60))

    res = match(dets, gts)
    assert totals(res).tp == 6
    assert list(res.events) == ["vru"]
    streams = res.events["vru"]
    assert [ev.frame for ev in streams["cam0"]] == [0, 1, 2, 3, 4]
    assert streams["cam0"][0].available_at == pytest.approx(0.025)
    # an event is available its latency after its frame, at the given rate
    later = match_detections(dets, gts, frame_rate=20.0, latency=0.1).events["vru"]["cam0"]
    assert [ev.available_at for ev in later] == pytest.approx([f / 20 + 0.1 for f in range(5)])

    confirmations = confirm_stream(streams["cam0"], 3)
    assert confirmations[0] == pytest.approx(2 / 10 + 0.025)
    assert first_confirmed_time(streams, 3, ("cam0",)) == confirmations[0]


def test_gap_in_tp_frames_delays_confirmation():
    frames = [0, 1, 3, 4, 5]
    dets = [det(f, "cam0", "pedestrian", 0, 0, 10, 10) for f in frames]
    gts = [gt(f, "cam0", "vru", "pedestrian", 0, 0, 10, 10) for f in frames]
    streams = match(dets, gts).events["vru"]
    assert confirm_stream(streams["cam0"], 3)[0] == pytest.approx(5 / 10 + 0.025)


def test_streams_are_per_target_and_sensor_in_frame_order():
    # rows in any order; each target's streams come out frame by frame
    rows = [(f, sensor, target) for f in (4, 0, 2, 1, 3) for sensor in ("cam1", "cam0") for target in ("p2", "p1")]
    dets = [det(f, sensor, "pedestrian", 20 * int(t[1]), 0, 20 * int(t[1]) + 10, 10) for f, sensor, t in rows]
    gts = [gt(f, sensor, t, "pedestrian", 20 * int(t[1]), 0, 20 * int(t[1]) + 10, 10) for f, sensor, t in rows]
    events = match(dets, gts).events
    assert sorted(events) == ["p1", "p2"]
    for streams in events.values():
        assert sorted(streams) == ["cam0", "cam1"]
        for stream in streams.values():
            assert [ev.frame for ev in stream] == [0, 1, 2, 3, 4]


def test_ground_truth_boxing_a_target_twice_in_a_cell_is_rejected():
    dets = [det(f, "cam", "pedestrian", 0, 0, 10, 10) for f in (0, 1, 2)]
    dets.append(det(1, "cam", "pedestrian", 30, 0, 40, 10))
    gts = [gt(f, "cam", "p1", "pedestrian", 0, 0, 10, 10) for f in (0, 1, 2)]
    gts.append(gt(1, "cam", "p1", "pedestrian", 30, 0, 40, 10))
    with pytest.raises(ValueError, match="^ground truth boxes target 'p1' twice in frame 1 of sensor 'cam'$"):
        match(dets, gts)
    # the same target in another sensor's cell, or another target, is fine
    gts[-1] = gt(1, "cam2", "p1", "pedestrian", 30, 0, 40, 10)
    assert totals(match(dets, gts)).tp == 3
    gts[-1] = gt(1, "cam", "p2", "pedestrian", 30, 0, 40, 10)
    assert totals(match(dets, gts)).tp == 4


@pytest.mark.parametrize("rate", [10.0, 25.0, 30.0, 1 / 0.07])
@pytest.mark.parametrize("latency", [0.0, 0.025, 0.1])
def test_events_take_the_simulators_time_rule(rate, latency):
    # `sensing.draw_detection` makes an event of frame f available at
    # f / rate + latency; a logged true positive is available at the same
    # float, so both feed the confirmation rule alike
    dets = [det(f, "cam0", "pedestrian", 0, 0, 10, 10) for f in range(300)]
    gts = [gt(f, "cam0", "vru", "pedestrian", 0, 0, 10, 10) for f in range(300)]
    stream = match_detections(dets, gts, frame_rate=rate, latency=latency).events["vru"]["cam0"]
    assert [ev.available_at for ev in stream] == [f / rate + latency for f in range(300)]


def test_simulated_streams_round_trip_through_the_matcher():
    spec = build_scenario(ScenarioKind.CPNC50, 40.0)
    sensors = (default_vut_sensor(), *default_layout())
    streams = simulate_run(spec, sensors, DetectionModel(), AebPolicy()).events_by_sensor
    dets = [det(ev.frame, sid, "pedestrian", 0, 0, 10, 10) for sid, evs in streams.items() for ev in evs]
    gts = [gt(ev.frame, sid, "vru", "pedestrian", 0, 0, 10, 10) for sid, evs in streams.items() for ev in evs]
    res = match_detections(dets, gts, frame_rate=spec.frame_rate, latency=sensors[0].latency)
    assert res.events["vru"] == {sid: evs for sid, evs in streams.items() if evs}


def test_match_parameter_validation():
    with pytest.raises(ValueError):
        match([], [], iou_threshold=1.5)
    with pytest.raises(ValueError):
        match_detections([], [], frame_rate=0.0, latency=0.025)
    with pytest.raises(ValueError):
        match_detections([], [], frame_rate=10.0, latency=-0.1)


@pytest.mark.parametrize(
    "frame_rate, latency",
    [(math.nan, 0.025), (math.inf, 0.025), (10.0, math.nan), (10.0, math.inf)],
    ids=["rate-nan", "rate-inf", "latency-nan", "latency-inf"],
)
def test_match_rejects_non_finite_timing(frame_rate, latency):
    # an event's available_at would be nan or inf
    dets = [det(0, "cam0", "pedestrian", 10, 20, 40, 90)]
    gts = [gt(0, "cam0", "vru", "pedestrian", 10, 20, 40, 90)]
    with pytest.raises(ValueError, match="finite"):
        match_detections(dets, gts, frame_rate=frame_rate, latency=latency)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_parse_rejects_a_non_finite_box_corner(tmp_path, cell):
    # a nan box would parse and then silently never match
    log = tmp_path / "dets.csv"
    log.write_text(f"{DETECTION_LOG_HEADER}\n0,cam0,pedestrian,10,20,{cell},90,0.9\n")
    with pytest.raises(ValueError, match=r"^detection log line 2: box extent is negative or not finite"):
        parse_detection_log(log)
    truth = tmp_path / "gt.csv"
    truth.write_text(f"{GROUND_TRUTH_HEADER}\n0,cam0,vru,pedestrian,{cell},20,40,90\n")
    with pytest.raises(ValueError, match=r"^ground truth line 2: box extent is negative or not finite"):
        parse_ground_truth(truth)
