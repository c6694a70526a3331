"""Sweep orchestration: ordering, worker parity, report emission."""

import hashlib
import os

import pytest
import yaml

import vrusim.harness
from vrusim.config import load_config
from vrusim.harness import Manifest, emit_reports, run_sweep
from vrusim.metrics import heatmap_from_frames
from vrusim.scenario import ScenarioKind


def cfg_file(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def small_config(tmp_path, **kwargs):
    """One scenario, two speeds, three subsets: quick but exercises fusion."""
    path = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40, 60]})
    return load_config(path, subset_filter=("vut", "rsu1", "any"), **kwargs)


def test_cells_follow_config_order(tmp_path):
    path = cfg_file(
        tmp_path,
        {
            "scenarios": ["CBLA", "CPNC-50"],
            "speeds_kmh": [30, 25],
            "scene_yaw_deg": [0, 180],
        },
    )
    config = load_config(path, subset_filter=("vut",))
    result = run_sweep(config)
    seen = [(c.yaw_deg, c.kind.display_name, c.speed_kmh) for c in result.cells]
    assert seen == [
        (0.0, "CBLA", 25.0),
        (0.0, "CBLA", 30.0),
        (0.0, "CPNC-50", 25.0),
        (0.0, "CPNC-50", 30.0),
        (180.0, "CBLA", 25.0),
        (180.0, "CBLA", 30.0),
        (180.0, "CPNC-50", 25.0),
        (180.0, "CPNC-50", 30.0),
    ]
    assert result.version
    assert result.config_hash == config.config_hash()


def test_worker_count_does_not_change_results(tmp_path):
    config = small_config(tmp_path)
    serial = run_sweep(config, workers=1)
    parallel = run_sweep(config, workers=3)
    assert serial.cells == parallel.cells


def test_pool_holds_no_more_workers_than_cells(tmp_path, monkeypatch):
    # a pool forks every worker it is given up front, so the sweep must size
    # it by its cells; the stand-in records the size and starts no process
    sizes = []

    class InProcessPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            return map(fn, tasks)

    monkeypatch.setattr(vrusim.harness, "ProcessPoolExecutor", InProcessPool)
    config = small_config(tmp_path)
    serial = run_sweep(config)
    assert run_sweep(config, workers=500).cells == serial.cells
    assert sizes == [len(config.cells())] == [2]
    one_cell = small_config(tmp_path, speed_filter=(40.0,))
    assert run_sweep(one_cell, workers=500).cells == serial.cells[:1]
    assert sizes == [2]


def test_worker_count_validation(tmp_path):
    with pytest.raises(ValueError, match="workers"):
        run_sweep(small_config(tmp_path), workers=0)


def test_subset_results_share_observation_pass(tmp_path):
    config = small_config(tmp_path)
    cell = run_sweep(config).cells[0]
    by_name = {s.name: s for s in cell.subsets}
    # fused channel can never confirm later than its members
    vut, rsu1, any_ = by_name["vut"], by_name["rsu1"], by_name["any"]
    members = [t for t in (vut.first_confirmed_time, rsu1.first_confirmed_time) if t is not None]
    if members:
        assert any_.first_confirmed_time is not None
        assert any_.first_confirmed_time <= min(members)
    assert any_.accuracy >= max(vut.accuracy, rsu1.accuracy)
    # detection_frames cover every sensor, firing or not
    assert set(cell.detection_frames) == {u.sensor_id for u in config.all_units()}


def test_scene_rotation_maps_corner_units_onto_each_other(tmp_path):
    # the four corner units are 90 degree copies of one another, so rotating
    # the whole scene by +90 must hand rsu1's view to rsu0 (up to the float
    # error of the rotation itself)
    path = cfg_file(
        tmp_path,
        {"scenarios": ["CBNA"], "speeds_kmh": [40], "scene_yaw_deg": [0, 90]},
    )
    config = load_config(path, subset_filter=("rsu0", "rsu1", "vut"))
    result = run_sweep(config)
    plain = {s.name: s for s in result.cells[0].subsets}
    turned = {s.name: s for s in result.cells[1].subsets}

    assert turned["rsu1"].avoided == plain["rsu0"].avoided
    assert turned["rsu1"].accuracy == pytest.approx(plain["rsu0"].accuracy, abs=1e-12)
    assert turned["rsu1"].first_confirmed_time == pytest.approx(
        plain["rsu0"].first_confirmed_time, abs=1e-9
    )
    # the vehicle camera rides with the vehicle: rotation cannot affect it
    assert turned["vut"].first_confirmed_time == pytest.approx(
        plain["vut"].first_confirmed_time, abs=1e-9
    )
    assert turned["vut"].avoided == plain["vut"].avoided


def test_emit_reports_files_and_manifest(tmp_path):
    config = small_config(tmp_path, out_dir=str(tmp_path / "out"))
    result = run_sweep(config)
    manifest = emit_reports(result, config.out_dir)

    assert isinstance(manifest, Manifest)
    assert manifest.complete
    rels = [rel for rel, _ in manifest.entries]
    assert "summary.csv" in rels
    assert "accuracy_table.csv" in rels
    assert "avoidance_by_subset.csv" in rels
    # 2 cells x 3 subsets x (csv + ppm)
    assert sum(rel.startswith("heatmaps/") for rel in rels) == 12
    assert rels == sorted(rels)
    assert "manifest.txt" not in rels

    # every checksum in the manifest matches the bytes on disk
    for rel, digest in manifest.entries:
        with open(os.path.join(config.out_dir, rel), "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest, rel

    lines = (tmp_path / "out" / "manifest.txt").read_text().splitlines()
    assert lines[0] == f"version {result.version}"
    assert lines[1] == f"config_hash {result.config_hash}"
    assert lines[2] == "seed 0"
    assert lines[3] == f"files {len(manifest.entries)}"


def test_summary_rows_and_na_policy(tmp_path):
    config = small_config(tmp_path, out_dir=str(tmp_path / "out"))
    result = run_sweep(config)
    emit_reports(result, config.out_dir)
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header[:4] == ["scene_yaw_deg", "scenario", "speed_kmh", "subset"]
    assert len(lines) == 1 + 2 * 3  # 2 cells x 3 subsets
    for line in lines[1:]:
        parts = line.split(",")
        assert len(parts) == len(header)
        row = dict(zip(header, parts))
        assert row["scenario"] == "CBNA"
        assert row["avoided"] in ("true", "false")
        if row["avoided"] == "true":
            assert row["collision_time_s"] == "NA"
            assert row["collision_speed_mps"] == "0.000000"
        else:
            assert row["stop_margin_m"] == "NA"
            assert float(row["collision_speed_mps"]) > 0.0
    # subset order inside a cell follows the config
    assert [ln.split(",")[3] for ln in lines[1:4]] == ["vut", "rsu1", "any"]


def test_accuracy_table_shape_and_gaps(tmp_path):
    # 20 km/h exists for the crossing scenarios but not the longitudinal one,
    # so the CBLA row keeps an NA hole at that column
    config = load_config(subset_filter=("any",), speed_filter=(20.0, 25.0))
    result = run_sweep(config)
    emit_reports(result, str(tmp_path / "out"))
    lines = (tmp_path / "out" / "accuracy_table.csv").read_text().splitlines()
    assert lines[0] == "scenario,20,25"
    table = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
    assert set(table) == {"CPNC-50", "CBNA", "CBLA"}
    assert table["CBLA"][0] == "NA"
    for row in table.values():
        for value in row:
            if value != "NA":
                assert 0.0 <= float(value) <= 100.0


def test_accuracy_table_needs_any_subset(tmp_path):
    config = small_config(tmp_path, out_dir=str(tmp_path / "out"))
    config_no_any = load_config(
        cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]}),
        subset_filter=("vut",),
    )
    result = run_sweep(config_no_any)
    manifest = emit_reports(result, str(tmp_path / "no_any"))
    rels = [rel for rel, _ in manifest.entries]
    assert "accuracy_table.csv" not in rels
    assert "avoidance_by_subset.csv" in rels


def test_avoidance_table_matches_summary(tmp_path):
    config = small_config(tmp_path, out_dir=str(tmp_path / "out"))
    result = run_sweep(config)
    emit_reports(result, config.out_dir)
    lines = (tmp_path / "out" / "avoidance_by_subset.csv").read_text().splitlines()
    assert lines[0] == "subset,CBNA,overall"
    rates = {ln.split(",")[0]: ln.split(",")[1:] for ln in lines[1:]}
    for sub in config.subsets:
        flags = [
            s.avoided for c in result.cells for s in c.subsets if s.name == sub.name
        ]
        expect = f"{100.0 * sum(flags) / len(flags):.2f}"
        assert rates[sub.name] == [expect, expect]  # single scenario: overall equal


def test_heatmap_files_match_recomputation(tmp_path):
    config = small_config(tmp_path, out_dir=str(tmp_path / "out"))
    result = run_sweep(config)
    emit_reports(result, config.out_dir)
    cell = result.cells[0]
    sub = cell.subsets[1]  # rsu1
    frames = {sid: cell.detection_frames[sid] for sid in sub.sensor_ids}
    want = heatmap_from_frames(
        frames, cell.n_frames, cell.frame_rate, cell.last_possible_brake_time
    )
    base = tmp_path / "out" / "heatmaps" / f"CBNA_40_{sub.name}"
    assert (base.with_suffix(".csv")).read_text() == want.to_csv()
    assert (base.with_suffix(".ppm")).read_bytes() == want.to_ppm()


def test_traces_only_when_enabled(tmp_path):
    on = load_config(
        cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40], "write_traces": True}),
        subset_filter=("vut",),
    )
    result = run_sweep(on)
    emit_reports(result, str(tmp_path / "with"))
    trace = tmp_path / "with" / "traces" / "CBNA_40.txt"
    assert trace.exists()
    text = trace.read_text().splitlines()
    # the trace is the observation pass, where no subset brakes
    assert text[0].startswith("# pass=unbraked_observation ")
    assert " avoided=false " in text[1]
    assert "det_vut" in text[2]
    # one flag per detection event, in the column of the sensor that made it
    header = text[2].split(",")
    rows = [line.split(",") for line in text[3:]]
    assert {row[header.index("braking")] for row in rows} == {"0"}
    (cell,) = result.cells
    for sensor_id, frames in cell.detection_frames.items():
        col = header.index(f"det_{sensor_id}")
        assert sum(row[col] == "1" for row in rows) == len(frames), sensor_id
    assert sum(len(frames) for frames in cell.detection_frames.values()) > 0

    off = load_config(
        cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]}),
        subset_filter=("vut",),
    )
    emit_reports(run_sweep(off), str(tmp_path / "without"))
    assert not (tmp_path / "without" / "traces").exists()


# sha256 of traces/<cell>.txt as `vrusim sweep --write-traces` wrote them
# before the runs read the spec's timeline
TRACE_DIGESTS = {
    "CBNA_40": "2fc0a4a1aadd4f7850f0935fc1287b73478cd982f02f615bfee84c1d5b7912aa",
    "CPNC-50_40": "7fdb32d577e22c05f512840cf1b202036b493094fec3dbd9d479f33259683741",
    "CBLA_40": "c7758fad5b9989a81588d28fd08fed432c7bea8d6a91cfd374a79de1416570df",
    "CBNA_40_yaw37": "e62a2bda509c9b83e867cedd2cec4a47ee3c3826c47359412bfbece288b24272",
    "CPNC-50_40_yaw37": "c4b1fe1693ee388e0519207fe1f7053649b3e411b0c0ddcd4420bef5f088aafe",
    "CBLA_40_yaw37": "9366ca111a6a6e034eb7818faa4bc8c5fae4ab2641583358bd42b6b40dd10fcf",
}


def written_trace_digests(out):
    return {
        path.stem: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in (out / "traces").glob("*.txt")
    }


def test_trace_bytes_are_pinned(tmp_path):
    path = cfg_file(
        tmp_path,
        {
            "scenarios": ["CBNA", "CPNC-50", "CBLA"],
            "speeds_kmh": [40],
            "scene_yaw_deg": [0, 37],
            "write_traces": True,
        },
    )
    emit_reports(run_sweep(load_config(path, subset_filter=("vut",))), str(tmp_path / "out"))
    assert written_trace_digests(tmp_path / "out") == TRACE_DIGESTS


def test_25_hz_trace_and_deadline_column(tmp_path):
    # 25 frames per 0.04 s frame period means 8 dt steps per frame, and a
    # deadline whose product with the rate falls just short of its frame
    path = cfg_file(
        tmp_path,
        {
            "scenarios": ["CPNC-50"],
            "speeds_kmh": [20],
            "scenario_overrides": {"frame_rate": 25},
            "policy": {"deceleration_mps2": 10},
            "write_traces": True,
        },
    )
    result = run_sweep(load_config(path, subset_filter=("vut",)))
    emit_reports(result, str(tmp_path / "out"))
    assert written_trace_digests(tmp_path / "out") == {
        "CPNC-50_20": "f8269b097605fb2988821a2ca4132551240a766b499d891e1cdafff15b658b73"
    }
    (cell,) = result.cells
    assert f"{cell.last_possible_brake_time:.6f}" == "10.040000"
    ppm = (tmp_path / "out" / "heatmaps" / "CPNC-50_20_vut.ppm").read_bytes()
    _, dims, _, pixels = ppm.split(b"\n", 3)
    width = int(dims.split()[0])
    top_row = [pixels[i : i + 3] for i in range(0, 3 * width, 3)]
    red = [col for col, px in enumerate(top_row) if px == b"\xcc\x22\x22"]
    assert red == [2 * 251, 2 * 251 + 1]  # frame 251 at scale 2


def test_yaw_suffix_on_per_yaw_reports(tmp_path):
    path = cfg_file(
        tmp_path,
        {"scenarios": ["CBNA"], "speeds_kmh": [40], "scene_yaw_deg": [0, 90]},
    )
    config = load_config(path, subset_filter=("any",))
    manifest = emit_reports(run_sweep(config), str(tmp_path / "out"))
    rels = [rel for rel, _ in manifest.entries]
    assert "accuracy_table.csv" in rels
    assert "accuracy_table_yaw90.csv" in rels
    assert "heatmaps/CBNA_40_any.csv" in rels
    assert "heatmaps/CBNA_40_yaw90_any.csv" in rels


def test_rerun_is_byte_identical(tmp_path):
    config = small_config(tmp_path)
    first = emit_reports(run_sweep(config, workers=1), str(tmp_path / "a"))
    second = emit_reports(run_sweep(config, workers=2), str(tmp_path / "b"))
    assert first.entries == second.entries
    a = (tmp_path / "a" / "manifest.txt").read_bytes()
    b = (tmp_path / "b" / "manifest.txt").read_bytes()
    assert a == b


def test_failed_writes_are_recorded_not_raised(tmp_path):
    config = small_config(tmp_path)
    out = tmp_path / "out"
    out.mkdir()
    (out / "heatmaps").write_text("in the way", encoding="utf-8")
    manifest = emit_reports(run_sweep(config), str(out))
    assert not manifest.complete
    failed = [rel for rel, _ in manifest.failures]
    assert all(rel.startswith("heatmaps/") for rel in failed)
    assert len(failed) == 12
    written = [rel for rel, _ in manifest.entries]
    assert "summary.csv" in written
    text = (out / "manifest.txt").read_text()
    assert "FAILED heatmaps/CBNA_40_any.csv" in text
