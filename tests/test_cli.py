"""Command line behaviour, driven in-process through main()."""

import csv
import logging
import math

import pytest
import yaml

from vrusim.aeb import last_possible_brake_time, simulate_run
from vrusim.cli import main
from vrusim.config import load_config, read_layout
from vrusim.placement import candidate_sites_from_units, evaluate_sites, greedy_select
from vrusim.scenario import ScenarioKind, build_scenario, rotate_scenario
from vrusim.sensing import default_layout, default_vut_sensor, first_confirmed_time, format_layout


def cfg_file(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def tiny_sweep_args(tmp_path, out="out", extra=()):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    return [
        "sweep", "--config", cfg, "--out", str(tmp_path / out),
        "--subset", "vut", "--subset", "any", "-q", *extra,
    ]


def test_sweep_success(tmp_path):
    rc = main(tiny_sweep_args(tmp_path))
    assert rc == 0
    out = tmp_path / "out"
    assert (out / "summary.csv").exists()
    assert (out / "manifest.txt").exists()
    lines = (out / "summary.csv").read_text().splitlines()
    assert len(lines) == 1 + 2  # one cell, two subsets


def test_sweep_bad_config_is_exit_1(tmp_path):
    cfg = cfg_file(tmp_path, {"no_such_key": 1})
    assert main(["sweep", "--config", cfg, "-q"]) == 1


def test_sweep_vehicle_height_is_an_unknown_key(tmp_path, caplog):
    # no gate reads the vehicle's height, so no key sets it
    cfg = cfg_file(tmp_path, {"scenario_overrides": {"vut_height": 1.5}})
    assert main(["sweep", "--config", cfg, "-q"]) == 1
    assert "unknown field 'vut_height'" in caplog.text


def test_sweep_missing_config_file_is_exit_1(tmp_path, caplog):
    # a config file that cannot be opened reports the system's own message
    path = tmp_path / "absent.yaml"
    message = one_line_config_error(caplog, ["sweep", "--config", str(path), "-q"])
    assert message == f"[Errno 2] No such file or directory: '{path}'"


def test_sweep_invalid_yaml_is_exit_1(tmp_path):
    path = tmp_path / "broken.yaml"
    path.write_text("scenarios: [unclosed\n", encoding="utf-8")
    assert main(["sweep", "--config", str(path), "-q"]) == 1


def test_sweep_unknown_subset_is_exit_1(tmp_path):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    rc = main(["sweep", "--config", cfg, "--subset", "mystery", "-q"])
    assert rc == 1


def test_sweep_bad_speeds_flag_is_exit_1(tmp_path):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"]})
    rc = main(["sweep", "--config", cfg, "--speeds", "fast,slow", "-q"])
    assert rc == 1


def one_line_config_error(caplog, argv):
    """Run main(); it must exit 1 after logging exactly one one-line error."""
    with caplog.at_level(logging.ERROR):
        rc = main(argv)
    assert rc == 1
    errors = [r for r in caplog.records if r.levelno >= logging.ERROR]
    assert len(errors) == 1
    assert errors[0].exc_info is None
    message = errors[0].getMessage()
    assert "\n" not in message
    return message


@pytest.mark.parametrize(
    "data, where",
    [
        ({"policy": {"latency_s": float("nan")}}, "policy.latency_s"),
        ({"policy": {"deceleration_mps2": float("nan")}}, "policy.deceleration_mps2"),
        ({"scenario_overrides": {"cyclist_speed_kmh": 0}}, "cyclist_speed_kmh"),
        (
            {
                "scenarios": ["CBLA"],
                "speeds_kmh": [25],
                "scenario_overrides": {"cyclist_speed_kmh": 25},
            },
            "cyclist_speed_kmh",
        ),
        ({"scenario_overrides": {"vut_length": -2}}, "scenario_overrides"),
        ({"sensors": {"range_m": -1}}, "sensors"),
        ({"scenario_overrides": {"frame_rate": 0}}, "frame_rate"),
        # a frame period too long for a float, and too short
        ({"scenario_overrides": {"frame_rate": 1.0e-320}}, "scenario_overrides.frame_rate"),
        ({"scenario_overrides": {"frame_rate": 1.0e308}}, "scenario_overrides.frame_rate"),
        # the frame rate fixes the step, and speeds_kmh lists the speeds
        ({"dt_s": 0.005}, "top level: dt_s"),
        ({"speed_range": {"min_kmh": 20}}, "top level: speed_range"),
        ({"speeds_kmh": [40, 40.0]}, "speeds_kmh: duplicate"),
        ({"scene_yaw_deg": [0, 0]}, "scene_yaw_deg: duplicate"),
        # library errors met at load time, each as `<key or section>: <reason>`
        ({"sensors": {"layout_file": 3}}, "sensors.layout_file: expected a path string"),
        ({"sensors": {"layout_file": "absent.txt"}}, "sensors.layout_file: "),
        ({"sensors": {"layout_file": "bad_row.txt"}}, "sensors.layout_file: layout line 3: "),
        ({"detection": {"miss_probability": 2}}, "detection: "),
        ({"policy": {"confirm_frames": 0}}, "policy: "),
    ],
    ids=[
        "latency-nan", "deceleration-nan", "cyclist-speed-zero", "cbla-cyclist-not-slower",
        "vut-length-negative", "range-negative", "frame-rate-zero", "frame-rate-1e-320",
        "frame-rate-1e308", "dt-s-unknown", "speed-range-unknown", "speeds-duplicate", "yaws-duplicate",
        "layout-file-not-a-string", "layout-file-missing", "layout-file-bad-row", "miss-probability-2", "confirm-frames-0",
    ],
)
def test_sweep_bad_number_is_exit_1_with_one_line(tmp_path, monkeypatch, caplog, data, where):
    # relative layout paths resolve in tmp_path, where bad_row.txt has a
    # second row one cell short
    monkeypatch.chdir(tmp_path)
    good = format_layout(default_layout()[:1])
    (tmp_path / "bad_row.txt").write_text(good + good.splitlines()[1].rsplit(",", 1)[0] + "\n", encoding="utf-8")
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40], **data})
    out = tmp_path / "out"
    message = one_line_config_error(caplog, ["sweep", "--config", cfg, "--out", str(out), "-q"])
    assert where in message
    assert not (out / "summary.csv").exists()


def test_sweep_bad_workers_is_exit_1(tmp_path):
    rc = main(tiny_sweep_args(tmp_path, extra=("--workers", "0")))
    assert rc == 1


def test_sweep_unwritable_out_is_exit_1_before_simulation(tmp_path):
    # the out path routes through a regular file, so the pre-flight probe
    # fails before any cell is simulated
    blocker = tmp_path / "blocker"
    blocker.write_text("file, not a directory", encoding="utf-8")
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    rc = main(["sweep", "--config", cfg, "--out", str(blocker / "out"), "-q"])
    assert rc == 1


def test_sweep_partial_output_is_exit_3(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    (out / "heatmaps").write_text("in the way", encoding="utf-8")
    rc = main(tiny_sweep_args(tmp_path))
    assert rc == 3
    assert "FAILED heatmaps/" in (out / "manifest.txt").read_text()


def test_sweep_runtime_failure_is_exit_2(tmp_path, monkeypatch):
    def boom(config, workers=1):
        raise RuntimeError("synthetic crash")

    monkeypatch.setattr("vrusim.cli.run_sweep", boom)
    rc = main(tiny_sweep_args(tmp_path, out="crash"))
    assert rc == 2


def test_sweep_speed_filter_respected(tmp_path):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"]})
    rc = main(
        [
            "sweep", "--config", cfg, "--out", str(tmp_path / "out"),
            "--subset", "vut", "--speeds", "40,45", "-q",
        ]
    )
    assert rc == 0
    lines = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    speeds = sorted({ln.split(",")[2] for ln in lines[1:]})
    assert speeds == ["40", "45"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--subset", "vut", "--subset", "vut"], "subsets: duplicate subset definitions"),
        (["--speeds", "40,13"], "speeds_kmh: 13 km/h suits no configured scenario; allowed: CBNA 20..60, CBLA 25..60 in steps of 5"),
        (["--speeds", "20"], "speeds_kmh: no CBLA speed is listed; "),
        (["--subset", "vut+mystery"], "subsets: unknown sensor 'mystery'; "),
    ],
    ids=["subset-repeated", "speed-no-scenario-allows", "scenario-left-without-speed", "subset-unknown-sensor"],
)
def test_sweep_flags_are_checked_by_their_keys(tmp_path, caplog, flags, message):
    # a flag replaces its key, so the key's rules reject it before any run
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA", "CBLA"], "speeds_kmh": [40]})
    out = tmp_path / "out"
    assert one_line_config_error(caplog, ["sweep", "--config", cfg, "--out", str(out), *flags, "-q"]).startswith(message)
    assert not out.exists()


def test_sweep_subset_flag_joins_sensor_ids_with_plus(tmp_path):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--subset", "vut+rsu1", "--subset", "any", "-q"]
    assert main(argv) == 0
    rows = (tmp_path / "out" / "summary.csv").read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["vut+rsu1", "any"]


@pytest.mark.parametrize("command", ["sweep", "placement"])
def test_a_config_file_that_is_not_utf8_is_exit_1(tmp_path, caplog, command):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(b"scenarios: [CBNA]\n\xff\n")
    argv = [command, "--config", str(cfg), "--out", str(tmp_path / "out"), "-q"]
    if command == "placement":
        argv += ["--candidates", candidates_file(tmp_path), "--budget", "1"]
    message = one_line_config_error(caplog, argv)
    assert message.startswith(f"{cfg}: 'utf-8' codec can't decode byte 0xff")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text, reason",
    [("when: 2020-13-45\n", "month must be in 1..12"), ("seed: !!int x\n", "invalid literal for int() with base 10: 'x'")],
    ids=["bad-date", "bad-int-tag"],
)
def test_a_yaml_value_the_parser_cannot_build_is_exit_1(tmp_path, caplog, text, reason):
    # YAML's constructors raise a plain ValueError for an impossible date or
    # a tagged scalar of the wrong form, which used to escape as a traceback
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text, encoding="utf-8")
    message = one_line_config_error(caplog, ["sweep", "--config", str(cfg), "--out", str(tmp_path / "out"), "-q"])
    assert message == f"{cfg}: {reason}"
    assert not (tmp_path / "out").exists()


def test_sweep_workers_flag_matches_serial(tmp_path):
    # two cells, so that two workers make a pool rather than a serial run
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40, 45]})
    args = ["sweep", "--config", cfg, "--subset", "vut", "--subset", "any", "-q", "--out"]
    assert main([*args, str(tmp_path / "a")]) == 0
    assert main([*args, str(tmp_path / "b"), "--workers", "2"]) == 0
    a = (tmp_path / "a" / "manifest.txt").read_bytes()
    b = (tmp_path / "b" / "manifest.txt").read_bytes()
    assert a == b


def test_seed_changes_hash_in_manifest(tmp_path):
    assert main(tiny_sweep_args(tmp_path, out="s0")) == 0
    assert main(tiny_sweep_args(tmp_path, out="s1", extra=("--seed", "1"))) == 0
    h0 = (tmp_path / "s0" / "manifest.txt").read_text().splitlines()[1]
    h1 = (tmp_path / "s1" / "manifest.txt").read_text().splitlines()[1]
    assert h0.startswith("config_hash ") and h1.startswith("config_hash ")
    assert h0 != h1


def candidates_file(tmp_path, ids=("rsu1", "rsu8"), frame_rate=10.0):
    units = [u for u in default_layout() if u.sensor_id in ids]
    path = tmp_path / "candidates.txt"
    path.write_text(format_layout(units, frame_rate), encoding="utf-8")
    return str(path)


def test_placement_success(tmp_path):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    rc = main(
        [
            "placement", "--config", cfg, "--candidates", candidates_file(tmp_path),
            "--budget", "1", "--out", str(tmp_path / "p"), "-q",
        ]
    )
    assert rc == 0
    table = (tmp_path / "p" / "placement.csv").read_text().splitlines()
    assert table[0] == "site_id,selected,selection_rank,marginal_gain,avoidance,accuracy"
    assert len(table) == 3
    assert sum(ln.split(",")[1] == "true" for ln in table[1:]) == 1
    layout = (tmp_path / "p" / "selected_layout.txt").read_text().splitlines()
    assert len(layout) == 2  # header plus the one selected unit


def test_placement_partial_output_is_exit_3(tmp_path):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    out = tmp_path / "p"
    (out / "placement.csv").mkdir(parents=True)
    rc = main(
        [
            "placement", "--config", cfg, "--candidates", candidates_file(tmp_path),
            "--budget", "1", "--out", str(out), "-q",
        ]
    )
    assert rc == 3
    assert len((out / "selected_layout.txt").read_text().splitlines()) == 2
    assert "FAILED placement.csv:" in (out / "manifest.txt").read_text()


def test_placement_selected_layout_roundtrips_into_config(tmp_path):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    assert main(
        [
            "placement", "--config", cfg, "--candidates", candidates_file(tmp_path),
            "--budget", "2", "--out", str(tmp_path / "p"), "-q",
        ]
    ) == 0
    reuse = cfg_file(
        tmp_path,
        {
            "scenarios": ["CBNA"],
            "speeds_kmh": [40],
            "sensors": {"layout_file": str(tmp_path / "p" / "selected_layout.txt")},
        },
    )
    rc = main(["sweep", "--config", reuse, "--out", str(tmp_path / "out"), "-q"])
    assert rc == 0
    header = (tmp_path / "out" / "summary.csv").read_text().splitlines()
    subsets = {ln.split(",")[3] for ln in header[1:]}
    assert subsets == {"vut", "rsu1", "rsu8", "any"}


def test_placement_bad_budget_is_exit_1(tmp_path):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    rc = main(
        [
            "placement", "--config", cfg, "--candidates", candidates_file(tmp_path),
            "--budget", "0", "-q",
        ]
    )
    assert rc == 1


def test_placement_bad_candidates_is_exit_1(tmp_path):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    bad = tmp_path / "bad.txt"
    bad.write_text("not,a,layout\n", encoding="utf-8")
    rc = main(["placement", "--config", cfg, "--candidates", str(bad), "--budget", "1", "-q"])
    assert rc == 1


def test_placement_writes_the_scenario_rate(tmp_path):
    cfg = cfg_file(
        tmp_path,
        {"scenarios": ["CBNA"], "speeds_kmh": [40], "scenario_overrides": {"frame_rate": 20}},
    )
    out = tmp_path / "p"
    rc = main(
        [
            "placement", "--config", cfg, "--candidates", candidates_file(tmp_path, frame_rate=20.0),
            "--budget", "1", "--out", str(out), "-q",
        ]
    )
    assert rc == 0
    layout = out / "selected_layout.txt"
    header, row = layout.read_text().splitlines()
    assert row.split(",")[header.split(",").index("rate_hz")] == "20"
    units = read_layout(str(layout), 20.0, "selected_layout.txt")
    assert len(units) == 1


def test_placement_layout_reads_back_at_a_rate_six_digits_cannot_hold(tmp_path):
    rate = 1 / 0.07
    cfg = cfg_file(
        tmp_path,
        {
            "scenarios": ["CBNA"],
            "speeds_kmh": [40],
            "scenario_overrides": {"frame_rate": rate},
        },
    )
    out = tmp_path / "p"
    rc = main(
        [
            "placement", "--config", cfg, "--candidates", candidates_file(tmp_path, frame_rate=rate),
            "--budget", "1", "--out", str(out), "-q",
        ]
    )
    assert rc == 0
    units = read_layout(str(out / "selected_layout.txt"), rate, "selected_layout.txt")
    assert len(units) == 1


RSU1 = next(u for u in default_layout() if u.sensor_id == "rsu1")


def with_cell(text, sensor_id, column, value):
    """Layout text with one unit's cell in `column` set to `value`."""
    header, *rows = text.splitlines()
    at = header.split(",").index(column)
    for i, row in enumerate(rows):
        cells = row.split(",")
        if cells[0] == sensor_id:
            cells[at] = value
            rows[i] = ",".join(cells)
    return "\n".join([header, *rows]) + "\n"


NON_FINITE_CELLS = [("latency_s", "nan"), ("x", "nan"), ("z", "inf"), ("pitch_deg", "-inf"), ("hfov_deg", "inf"), ("range_m", "inf")]


@pytest.mark.parametrize("column, value", NON_FINITE_CELLS, ids=[f"{c}-{v}" for c, v in NON_FINITE_CELLS])
def test_sweep_rejects_a_non_finite_layout_number(tmp_path, caplog, column, value):
    # a nan latency used to print nan as the unit's trigger times in
    # summary.csv, and a nan position to run without an error
    layout = tmp_path / "layout.txt"
    layout.write_text(with_cell(format_layout(default_layout()), "rsu1", column, value), encoding="utf-8")
    cfg = cfg_file(tmp_path, {"scenarios": ["CPNC-50"], "speeds_kmh": [40], "sensors": {"layout_file": str(layout)}})
    message = one_line_config_error(caplog, ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "-q"])
    assert message == "sensors.layout_file: layout line 3: pose, apertures, range and latency must be finite"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "layout.txt"]


WIDE_APERTURES = [("hfov_deg", "270"), ("vfov_deg", "300"), ("hfov_deg", "180.5")]


@pytest.mark.parametrize("column, value", WIDE_APERTURES, ids=[f"{c}-{v}" for c, v in WIDE_APERTURES])
@pytest.mark.parametrize("flag", ["sensors.layout_file", "--candidates"])
def test_a_layout_aperture_past_180_degrees_is_exit_1_with_one_line(tmp_path, caplog, flag, column, value):
    # camera.hfov_deg: 270 is a ConfigError, and a layout row 270 degrees
    # wide used to load and be scored
    layout = tmp_path / "layout.txt"
    layout.write_text(with_cell(format_layout(default_layout()), "rsu1", column, value), encoding="utf-8")
    out = str(tmp_path / "out")
    if flag == "--candidates":
        cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
        argv = ["placement", "--config", cfg, "--candidates", str(layout), "--budget", "1", "--out", out, "-q"]
    else:
        cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40], "sensors": {"layout_file": str(layout)}})
        argv = ["sweep", "--config", cfg, "--out", out, "-q"]
    message = one_line_config_error(caplog, argv)
    assert message == f"{flag}: layout line 3: {column} must be in (0, 180]"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "layout.txt"]


def test_a_layout_aperture_of_180_degrees_loads(tmp_path):
    layout = tmp_path / "layout.txt"
    text = with_cell(format_layout((RSU1,)), "rsu1", "hfov_deg", "180")
    layout.write_text(with_cell(text, "rsu1", "vfov_deg", "180"), encoding="utf-8")
    (unit,) = read_layout(str(layout), 10.0, "layout.txt")
    assert unit.hfov == unit.vfov == math.radians(180)


@pytest.mark.parametrize(
    "text",
    [
        format_layout((RSU1, RSU1)),
        format_layout(()),
        format_layout(default_layout()[:2], 20.0),
        format_layout((RSU1,)).replace("\nrsu1,", "\n,"),
        format_layout((default_vut_sensor(),)),
        format_layout((RSU1,)).replace("\nrsu1,", "\nany,"),
        with_cell(format_layout(default_layout()[:2]), "rsu1", "latency_s", "nan"),
        with_cell(format_layout(default_layout()[:2]), "rsu1", "x", "inf"),
    ],
    ids=[
        "duplicate-ids", "header-only", "rate-20-at-10-hz", "empty-id", "vut-mounted", "reserved-id-any",
        "latency-nan", "x-inf",
    ],
)
def test_placement_bad_candidates_is_exit_1_with_one_line(tmp_path, caplog, text):
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40]})
    bad = tmp_path / "bad.txt"
    bad.write_text(text, encoding="utf-8")
    out = tmp_path / "p"
    message = one_line_config_error(
        caplog,
        ["placement", "--config", cfg, "--candidates", str(bad), "--budget", "1",
         "--out", str(out), "-q"],
    )
    assert "--candidates" in message
    assert not (out / "placement.csv").exists()


@pytest.mark.parametrize("sensor_id", ["x/../../../escaped", "x\\..\\escaped", "a+b"])
def test_sweep_rejects_a_sensor_id_that_is_no_file_name(tmp_path, caplog, sensor_id):
    # the id names heatmaps/<cell>_<subset>.csv, which a separator would
    # place outside --out, and "+" joins the ids of a subset's name
    work = tmp_path / "a" / "b" / "c"
    work.mkdir(parents=True)
    layout = work / "layout.txt"
    layout.write_text(format_layout((RSU1,)).replace("\nrsu1,", f"\n{sensor_id},"), encoding="utf-8")
    cfg = cfg_file(work, {"scenarios": ["CBNA"], "speeds_kmh": [40], "sensors": {"layout_file": str(layout)}})
    message = one_line_config_error(caplog, ["sweep", "--config", cfg, "--out", str(work / "out"), "-q"])
    assert message.startswith("sensors.layout_file: layout line 2: ")
    assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")) == [
        "a", "a/b", "a/b/c", "a/b/c/cfg.yaml", "a/b/c/layout.txt",
    ]


def test_sweep_rejects_the_sensor_id_any(tmp_path, caplog):
    # "any" names the fused subset: a unit of that id would make two
    # subsets of the name, whose report rows and files collide
    layout = tmp_path / "layout.txt"
    layout.write_text(format_layout(default_layout()[:2]).replace("\nrsu1,", "\nany,"), encoding="utf-8")
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40], "sensors": {"layout_file": str(layout)}})
    message = one_line_config_error(caplog, ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "-q"])
    assert message.startswith("sensors.layout_file: ") and "'any'" in message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml", "layout.txt"]


def test_sweep_rejects_scene_yaws_that_print_alike(tmp_path, caplog):
    # summary.csv rows and the per-yaw report names print a yaw with :g,
    # six significant digits, so the second cell would overwrite the first
    cfg = cfg_file(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40], "scene_yaw_deg": [10.0000001, 10.0000002]})
    argv = ["sweep", "--config", cfg, "--out", str(tmp_path / "out"), "--subset", "vut", "-q"]
    message = one_line_config_error(caplog, argv)
    assert message.startswith("scene_yaw_deg: ") and "10.0000001" in message and "10.0000002" in message
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.yaml"]


@pytest.mark.parametrize(
    "lengths, rc", [((121, 121), 0), ((121, 122), 1), ((141, 141), 1)], ids=["255-bytes", "256-bytes", "283-bytes"]
)
def test_sweep_bounds_report_file_names_at_load_time(tmp_path, caplog, lengths, rc):
    # heatmaps/CBNA_40_<subset>.csv names 12 bytes besides the subset, so
    # two ids of 121 characters joined by "+" make a 255-byte name
    ids = ("a" * lengths[0], "b" * lengths[1])
    rows = format_layout(default_layout()[1:3])
    rows = rows.replace("\nrsu1,", f"\n{ids[0]},").replace("\nrsu2,", f"\n{ids[1]},")
    layout = tmp_path / "layout.txt"
    layout.write_text(rows, encoding="utf-8")
    cfg = cfg_file(
        tmp_path,
        {"scenarios": ["CBNA"], "speeds_kmh": [40], "sensors": {"layout_file": str(layout)}, "subsets": [list(ids)]},
    )
    out = tmp_path / "out"
    argv = ["sweep", "--config", cfg, "--out", str(out), "-q"]
    if rc == 0:
        assert main(argv) == 0
        assert len(f"CBNA_40_{'+'.join(ids)}.csv") == 255
        assert (out / "heatmaps" / f"CBNA_40_{'+'.join(ids)}.ppm").exists()
        return
    message = one_line_config_error(caplog, argv)
    assert message.startswith(f"subsets: subset '{'+'.join(ids)}' names report files of ")
    assert not out.exists()


def test_placement_scores_every_scene_yaw(tmp_path):
    # rsu0 and rsu5 each avoid the CBNA cell at yaw 0 and miss it at 90
    ids = ("rsu0", "rsu5")
    cfg = cfg_file(
        tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40], "scene_yaw_deg": [0, 90]}
    )
    assert main(
        [
            "placement", "--config", cfg, "--candidates", candidates_file(tmp_path, ids),
            "--budget", "1", "--out", str(tmp_path / "p"), "-q",
        ]
    ) == 0
    config = load_config(cfg)
    spec = build_scenario(ScenarioKind.CBNA, 40.0, config.overrides)
    suite = (spec, rotate_scenario(spec, math.radians(90.0)))
    sites = candidate_sites_from_units(u for u in default_layout() if u.sensor_id in ids)
    scores = evaluate_sites(sites, suite, config.policy, config.model)
    rows = (tmp_path / "p" / "placement.csv").read_text().splitlines()[1:]
    assert [(r.split(",")[0], *r.split(",")[4:]) for r in rows] == [
        (s.site_id, f"{s.avoidance:.6f}", f"{s.accuracy:.6f}") for s in scores
    ]


def test_library_entry_points_take_a_30_hz_cell_on_its_own_step(tmp_path):
    # at 30 Hz whole 5 ms steps do not fill the frame period, so a run steps
    # 1/210 s, 7 steps a frame; called with no step, the library gives what
    # both commands write for the same config
    ids = ("rsu0", "rsu5")
    cfg = cfg_file(
        tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40], "scenario_overrides": {"frame_rate": 30}}
    )
    candidates = candidates_file(tmp_path, ids, frame_rate=30.0)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "s"), "-q"]) == 0
    assert main(
        ["placement", "--config", cfg, "--candidates", candidates, "--budget", "2", "--out", str(tmp_path / "p"), "-q"]
    ) == 0
    config = load_config(cfg)
    spec = build_scenario(ScenarioKind.CBNA, 40.0, config.overrides)
    deadline = last_possible_brake_time(spec, config.policy)
    assert deadline is not None
    assert spec.timeline.steps_per_frame == 7
    assert spec.timeline.times[1] == config.dt == 1.0 / 30.0 / 7

    with open(tmp_path / "s" / "summary.csv", encoding="utf-8") as fh:
        rows = {row["subset"]: row for row in csv.DictReader(fh)}
    watch = simulate_run(spec, config.all_units(), config.model, config.policy, sense=True)
    outcomes = set()
    for sub in config.subsets:
        trigger = first_confirmed_time(watch.events_by_sensor, config.policy.confirm_frames, sub.sensor_ids)
        replay = simulate_run(spec, (), config.model, config.policy, trigger_override=trigger, sense=False)
        row = rows[sub.name]
        assert row["first_confirmed_time_s"] == ("NA" if trigger is None else f"{trigger:.6f}"), sub.name
        assert row["avoided"] == str(replay.outcome.avoided).lower(), sub.name
        assert row["last_possible_brake_time_s"] == f"{deadline:.6f}"
        outcomes.add(replay.outcome.avoided)
    assert outcomes == {True, False}

    sites = candidate_sites_from_units(read_layout(candidates, 30.0, "--candidates"))
    scores = evaluate_sites(sites, (spec,), config.policy, config.model)
    picked = greedy_select(sites, 2, (spec,), config.policy, config.model)
    with open(tmp_path / "p" / "placement.csv", encoding="utf-8") as fh:
        placed = list(csv.DictReader(fh))
    assert [(r["site_id"], r["avoidance"], r["accuracy"]) for r in placed] == [
        (s.site_id, f"{s.avoidance:.6f}", f"{s.accuracy:.6f}") for s in scores
    ]
    ranked = sorted((r for r in placed if r["selection_rank"] != "NA"), key=lambda r: int(r["selection_rank"]))
    assert tuple(r["site_id"] for r in ranked) == picked.selected_site_ids
    assert [r["marginal_gain"] for r in ranked] == [f"{g:.6f}" for g in picked.marginal_gains]

    # placement's dt= keyword is checked against the suite's own step
    assert evaluate_sites(sites, (spec,), config.policy, config.model, dt=config.dt) == scores
    with pytest.raises(ValueError, match="kinematics step"):
        evaluate_sites(sites, (spec,), config.policy, config.model, dt=0.005)
    with pytest.raises(ValueError, match="kinematics step"):
        greedy_select(sites, 2, (spec,), config.policy, config.model, dt=0.005)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "vrusim" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
