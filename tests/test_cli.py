"""Command line behaviour, driven in-process through main()."""

import logging
import math

import pytest
import yaml

from vrusim.cli import main
from vrusim.config import load_config, read_layout
from vrusim.placement import candidate_sites_from_units, evaluate_sites
from vrusim.scenario import ScenarioKind, build_scenario, rotate_scenario
from vrusim.sensing import default_layout, default_vut_sensor, format_layout


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


def test_sweep_missing_config_file_is_exit_1(tmp_path):
    assert main(["sweep", "--config", str(tmp_path / "absent.yaml"), "-q"]) == 1


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
        ({"dt_s": float("nan")}, "dt_s"),
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
        ({"dt_s": 0.1}, "dt_s"),
        ({"speeds_kmh": [40, 40.0]}, "speeds_kmh: duplicate"),
        ({"scene_yaw_deg": [0, 0]}, "scene_yaw_deg: duplicate"),
    ],
    ids=[
        "latency-nan", "dt-nan", "cyclist-speed-zero", "cbla-cyclist-not-slower",
        "vut-length-negative", "range-negative", "frame-rate-zero", "dt-one-step-per-frame",
        "speeds-duplicate", "yaws-duplicate",
    ],
)
def test_sweep_bad_number_is_exit_1_with_one_line(tmp_path, caplog, data, where):
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
            "dt_s": 0.0035,
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


@pytest.mark.parametrize(
    "text",
    [
        format_layout((RSU1, RSU1)),
        format_layout(()),
        format_layout(default_layout()[:2], 20.0),
        format_layout((RSU1,)).replace("\nrsu1,", "\n,"),
        format_layout((default_vut_sensor(),)),
        format_layout((RSU1,)).replace("\nrsu1,", "\nany,"),
    ],
    ids=["duplicate-ids", "header-only", "rate-20-at-10-hz", "empty-id", "vut-mounted", "reserved-id-any"],
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


@pytest.mark.parametrize("sensor_id", ["x/../../../escaped", "x\\..\\escaped"])
def test_sweep_rejects_a_sensor_id_that_is_no_file_name(tmp_path, caplog, sensor_id):
    # the id names heatmaps/<cell>_<subset>.csv, which a separator would
    # place outside --out
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
    scores = evaluate_sites(sites, suite, config.policy, config.model, dt=config.dt)
    rows = (tmp_path / "p" / "placement.csv").read_text().splitlines()[1:]
    assert [(r.split(",")[0], *r.split(",")[4:]) for r in rows] == [
        (s.site_id, f"{s.avoidance:.6f}", f"{s.accuracy:.6f}") for s in scores
    ]


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "vrusim" in capsys.readouterr().out


def test_requires_subcommand():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
