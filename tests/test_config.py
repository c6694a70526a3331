"""Configuration loading: defaults, unit conversion, strictness, hashing."""

import csv
import inspect
import io
import math
import re
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vrusim.config import ConfigError, load_config
from vrusim.geometry import MountPose, Silhouette, Vec2, occluder_slabs
from vrusim.harness import emit_reports, run_sweep
from vrusim.scenario import ScenarioKind, ScenarioOverrides, build_scenario
from vrusim.sensing import DetectionModel, SensorUnit, default_layout, format_layout, sense_frame

README = Path(__file__).resolve().parent.parent / "README.md"


def write_cfg(tmp_path, data):
    path = tmp_path / "cfg.yaml"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


def test_default_config_shape():
    cfg = load_config()
    assert [k.display_name for k in cfg.scenarios] == ["CPNC-50", "CBNA", "CBLA"]
    assert cfg.speeds_by_kind[ScenarioKind.CPNC50] == tuple(range(20, 61, 5))
    assert cfg.speeds_by_kind[ScenarioKind.CBNA] == tuple(range(20, 61, 5))
    assert cfg.speeds_by_kind[ScenarioKind.CBLA] == tuple(range(25, 61, 5))
    names = [s.name for s in cfg.subsets]
    assert names == ["vut"] + [f"rsu{i}" for i in range(12)] + ["any"]
    assert cfg.subsets[-1].sensor_ids == tuple(["vut"] + [f"rsu{i}" for i in range(12)])
    assert len(cfg.all_units()) == 13
    assert cfg.all_units()[0].sensor_id == "vut"
    assert cfg.model.seed == 0
    assert cfg.dt == 0.005
    assert cfg.scene_yaws_deg == (0.0,)
    assert cfg.out_dir == "out"
    assert cfg.write_traces is False


def test_default_gates_match_model_defaults():
    # the YAML defaults are the DetectionModel constructor defaults, pixel
    # floors and image width included
    cfg = load_config()
    assert cfg.model == DetectionModel()
    assert cfg.model.miss_probability == 0.0


def test_hash_is_stable_and_sensitive(tmp_path):
    base = load_config()
    again = load_config(write_cfg(tmp_path, {}))
    assert base.canonical_text() == again.canonical_text()
    assert base.config_hash() == again.config_hash()

    seeded = load_config(seed=7)
    assert seeded.config_hash() != base.config_hash()
    assert seeded.model.seed == 7

    wide = load_config(write_cfg(tmp_path, {"camera": {"hfov_deg": 110}}))
    assert wide.config_hash() != base.config_hash()


def float_leaves(value, path=()):
    """(path, number) for every float under `value`, through dataclass
    fields, mapping values and tuple items."""
    if is_dataclass(value):
        for f in fields(value):
            yield from float_leaves(getattr(value, f.name), (*path, f.name))
    elif isinstance(value, dict):
        for key, item in value.items():
            yield from float_leaves(item, (*path, key))
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from float_leaves(item, (*path, i))
    elif isinstance(value, float):
        yield path, value


def with_leaf(value, path, number):
    """`value` with the leaf at `path` set to `number`."""
    if not path:
        return number
    head, rest = path[0], path[1:]
    if is_dataclass(value):
        return replace(value, **{head: with_leaf(getattr(value, head), rest, number)})
    if isinstance(value, dict):
        return {**value, head: with_leaf(value[head], rest, number)}
    return (*value[:head], with_leaf(value[head], rest, number), *value[head + 1:])


def test_hash_tells_apart_numbers_one_ulp_apart():
    # a fixed-digit dump prints a float and its neighbour alike
    base = load_config()
    leaves = list(float_leaves(base))
    roots = {path[0] for path, _ in leaves}
    assert {"scene_yaws_deg", "policy", "model", "vut_sensor", "rsu_units", "overrides"} <= roots
    for path, number in leaves:
        nudged = with_leaf(base, path, math.nextafter(number, math.inf))
        assert nudged.config_hash() != base.config_hash(), path


def test_unknown_keys_rejected_with_path(tmp_path):
    with pytest.raises(ConfigError, match="top level: speling"):
        load_config(write_cfg(tmp_path, {"speling": 1}))
    with pytest.raises(ConfigError, match="camera: zoom"):
        load_config(write_cfg(tmp_path, {"camera": {"zoom": 2}}))
    with pytest.raises(ConfigError, match="policy: jerk"):
        load_config(write_cfg(tmp_path, {"policy": {"jerk": 1}}))
    # the frame rate fixes the kinematics step, and speeds_kmh lists the speeds
    for gone in ("dt_s", "speed_range"):
        with pytest.raises(ConfigError, match=f"top level: {gone}$"):
            load_config(write_cfg(tmp_path, {gone: {}}))


def test_scenario_list_validation(tmp_path):
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_config(write_cfg(tmp_path, {"scenarios": ["CPNC-99"]}))
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write_cfg(tmp_path, {"scenarios": ["CBNA", "CBNA"]}))
    only = load_config(write_cfg(tmp_path, {"scenarios": ["CBLA"]}))
    assert only.scenarios == (ScenarioKind.CBLA,)


@pytest.mark.parametrize(
    "key, repeated", [("scenarios", ["CBNA", "CBNA"]), ("speeds_kmh", [40, 40.0]), ("scene_yaw_deg", [90, 90.0])]
)
@pytest.mark.parametrize("shape", ["non-list", "empty", "repeated"])
def test_list_keys_share_one_rule(tmp_path, key, repeated, shape):
    # a scalar or an empty list, then a list whose entries repeat once read
    value = {"non-list": repeated[0], "empty": [], "repeated": repeated}[shape]
    message = f"{key}: duplicate entries" if shape == "repeated" else f"{key}: expected a non-empty list"
    with pytest.raises(ConfigError) as err:
        load_config(write_cfg(tmp_path, {key: value}))
    assert str(err.value) == message


def test_explicit_speeds(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40, 20]}))
    assert cfg.speeds_by_kind[ScenarioKind.CBNA] == (20.0, 40.0)
    # 20 km/h exists for the crossing scenarios but not the longitudinal one
    with pytest.raises(ConfigError, match=r"^speeds_kmh: 20 km/h suits no configured scenario; allowed: CBLA 25\.\.60 in steps of 5$"):
        load_config(write_cfg(tmp_path, {"scenarios": ["CBLA"], "speeds_kmh": [20]}))
    with pytest.raises(ConfigError, match="22 km/h suits no configured scenario; allowed: CBNA 20..60"):
        load_config(write_cfg(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [22]}))
    with pytest.raises(ConfigError, match=r"^speeds_kmh: no CBLA speed is listed; allowed: CPNC-50 20\.\.60, CBLA 25\.\.60 in steps of 5$"):
        load_config(write_cfg(tmp_path, {"scenarios": ["CPNC-50", "CBLA"], "speeds_kmh": [20]}))


def test_listed_speeds_apply_per_scenario(tmp_path):
    # each scenario sweeps the listed speeds it allows, as --speeds does
    cfg = load_config(write_cfg(tmp_path, {"speeds_kmh": [20, 25, 60]}))
    assert cfg.speeds_by_kind == {
        ScenarioKind.CPNC50: (20.0, 25.0, 60.0),
        ScenarioKind.CBNA: (20.0, 25.0, 60.0),
        ScenarioKind.CBLA: (25.0, 60.0),
    }
    assert cfg.speeds_by_kind == load_config(speeds_kmh=(20.0, 25.0, 60.0)).speeds_by_kind
    # listing the whole crossing grid gives the default sweep
    every = load_config(write_cfg(tmp_path, {"speeds_kmh": list(range(20, 65, 5))}))
    assert every.canonical_text() == load_config().canonical_text()


def readme_config():
    """The YAML block README gives under "All keys and their defaults"."""
    text = README.read_text(encoding="utf-8")
    block = re.search(r"All keys and their defaults:\n\n```yaml\n(.*?)```", text, re.DOTALL)
    assert block is not None
    return block.group(1)


def test_readme_lists_the_default_config(tmp_path):
    path = tmp_path / "readme.yaml"
    path.write_text(readme_config(), encoding="utf-8")
    documented, defaults = load_config(str(path)), load_config()
    assert documented.canonical_text() == defaults.canonical_text()
    assert documented.out_dir == defaults.out_dir
    assert documented.write_traces == defaults.write_traces


def test_camera_drives_fov_and_pixel_gates(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"camera": {"hfov_deg": 110}}))
    hfov = math.radians(110.0)
    vfov = 2.0 * math.atan(math.tan(hfov / 2.0) * 1080.0 / 1920.0)
    for unit in cfg.all_units():
        assert unit.hfov == pytest.approx(hfov, rel=1e-12)
        assert unit.vfov == pytest.approx(vfov, rel=1e-12)
        assert cfg.model.size_floors(unit) == pytest.approx(
            (15.0 * hfov / 1920.0, 110.0 * hfov / 1920.0), rel=1e-12
        )
    sharp = load_config(write_cfg(tmp_path, {"camera": {"image_width_px": 3840}}))
    assert sharp.model.size_floors(sharp.vut_sensor) == pytest.approx(
        (15.0 * (math.pi / 2) / 3840.0, 110.0 * (math.pi / 2) / 3840.0), rel=1e-12
    )


def test_a_layout_unit_judges_size_by_its_own_aperture(tmp_path):
    # a 30-degree unit spreads its pixels over a third of the 90-degree
    # camera's aperture, so its pixel floors are a third as many radians: a
    # broadside pedestrian 40 or 55 m out is wide and tall enough for it,
    # though not 70 m out
    hfov = math.radians(30.0)
    vfov = 2.0 * math.atan(math.tan(hfov / 2.0) * 1080.0 / 1920.0)
    narrow = SensorUnit("tele", "rsu", MountPose(0.0, 0.0, 3.0, 0.0, 0.0), hfov, vfov, 250.0)
    layout = tmp_path / "layout.txt"
    layout.write_text(format_layout((narrow,)), encoding="utf-8")
    cfg = load_config(write_cfg(tmp_path, {"sensors": {"layout_file": str(layout)}}))
    (unit,) = cfg.rsu_units
    open_road = occluder_slabs(0.0, 0.0, ())

    def detected(x):
        pedestrian = Silhouette(Vec2(x, 0.0), math.pi / 2.0, 0.5, 0.5, 1.8)
        return sense_frame(unit, cfg.model, unit.pose, pedestrian, 0, 0.0, open_road, cfg.model.size_floors(unit)) is not None

    assert [detected(x) for x in (15.0, 40.0, 55.0, 70.0)] == [True, True, True, False]


def test_camera_validation(tmp_path):
    for bad in ({"hfov_deg": 0}, {"hfov_deg": 400}, {"image_width_px": -5}):
        with pytest.raises(ConfigError, match="camera"):
            load_config(write_cfg(tmp_path, {"camera": bad}))


@pytest.mark.parametrize("hfov_deg", [180.5, 270, 360])
def test_hfov_beyond_180_is_rejected_by_its_key(tmp_path, hfov_deg):
    # the vertical aperture 2 atan(tan(hfov / 2) h / w) is negative there
    with pytest.raises(ConfigError, match=r"camera\.hfov_deg"):
        load_config(write_cfg(tmp_path, {"camera": {"hfov_deg": hfov_deg}}))


def test_hfov_of_180_loads(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"camera": {"hfov_deg": 180}}))
    assert all(unit.hfov == math.pi and 0.0 < unit.vfov <= math.pi for unit in cfg.all_units())


def test_policy_section(tmp_path):
    cfg = load_config(
        write_cfg(
            tmp_path,
            {"policy": {"deceleration_mps2": 6.0, "latency_s": 0.05, "confirm_frames": 2}},
        )
    )
    assert cfg.policy.deceleration == 6.0
    assert cfg.policy.latency == 0.05
    assert cfg.policy.confirm_frames == 2
    with pytest.raises(ConfigError, match="deceleration_mps2 must be positive"):
        load_config(write_cfg(tmp_path, {"policy": {"deceleration_mps2": 0}}))
    with pytest.raises(ConfigError, match="policy"):
        load_config(write_cfg(tmp_path, {"policy": {"confirm_frames": 0}}))
    with pytest.raises(ConfigError, match="policy"):
        load_config(write_cfg(tmp_path, {"policy": {"latency_s": -0.1}}))


def test_detection_validation(tmp_path):
    with pytest.raises(ConfigError, match="detection"):
        load_config(write_cfg(tmp_path, {"detection": {"miss_probability": 1.5}}))
    with pytest.raises(ConfigError, match="detection"):
        load_config(write_cfg(tmp_path, {"detection": {"min_height_px": -1}}))
    relaxed = load_config(write_cfg(tmp_path, {"detection": {"min_width_px": 0}}))
    assert relaxed.model.size_floors(relaxed.vut_sensor)[0] == 0.0


def test_scenario_overrides(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"scenario_overrides": {"pedestrian_speed_kmh": 10}}))
    assert cfg.overrides.pedestrian_speed_kmh == 10.0
    with pytest.raises(ConfigError, match="unknown field.*known:"):
        load_config(write_cfg(tmp_path, {"scenario_overrides": {"ped_speed": 10}}))
    with pytest.raises(ConfigError, match="CPNC-50 at 20 km/h: actor dimensions must be positive"):
        load_config(write_cfg(tmp_path, {"scenario_overrides": {"pedestrian_height": 0}}))


@pytest.mark.parametrize(
    "value", [float("nan"), float("inf"), float("-inf"), 10**400],
    ids=["nan", "inf", "-inf", "huge-int"],
)
@pytest.mark.parametrize(
    "build",
    [
        lambda v: {"camera": {"hfov_deg": v}},
        lambda v: {"scene_yaw_deg": [v]},
        lambda v: {"policy": {"latency_s": v}},
        lambda v: {"scenario_overrides": {"vut_length": v}},
    ],
    ids=["camera.hfov_deg", "scene_yaw_deg", "policy.latency_s", "scenario_overrides.vut_length"],
)
def test_non_finite_numbers_rejected(tmp_path, build, value):
    with pytest.raises(ConfigError, match="finite"):
        load_config(write_cfg(tmp_path, build(value)))


@pytest.mark.parametrize("name", ["pedestrian_speed_kmh", "cyclist_speed_kmh"])
@pytest.mark.parametrize("value", [0, -5.0])
def test_vru_speed_must_be_positive(tmp_path, name, value):
    with pytest.raises(ConfigError, match=f"{name} must be positive"):
        load_config(write_cfg(tmp_path, {"scenario_overrides": {name: value}}))


def test_frame_rate_consistency(tmp_path):
    # the scenario frame rate is the one rate key; no unit holds a rate
    cfg = load_config(write_cfg(tmp_path, {"scenario_overrides": {"frame_rate": 20}}))
    assert cfg.overrides.frame_rate == 20.0
    # pinned, so that any change to the canonical text shows here
    assert cfg.config_hash() == "9c9cdc136cfeb222"
    assert load_config().config_hash() == "564464a627e12ab5"
    with pytest.raises(ConfigError, match="sensors: rate_hz"):
        load_config(write_cfg(tmp_path, {"sensors": {"rate_hz": 20}}))


def test_cbla_cyclist_must_be_slower_than_every_swept_speed(tmp_path):
    path = write_cfg(tmp_path, {"scenario_overrides": {"cyclist_speed_kmh": 25}})
    with pytest.raises(ConfigError, match=r"CBLA at 25 km/h: cyclist_speed_kmh \(25\)"):
        load_config(path)
    # the check sees the speeds the speeds_kmh keyword lists
    cfg = load_config(path, speeds_kmh=(30.0,))
    assert cfg.speeds_by_kind[ScenarioKind.CBLA] == (30.0,)
    # without CBLA in the sweep a fast cyclist is fine
    crossing = write_cfg(tmp_path, {"scenarios": ["CPNC-50", "CBNA"], "scenario_overrides": {"cyclist_speed_kmh": 25}})
    assert load_config(crossing, speeds_kmh=(20.0,)).scenarios == (ScenarioKind.CPNC50, ScenarioKind.CBNA)


def test_every_swept_speed_is_built_at_load(tmp_path):
    # the wall must end nearer the conflict point than the cyclist starts;
    # a 40 m gap fits the 45 m approach at 20 km/h but not the 36 m at 25
    path = write_cfg(tmp_path, {"scenarios": ["CPNC-50", "CBNA"], "scenario_overrides": {"wall_end_distance": 40}})
    with pytest.raises(ConfigError, match="CBNA at 25 km/h: Prism"):
        load_config(path)
    assert load_config(path, speeds_kmh=(20.0,)).speeds_by_kind[ScenarioKind.CBNA] == (20.0,)


@pytest.mark.parametrize(
    "rate, message",
    [
        # two 5 us steps a frame, but over a million frames
        (100000, "at 100000 frames/s the CBNA run at 40 km/h takes more than 1e+06 steps of 5e-06 s"),
        # 5 ms steps, but a frame period of 20 million of them
        (1.0e-5, "at 1e-05 frames/s the CBNA run at 40 km/h takes more than 1e+06 steps of 0.005 s"),
        # more frames than an integer can count from a float
        (1.0e308, "takes more than 1e+06 steps"),
    ],
    ids=["two-steps-at-100-khz", "period-1e5-s", "rate-1e308"],
)
def test_run_steps_are_bounded_at_load(tmp_path, rate, message):
    # a run steps its timeline up front, so a run of 10**300 steps would
    # fill memory before its first frame
    data = {"scenarios": ["CBNA"], "speeds_kmh": [40], "scenario_overrides": {"frame_rate": rate}}
    with pytest.raises(ConfigError, match=r"^scenario_overrides\.frame_rate: ") as info:
        load_config(write_cfg(tmp_path, data))
    assert message in str(info.value)


@pytest.mark.parametrize(
    "dt, ok",
    [
        (0.005, True), (0.0025, True), (0.01, True), (0.03, False), (0.05, True),
        (0.06, False), (0.1, False), (0.0, False), (-0.005, False),
    ],
)
def test_config_and_scenario_share_the_step_grid_rule(tmp_path, dt, ok):
    # dt splits the 0.1 s frame period into two or more whole steps exactly
    # when whole 5 ms steps split the period at dt / 0.0005 frames a second
    # the same way; at that rate the config takes the 5 ms step exactly
    # then, and the scenario's timeline steps on the config's step
    rate = dt / 0.0005
    path = write_cfg(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40], "scenario_overrides": {"frame_rate": rate}})
    if rate <= 0:
        with pytest.raises(ConfigError, match=r"^scenario_overrides\.frame_rate"):
            load_config(path)
        assert not ok
        return
    config = load_config(path)
    assert (config.dt == 0.005) == ok
    timeline = build_scenario(ScenarioKind.CBNA, 40.0, config.overrides).timeline
    assert timeline.times[1] == config.dt
    assert timeline.times[timeline.steps_per_frame] == pytest.approx(1.0 / rate, abs=1e-12)


def test_layout_file_replaces_default_units(tmp_path):
    units = [u for u in default_layout() if u.sensor_id in ("rsu1", "rsu8")]
    layout = tmp_path / "layout.txt"
    layout.write_text(format_layout(units), encoding="utf-8")
    cfg = load_config(write_cfg(tmp_path, {"sensors": {"layout_file": str(layout)}}))
    assert [u.sensor_id for u in cfg.rsu_units] == ["rsu1", "rsu8"]
    assert [s.name for s in cfg.subsets] == ["vut", "rsu1", "rsu8", "any"]

    clash = [u for u in default_layout() if u.sensor_id == "rsu1"]
    clash.append(clash[0])  # duplicate id
    layout.write_text(format_layout(clash), encoding="utf-8")
    with pytest.raises(ConfigError, match="unique"):
        load_config(write_cfg(tmp_path, {"sensors": {"layout_file": str(layout)}}))


def test_layout_file_rate_must_match_scenario(tmp_path):
    slow = [u for u in default_layout() if u.sensor_id == "rsu0"]
    layout = tmp_path / "layout.txt"
    layout.write_text(format_layout(slow, 5.0), encoding="utf-8")
    with pytest.raises(ConfigError, match="5 Hz.*10 Hz"):
        load_config(write_cfg(tmp_path, {"sensors": {"layout_file": str(layout)}}))


def test_subset_resolution(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"subsets": ["any", "rsu1", ["vut", "rsu1"]]}))
    assert [s.name for s in cfg.subsets] == ["any", "rsu1", "vut+rsu1"]
    assert cfg.subsets[2].sensor_ids == ("vut", "rsu1")
    assert len(cfg.subsets[0].sensor_ids) == 13

    # by default each sensor alone, the vehicle's first and then the
    # layout's in file order (not sorted by id), then all of them fused
    rsus = {u.sensor_id: u for u in default_layout()}
    layout = tmp_path / "layout.txt"
    layout.write_text(format_layout([replace(rsus["rsu1"], sensor_id="rsu10"), rsus["rsu2"]]), encoding="utf-8")
    cfg = load_config(write_cfg(tmp_path, {"sensors": {"layout_file": str(layout)}}))
    assert [(s.name, s.sensor_ids) for s in cfg.subsets] == [
        ("vut", ("vut",)), ("rsu10", ("rsu10",)), ("rsu2", ("rsu2",)), ("any", ("vut", "rsu10", "rsu2")),
    ]

    with pytest.raises(ConfigError, match="unknown sensor"):
        load_config(write_cfg(tmp_path, {"subsets": ["nope"]}))
    with pytest.raises(ConfigError, match="duplicate sensor"):
        load_config(write_cfg(tmp_path, {"subsets": [["rsu1", "rsu1"]]}))
    with pytest.raises(ConfigError, match="duplicate subset"):
        load_config(write_cfg(tmp_path, {"subsets": ["rsu1", "rsu1"]}))
    with pytest.raises(ConfigError, match="non-empty list"):
        load_config(write_cfg(tmp_path, {"subsets": []}))


def test_subsets_keyword_keeps_request_order():
    cfg = load_config(subsets=("any", "vut"))
    assert [s.name for s in cfg.subsets] == ["any", "vut"]
    # an entry names sensors, as in the file, not a subset of the default list
    with pytest.raises(ConfigError, match=r"^subsets: unknown sensor 'mystery'; known: vut, rsu0, "):
        load_config(subsets=("mystery",))


def test_speeds_keyword_leaves_no_scenario_without_a_speed():
    cfg = load_config(speeds_kmh=(40.0,))
    assert all(v == (40.0,) for v in cfg.speeds_by_kind.values())
    # 20 km/h only exists for the crossing scenarios
    with pytest.raises(ConfigError, match=r"^speeds_kmh: no CBLA speed is listed; allowed: CPNC-50 20\.\.60, "):
        load_config(speeds_kmh=(20.0,))
    with pytest.raises(ConfigError, match=r"^speeds_kmh: 13 km/h suits no configured scenario; "):
        load_config(speeds_kmh=(13.0,))


def test_every_keyword_is_a_documented_top_level_key():
    keywords = [p.name for p in inspect.signature(load_config).parameters.values() if p.kind is p.KEYWORD_ONLY]
    assert keywords == ["seed", "out_dir", "subsets", "speeds_kmh", "write_traces"]
    assert set(keywords) <= set(yaml.safe_load(readme_config()))


@pytest.mark.parametrize(
    "key, in_file, given, bad, message",
    [
        ("seed", 3, 7, True, "seed: expected an integer, got True"),
        ("out_dir", "elsewhere", "cli-dir", "", "out_dir: expected a non-empty string"),
        ("subsets", ["rsu1"], ["any", ["vut", "rsu1"]], ["any", "any"], "subsets: duplicate subset definitions"),
        ("speeds_kmh", [40], [25, 45], [40, 13], "speeds_kmh: 13 km/h suits no configured scenario"),
        ("write_traces", False, True, "yes", "write_traces: expected true/false, got 'yes'"),
    ],
    ids=["seed", "out_dir", "subsets", "speeds_kmh", "write_traces"],
)
def test_cli_style_overrides(tmp_path, key, in_file, given, bad, message):
    # a keyword replaces the top-level key of its name, and that key's rules check it
    cfg = load_config(write_cfg(tmp_path, {key: in_file}), **{key: given})
    same = load_config(write_cfg(tmp_path, {key: given}))
    assert cfg.canonical_text() == same.canonical_text()
    assert cfg.cells() == same.cells()
    assert cfg.subsets == same.subsets
    assert (cfg.out_dir, cfg.write_traces) == (same.out_dir, same.write_traces)
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(**{key: bad})
    with pytest.raises(ConfigError, match=f"^{re.escape(message)}"):
        load_config(write_cfg(tmp_path, {key: bad}))


def test_yaw_list(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"scene_yaw_deg": [0, 90, 180, 270]}))
    assert cfg.scene_yaws_deg == (0.0, 90.0, 180.0, 270.0)
    with pytest.raises(ConfigError, match="scene_yaw_deg"):
        load_config(write_cfg(tmp_path, {"scene_yaw_deg": []}))


def test_top_level_must_be_mapping(tmp_path):
    path = tmp_path / "cfg.yaml"
    path.write_text("- 1\n- 2\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="expected a mapping"):
        load_config(str(path))


def test_missing_file_raises_oserror():
    with pytest.raises(OSError):
        load_config("/nonexistent/config.yaml")


# ------------------------------------------------- the surface as a property

# the frame rates a draw sweeps at: 5 ms steps, 29 steps of 4.9 ms, and
# the default; the rest are out of range or of the wrong type
FRAME_RATES = (5, 7, 10, 25)
# three of the built-in units, so that a layout file and the default
# layout both know every sensor a drawn subset names
LAYOUT_IDS = ("rsu1", "rsu5", "rsu7")


def numbers(lo, hi, *bad):
    """Numbers from [lo, hi] with its bounds, or one of `bad`, the values
    out of range and of the wrong type; a string and a bool always among them."""
    return (st.one_of(st.floats(lo, hi), st.sampled_from((lo, hi))), (*bad, "1", True))


# every key of README's block, each as (its values, its bad values), but
# out_dir and sensors.layout_file, which the test sets; the three list
# keys always hold one entry, so that a draw sweeps one cell
SURFACE = {
    ("scenarios",): (
        st.sampled_from(["CPNC-50", "CBNA", "CBLA"]).map(lambda k: [k]),
        ("CBNA", [], ["CBNA", "CBNA"], ["cbna"], [5]),
    ),
    ("speeds_kmh",): (
        st.sampled_from(range(20, 65, 5)).map(lambda v: [v]),
        ([15], [22.5], [65], 40, [], [40, 40], ["40"], [True]),
    ),
    ("seed",): (st.integers(-(2**64), 2**64), (1.5, "7", True)),
    ("scene_yaw_deg",): (st.floats(-720.0, 720.0).map(lambda v: [v]), (0, [], [90, 90], ["90"], [10**400])),
    ("write_traces",): (st.booleans(), ("yes", 1, None)),
    ("camera", "hfov_deg"): numbers(1e-3, 180.0, 0, -90, 180.5, 360),
    ("camera", "image_width_px"): numbers(5e-324, 8000.0, 0, -1920),
    ("camera", "image_height_px"): numbers(5e-324, 8000.0, 0, -1080),
    ("detection", "min_width_px"): numbers(0.0, 2000.0, -1, 1e400),
    ("detection", "min_height_px"): numbers(0.0, 2000.0, -1, 1e400),
    ("detection", "min_visible_fraction"): numbers(0.0, 1.0, -0.1, 1.1),
    ("detection", "miss_probability"): numbers(0.0, 1.0, -0.1, 1.5),
    ("policy", "deceleration_mps2"): numbers(1e-3, 1e6, 0, -7.72),
    ("policy", "latency_s"): numbers(0.0, 1e6, -0.025),
    ("policy", "confirm_frames"): (st.integers(1, 40), (0, -3, 1.5, True, "3")),
    ("sensors", "range_m"): numbers(1e-3, 1e300, 0, -250),
    ("sensors", "latency_s"): numbers(0.0, 1e6, -0.025),
    ("scenario_overrides", "frame_rate"): (st.sampled_from(FRAME_RATES), (0, -10, 1e-5, 1e5, "10", True)),
    ("subsets",): (
        st.sampled_from([["any"], ["vut"], ["rsu1", ["vut", "rsu1"]], ["any", "rsu5", "rsu7"]]),
        ([], "vut", ["nope"], [["vut", "vut"]], ["any", "any"], 3),
    ),
}
# the other scenario overrides: half to twice the default, and its bounds
SURFACE.update(
    (("scenario_overrides", f.name), numbers(f.default / 2.0, f.default * 2.0, 0, -f.default))
    for f in fields(ScenarioOverrides)
    if f.name != "frame_rate"
)
# keys a draw always sets; it sets up to three others
ALWAYS = (("scenarios",), ("speeds_kmh",), ("scene_yaw_deg",), ("scenario_overrides", "frame_rate"))


def test_the_surface_covers_every_documented_key():
    documented = yaml.safe_load(readme_config())
    leaves = {
        (key, *sub) for key, value in documented.items()
        for sub in ([(name,) for name in value] if isinstance(value, dict) else [()])
    }
    overrides = {("scenario_overrides", f.name) for f in fields(ScenarioOverrides)}
    assert leaves | overrides == set(SURFACE) | {("out_dir",), ("sensors", "layout_file")}


@st.composite
def surface_draws(draw):
    """README's block with the always-set keys and up to three more each
    given a value, one in four of them a bad one."""
    data = yaml.safe_load(readme_config())
    others = [path for path in SURFACE if path not in ALWAYS]
    for path in (*ALWAYS, *draw(st.lists(st.sampled_from(others), max_size=3, unique=True))):
        good, bad = SURFACE[path]
        value = draw(st.sampled_from(bad)) if draw(st.integers(0, 3)) == 3 else draw(good)
        section = data
        for key in path[:-1]:
            section = section.setdefault(key, {})
        section[path[-1]] = value
    return data, draw(st.booleans())


# the summary.csv columns a run may leave undefined
UNDEFINED = {
    "stop_margin_m", "collision_time_s", "first_confirmed_time_s", "brake_trigger_time_s", "last_possible_brake_time_s",
}


def assert_reports_finite(out: Path):
    """No report holds a nan or inf, and NA stands only for a value that
    is undefined: a margin of a run that collided, a contact time of one
    that did not, the trigger of a subset that never confirmed and the
    deadline of a cell that no braking saves; in a trace's summary also
    the observation pass's trigger."""
    written = sorted(p for p in out.rglob("*") if p.suffix in (".csv", ".txt") and p.name != "manifest.txt")
    assert written
    for path in written:
        text = path.read_text(encoding="utf-8")
        for token in re.split(r"[\s,=]+", text):
            try:
                number = float(token)
            except ValueError:
                continue
            assert math.isfinite(number), (path.name, token)
        if path.name == "summary.csv":
            for row in csv.DictReader(io.StringIO(text)):
                na = {key for key, value in row.items() if value == "NA"}
                assert na <= UNDEFINED and row["avoided"] in ("true", "false"), row
                avoided = row["avoided"] == "true"
                assert ("stop_margin_m" in na) != avoided and ("collision_time_s" in na) == avoided, row
                assert ("first_confirmed_time_s" in na) == ("brake_trigger_time_s" in na), row
        elif path.parent.name == "traces":
            summary, rows = text.split("\ntime,", 1)
            head = dict(re.findall(r"(\w+)=(\S+)", summary))
            assert head["first_confirmed_time"] == head["brake_trigger_time"] == "NA", head
            assert (head["collision_time"] == "NA") == (head["avoided"] == "true"), head
            assert "NA" not in re.split(r"[\s,]+", rows), path.name
        else:
            assert "NA" not in re.split(r"[\s,]+", text), path.name


@settings(max_examples=200, suppress_health_check=[HealthCheck.too_slow])
@given(surface_draws())
def test_any_config_is_rejected_at_load_or_reports_only_finite_numbers(draw):
    # a draw over README's keys, at their bounds, out of range and of the
    # wrong type: load_config rejects it, or its one-cell sweep writes
    # only finite numbers
    data, own_layout = draw
    rate = data["scenario_overrides"]["frame_rate"]
    if isinstance(rate, bool) or not isinstance(rate, (int, float)) or rate <= 0:
        rate = 10.0  # the load rejects the rate before it reads the layout
    with tempfile.TemporaryDirectory() as tmp:
        layout = Path(tmp, "layout.txt")
        units = tuple(u for u in default_layout() if u.sensor_id in LAYOUT_IDS)
        layout.write_text(format_layout(units, rate), encoding="utf-8")
        data["out_dir"] = str(Path(tmp, "out"))
        data["sensors"]["layout_file"] = str(layout) if own_layout else None
        path = Path(tmp, "cfg.yaml")
        path.write_text(yaml.safe_dump(data), encoding="utf-8")
        try:
            config = load_config(str(path))
        except ConfigError:
            return
        assert len(config.cells()) == 1
        manifest = emit_reports(run_sweep(config), config.out_dir)
        assert manifest.complete
        assert_reports_finite(Path(config.out_dir))
