"""Configuration loading: defaults, unit conversion, strictness, hashing."""

import math
import re
import tempfile
import time
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from vrusim.config import ConfigError, load_config
from vrusim.geometry import MountPose, Silhouette, Vec2, occluder_slabs
from vrusim.scenario import ScenarioKind, allowed_speeds_kmh, build_scenario
from vrusim.sensing import DetectionModel, SensorUnit, default_layout, format_layout, sense_frame

from oracles import speed_range_picks

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


def test_unknown_keys_rejected_with_path(tmp_path):
    with pytest.raises(ConfigError, match="top level: speling"):
        load_config(write_cfg(tmp_path, {"speling": 1}))
    with pytest.raises(ConfigError, match="camera: zoom"):
        load_config(write_cfg(tmp_path, {"camera": {"zoom": 2}}))
    with pytest.raises(ConfigError, match="policy: jerk"):
        load_config(write_cfg(tmp_path, {"policy": {"jerk": 1}}))
    with pytest.raises(ConfigError, match="speed_range: stride"):
        load_config(write_cfg(tmp_path, {"speed_range": {"stride": 5}}))


def test_scenario_list_validation(tmp_path):
    with pytest.raises(ConfigError, match="unknown scenario"):
        load_config(write_cfg(tmp_path, {"scenarios": ["CPNC-99"]}))
    with pytest.raises(ConfigError, match="duplicate"):
        load_config(write_cfg(tmp_path, {"scenarios": ["CBNA", "CBNA"]}))
    only = load_config(write_cfg(tmp_path, {"scenarios": ["CBLA"]}))
    assert only.scenarios == (ScenarioKind.CBLA,)


def test_explicit_speeds(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40, 20]}))
    assert cfg.speeds_by_kind[ScenarioKind.CBNA] == (20.0, 40.0)
    # 20 km/h exists for the crossing scenarios but not the longitudinal one
    with pytest.raises(ConfigError, match=r"not a CBLA sweep speed.*25\.\.60"):
        load_config(write_cfg(tmp_path, {"scenarios": ["CBLA"], "speeds_kmh": [20]}))
    with pytest.raises(ConfigError, match="not a CBNA sweep speed"):
        load_config(write_cfg(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [22]}))


def test_speed_range_clips_per_scenario(tmp_path):
    cfg = load_config(write_cfg(tmp_path, {"speed_range": {"min_kmh": 20, "max_kmh": 60}}))
    assert cfg.speeds_by_kind[ScenarioKind.CPNC50][0] == 20.0
    assert cfg.speeds_by_kind[ScenarioKind.CBLA][0] == 25.0
    assert len(cfg.speeds_by_kind[ScenarioKind.CBLA]) == 8

    narrow = load_config(write_cfg(tmp_path, {"speed_range": {"min_kmh": 30, "max_kmh": 40}}))
    assert narrow.speeds_by_kind[ScenarioKind.CBNA] == (30.0, 35.0, 40.0)

    with pytest.raises(ConfigError, match="selects no"):
        load_config(write_cfg(tmp_path, {"speed_range": {"min_kmh": 61, "max_kmh": 64}}))
    with pytest.raises(ConfigError, match="step_kmh must be positive"):
        load_config(write_cfg(tmp_path, {"speed_range": {"step_kmh": 0}}))
    with pytest.raises(ConfigError, match="at least min_kmh"):
        load_config(write_cfg(tmp_path, {"speed_range": {"min_kmh": 50, "max_kmh": 40}}))


# grid-aligned values, where a pick hinges on the rounding, and any others
RANGE_ENDS = st.one_of(st.integers(0, 140).map(lambda n: n / 2), st.floats(0.0, 70.0))
RANGE_STEPS = st.one_of(st.sampled_from((0.01, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0)), st.floats(0.01, 30.0))


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(lo=RANGE_ENDS, width=RANGE_ENDS, step=RANGE_STEPS)
def test_speed_range_picks_what_walking_the_range_picks(lo, width, step):
    hi = lo + width
    data = {"speed_range": {"min_kmh": lo, "max_kmh": hi, "step_kmh": step}}
    want = {kind: speed_range_picks(allowed_speeds_kmh(kind), lo, hi, step) for kind in ScenarioKind}
    with tempfile.TemporaryDirectory() as tmp:
        path = write_cfg(Path(tmp), data)
        if not all(want.values()):
            with pytest.raises(ConfigError, match="selects no"):
                load_config(path)
            return
        assert load_config(path).speeds_by_kind == want


def test_speed_range_with_a_tiny_step_resolves_at_once(tmp_path):
    # walking 40 km/h in 1e-12 steps would never end
    start = time.perf_counter()
    cfg = load_config(write_cfg(tmp_path, {"speed_range": {"step_kmh": 1.0e-12}}))
    assert time.perf_counter() - start < 1.0
    assert cfg.speeds_by_kind == {kind: allowed_speeds_kmh(kind) for kind in ScenarioKind}


def test_readme_lists_the_default_config(tmp_path):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"All keys and their defaults:\n\n```yaml\n(.*?)```", text, re.DOTALL)
    assert block is not None
    path = tmp_path / "readme.yaml"
    path.write_text(block.group(1), encoding="utf-8")
    documented, defaults = load_config(str(path)), load_config()
    assert documented.canonical_text() == defaults.canonical_text()
    assert documented.out_dir == defaults.out_dir
    assert documented.write_traces == defaults.write_traces


def test_speeds_and_range_are_exclusive(tmp_path):
    with pytest.raises(ConfigError, match="not both"):
        load_config(write_cfg(tmp_path, {"speeds_kmh": [40], "speed_range": {}}))


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
        return sense_frame(unit, cfg.model, unit.pose, pedestrian, 0, 0.0, open_road) is not None

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
        lambda v: {"dt_s": v},
        lambda v: {"scene_yaw_deg": [v]},
        lambda v: {"policy": {"latency_s": v}},
        lambda v: {"scenario_overrides": {"vut_length": v}},
    ],
    ids=["dt_s", "scene_yaw_deg", "policy.latency_s", "scenario_overrides.vut_length"],
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
    # the same resolved values, hence the same hashes, as when two keys set it
    assert cfg.config_hash() == "faaba1702b2dd4b7"
    assert load_config().config_hash() == "ab7123af88884a6a"
    with pytest.raises(ConfigError, match="sensors: rate_hz"):
        load_config(write_cfg(tmp_path, {"sensors": {"rate_hz": 20}}))


def test_cbla_cyclist_must_be_slower_than_every_swept_speed(tmp_path):
    path = write_cfg(tmp_path, {"scenario_overrides": {"cyclist_speed_kmh": 25}})
    with pytest.raises(ConfigError, match=r"CBLA at 25 km/h: cyclist_speed_kmh \(25\)"):
        load_config(path)
    # the check sees the speeds left after the command-line filter
    cfg = load_config(path, speed_filter=(30.0,))
    assert cfg.speeds_by_kind[ScenarioKind.CBLA] == (30.0,)
    # without CBLA in the sweep a fast cyclist is fine
    assert load_config(path, speed_filter=(20.0,)).scenarios == (ScenarioKind.CPNC50, ScenarioKind.CBNA)


def test_every_swept_speed_is_built_at_load(tmp_path):
    # the wall must end nearer the conflict point than the cyclist starts;
    # a 40 m gap fits the 45 m approach at 20 km/h but not the 36 m at 25
    path = write_cfg(tmp_path, {"scenario_overrides": {"wall_end_distance": 40}})
    with pytest.raises(ConfigError, match="CBNA at 25 km/h: OrientedBox"):
        load_config(path)
    assert load_config(path, speed_filter=(20.0,)).speeds_by_kind[ScenarioKind.CBNA] == (20.0,)


def test_dt_must_divide_frame_period(tmp_path):
    with pytest.raises(ConfigError, match="divide"):
        load_config(write_cfg(tmp_path, {"dt_s": 0.03}))
    with pytest.raises(ConfigError, match="positive"):
        load_config(write_cfg(tmp_path, {"dt_s": -0.01}))
    cfg = load_config(write_cfg(tmp_path, {"dt_s": 0.01}))
    assert cfg.dt == 0.01


@pytest.mark.parametrize(
    "dt, ok",
    [
        (0.005, True), (0.0025, True), (0.01, True), (0.03, False), (0.05, True),
        (0.06, False), (0.1, False), (0.0, False), (-0.005, False),
    ],
)
def test_config_and_scenario_share_the_step_grid_rule(tmp_path, dt, ok):
    # the 0.1 s frame period must split into two or more whole dt steps
    try:
        load_config(write_cfg(tmp_path, {"scenarios": ["CBNA"], "speeds_kmh": [40], "dt_s": dt}))
        config_ok = True
    except ConfigError:
        config_ok = False
    try:
        build_scenario(ScenarioKind.CBNA, 40.0).timeline(dt)
        scenario_ok = True
    except ValueError:
        scenario_ok = False
    assert config_ok == scenario_ok == ok


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

    with pytest.raises(ConfigError, match="unknown sensor"):
        load_config(write_cfg(tmp_path, {"subsets": ["nope"]}))
    with pytest.raises(ConfigError, match="duplicate sensor"):
        load_config(write_cfg(tmp_path, {"subsets": [["rsu1", "rsu1"]]}))
    with pytest.raises(ConfigError, match="duplicate subset"):
        load_config(write_cfg(tmp_path, {"subsets": ["rsu1", "rsu1"]}))
    with pytest.raises(ConfigError, match="non-empty list"):
        load_config(write_cfg(tmp_path, {"subsets": []}))


def test_subset_filter_keeps_request_order():
    cfg = load_config(subset_filter=("any", "vut"))
    assert [s.name for s in cfg.subsets] == ["any", "vut"]
    with pytest.raises(ConfigError, match="not configured.*available"):
        load_config(subset_filter=("mystery",))


def test_speed_filter_drops_empty_scenarios():
    cfg = load_config(speed_filter=(40.0,))
    assert all(v == (40.0,) for v in cfg.speeds_by_kind.values())
    # 20 km/h only exists for the crossing scenarios
    cfg20 = load_config(speed_filter=(20.0,))
    assert ScenarioKind.CBLA not in cfg20.scenarios
    assert ScenarioKind.CBNA in cfg20.scenarios
    with pytest.raises(ConfigError, match="removes every"):
        load_config(speed_filter=(13.0,))


def test_cli_style_overrides(tmp_path):
    cfg = load_config(
        write_cfg(tmp_path, {"out_dir": "elsewhere"}),
        out_dir="cli-dir",
        write_traces=True,
    )
    assert cfg.out_dir == "cli-dir"
    assert cfg.write_traces is True


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
