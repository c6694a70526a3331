"""Detection pipeline tests.

Apparent-size values are cross-checked by an endpoint-bearing oracle: build
the sight-line-perpendicular segment the formula claims to measure, take the
bearings of its endpoints with atan2, and compare spans.
"""

import math
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vrusim.geometry import MountPose, Prism, Silhouette, Vec2, occluder_slabs, visible_fraction, wrap_angle
from vrusim.scenario import ScenarioKind, build_scenario
from vrusim.sensing import (
    DEFAULT_RSU_HEIGHT,
    DetectionEvent,
    DetectionModel,
    SensorUnit,
    anchor_window,
    apparent_angular_height,
    apparent_angular_width,
    confirm_stream,
    default_layout,
    default_vut_sensor,
    first_confirmed_time,
    format_layout,
    parse_layout,
    reach,
    span_passes,
)

import oracles
from oracles import Pose2, norm, position, sense, world_at


def make_target(vru_pose: Pose2, vru_dims=(0.5, 0.5, 1.8)) -> Silhouette:
    length, width, height = vru_dims
    return Silhouette(position(vru_pose), vru_pose.heading, length, width, height)


RSU_AT_ORIGIN = SensorUnit(
    "r", "rsu", MountPose(0.0, 0.0, 7.0, 0.0, math.radians(-15)), math.radians(90), math.radians(59), 250.0
)


# ------------------------------------------------------------- sense_frame


def test_unoccluded_pedestrian_detected_with_full_fraction():
    target = make_target(Pose2(10.0, 0.0, math.pi / 2))
    unit = RSU_AT_ORIGIN
    ev = sense(unit, DetectionModel(), unit.pose, target, 4, 0.4)  # frame 4 at 10 Hz
    assert ev is not None
    assert visible_fraction(unit.pose, unit.hfov, unit.vfov, unit.max_range, target, ()) == 1.0
    assert ev.frame == 4
    assert ev.available_at == pytest.approx(0.425)


@pytest.mark.parametrize("sensor_id", ["", "a/b", "a\\b", "a,b", " a", "a\t", "a+b"])
def test_sensor_id_must_be_a_plain_name(sensor_id):
    with pytest.raises(ValueError, match="sensor id"):
        replace(RSU_AT_ORIGIN, sensor_id=sensor_id)


@pytest.mark.parametrize("field", ["min_width_px", "min_height_px", "image_width_px"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_detection_model_rejects_non_finite_values(field, value):
    # `apparent < nan` is False, so a NaN floor would switch its gate off
    with pytest.raises(ValueError, match="must be finite"):
        DetectionModel(**{field: value})


def test_target_beyond_range_not_detected():
    target = make_target(Pose2(260.0, 0.0, math.pi / 2))
    assert sense(RSU_AT_ORIGIN, DetectionModel(), RSU_AT_ORIGIN.pose, target, 0, 0.0) is None


def test_cbna_wall_hides_cyclist_30m_out():
    # the wall alone must explain the miss, so size gates are zeroed
    model = DetectionModel(min_width_px=0.0, min_height_px=0.0)
    vut_sensor = default_vut_sensor()
    for speed in (20.0, 40.0, 60.0):
        spec = build_scenario(ScenarioKind.CBNA, speed)
        t_30 = (abs(spec.vru_track.path[0].y) - 30.0) / spec.vru_track.speed
        frame = round(t_30 * spec.frame_rate)
        t = frame / spec.frame_rate
        pose, target = world_at(spec, t, vut_sensor)
        assert abs(target.anchor.y + 30.0) < 0.5
        assert sense(vut_sensor, model, pose, target, frame, t, spec.occluders) is None, speed


def test_vut_mounted_sensor_tracks_the_vehicle():
    sensor = default_vut_sensor()
    pose = sensor.world_pose(10.0, 5.0, math.pi / 2)
    assert (pose.x, pose.y) == pytest.approx((10.0, 5.0))
    assert pose.yaw == pytest.approx(math.pi / 2)
    assert pose.z == pytest.approx(1.6)
    # an offset mount is carried round by the bits of Vec2.rotated
    mount = MountPose(1.3, -0.4, 1.2, 0.3, -0.1)
    offset_unit = replace(sensor, pose=mount)
    for heading in (0.0, 0.7, -2.9, math.pi):
        offset = Vec2(mount.x, mount.y).rotated(heading)
        assert offset_unit.world_pose(-3.1, 7.7, heading) == MountPose(
            -3.1 + offset.x, 7.7 + offset.y, mount.z, heading + mount.yaw, mount.pitch
        )


def test_available_at_always_frame_time_plus_latency():
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    model = DetectionModel()
    n = int(spec.sim_duration * spec.frame_rate)
    for unit in default_layout():
        for frame in range(0, n, 7):
            t = frame / spec.frame_rate
            ev = sense(unit, model, *world_at(spec, t, unit), frame, t, spec.occluders)
            if ev is not None:
                assert ev.available_at == pytest.approx(frame / 10.0 + 0.025, abs=1e-12)


# ------------------------------------------------------------ skip bounds

PROPERTY = settings(max_examples=400, suppress_health_check=[HealthCheck.too_slow])
ANGLE = st.floats(-7.0, 7.0)
EXTENT = st.floats(0.05, 6.0)
WIDE = 2.0 * math.pi
# the image width over WIDE at the default camera's pixels per radian, so
# that the default pixel floors stay the default camera's
WIDE_IMAGE_PX = 4 * DetectionModel.image_width_px


def at_range(sensor: SensorUnit, dist: float, bearing: float, heading: float, dims) -> Silhouette:
    """A target `dist` from the sensor along `bearing`."""
    anchor = Pose2(sensor.pose.x + dist * math.cos(bearing), sensor.pose.y + dist * math.sin(bearing), heading)
    return make_target(anchor, vru_dims=dims)


@st.composite
def beyond_reach(draw):
    """A roadside unit seeing all around, model thresholds, and a target
    whose anchor lies at or past the unit's reach in any direction."""
    sensor = SensorUnit(
        "r",
        "rsu",
        MountPose(draw(st.floats(-50.0, 50.0)), draw(st.floats(-50.0, 50.0)), draw(st.floats(0.2, 15.0)),
                  draw(ANGLE), draw(ANGLE)),
        WIDE,
        WIDE,
        draw(st.floats(0.5, 300.0)),
    )
    model = DetectionModel(
        min_visible_fraction=0.0,
        min_width_px=draw(st.one_of(st.just(0.0), st.floats(0.0, 500.0))),
        min_height_px=draw(st.one_of(st.just(0.0), st.floats(0.0, 1000.0))),
        image_width_px=WIDE_IMAGE_PX,
    )
    dims = (draw(EXTENT), draw(EXTENT), draw(EXTENT))
    limit = reach(sensor, make_target(Pose2(0.0, 0.0, 0.0), vru_dims=dims), model.size_floors(sensor))
    dist = math.nextafter(limit, math.inf) * (1.0 + draw(st.one_of(st.just(0.0), st.floats(0.0, 1e-6), st.floats(0.0, 2.0))))
    return sensor, model, at_range(sensor, dist, draw(ANGLE), draw(ANGLE), dims), limit


@PROPERTY
@given(beyond_reach())
def test_no_detection_beyond_reach(case):
    sensor, model, target, limit = case
    anchor = target.anchor
    if math.hypot(anchor.x - sensor.pose.x, anchor.y - sensor.pose.y) > limit:
        assert sense(sensor, model, sensor.pose, target, 0, 0.0) is None


@pytest.mark.parametrize("kind", [ScenarioKind.CPNC50, ScenarioKind.CBNA], ids=("pedestrian", "cyclist"))
def test_reach_is_tight_for_default_units(kind):
    # just inside its reach, each default unit detects a target of the
    # scenario's size turned to show its widest extent
    track = build_scenario(kind, 40.0).vru_track
    dims = (track.length, track.width, track.height)
    model = DetectionModel(image_width_px=WIDE_IMAGE_PX)
    for unit in default_layout():
        unit = replace(unit, hfov=WIDE, vfov=WIDE)
        limit = reach(unit, make_target(Pose2(0.0, 0.0, 0.0), vru_dims=dims), model.size_floors(unit))
        for bearing in (0.0, 2.0, -2.5):
            widest = bearing + math.atan2(track.length, track.width)
            assert sense(unit, model, unit.pose, at_range(unit, limit * (1 - 1e-4), bearing, widest, dims), 0, 0.0)


# (model, unit range): the visibility floor is off, so that only the
# gates a reach bounds can reject
REACH_GATES = {
    "height": (DetectionModel(min_visible_fraction=0.0, image_width_px=WIDE_IMAGE_PX), 250.0),
    "width": (DetectionModel(min_visible_fraction=0.0, min_height_px=0.0, image_width_px=WIDE_IMAGE_PX), 250.0),
    "range": (DetectionModel(min_visible_fraction=0.0, min_width_px=0.0, min_height_px=0.0), 17.0),
}


@pytest.mark.parametrize("gate", list(REACH_GATES))
def test_last_detecting_range_is_within_reach(gate):
    # the range at which the gate last passes, bisected to adjacent floats,
    # from units of the default height and of two others
    model, max_range = REACH_GATES[gate]
    track = build_scenario(ScenarioKind.CBNA, 40.0).vru_track
    dims = (track.length, track.width, track.height)
    for z in (DEFAULT_RSU_HEIGHT, 2.0, 11.3):
        unit = SensorUnit("r", "rsu", MountPose(1.25, -3.5, z, 0.0, 0.0), WIDE, WIDE, max_range)
        limit = reach(unit, make_target(Pose2(0.0, 0.0, 0.0), vru_dims=dims), model.size_floors(unit))
        for heading in (0.0, 0.7, math.atan2(track.length, track.width)):

            def detects(dist):
                return sense(unit, model, unit.pose, at_range(unit, dist, 0.0, heading, dims), 0, 0.0) is not None

            lo, hi = 1.0, 2.0 * limit
            assert detects(lo) and not detects(hi)
            while math.nextafter(lo, hi) < hi:
                mid = lo + (hi - lo) / 2.0
                if mid in (lo, hi):
                    mid = math.nextafter(lo, hi)
                lo, hi = (mid, hi) if detects(mid) else (lo, mid)
            anchor = at_range(unit, lo, 0.0, heading, dims).anchor
            assert anchor.x - unit.pose.x <= limit


# ------------------------------------------------ frame windows and spans

# half-apertures at pi / 2 and just under it, where the window drops or
# keeps its wedge
HFOV = st.one_of(
    st.sampled_from((math.pi, math.nextafter(math.pi, 0.0), math.pi - 1e-9, math.pi - 1e-6)),
    st.floats(0.05, math.pi),
)


def along(target: Silhouette, s: float) -> Silhouette:
    """`target` moved `s` along its own heading."""
    anchor = Vec2(target.anchor.x + s * math.cos(target.heading), target.anchor.y + s * math.sin(target.heading))
    return Silhouette(anchor, target.heading, target.length, target.width, target.height)


@st.composite
def window_lines(draw):
    """A roadside unit with apertures up to 180 degrees, model gates with
    the visibility floor on or off, and a silhouette whose line runs
    anywhere, through the mount or a nudge beside it; and a fraction."""
    sx, sy, sz = draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)), draw(st.floats(0.3, 10.0))
    heading = draw(ANGLE)
    fx, fy = math.cos(heading), math.sin(heading)
    line = draw(st.sampled_from(("anywhere", "through", "beside")))
    if line == "anywhere":
        ax, ay = sx + draw(st.floats(-40.0, 40.0)), sy + draw(st.floats(-40.0, 40.0))
    else:
        off = 0.0 if line == "through" else draw(st.sampled_from((-2.0, -1e-6, -1e-12, 1e-9, 1e-3, 0.3)))
        t = draw(st.floats(-40.0, 40.0))
        ax, ay = sx + fx * t - fy * off, sy + fy * t + fx * off
    pose = MountPose(sx, sy, sz, draw(ANGLE), draw(st.floats(-1.2, 0.5)))
    unit = SensorUnit("r", "rsu", pose, draw(HFOV), draw(st.floats(0.2, math.pi)), draw(st.floats(2.0, 150.0)))
    model = DetectionModel(
        min_visible_fraction=draw(st.sampled_from((0.0, 1.0 / 9.0, 0.5, 1.0))),
        min_width_px=draw(st.sampled_from((0.0, 15.0))),
        min_height_px=draw(st.sampled_from((0.0, 110.0))),
    )
    dims = (draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 1.5)), draw(st.floats(0.5, 2.5)))
    return unit, model, make_target(Pose2(ax, ay, heading), vru_dims=dims), draw(st.floats(0.0, 1.0))


@PROPERTY
@given(window_lines())
def test_no_anchor_outside_the_window_passes(case):
    # just past either end of the window, and farther out; anywhere on a
    # line whose window is empty
    unit, model, target, u = case
    lo, hi = anchor_window(unit, model, model.size_floors(unit), target)
    if lo > hi:
        outside = (120.0 * u - 60.0, 0.0)
    else:
        outside = (math.nextafter(lo, -math.inf) - 60.0 * u, math.nextafter(hi, math.inf) + 60.0 * u)
    for s in outside:
        assert oracles.sense_reference(unit, model, unit.pose, along(target, s), 0, 0.0, ()) is None


def test_a_180_degree_window_keeps_a_far_anchor_on_the_aperture_edge():
    # a half-aperture of pi / 2 plus the kernel's allowance is no wedge:
    # its two edge half-planes would meet in less than the half-plane in
    # front, and miss an anchor square to the unit by more than the padding
    unit = SensorUnit("r", "rsu", MountPose(0.0, 0.0, 1.0, 0.0, 0.0), math.pi, math.pi, 2000.0)
    model = DetectionModel(min_width_px=0.0, min_height_px=0.0)
    target = make_target(Pose2(0.0, 0.0, math.pi / 2.0))
    lo, hi = anchor_window(unit, model, model.size_floors(unit), target)
    assert lo <= 1500.0 <= hi
    assert oracles.sense_reference(unit, model, unit.pose, along(target, 1500.0), 0, 0.0, ())


SPAN_EDGES = ("none", "range", "aperture", "height", "prism")


@st.composite
def swept_spans(draw):
    """A roadside unit aimed near a run of frames along one line, evenly
    spaced and the last ones possibly clamped at the leg's end, with the
    unit's range, aperture or height floor at what the run needs, give or
    take a nudge, or a prism near the sight lines."""
    sx, sy, sz = draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)), draw(st.floats(0.3, 10.0))
    dist, theta = draw(st.floats(3.0, 60.0)), draw(ANGLE)
    dims = (draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 1.5)), draw(st.floats(0.5, 2.5)))
    middle = make_target(Pose2(sx + dist * math.cos(theta), sy + dist * math.sin(theta), draw(ANGLE)), vru_dims=dims)
    frames, step = draw(st.integers(2, 16)), draw(st.floats(0.0, 0.6))
    moving = frames - draw(st.integers(0, frames - 1))
    offsets = [(min(i, moving - 1) - (frames - 1) / 2.0) * step for i in range(frames)]
    targets = [along(middle, s) for s in offsets]
    pose = MountPose(sx, sy, sz, theta + draw(st.floats(-0.6, 0.6)), math.atan2(1.0 - sz, dist) + draw(st.floats(-0.3, 0.3)))
    hfov, vfov, max_range = draw(st.floats(0.5, math.pi)), draw(st.floats(1.0, math.pi)), 2.0 * dist + 10.0
    model = DetectionModel(min_width_px=draw(st.sampled_from((0.0, 5.0))), min_height_px=draw(st.sampled_from((0.0, 20.0))))
    edge, nudge = draw(st.sampled_from(SPAN_EDGES)), draw(st.sampled_from((-1e-6, -1e-9, 0.0, 1e-9, 1e-6, 0.05)))
    occluders = ()
    if edge == "range":
        max_range = max(math.dist((sx, sy, sz), p) for t in targets for p in t.points) * (1.0 + nudge)
    elif edge == "aperture":
        hfov = 2.0 * max(abs(wrap_angle(math.atan2(p[1] - sy, p[0] - sx) - pose.yaw)) for t in targets for p in t.points)
        hfov = min(hfov * (1.0 + nudge), math.pi)
    elif edge == "height":
        unit = SensorUnit("r", "rsu", pose, hfov, vfov, max_range)
        least = min(apparent_angular_height(pose, t, ground_range(pose, t)) for t in targets)
        model = replace(model, min_height_px=least * (1.0 + nudge) * model.image_width_px / hfov)
    elif edge == "prism":
        r, bearing = dist * draw(st.floats(0.2, 0.9)), theta + draw(st.floats(-0.3, 0.3))
        centre = Vec2(sx + r * math.cos(bearing), sy + r * math.sin(bearing))
        occluders = (Prism(centre, draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0)), draw(ANGLE), height=draw(st.floats(0.2, 8.0))),)
    return SensorUnit("r", "rsu", pose, hfov, vfov, max_range), model, targets, occluders


@PROPERTY
@given(swept_spans())
def test_every_frame_of_an_accepted_span_is_wholly_visible(case):
    unit, model, targets, occluders = case
    slabs = occluder_slabs(unit.pose.x, unit.pose.y, occluders)
    if span_passes(unit, model.size_floors(unit), targets[0], targets[-1], slabs):
        whole = replace(model, min_visible_fraction=1.0)
        for frame, target in enumerate(targets):
            assert oracles.sense_reference(unit, whole, unit.pose, target, frame, 0.0, occluders) is not None


# ---------------------------------------------------------- apparent sizes


def ground_range(sensor_pose, target):
    """The ground distance sense_frame's range gate passes on."""
    return math.hypot(target.anchor.x - sensor_pose.x, target.anchor.y - sensor_pose.y)


def endpoint_span(sensor_pose: MountPose, target: Silhouette) -> float:
    """Bearing span of the perpendicular-projected extent segment."""
    dx = target.anchor.x - sensor_pose.x
    dy = target.anchor.y - sensor_pose.y
    bearing = math.atan2(dy, dx)
    delta = target.heading - bearing
    w_perp = target.length * abs(math.sin(delta)) + target.width * abs(math.cos(delta))
    nx, ny = -math.sin(bearing), math.cos(bearing)
    e1 = (target.anchor.x + nx * w_perp / 2, target.anchor.y + ny * w_perp / 2)
    e2 = (target.anchor.x - nx * w_perp / 2, target.anchor.y - ny * w_perp / 2)
    b1 = math.atan2(e1[1] - sensor_pose.y, e1[0] - sensor_pose.x)
    b2 = math.atan2(e2[1] - sensor_pose.y, e2[0] - sensor_pose.x)
    return abs(wrap_angle(b1 - b2))


def test_broadside_cyclist_width():
    pose = MountPose(0, 0, 1.6, 0.0, 0.0)
    target = Silhouette(Vec2(10, 0), math.pi / 2, 1.8, 0.5, 1.8)
    got = apparent_angular_width(pose, target, ground_range(pose, target))
    assert got == pytest.approx(2 * math.atan(0.9 / 10.0), abs=1e-12)
    assert got == pytest.approx(0.1791, abs=1e-3)
    assert got == pytest.approx(endpoint_span(pose, target), abs=1e-12)


def test_headon_cyclist_width():
    pose = MountPose(0, 0, 1.6, 0.0, 0.0)
    target = Silhouette(Vec2(10, 0), 0.0, 1.8, 0.5, 1.8)
    got = apparent_angular_width(pose, target, ground_range(pose, target))
    assert got == pytest.approx(2 * math.atan(0.25 / 10.0), abs=1e-12)
    assert got == pytest.approx(endpoint_span(pose, target), abs=1e-12)


def test_width_matches_endpoint_oracle_for_random_poses():
    rnd = random.Random(17)
    pose = MountPose(0, 0, 7.0, 0.0, 0.0)
    for _ in range(500):
        target = Silhouette(
            Vec2(rnd.uniform(-40, 40), rnd.uniform(-40, 40)),
            rnd.uniform(-math.pi, math.pi),
            rnd.uniform(0.3, 2.5),
            rnd.uniform(0.2, 1.0),
            1.8,
        )
        if norm(target.anchor) < 1.0:
            continue
        assert apparent_angular_width(pose, target, ground_range(pose, target)) == pytest.approx(
            endpoint_span(pose, target), abs=1e-9
        )


def test_width_decreases_with_distance():
    pose = MountPose(0, 0, 1.6, 0.0, 0.0)
    targets = [Silhouette(Vec2(d, 0), math.pi / 2, 1.8, 0.5, 1.8) for d in (5, 10, 20, 40, 80, 160)]
    widths = [apparent_angular_width(pose, target, ground_range(pose, target)) for target in targets]
    assert widths == sorted(widths, reverse=True)


def test_height_uses_slant_range():
    pose = MountPose(0, 0, 7.0, 0.0, 0.0)
    target = Silhouette(Vec2(10, 0), 0.0, 0.5, 0.5, 1.8)
    slant = math.hypot(10.0, 7.0 - 0.9)
    got = apparent_angular_height(pose, target, ground_range(pose, target))
    assert got == pytest.approx(2 * math.atan(0.9 / slant), abs=1e-12)


def test_zero_distance_rejected():
    pose = MountPose(0, 0, 7.0, 0.0, 0.0)
    target = Silhouette(Vec2(0, 0), 0.0, 0.5, 0.5, 1.8)
    with pytest.raises(ValueError):
        apparent_angular_width(pose, target, ground_range(pose, target))
    with pytest.raises(ValueError):
        apparent_angular_height(pose, target, ground_range(pose, target))


def test_size_floors_follow_the_units_aperture():
    # one pixel spans a unit's hfov over the image width, across and up
    model = DetectionModel()
    assert model.size_floors(RSU_AT_ORIGIN) == (15.0 * (math.pi / 2) / 1920.0, 110.0 * (math.pi / 2) / 1920.0)
    narrow = replace(RSU_AT_ORIGIN, hfov=math.radians(30.0))
    assert model.size_floors(narrow) == pytest.approx(tuple(f / 3.0 for f in model.size_floors(RSU_AT_ORIGIN)))


# ------------------------------------------------------------- confirmation


def ev(frame, available=None):
    return DetectionEvent(frame, frame / 10.0 + 0.025 if available is None else available)


def test_confirm_three_consecutive():
    assert confirm_stream([ev(1), ev(2), ev(3)], 3) == [pytest.approx(0.325)]


def test_confirm_gap_resets_run():
    out = confirm_stream([ev(1), ev(2), ev(4), ev(5), ev(6)], 3)
    assert out == [pytest.approx(0.625)]


def test_confirm_empty_stream():
    assert confirm_stream([], 3) == []


def test_confirm_once_per_run():
    out = confirm_stream([ev(f) for f in range(1, 10)], 3)
    assert len(out) == 1
    out = confirm_stream([ev(1), ev(2), ev(3), ev(7), ev(8), ev(9), ev(10)], 3)
    assert len(out) == 2
    assert out[0] == pytest.approx(0.325)
    assert out[1] == pytest.approx(0.925)


def test_confirm_k1_confirms_each_run_start():
    out = confirm_stream([ev(2), ev(5)], 1)
    assert out == [pytest.approx(0.225), pytest.approx(0.525)]


def test_confirmation_nondecreasing_in_k():
    events = [ev(f) for f in (1, 2, 3, 4, 8, 9, 10, 11, 12)]
    prev = None
    for k in (1, 2, 3, 4, 5):
        confs = confirm_stream(events, k)
        first = confs[0] if confs else math.inf
        if prev is not None:
            assert first >= prev
        prev = first


@pytest.mark.parametrize("frames", [(1, 2, 2), (3, 2)], ids=["repeat", "back"])
def test_confirmation_rejects_a_stream_out_of_frame_order(frames):
    streams = {"a": [ev(3), ev(4), ev(5)], "b": [ev(f) for f in frames]}
    with pytest.raises(ValueError, match="strictly ordered by frame"):
        first_confirmed_time(streams, 3, ("a", "b"))


def test_fusion_is_min_over_singletons():
    streams = {
        "a": [ev(3), ev(4), ev(5)],
        "b": [ev(1), ev(2), ev(3)],
        "c": [],
    }
    t_any = first_confirmed_time(streams, 3, ("a", "b", "c"))
    singles = [first_confirmed_time(streams, 3, (sid,)) for sid in ("a", "b", "c")]
    assert t_any == min(s for s in singles if s is not None)
    assert singles[2] is None


def test_fusion_rejects_unknown_id():
    with pytest.raises(ValueError, match="ghost"):
        first_confirmed_time({"a": []}, 3, ("a", "ghost"))


def test_confirmation_never_earlier_with_stricter_gates():
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    sensors = [default_vut_sensor(), *default_layout()]
    n = int(spec.sim_duration * spec.frame_rate) + 1

    def streams(model):
        out = {u.sensor_id: [] for u in sensors}
        for frame in range(n):
            t = frame / spec.frame_rate
            for u in sensors:
                e = sense(u, model, *world_at(spec, t, u), frame, t, spec.occluders)
                if e is not None:
                    out[u.sensor_id].append(e)
        return out

    base = streams(DetectionModel())
    strict = streams(
        DetectionModel(min_visible_fraction=0.8, min_width_px=40.0)
    )
    ids = tuple(u.sensor_id for u in sensors)
    t_base = first_confirmed_time(base, 3, ids)
    t_strict = first_confirmed_time(strict, 3, ids)
    assert t_base is not None
    assert t_strict is None or t_strict >= t_base
    for sid in ids:
        assert len(strict[sid]) <= len(base[sid])


# ------------------------------------------------------------ random misses


def test_zero_miss_probability_is_deterministic():
    target, pose = make_target(Pose2(10.0, 0.0, math.pi / 2)), RSU_AT_ORIGIN.pose
    a = sense(RSU_AT_ORIGIN, DetectionModel(seed=1), pose, target, 3, 0.3)
    b = sense(RSU_AT_ORIGIN, DetectionModel(seed=2), pose, target, 3, 0.3)
    assert a == b


def test_certain_miss_never_detects():
    target, pose = make_target(Pose2(10.0, 0.0, math.pi / 2)), RSU_AT_ORIGIN.pose
    model = DetectionModel(miss_probability=1.0)
    assert all(sense(RSU_AT_ORIGIN, model, pose, target, f, 0.0) is None for f in range(50))


def test_miss_coin_reproducible_and_seed_sensitive():
    target, pose = make_target(Pose2(10.0, 0.0, math.pi / 2)), RSU_AT_ORIGIN.pose
    m1 = DetectionModel(miss_probability=0.5, seed=7)
    m2 = DetectionModel(miss_probability=0.5, seed=8)
    run1 = [sense(RSU_AT_ORIGIN, m1, pose, target, f, 0.0) is not None for f in range(200)]
    run1b = [sense(RSU_AT_ORIGIN, m1, pose, target, f, 0.0) is not None for f in range(200)]
    run2 = [sense(RSU_AT_ORIGIN, m2, pose, target, f, 0.0) is not None for f in range(200)]
    assert run1 == run1b
    assert run1 != run2
    assert 40 < sum(run1) < 160  # roughly half survive


# ----------------------------------------------------------------- layouts


def test_default_layout_shape():
    layout = default_layout()
    assert len(layout) == 12
    ids = [u.sensor_id for u in layout]
    assert len(set(ids)) == 12
    for u in layout:
        assert u.mount == "rsu"
        assert u.pose.z == 7.0
        assert u.max_range == 250.0


def test_default_vfov_matches_image_aspect():
    s = default_vut_sensor()
    want = 2 * math.atan(math.tan(math.radians(45)) * 1080 / 1920)
    assert s.vfov == pytest.approx(want)
    assert math.degrees(s.vfov) == pytest.approx(58.7, abs=0.1)


def test_layout_roundtrip():
    units = (default_vut_sensor(), *default_layout())
    for rate in (10.0, 20.0):
        text = format_layout(units, rate)
        assert {line.split(",")[10] for line in text.splitlines()[1:]} == {f"{rate:g}"}
        parsed = parse_layout(text, rate)
        assert len(parsed) == len(units)
        for a, b in zip(parsed, units):
            assert a.sensor_id == b.sensor_id
            assert a.mount == b.mount
            assert a.pose.x == pytest.approx(b.pose.x)
            assert a.pose.yaw == pytest.approx(b.pose.yaw)
            assert a.hfov == pytest.approx(b.hfov)
            assert a.latency == pytest.approx(b.latency)


def test_layout_rate_reads_back_at_any_scenario_rate():
    # 1/0.07 Hz needs more than the six digits the other columns get; the
    # rates that six digits hold keep their bytes
    units = default_layout()[:2]
    for rate, text in ((1 / 0.07, "14.285714285714285"), (10.0, "10"), (20.0, "20"), (25.0, "25")):
        layout = format_layout(units, rate)
        assert {line.split(",")[10] for line in layout.splitlines()[1:]} == {text}
        assert [u.sensor_id for u in parse_layout(layout, rate)] == ["rsu0", "rsu1"]
    with pytest.raises(ValueError, match="runs at 14 Hz but the scenario frame rate is 14.285714285714285 Hz"):
        parse_layout(format_layout(units, 14.0), 1 / 0.07)


def test_layout_parse_errors_name_lines():
    good = format_layout((default_vut_sensor(),))
    with pytest.raises(ValueError, match="line 1"):
        parse_layout("id,mount,x\n")
    with pytest.raises(ValueError, match="line 2"):
        parse_layout(good.splitlines()[0] + "\nvut,vut,0,0\n")
    with pytest.raises(ValueError, match="header"):
        parse_layout("\n# only a comment\n")
    # a row at another rate than the scenario's names its line
    mixed = good + format_layout(default_layout()[:1], 20.0).splitlines()[1] + "\n"
    parse_layout(good, 10.0)
    with pytest.raises(ValueError, match="line 3: sensor 'rsu0' runs at 20 Hz .* 10 Hz"):
        parse_layout(mixed, 10.0)


# --------------------------------------------- integration with the scenario


def test_rsu1_picks_up_cbna_cyclist_near_entry():
    spec = build_scenario(ScenarioKind.CBNA, 50.0)
    rsu1 = next(u for u in default_layout() if u.sensor_id == "rsu1")
    model = DetectionModel()
    events = []
    n = int(spec.sim_duration * spec.frame_rate) + 1
    for frame in range(n):
        t = frame / spec.frame_rate
        pose, target = world_at(spec, t, rsu1)
        e = sense(rsu1, model, pose, target, frame, t, spec.occluders)
        if e is not None:
            events.append((frame, target.anchor.y))
    assert events, "rsu1 must see the cyclist"
    first_y = events[0][1]
    # frustum edge lies where the cyclist passes y = -12
    assert -12.5 < first_y < -11.0
    stream = [
        e for e in (sense(rsu1, model, *world_at(spec, f / 10.0, rsu1), f, f / 10.0, spec.occluders) for f in range(n)) if e
    ]
    assert confirm_stream(stream, 3)


def test_away_facing_rsu_never_sees_cbna():
    spec = build_scenario(ScenarioKind.CBNA, 30.0)
    rsu8 = next(u for u in default_layout() if u.sensor_id == "rsu8")
    model = DetectionModel(min_width_px=0.0, min_height_px=0.0)
    n = int(spec.sim_duration * spec.frame_rate) + 1
    for frame in range(n):
        t = frame / spec.frame_rate
        assert sense(rsu8, model, *world_at(spec, t, rsu8), frame, t, spec.occluders) is None
