"""Scenario construction tests.

The load-bearing check is criticality: every (kind, speed) cell must
actually collide when nothing brakes, verified against a 1000 Hz frame
scan rather than the coarse 10 Hz frames or the 5 ms steps the library
uses.
"""

import math
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vrusim.aeb import AebPolicy, simulate_run
from vrusim.geometry import Vec2, occluder_slabs, visible_fraction
from vrusim.scenario import (
    KMH,
    ActorTrack,
    ScenarioKind,
    ScenarioOverrides,
    VruTrack,
    allowed_speeds_kmh,
    build_scenario,
    kinematics_grid,
    rotate_scenario,
)
from vrusim.sensing import DetectionModel, default_vut_sensor

from oracles import footprint, nominal_collision_check, norm, obb_overlap, pose_at, sub, world_at

ALL_CELLS = [
    (kind, speed)
    for kind in ScenarioKind
    for speed in allowed_speeds_kmh(kind)
]

# both footprints would meet here unbraked, in every scenario
CONFLICT_POINT = Vec2(0.0, 0.0)


def stepped_contact(spec):
    """The first contact of the spec's unbraked run, on its kinematics steps."""
    return simulate_run(spec, (), DetectionModel(), AebPolicy(), sense=False).outcome.collision_time


def first_overlap_fine(spec, around, window=2.0, hz=1000):
    """Independent fine-grained scan within `window` of `around`."""
    t0 = max(0.0, around - window)
    t1 = min(spec.sim_duration, around + window)
    n0, n1 = int(t0 * hz), int(t1 * hz) + 1
    for i in range(n0, n1):
        t = i / hz
        vut_pose = pose_at(spec.vut_track, spec.vut_track.speed * t)
        vru_pose = pose_at(spec.vru_track, spec.vru_track.speed * t)
        if obb_overlap(footprint(spec.vut_track, vut_pose), footprint(spec.vru_track, vru_pose)):
            return t
    return None


# ------------------------------------------------------------- criticality


def test_all_cells_are_critical():
    assert len(ALL_CELLS) == 26
    for kind, speed in ALL_CELLS:
        spec = build_scenario(kind, speed)
        t10 = nominal_collision_check(spec)
        assert t10 is not None, (kind, speed)
        # the first overlapping frame is the first at or after the onset
        t_fine = first_overlap_fine(spec, t10)
        assert 0.0 <= t10 - t_fine < 1.0 / spec.frame_rate, (kind, speed)


def test_fine_scan_confirms_stepped_onset():
    for kind, speed in ALL_CELLS:
        spec = build_scenario(kind, speed)
        t_step = stepped_contact(spec)
        t_fine = first_overlap_fine(spec, t_step)
        assert t_fine is not None, (kind, speed)
        # the first contact on the 5 ms steps is the first step at or after
        # the onset, which the 1000 Hz scan places within one of its steps;
        # a touch at a step's end may be read one step late
        assert -1e-3 - 1e-9 <= t_step - t_fine <= spec.timeline.times[1] + 1e-9, (kind, speed)


def test_no_overlap_just_before_onset():
    for kind, speed in ALL_CELLS:
        spec = build_scenario(kind, speed)
        t = stepped_contact(spec) - 0.02
        vut_pose = pose_at(spec.vut_track, spec.vut_track.speed * t)
        vru_pose = pose_at(spec.vru_track, spec.vru_track.speed * t)
        assert not obb_overlap(
            footprint(spec.vut_track, vut_pose), footprint(spec.vru_track, vru_pose)
        ), (kind, speed)


def test_displaced_vru_path_never_collides():
    spec = build_scenario(ScenarioKind.CPNC50, 40.0)
    shifted = replace(spec.vru_track, path=tuple(Vec2(p.x + 50.0, p.y) for p in spec.vru_track.path))
    assert nominal_collision_check(replace(spec, vru_track=shifted)) is None


def test_cbla_slowest_cell_rear_approach():
    spec = build_scenario(ScenarioKind.CBLA, 25.0)
    closing = (25.0 - 15.0) * KMH
    sync = 60.0 / (25.0 * KMH)  # 8.64 s: the 60 m floor binds below 27 km/h
    expected = sync - 3.15 / closing
    assert expected <= stepped_contact(spec) < expected + spec.timeline.times[1]
    assert first_overlap_fine(spec, expected) == pytest.approx(expected, abs=2e-3)


# ------------------------------------------------------- arrival synchrony


def test_centers_reach_conflict_simultaneously():
    for kind, speed in ALL_CELLS:
        if kind is ScenarioKind.CBLA:
            continue
        spec = build_scenario(kind, speed)
        arrivals = []
        for track in (spec.vut_track, spec.vru_track):
            start_d = norm(sub(track.path[0], CONFLICT_POINT))
            arrivals.append(start_d / track.speed)
        assert abs(arrivals[0] - arrivals[1]) <= 1.0 / spec.frame_rate, (kind, speed)


def test_start_distance_rule():
    # start distance is 8 s of travel, floored at 60 m
    for kind, speed in ALL_CELLS:
        spec = build_scenario(kind, speed)
        v = speed * KMH
        want = max(8.0 * v, 60.0)
        got = norm(sub(spec.vut_track.path[0], CONFLICT_POINT))
        assert got == pytest.approx(want, abs=1e-9), (kind, speed)


# --------------------------------------------------------- speed validation


def test_speed_grid_is_enforced():
    with pytest.raises(ValueError, match="25"):
        build_scenario(ScenarioKind.CBLA, 20.0)
    with pytest.raises(ValueError):
        build_scenario(ScenarioKind.CBNA, 22.0)
    with pytest.raises(ValueError):
        build_scenario(ScenarioKind.CPNC50, 65.0)


@pytest.mark.parametrize("cyclist_kmh", [25.0, 30.0])
def test_cbla_cyclist_must_be_slower_than_the_vehicle(cyclist_kmh):
    fast = ScenarioOverrides(cyclist_speed_kmh=cyclist_kmh)
    with pytest.raises(ValueError, match=r"cyclist_speed_kmh .* vehicle speed \(25 km/h\)"):
        build_scenario(ScenarioKind.CBLA, 25.0, fast)
    # the crossing cases have no such rule
    assert build_scenario(ScenarioKind.CBNA, 25.0, fast).vru_track.speed == pytest.approx(cyclist_kmh * KMH)


def test_vru_speeds_follow_scenario():
    assert build_scenario(ScenarioKind.CPNC50, 20.0).vru_track.speed == pytest.approx(5.0 * KMH)
    assert build_scenario(ScenarioKind.CBNA, 60.0).vru_track.speed == pytest.approx(15.0 * KMH)
    assert build_scenario(ScenarioKind.CBLA, 40.0).vru_track.speed == pytest.approx(15.0 * KMH)
    pedestrian = build_scenario(ScenarioKind.CPNC50, 20.0).vru_track
    cyclist = build_scenario(ScenarioKind.CBNA, 20.0).vru_track
    assert (pedestrian.length, pedestrian.width, pedestrian.height) == (0.5, 0.5, 1.8)
    assert (cyclist.length, cyclist.width, cyclist.height) == (1.8, 0.5, 1.8)


# ---------------------------------------------------------------- occluders


def test_cbna_wall_ends_17m_before_conflict():
    spec = build_scenario(ScenarioKind.CBNA, 60.0)
    assert len(spec.occluders) == 1
    wall = spec.occluders[0]
    # wall long axis runs along the cyclist path; near end at y = -17
    near_end = wall.center.y + wall.half_long
    assert near_end == pytest.approx(-17.0, abs=1e-9)
    assert wall.height == pytest.approx(3.0)
    # wall face sits clear of the cyclist path at x = 0
    assert wall.center.x + wall.half_lat < 0.0


def test_cpnc_parked_cars_flank_the_crossing():
    spec = build_scenario(ScenarioKind.CPNC50, 30.0)
    assert len(spec.occluders) == 2
    xs = sorted(p.center.x for p in spec.occluders)
    assert xs[0] == pytest.approx(-2.75)
    assert xs[1] == pytest.approx(2.75)
    for p in spec.occluders:
        assert p.height == pytest.approx(1.5)
        # near edge one meter right of the lane edge
        assert p.center.y + p.half_lat == pytest.approx(-2.75)


def test_cbla_has_no_occluders():
    assert build_scenario(ScenarioKind.CBLA, 50.0).occluders == ()


# -------------------------------------------------- CBNA geometric visibility


def geometric_fraction(observer_xy, target_sil, occluders):
    """Sight-line fraction with no aperture or range limits."""
    from vrusim.geometry import MountPose

    pose = MountPose(observer_xy[0], observer_xy[1], 0.0, 0.0, 0.0)
    slabs = occluder_slabs(pose.x, pose.y, occluders)
    return visible_fraction(pose, 2 * math.pi, 2 * math.pi, 1e9, target_sil, slabs)


@pytest.mark.parametrize("speed", allowed_speeds_kmh(ScenarioKind.CBNA))
def test_cbna_cyclist_hidden_beyond_17m(speed):
    spec = build_scenario(ScenarioKind.CBNA, speed)
    first_visible_dist = None
    for i in range(spec.n_frames):
        t = i / spec.frame_rate
        pose, sil = world_at(spec, t, default_vut_sensor())
        frac = geometric_fraction((pose.x, pose.y), sil, spec.occluders)
        dist = norm(sub(sil.anchor, CONFLICT_POINT))
        if frac >= 0.5:
            first_visible_dist = dist
            break
        assert dist > 16.5, (speed, t)
    assert first_visible_dist is not None
    assert 16.5 <= first_visible_dist <= 17.5, speed


# ------------------------------------------------------------ actor tracks


def test_track_state_basics():
    track = ActorTrack(4.5, 1.8, 10.0, (Vec2(0, 0), Vec2(100, 0)))
    assert track.locate(0.0) == (0.0, 0.0)
    assert track.locate(10.0 * 5.0)[0] == pytest.approx(50.0)
    # past the end of its leg a track stands at the end
    assert track.locate(10.0 * 99.0) == (100.0, 0.0)
    assert track.heading == 0.0
    up = ActorTrack(1.8, 0.5, 2.0, (Vec2(10, 0), Vec2(10, 10)))
    assert up.locate(8.0) == pytest.approx((10.0, 8.0))
    assert up.heading == pytest.approx(math.pi / 2)


def test_track_along_is_clamped_at_the_legs_end():
    track = ActorTrack(1.8, 0.5, 4.0, (Vec2(0, 0), Vec2(0, 30)))
    assert track.along(0.0) == 0.0
    assert track.along(2.5) == 4.0 * 2.5
    assert track.along(7.5) == 30.0
    assert track.along(100.0) == 30.0
    standing = ActorTrack(1.8, 0.5, 0.0, (Vec2(0, 0), Vec2(0, 30)))
    assert standing.along(0.0) == standing.along(9.0) == 0.0


def test_track_validation():
    with pytest.raises(ValueError):
        ActorTrack(4.5, 1.8, -1.0, (Vec2(0, 0), Vec2(1, 0)))
    with pytest.raises(ValueError):
        ActorTrack(0.0, 1.8, 1.0, (Vec2(0, 0), Vec2(1, 0)))
    with pytest.raises(ValueError):
        VruTrack(0.5, 0.5, 1.0, (Vec2(0, 0), Vec2(1, 0)), height=0.0)


@pytest.mark.parametrize("path", [(Vec2(0, 0),), (Vec2(0, 0), Vec2(10, 0), Vec2(10, 10))], ids=["1", "3"])
def test_track_is_one_leg(path):
    with pytest.raises(ValueError, match="one leg"):
        ActorTrack(1.8, 0.5, 2.0, path)


@pytest.mark.parametrize("frame_rate", [10.0, 25.0])
@pytest.mark.parametrize("yaw", [0.0, 37.0])
def test_every_track_stays_on_its_leg_through_the_run(yaw, frame_rate):
    """No built track reaches the end of its leg within a run: the VRU
    covers speed * sim_duration, and the vehicle, unbraked, its last
    timeline travel; braking only shortens that."""
    overrides = ScenarioOverrides(frame_rate=frame_rate)
    for kind, speed in ALL_CELLS:
        spec = rotate_scenario(build_scenario(kind, speed, overrides), math.radians(yaw))
        vut, vru = spec.vut_track, spec.vru_track
        assert len(vut.path) == len(vru.path) == 2
        vut_leg, vru_leg = norm(sub(vut.path[1], vut.path[0])), norm(sub(vru.path[1], vru.path[0]))
        assert spec.timeline.travel[-1] < vut_leg, (kind, speed)
        assert vru.speed * spec.sim_duration < vru_leg, (kind, speed)


# ------------------------------------------------------------ determinism


def test_build_is_deterministic():
    for kind, speed in ALL_CELLS:
        assert build_scenario(kind, speed) == build_scenario(kind, speed)


def test_overrides_change_geometry():
    tall = ScenarioOverrides(wall_height=5.0)
    spec = build_scenario(ScenarioKind.CBNA, 30.0, tall)
    assert spec.occluders[0].height == 5.0


# ------------------------------------------------------------------ rotation


def test_rotation_preserves_relative_timeline():
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    rot = rotate_scenario(spec, math.pi / 2)
    onset = stepped_contact(spec)
    assert stepped_contact(rot) == onset
    # VUT now approaches from the south
    assert rot.vut_track.path[0].y == pytest.approx(spec.vut_track.path[0].x)
    assert first_overlap_fine(rot, onset) == pytest.approx(first_overlap_fine(spec, onset), abs=1e-9)
    # occluder carried along
    w0, w1 = spec.occluders[0], rot.occluders[0]
    assert norm(w1.center) == pytest.approx(norm(w0.center))
    assert w1.heading == pytest.approx(w0.heading + math.pi / 2)


def test_zero_rotation_is_identity():
    spec = build_scenario(ScenarioKind.CPNC50, 25.0)
    assert rotate_scenario(spec, 0.0) is spec
    assert rotate_scenario(spec, -0.0) is spec


def test_timeline_is_built_once_per_spec():
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    coarse = spec.timeline
    assert spec.timeline is coarse
    fine = build_scenario(ScenarioKind.CBNA, 40.0, ScenarioOverrides(frame_rate=30.0)).timeline
    assert (coarse.steps_per_frame, fine.steps_per_frame) == (20, 7)
    assert len(coarse.times) == (spec.n_frames - 1) * 20 + 1
    # both end at the last frame, having driven the unbraked distance
    assert coarse.times[-1] == pytest.approx(fine.times[-1], abs=1e-9)
    assert coarse.travel[-1] == pytest.approx(spec.vut_track.speed * coarse.times[-1], abs=1e-9)
    # the memo is no part of the spec's value
    assert spec == build_scenario(ScenarioKind.CBNA, 40.0)
    assert hash(spec) == hash(build_scenario(ScenarioKind.CBNA, 40.0))
    assert "Timeline(" not in repr(spec)


def test_replaced_and_rotated_specs_never_inherit_a_timeline():
    spec = build_scenario(ScenarioKind.CPNC50, 40.0)
    built = spec.timeline
    faster = replace(spec, vut_track=replace(spec.vut_track, speed=2 * spec.vut_track.speed))
    assert "timeline" not in vars(faster)
    assert faster.timeline.travel[-1] == pytest.approx(2 * built.travel[-1])
    rated = replace(spec, frame_rate=20.0)
    assert rated.timeline.steps_per_frame == 10
    rotated = rotate_scenario(spec, math.radians(90.0))
    assert "timeline" not in vars(rotated)
    # a rotation leaves the vehicle's travel alone, so an equal timeline,
    # but built for the new spec
    assert rotated.timeline == built
    assert rotated.timeline is not built
    assert rotate_scenario(spec, 0.0) is spec


# frame periods of whole 5 ms steps, and rates of every size a float's
# frame period holds 5 ms steps of
STEP_RATES = st.one_of(
    st.integers(2, 2000).map(lambda k: 1.0 / (k * 0.005)),
    st.floats(0.01, 10000.0),
    st.floats(1.0e-300, 1.0e300),
)


@settings(max_examples=500)
@given(rate=STEP_RATES)
def test_integrator_step_is_5_ms_where_it_fits_and_splits_the_period_elsewhere(rate):
    step, steps = kinematics_grid(rate)
    # two or more whole 5 ms steps fill the frame period
    whole = round(1.0 / rate / 0.005)
    if whole >= 2 and abs(whole * 0.005 - 1.0 / rate) <= 1e-9:
        assert (step, steps) == (0.005, whole)
        return
    spec = build_scenario(ScenarioKind.CBNA, 40.0, ScenarioOverrides(frame_rate=rate))
    # load_config's run-length bound
    if (spec.sim_duration + 1.0 / rate) / step > 10**6:
        return
    # the timeline's step rule reads only the frame rate, so a spec of one
    # frame shows it without stepping a whole run
    assert replace(spec, sim_duration=0.25 / rate).timeline.steps_per_frame == steps >= 2


def test_whole_5_ms_periods_take_5_ms_steps():
    for k in range(2, 2001):
        rate = 1.0 / (k * 0.005)
        assert kinematics_grid(rate) == (0.005, k)


def test_non_finite_frame_quotients_raise_value_error():
    # a 1e320 s frame period overflows to inf, and so do 1e308 frames a second
    with pytest.raises(ValueError, match="more steps than a float can count"):
        build_scenario(ScenarioKind.CBNA, 40.0, ScenarioOverrides(frame_rate=1e-320)).timeline
    with pytest.raises(ValueError, match="more steps than a float can count"):
        kinematics_grid(1e-320)
    spec = build_scenario(ScenarioKind.CBNA, 40.0, ScenarioOverrides(frame_rate=1e308))
    with pytest.raises(ValueError, match="more frames than a float can count"):
        spec.n_frames


# ------------------------------------------------------- non-finite values

NON_FINITE = [math.nan, math.inf, -math.inf]


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["frame_rate", "sim_duration"])
def test_spec_rejects_non_finite_values(name, value):
    # a NaN rate used to pass, and fail only at the first timeline, with a
    # message about the frame period
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
        replace(spec, **{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["length", "width", "speed", "height"])
def test_tracks_reject_non_finite_values(name, value):
    track = build_scenario(ScenarioKind.CBNA, 40.0).vru_track
    with pytest.raises(ValueError, match="must be finite"):
        replace(track, **{name: value})
    if name != "height":
        vehicle = build_scenario(ScenarioKind.CBNA, 40.0).vut_track
        with pytest.raises(ValueError, match="must be finite"):
            replace(vehicle, **{name: value})


@pytest.mark.parametrize("value", NON_FINITE)
@pytest.mark.parametrize("name", ["frame_rate", "vut_length", "cyclist_speed_kmh", "wall_end_distance"])
def test_overrides_reject_non_finite_values(name, value):
    with pytest.raises(ValueError, match=f"must be finite: {name}"):
        ScenarioOverrides(**{name: value})
