"""Braking and closed-loop run tests.

Stopping distances are cross-checked by explicit Euler integration, and the
closed loop as the package runs it (observation pass, first confirmation,
then a run forced from it) is held to exact agreement with the loop that
confirms while it goes (`oracles.live_run`).
"""

import hashlib
import math
import random
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from vrusim import aeb, geometry
from vrusim.aeb import (
    AebPolicy,
    _box,
    last_possible_brake_time,
    simulate_run,
    stop_margin,
)
from vrusim.geometry import Prism, Vec2
from vrusim.geometry import obb_separation as obb_separation_kernel
from vrusim.harness import format_trace
from vrusim.scenario import (
    KMH,
    ActorTrack,
    ScenarioKind,
    ScenarioOverrides,
    ScenarioSpec,
    VruTrack,
    allowed_speeds_kmh,
    build_scenario,
    rotate_scenario,
)
from vrusim.sensing import (
    DEFAULT_RANGE_M,
    DetectionModel,
    default_layout,
    default_vut_sensor,
    first_confirmed_time,
    sense_frame,
)

import sites
from oracles import (
    Pose2,
    _advance,
    advance_every_step,
    float_box,
    footprint,
    live_run,
    nominal_collision_check,
    norm,
    obb_overlap,
    obb_separation,
    observe_every_frame,
    pose_at,
    position,
    stopping_distance,
    sub,
)

POLICY = AebPolicy()
MODEL = DetectionModel()


def unbraked_contact(spec):
    """The first contact of the spec's unbraked, sensing-free run."""
    return simulate_run(spec, (), MODEL, POLICY, sense=False).outcome.collision_time


def contact_frame(spec):
    """Two frames past the first frame at or after the unbraked contact."""
    return math.ceil(unbraked_contact(spec) * spec.frame_rate) + 2


def euler_stop(v0: float, policy: AebPolicy, dt: float) -> float:
    """Forward-Euler stopping distance, latency then constant deceleration."""
    x = v0 * policy.latency
    v = v0
    while v > 0:
        x += v * dt
        v -= policy.deceleration * dt
    return x


def rsu(name):
    return next(u for u in default_layout() if u.sensor_id == name)


def closed_loop(spec, sensors, subset):
    """A subset's closed loop as the sweep scores it: the unbraked
    observation pass, then a sensing run forced from the subset's first
    confirmation in it. Returns both runs."""
    watch = simulate_run(spec, sensors, MODEL, POLICY)
    trigger = first_confirmed_time(watch.events_by_sensor, POLICY.confirm_frames, subset)
    return watch, simulate_run(spec, sensors, MODEL, POLICY, trigger_override=trigger)


# -------------------------------------------------------- stopping distance


def test_stopping_distance_zero_speed():
    assert stopping_distance(0.0, POLICY) == 0.0


def test_stopping_distance_60_kmh():
    v = 60.0 * KMH
    d = stopping_distance(v, POLICY)
    assert d == pytest.approx(18.41, abs=0.01)
    assert abs(d - euler_stop(v, POLICY, 0.001)) / d < 0.005


def test_stopping_distance_20_kmh():
    v = 20.0 * KMH
    d = stopping_distance(v, POLICY)
    assert d == pytest.approx(2.14, abs=0.01)
    assert abs(d - euler_stop(v, POLICY, 0.001)) / d < 0.005


def test_euler_error_shrinks_with_dt():
    v = 50.0 * KMH
    exact = stopping_distance(v, POLICY)
    errors = [abs(euler_stop(v, POLICY, dt) - exact) for dt in (0.01, 0.001, 0.0001)]
    assert errors[0] > errors[1] > errors[2]


def test_stopping_distance_monotone():
    speeds = [i * 0.5 for i in range(1, 40)]
    dists = [stopping_distance(v, POLICY) for v in speeds]
    assert dists == sorted(dists)
    lazy = AebPolicy(latency=0.2)
    assert all(
        stopping_distance(v, lazy) > stopping_distance(v, POLICY) for v in speeds
    )


# ---------------------------------------------------------- unbraked runs


def test_sensing_disabled_collides_at_nominal():
    for kind in ScenarioKind:
        for speed in allowed_speeds_kmh(kind):
            spec = build_scenario(kind, speed)
            trace = simulate_run(spec, (), MODEL, POLICY, sense=False)
            assert trace.travel is spec.timeline.travel
            out = trace.outcome
            assert not out.avoided, (kind, speed)
            assert out.collision_speed == pytest.approx(speed * KMH, abs=1e-9)
            # within a frame of the first overlapping frame of a reference scan
            assert abs(out.collision_time - nominal_collision_check(spec)) <= 1.0 / spec.frame_rate + 1e-9


def test_observation_pass_keeps_sensing_through_contact():
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    sensors = (default_vut_sensor(), rsu("rsu1"))
    trace = simulate_run(spec, sensors, MODEL, POLICY)
    assert not trace.outcome.avoided
    last_event_frame = max(
        ev.frame for evs in trace.events_by_sensor.values() for ev in evs
    )
    collision_frame = trace.outcome.collision_time * spec.frame_rate
    assert last_event_frame > collision_frame + 5


# ------------------------------------------------- roadside skip-ahead

DEFAULT_SENSORS = (default_vut_sensor(), *default_layout())


def aimed_ring(count, seed, max_range=DEFAULT_RANGE_M):
    """Roadside units spread around the conflict point at the origin, each
    aimed at it give or take 25 degrees of yaw and 5 of pitch."""
    rnd = random.Random(seed)
    units = []
    for i in range(count):
        theta = 2.0 * math.pi * (i + rnd.random()) / count
        r = rnd.uniform(4.0, 35.0)
        x, y, z = r * math.cos(theta), r * math.sin(theta), rnd.uniform(2.5, 9.0)
        yaw = math.atan2(-y, -x) + math.radians(rnd.uniform(-25.0, 25.0))
        pitch = -math.atan2(z, r) + math.radians(rnd.uniform(-5.0, 5.0))
        units.append(sites.rsu(f"ring{i}", x, y, z, yaw, pitch, max_range=max_range))
    return tuple(units)


# units whose sight lines to CPNC-50's pedestrian (walking north along
# x = 0) pass over or beside its parked cars, x in +-[0.5, 5] and y in
# [-4.55, -2.75], 1.5 m tall: over a car from the east, level with the
# roof, just north of a car's long side, low behind the west car, and
# mounts inside a footprint above and below its top and on a face
CAR_SIGHTS = (
    sites.rsu("over-east", 9.0, -3.65, 3.0, math.pi, -0.2),
    sites.rsu("over-high", 9.0, -3.65, 8.0, math.pi, -0.6),
    sites.rsu("roof-level", 12.0, -4.0, 1.5, math.pi, 0.0),
    sites.rsu("beside", 9.0, -2.7, 1.2, math.pi, 0.0),
    sites.rsu("west-low", -9.0, -4.0, 1.0, 0.0, 0.0),
    sites.rsu("inside-above", 2.75, -3.65, 2.5, math.pi, -0.3),
    sites.rsu("inside-below", -2.75, -3.65, 1.0, 0.0, 0.0),
    sites.rsu("on-face", 0.5, -3.0, 1.2, math.pi, 0.0),
)
RING = aimed_ring(60, 11) + CAR_SIGHTS
COINED = DetectionModel(miss_probability=0.2, seed=5)
RING_CASES = {
    "miss-coin": (RING, COINED),
    "no-visibility-floor": (RING, replace(COINED, min_visible_fraction=0.0)),
    "no-width-gate": (RING, replace(COINED, min_width_px=0.0)),
    # a wider width threshold, so that the width gate binds in its place
    "no-height-gate": (RING, replace(COINED, min_height_px=0.0, min_width_px=60.0)),
    "range-15m": (aimed_ring(60, 11, max_range=15.0) + CAR_SIGHTS, COINED),
    # a half-aperture of pi / 2, where the frame window keeps no wedge
    "hfov-180": (tuple(replace(u, hfov=math.pi) for u in RING), COINED),
}


def ring_specs(stationary=False):
    for kind in ScenarioKind:
        for yaw in (0.0, 37.0):
            spec = rotate_scenario(build_scenario(kind, 40.0), math.radians(yaw))
            if stationary:
                spec = replace(spec, vru_track=replace(spec.vru_track, speed=0.0))
            yield spec


def observed_with_calls(monkeypatch, spec, sensors, model):
    """The observation pass's events, asserted equal to the every-frame
    reference, and the number of frames it sensed."""
    calls = []

    def counted(*args):
        calls.append(args)
        return sense_frame(*args)

    monkeypatch.setattr(aeb, "sense_frame", counted)
    events = simulate_run(spec, sensors, model, POLICY).events_by_sensor
    monkeypatch.undo()
    assert events == observe_every_frame(spec, sensors, model)
    return len(calls)


@pytest.mark.parametrize("yaw", [0.0, 37.0])
def test_observation_matches_every_frame_reference_on_default_cells(yaw, monkeypatch):
    for kind in ScenarioKind:
        for speed in allowed_speeds_kmh(kind):
            spec = rotate_scenario(build_scenario(kind, speed), math.radians(yaw))
            observed_with_calls(monkeypatch, spec, DEFAULT_SENSORS, MODEL)


def test_every_default_event_is_available_its_latency_after_its_frame():
    # bit for bit the time rule `ingest.match_detections` gives a logged
    # detection, so simulated and logged streams confirm alike
    count = 0
    for kind in ScenarioKind:
        for speed in allowed_speeds_kmh(kind):
            spec = build_scenario(kind, speed)
            events = simulate_run(spec, DEFAULT_SENSORS, MODEL, POLICY).events_by_sensor
            for unit in DEFAULT_SENSORS:
                for ev in events[unit.sensor_id]:
                    assert ev.available_at == ev.frame / spec.frame_rate + unit.latency
                    count += 1
    assert count > 0


class NoTravel:
    """A frame-travel list that may not be read."""

    def __getitem__(self, frame):
        raise AssertionError("a roadside pass read the vehicle's travel")


@pytest.mark.parametrize("yaw", [0.0, 90.0])
@pytest.mark.parametrize("kind", list(ScenarioKind), ids=lambda kind: kind.value)
def test_roadside_events_depend_only_on_the_vru_track(kind, yaw):
    # 30 and 60 km/h both sync at 8 s, so they share the VRU track, the
    # occluders and the frames; a roadside pass reads nothing of the
    # vehicle, so its events are the same at either speed, braked or not
    slow, fast = (rotate_scenario(build_scenario(kind, v), math.radians(yaw)) for v in (30.0, 60.0))
    assert (slow.vru_track, slow.occluders, slow.n_frames) == (fast.vru_track, fast.occluders, fast.n_frames)
    roadside = default_layout()
    model = DetectionModel(miss_probability=0.2, seed=5)
    braked = simulate_run(fast, roadside, model, POLICY, trigger_override=unbraked_contact(fast) - 2.0)
    assert braked.travel != fast.timeline.travel
    events = braked.events_by_sensor
    assert sum(map(len, events.values())) > 0
    assert simulate_run(slow, roadside, model, POLICY).events_by_sensor == events
    assert simulate_run(fast, roadside, model, POLICY).events_by_sensor == events
    assert aeb._sense_frames(fast, roadside, model, NoTravel()) == events


@pytest.mark.parametrize("case", list(RING_CASES))
def test_ring_observation_matches_every_frame_reference(case, monkeypatch):
    units, model = RING_CASES[case]
    calls = frames = 0
    for spec in ring_specs():
        calls += observed_with_calls(monkeypatch, spec, units, model)
        frames += len(units) * spec.n_frames
    # the skips the case is here to check do happen
    assert calls < frames


def test_certificate_decides_most_wholly_visible_ring_frames(monkeypatch):
    # every frame the reference finds wholly in view past the size gates,
    # against those of them a swept span settles: each draws its detection
    # in the run itself
    spanned = []

    def draw(*args):
        spanned.append(args)
        return draw_detection(*args)

    draw_detection = aeb.draw_detection
    monkeypatch.setattr(aeb, "draw_detection", draw)
    whole = replace(MODEL, min_visible_fraction=1.0)
    wholly_visible = 0
    for spec in ring_specs():
        simulate_run(spec, RING, MODEL, POLICY)
        wholly_visible += sum(map(len, observe_every_frame(spec, RING, whole).values()))
    assert len(spanned) >= 0.9 * wholly_visible > 0


def test_roadside_span_schedule_is_pinned(monkeypatch):
    # the ring's roadside passes make exactly these span checks, single
    # senses and span-drawn coins; a schedule that checks, senses or draws
    # one more or fewer changes the work even where the events hold
    calls = {"span_passes": 0, "sense_frame": 0, "draw_detection": 0}

    def counted(name):
        inner = getattr(aeb, name)

        def call(*args):
            calls[name] += 1
            return inner(*args)

        return call

    for name in calls:
        monkeypatch.setattr(aeb, name, counted(name))
    for spec in ring_specs():
        simulate_run(spec, RING, MODEL, POLICY)
    assert calls == {"span_passes": 4207, "sense_frame": 3977, "draw_detection": 12201}


def test_stationary_vru_observation_matches_every_frame_reference(monkeypatch):
    sensors = DEFAULT_SENSORS + RING
    for spec in ring_specs(stationary=True):
        calls = observed_with_calls(monkeypatch, spec, sensors, MODEL)
        # a roadside unit out of reach of the target senses no frame
        assert calls < len(sensors) * spec.n_frames


@st.composite
def roadside_legs(draw):
    """CBNA at 40 km/h with its cyclist on a drawn leg, standing or moving
    fast enough to reach the leg's end within the run, and roadside units
    aimed near that end, some on or beside the leg's line, with apertures
    up to 180 degrees; the model's visibility floor on or off, coin on."""
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    end = Vec2(draw(st.floats(-20.0, 20.0)), draw(st.floats(-20.0, 20.0)))
    heading, length = draw(st.floats(-math.pi, math.pi)), draw(st.floats(0.0, 40.0))
    fx, fy = math.cos(heading), math.sin(heading)
    start = Vec2(end.x - fx * length, end.y - fy * length)
    speed = draw(st.sampled_from((0.0, 1.0, 6.0)))
    vru = replace(spec.vru_track, speed=speed, path=(start, end))
    units = []
    for i in range(3):
        line = draw(st.sampled_from(("off", "on", "beside")))
        t = draw(st.floats(-10.0, 10.0))
        off = draw(st.floats(-15.0, 15.0)) if line == "off" else 0.0 if line == "on" else 1e-6
        x, y = end.x + fx * t - fy * off, end.y + fy * t + fx * off
        aim = math.atan2(end.y - y, end.x - x) + draw(st.floats(-1.0, 1.0))
        hfov = draw(st.sampled_from((math.pi, math.pi - 1e-6, math.radians(90.0), math.radians(30.0))))
        units.append(sites.rsu(f"u{i}", x, y, draw(st.floats(0.5, 8.0)), aim, draw(st.floats(-0.8, 0.0)), hfov=hfov))
    model = DetectionModel(min_visible_fraction=draw(st.sampled_from((0.0, 0.5))), miss_probability=0.2, seed=3)
    return replace(spec, vru_track=vru), tuple(units), model


@settings(max_examples=60, suppress_health_check=[HealthCheck.too_slow])
@given(roadside_legs())
def test_roadside_windows_and_spans_match_every_frame_reference(case):
    spec, units, model = case
    assert aeb._sense_frames(spec, units, model, NoTravel()) == observe_every_frame(spec, units, model)


def test_cull_keeps_an_occluder_seen_only_past_the_leg_start(monkeypatch):
    # a cyclist standing at the start of its leg, heading north, has its
    # rear column 0.6 m behind that start; a post on the sight line to it
    # lies outside the fan from the mount to the leg itself
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    spec = replace(spec, vru_track=replace(spec.vru_track, speed=0.0))
    start = spec.vru_track.path[0]
    post = Prism(Vec2(start.x + 2.0, start.y - 0.6), 0.1, 0.1, 0.0, height=3.0)
    spec = replace(spec, occluders=spec.occluders + (post,))
    unit = sites.rsu("east", start.x + 5.0, start.y - 0.6, 2.0, math.pi, -0.2)
    model = DetectionModel(min_visible_fraction=0.8)
    observed_with_calls(monkeypatch, spec, (unit,), model)
    # the post hides the rear column's three points, so no frame passes
    assert observe_every_frame(spec, (unit,), model) == {"east": []}
    assert observe_every_frame(replace(spec, occluders=spec.occluders[:-1]), (unit,), model)["east"]


# ------------------------------------------------------------- closed loop


def test_cbla_vut_only_avoids_at_every_speed():
    sensors = (default_vut_sensor(),)
    for speed in allowed_speeds_kmh(ScenarioKind.CBLA):
        spec = build_scenario(ScenarioKind.CBLA, speed)
        _, trace = closed_loop(spec, sensors, ("vut",))
        assert trace.outcome.avoided, speed
        assert trace.outcome.collision_speed == 0.0
        assert stop_margin(trace) > 0.0


def test_cbna_fast_vut_only_collides_after_deadline():
    spec = build_scenario(ScenarioKind.CBNA, 60.0)
    sensors = (default_vut_sensor(),)
    _, trace = closed_loop(spec, sensors, ("vut",))
    assert not trace.outcome.avoided
    deadline = last_possible_brake_time(spec, POLICY)
    assert trace.first_confirmed_time is not None
    assert trace.first_confirmed_time > deadline


def test_trigger_time_respects_confirmation():
    spec = build_scenario(ScenarioKind.CBNA, 30.0)
    sensors = (rsu("rsu1"),)
    _, trace = closed_loop(spec, sensors, ("rsu1",))
    assert trace.first_confirmed_time is not None
    assert trace.brake_trigger_time == pytest.approx(trace.first_confirmed_time + POLICY.latency)


def test_collision_speed_never_exceeds_initial():
    spec = build_scenario(ScenarioKind.CPNC50, 55.0)
    v0 = 55.0 * KMH
    for j in range(0, 80, 7):
        trace = simulate_run(spec, (), MODEL, POLICY, trigger_override=j / 10.0, sense=False)
        out = trace.outcome
        if not out.avoided:
            assert 0.0 <= out.collision_speed <= v0 + 1e-9


# ------------------------------------------------------ residual speed check


def static_obstacle_spec(v0: float = 10.0) -> ScenarioSpec:
    vut = ActorTrack(4.5, 1.8, v0, (Vec2(-100, 0), Vec2(100, 0)))
    ped = VruTrack(0.5, 0.5, 0.0, (Vec2(0, 0), Vec2(0, 1)), height=1.8)
    return ScenarioSpec(
        kind=ScenarioKind.CPNC50,
        vut_track=vut,
        vru_track=ped,
        occluders=(),
        sim_duration=13.0,
        frame_rate=10.0,
    )


def test_braked_late_residual_speed_matches_closed_form():
    spec = static_obstacle_spec()
    v0 = 10.0
    trigger = 9.3
    trace = simulate_run(spec, (), MODEL, POLICY, trigger_override=trigger, sense=False)
    out = trace.outcome
    assert not out.avoided
    onset = trigger + POLICY.latency
    braked_distance = 97.5 - v0 * onset
    want = math.sqrt(v0 * v0 - 2 * POLICY.deceleration * braked_distance)
    assert out.collision_speed == pytest.approx(want, rel=0.01)
    assert 0.0 < out.collision_speed < v0


def onsets_around(timeline, k):
    """Onsets on step k's start and end and an ulp to either side of each."""
    for t in (timeline.starts[k], timeline.times[k]):
        yield from (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf))


@pytest.mark.parametrize("deceleration", [POLICY.deceleration, 0.05], ids=["stops", "never-stops"])
@pytest.mark.parametrize("rate", [10.0, 25.0, 30.0])
def test_braked_steps_equal_a_plain_advance_loop(rate, deceleration):
    # the braking loop calls `_braked_advance` for steps past the onset; a
    # frame's first step can start an ulp before the previous step ends,
    # and an onset between the two must still take `_advance`'s partial step
    spec = build_scenario(ScenarioKind.CBNA, 40.0, ScenarioOverrides(frame_rate=rate))
    timeline = spec.timeline
    n, per_frame = len(timeline.times), timeline.steps_per_frame
    early = [k for k in range(2, n) if timeline.starts[k] < timeline.times[k - 1]]
    assert early
    # the run's first and last steps, and every tenth frame's first and last
    steps = sorted({1, n - 1, *early, *range(1, n, 10 * per_frame), *range(per_frame, n, 10 * per_frame)})
    stopped = set()
    for k in steps:
        for onset in onsets_around(timeline, k):
            travel, speeds = aeb._braked(timeline, spec.vut_track.speed, onset, deceleration)
            want_travel, want_speeds = advance_every_step(spec, onset, deceleration)
            assert travel.tobytes() == want_travel.tobytes(), (k, onset)
            assert speeds.tobytes() == want_speeds.tobytes(), (k, onset)
            stopped.add(speeds[-1] == 0.0)
    # the strong brake stops mid-run from early onsets; the weak one never
    assert stopped == ({False, True} if deceleration == POLICY.deceleration else {False})


def bumper_gap_at_stop(trigger: float) -> float:
    onset = trigger + POLICY.latency
    stop_x = -100.0 + 10.0 * onset + 10.0**2 / (2 * POLICY.deceleration)
    return -2.5 - stop_x


def test_early_trigger_stops_short_of_static_obstacle():
    spec = static_obstacle_spec()
    trace = simulate_run(spec, (), MODEL, POLICY, trigger_override=8.4, sense=False)
    assert trace.outcome.avoided
    # close stop: the margin is the exact face-to-face gap
    assert stop_margin(trace) == pytest.approx(bumper_gap_at_stop(8.4), abs=1e-6)


@pytest.mark.parametrize("trigger", [math.nan, math.inf, -math.inf])
def test_a_non_finite_trigger_is_rejected(trigger):
    # a NaN onset never brakes, so the run would report an unbraked collision
    # with brake_trigger_time=nan
    with pytest.raises(ValueError, match="trigger_override must be finite"):
        simulate_run(static_obstacle_spec(), (), MODEL, POLICY, trigger_override=trigger, sense=False)


def test_distant_stop_margin_is_a_lower_bound():
    spec = static_obstacle_spec()
    trace = simulate_run(spec, (), MODEL, POLICY, trigger_override=8.0, sense=False)
    assert trace.outcome.avoided
    gap = bumper_gap_at_stop(8.0)
    margin = stop_margin(trace)
    assert margin <= gap + 1e-9
    # the circle bound gives away at most the corner radii of the two boxes
    slack = math.hypot(2.25, 0.9) - 2.25 + math.hypot(0.25, 0.25) - 0.25
    assert margin >= gap - slack - 1e-9


# ------------------------------------------------------- last possible brake


def test_last_possible_brake_definitional_boundary():
    spec = build_scenario(ScenarioKind.CPNC50, 55.0)
    t_last = last_possible_brake_time(spec, POLICY)
    assert t_last is not None
    assert 0.0 < t_last < unbraked_contact(spec)
    at = simulate_run(spec, (), MODEL, POLICY, trigger_override=t_last, sense=False)
    late = simulate_run(
        spec, (), MODEL, POLICY, trigger_override=t_last + 1.0 / spec.frame_rate, sense=False
    )
    assert at.outcome.avoided
    assert not late.outcome.avoided


def test_avoidance_holds_exactly_up_to_the_deadline_frame():
    # the premise of the deadline's bisection, on every frame of every
    # default cell: a run forced at frame j avoids iff j is at or before
    # the deadline's frame
    for kind in ScenarioKind:
        for speed in allowed_speeds_kmh(kind):
            spec = build_scenario(kind, speed)
            deadline = round(last_possible_brake_time(spec, POLICY) * spec.frame_rate)
            flags = [
                simulate_run(spec, (), MODEL, POLICY, trigger_override=j / spec.frame_rate, sense=False).outcome.avoided
                for j in range(spec.n_frames)
            ]
            assert flags == [j <= deadline for j in range(spec.n_frames)], (kind, speed)


def test_avoidance_is_a_threshold_on_the_sensor_latency_lattice():
    # the premise of placement's bisection, on the triggers it bisects: a
    # unit's event is available at j / rate plus its latency (0.025 s by
    # default), and on that lattice too a run avoids up to one trigger and
    # collides after it, in step with the deadline's frames
    latency = default_layout()[0].latency
    for kind in ScenarioKind:
        for speed in allowed_speeds_kmh(kind):
            spec = build_scenario(kind, speed)
            deadline = last_possible_brake_time(spec, POLICY)
            first_colliding = (round(deadline * spec.frame_rate) + 1) / spec.frame_rate
            triggers = [j / spec.frame_rate + latency for j in range(spec.n_frames)]
            flags = [
                simulate_run(spec, (), MODEL, POLICY, trigger_override=t, sense=False).outcome.avoided
                for t in triggers
            ]
            assert flags == sorted(flags, reverse=True), (kind, speed)
            assert all(f for t, f in zip(triggers, flags) if t <= deadline), (kind, speed)
            assert not any(f for t, f in zip(triggers, flags) if t >= first_colliding), (kind, speed)


def test_deadline_of_a_spec_never_touched_is_its_last_frame():
    # a VRU path displaced 50 m down the road: no run touches it, so every
    # frame avoids
    spec = build_scenario(ScenarioKind.CPNC50, 40.0)
    shifted = replace(spec.vru_track, path=tuple(Vec2(p.x + 50.0, p.y) for p in spec.vru_track.path))
    spec = replace(spec, vru_track=shifted)
    assert unbraked_contact(spec) is None
    assert last_possible_brake_time(spec, POLICY) == (spec.n_frames - 1) / spec.frame_rate


def test_infeasible_when_no_trigger_helps():
    spec = static_obstacle_spec()
    # park the obstacle so close that even braking at t=0 cannot help
    close = replace(
        spec,
        vut_track=ActorTrack(4.5, 1.8, 20.0, (Vec2(-10, 0), Vec2(100, 0))),
        sim_duration=5.0,
    )
    assert last_possible_brake_time(close, POLICY) is None


# ------------------------------------------------- decomposition equivalence


def assert_matches_live_loop(spec, sensors, subset):
    """The gate between the two forms of a subset's closed loop.

    The loop that confirms while it goes triggers at the observation
    pass's first confirmation, the sensing run forced from there drives
    and senses exactly as it does, and a sensing-free replay from the same
    trigger has the forced run's outcome and margin. Returns the forced
    run.
    """
    live = live_run(spec, sensors, MODEL, POLICY, subset)
    watch, forced = closed_loop(spec, sensors, subset)
    trigger = first_confirmed_time(watch.events_by_sensor, POLICY.confirm_frames, subset)
    assert live.trigger == trigger == forced.first_confirmed_time, subset
    assert list(forced.travel) == live.travel, subset
    assert list(forced.speeds) == live.speeds, subset
    assert forced.events_by_sensor == live.events_by_sensor, subset
    assert forced.outcome.avoided == live.avoided, subset
    replay = simulate_run(spec, (), MODEL, POLICY, trigger_override=trigger, sense=False)
    assert forced.brake_trigger_time == replay.brake_trigger_time
    assert forced.outcome == replay.outcome, subset
    if forced.outcome.avoided:
        assert stop_margin(forced) == stop_margin(replay), subset
    return forced


@pytest.mark.parametrize(
    "speed, subset",
    [
        (40.0, ("vut",)),
        (40.0, ("rsu1",)),
        (40.0, ("vut", "rsu1", "rsu5")),
        # rsu2 first confirms after the unbraked contact
        (20.0, ("rsu2",)),
    ],
    ids=["subset0", "subset1", "subset2", "confirmed-after-contact"],
)
def test_forced_replay_matches_live_loop(speed, subset):
    spec = build_scenario(ScenarioKind.CBNA, speed)
    sensors = tuple(
        u for u in (default_vut_sensor(), *default_layout()) if u.sensor_id in subset
    )
    forced = assert_matches_live_loop(spec, sensors, subset)
    assert forced.first_confirmed_time is not None


@pytest.mark.parametrize(
    "kind, speed",
    [(kind, speed) for kind in ScenarioKind for speed in allowed_speeds_kmh(kind)[::2]],
)
def test_live_and_replayed_runs_share_their_stop_margin(kind, speed):
    # a margin is taken on a run's own steps, so the forced run's and the
    # replay's agree bit for bit only if the two runs do
    spec = build_scenario(kind, speed)
    units = (default_vut_sensor(), *default_layout())
    # the default sweep's subsets: each unit alone, then all of them
    for subset in [(u.sensor_id,) for u in units] + [tuple(u.sensor_id for u in units)]:
        sensors = tuple(u for u in units if u.sensor_id in subset)
        assert_matches_live_loop(spec, sensors, subset)


def test_stop_margin_rejects_a_run_that_made_contact():
    spec = build_scenario(ScenarioKind.CBNA, 40.0)
    unbraked = simulate_run(spec, (), MODEL, POLICY, sense=False)
    assert not unbraked.outcome.avoided
    with pytest.raises(ValueError, match="contact"):
        stop_margin(unbraked)


# ------------------------------------------------------ reference kernel


def reference_replay(spec, policy, trigger, dt=0.005):
    """The plain per-step contact loop of a sensing-free run.

    `Vec2` poses at every step, the `Vec2` reference overlap test at every
    near-field step and its exact gap whenever the boxes do not overlap;
    far-field steps count by their bounding-circle gap. Returns (avoided,
    collision_time, collision_speed, stop_margin, brake_trigger_time).
    """
    vut_track, vru_track = spec.vut_track, spec.vru_track
    vut_r = math.hypot(vut_track.length / 2, vut_track.width / 2)
    vru_r = math.hypot(vru_track.length / 2, vru_track.width / 2)
    near_field = vut_r + vru_r + 10.0
    steps_per_frame = round(1.0 / spec.frame_rate / dt)
    onset = None if trigger is None else trigger + policy.latency
    travelled, speed = 0.0, vut_track.speed
    collision_time, collision_speed, margin = None, 0.0, math.inf

    def contact(t):
        nonlocal collision_time, collision_speed, margin
        vut_pose = pose_at(vut_track, travelled)
        vru_pose = pose_at(vru_track, vru_track.speed * t)
        gap = norm(sub(position(vru_pose), position(vut_pose)))
        if gap > near_field:
            margin = min(margin, gap - vut_r - vru_r)
            return False
        a, b = footprint(vut_track, vut_pose), footprint(vru_track, vru_pose)
        if obb_overlap(a, b):
            if collision_time is None:
                collision_time, collision_speed = t, speed
            return True
        margin = min(margin, obb_separation(a, b))
        return False

    halted = contact(0.0)
    for frame in range(spec.n_frames - 1):
        t_frame = frame / spec.frame_rate
        for step in range(steps_per_frame):
            t0 = t_frame + step * dt
            t1 = t_frame + (step + 1) * dt
            if not halted:
                travelled, speed = _advance(travelled, speed, t0, t1, onset, policy.deceleration)
                halted = contact(t1)
    avoided = collision_time is None
    return (
        avoided,
        collision_time,
        0.0 if avoided else collision_speed,
        margin if avoided else None,
        onset,
    )


@st.composite
def replay_cases(draw):
    kind = draw(st.sampled_from(list(ScenarioKind)))
    speed = draw(st.sampled_from(allowed_speeds_kmh(kind)))
    yaw = draw(st.sampled_from((0.0, 37.0, 90.0)))
    spec = rotate_scenario(build_scenario(kind, speed), math.radians(yaw))
    # the last three seconds of frames before the unbraked contact: early
    # ones avoid, late ones collide, the ones between stop close to the
    # rider; -1 stands for no trigger at all
    last = contact_frame(spec)
    back = draw(st.integers(-1, 30))
    frame = max(last - back, 0)
    trigger = None if back < 0 else frame / spec.frame_rate + POLICY.latency
    return spec, trigger


def kernel_replay(spec, trigger):
    """What a sweep reports for one trigger, in reference_replay's shape."""
    trace = simulate_run(spec, (), MODEL, POLICY, trigger_override=trigger, sense=False)
    out = trace.outcome
    margin = stop_margin(trace) if out.avoided else None
    return out.avoided, out.collision_time, out.collision_speed, margin, trace.brake_trigger_time


@settings(max_examples=30, suppress_health_check=[HealthCheck.too_slow])
@given(replay_cases())
def test_replay_matches_reference_kernel_exactly(case):
    spec, trigger = case
    assert kernel_replay(spec, trigger) == reference_replay(spec, POLICY, trigger)


# one object per spec for every example, so later examples read the
# timelines earlier ones built; at 10 Hz whole 5 ms steps fill the frame,
# and at 30 Hz the frame is split into 7 steps of 1/210 s
SHARED_STEPS = {10.0: 0.005, 30.0: 1.0 / 30.0 / 7}
SHARED_SPECS = {
    rate: (
        build_scenario(ScenarioKind.CBNA, 60.0, ScenarioOverrides(frame_rate=rate)),
        rotate_scenario(
            build_scenario(ScenarioKind.CPNC50, 35.0, ScenarioOverrides(frame_rate=rate)), math.radians(37.0)
        ),
    )
    for rate in SHARED_STEPS
}


@settings(max_examples=12, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.sampled_from((0, 1)),
    st.lists(st.tuples(st.integers(-1, 30), st.sampled_from(tuple(SHARED_STEPS))), min_size=1, max_size=4),
)
def test_shared_timeline_matches_reference_in_any_order(which, draws):
    for back, rate in draws:
        spec, dt = SHARED_SPECS[rate][which], SHARED_STEPS[rate]
        last = contact_frame(spec)
        # -1 stands for no trigger; otherwise one on the frame grid, as
        # the deadline bisection sets it, or just past it, as a confirmation
        trigger = None if back < 0 else max(last - back, 0) / spec.frame_rate + (back % 2) * POLICY.latency
        assert kernel_replay(spec, trigger) == reference_replay(spec, POLICY, trigger, dt), (trigger, rate)
        assert spec.timeline.steps_per_frame == round(1.0 / rate / dt)


def test_contact_boxes_take_the_wrapped_heading():
    # a leg along -x whose dy is -0.0 has the atan2 heading -pi; Pose2 wraps
    # it to pi, whose sine has the other sign, and so must the track and
    # its contact box
    track = ActorTrack(1.8, 0.5, 5.0, (Vec2(10.0, 0.0), Vec2(-10.0, -0.0)))
    raw = math.atan2(-0.0, -20.0)
    assert raw == -math.pi and track.heading == math.pi
    x, y = track.locate(3.0)
    assert _box(track, x, y) == float_box(footprint(track, Pose2(x, y, raw)))


def test_contact_kernel_and_occluder_records_take_no_cos_or_sin(monkeypatch):
    # each box and prism carries its axis from construction, so the
    # kernel and the per-frame occluder records call no trigonometry
    spec = rotate_scenario(build_scenario(ScenarioKind.CPNC50, 40.0), 0.3)
    vut, vru = spec.vut_track, spec.vru_track
    # both centres reach the conflict point 8 s in
    a = _box(vut, *vut.locate(vut.speed * 8.0))
    b = _box(vru, *vru.locate(vru.speed * 8.0))
    far = _box(vru, *vru.locate(0.0))
    prisms = spec.occluders

    def refuse(_):
        raise AssertionError("called cos or sin")

    monkeypatch.setattr(geometry.math, "cos", refuse)
    monkeypatch.setattr(geometry.math, "sin", refuse)
    assert geometry.obb_overlap(a, b) and not geometry.obb_overlap(a, far)
    assert geometry.obb_separation(a, b) == 0.0 < geometry.obb_separation(a, far)
    assert geometry.obb_gap_bound(a, far) > 0.0
    assert geometry.triangle_meets_box(((0.0, 0.0), (40.0, 0.0), (0.0, 40.0)), a)
    assert len(geometry.occluder_slabs(3.0, -7.0, prisms)) == len(prisms) == 2


def clamped_vru(spec, end_y):
    """`spec` with the VRU's path ending at (0, end_y): it walks there and
    stands still for the rest of the run."""
    track = spec.vru_track
    return replace(spec, vru_track=replace(track, path=(track.path[0], Vec2(0.0, end_y))))


# the skip-ahead cull leans on the closing-speed bound: a slow closing
# speed, a VRU that stops moving, and a scene off the grid axes
SKIP_AHEAD_SPECS = {
    "cbla-slowest": build_scenario(ScenarioKind.CBLA, min(allowed_speeds_kmh(ScenarioKind.CBLA))),
    "clamped-in-lane": clamped_vru(build_scenario(ScenarioKind.CPNC50, 40.0), -0.5),
    "clamped-beside-lane": clamped_vru(build_scenario(ScenarioKind.CPNC50, 40.0), -3.0),
    "yaw37": rotate_scenario(build_scenario(ScenarioKind.CBNA, 40.0), math.radians(37.0)),
}


@pytest.mark.parametrize("name", sorted(SKIP_AHEAD_SPECS))
def test_skip_ahead_matches_reference_kernel_exactly(name):
    spec = SKIP_AHEAD_SPECS[name]
    # the beside-lane VRU is never touched; it walks as the in-lane one does,
    # so it takes the in-lane frames
    last = contact_frame(SKIP_AHEAD_SPECS["clamped-in-lane" if name == "clamped-beside-lane" else name])
    triggers = [None] + [max(last - back, 0) / spec.frame_rate for back in range(0, 31, 5)]
    outcomes = set()
    for trigger in triggers:
        got = kernel_replay(spec, trigger)
        assert got == reference_replay(spec, POLICY, trigger), trigger
        outcomes.add(got[0])
    # the beside-lane VRU is never touched; every other case both avoids
    # and collides over these triggers
    assert outcomes == ({True} if name == "clamped-beside-lane" else {False, True})


def test_margin_prune_allows_for_a_bound_that_rounds_high(monkeypatch):
    # the projection gap may round a few ulps above the exact gap, so the
    # prune only trusts it by the slack (geometry._SLACK). Here a pedestrian
    # drifts 1e-7 m closer per metre as it crosses the front of the stopped
    # car: the step nearest the centre line sets the margin first, and the
    # later, smaller gaps lie within a fraction of the slack of it. A bound
    # that overshoots by half the slack must still find them.
    def rounded_high(a, b):
        return obb_separation_kernel(a, b) + 0.5 * geometry._SLACK

    monkeypatch.setattr(aeb, "obb_gap_bound", rounded_high)
    ped = VruTrack(0.5, 0.5, 1.5, (Vec2(0.0, -16.0), Vec2(-32e-7, 16.0)), height=1.8)
    spec = replace(static_obstacle_spec(), vru_track=ped)
    got = kernel_replay(spec, 8.4)
    assert got[0]
    assert got == reference_replay(spec, POLICY, 8.4)
    # the least gap is where the pedestrian leaves the car's front face
    assert got[3] < bumper_gap_at_stop(8.4) - 1e-7


@pytest.mark.parametrize(
    "trigger, most_locates, most_gaps",
    [(0.225, 172, 0), (6.325, 829, 69)],
)
def test_stop_margin_work_is_bounded(monkeypatch, trigger, most_locates, most_gaps):
    # CPNC-50 at 60 km/h: forced at 0.225 s the car stops 108 m short and
    # the pedestrian crosses far ahead of it; forced at 6.325 s it stops
    # 7 m short and the pedestrian walks across its front, where the gaps
    # of many steps lie within rounding of each other. Every ActorTrack
    # locate (both tracks) and every exact gap counts. A closing-speed
    # scan of the stopped phase and a gap bound loose at corners take 1446
    # locates for the first, and 1442 locates and 235 gaps for the second;
    # locating each close step again for its boxes takes 1399 for the second;
    # locating the stopped car again at every frame start takes 267 and 829
    spec = build_scenario(ScenarioKind.CPNC50, 60.0)
    trace = simulate_run(spec, (), MODEL, POLICY, trigger_override=trigger, sense=False)
    assert trace.outcome.avoided
    calls = {"locate": 0, "gap": 0}
    locate, separation = ActorTrack.locate, aeb.obb_separation

    def counted_locate(track, distance):
        calls["locate"] += 1
        return locate(track, distance)

    def counted_separation(a, b):
        calls["gap"] += 1
        return separation(a, b)

    monkeypatch.setattr(ActorTrack, "locate", counted_locate)
    monkeypatch.setattr(aeb, "obb_separation", counted_separation)
    margin = stop_margin(trace)
    monkeypatch.undo()
    assert calls["locate"] <= most_locates
    assert calls["gap"] <= most_gaps
    assert margin == reference_replay(spec, POLICY, trigger)[3]


# the trace of a braked closed loop: sha256 of format_trace, as written
# when the run still confirmed while it went, before the runs read the
# spec's timeline; the braking column and the speeds come from the braked
# steps, and a value that rounds to zero prints unsigned
LIVE_TRACE_DIGESTS = {
    (ScenarioKind.CBNA, 40.0, 0.0, ("rsu1",)):
        "4c2db7254df3eedd9b8e413d85b288cfd00c556fd0d24f8b29ddcf67c52c13a4",
    (ScenarioKind.CBNA, 40.0, 37.0, ("vut", "rsu5")):
        "390cc993060f701495d6b4f54337d9d195ab9465238726a407d21722f663b62f",
    (ScenarioKind.CBLA, 25.0, 0.0, ("vut",)):
        "96ff824ea15817092b7e9e7eb9d13c70f425a1f7b3efe7f2c758c16f8fd229db",
    (ScenarioKind.CPNC50, 60.0, 90.0, ("rsu2", "rsu3")):
        "ccb29140c81069fecbcf31b1720c5b365072b90a8f0203ac07e2f3dfbcec3dc4",
}


@pytest.mark.parametrize(
    "case",
    list(LIVE_TRACE_DIGESTS),
    ids=lambda c: f"{c[0].display_name}_{c[1]:g}_yaw{c[2]:g}_{'+'.join(c[3])}",
)
def test_live_braked_trace_bytes_are_pinned(case):
    kind, speed, yaw, subset = case
    spec = rotate_scenario(build_scenario(kind, speed), math.radians(yaw))
    _, trace = closed_loop(spec, (default_vut_sensor(), *default_layout()), subset)
    text = format_trace(trace)
    assert trace.outcome.avoided
    assert text.startswith("# pass=braked ")
    assert any(line.split(",")[8] == "1" for line in text.splitlines()[3:])
    assert hashlib.sha256(text.encode()).hexdigest() == LIVE_TRACE_DIGESTS[case]


# ----------------------------------------------------------------- guards


@pytest.mark.parametrize("field", ["deceleration", "latency"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_policy_rejects_non_finite_values(field, value):
    # a NaN deceleration makes every braked position NaN, and NaN
    # footprints never touch, so a run that collides would report avoided
    with pytest.raises(ValueError, match="must be finite"):
        AebPolicy(**{field: value})


def test_policy_validation():
    with pytest.raises(ValueError):
        AebPolicy(deceleration=0.0)
    with pytest.raises(ValueError):
        AebPolicy(latency=-0.1)
    with pytest.raises(ValueError):
        AebPolicy(confirm_frames=0)
