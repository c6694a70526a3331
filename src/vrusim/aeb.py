"""Emergency-braking kinematics and the closed-loop run.

The vehicle drives its path at constant speed until a confirmed detection
(plus system latency) starts a constant full-deceleration stop. Outcome
classification is overlap-based: a run counts as avoided only if the two
footprints never touch, which handles crossing and longitudinal cases with
one rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .geometry import Box, Pose2, obb_overlap, obb_separation, wrap_angle
from .scenario import ActorTrack, ScenarioSpec, WorldState
from .sensing import DetectionEvent, DetectionModel, SensorUnit, sense_frame

log = logging.getLogger(__name__)

_NEAR_FIELD_SLACK = 10.0
# how far a circle bound must clear a threshold before the exact box test
# it stands for is skipped; far above the rounding of either computation
_CULL_MARGIN = 1e-6


@dataclass(frozen=True)
class AebPolicy:
    deceleration: float = 7.72
    latency: float = 0.025
    confirm_frames: int = 3

    def __post_init__(self) -> None:
        if self.deceleration <= 0:
            raise ValueError("deceleration must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.confirm_frames < 1:
            raise ValueError("confirmation count must be at least 1")


@dataclass(frozen=True)
class SafetyOutcome:
    avoided: bool
    collision_speed: float
    collision_time: float | None = None

    def __post_init__(self) -> None:
        if self.avoided and self.collision_speed != 0.0:
            raise ValueError("avoided runs have zero collision speed")
        if not self.avoided and self.collision_time is None:
            raise ValueError("collisions carry their time")


@dataclass(frozen=True)
class FrameRecord:
    time: float
    vut_pose: Pose2
    vut_speed: float
    vru_pose: Pose2
    detected: tuple[bool, ...]
    braking: bool


@dataclass(frozen=True)
class RunTrace:
    spec: ScenarioSpec
    sensor_ids: tuple[str, ...]
    frames: tuple[FrameRecord, ...]
    events_by_sensor: dict[str, list[DetectionEvent]]
    first_confirmed_time: float | None
    brake_trigger_time: float | None
    outcome: SafetyOutcome


def stopping_distance(v: float, policy: AebPolicy) -> float:
    """Travel between the brake command and standstill."""
    if v < 0:
        raise ValueError("speed must be non-negative")
    return v * policy.latency + v * v / (2.0 * policy.deceleration)


def _braked_advance(speed: float, tau: float, decel: float) -> tuple[float, float]:
    """Distance covered and final speed after tau seconds of braking."""
    t_stop = speed / decel
    if tau >= t_stop:
        return speed * speed / (2.0 * decel), 0.0
    return speed * tau - decel * tau * tau / 2.0, speed - decel * tau


def _advance(dist: float, speed: float, t0: float, t1: float, onset: float | None, decel: float) -> tuple[float, float]:
    """Piecewise-exact advance over [t0, t1] with braking from `onset` on."""
    if onset is None or onset >= t1:
        return dist + speed * (t1 - t0), speed
    if onset <= t0:
        d, v = _braked_advance(speed, t1 - t0, decel)
        return dist + d, v
    pre = onset - t0
    d, v = _braked_advance(speed, t1 - onset, decel)
    return dist + speed * pre + d, v


def _walk(
    spec: ScenarioSpec,
    policy: AebPolicy,
    dt: float,
    onset: float | None,
    at_frame: Callable[[int, float, float, float], float | None] | None = None,
) -> Iterator[tuple[float, float, float]]:
    """The vehicle's dt-step advance through a run.

    Yields (t, travelled, speed) at t = 0 and after every step up to the
    last frame. Braking starts at `onset`. A sensing run passes `at_frame`,
    called as at_frame(frame, t_frame, travelled, speed) at each frame
    start; it returns the onset from then on.
    """
    frame_period = 1.0 / spec.frame_rate
    if dt > frame_period / 2.0 + 1e-12:
        raise ValueError("dt must not exceed half the frame period")
    steps_per_frame = round(frame_period / dt)
    if abs(steps_per_frame * dt - frame_period) > 1e-9:
        raise ValueError("frame period must be an integer number of dt steps")

    travelled, speed = 0.0, spec.vut_track.speed
    yield 0.0, travelled, speed
    last = spec.n_frames - 1
    for frame in range(last + 1):
        t_frame = frame / spec.frame_rate
        if at_frame is not None:
            onset = at_frame(frame, t_frame, travelled, speed)
        if frame == last:
            return
        for step in range(steps_per_frame):
            t0 = t_frame + step * dt
            t1 = t_frame + (step + 1) * dt
            travelled, speed = _advance(travelled, speed, t0, t1, onset, policy.deceleration)
            yield t1, travelled, speed


def _radius(track: ActorTrack) -> float:
    """Bounding-circle radius of a track's footprint."""
    return math.hypot(track.length / 2, track.width / 2)


def _box(track: ActorTrack, x: float, y: float, heading: float) -> Box:
    """A track's footprint at a located position, as a float box."""
    return (x, y, wrap_angle(heading), track.length / 2, track.width / 2)


def _first_contact(spec: ScenarioSpec, steps: Iterator[tuple[float, float, float]]) -> tuple[float, float] | None:
    """Time and vehicle speed of the first step whose footprints touch, or
    None; the scan stops there.

    Centre distance minus both bounding-circle radii bounds the gap from
    below, and the exact box test runs only where that bound is within
    _CULL_MARGIN of contact. The centres close at most at the sum of the
    two nominal speeds (the vehicle only slows), so after a step with
    bound b at time t no step before t + (b - 2 * _CULL_MARGIN) / closing
    can come that near; those steps are not even located.
    """
    vut_track, vru_track = spec.vut_track, spec.vru_track
    vut_r, vru_r = _radius(vut_track), _radius(vru_track)
    vut_locate, vru_locate = vut_track.locate, vru_track.locate
    vru_speed = vru_track.speed
    closing = vut_track.speed + vru_speed
    next_check = 0.0
    for t, travelled, speed in steps:
        if t < next_check:
            continue
        ux, uy, uh, _ = vut_locate(travelled)
        rx, ry, rh, _ = vru_locate(vru_speed * t)
        bound = math.hypot(rx - ux, ry - uy) - vut_r - vru_r
        if bound > _CULL_MARGIN:
            next_check = t + (bound - 2.0 * _CULL_MARGIN) / closing if closing > 0.0 else math.inf
        elif obb_overlap(_box(vut_track, ux, uy, uh), _box(vru_track, rx, ry, rh)):
            return t, speed
    return None


def simulate_run(
    spec: ScenarioSpec,
    sensors: tuple[SensorUnit, ...],
    model: DetectionModel,
    policy: AebPolicy,
    subset: tuple[str, ...],
    dt: float = 0.005,
    trigger_override: float | None = None,
    sense: bool = True,
) -> RunTrace:
    """Closed-loop run: sensing at frame boundaries, kinematics at dt steps.

    A sensing run (``sense=True``) senses and records every frame and drives
    through contact; `subset` names which sensors' confirmations may trigger
    braking, and all sensors are recorded for metrics. A sensing-free run
    records no frames and ends at the first contact; only
    `trigger_override` (a forced confirmation instant) can start the
    maneuver. Either way the outcome reports the first contact; the stop
    margin of a run that avoids is `stop_margin`'s.
    """
    known = {u.sensor_id for u in sensors}
    for sid in subset:
        if sid not in known:
            raise ValueError(f"unknown sensor id {sid!r}")
    subset_set = set(subset)

    vut_track, vru_track = spec.vut_track, spec.vru_track
    events_by_sensor: dict[str, list[DetectionEvent]] = {u.sensor_id: [] for u in sensors}
    run_len = {sid: 0 for sid in known}
    first_confirmed: float | None = trigger_override
    brake_onset: float | None = (
        trigger_override + policy.latency if trigger_override is not None else None
    )
    frames: list[FrameRecord] = []

    def sense_at(frame: int, t_frame: float, travelled: float, speed: float) -> float | None:
        nonlocal first_confirmed, brake_onset
        vut_pose, _ = vut_track.pose_at_distance(travelled)
        vru_pose, _ = vru_track.state_at(t_frame)
        world = WorldState(t_frame, vut_pose, vru_track.silhouette(vru_pose), spec.occluders)
        detected: list[bool] = []
        for unit in sensors:
            ev = sense_frame(unit, model, world, frame)
            detected.append(ev is not None)
            if ev is None:
                run_len[unit.sensor_id] = 0
                continue
            events_by_sensor[unit.sensor_id].append(ev)
            run_len[unit.sensor_id] += 1
            if (
                unit.sensor_id in subset_set
                and run_len[unit.sensor_id] == policy.confirm_frames
            ):
                if first_confirmed is None or ev.available_at < first_confirmed:
                    first_confirmed = ev.available_at
                    brake_onset = ev.available_at + policy.latency
        frames.append(
            FrameRecord(
                time=t_frame,
                vut_pose=vut_pose,
                vut_speed=speed,
                vru_pose=vru_pose,
                detected=tuple(detected),
                braking=brake_onset is not None and t_frame >= brake_onset,
            )
        )
        return brake_onset

    steps = _walk(spec, policy, dt, brake_onset, sense_at if sense else None)
    # the first contact fixes the outcome: a sensing-free run ends there,
    # a sensing run senses on to its last frame
    contact = _first_contact(spec, steps)
    if sense:
        for _ in steps:
            pass

    avoided = contact is None
    outcome = SafetyOutcome(
        avoided=avoided,
        collision_speed=0.0 if avoided else contact[1],
        collision_time=None if avoided else contact[0],
    )
    return RunTrace(
        spec=spec,
        sensor_ids=tuple(u.sensor_id for u in sensors),
        frames=tuple(frames),
        events_by_sensor=events_by_sensor,
        first_confirmed_time=first_confirmed,
        brake_trigger_time=brake_onset,
        outcome=outcome,
    )


def stop_margin(spec: ScenarioSpec, policy: AebPolicy, trigger: float | None, dt: float = 0.005) -> float:
    """Smallest gap between the footprints over a sensing-free run braked
    from `trigger` that avoids contact.

    Steps whose centres are more than _NEAR_FIELD_SLACK beyond both
    bounding circles count by their circle bound; the closer ones by their
    exact box gap, taken in ascending bound order until no bound can beat
    the minimum. A minimum does not depend on the order it is taken in.
    """
    vut_track, vru_track = spec.vut_track, spec.vru_track
    vut_r, vru_r = _radius(vut_track), _radius(vru_track)
    near_field = vut_r + vru_r + _NEAR_FIELD_SLACK
    vut_locate, vru_locate = vut_track.locate, vru_track.locate
    vru_speed = vru_track.speed
    onset = trigger + policy.latency if trigger is not None else None
    margin = math.inf
    near: list[tuple[float, float, float]] = []  # (bound, travelled, t)
    for t, travelled, _ in _walk(spec, policy, dt, onset):
        ux, uy, _, _ = vut_locate(travelled)
        rx, ry, _, _ = vru_locate(vru_speed * t)
        gap = math.hypot(rx - ux, ry - uy)
        bound = gap - vut_r - vru_r
        if gap > near_field:
            margin = min(margin, bound)
        else:
            near.append((bound, travelled, t))
    for bound, travelled, t in sorted(near):
        if bound > margin + _CULL_MARGIN:
            break
        vut_box = _box(vut_track, *vut_locate(travelled)[:3])
        vru_box = _box(vru_track, *vru_locate(vru_speed * t)[:3])
        margin = min(margin, obb_separation(vut_box, vru_box))
    return margin


def last_possible_brake_time(
    spec: ScenarioSpec,
    policy: AebPolicy,
    dt: float = 0.005,
) -> float | None:
    """Latest forced-confirmation instant, on the frame grid, that still avoids.

    Earlier braking can only delay the vehicle along its path, and every
    scenario here collides when unbraked, so avoidance is monotone in the
    trigger time and bisection over frame indices is sound.
    """

    def avoided(j: int) -> bool:
        trace = simulate_run(
            spec, (), DetectionModel(), policy, (), dt=dt, trigger_override=j / spec.frame_rate, sense=False
        )
        return trace.outcome.avoided

    if not avoided(0):
        log.warning(
            "%s: braking from t=0 still collides; configuration infeasible",
            spec.kind.display_name,
        )
        return None
    hi = int(math.ceil(spec.nominal_collision_time * spec.frame_rate)) + 2
    hi = min(hi, spec.n_frames - 1)
    if avoided(hi):
        return hi / spec.frame_rate
    lo = 0
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if avoided(mid):
            lo = mid
        else:
            hi = mid
    return lo / spec.frame_rate


def format_trace(trace: RunTrace) -> str:
    """Render the sweep's unbraked observation pass as line-oriented text
    for external plotting.

    Comment lines carry the run summary; the first says which pass this is,
    since no subset brakes in it (each subset's outcome is in the summary).
    The header row names the columns, one ``det_<sensor>`` flag column per
    sensor in the trace's order.
    """
    out = trace.outcome
    head = [
        "# pass=unbraked_observation"
        f" scenario={trace.spec.kind.display_name}"
        f" vut_speed_mps={trace.spec.vut_track.speed:.6f}"
        f" frame_rate_hz={trace.spec.frame_rate:g}",
        f"# first_confirmed_time={_opt(trace.first_confirmed_time)}"
        f" brake_trigger_time={_opt(trace.brake_trigger_time)}"
        f" avoided={str(out.avoided).lower()}"
        f" collision_time={_opt(out.collision_time)}"
        f" collision_speed={out.collision_speed:.6f}",
    ]
    cols = [
        "time", "vut_x", "vut_y", "vut_heading", "vut_speed",
        "vru_x", "vru_y", "vru_heading", "braking",
    ] + [f"det_{sensor_id}" for sensor_id in trace.sensor_ids]
    lines = head + [",".join(cols)]
    for rec in trace.frames:
        row = [
            f"{rec.time:.3f}",
            f"{rec.vut_pose.x:.6f}",
            f"{rec.vut_pose.y:.6f}",
            f"{rec.vut_pose.heading:.6f}",
            f"{rec.vut_speed:.6f}",
            f"{rec.vru_pose.x:.6f}",
            f"{rec.vru_pose.y:.6f}",
            f"{rec.vru_pose.heading:.6f}",
            "1" if rec.braking else "0",
        ] + ["1" if hit else "0" for _, hit in zip(trace.sensor_ids, rec.detected, strict=True)]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _opt(value: float | None) -> str:
    return "NA" if value is None else f"{value:.6f}"
