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

from .geometry import OrientedBox, Pose2, obb_overlap, obb_separation
from .scenario import ScenarioSpec, WorldState
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
    stop_margin: float | None
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
    maneuver. Either way the outcome reports the first contact.
    """
    frame_period = 1.0 / spec.frame_rate
    if dt > frame_period / 2.0 + 1e-12:
        raise ValueError("dt must not exceed half the frame period")
    steps_per_frame = round(frame_period / dt)
    if abs(steps_per_frame * dt - frame_period) > 1e-9:
        raise ValueError("frame period must be an integer number of dt steps")

    known = {u.sensor_id for u in sensors}
    for sid in subset:
        if sid not in known:
            raise ValueError(f"unknown sensor id {sid!r}")
    subset_set = set(subset)

    n_frames = int(round(spec.sim_duration * spec.frame_rate)) + 1
    vut_track, vru_track = spec.vut_track, spec.vru_track
    vut_r = math.hypot(vut_track.length / 2, vut_track.width / 2)
    vru_r = math.hypot(vru_track.length / 2, vru_track.width / 2)
    near_field = vut_r + vru_r + _NEAR_FIELD_SLACK

    events_by_sensor: dict[str, list[DetectionEvent]] = {u.sensor_id: [] for u in sensors}
    run_len = {sid: 0 for sid in known}
    first_confirmed: float | None = trigger_override
    brake_onset: float | None = (
        trigger_override + policy.latency if trigger_override is not None else None
    )

    travelled = 0.0
    speed = vut_track.speed
    frames: list[FrameRecord] = []
    collision_time: float | None = None
    collision_speed = 0.0
    # far-field steps count by their circle bound; near-field steps clear
    # of contact keep (bound, travelled, t) for the exact gap taken below
    far_margin = math.inf
    near: list[tuple[float, float, float]] = []
    vut_locate, vru_locate = vut_track.locate, vru_track.locate
    vru_speed_nominal = vru_track.speed

    def footprints(distance: float, t: float) -> tuple[OrientedBox, OrientedBox]:
        vut_pose, _ = vut_track.pose_at_distance(distance)
        vru_pose, _ = vru_track.state_at(t)
        return vut_track.footprint(vut_pose), vru_track.footprint(vru_pose)

    def check_contact(t: float) -> bool:
        nonlocal collision_time, collision_speed, far_margin
        ux, uy, _, _ = vut_locate(travelled)
        rx, ry, _, _ = vru_locate(vru_speed_nominal * t)
        gap = math.hypot(rx - ux, ry - uy)
        bound = gap - vut_r - vru_r
        if gap > near_field:
            far_margin = min(far_margin, bound)
            return False
        # disjoint bounding circles cannot hold touching boxes
        if bound <= _CULL_MARGIN and obb_overlap(*footprints(travelled, t)):
            collision_time = t
            collision_speed = speed
            return True
        near.append((bound, travelled, t))
        return False

    # the first contact fixes the outcome: a sensing-free run ends there,
    # a sensing run only moves the car on
    ended = check_contact(0.0) and not sense
    for frame in range(n_frames):
        t_frame = frame / spec.frame_rate
        if sense:
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

        if ended or frame == n_frames - 1:
            break
        for step in range(steps_per_frame):
            t0 = t_frame + step * dt
            t1 = t_frame + (step + 1) * dt
            travelled, speed = _advance(travelled, speed, t0, t1, brake_onset, policy.deceleration)
            if collision_time is None and check_contact(t1) and not sense:
                ended = True
                break

    stop_margin: float | None = None
    if collision_time is None:
        # exact gaps in ascending bound order, until no bound can beat the
        # minimum: a minimum does not depend on the order it is taken in
        stop_margin = far_margin
        for bound, distance, t in sorted(near):
            if bound > stop_margin + _CULL_MARGIN:
                break
            stop_margin = min(stop_margin, obb_separation(*footprints(distance, t)))

    avoided = collision_time is None
    outcome = SafetyOutcome(
        avoided=avoided,
        collision_speed=0.0 if avoided else collision_speed,
        stop_margin=stop_margin,
        collision_time=collision_time,
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
    n_frames = int(round(spec.sim_duration * spec.frame_rate))
    hi = min(hi, n_frames)
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
