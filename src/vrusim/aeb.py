"""Emergency-braking kinematics and the runs that score a sensor subset.

The vehicle drives its path at constant speed until a confirmed detection
(plus system latency) starts a constant full-deceleration stop. A run
never confirms while it goes: a subset's closed loop is the unbraked
observation pass, the subset's first confirmation over its events, and a
run forced to brake from that instant. Outcome classification is
overlap-based: a run counts as avoided only if the two footprints never
touch, which handles crossing and longitudinal cases with one rule.
"""

from __future__ import annotations

import logging
import math
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .geometry import _SLACK, Box, obb_gap_bound, obb_overlap, obb_separation, occluder_slabs, triangle_meets_box
from .scenario import ActorTrack, ScenarioSpec, Timeline
from .sensing import DetectionEvent, DetectionModel, SensorUnit, reach, sense_frame

log = logging.getLogger(__name__)

_NEAR_FIELD_SLACK = 10.0


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
class RunTrace:
    spec: ScenarioSpec
    # one stream per sensor of the run, in the order it was given them
    events_by_sensor: dict[str, list[DetectionEvent]]
    first_confirmed_time: float | None
    brake_trigger_time: float | None
    outcome: SafetyOutcome
    # the run's steps, indexed like spec.timeline(dt): the vehicle's travel
    # and speed at the end of each
    dt: float
    travel: array[float]
    speeds: array[float]


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


def _braked(
    policy: AebPolicy,
    timeline: Timeline,
    travel: array[float],
    speeds: array[float],
    onset: float,
) -> tuple[array[float], array[float]]:
    """A run's step lists with braking from `onset` on.

    The steps that end by the onset keep their unbraked values: `_advance`
    takes the unbraked arithmetic up to the onset, so a braked run shares
    every such step with the unbraked timeline. Only the braking segment
    is stepped. Once the vehicle has stopped `_advance` adds exactly 0.0,
    so the travel holds from there on.
    """
    starts, times = timeline.starts, timeline.times
    n = len(times)
    j = max(bisect_right(times, onset), 1)
    if j >= n:
        return travel, speeds
    decel = policy.deceleration
    dist, speed = travel[j - 1], speeds[j - 1]
    seg_travel, seg_speeds = array("d"), array("d")
    for k in range(j, n):
        if speed == 0.0:
            break
        dist, speed = _advance(dist, speed, starts[k], times[k], onset, decel)
        seg_travel.append(dist)
        seg_speeds.append(speed)
    stopped = n - j - len(seg_travel)
    return (
        travel[:j] + seg_travel + array("d", [dist]) * stopped,
        speeds[:j] + seg_speeds + array("d", [0.0]) * stopped,
    )


def _radius(track: ActorTrack) -> float:
    """Bounding-circle radius of a track's footprint."""
    return math.hypot(track.length / 2, track.width / 2)


def _box(track: ActorTrack, x: float, y: float) -> Box:
    """A track's footprint at a located position, as a float box."""
    return (x, y, track.heading, track.length / 2, track.width / 2)


def _first_contact(
    spec: ScenarioSpec, times: array[float], travel: array[float], speeds: array[float]
) -> int | None:
    """Index of the first step whose footprints touch, or None.

    Centre distance minus both bounding-circle radii bounds the gap from
    below, and the exact box test runs only where that bound is within
    _SLACK of contact. The vehicle only slows, so from a step where it
    drives at v the centres close at most at v plus the VRU's speed; after
    a step with bound b at time t no step before t + (b - 2 * _SLACK) /
    closing can come that near, and the scan bisects past them without
    locating either actor.
    """
    vut_track, vru_track = spec.vut_track, spec.vru_track
    vut_r, vru_r = _radius(vut_track), _radius(vru_track)
    vut_locate, vru_locate = vut_track.locate, vru_track.locate
    vru_speed = vru_track.speed
    n = len(times)
    k = 0
    while k < n:
        t = times[k]
        ux, uy = vut_locate(travel[k])
        rx, ry = vru_locate(vru_speed * t)
        bound = math.hypot(rx - ux, ry - uy) - vut_r - vru_r
        if bound > _SLACK:
            closing = speeds[k] + vru_speed
            if closing <= 0.0:
                return None
            k = bisect_left(times, t + (bound - 2.0 * _SLACK) / closing, k + 1)
        elif obb_overlap(_box(vut_track, ux, uy), _box(vru_track, rx, ry)):
            return k
        else:
            k += 1
    return None


def _sense_frames(
    spec: ScenarioSpec,
    sensors: tuple[SensorUnit, ...],
    model: DetectionModel,
    frame_travel: array[float],
) -> dict[str, list[DetectionEvent]]:
    """Each unit's detections over a run's frames, the vehicle
    `frame_travel[f]` along its path at frame f.

    A vehicle unit's mount is located, and its occluder records built of
    every occluder, from the vehicle's position in each frame. A roadside
    unit senses from its own fixed pose and reads nothing of the vehicle;
    its records are built once per run, of the occluders whose footprint,
    grown by _SLACK, meets the fan of sight lines from the mount to the
    VRU's leg extended by half its length at each end, where every sample
    point lies.

    The VRU's anchor moves no faster than its speed, nor does its ground
    range to a roadside unit. From a frame whose anchor lies beyond the
    unit's `reach` (plus _SLACK) by g, no frame within (g - _SLACK) /
    speed can pass that unit's range and size gates, and the scan bisects
    past them: they would draw no detection, and the miss coin is
    stateless per (seed, sensor, frame).
    """
    vut_track, vru_track = spec.vut_track, spec.vru_track
    times = [frame / spec.frame_rate for frame in range(spec.n_frames)]
    targets = [vru_track.silhouette_at(t) for t in times]
    start, end = vru_track.path
    ex, ey = math.cos(vru_track.heading) * vru_track.length / 2.0, math.sin(vru_track.heading) * vru_track.length / 2.0
    leg = ((start.x - ex, start.y - ey), (end.x + ex, end.y + ey))
    grown = [
        (o, (o.center.x, o.center.y, o.heading, o.half_long + _SLACK, o.half_lat + _SLACK))
        for o in spec.occluders
    ]
    vru_speed = vru_track.speed
    n = len(targets)
    events_by_sensor: dict[str, list[DetectionEvent]] = {u.sensor_id: [] for u in sensors}
    for unit in sensors:
        events = events_by_sensor[unit.sensor_id]
        fixed = unit.mount == "rsu"
        if fixed:
            pose = unit.pose
            sx, sy = pose.x, pose.y
            far = reach(unit, model, targets[0]) + _SLACK
            slabs = occluder_slabs(sx, sy, [o for o, box in grown if triangle_meets_box(((sx, sy), *leg), box)])
        frame = 0
        while frame < n:
            target = targets[frame]
            if fixed:
                gap = math.hypot(target.anchor.x - sx, target.anchor.y - sy) - far
                if gap > 0.0:
                    if vru_speed <= 0.0:
                        break
                    frame = bisect_left(times, times[frame] + (gap - _SLACK) / vru_speed, frame + 1)
                    continue
            else:
                pose = unit.world_pose(*vut_track.locate(frame_travel[frame]), vut_track.heading)
                slabs = occluder_slabs(pose.x, pose.y, spec.occluders)
            ev = sense_frame(unit, model, pose, target, frame, times[frame], slabs)
            if ev is not None:
                events.append(ev)
            frame += 1
    return events_by_sensor


def simulate_run(
    spec: ScenarioSpec,
    sensors: tuple[SensorUnit, ...],
    model: DetectionModel,
    policy: AebPolicy,
    dt: float = 0.005,
    trigger_override: float | None = None,
    sense: bool = True,
) -> RunTrace:
    """One run: braking from a forced confirmation, kinematics at dt steps.

    `trigger_override` is the confirmation instant the maneuver starts
    from (plus the policy latency), or None for an unbraked run. A
    sensing run (``sense=True``) also senses every frame along its own
    path, bar the roadside frames `_sense_frames` rules out, and drives
    through contact; it never confirms, so it brakes only from the
    trigger it is given. A sensing-free run senses nothing. Either way the
    outcome reports the first contact; the stop margin of a run that
    avoids is `stop_margin`'s.

    A subset's closed loop is three steps: the unbraked observation pass,
    `first_confirmed_time` over its events, then a run forced from that
    trigger. Braking starts no earlier than the confirming frame, so every
    frame up to it is sensed on the unbraked path, and the forced run is
    the loop that would have confirmed live.

    Every run reads the spec's unbraked timeline and steps only its
    braking segment.
    """
    timeline = spec.timeline(dt)
    brake_onset: float | None = (
        trigger_override + policy.latency if trigger_override is not None else None
    )
    travel = timeline.travel
    speeds = array("d", [spec.vut_track.speed]) * len(travel)
    if brake_onset is not None:
        travel, speeds = _braked(policy, timeline, travel, speeds, brake_onset)
    if sense:
        events_by_sensor = _sense_frames(spec, sensors, model, travel[:: timeline.steps_per_frame])
    else:
        events_by_sensor = {u.sensor_id: [] for u in sensors}

    # the first contact fixes the outcome; a sensing run has sensed on to
    # its last frame regardless
    contact = _first_contact(spec, timeline.times, travel, speeds)
    avoided = contact is None
    outcome = SafetyOutcome(
        avoided=avoided,
        collision_speed=0.0 if avoided else speeds[contact],
        collision_time=None if avoided else timeline.times[contact],
    )
    return RunTrace(
        spec=spec,
        events_by_sensor=events_by_sensor,
        first_confirmed_time=trigger_override,
        brake_trigger_time=brake_onset,
        outcome=outcome,
        dt=dt,
        travel=travel,
        speeds=speeds,
    )


def stop_margin(trace: RunTrace) -> float:
    """Smallest gap between the footprints over a run that avoids contact,
    taken on the run's own steps.

    Steps whose centres are more than _NEAR_FIELD_SLACK beyond both
    bounding circles count by their circle bound; the closer ones by their
    exact box gap. No step's value is below its circle bound, and the
    minimum cannot exceed a frame start's own value, so the frame starts
    give a target, and the scan bisects past the steps whose circle bound the
    closing speed keeps above it, as the contact scan does. The close steps
    take their exact gap in ascending bound order, until no bound can beat
    the minimum, and only where their axis-projection gap (`obb_gap_bound`,
    a lower bound on it) does not already exceed it. A minimum does not
    depend on which values above it are skipped.
    """
    if not trace.outcome.avoided:
        raise ValueError("a run that made contact has no stop margin")
    spec, travel, speeds = trace.spec, trace.travel, trace.speeds
    timeline = spec.timeline(trace.dt)
    times = timeline.times
    vut_track, vru_track = spec.vut_track, spec.vru_track
    vut_r, vru_r = _radius(vut_track), _radius(vru_track)
    near_field = vut_r + vru_r + _NEAR_FIELD_SLACK
    vut_locate, vru_locate = vut_track.locate, vru_track.locate
    vru_speed = vru_track.speed

    def centres(k: int) -> tuple[float, float, float, float]:
        ux, uy = vut_locate(travel[k])
        rx, ry = vru_locate(vru_speed * times[k])
        return ux, uy, rx, ry

    n = len(times)
    # the target: a far-field frame start's own value, or the nearest
    # one's exact gap
    target, nearest, nearest_gap = math.inf, None, math.inf
    for k in range(0, n, timeline.steps_per_frame):
        ux, uy, rx, ry = centres(k)
        gap = math.hypot(rx - ux, ry - uy)
        if gap > near_field:
            target = min(target, gap - vut_r - vru_r)
        elif gap < nearest_gap:
            nearest, nearest_gap = k, gap
    if nearest is not None:
        ux, uy, rx, ry = centres(nearest)
        target = min(target, obb_separation(_box(vut_track, ux, uy), _box(vru_track, rx, ry)))
    margin = math.inf
    near: list[tuple[float, int]] = []  # (bound, step)
    k = 0
    while k < n:
        ux, uy, rx, ry = centres(k)
        gap = math.hypot(rx - ux, ry - uy)
        bound = gap - vut_r - vru_r
        if bound > target + _SLACK:
            closing = speeds[k] + vru_speed
            if closing <= 0.0:
                break
            k = bisect_left(times, times[k] + (bound - target - 2.0 * _SLACK) / closing, k + 1)
            continue
        if gap > near_field:
            margin = min(margin, bound)
            target = min(target, bound)
        else:
            near.append((bound, k))
        k += 1
    for bound, k in sorted(near):
        if bound > margin + _SLACK:
            break
        ux, uy, rx, ry = centres(k)
        vut_box, vru_box = _box(vut_track, ux, uy), _box(vru_track, rx, ry)
        if obb_gap_bound(vut_box, vru_box) > margin + _SLACK:
            continue
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
            spec, (), DetectionModel(), policy, dt=dt, trigger_override=j / spec.frame_rate, sense=False
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
    """Render a sensing run as line-oriented text for external plotting.

    Comment lines carry the run summary; the first says which pass this is:
    ``unbraked_observation`` for a run with no brake trigger, such as the
    sweep's observation pass (each subset's outcome is in the summary), and
    ``braked`` otherwise. The header row names the columns, one
    ``det_<sensor>`` flag column per sensor in the order of its
    ``events_by_sensor``.
    """
    out = trace.outcome
    kind = "unbraked_observation" if trace.brake_trigger_time is None else "braked"
    head = [
        f"# pass={kind}"
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
    ] + [f"det_{sensor_id}" for sensor_id in trace.events_by_sensor]
    lines = head + [",".join(cols)]
    spec = trace.spec
    steps_per_frame = spec.timeline(trace.dt).steps_per_frame
    detected = [{ev.frame for ev in events} for events in trace.events_by_sensor.values()]
    onset = trace.brake_trigger_time
    vut_track, vru_track = spec.vut_track, spec.vru_track
    for frame in range(spec.n_frames):
        t = frame / spec.frame_rate
        start = frame * steps_per_frame
        ux, uy = vut_track.locate(trace.travel[start])
        rx, ry = vru_track.locate(vru_track.speed * t)
        row = [
            f"{t:.3f}",
            f"{ux:.6f}",
            f"{uy:.6f}",
            f"{vut_track.heading:.6f}",
            f"{trace.speeds[start]:.6f}",
            f"{rx:.6f}",
            f"{ry:.6f}",
            f"{vru_track.heading:.6f}",
            "1" if onset is not None and t >= onset else "0",
        ] + ["1" if frame in frames else "0" for frames in detected]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def _opt(value: float | None) -> str:
    return "NA" if value is None else f"{value:.6f}"
