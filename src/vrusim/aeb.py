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
from typing import Iterator

from .geometry import _SLACK, Box, _pad, obb_gap_bound, obb_overlap, obb_separation, occluder_slabs, triangle_meets_box
from .scenario import ActorTrack, ScenarioSpec, Timeline
from .sensing import (
    DetectionEvent,
    DetectionModel,
    SensorUnit,
    anchor_window,
    draw_detection,
    sense_frame,
    span_passes,
)

log = logging.getLogger(__name__)

_NEAR_FIELD_SLACK = 10.0


@dataclass(frozen=True)
class AebPolicy:
    deceleration: float = 7.72
    latency: float = 0.025
    confirm_frames: int = 3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.deceleration) and math.isfinite(self.latency)):
            raise ValueError("deceleration and latency must be finite")
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
    # the run's steps, indexed like spec.timeline: the vehicle's travel and
    # speed at the end of each
    travel: array[float]
    speeds: array[float]


def _braked_advance(speed: float, tau: float, decel: float) -> tuple[float, float]:
    """Distance covered and final speed after tau seconds of braking."""
    t_stop = speed / decel
    if tau >= t_stop:
        return speed * speed / (2.0 * decel), 0.0
    return speed * tau - decel * tau * tau / 2.0, speed - decel * tau


def _braked(
    timeline: Timeline, speed: float, onset: float | None, decel: float
) -> tuple[array[float], array[float]]:
    """A run's travel and speed at the end of each of `timeline`'s steps,
    driving at `speed` and braking at `decel` from `onset` on, or never
    for None.

    The steps that end by the onset are the timeline's own, unbraked.
    Only the braking segment is stepped, each step with
    `_braked_advance`; a step that starts before the onset first drives
    at `speed` up to it, as a frame's first step can start an ulp before
    the previous step's end. Once the vehicle has stopped a step adds
    exactly 0.0, so the travel holds from there on.
    """
    starts, times, travel = timeline.starts, timeline.times, timeline.travel
    n = len(times)
    j = n if onset is None else max(bisect_right(times, onset), 1)
    unbraked = array("d", [speed])
    if j >= n:
        return travel, unbraked * n
    dist = travel[j - 1]
    seg_travel, seg_speeds = [], []
    add_travel, add_speed = seg_travel.append, seg_speeds.append
    for t0, t1 in zip(starts[j:], times[j:]):
        if speed == 0.0:
            break
        if onset > t0:
            d, v = _braked_advance(speed, t1 - onset, decel)
            dist, speed = dist + speed * (onset - t0) + d, v
        else:
            d, speed = _braked_advance(speed, t1 - t0, decel)
            dist = dist + d
        add_travel(dist)
        add_speed(speed)
    stopped = n - j - len(seg_travel)
    return (
        travel[:j] + array("d", seg_travel) + array("d", [dist]) * stopped,
        unbraked * j + array("d", seg_speeds) + array("d", [0.0]) * stopped,
    )


def _radius(track: ActorTrack) -> float:
    """Bounding-circle radius of a track's footprint."""
    return math.hypot(track.length / 2, track.width / 2)


def _box(track: ActorTrack, x: float, y: float) -> Box:
    """A track's footprint at a located position, as a float box on the track's axis."""
    return (x, y, *track.axis, track.length / 2, track.width / 2)


def _leg_span(track: ActorTrack, x: float, y: float, reach: float) -> tuple[float, float] | None:
    """The interval of distances along `track`'s leg, measured on its
    `axis`, at which its centre can lie within `reach` of (x, y), or None
    when no point of the leg does. Its upper end may lie past the leg's
    end; keyed by the clamped `ActorTrack.along`, every time after the end
    is reached then falls in it. The reach is padded as `_pad` pads a
    bound, far past the rounding of a located position and its gap."""
    ax, ay, _, _, length = track._leg
    fx, fy = track.axis
    wx, wy = x - ax, y - ay
    along, across = wx * fx + wy * fy, wx * fy - wy * fx
    reach = _pad(reach)
    if abs(across) > reach:
        return None
    half = math.sqrt(reach * reach - across * across)
    if along - half > length:
        return None
    return along - half, along + half


def _close_steps(
    spec: ScenarioSpec, times: array[float], travel: array[float], speeds: array[float], ceiling: float
) -> Iterator[tuple[int, float, float, tuple[float, float], tuple[float, float]]]:
    """(step, centre distance, circle bound, vehicle centre, VRU centre)
    for every step of a run whose circle bound, centre distance minus both
    bounding-circle radii, is at most `ceiling` + _SLACK, in step order.
    The centres are located once, here, for the consumer's `_box`es.

    The vehicle only slows, so from a step where it drives at v the
    centres close at most at v plus the VRU's speed; after a step with
    bound b at time t no step before t + (b - ceiling - 2 * _SLACK) /
    closing can come that near, and the scan bisects past them without
    locating either actor. Once the vehicle has stopped it stands at one
    point for the rest of the run, and only the steps while the VRU's
    centre can lie within reach of it (`_leg_span`), one interval, can
    come that near: the scan bisects to that interval, keyed by the VRU's
    clamped `ActorTrack.along`, and ends with it.
    """
    vut_track, vru_track = spec.vut_track, spec.vru_track
    vut_r, vru_r = _radius(vut_track), _radius(vru_track)
    vut_locate, vru_locate = vut_track.locate, vru_track.locate
    vru_speed, along = vru_track.speed, vru_track.along
    n = len(times)
    # the first step at standstill; the speed never rises again
    halt = bisect_left(speeds, True, key=lambda v: v == 0.0)
    k = 0
    while k < n:
        if k >= halt:
            span = _leg_span(vru_track, *vut_locate(travel[halt]), ceiling + _SLACK + vut_r + vru_r)
            if span is None:
                return
            k = bisect_left(times, span[0], k, key=along)
            n = bisect_right(times, span[1], k, n, key=along)
            halt = n  # narrowed once
            continue
        t = times[k]
        ux, uy = vut_at = vut_locate(travel[k])
        rx, ry = vru_at = vru_locate(vru_speed * t)
        gap = math.hypot(rx - ux, ry - uy)
        bound = gap - vut_r - vru_r
        if bound > ceiling + _SLACK:
            closing = speeds[k] + vru_speed
            if closing <= 0.0:
                return
            k = bisect_left(times, t + (bound - ceiling - 2.0 * _SLACK) / closing, k + 1)
            continue
        yield k, gap, bound, vut_at, vru_at
        k += 1


def _first_contact(
    spec: ScenarioSpec, times: array[float], travel: array[float], speeds: array[float]
) -> int | None:
    """Index of the first step whose footprints touch, or None. No step's
    gap is below its circle bound, so the exact box test runs only at the
    `_close_steps` to a ceiling of 0."""
    vut_track, vru_track = spec.vut_track, spec.vru_track
    for k, _, _, vut_at, vru_at in _close_steps(spec, times, travel, speeds, 0.0):
        if obb_overlap(_box(vut_track, *vut_at), _box(vru_track, *vru_at)):
            return k
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

    A roadside unit senses only the window of frames whose anchor, on the
    VRU's line and clamped at the leg's end, lies in its `anchor_window`:
    no other frame can pass, and the miss coin is stateless per (seed,
    sensor, frame), so a frame left out draws none. Within the window,
    after a frame that detected, one `span_passes` check settles a span of
    the frames that follow at once, each still drawing its own coin. A
    span starts at two frames, doubles after a check that passes and is
    retried at half its length after one that fails; below two frames the
    next frame is sensed alone, and after a frame that did not detect, so
    is the one that follows. The window's bounds are keyed by the VRU's
    clamped `ActorTrack.along`.
    """
    vut_track, vru_track = spec.vut_track, spec.vru_track
    times = [frame / spec.frame_rate for frame in range(spec.n_frames)]
    targets = [vru_track.silhouette_at(t) for t in times]
    start, end = vru_track.path
    fx, fy = vru_track.axis
    ex, ey = fx * vru_track.length / 2.0, fy * vru_track.length / 2.0
    leg = ((start.x - ex, start.y - ey), (end.x + ex, end.y + ey))
    grown = [
        (o, (o.center.x, o.center.y, *o.axis, o.half_long + _SLACK, o.half_lat + _SLACK))
        for o in spec.occluders
    ]
    n = len(targets)
    events_by_sensor: dict[str, list[DetectionEvent]] = {u.sensor_id: [] for u in sensors}
    for unit in sensors:
        events = events_by_sensor[unit.sensor_id]
        floors = model.size_floors(unit)
        if unit.mount != "rsu":
            for frame in range(n):
                pose = unit.world_pose(*vut_track.locate(frame_travel[frame]), vut_track.heading)
                slabs = occluder_slabs(pose.x, pose.y, spec.occluders)
                ev = sense_frame(unit, model, pose, targets[frame], frame, times[frame], slabs, floors)
                if ev is not None:
                    events.append(ev)
            continue
        lo, hi = anchor_window(unit, model, floors, targets[0])
        frame, stop = bisect_left(times, lo, key=vru_track.along), bisect_right(times, hi, key=vru_track.along)
        if frame >= stop:
            continue
        pose = unit.pose
        sx, sy = pose.x, pose.y
        slabs = occluder_slabs(sx, sy, [o for o, box in grown if triangle_meets_box(((sx, sy), *leg), box)])
        # the length of the span to try next, or 0 to sense the next frame alone
        span = 0
        while frame < stop:
            if span:
                span = min(span, stop - frame)
                while span > 1 and not span_passes(unit, floors, targets[frame], targets[frame + span - 1], slabs):
                    span //= 2
                if span > 1:
                    for f in range(frame, frame + span):
                        ev = draw_detection(unit, model, f, times[f])
                        if ev is not None:
                            events.append(ev)
                    frame, span = frame + span, 2 * span
                    continue
            ev = sense_frame(unit, model, pose, targets[frame], frame, times[frame], slabs, floors)
            if ev is not None:
                events.append(ev)
            span = 0 if ev is None else 2
            frame += 1
    return events_by_sensor


def simulate_run(
    spec: ScenarioSpec,
    sensors: tuple[SensorUnit, ...],
    model: DetectionModel,
    policy: AebPolicy,
    trigger_override: float | None = None,
    sense: bool = True,
) -> RunTrace:
    """One run: braking from a forced confirmation, kinematics on the
    spec's own step grid.

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
    if trigger_override is not None and not math.isfinite(trigger_override):
        raise ValueError(f"trigger_override must be finite, got {trigger_override!r}")
    timeline = spec.timeline
    brake_onset = None if trigger_override is None else trigger_override + policy.latency
    travel, speeds = _braked(timeline, spec.vut_track.speed, brake_onset, policy.deceleration)
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
    give a target, and only the `_close_steps` to it are taken. The close
    steps take their exact gap in ascending bound order, until no bound
    can beat the minimum, and only where a cheaper lower bound on it
    (`obb_gap_bound`, the gap to the other box's bounding rectangle) does
    not already exceed it. A minimum does not depend on which values above
    it are skipped.
    """
    if not trace.outcome.avoided:
        raise ValueError("a run that made contact has no stop margin")
    spec, travel, speeds = trace.spec, trace.travel, trace.speeds
    timeline = spec.timeline
    times = timeline.times
    vut_track, vru_track = spec.vut_track, spec.vru_track
    vut_r, vru_r = _radius(vut_track), _radius(vru_track)
    near_field = vut_r + vru_r + _NEAR_FIELD_SLACK

    # the target: a far-field frame start's own value, or the nearest
    # one's exact gap; a stopped vehicle stays where it was last located
    target, nearest, nearest_gap = math.inf, None, math.inf
    located = None
    for k in range(0, len(times), timeline.steps_per_frame):
        if travel[k] != located:
            located = travel[k]
            ux, uy = vut_track.locate(located)
        rx, ry = vru_track.locate(vru_track.speed * times[k])
        gap = math.hypot(rx - ux, ry - uy)
        if gap > near_field:
            target = min(target, gap - vut_r - vru_r)
        elif gap < nearest_gap:
            nearest, nearest_gap = (_box(vut_track, ux, uy), _box(vru_track, rx, ry)), gap
    if nearest is not None:
        target = min(target, obb_separation(*nearest))
    margin = math.inf
    near: list[tuple[float, int, tuple[float, float], tuple[float, float]]] = []  # (bound, step, centres)
    for k, gap, bound, vut_at, vru_at in _close_steps(spec, times, travel, speeds, target):
        if gap > near_field:
            margin = min(margin, bound)
        else:
            near.append((bound, k, vut_at, vru_at))
    for bound, _, vut_at, vru_at in sorted(near):
        if bound > margin + _SLACK:
            break
        vut_box, vru_box = _box(vut_track, *vut_at), _box(vru_track, *vru_at)
        if obb_gap_bound(vut_box, vru_box) > margin + _SLACK:
            continue
        margin = min(margin, obb_separation(vut_box, vru_box))
    return margin


def last_possible_brake_time(spec: ScenarioSpec, policy: AebPolicy) -> float | None:
    """Latest forced-confirmation instant, on the frame grid, that still avoids.

    Earlier braking can only delay the vehicle along its path, so once a
    run forced at frame j collides, so does every run forced later: the
    deadline is the frame before the first colliding one, which one
    bisection over the run's frames finds. A spec whose unbraked run never
    touches avoids at every frame, and its deadline is its last frame.
    """

    def collides(j: int) -> bool:
        trace = simulate_run(spec, (), DetectionModel(), policy, trigger_override=j / spec.frame_rate, sense=False)
        return not trace.outcome.avoided

    first = bisect_left(range(spec.n_frames), True, key=collides)
    if first == 0:
        log.warning(
            "%s: braking from t=0 still collides; configuration infeasible",
            spec.kind.display_name,
        )
        return None
    return (first - 1) / spec.frame_rate
