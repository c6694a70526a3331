"""Oracles shared by the tests.

The scenario oracles rebuild, from the actor tracks alone, what the
closed-loop run computes on its own path: what a sensing frame sees at one
instant, and the first frame at which the unbraked footprints touch.

The sensing references are the plain ``Vec2`` forms of the frustum test,
the slab occlusion test and the visible fraction, one sample point and one
occluder at a time, with nothing computed ahead. The contact references
are the ``Vec2`` forms of the box overlap and gap on ``OrientedBox``
footprints, every corner rebuilt wherever it is needed. The float kernels
in ``vrusim.geometry`` must give the same bits.

``live_run`` is the closed loop confirmed while the run goes, which the
package defines instead as an observation pass followed by a run forced
from the subset's first confirmation; the two must agree exactly.
``observe_every_frame`` is that observation pass sensing every unit at
every frame with the gates of ``sense_reference``: the package's gate
order over the ``Vec2`` visible fraction on every raw prism. The package
skips the frames a roadside unit's range and size gates rule out, keeps
per mount only the occluders its sight lines can meet, and certifies a
target wholly in view without its point loop; their events must be equal.
``sense`` calls the package's ``sense_frame`` with the records of every
occluder it is given, built from the unit's origin in that frame.
``world_at`` gives what a unit reads in a frame: its mount pose, carried
by the vehicle for a vehicle unit, and the VRU's silhouette.
``speed_range_picks`` walks a config's speed range step by step, where
the package tests each allowed speed against the range.

The small vector, pose, heatmap and match-count accessors at the top are
the tests' own: the package reads none of them. ``Pose2`` is a ground
position and a normalized heading, and ``pose_at`` places a track where
the package's `ActorTrack.locate` does, as one.
"""

import hashlib
import math
from dataclasses import dataclass
from typing import NamedTuple

from vrusim.aeb import AebPolicy, _advance
from vrusim.geometry import (
    _EPS,
    MountPose,
    OrientedBox,
    Prism,
    Silhouette,
    Vec2,
    occluder_slabs,
    wrap_angle,
)
from vrusim.ingest import MatchCounts, MatchResult
from vrusim.metrics import HeatmapMatrix
from vrusim.scenario import ActorTrack, ScenarioSpec
from vrusim.sensing import (
    DetectionEvent,
    DetectionModel,
    SensorUnit,
    apparent_angular_height,
    apparent_angular_width,
    sense_frame,
)


def add(a: Vec2, b: Vec2) -> Vec2:
    return Vec2(a.x + b.x, a.y + b.y)


def sub(a: Vec2, b: Vec2) -> Vec2:
    return Vec2(a.x - b.x, a.y - b.y)


def scaled(v: Vec2, k: float) -> Vec2:
    return Vec2(v.x * k, v.y * k)


def dot(a: Vec2, b: Vec2) -> float:
    return a.x * b.x + a.y * b.y


def norm(v: Vec2) -> float:
    return math.hypot(v.x, v.y)


@dataclass(frozen=True)
class Pose2:
    """Ground-plane position plus heading; heading stored normalized."""

    x: float
    y: float
    heading: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "heading", wrap_angle(self.heading))


def position(pose: Pose2) -> Vec2:
    return Vec2(pose.x, pose.y)


def pose_at(track: ActorTrack, distance: float) -> Pose2:
    """A track's pose `distance` along its leg."""
    x, y = track.locate(distance)
    return Pose2(x, y, track.heading)


def heatmap_row(hm: HeatmapMatrix, sensor_id: str) -> tuple[bool, ...]:
    return hm.cells[hm.sensor_ids.index(sensor_id)]


def totals(result: MatchResult) -> MatchCounts:
    """A match's counts summed over every (frame, sensor) cell."""
    cells = result.counts.values()
    return MatchCounts(sum(c.tp for c in cells), sum(c.fp for c in cells), sum(c.fn for c in cells))


def unit_vector(angle: float) -> Vec2:
    return Vec2(math.cos(angle), math.sin(angle))


def axes(box: OrientedBox) -> tuple[Vec2, Vec2]:
    """A box's forward and lateral unit axes."""
    fwd = unit_vector(box.heading)
    return fwd, Vec2(-fwd.y, fwd.x)


def corners(box: OrientedBox) -> tuple[Vec2, Vec2, Vec2, Vec2]:
    fwd, lat = axes(box)
    dl = scaled(fwd, box.half_long)
    dw = scaled(lat, box.half_lat)
    c = box.center
    return (add(add(c, dl), dw), sub(add(c, dl), dw), sub(sub(c, dl), dw), add(sub(c, dl), dw))


def footprint(track: ActorTrack, pose: Pose2) -> OrientedBox:
    """A track's ground footprint at a pose."""
    return OrientedBox(position(pose), track.length / 2, track.width / 2, pose.heading)


def float_box(box: OrientedBox) -> tuple[float, float, float, float, float]:
    """The same box as the plain floats ``vrusim.geometry``'s kernel takes."""
    return (box.center.x, box.center.y, box.heading, box.half_long, box.half_lat)


def _projected_interval(box: OrientedBox, axis: Vec2) -> tuple[float, float]:
    vals = [dot(c, axis) for c in corners(box)]
    return min(vals), max(vals)


def obb_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    """Separating-axis test; touching boundaries count as overlap."""
    for box in (a, b):
        for axis in axes(box):
            a_lo, a_hi = _projected_interval(a, axis)
            b_lo, b_hi = _projected_interval(b, axis)
            if a_hi < b_lo or b_hi < a_lo:
                return False
    return True


def obb_separation(a: OrientedBox, b: OrientedBox) -> float:
    """Euclidean gap between two boxes; 0.0 when they overlap or touch."""
    if obb_overlap(a, b):
        return 0.0
    best = math.inf
    ca, cb = corners(a), corners(b)
    for pts, box in ((ca, b), (cb, a)):
        edges = list(zip(corners(box), corners(box)[1:] + corners(box)[:1]))
        for p in pts:
            for e0, e1 in edges:
                best = min(best, _point_segment_distance(p, e0, e1))
    return best


def _point_segment_distance(p: Vec2, a: Vec2, b: Vec2) -> float:
    seg = sub(b, a)
    ln2 = dot(seg, seg)
    if ln2 <= _EPS:
        return norm(sub(p, a))
    t = max(0.0, min(1.0, dot(sub(p, a), seg) / ln2))
    return norm(sub(p, add(a, scaled(seg, t))))


def stopping_distance(v: float, policy: AebPolicy) -> float:
    """Travel between the brake command and standstill."""
    if v < 0:
        raise ValueError("speed must be non-negative")
    return v * policy.latency + v * v / (2.0 * policy.deceleration)


def world_at(
    spec: ScenarioSpec, t: float, unit: SensorUnit, vut_pose: Pose2 | None = None
) -> tuple[MountPose, Silhouette]:
    """What `unit` reads in a sensing frame at time t: its mount pose and
    the VRU's silhouette. A vehicle unit rides the vehicle at `vut_pose`
    or, by default, where braking disabled puts it."""
    vru_pose = pose_at(spec.vru_track, spec.vru_track.speed * t)
    vru = spec.vru_track
    target = Silhouette(position(vru_pose), vru_pose.heading, vru.length, vru.width, vru.height)
    if unit.mount == "rsu":
        return unit.pose, target
    if vut_pose is None:
        vut_pose = pose_at(spec.vut_track, spec.vut_track.speed * t)
    return unit.world_pose(vut_pose.x, vut_pose.y, vut_pose.heading), target


def sense(
    unit: SensorUnit,
    model: DetectionModel,
    pose: MountPose,
    target: Silhouette,
    frame: int,
    time: float,
    occluders: tuple[Prism, ...] = (),
) -> DetectionEvent | None:
    """The package's `sense_frame`, given the records of all `occluders`
    from the unit's mount at `pose`."""
    return sense_frame(unit, model, pose, target, frame, time, occluder_slabs(pose.x, pose.y, occluders))


def sense_reference(
    unit: SensorUnit,
    model: DetectionModel,
    pose: MountPose,
    target: Silhouette,
    frame: int,
    time: float,
    occluders: tuple[Prism, ...],
) -> DetectionEvent | None:
    """One frame's detection by `sense_frame`'s gates in its order, with
    the exact ``Vec2`` visible fraction over every one of `occluders` and
    the miss coin drawn from its hash."""
    dist = math.hypot(target.anchor.x - pose.x, target.anchor.y - pose.y)
    if dist - target.length / 2.0 > unit.max_range or dist < 1e-9:
        return None
    # a pixel spans the unit's hfov over the image width, across and up
    if apparent_angular_width(pose, target, dist) < model.min_width_px * unit.hfov / model.image_width_px:
        return None
    if apparent_angular_height(pose, target, dist) < model.min_height_px * unit.hfov / model.image_width_px:
        return None
    fraction = visible_fraction(pose, unit.hfov, unit.vfov, unit.max_range, target, occluders)
    if fraction < model.min_visible_fraction:
        return None
    if model.miss_probability > 0.0:
        digest = hashlib.sha256(f"{model.seed}:{unit.sensor_id}:{frame}".encode()).digest()
        if int.from_bytes(digest[:8], "big") / 2**64 <= model.miss_probability:
            return None
    return DetectionEvent(frame, unit.sensor_id, "vru", time + unit.latency)


def observe_every_frame(
    spec: ScenarioSpec,
    sensors: tuple[SensorUnit, ...],
    model: DetectionModel,
    dt: float = 0.005,
) -> dict[str, list[DetectionEvent]]:
    """An unbraked sensing run's events with nothing skipped: every unit
    senses every frame by `sense_reference`, the vehicle where its
    unbraked timeline puts it."""
    timeline = spec.timeline(dt)
    events: dict[str, list[DetectionEvent]] = {u.sensor_id: [] for u in sensors}
    for frame in range(spec.n_frames):
        t = frame / spec.frame_rate
        vut_pose = pose_at(spec.vut_track, timeline.travel[frame * timeline.steps_per_frame])
        for unit in sensors:
            pose, target = world_at(spec, t, unit, vut_pose)
            ev = sense_reference(unit, model, pose, target, frame, t, spec.occluders)
            if ev is not None:
                events[unit.sensor_id].append(ev)
    return events


class LiveRun(NamedTuple):
    trigger: float | None
    travel: list[float]
    speeds: list[float]
    events_by_sensor: dict[str, list[DetectionEvent]]
    avoided: bool


def live_run(
    spec: ScenarioSpec,
    sensors: tuple[SensorUnit, ...],
    model: DetectionModel,
    policy: AebPolicy,
    subset: tuple[str, ...],
    dt: float = 0.005,
) -> LiveRun:
    """The closed loop of `subset`, confirmed while the run goes.

    Every frame start senses by `sense_reference` from where the vehicle
    has got to; a sensor of the subset confirms on the frame that
    completes a run of ``policy.confirm_frames`` consecutive detections,
    and a confirmation earlier than the trigger so far moves the braking
    onset earlier. The frame's dt steps are then driven with `_advance`
    from the onset as it stands, from t = 0 on. Returns the trigger, the
    vehicle's travel and speed at t = 0 and at the end of every step, the
    events, and whether the footprints never touch at any of those
    instants.
    """
    steps_per_frame = round(1.0 / spec.frame_rate / dt)
    travelled, speed = 0.0, spec.vut_track.speed
    times, travel, speeds = [0.0], [travelled], [speed]
    events: dict[str, list[DetectionEvent]] = {u.sensor_id: [] for u in sensors}
    run_len = {u.sensor_id: 0 for u in sensors}
    trigger = onset = None
    for frame in range(spec.n_frames):
        t_frame = frame / spec.frame_rate
        vut_pose = pose_at(spec.vut_track, travelled)
        for unit in sensors:
            pose, target = world_at(spec, t_frame, unit, vut_pose)
            ev = sense_reference(unit, model, pose, target, frame, t_frame, spec.occluders)
            if ev is None:
                run_len[unit.sensor_id] = 0
                continue
            events[unit.sensor_id].append(ev)
            run_len[unit.sensor_id] += 1
            confirmed = unit.sensor_id in subset and run_len[unit.sensor_id] == policy.confirm_frames
            if confirmed and (trigger is None or ev.available_at < trigger):
                trigger = ev.available_at
                onset = trigger + policy.latency
        if frame == spec.n_frames - 1:
            break
        for step in range(steps_per_frame):
            t0 = t_frame + step * dt
            t1 = t_frame + (step + 1) * dt
            travelled, speed = _advance(travelled, speed, t0, t1, onset, policy.deceleration)
            times.append(t1)
            travel.append(travelled)
            speeds.append(speed)
    return LiveRun(trigger, travel, speeds, events, not any(touch(spec, t, d) for t, d in zip(times, travel)))


def touch(spec: ScenarioSpec, t: float, travelled: float) -> bool:
    """Whether the footprints overlap at time t with the vehicle
    `travelled` metres along its path; boxes whose bounding circles lie a
    metre apart are not tested."""
    vut, vru = spec.vut_track, spec.vru_track
    vut_pose = pose_at(vut, travelled)
    vru_pose = pose_at(vru, vru.speed * t)
    reach = math.hypot(vut.length / 2, vut.width / 2) + math.hypot(vru.length / 2, vru.width / 2) + 1.0
    if norm(sub(position(vru_pose), position(vut_pose))) > reach:
        return False
    return obb_overlap(footprint(vut, vut_pose), footprint(vru, vru_pose))


def nominal_collision_check(spec: ScenarioSpec) -> float | None:
    """Time of first footprint overlap with braking disabled, on the frame grid."""
    for i in range(spec.n_frames):
        t = i / spec.frame_rate
        vut_pose = pose_at(spec.vut_track, spec.vut_track.speed * t)
        vru_pose = pose_at(spec.vru_track, spec.vru_track.speed * t)
        if obb_overlap(footprint(spec.vut_track, vut_pose), footprint(spec.vru_track, vru_pose)):
            return t
    return None


def sample_points(target: Silhouette) -> tuple[tuple[float, float, float], ...]:
    """The 3x3 grid of cell centers over the silhouette plane."""
    fwd = unit_vector(target.heading)
    pts = []
    for i in range(3):
        s = target.length * ((i + 0.5) / 3 - 0.5)
        px = target.anchor.x + fwd.x * s
        py = target.anchor.y + fwd.y * s
        for j in range(3):
            pz = target.height * (j + 0.5) / 3
            pts.append((px, py, pz))
    return tuple(pts)


def in_frustum(
    pose: MountPose,
    hfov: float,
    vfov: float,
    max_range: float,
    point: tuple[float, float, float],
) -> bool:
    """Whether a 3D point lies inside the sensor's viewing frustum; the
    range sphere and both apertures are inclusive."""
    dx = point[0] - pose.x
    dy = point[1] - pose.y
    dz = point[2] - pose.z
    dist = math.sqrt(dx * dx + dy * dy + dz * dz)
    if dist > max_range + _EPS:
        return False
    horiz = math.hypot(dx, dy)
    if horiz < _EPS and abs(dz) < _EPS:
        return True  # point at the sensor origin
    bearing = math.atan2(dy, dx)
    if abs(wrap_angle(bearing - pose.yaw)) > hfov / 2.0 + _EPS:
        return False
    elevation = math.atan2(dz, horiz)
    if abs(wrap_angle(elevation - pose.pitch)) > vfov / 2.0 + _EPS:
        return False
    return True


def ray_blocked(
    origin: tuple[float, float, float],
    target: tuple[float, float, float],
    occluder: Prism,
) -> bool:
    """Whether the segment origin->target passes through a vertical prism:
    its ground projection crosses the footprint and its height over the
    crossing dips below the prism top."""
    o = Vec2(origin[0], origin[1])
    t = Vec2(target[0], target[1])
    span = sub(t, o)
    # slab test in the footprint's local frame
    fwd, lat = axes(occluder)
    rel = sub(o, occluder.center)
    t_lo, t_hi = 0.0, 1.0
    for axis, half in ((fwd, occluder.half_long), (lat, occluder.half_lat)):
        d = dot(span, axis)
        s = dot(rel, axis)
        if abs(d) < _EPS:
            if abs(s) > half:
                return False
            continue
        u0 = (-half - s) / d
        u1 = (half - s) / d
        if u0 > u1:
            u0, u1 = u1, u0
        t_lo = max(t_lo, u0)
        t_hi = min(t_hi, u1)
        if t_lo > t_hi:
            return False
    z0 = origin[2] + (target[2] - origin[2]) * t_lo
    z1 = origin[2] + (target[2] - origin[2]) * t_hi
    return min(z0, z1) < occluder.height - _EPS


def visible_fraction(
    pose: MountPose,
    hfov: float,
    vfov: float,
    max_range: float,
    target: Silhouette,
    occluders: tuple[Prism, ...] | list[Prism],
) -> float:
    """Exact fraction of sample points inside the frustum and unblocked."""
    origin = (pose.x, pose.y, pose.z)
    pts = sample_points(target)
    seen = 0
    for p in pts:
        if not in_frustum(pose, hfov, vfov, max_range, p):
            continue
        if any(ray_blocked(origin, p, occ) for occ in occluders):
            continue
        seen += 1
    return seen / len(pts)


def speed_range_picks(allowed: tuple[float, ...], lo: float, hi: float, step: float) -> tuple[float, ...]:
    """The allowed speeds a ``speed_range`` selects: every lo + k * step up
    to hi (with 1e-9 of slack), summed step by step and rounded to six
    decimals, that is an allowed speed."""
    wanted = []
    v = lo
    while v <= hi + 1e-9:
        wanted.append(round(v, 6))
        v += step
    return tuple(s for s in wanted if s in allowed)
