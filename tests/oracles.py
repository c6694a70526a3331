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
"""

import math

from vrusim.geometry import (
    _EPS,
    MountPose,
    OrientedBox,
    Pose2,
    Prism,
    Silhouette,
    Vec2,
    wrap_angle,
)
from vrusim.scenario import ActorTrack, ScenarioSpec, WorldState


def unit_vector(angle: float) -> Vec2:
    return Vec2(math.cos(angle), math.sin(angle))


def axes(box: OrientedBox) -> tuple[Vec2, Vec2]:
    """A box's forward and lateral unit axes."""
    fwd = unit_vector(box.heading)
    return fwd, Vec2(-fwd.y, fwd.x)


def corners(box: OrientedBox) -> tuple[Vec2, Vec2, Vec2, Vec2]:
    fwd, lat = axes(box)
    dl = fwd.scaled(box.half_long)
    dw = lat.scaled(box.half_lat)
    c = box.center
    return (c + dl + dw, c + dl - dw, c - dl - dw, c - dl + dw)


def footprint(track: ActorTrack, pose: Pose2) -> OrientedBox:
    """A track's ground footprint at a pose."""
    return OrientedBox(pose.position, track.length / 2, track.width / 2, pose.heading)


def float_box(box: OrientedBox) -> tuple[float, float, float, float, float]:
    """The same box as the plain floats ``vrusim.geometry``'s kernel takes."""
    return (box.center.x, box.center.y, box.heading, box.half_long, box.half_lat)


def _projected_interval(box: OrientedBox, axis: Vec2) -> tuple[float, float]:
    vals = [c.dot(axis) for c in corners(box)]
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
    seg = b - a
    ln2 = seg.dot(seg)
    if ln2 <= _EPS:
        return (p - a).norm()
    t = max(0.0, min(1.0, (p - a).dot(seg) / ln2))
    return (p - (a + seg.scaled(t))).norm()


def world_at(spec: ScenarioSpec, t: float) -> WorldState:
    """What a sensing frame at time t sees with braking disabled."""
    vut_pose, _ = spec.vut_track.state_at(t)
    vru_pose, _ = spec.vru_track.state_at(t)
    vru = spec.vru_track
    target = Silhouette(vru_pose.position, vru_pose.heading, vru.length, vru.width, vru.height)
    return WorldState(t, vut_pose, target, spec.occluders)


def nominal_collision_check(spec: ScenarioSpec) -> float | None:
    """Time of first footprint overlap with braking disabled, on the frame grid."""
    for i in range(spec.n_frames):
        t = i / spec.frame_rate
        vut_pose, _ = spec.vut_track.state_at(t)
        vru_pose, _ = spec.vru_track.state_at(t)
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
    span = t - o
    # slab test in the footprint's local frame
    fwd, lat = axes(occluder)
    rel = o - occluder.center
    t_lo, t_hi = 0.0, 1.0
    for axis, half in ((fwd, occluder.half_long), (lat, occluder.half_lat)):
        d = span.dot(axis)
        s = rel.dot(axis)
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
