"""Oracles shared by the tests.

The scenario oracles rebuild, from the actor tracks alone, what the
closed-loop run computes on its own path: what a sensing frame sees at one
instant, and the first frame at which the unbraked footprints touch.

The sensing references are the plain ``Vec2`` forms of the frustum test,
the slab occlusion test and the visible fraction, one sample point and one
occluder at a time, with nothing computed ahead. The float kernel in
``vrusim.geometry`` must give the same bits.
"""

import math

from vrusim.geometry import (
    _EPS,
    MountPose,
    Prism,
    Silhouette,
    Vec2,
    obb_overlap,
    unit_vector,
    wrap_angle,
)
from vrusim.scenario import ScenarioSpec, WorldState


def world_at(spec: ScenarioSpec, t: float) -> WorldState:
    """What a sensing frame at time t sees with braking disabled."""
    vut_pose, _ = spec.vut_track.state_at(t)
    vru_pose, _ = spec.vru_track.state_at(t)
    return WorldState(t, vut_pose, spec.vru_track.silhouette(vru_pose), spec.occluders)


def nominal_collision_check(spec: ScenarioSpec) -> float | None:
    """Time of first footprint overlap with braking disabled, on the frame grid."""
    n_frames = int(round(spec.sim_duration * spec.frame_rate)) + 1
    for i in range(n_frames):
        t = i / spec.frame_rate
        vut_pose, _ = spec.vut_track.state_at(t)
        vru_pose, _ = spec.vru_track.state_at(t)
        if obb_overlap(spec.vut_track.footprint(vut_pose), spec.vru_track.footprint(vru_pose)):
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
    fwd, lat = occluder.axes()
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
