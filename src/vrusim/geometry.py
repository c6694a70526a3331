"""Planar pose math, oriented-box overlap, frustum and occlusion tests.

All lengths are meters, all angles radians. Headings are normalized to
(-pi, pi]. The vertical axis only enters through sensor height, occluder
height and silhouette sampling; everything else lives in the ground plane.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

_EPS = 1e-9
_SILHOUETTE_COLS = 3
_SILHOUETTE_ROWS = 3
# how far a bound clears what it bounds, in metres and in radians
_SLACK, _ANGLE_SLACK = 1e-6, 1e-9


def wrap_angle(a: float) -> float:
    """Normalize an angle to (-pi, pi]."""
    a = math.fmod(a, 2.0 * math.pi)
    if a <= -math.pi:
        a += 2.0 * math.pi
    elif a > math.pi:
        a -= 2.0 * math.pi
    return a


@dataclass(frozen=True)
class Vec2:
    x: float
    y: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite Vec2: ({self.x}, {self.y})")

    def rotated(self, angle: float) -> "Vec2":
        c, s = math.cos(angle), math.sin(angle)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)


@dataclass(frozen=True)
class MountPose:
    """3D sensor mount: position, yaw about z, pitch about the lateral axis.

    Positive pitch looks up, negative looks down. For a vehicle mount the
    coordinates are relative to the vehicle body frame.
    """

    x: float
    y: float
    z: float
    yaw: float
    pitch: float


@dataclass(frozen=True)
class OrientedBox:
    """Rectangle with arbitrary heading, given by center and half extents."""

    center: Vec2
    half_long: float  # half extent along the heading axis
    half_lat: float  # half extent across it
    heading: float
    # (cos heading, sin heading), the unit vector along the heading
    axis: tuple[float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.half_long <= 0.0 or self.half_lat <= 0.0:
            raise ValueError("OrientedBox half extents must be positive")
        object.__setattr__(self, "axis", (math.cos(self.heading), math.sin(self.heading)))


@dataclass(frozen=True)
class Prism(OrientedBox):
    """Vertical extrusion of an oriented footprint, sitting on the ground."""

    height: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.height <= 0.0:
            raise ValueError("Prism height must be positive")


@dataclass(frozen=True)
class AxisBox2:
    """Axis-aligned box in whatever frame the caller uses (pixels or meters)."""

    min_x: float
    min_y: float
    max_x: float
    max_y: float

    def __post_init__(self) -> None:
        if not (-math.inf < self.min_x <= self.max_x < math.inf and -math.inf < self.min_y <= self.max_y < math.inf):
            raise ValueError(f"box extent is negative or not finite: ({self.min_x},{self.min_y})..({self.max_x},{self.max_y})")

    @property
    def area(self) -> float:
        return (self.max_x - self.min_x) * (self.max_y - self.min_y)


@dataclass(frozen=True)
class Silhouette:
    """Vertical sampling plane standing on a target's footprint.

    The plane is oriented along the target heading and spans the footprint
    length; `width` is the across-heading extent, used only for projecting
    the apparent width seen from a sensor. Sample points cover the plane on
    a fixed 3x3 grid (columns along the heading, rows over the height).
    """

    anchor: Vec2
    heading: float
    length: float
    width: float
    height: float
    # the (x, y, z) sample points, columns outer, rows inner
    points: tuple[tuple[float, float, float], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if min(self.length, self.width, self.height) <= 0.0:
            raise ValueError("Silhouette extents must be positive")
        fx, fy = math.cos(self.heading), math.sin(self.heading)
        pts = []
        for i in range(_SILHOUETTE_COLS):
            # cell centers over [-length/2, length/2]
            s = self.length * ((i + 0.5) / _SILHOUETTE_COLS - 0.5)
            px = self.anchor.x + fx * s
            py = self.anchor.y + fy * s
            for j in range(_SILHOUETTE_ROWS):
                pz = self.height * (j + 0.5) / _SILHOUETTE_ROWS
                pts.append((px, py, pz))
        object.__setattr__(self, "points", tuple(pts))


# A box for the contact kernel is a plain-float tuple (center x, center y,
# unit axis x, unit axis y, half_long, half_lat), the halves along and across the axis.
Box = tuple[float, float, float, float, float, float]


def _box_frame(box: Box) -> tuple[tuple[tuple[float, float], ...], tuple[tuple[float, float], ...]]:
    """The four corners and the two unit axes of a box, each corner summed
    in the order center + long offset + lateral offset."""
    cx, cy, fx, fy, half_long, half_lat = box
    lx, ly = -fy, fx
    dlx, dly = fx * half_long, fy * half_long
    dwx, dwy = lx * half_lat, ly * half_lat
    px, py = cx + dlx, cy + dly
    mx, my = cx - dlx, cy - dly
    corners = ((px + dwx, py + dwy), (px - dwx, py - dwy), (mx - dwx, my - dwy), (mx + dwx, my + dwy))
    return corners, ((fx, fy), (lx, ly))


def _frames_overlap(fa, fb) -> bool:
    """Separating-axis test on two box frames from _box_frame."""
    ca, cb = fa[0], fb[0]
    for axes in (fa[1], fb[1]):
        for ux, uy in axes:
            pa = [x * ux + y * uy for x, y in ca]
            pb = [x * ux + y * uy for x, y in cb]
            if max(pa) < min(pb) or max(pb) < min(pa):
                return False
    return True


def obb_overlap(a: Box, b: Box) -> bool:
    """Separating-axis test (Gottschalk et al., "OBBTree", 1996); touching
    boundaries count as overlap."""
    return _frames_overlap(_box_frame(a), _box_frame(b))


def triangle_meets_box(triangle: tuple[tuple[float, float], ...], box: Box) -> bool:
    """Separating-axis test of a triangle, given by its three corners,
    against a box; touching counts as meeting, and a triangle whose
    corners are collinear is the segment they span."""
    normals = tuple((ay - by, bx - ax) for (ax, ay), (bx, by) in zip(triangle, triangle[1:] + triangle[:1]))
    return _frames_overlap((triangle, normals), _box_frame(box))


def obb_gap_bound(a: Box, b: Box) -> float:
    """A lower bound on `obb_separation` that costs no corners: for each
    box, the gap between it and the other box's bounding rectangle in its
    own frame, taken as the larger of the two; 0.0 where neither gap is
    positive.

    In a box's own frame it is axis-aligned, and so is the other box's
    bounding rectangle, which holds the other box; the gap between two
    axis-aligned rectangles is the hypot of their positive gaps along the
    two axes (the separating-axis test measured rather than decided). It
    is exact where a box's corner, or face, meets a face-parallel box.
    """
    ax, ay, ca, sa, a_long, a_lat = a
    bx, by, cb, sb, b_long, b_lat = b
    dx, dy = bx - ax, by - ay
    # |cos| and |sin| of the angle between the two forward axes
    c, s = abs(ca * cb + sa * sb), abs(ca * sb - sa * cb)
    return max(
        math.hypot(
            max(abs(dx * ca + dy * sa) - a_long - (b_long * c + b_lat * s), 0.0),
            max(abs(dy * ca - dx * sa) - a_lat - (b_long * s + b_lat * c), 0.0),
        ),
        math.hypot(
            max(abs(dx * cb + dy * sb) - b_long - (a_long * c + a_lat * s), 0.0),
            max(abs(dy * cb - dx * sb) - b_lat - (a_long * s + a_lat * c), 0.0),
        ),
    )


def obb_separation(a: Box, b: Box) -> float:
    """Euclidean gap between two boxes; 0.0 when they overlap or touch.

    Disjoint rectangles are closest at a corner of one against an edge of
    the other, so the gap is the least corner-to-edge distance. A corner's
    distance to the other box, measured in that box's frame, bounds its
    four edge distances from below, to within rounding far below _SLACK.
    The corners go in ascending order of it, each taking all four edges,
    and one whose bound exceeds the least distance so far by _SLACK ends
    the search: neither it nor any later corner can set the minimum.
    """
    fa, fb = _box_frame(a), _box_frame(b)
    if _frames_overlap(fa, fb):
        return 0.0
    # (bound, corner x, corner y, the other box's corners) per corner
    candidates = []
    for pts, box, (corners, ((fx, fy), (lx, ly))) in ((fa[0], b, fb), (fb[0], a, fa)):
        cx, cy, _, _, half_long, half_lat = box
        for px, py in pts:
            rx, ry = px - cx, py - cy
            bound = math.hypot(max(abs(rx * fx + ry * fy) - half_long, 0.0), max(abs(rx * lx + ry * ly) - half_lat, 0.0))
            candidates.append((bound, px, py, corners))
    candidates.sort(key=itemgetter(0))
    best = math.inf
    for bound, px, py, corners in candidates:
        if bound > best + _SLACK:
            break
        for (ex, ey), (gx, gy) in zip(corners, corners[1:] + corners[:1]):
            sx, sy = gx - ex, gy - ey
            ln2 = sx * sx + sy * sy
            if ln2 <= _EPS:
                d = math.hypot(px - ex, py - ey)
            else:
                t = max(0.0, min(1.0, ((px - ex) * sx + (py - ey) * sy) / ln2))
                d = math.hypot(px - (ex + sx * t), py - (ey + sy * t))
            best = min(best, d)
    return best


def iou_axis_box(a: AxisBox2, b: AxisBox2) -> float:
    """Intersection over union of axis-aligned boxes.

    Zero-area inputs yield 0.0 unless the two boxes are identical, which is
    defined as 1.0 so that a degenerate box still matches itself.
    """
    if a == b:
        return 1.0
    ix = min(a.max_x, b.max_x) - max(a.min_x, b.min_x)
    iy = min(a.max_y, b.max_y) - max(a.min_y, b.min_y)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    union = a.area + b.area - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def _pad(distance: float) -> float:
    """A distance bound widened far past the rounding of the tests it bounds."""
    return distance * (1.0 + 1e-9) + _SLACK


# (top - _EPS, per slab (axis x, axis y, -half - s, half - s, |s| > half) at the origin's
# offset s, the footprint's bearing interval as centre and half-width, its far distance)
Slabs = tuple[tuple[float, tuple[tuple[float, float, float, float, bool], ...], float, float, float], ...]


def occluder_slabs(x: float, y: float, occluders: tuple[Prism, ...] | list[Prism]) -> Slabs:
    """Each occluder's record for `visible_fraction` and `_certified` from
    a sensor origin at (x, y). The bearing interval and far distance are
    those of the footprint grown by _SLACK; the interval is padded by
    _ANGLE_SLACK, and is the whole circle for an origin within _SLACK of
    the grown footprint."""
    records = []
    for occ in occluders:
        cx, cy = occ.center.x, occ.center.y
        fx, fy = occ.axis
        rx, ry = x - cx, y - cy
        axes, inside = [], True
        for ax, ay, half in ((fx, fy, occ.half_long), (-fy, fx, occ.half_lat)):
            s = rx * ax + ry * ay
            axes.append((ax, ay, -half - s, half - s, abs(s) > half))
            inside = inside and abs(s) <= half + 2.0 * _SLACK
        grown_long, grown_lat = occ.half_long + _SLACK, occ.half_lat + _SLACK
        corners = [  # the grown footprint's, from the origin
            (fx * u - fy * v - rx, fy * u + fx * v - ry)
            for u in (grown_long, -grown_long)
            for v in (grown_lat, -grown_lat)
        ]
        centre, half_width = 0.0, math.inf
        if not inside:
            # clear of the origin, it subtends less than pi about its centre
            mid = math.atan2(-ry, -rx)
            offsets = [wrap_angle(math.atan2(dy, dx) - mid) for dx, dy in corners]
            centre = wrap_angle(mid + (min(offsets) + max(offsets)) / 2.0)
            half_width = (max(offsets) - min(offsets)) / 2.0 + _ANGLE_SLACK
        far = _pad(max(math.hypot(dx, dy) for dx, dy in corners))
        records.append((occ.height - _EPS, tuple(axes), centre, half_width, far))
    return tuple(records)


def column_spread(length: float, travel: float = 0.0) -> float:
    """How far from an anchor the sample columns of a silhouette `length`
    long can lie, the anchor itself within `travel` of that point along
    the silhouette's heading; padded for rounding."""
    return _pad(length * (0.5 - 0.5 / _SILHOUETTE_COLS) + travel)


def _certified(
    pose: MountPose,
    hfov: float,
    vfov: float,
    max_range: float,
    x: float,
    y: float,
    spread: float,
    z_low: float,
    z_high: float,
    slabs: Slabs,
) -> bool:
    """Whether bounds, each clear of its test by _SLACK or _ANGLE_SLACK,
    show inside the frustum and unblocked every sample point whose column
    lies within `spread` of (x, y) on the ground and whose height lies
    between the rows `z_low` and `z_high`.

    Such columns' ground ranges lie in [near, far] and their bearings
    within asin(spread / dist) of the point's own. An elevation atan2(dz,
    ground) is monotone in each argument, so its extremes lie at the
    corners of rows and ranges, and wrapping an angle never makes it
    larger. A sight line meets an occluder only inside both bearing
    intervals and the footprint's far distance, no lower than the lowest
    row's line to the nearest column.
    """
    ox, oy, oz = pose.x, pose.y, pose.z
    dx, dy = x - ox, y - oy
    dist = math.hypot(dx, dy)
    near, far = dist - spread, dist + spread
    if near <= _SLACK:
        return False
    dz_low, dz_high = z_low - oz, z_high - oz
    if _pad(math.sqrt(far * far + max(dz_low * dz_low, dz_high * dz_high))) > max_range:
        return False
    heading = math.atan2(dy, dx)
    bearing = heading - pose.yaw
    if not -math.pi < bearing <= math.pi:
        bearing = wrap_angle(bearing)
    half_angle = math.asin(spread / dist) + _ANGLE_SLACK
    if abs(bearing) + half_angle > hfov / 2.0 - _ANGLE_SLACK:
        return False
    lowest = math.atan2(dz_low, near if dz_low < 0.0 else far) - pose.pitch
    highest = math.atan2(dz_high, far if dz_high < 0.0 else near) - pose.pitch
    half_v = vfov / 2.0 - _ANGLE_SLACK
    if lowest < -half_v or highest > half_v:
        return False
    drop = min(dz_low, 0.0)
    for top, _, centre, half_width, farthest in slabs:
        apart = abs(heading - centre)
        if min(apart, 2.0 * math.pi - apart) > half_width + half_angle:
            continue
        if oz + drop * min(1.0, farthest / near) <= _pad(top):
            return False
    return True


def visible_fraction(
    pose: MountPose,
    hfov: float,
    vfov: float,
    max_range: float,
    target: Silhouette,
    slabs: Slabs,
) -> float:
    """Fraction of silhouette sample points both inside the frustum and
    unblocked by every occluder, each given by its `occluder_slabs` record.

    A point is inside the frustum when it lies within the range sphere and
    the horizontal and vertical apertures, every boundary inclusive; a point
    at the sensor origin is inside. A sight line is blocked when its ground
    projection crosses a prism footprint (the slab method) and its height
    over the crossing dips below the prism top.
    """
    points = target.points
    ox, oy, oz = pose.x, pose.y, pose.z
    yaw, pitch = pose.yaw, pose.pitch
    reach = max_range + _EPS
    half_h = hfov / 2.0 + _EPS
    half_v = vfov / 2.0 + _EPS

    n = len(points)
    reachable = n  # points not yet ruled out
    # a column's points share their ground position, so its ground range,
    # bearing decision and slab crossings serve all of its rows
    for col in range(0, n, _SILHOUETTE_ROWS):
        px, py, _ = points[col]
        dx, dy = px - ox, py - oy
        ground2 = dx * dx + dy * dy
        horiz = math.hypot(dx, dy)
        # wrap_angle is the identity on (-pi, pi]
        bearing = math.atan2(dy, dx) - yaw
        if not -math.pi < bearing <= math.pi:
            bearing = wrap_angle(bearing)
        ahead = abs(bearing) <= half_h
        if not ahead and horiz >= _EPS:
            # no row is at the sensor origin, so every row is outside
            reachable -= _SILHOUETTE_ROWS
            continue
        crossings = None
        for _, _, pz in points[col : col + _SILHOUETTE_ROWS]:
            dz = pz - oz
            seen = math.sqrt(ground2 + dz * dz) <= reach
            if seen and (horiz >= _EPS or abs(dz) >= _EPS):
                seen = ahead
                if seen:
                    elevation = math.atan2(dz, horiz) - pitch
                    if not -math.pi < elevation <= math.pi:
                        elevation = wrap_angle(elevation)
                    seen = abs(elevation) <= half_v
            if seen and slabs:
                if crossings is None:
                    crossings = _slab_crossings(dx, dy, slabs)
                for top, t_lo, t_hi in crossings:
                    if oz + dz * t_lo < top or oz + dz * t_hi < top:
                        seen = False
                        break
            if not seen:
                reachable -= 1
    return reachable / n


def _slab_crossings(dx: float, dy: float, slabs: Slabs) -> list[tuple[float, float, float]]:
    """(top - _EPS, t_lo, t_hi) for each occluder record whose footprint
    the ground sight line from the sensor along (dx, dy) crosses, over
    [t_lo, t_hi] of its length."""
    out = []
    for top, axes, _, _, _ in slabs:
        t_lo, t_hi = 0.0, 1.0
        for ax, ay, lo, hi, outside in axes:
            d = dx * ax + dy * ay
            if abs(d) < _EPS:
                if outside:
                    break  # parallel to this slab and outside it
                continue
            u0 = lo / d
            u1 = hi / d
            if u0 > u1:
                u0, u1 = u1, u0
            if u0 > t_lo:
                t_lo = u0
            if u1 < t_hi:
                t_hi = u1
            if t_lo > t_hi:
                break
        else:
            out.append((top, t_lo, t_hi))
    return out
