"""Geometry unit tests.

Derived expectations are computed by independent oracles inside the tests:
a point-containment raster for box overlap and IoU, and a brute-force
dense-ray check for occlusion fractions.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from vrusim.geometry import (
    AxisBox2,
    MountPose,
    OrientedBox,
    Prism,
    Silhouette,
    Vec2,
    _certified,
    column_spread,
    iou_axis_box,
    obb_gap_bound,
    obb_overlap,
    obb_separation,
    occluder_slabs,
    visible_fraction,
    wrap_angle,
)

import oracles
from oracles import add, axes, corners, dot, float_box, in_frustum, ray_blocked, scaled, unit_vector


# ---------------------------------------------------------------- oracles


def raster_overlap(a: OrientedBox, b: OrientedBox, n: int = 200) -> bool:
    """Joint-bounding-box raster: any cell center inside both boxes."""
    xs = [c.x for box in (a, b) for c in corners(box)]
    ys = [c.y for box in (a, b) for c in corners(box)]
    gx = np.linspace(min(xs), max(xs), n)
    gy = np.linspace(min(ys), max(ys), n)
    xx, yy = np.meshgrid(gx, gy)

    def inside(box: OrientedBox) -> np.ndarray:
        fwd, lat = axes(box)
        dx = xx - box.center.x
        dy = yy - box.center.y
        u = dx * fwd.x + dy * fwd.y
        v = dx * lat.x + dy * lat.y
        return (np.abs(u) <= box.half_long) & (np.abs(v) <= box.half_lat)

    return bool(np.any(inside(a) & inside(b)))


def clip_overlap(a: OrientedBox, b: OrientedBox) -> bool:
    """Exact convex-clip oracle: clip a's corner polygon by b's four edges.

    Returns True when the clipped polygon is nonempty, so boundary contact
    counts as overlap, matching the library convention.
    """
    poly = [(c.x, c.y) for c in corners(a)]
    fwd, lat = axes(b)
    for axis, h in ((fwd, b.half_long), (lat, b.half_lat)):
        for sign in (1.0, -1.0):
            cx = b.center.x + axis.x * h * sign
            cy = b.center.y + axis.y * h * sign
            nx, ny = axis.x * sign, axis.y * sign
            out = []
            n = len(poly)
            for i in range(n):
                p, q = poly[i], poly[(i + 1) % n]
                dp = (p[0] - cx) * nx + (p[1] - cy) * ny
                dq = (q[0] - cx) * nx + (q[1] - cy) * ny
                if dp <= 0:
                    out.append(p)
                    if dq > 0:
                        t = dp / (dp - dq)
                        out.append((p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t))
                elif dq <= 0:
                    t = dp / (dp - dq)
                    out.append((p[0] + (q[0] - p[0]) * t, p[1] + (q[1] - p[1]) * t))
            poly = out
            if not poly:
                return False
    return True


def raster_iou(a: AxisBox2, b: AxisBox2, n: int = 1000) -> float:
    """Counting-grid IoU over the joint bounding box."""
    lo_x, hi_x = min(a.min_x, b.min_x), max(a.max_x, b.max_x)
    lo_y, hi_y = min(a.min_y, b.min_y), max(a.max_y, b.max_y)
    xs = np.linspace(lo_x, hi_x, n)
    ys = np.linspace(lo_y, hi_y, n)
    xx, yy = np.meshgrid(xs, ys)
    in_a = (xx >= a.min_x) & (xx <= a.max_x) & (yy >= a.min_y) & (yy <= a.max_y)
    in_b = (xx >= b.min_x) & (xx <= b.max_x) & (yy >= b.min_y) & (yy <= b.max_y)
    union = np.count_nonzero(in_a | in_b)
    if union == 0:
        return 0.0
    return np.count_nonzero(in_a & in_b) / union


def dense_ray_fraction(pose, hfov, vfov, rng, target, occluders, density=10):
    """Independent occlusion fraction at `density` times the sample count.

    Rays are walked point by point through each prism footprint instead of
    reusing the slab intersection from the library.
    """
    fwd = unit_vector(target.heading)
    n_cols, n_rows = 3 * density, 3 * density
    origin = (pose.x, pose.y, pose.z)
    seen = total = 0
    for i in range(n_cols):
        s = target.length * ((i + 0.5) / n_cols - 0.5)
        px = target.anchor.x + fwd.x * s
        py = target.anchor.y + fwd.y * s
        for j in range(n_rows):
            pz = target.height * (j + 0.5) / n_rows
            total += 1
            if not in_frustum(pose, hfov, vfov, rng, (px, py, pz)):
                continue
            blocked = False
            for occ in occluders:
                fwd_axis, lat_axis = axes(occ)
                for k in range(1, 2000):
                    t = k / 2000.0
                    d = Vec2(
                        origin[0] + (px - origin[0]) * t - occ.center.x,
                        origin[1] + (py - origin[1]) * t - occ.center.y,
                    )
                    qz = origin[2] + (pz - origin[2]) * t
                    inside = (
                        abs(dot(d, fwd_axis)) <= occ.half_long + 1e-9
                        and abs(dot(d, lat_axis)) <= occ.half_lat + 1e-9
                    )
                    if inside and qz < occ.height - 1e-9:
                        blocked = True
                        break
                if blocked:
                    break
            if not blocked:
                seen += 1
    return seen / total


# ------------------------------------------------------------ box overlap


def test_identical_boxes_overlap():
    a = OrientedBox(Vec2(0, 0), 0.5, 0.5, 0.0)
    assert obb_overlap(float_box(a), float_box(a))


def test_distant_boxes_do_not_overlap():
    a = OrientedBox(Vec2(0, 0), 0.5, 0.5, 0.0)
    b = OrientedBox(Vec2(10, 0), 0.5, 0.5, 0.3)
    assert not obb_overlap(float_box(a), float_box(b))


def test_rotated_box_overlap_matches_raster():
    a = OrientedBox(Vec2(0, 0), 0.5, 0.5, 0.0)
    b = OrientedBox(Vec2(1.1, 0.0), 0.5, 0.5, math.pi / 4)
    # corner of b reaches x = 1.1 - sqrt(2)/2 = 0.393 < 0.5, so they overlap
    assert obb_overlap(float_box(a), float_box(b)) is True
    assert raster_overlap(a, b, n=400) is True


def test_touching_boundary_counts_as_overlap():
    a = OrientedBox(Vec2(0, 0), 0.5, 0.5, 0.0)
    b = OrientedBox(Vec2(1.0, 0), 0.5, 0.5, 0.0)
    assert obb_overlap(float_box(a), float_box(b))


def test_overlap_agrees_with_raster_on_random_pairs():
    rnd = random.Random(20260816)
    mismatched = []
    pairs = []
    for _ in range(10000):
        a = OrientedBox(
            Vec2(rnd.uniform(-2, 2), rnd.uniform(-2, 2)),
            rnd.uniform(0.2, 1.5),
            rnd.uniform(0.2, 1.5),
            rnd.uniform(-math.pi, math.pi),
        )
        b = OrientedBox(
            Vec2(rnd.uniform(-2, 2), rnd.uniform(-2, 2)),
            rnd.uniform(0.2, 1.5),
            rnd.uniform(0.2, 1.5),
            rnd.uniform(-math.pi, math.pi),
        )
        pairs.append((a, b))
    for a, b in pairs:
        got = obb_overlap(float_box(a), float_box(b))
        coarse = raster_overlap(a, b, n=48)
        if coarse != got:
            mismatched.append((a, b, got))
    # coarse-raster disagreements happen near boundaries; arbitrate exactly
    for a, b, got in mismatched:
        assert clip_overlap(a, b) == got, (a, b)


def test_overlap_is_symmetric():
    rnd = random.Random(3)
    for _ in range(500):
        a = OrientedBox(Vec2(rnd.uniform(-2, 2), rnd.uniform(-2, 2)), 0.7, 0.4, rnd.uniform(-3, 3))
        b = OrientedBox(Vec2(rnd.uniform(-2, 2), rnd.uniform(-2, 2)), 0.3, 1.1, rnd.uniform(-3, 3))
        assert obb_overlap(float_box(a), float_box(b)) == obb_overlap(float_box(b), float_box(a))


def test_separation_zero_iff_overlap():
    a = OrientedBox(Vec2(0, 0), 1.0, 1.0, 0.0)
    b = OrientedBox(Vec2(3.0, 0), 1.0, 1.0, 0.0)
    assert obb_separation(float_box(a), float_box(b)) == pytest.approx(1.0)
    assert obb_separation(float_box(a), float_box(OrientedBox(Vec2(1.0, 0), 1.0, 1.0, 0.0))) == 0.0


# headings at and next to the wrap point, where sin changes sign, and on
# the grid axes, where corners land on exact sums
EDGE_HEADINGS = (math.pi, -math.pi, math.nextafter(math.pi, 0.0), 0.0, math.pi / 2, -math.pi / 2)


@st.composite
def box_pairs(draw):
    """Two boxes: apart at random, or b placed against a's long edge or
    corner, turned by a multiple of pi/2, so that they touch or miss by a
    rounding step."""
    half = st.one_of(st.floats(0.05, 2.5), st.sampled_from((0.25, 0.9, 2.25)))
    heading = st.one_of(st.floats(-math.pi, math.pi), st.sampled_from(EDGE_HEADINGS))
    coord = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, 0.5, -1.25)))
    a = OrientedBox(Vec2(draw(coord), draw(coord)), draw(half), draw(half), draw(heading))
    half_long, half_lat = draw(half), draw(half)
    placement = draw(st.sampled_from(("free", "edge", "corner")))
    if placement == "free":
        b_heading = draw(heading)
        center = Vec2(draw(st.floats(-6.0, 6.0)), draw(st.floats(-6.0, 6.0)))
    else:
        turn = draw(st.sampled_from((0, 1, 2, -1, -2)))
        b_heading = a.heading + turn * math.pi / 2
        # b's extents along a's forward and lateral axes
        along, across = (half_long, half_lat) if turn % 2 == 0 else (half_lat, half_long)
        fwd, lat = axes(a)
        side = draw(st.sampled_from((1.0, -1.0)))
        if placement == "edge":
            offset = draw(st.floats(-a.half_lat, a.half_lat))
        else:
            offset = draw(st.sampled_from((1.0, -1.0))) * (a.half_lat + across)
        center = add(add(a.center, scaled(fwd, side * (a.half_long + along))), scaled(lat, offset))
    return a, OrientedBox(center, half_long, half_lat, b_heading)


# gaps from a rounding step to the far field, each scale drawn as often
GAPS = st.one_of(
    st.sampled_from((1e-9, 1e-6, 1e-3, 1.0, 100.0)),
    st.floats(-9.0, 2.0).map(lambda e: 10.0**e),
)


@st.composite
def apart_pairs(draw):
    """Two boxes a gap apart, where the corner prune of `obb_separation`
    and `obb_gap_bound` decide: b beyond one of a's faces, face-parallel
    and slid along it (offsets on the plateau where a corner of each lies
    on the closing faces, and its ends), corner against corner, or turned
    by 37 degrees plus a multiple of pi/2."""
    half = st.one_of(st.floats(0.05, 2.5), st.sampled_from((0.25, 0.9, 2.25)))
    heading = st.one_of(st.floats(-math.pi, math.pi), st.sampled_from(EDGE_HEADINGS))
    coord = st.one_of(st.floats(-3.0, 3.0), st.sampled_from((0.0, 0.5, -1.25)))
    a = OrientedBox(Vec2(draw(coord), draw(coord)), draw(half), draw(half), draw(heading))
    half_long, half_lat = draw(half), draw(half)
    placement = draw(st.sampled_from(("plateau", "corner", "turned")))
    turn = draw(st.sampled_from((0, 1, 2, -1, -2))) * math.pi / 2
    if placement == "turned":
        turn += math.radians(37.0)
    b_heading = a.heading + turn
    # b's bounding half extents along a's forward and lateral axes
    c, s = abs(math.cos(turn)), abs(math.sin(turn))
    along, across = half_long * c + half_lat * s, half_long * s + half_lat * c
    fwd, lat = axes(a)
    # the face: a's forward or lateral axis, either way
    if draw(st.booleans()):
        fwd, lat = lat, fwd
        along, across = across, along
        a_along, a_across = a.half_lat, a.half_long
    else:
        a_along, a_across = a.half_long, a.half_lat
    side = draw(st.sampled_from((1.0, -1.0)))
    gap = draw(GAPS)
    ends = a_across + across
    if placement == "corner":
        offset = draw(st.sampled_from((1.0, -1.0))) * (ends + draw(GAPS))
    else:
        offset = draw(
            st.one_of(
                st.floats(-ends, ends),
                st.sampled_from((0.0, a_across - across, across - a_across, ends, -ends)),
            )
        )
    center = add(add(a.center, scaled(fwd, side * (a_along + along + gap))), scaled(lat, offset))
    return a, OrientedBox(center, half_long, half_lat, b_heading)


CONTACT_PAIRS = st.one_of(box_pairs(), apart_pairs())


@settings(max_examples=1000, suppress_health_check=[HealthCheck.too_slow])
@given(CONTACT_PAIRS)
def test_box_kernel_matches_vec2_reference_exactly(pair):
    # the reference takes all 32 corner-to-edge distances; the kernel's
    # pruned search must find the same least one
    a, b = pair
    fa, fb = float_box(a), float_box(b)
    assert obb_overlap(fa, fb) == oracles.obb_overlap(a, b)
    assert obb_separation(fa, fb).hex() == oracles.obb_separation(a, b).hex()


@settings(max_examples=1000, suppress_health_check=[HealthCheck.too_slow])
@given(CONTACT_PAIRS)
def test_projection_gap_never_exceeds_the_exact_gap(pair):
    # rounding may put it a few ulps above on touching pairs; the stop
    # margin's prune adds 1e-6 m before it trusts the bound
    fa, fb = (float_box(box) for box in pair)
    assert obb_gap_bound(fa, fb) <= obb_separation(fa, fb) + 1e-12


@pytest.mark.parametrize("turn", (0, 1, 2, -1))
@pytest.mark.parametrize("heading", (0.0, 0.7, -math.pi))
def test_projection_gap_is_exact_corner_to_corner(heading, turn):
    # b lies off a's front-left corner, 0.6 m ahead and 0.8 m aside,
    # turned by a multiple of pi/2: the closest points are the two corners
    a = OrientedBox(Vec2(1.0, -2.0), 2.25, 0.9, heading)
    half_long, half_lat = 0.9, 0.25
    along, across = (half_long, half_lat) if turn % 2 == 0 else (half_lat, half_long)
    fwd, lat = axes(a)
    center = add(add(a.center, scaled(fwd, 2.25 + 0.6 + along)), scaled(lat, 0.9 + 0.8 + across))
    b = OrientedBox(center, half_long, half_lat, heading + turn * math.pi / 2)
    got = obb_gap_bound(float_box(a), float_box(b))
    assert got == pytest.approx(1.0, abs=1e-12)
    assert got == pytest.approx(obb_separation(float_box(a), float_box(b)), abs=1e-12)


@pytest.mark.parametrize("heading", (0.0, 0.7, -math.pi))
def test_projection_gap_is_exact_face_to_face(heading):
    a = OrientedBox(Vec2(1.0, -2.0), 2.25, 0.9, heading)
    fwd, lat = axes(a)
    # b sits 0.8 m beyond a's front face, turned a quarter, and slid sideways
    center = add(add(a.center, scaled(fwd, 2.25 + 0.8 + 0.25)), scaled(lat, 0.3))
    b = OrientedBox(center, 0.9, 0.25, heading + math.pi / 2)
    got = obb_gap_bound(float_box(a), float_box(b))
    assert got == pytest.approx(0.8, abs=1e-12)
    assert got == pytest.approx(obb_separation(float_box(a), float_box(b)), abs=1e-12)


# -------------------------------------------------------------------- IoU


def test_iou_identical_is_one():
    a = AxisBox2(0, 0, 2, 2)
    assert iou_axis_box(a, AxisBox2(0, 0, 2, 2)) == 1.0


def test_iou_disjoint_is_zero():
    assert iou_axis_box(AxisBox2(0, 0, 1, 1), AxisBox2(5, 5, 6, 6)) == 0.0


def test_iou_half_offset_unit_squares():
    a = AxisBox2(0, 0, 1, 1)
    b = AxisBox2(0.5, 0.0, 1.5, 1.0)
    got = iou_axis_box(a, b)
    assert got == pytest.approx(1.0 / 3.0, abs=1e-12)
    assert abs(raster_iou(a, b) - got) < 1e-2


@pytest.mark.parametrize("corner", [0, 1, 2, 3])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_axis_box_rejects_non_finite_corners(corner, value):
    # every comparison with nan is false, so a nan box would match nothing
    corners = [0.0, 0.0, 1.0, 1.0]
    corners[corner] = value
    with pytest.raises(ValueError, match="not finite"):
        AxisBox2(*corners)


def test_iou_zero_area_conventions():
    line = AxisBox2(0, 0, 0, 1)
    assert iou_axis_box(line, AxisBox2(0, 0, 1, 1)) == 0.0
    assert iou_axis_box(line, line) == 1.0


def test_iou_symmetric_bounded_and_self_unity():
    rnd = random.Random(11)
    for _ in range(1000):
        x0, x1 = sorted((rnd.uniform(0, 5), rnd.uniform(0, 5)))
        y0, y1 = sorted((rnd.uniform(0, 5), rnd.uniform(0, 5)))
        u0, u1 = sorted((rnd.uniform(0, 5), rnd.uniform(0, 5)))
        v0, v1 = sorted((rnd.uniform(0, 5), rnd.uniform(0, 5)))
        a = AxisBox2(x0, y0, x1 + 0.01, y1 + 0.01)
        b = AxisBox2(u0, v0, u1 + 0.01, v1 + 0.01)
        ab = iou_axis_box(a, b)
        assert ab == iou_axis_box(b, a)
        assert 0.0 <= ab <= 1.0
        assert iou_axis_box(a, a) == 1.0


def test_iou_random_pairs_match_raster():
    rnd = random.Random(99)
    for _ in range(60):
        x0, x1 = sorted((rnd.uniform(0, 4), rnd.uniform(0, 4)))
        y0, y1 = sorted((rnd.uniform(0, 4), rnd.uniform(0, 4)))
        u0, u1 = sorted((rnd.uniform(0, 4), rnd.uniform(0, 4)))
        v0, v1 = sorted((rnd.uniform(0, 4), rnd.uniform(0, 4)))
        a = AxisBox2(x0, y0, x1 + 0.1, y1 + 0.1)
        b = AxisBox2(u0, v0, u1 + 0.1, v1 + 0.1)
        assert abs(iou_axis_box(a, b) - raster_iou(a, b, n=600)) < 2e-2


# ---------------------------------------------------------------- frustum


def test_point_on_axis_within_range():
    pose = MountPose(0, 0, 0, 0.0, 0.0)
    assert in_frustum(pose, math.radians(90), math.radians(60), 100.0, (50.0, 0.0, 0.0))


def test_point_beyond_range_excluded():
    pose = MountPose(0, 0, 0, 0.0, 0.0)
    assert not in_frustum(pose, math.radians(90), math.radians(60), 100.0, (100.1, 0.0, 0.0))


def test_point_on_horizontal_boundary_included():
    pose = MountPose(0, 0, 0, 0.0, 0.0)
    hfov = math.radians(90)
    p = scaled(unit_vector(hfov / 2), 10.0)
    assert in_frustum(pose, hfov, math.radians(60), 100.0, (p.x, p.y, 0.0))


def test_pitch_shifts_vertical_aperture():
    # sensor looking 15 degrees down with a 20-degree aperture cannot see
    # level with itself, but sees the ground at moderate range
    pose = MountPose(0, 0, 7.0, 0.0, math.radians(-15))
    vfov = math.radians(20)
    assert not in_frustum(pose, math.radians(90), vfov, 100.0, (50.0, 0.0, 7.0))
    assert in_frustum(pose, math.radians(90), vfov, 100.0, (20.0, 0.0, 0.0))


# ---------------------------------------------------------- visible_fraction


def test_unobstructed_target_fully_visible():
    pose = MountPose(0, 0, 1.6, 0.0, 0.0)
    target = Silhouette(Vec2(10, 0), math.pi / 2, 0.5, 0.5, 1.8)
    assert visible_fraction(pose, math.radians(90), math.radians(59), 250.0, target, ()) == 1.0


def test_tall_wall_blocks_everything():
    pose = MountPose(0, 0, 1.6, 0.0, 0.0)
    target = Silhouette(Vec2(10, 0), math.pi / 2, 0.5, 0.5, 1.8)
    wall = Prism(Vec2(5, 0), 0.2, 5.0, 0.0, height=10.0)
    slabs = occluder_slabs(0, 0, (wall,))
    assert visible_fraction(pose, math.radians(90), math.radians(59), 250.0, target, slabs) == 0.0


def test_low_wall_near_target_leaves_top_row_visible():
    # 1.8 m wall one meter before the target: a 7 m sensor clears it only
    # for the top sample row. Cross-checked against the dense-ray oracle.
    pose = MountPose(0, 0, 7.0, 0.0, math.radians(-15))
    target = Silhouette(Vec2(10, 0), math.pi / 2, 0.5, 0.5, 1.8)
    wall = Prism(Vec2(9.0, 0.0), 5.0, 0.1, math.pi / 2, height=1.8)
    hfov, vfov, rng = math.radians(90), math.radians(59), 250.0
    got = visible_fraction(pose, hfov, vfov, rng, target, occluder_slabs(0, 0, (wall,)))
    oracle = dense_ray_fraction(pose, hfov, vfov, rng, target, (wall,))
    assert got == pytest.approx(1.0 / 3.0)
    assert abs(got - oracle) <= 1.0 / 9.0 + 1e-9


def test_target_outside_frustum_has_zero_fraction():
    pose = MountPose(0, 0, 1.6, math.pi, 0.0)  # looking away
    target = Silhouette(Vec2(10, 0), math.pi / 2, 0.5, 0.5, 1.8)
    assert visible_fraction(pose, math.radians(90), math.radians(59), 250.0, target, ()) == 0.0


def test_removing_occluders_never_decreases_fraction():
    rnd = random.Random(41)
    hfov, vfov, rng_m = math.radians(100), math.radians(70), 300.0
    for _ in range(200):
        pose = MountPose(rnd.uniform(-5, 5), rnd.uniform(-5, 5), rnd.uniform(1, 8), rnd.uniform(-3, 3), rnd.uniform(-0.4, 0.1))
        target = Silhouette(
            Vec2(rnd.uniform(5, 25), rnd.uniform(-10, 10)),
            rnd.uniform(-3, 3),
            rnd.uniform(0.4, 2.0),
            0.5,
            1.8,
        )
        occs = [
            Prism(
                Vec2(rnd.uniform(0, 20), rnd.uniform(-8, 8)),
                rnd.uniform(0.2, 3.0),
                rnd.uniform(0.2, 3.0),
                rnd.uniform(-3, 3),
                height=rnd.uniform(0.5, 4.0),
            )
            for _ in range(3)
        ]
        full = visible_fraction(pose, hfov, vfov, rng_m, target, occluder_slabs(pose.x, pose.y, occs))
        fewer = visible_fraction(pose, hfov, vfov, rng_m, target, occluder_slabs(pose.x, pose.y, occs[:1]))
        assert fewer >= full


def test_ray_blocked_respects_height():
    wall = Prism(Vec2(5, 0), 0.2, 3.0, math.pi / 2, height=2.0)
    assert ray_blocked((0, 0, 1.0), (10, 0, 1.0), wall)
    assert not ray_blocked((0, 0, 5.0), (10, 0, 5.0), wall)
    # ray passing beside the footprint
    assert not ray_blocked((0, 0, 1.0), (10, 8, 1.0), wall)


# ------------------------------------------- float kernel against reference


@st.composite
def sensing_cases(draw):
    """A sensor roughly aimed at a silhouette, with 0-3 rotated prisms
    scattered around the sight line."""
    coord = st.floats(-30.0, 30.0)
    sx, sy = draw(coord), draw(coord)
    ax, ay = draw(coord), draw(coord)
    sz = draw(st.floats(0.3, 10.0))
    ground = math.hypot(ax - sx, ay - sy)
    # yaw beyond (-pi, pi] too, as a vehicle mount's can be
    turns = draw(st.sampled_from((0.0, 2 * math.pi, -4 * math.pi)))
    yaw = math.atan2(ay - sy, ax - sx) + draw(st.floats(-0.8, 0.8)) + turns
    pose = MountPose(sx, sy, sz, yaw, math.atan2(1.0 - sz, ground) + draw(st.floats(-0.4, 0.4)))
    target = Silhouette(
        Vec2(ax, ay),
        draw(st.floats(-4.0, 4.0)),
        draw(st.floats(0.2, 5.0)),
        draw(st.floats(0.2, 3.0)),
        draw(st.floats(0.3, 3.0)),
    )
    occluders = []
    for _ in range(draw(st.integers(0, 3))):
        u = draw(st.floats(-0.2, 1.2))
        jitter = st.floats(-3.0, 3.0)
        occluders.append(
            Prism(
                Vec2(sx + (ax - sx) * u + draw(jitter), sy + (ay - sy) * u + draw(jitter)),
                draw(st.floats(0.05, 2.0)),
                draw(st.floats(0.05, 2.0)),
                draw(st.floats(-4.0, 4.0)),
                height=draw(st.floats(0.1, 4.0)),
            )
        )
    hfov = draw(st.floats(0.2, 2 * math.pi))
    vfov = draw(st.floats(0.2, math.pi))
    max_range = (math.hypot(ground, sz) + target.length) * draw(st.floats(0.9, 2.0))
    return pose, hfov, vfov, max_range, target, tuple(occluders)


def assert_matches_reference(pose, hfov, vfov, max_range, target, occluders):
    want = oracles.visible_fraction(pose, hfov, vfov, max_range, target, occluders)
    got = visible_fraction(pose, hfov, vfov, max_range, target, occluder_slabs(pose.x, pose.y, occluders))
    assert got == want
    return want


@settings(max_examples=600, suppress_health_check=[HealthCheck.too_slow])
@given(sensing_cases())
def test_visible_fraction_matches_vec2_reference_exactly(case):
    assert_matches_reference(*case)


def test_silhouette_points_match_reference():
    rnd = random.Random(8)
    for _ in range(200):
        sil = Silhouette(
            Vec2(rnd.uniform(-50, 50), rnd.uniform(-50, 50)),
            rnd.uniform(-7, 7),
            rnd.uniform(0.1, 5),
            rnd.uniform(0.1, 3),
            rnd.uniform(0.1, 3),
        )
        assert sil.points == oracles.sample_points(sil)


def flip_pair(fraction_at, lo: float, hi: float) -> tuple[float, float]:
    """Adjacent floats a < b within [lo, hi] where fraction_at changes."""
    f_lo = fraction_at(lo)
    assert f_lo != fraction_at(hi)
    while math.nextafter(lo, hi) < hi:
        mid = lo + (hi - lo) / 2.0
        if mid in (lo, hi):
            mid = math.nextafter(lo, hi)
        if fraction_at(mid) == f_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def assert_boundary_matches(fraction_at, lo: float, hi: float, case_at) -> None:
    """Both floats around the reference's flip give the reference's bits."""
    for value in flip_pair(fraction_at, lo, hi):
        assert_matches_reference(*case_at(value))


BOUNDARY_POSE = MountPose(0.0, 0.0, 1.0, 0.3, -0.1)
BOUNDARY_TARGET = Silhouette(Vec2(9.0, 2.5), 1.1, 1.2, 0.5, 1.8)
WIDE = 2.0 * math.pi


def test_range_sphere_boundary_matches_reference():
    def case(max_range):
        return BOUNDARY_POSE, WIDE, WIDE, max_range, BOUNDARY_TARGET, ()

    def fraction(max_range):
        return oracles.visible_fraction(*case(max_range))

    for p in oracles.sample_points(BOUNDARY_TARGET):
        dist = math.dist((BOUNDARY_POSE.x, BOUNDARY_POSE.y, BOUNDARY_POSE.z), p)
        assert_boundary_matches(fraction, dist - 1e-6, dist + 1e-6, case)


def test_aperture_edges_match_reference():
    def horizontal(hfov):
        return BOUNDARY_POSE, hfov, WIDE, 100.0, BOUNDARY_TARGET, ()

    def vertical(vfov):
        return BOUNDARY_POSE, WIDE, vfov, 100.0, BOUNDARY_TARGET, ()

    for p in oracles.sample_points(BOUNDARY_TARGET):
        dx, dy, dz = p[0] - BOUNDARY_POSE.x, p[1] - BOUNDARY_POSE.y, p[2] - BOUNDARY_POSE.z
        off_h = abs(wrap_angle(math.atan2(dy, dx) - BOUNDARY_POSE.yaw))
        off_v = abs(wrap_angle(math.atan2(dz, math.hypot(dx, dy)) - BOUNDARY_POSE.pitch))
        assert_boundary_matches(
            lambda a: oracles.visible_fraction(*horizontal(a)), 2 * off_h - 1e-6, 2 * off_h + 1e-6, horizontal
        )
        assert_boundary_matches(
            lambda a: oracles.visible_fraction(*vertical(a)), 2 * off_v - 1e-6, 2 * off_v + 1e-6, vertical
        )


def test_sensor_origin_boundary_matches_reference():
    # the middle sample point sits at the anchor (0, 0); a sensor level with
    # it and `offset` behind it, looking away, sees it only at its origin
    target = Silhouette(Vec2(0.0, 0.0), 0.0, 1.0, 0.5, 1.8)

    def behind(offset):
        pose = MountPose(-offset, 0.0, target.points[4][2], math.pi, 0.0)
        return pose, 0.5, 0.5, 100.0, target, ()

    assert_boundary_matches(lambda e: oracles.visible_fraction(*behind(e)), 0.0, 1e-8, behind)
    assert flip_pair(lambda e: oracles.visible_fraction(*behind(e)), 0.0, 1e-8)[1] == 1e-9


def test_ray_along_a_slab_face_matches_reference():
    # target points all at y = 2.5 (heading 0); the sensor at y = 2.5 looks
    # along +x, so every sight line runs parallel to the prism's long faces
    pose = MountPose(0.0, 2.5, 0.9, 0.0, 0.0)
    target = Silhouette(Vec2(12.0, 2.5), 0.0, 1.0, 0.5, 1.8)

    def on_face(half_lat):
        return pose, WIDE, WIDE, 100.0, target, (Prism(Vec2(6.0, 2.0), 1.0, half_lat, 0.0, height=5.0),)

    assert_boundary_matches(lambda h: oracles.visible_fraction(*on_face(h)), 0.4, 0.6, on_face)

    # a slanted sight line whose far end meets a face of a rotated prism
    slanted = Silhouette(Vec2(8.0, 5.0), 0.4, 1.0, 0.5, 1.8)

    def end_on_face(shift):
        center = Vec2(8.0 + shift, 5.0 + 0.5 * shift)
        return pose, WIDE, WIDE, 100.0, slanted, (Prism(center, 0.8, 0.3, 0.7, height=5.0),)

    assert_boundary_matches(lambda u: oracles.visible_fraction(*end_on_face(u)), 0.5, 3.0, end_on_face)


def test_degenerate_crossings_match_reference():
    # a sight line from (0, 0) to (10, 10) touches only the corner (5, 5)
    # of the footprint [5, 6] x [4, 5]: its crossing is the one point t = 0.5
    corner = Silhouette(Vec2(10.0, 10.0), math.pi / 2, 1.0, 0.5, 1.8)
    pose = MountPose(0.0, 0.0, 1.0, math.pi / 4, 0.0)
    touched = (Prism(Vec2(5.5, 4.5), 0.5, 0.5, 0.0, height=3.0),)
    assert assert_matches_reference(pose, WIDE, WIDE, 100.0, corner, touched) < 1.0

    # the middle column's sight lines run 1e-9 m along the x axis, exactly
    # at the parallel threshold, from a roof inside the footprint 2**-32 m
    # from its face x = 2**-32; they cross that face at t = 0.23 while still
    # above the top, and would dip below it only beyond the face
    offset = Silhouette(Vec2(1e-9, 10.0), math.pi / 2, 1.0, 0.5, 0.9)
    assert offset.points[4][0] - 0.0 == 1e-9
    roof = MountPose(0.0, 0.0, 6.0, math.pi / 2, 0.0)
    near_face = (Prism(Vec2(-0.5 + 2.0**-32, 5.0), 0.5, 5.5, 0.0, height=4.5),)
    assert assert_matches_reference(roof, WIDE, WIDE, 100.0, offset, near_face) > 0.0


def test_ray_grazing_a_prism_top_matches_reference():
    # level sight lines from a sensor at the height of the lowest sample row
    target = Silhouette(Vec2(10.0, 0.0), math.pi / 2, 1.0, 0.5, 1.8)
    pose = MountPose(0.0, 0.0, target.points[0][2], 0.0, 0.0)

    def wall(height):
        return pose, WIDE, WIDE, 100.0, target, (Prism(Vec2(5.0, 0.0), 0.2, 3.0, 0.0, height=height),)

    assert_boundary_matches(lambda h: oracles.visible_fraction(*wall(h)), 0.2, 0.4, wall)

    # a slanted sight line grazing the top of a rotated prism
    high = MountPose(0.0, 0.0, 6.0, 0.0, -0.4)

    def tilted(height):
        return high, WIDE, WIDE, 100.0, target, (Prism(Vec2(6.0, 0.3), 0.5, 1.5, 0.6, height=height),)

    assert_boundary_matches(lambda h: oracles.visible_fraction(*tilted(h)), 0.1, 6.0, tilted)


# ---------------------------------------- whole-target certificate edges

EDGES = ("aperture", "column", "range", "elevation", "arc", "column-arc", "top", "clearance", "mount", "wide")
NUDGE = st.sampled_from((-1e-6, -1e-9, -1e-12, 0.0, 1e-12, 1e-9, 1e-6))


def radial_prism(sx, sy, bearing, r, half_long, half_lat, height):
    """A prism centred `r` from (sx, sy) along `bearing`, its long axis
    pointing back at that point."""
    centre = Vec2(sx + r * math.cos(bearing), sy + r * math.sin(bearing))
    return Prism(centre, half_long, half_lat, bearing, height=height)


@st.composite
def certificate_edges(draw):
    """A sensor aimed at a silhouette with one bound of the whole-target
    certificate `_certified`, or the exact test that bound stands for,
    placed at its edge give or take a nudge: the aperture against the anchor's
    bearing plus the columns' spread or against a column's own bearing,
    the range sphere, an elevation corner, an occluder's bearing interval
    against the certificate's or a column's, a prism top against a sight
    line or against the certificate's clearance, a mount on or inside a
    footprint, and apertures up to 360 degrees."""
    sx, sy, sz = draw(st.floats(-30.0, 30.0)), draw(st.floats(-30.0, 30.0)), draw(st.floats(0.3, 10.0))
    dist, theta = draw(st.floats(0.5, 60.0)), draw(st.floats(-math.pi, math.pi))
    target = Silhouette(
        Vec2(sx + dist * math.cos(theta), sy + dist * math.sin(theta)),
        draw(st.floats(-4.0, 4.0)),
        draw(st.floats(0.2, 5.0)),
        draw(st.floats(0.2, 3.0)),
        draw(st.floats(0.3, 3.0)),
    )
    turns = draw(st.sampled_from((0.0, 2 * math.pi, -4 * math.pi)))
    yaw = theta + draw(st.floats(-0.5, 0.5)) + turns
    pose = MountPose(sx, sy, sz, yaw, math.atan2(1.0 - sz, dist) + draw(st.floats(-0.3, 0.3)))
    hfov, vfov = draw(st.floats(1.0, math.pi)), draw(st.floats(1.0, math.pi))
    slants = [math.dist((sx, sy, sz), p) for p in target.points]
    max_range = max(slants) * draw(st.floats(1.0, 2.0))
    occluders = ()
    edge, nudge = draw(st.sampled_from(EDGES)), draw(NUDGE)
    # the certificate's own quantities
    spread = target.length / 3 * (1 + 1e-9) + 1e-6
    half_angle = math.asin(min(1.0, spread / dist))
    near, far = dist - spread, dist + spread
    columns = [target.points[i] for i in (0, 3, 6)]
    col_bearings = [math.atan2(p[1] - sy, p[0] - sx) for p in columns]
    if edge == "aperture":
        hfov = 2 * (abs(wrap_angle(theta - pose.yaw)) + half_angle) + nudge
    elif edge == "column":
        hfov = 2 * max(abs(wrap_angle(b - pose.yaw)) for b in col_bearings) + nudge
    elif edge == "range":
        dz = max(abs(target.points[i][2] - sz) for i in (0, 2))
        max_range = draw(st.sampled_from((math.hypot(far, dz), max(slants)))) + nudge
    elif edge == "elevation":
        dz = target.points[draw(st.sampled_from((0, 2)))][2] - sz
        ground = draw(st.sampled_from((near, far, math.hypot(columns[0][0] - sx, columns[0][1] - sy))))
        vfov = 2 * abs(math.atan2(dz, max(ground, 1e-3)) - pose.pitch) + nudge
    elif edge in ("arc", "column-arc"):
        side = draw(st.sampled_from((-1.0, 1.0)))
        if edge == "arc":
            bearing = theta + side * half_angle
        else:
            bearing = col_bearings[0 if side < 0 else 2]
        r = dist * draw(st.floats(0.2, 0.9))
        half_long, half_lat = draw(st.floats(0.05, 1.0)), draw(st.floats(0.05, 1.0))
        # the near corner's bearing offset from the box's axis
        corner = math.atan2(half_lat, r - half_long)
        height = draw(st.floats(0.5, 12.0))
        occluders = (radial_prism(sx, sy, bearing + side * corner + nudge, r, half_long, half_lat, height),)
    elif edge in ("top", "clearance"):
        col = draw(st.sampled_from(columns))
        bearing = math.atan2(col[1] - sy, col[0] - sx)
        ground = math.hypot(col[0] - sx, col[1] - sy)
        assume(ground > 0.0)  # a column at the mount has no sight line to block
        r, half_long = ground * draw(st.floats(0.2, 0.8)), draw(st.floats(0.05, 1.0))
        half_long = min(half_long, r / 2)
        dz_low = target.points[0][2] - sz
        if edge == "top":
            top = sz + dz_low * (r + half_long) / ground
        else:
            farthest = occluder_slabs(sx, sy, (radial_prism(sx, sy, bearing, r, half_long, 3.0, 1.0),))[0][4]
            top = ((sz + min(dz_low, 0.0) * min(1.0, farthest / near)) - 1e-6) / (1 + 1e-9) + 1e-9
        if top + nudge > 0.0:
            occluders = (radial_prism(sx, sy, bearing, r, half_long, 3.0, top + nudge),)
    elif edge == "mount":
        heading, half_long, half_lat = draw(st.floats(-4.0, 4.0)), draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0))
        along = half_long * draw(st.sampled_from((1.0, 0.5, 0.0, -1.0))) + nudge
        across = half_lat * draw(st.sampled_from((1.0, 0.5, 0.0, -1.0)))
        fx, fy = math.cos(heading), math.sin(heading)
        centre = Vec2(sx - fx * along + fy * across, sy - fy * along - fx * across)
        height = sz + draw(st.floats(-0.9, 0.9)) * min(sz, 1.0)
        occluders = (Prism(centre, half_long, half_lat, heading, height=height),)
    else:
        hfov = draw(st.floats(math.pi, 2 * math.pi))
        pose = MountPose(sx, sy, sz, theta + draw(st.floats(-math.pi, math.pi)) + turns, pose.pitch)
    return pose, max(hfov, 1e-6), max(vfov, 1e-6), max(max_range, 1e-6), target, occluders


@settings(max_examples=1500, suppress_health_check=[HealthCheck.too_slow])
@given(certificate_edges())
def test_visible_fraction_matches_reference_at_certificate_edges(case):
    # the kernel's bits are the reference's there, and wherever the
    # certificate holds for the silhouette's own spread all nine points pass
    fraction = assert_matches_reference(*case)
    pose, hfov, vfov, max_range, target, occluders = case
    low, high = target.points[0][2], target.points[2][2]
    spread, slabs = column_spread(target.length), occluder_slabs(pose.x, pose.y, occluders)
    if _certified(pose, hfov, vfov, max_range, target.anchor.x, target.anchor.y, spread, low, high, slabs):
        assert fraction == 1.0


# ------------------------------------------------------------------- misc


def test_wrap_angle_range():
    rnd = random.Random(5)
    for _ in range(1000):
        a = rnd.uniform(-50, 50)
        w = wrap_angle(a)
        assert -math.pi < w <= math.pi
        assert math.isclose(math.sin(w), math.sin(a), abs_tol=1e-9)
        assert math.isclose(math.cos(w), math.cos(a), abs_tol=1e-9)


def test_silhouette_samples_stay_inside_bounds():
    sil = Silhouette(Vec2(3, 4), 0.7, 1.8, 0.5, 1.8)
    pts = sil.points
    assert len(pts) == 9
    fwd = unit_vector(sil.heading)
    for x, y, z in pts:
        along = (x - sil.anchor.x) * fwd.x + (y - sil.anchor.y) * fwd.y
        assert abs(along) <= sil.length / 2 + 1e-9
        assert 0.0 <= z <= sil.height


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        OrientedBox(Vec2(0, 0), -1.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        AxisBox2(1, 0, 0, 1)
    with pytest.raises(ValueError):
        Prism(Vec2(0, 0), 1.0, 1.0, 0.0, height=0.0)
    with pytest.raises(ValueError):
        Vec2(float("nan"), 0.0)
