"""Sensor units and the geometric detection pipeline.

A detection stands in for a trained image detector: the target must be
mostly unoccluded, subtend a minimum apparent width, and be tall enough on
the virtual sensor plane. Confirmation applies per sensor over consecutive
frames; fusion only selects whose confirmations count.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from .geometry import (
    _ANGLE_SLACK,
    _EPS,
    _SILHOUETTE_ROWS,
    _SLACK,
    MountPose,
    Silhouette,
    Slabs,
    _certified,
    _pad,
    column_spread,
    visible_fraction,
)
from .scenario import DEFAULT_OVERRIDES

DEFAULT_HFOV_RAD = math.radians(90.0)
DEFAULT_IMAGE_HEIGHT_PX = 1080.0


def vertical_aperture(hfov: float, image_width_px: float, image_height_px: float) -> float:
    """A pinhole camera's vertical aperture, its pixels square."""
    return 2.0 * math.atan(math.tan(hfov / 2.0) * image_height_px / image_width_px)


@dataclass(frozen=True)
class SensorUnit:
    """One camera (or lidar) head, either roadside or on the test vehicle.

    For mount "vut" the pose is vehicle-relative: x forward of the vehicle
    center, y to its left, yaw relative to its heading. z stays absolute.
    A unit senses at the scenario frame rate, so it carries no rate of its
    own. Its id names report files, layout columns and, joined by "+",
    subsets, so it holds no path separator, comma, "+" or outer whitespace.
    """

    sensor_id: str
    mount: str
    pose: MountPose
    hfov: float
    vfov: float
    max_range: float
    latency: float = 0.025

    def __post_init__(self) -> None:
        if not self.sensor_id:
            raise ValueError("sensor id must be non-empty")
        if self.sensor_id != self.sensor_id.strip() or any(c in self.sensor_id for c in "/\\,+"):
            raise ValueError(
                f"sensor id {self.sensor_id!r} must not hold a path separator, "
                "a comma, a '+' or outer whitespace"
            )
        if self.mount not in ("vut", "rsu"):
            raise ValueError(f"unknown mount {self.mount!r}")
        p = self.pose
        if not all(map(math.isfinite, (p.x, p.y, p.z, p.yaw, p.pitch, self.hfov, self.vfov, self.max_range, self.latency))):
            raise ValueError("pose, apertures, range and latency must be finite")
        if self.pose.z <= 0:
            raise ValueError("sensor height must be positive")
        if self.max_range <= 0:
            raise ValueError("range must be positive")
        if self.latency < 0:
            raise ValueError("latency must be non-negative")
        if self.hfov <= 0 or self.vfov <= 0:
            raise ValueError("apertures must be positive")

    def world_pose(self, x: float, y: float, heading: float) -> MountPose:
        """A vehicle unit's mount in the world, the vehicle's centre at
        (x, y) and facing `heading`."""
        c, s = math.cos(heading), math.sin(heading)
        px, py = self.pose.x, self.pose.y
        mx, my = x + (c * px - s * py), y + (s * px + c * py)
        return MountPose(mx, my, self.pose.z, heading + self.pose.yaw, self.pose.pitch)


@dataclass(frozen=True)
class DetectionModel:
    """The detector's gates, one for every unit; each unit reads the pixel
    floors by its own aperture (`size_floors`)."""

    min_visible_fraction: float = 0.5
    min_width_px: float = 15.0
    min_height_px: float = 110.0
    image_width_px: float = 1920.0
    miss_probability: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.min_visible_fraction <= 1.0:
            raise ValueError("min_visible_fraction must be within [0, 1]")
        if not 0.0 <= self.miss_probability <= 1.0:
            raise ValueError("miss_probability must be within [0, 1]")
        if not all(map(math.isfinite, (self.min_width_px, self.min_height_px, self.image_width_px))):
            raise ValueError("pixel floors and the image width must be finite")
        if self.min_width_px < 0 or self.min_height_px < 0 or not self.image_width_px > 0:
            raise ValueError("pixel floors must be non-negative and the image width positive")

    def size_floors(self, sensor: SensorUnit) -> tuple[float, float]:
        """`sensor`'s least apparent width and height: a pixel spans its hfov over the image width."""
        hfov, image_width = sensor.hfov, self.image_width_px
        return self.min_width_px * hfov / image_width, self.min_height_px * hfov / image_width


@dataclass(frozen=True)
class DetectionEvent:
    """A detection in frame `frame`, available to the braking system at
    `available_at`; the stream that holds it names its sensor and target."""

    frame: int
    available_at: float


EventMap = Mapping[str, Sequence[DetectionEvent]]


def apparent_angular_width(sensor_pose: MountPose, target: Silhouette, dist: float) -> float:
    """Angle subtended by the target extent perpendicular to the sight line;
    `dist` is the ground range from the sensor to the target anchor."""
    if dist < _EPS:
        raise ValueError("target coincides with the sensor")
    bearing = math.atan2(target.anchor.y - sensor_pose.y, target.anchor.x - sensor_pose.x)
    delta = target.heading - bearing
    w_perp = target.length * abs(math.sin(delta)) + target.width * abs(math.cos(delta))
    return 2.0 * math.atan2(w_perp / 2.0, dist)


def apparent_angular_height(sensor_pose: MountPose, target: Silhouette, dist: float) -> float:
    """Angle subtended by the target height at the slant range to mid-height;
    `dist` is the ground range from the sensor to the target anchor."""
    if dist < _EPS:
        raise ValueError("target coincides with the sensor")
    slant = math.hypot(dist, sensor_pose.z - target.height / 2.0)
    return 2.0 * math.atan2(target.height / 2.0, slant)


def _size_range(extent: float, angle: float) -> float:
    """Greatest ground or slant range at which `extent` subtends `angle`;
    unbounded for an angle of 0 (or one whose half rounds to 0)."""
    half = angle / 2.0
    if half >= math.pi / 2.0:
        return 0.0
    tangent = math.tan(half)
    return extent / 2.0 / tangent if tangent > 0.0 else math.inf


def reach(sensor: SensorUnit, target: Silhouette, floors: tuple[float, float]) -> float:
    """Largest anchor ground range from the sensor at which the range,
    apparent-width and apparent-height gates of `sense_frame` can all pass
    for a target of this size, `floors` the sensor's `size_floors`, padded
    for rounding.

    The perpendicular extent a target shows is at most hypot(length,
    width), and both apparent sizes only fall as the range grows, so a
    target whose anchor lies farther away fails one of the three gates
    whatever its heading.
    """
    widest = math.hypot(target.length, target.width)
    min_width, min_height = floors
    # the slant bound is padded before the subtraction, which cancels where
    # the sensor barely sees the target tall enough from straight above
    slant = _pad(_size_range(target.height, min_height))
    rise = sensor.pose.z - target.height / 2.0
    return _pad(
        min(
            sensor.max_range + target.length / 2.0,
            _size_range(widest, min_width),
            math.sqrt(max(slant * slant - rise * rise, 0.0)),
        )
    )


def anchor_window(
    sensor: SensorUnit, model: DetectionModel, floors: tuple[float, float], target: Silhouette
) -> tuple[float, float]:
    """The signed distances (lo, hi) along `target`'s heading from its
    anchor between which the anchor of a silhouette of its size and
    heading must lie to pass every gate of `sense_frame` from the roadside
    `sensor`; empty where lo > hi.

    The anchor must lie within the `reach` disc, grown by `_pad`. With a
    positive visibility floor some column must also lie inside the
    horizontal aperture, widened by _EPS (the kernel's own allowance) and
    _ANGLE_SLACK. Below a half-aperture of pi / 2 that wedge is the meet of
    two half-planes through the mount, each moved out by _SLACK. The
    columns lie on the anchor's line within `column_spread` of it, so the
    anchor lies on the wedge's part of the line widened by that much.
    Those margins clear the rounding of the frames' anchors and of this
    arithmetic by orders of magnitude.
    """
    fx, fy = math.cos(target.heading), math.sin(target.heading)
    pose = sensor.pose
    rx, ry = target.anchor.x - pose.x, target.anchor.y - pose.y
    # the mount's offset across the line, and the foot of its perpendicular
    across, foot = fx * ry - fy * rx, -(rx * fx + ry * fy)
    radius = _pad(reach(sensor, target, floors))
    if abs(across) > radius:
        return math.inf, -math.inf
    half_chord = math.sqrt((radius - across) * (radius + across)) + _SLACK
    lo, hi = foot - half_chord, foot + half_chord
    half_aperture = sensor.hfov / 2.0 + _EPS + _ANGLE_SLACK
    if model.min_visible_fraction > 0.0 and half_aperture < math.pi / 2.0:
        spread = column_spread(target.length)
        for side in (-1.0, 1.0):
            # a point p = r + s * f from the mount lies inside the wedge where
            # -side * cross(edge, p) = at_anchor + per_metre * s >= 0
            edge = pose.yaw + side * half_aperture
            ex, ey = math.cos(edge), math.sin(edge)
            at_anchor, per_metre = side * (rx * ey - ry * ex), side * (fx * ey - fy * ex)
            if per_metre > 0.0:
                lo = max(lo, (-_SLACK - at_anchor) / per_metre - spread)
            elif per_metre < 0.0:
                hi = min(hi, (-_SLACK - at_anchor) / per_metre + spread)
            elif at_anchor < -_SLACK:
                return math.inf, -math.inf
    return lo, hi


def _miss_coin(seed: int, sensor_id: str, frame: int) -> float:
    """Stateless per-(sensor, frame) uniform draw in [0, 1)."""
    digest = hashlib.sha256(f"{seed}:{sensor_id}:{frame}".encode()).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def draw_detection(sensor: SensorUnit, model: DetectionModel, frame: int, time: float) -> DetectionEvent | None:
    """The detection of a frame at `time` whose every other gate passed,
    unless its miss coin drops it."""
    if model.miss_probability > 0.0:
        if _miss_coin(model.seed, sensor.sensor_id, frame) <= model.miss_probability:
            return None
    return DetectionEvent(frame, time + sensor.latency)


def sense_frame(
    sensor: SensorUnit,
    model: DetectionModel,
    pose: MountPose,
    target: Silhouette,
    frame: int,
    time: float,
    slabs: Slabs,
    floors: tuple[float, float],
) -> DetectionEvent | None:
    """Detection attempt on the VRU's `target` silhouette in the frame at
    `time`, by the sensor mounted at the world `pose`; None when any gate
    fails. `slabs` are the records, from `pose`, of the occluders that can
    matter, and `floors` the sensor's `size_floors`."""
    dist = math.hypot(target.anchor.x - pose.x, target.anchor.y - pose.y)
    if dist - target.length / 2.0 > sensor.max_range:
        return None
    if dist < _EPS:
        # an unbraked run drives straight through the target; a sensor
        # sitting inside it has no meaningful view
        return None

    min_width, min_height = floors
    if apparent_angular_width(pose, target, dist) < min_width:
        return None
    if apparent_angular_height(pose, target, dist) < min_height:
        return None

    if visible_fraction(pose, sensor.hfov, sensor.vfov, sensor.max_range, target, slabs) < model.min_visible_fraction:
        return None
    return draw_detection(sensor, model, frame, time)


def span_passes(
    sensor: SensorUnit, floors: tuple[float, float], first: Silhouette, last: Silhouette, slabs: Slabs
) -> bool:
    """Whether every silhouette of `first`'s size and heading whose anchor
    lies between `first`'s and `last`'s passes every gate of `sense_frame`
    but the miss coin, seen from the roadside `sensor`'s own pose.

    Such silhouettes lie on one line, so their columns lie within the
    spread grown by half the anchors' distance of the midpoint, which
    `_certified` then shows wholly in view; its range sphere holds every
    anchor, a column itself, within `max_range`. A silhouette shows at
    least min(length, width) across the sight line, and both apparent
    sizes only fall with the range, so the size gates hold at every anchor
    where they hold for that extent at the farthest, padded.
    """
    pose = sensor.pose
    ax, ay, bx, by = first.anchor.x, first.anchor.y, last.anchor.x, last.anchor.y
    farthest = _pad(max(math.hypot(ax - pose.x, ay - pose.y), math.hypot(bx - pose.x, by - pose.y)))
    min_width, min_height = floors
    if 2.0 * math.atan2(min(first.length, first.width) / 2.0, farthest) < min_width:
        return False
    if apparent_angular_height(pose, first, farthest) < min_height:
        return False
    spread = column_spread(first.length, math.hypot(bx - ax, by - ay) / 2.0)
    points = first.points
    return _certified(
        pose, sensor.hfov, sensor.vfov, sensor.max_range, (ax + bx) / 2.0, (ay + by) / 2.0,
        spread, points[0][2], points[_SILHOUETTE_ROWS - 1][2], slabs,
    )


def streams_of(events_by_sensor: EventMap, subset: Sequence[str]) -> list[Sequence[DetectionEvent]]:
    """The event streams of the sensors of `subset`, in its order."""
    try:
        return [events_by_sensor[sensor_id] for sensor_id in subset]
    except KeyError as exc:
        raise ValueError(f"unknown sensor id {exc.args[0]!r}") from None


def first_confirmed_time(events_by_sensor: EventMap, k: int, subset: tuple[str, ...]) -> float | None:
    """Earliest per-sensor confirmation among the chosen sensors. A sensor
    confirms at the available_at of the k-th event of its first run of k
    consecutive frames; its whole stream must be strictly ordered by frame."""
    if k < 1:
        raise ValueError("confirmation count must be at least 1")
    best: float | None = None
    for events in streams_of(events_by_sensor, subset):
        first: float | None = None
        run = 0
        prev_frame: int | None = None
        for ev in events:
            if prev_frame is not None and ev.frame <= prev_frame:
                raise ValueError("events must be strictly ordered by frame")
            run = run + 1 if prev_frame == ev.frame - 1 else 1
            if run == k and first is None:
                first = ev.available_at
            prev_frame = ev.frame
        if first is not None and (best is None or first < best):
            best = first
    return best


# ------------------------------------------------------------ default layout

_RSU_TABLE = (
    # id, x, y, yaw degrees
    ("rsu0", -12.0, -12.0, 45.0),
    ("rsu1", 12.0, -12.0, 135.0),
    ("rsu2", 12.0, 12.0, -135.0),
    ("rsu3", -12.0, 12.0, -45.0),
    ("rsu4", -10.0, 3.0, 0.0),
    ("rsu5", 10.0, -3.0, 180.0),
    ("rsu6", 3.0, 10.0, -90.0),
    ("rsu7", -3.0, -10.0, 90.0),
    ("rsu8", -14.0, 2.0, 180.0),
    ("rsu9", 14.0, -2.0, 0.0),
    ("rsu10", 2.0, 14.0, 90.0),
    ("rsu11", -2.0, -14.0, -90.0),
)

DEFAULT_RSU_HEIGHT = 7.0
DEFAULT_RSU_PITCH = math.radians(-15.0)
DEFAULT_VFOV_RAD = vertical_aperture(DEFAULT_HFOV_RAD, DetectionModel.image_width_px, DEFAULT_IMAGE_HEIGHT_PX)
DEFAULT_RANGE_M = 250.0
DEFAULT_VUT_SENSOR_HEIGHT = 1.6


def default_layout() -> tuple[SensorUnit, ...]:
    """Twelve roadside units on the corners and masts of a 4-way junction,
    each a default camera."""
    return tuple(
        SensorUnit(
            sensor_id=name,
            mount="rsu",
            pose=MountPose(x, y, DEFAULT_RSU_HEIGHT, math.radians(yaw_deg), DEFAULT_RSU_PITCH),
            hfov=DEFAULT_HFOV_RAD,
            vfov=DEFAULT_VFOV_RAD,
            max_range=DEFAULT_RANGE_M,
        )
        for name, x, y, yaw_deg in _RSU_TABLE
    )


def default_vut_sensor() -> SensorUnit:
    """Forward default camera behind the windshield of the test vehicle."""
    return SensorUnit(
        sensor_id="vut",
        mount="vut",
        pose=MountPose(0.0, 0.0, DEFAULT_VUT_SENSOR_HEIGHT, 0.0, 0.0),
        hfov=DEFAULT_HFOV_RAD,
        vfov=DEFAULT_VFOV_RAD,
        max_range=DEFAULT_RANGE_M,
    )


# --------------------------------------------------------------- layout file

_LAYOUT_COLUMNS = (
    "id",
    "mount",
    "x",
    "y",
    "z",
    "yaw_deg",
    "pitch_deg",
    "hfov_deg",
    "vfov_deg",
    "range_m",
    "rate_hz",
    "latency_s",
)


def _rate_text(frame_rate: float) -> str:
    """A rate in six significant digits where that reads back exactly, in
    full otherwise, since a layout's rate must equal the scenario's."""
    text = f"{frame_rate:g}"
    return text if float(text) == frame_rate else repr(frame_rate)


def format_layout(units: tuple[SensorUnit, ...], frame_rate: float = DEFAULT_OVERRIDES.frame_rate) -> str:
    """Layout file text: comma-separated, angles in degrees, one unit per
    line; every unit's rate column is the scenario `frame_rate`."""
    lines = [",".join(_LAYOUT_COLUMNS)]
    for u in units:
        lines.append(
            ",".join(
                [
                    u.sensor_id,
                    u.mount,
                    f"{u.pose.x:g}",
                    f"{u.pose.y:g}",
                    f"{u.pose.z:g}",
                    f"{math.degrees(u.pose.yaw):g}",
                    f"{math.degrees(u.pose.pitch):g}",
                    f"{math.degrees(u.hfov):g}",
                    f"{math.degrees(u.vfov):g}",
                    f"{u.max_range:g}",
                    _rate_text(frame_rate),
                    f"{u.latency:g}",
                ]
            )
        )
    return "\n".join(lines) + "\n"


def parse_layout(text: str, frame_rate: float = DEFAULT_OVERRIDES.frame_rate) -> tuple[SensorUnit, ...]:
    """Inverse of format_layout. Blank lines and #-comments are skipped, and
    a row whose rate is not the scenario `frame_rate` is an error."""
    rows = []
    header: list[str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        cells = [c.strip() for c in line.split(",")]
        if header is None:
            header = cells
            if tuple(header) != _LAYOUT_COLUMNS:
                raise ValueError(
                    f"layout line {lineno}: header must be {','.join(_LAYOUT_COLUMNS)}"
                )
            continue
        if len(cells) != len(_LAYOUT_COLUMNS):
            raise ValueError(f"layout line {lineno}: expected {len(_LAYOUT_COLUMNS)} fields")
        try:
            rate = float(cells[10])
            if rate != frame_rate:
                raise ValueError(
                    f"sensor {cells[0]!r} runs at {_rate_text(rate)} Hz but "
                    f"the scenario frame rate is {_rate_text(frame_rate)} Hz"
                )
            unit = SensorUnit(
                sensor_id=cells[0],
                mount=cells[1],
                pose=MountPose(
                    float(cells[2]),
                    float(cells[3]),
                    float(cells[4]),
                    math.radians(float(cells[5])),
                    math.radians(float(cells[6])),
                ),
                hfov=math.radians(float(cells[7])),
                vfov=math.radians(float(cells[8])),
                max_range=float(cells[9]),
                latency=float(cells[11]),
            )
            # the camera key's rule: a pinhole's aperture ends at 180 degrees
            for column in (7, 8):
                if float(cells[column]) > 180:
                    raise ValueError(f"{_LAYOUT_COLUMNS[column]} must be in (0, 180]")
        except ValueError as exc:
            raise ValueError(f"layout line {lineno}: {exc}") from exc
        rows.append(unit)
    if header is None:
        raise ValueError("layout file has no header line")
    return tuple(rows)
