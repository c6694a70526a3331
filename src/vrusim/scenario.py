"""EuroNCAP VRU test-case construction.

Each scenario is a parametric timeline in which each actor drives one
straight leg at constant speed: the vehicle under test drives east along
y = 0 and the vulnerable road user moves so that, absent braking, the two
footprints meet at the conflict point at the origin. Start positions are
back-computed so both actor centers arrive simultaneously; the footprints
touch a little earlier, and `aeb.simulate_run` finds that first contact.
"""

from __future__ import annotations

import enum
import math
from array import array
from dataclasses import dataclass, field, fields, replace
from functools import cached_property

from .geometry import Prism, Silhouette, Vec2, wrap_angle

KMH = 1.0 / 3.6

# speeds from the published sweep grids, km/h
CROSSING_SPEEDS_KMH = tuple(float(v) for v in range(20, 65, 5))
LONGITUDINAL_SPEEDS_KMH = tuple(float(v) for v in range(25, 65, 5))

_MIN_SYNC_TIME = 8.0
_MIN_START_DISTANCE = 60.0
_POST_CONFLICT_TIME = 4.0


class ScenarioKind(enum.Enum):
    CPNC50 = "CPNC-50"
    CBNA = "CBNA"
    CBLA = "CBLA"

    @property
    def display_name(self) -> str:
        return self.value


@dataclass(frozen=True)
class ActorTrack:
    """A footprint's constant-speed motion along one straight leg from
    ``path[0]`` to ``path[1]``, clamped at its end."""

    length: float
    width: float
    speed: float
    path: tuple[Vec2, Vec2]
    # the leg's direction, normalized, and (cos heading, sin heading)
    heading: float = field(init=False, repr=False, compare=False)
    axis: tuple[float, float] = field(init=False, repr=False, compare=False)
    # (start x, start y, dx, dy, length) of the leg
    _leg: tuple[float, float, float, float, float] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not all(map(math.isfinite, (self.length, self.width, self.speed))):
            raise ValueError("actor dimensions and speed must be finite")
        if self.length <= 0 or self.width <= 0:
            raise ValueError("actor dimensions must be positive")
        if self.speed < 0:
            raise ValueError("speed must be non-negative")
        if len(self.path) != 2:
            raise ValueError("path must be one leg: a start and an end waypoint")
        a, b = self.path
        dx, dy = b.x - a.x, b.y - a.y
        object.__setattr__(self, "heading", wrap_angle(math.atan2(dy, dx)))
        object.__setattr__(self, "axis", (math.cos(self.heading), math.sin(self.heading)))
        object.__setattr__(self, "_leg", (a.x, a.y, dx, dy, math.hypot(dx, dy)))

    def along(self, t: float) -> float:
        """Distance along the leg at time t, clamped at its end."""
        return min(self.speed * t, self._leg[4])

    def locate(self, distance: float) -> tuple[float, float]:
        """Position after `distance` along the leg, as plain floats;
        `distance` must be non-negative."""
        ax, ay, dx, dy, length = self._leg
        if distance <= length:
            frac = distance / length if length > 0 else 0.0
            return ax + dx * frac, ay + dy * frac
        end = self.path[1]
        return end.x, end.y


@dataclass(frozen=True)
class VruTrack(ActorTrack):
    """The track of the road user the sensors look for, `height` tall."""

    height: float

    def __post_init__(self) -> None:
        super().__post_init__()
        if not math.isfinite(self.height):
            raise ValueError("actor height must be finite")
        if self.height <= 0:
            raise ValueError("actor dimensions must be positive")

    def silhouette_at(self, t: float) -> Silhouette:
        """The sensing plane at time t."""
        x, y = self.locate(self.speed * t)
        return Silhouette(Vec2(x, y), self.heading, self.length, self.width, self.height)


@dataclass(frozen=True)
class Timeline:
    """The vehicle's unbraked kinematics steps through a run.

    Step k runs from ``starts[k]`` to ``times[k]``, and ``travel[k]`` is the
    distance the vehicle has driven by its end. Index 0 is t = 0 itself
    (no step), and frame f starts at index f * steps_per_frame. The lists
    are arrays of doubles, a quarter of the memory of a tuple of floats,
    since a spec keeps them as long as it lives.
    """

    steps_per_frame: int
    starts: array[float]
    times: array[float]
    travel: array[float]


# the kinematics step wherever whole steps of it fill the frame period
_STEP = 0.005


def kinematics_grid(frame_rate: float) -> tuple[float, int]:
    """The kinematics step at a frame rate and the steps in one frame
    period: exactly 5 ms where two or more whole 5 ms steps fill the
    period, else the period split into the nearest whole number of steps,
    at least two."""
    period = 1.0 / frame_rate
    quotient = period / _STEP
    if not math.isfinite(quotient):
        raise ValueError(f"the {period:g} s frame period holds more steps than a float can count")
    steps = max(2, round(quotient))
    if abs(steps * _STEP - period) <= 1e-9:
        return _STEP, steps
    return period / steps, steps


@dataclass(frozen=True)
class ScenarioSpec:
    kind: ScenarioKind
    vut_track: ActorTrack
    vru_track: VruTrack
    occluders: tuple[Prism, ...]
    sim_duration: float
    frame_rate: float

    def __post_init__(self) -> None:
        for name in ("frame_rate", "sim_duration"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be positive and finite, got {value!r}")

    @property
    def n_frames(self) -> int:
        """Frames in a run, one per frame period with both ends included."""
        periods = self.sim_duration * self.frame_rate
        if not math.isfinite(periods):
            raise ValueError(f"a {self.sim_duration:g} s run at {self.frame_rate:g} frames/s has more frames than a float can count")
        return round(periods) + 1

    @cached_property
    def timeline(self) -> Timeline:
        """The vehicle's unbraked steps up to the last frame, on the
        `kinematics_grid` of the spec's frame rate, built on first use.

        Step times are ``t_frame + i * step`` within each frame, and each
        step adds ``speed * (t1 - t0)`` to the travel, so a braked run
        (`aeb._braked`) shares every step that ends by its onset bit for
        bit with one driven step by step from t = 0.
        """
        step, steps_per_frame = kinematics_grid(self.frame_rate)
        speed = self.vut_track.speed
        travelled = 0.0
        starts, times, travel = array("d", [0.0]), array("d", [0.0]), array("d", [0.0])
        for frame in range(self.n_frames - 1):
            t_frame = frame / self.frame_rate
            for i in range(steps_per_frame):
                t0 = t_frame + i * step
                t1 = t_frame + (i + 1) * step
                travelled = travelled + speed * (t1 - t0)
                starts.append(t0)
                times.append(t1)
                travel.append(travelled)
        return Timeline(steps_per_frame, starts, times, travel)


@dataclass(frozen=True)
class ScenarioOverrides:
    """Dimension and rate knobs; defaults follow EuroNCAP obstruction practice."""

    frame_rate: float = 10.0
    vut_length: float = 4.5
    vut_width: float = 1.8
    pedestrian_speed_kmh: float = 5.0
    pedestrian_length: float = 0.5
    pedestrian_width: float = 0.5
    pedestrian_height: float = 1.8
    cyclist_speed_kmh: float = 15.0
    cyclist_length: float = 1.8
    cyclist_width: float = 0.5
    cyclist_height: float = 1.8
    lane_half_width: float = 1.75
    parked_car_length: float = 4.5
    parked_car_width: float = 1.8
    parked_car_height: float = 1.5
    parked_car_gap: float = 1.0
    parked_car_clearance: float = 1.0
    wall_height: float = 3.0
    wall_thickness: float = 0.3
    wall_clearance: float = 0.5
    wall_end_distance: float = 17.0

    def __post_init__(self) -> None:
        bad = [f.name for f in fields(self) if not math.isfinite(getattr(self, f.name))]
        if bad:
            raise ValueError(f"scenario overrides must be finite: {', '.join(bad)}")


DEFAULT_OVERRIDES = ScenarioOverrides()


def allowed_speeds_kmh(kind: ScenarioKind) -> tuple[float, ...]:
    if kind is ScenarioKind.CBLA:
        return LONGITUDINAL_SPEEDS_KMH
    return CROSSING_SPEEDS_KMH


def build_scenario(
    kind: ScenarioKind,
    vut_speed_kmh: float,
    overrides: ScenarioOverrides = DEFAULT_OVERRIDES,
) -> ScenarioSpec:
    """Construct one test case at the given vehicle speed.

    Raises ValueError when the speed is outside the sweep grid for the
    kind, or, in CBLA, when the cyclist is not slower than the vehicle.
    """
    allowed = allowed_speeds_kmh(kind)
    if vut_speed_kmh not in allowed:
        raise ValueError(
            f"{kind.display_name} speed {vut_speed_kmh:g} km/h not in allowed set "
            f"{{{', '.join(f'{v:g}' for v in allowed)}}}"
        )
    v = vut_speed_kmh * KMH
    ov = overrides
    # the vehicle must close in on the cyclist it follows
    if kind is ScenarioKind.CBLA and ov.cyclist_speed_kmh >= vut_speed_kmh:
        raise ValueError(
            f"cyclist_speed_kmh ({ov.cyclist_speed_kmh:g}) must be below "
            f"the vehicle speed ({vut_speed_kmh:g} km/h)"
        )

    sync_time = max(_MIN_SYNC_TIME, _MIN_START_DISTANCE / v)
    duration = sync_time + _POST_CONFLICT_TIME
    vut_start = -v * sync_time
    vut_track = ActorTrack(
        ov.vut_length,
        ov.vut_width,
        v,
        (Vec2(vut_start, 0.0), Vec2(abs(vut_start) + v * duration + 20.0, 0.0)),
    )

    if kind is ScenarioKind.CPNC50:
        vru_len, vru_wid, vru_hgt = ov.pedestrian_length, ov.pedestrian_width, ov.pedestrian_height
        vru_speed = ov.pedestrian_speed_kmh * KMH
    else:
        vru_len, vru_wid, vru_hgt = ov.cyclist_length, ov.cyclist_width, ov.cyclist_height
        vru_speed = ov.cyclist_speed_kmh * KMH
    vru_start = -vru_speed * sync_time
    vru_end = abs(vru_start) + vru_speed * duration + 20.0
    if kind is ScenarioKind.CBLA:
        vru_path = (Vec2(vru_start, 0.0), Vec2(vru_end, 0.0))
        occluders: tuple[Prism, ...] = ()
    else:
        vru_path = (Vec2(0.0, vru_start), Vec2(0.0, vru_end))
        occluders = _crossing_occluders(kind, ov, abs(vru_start))
    vru_track = VruTrack(vru_len, vru_wid, vru_speed, vru_path, height=vru_hgt)

    return ScenarioSpec(
        kind=kind,
        vut_track=vut_track,
        vru_track=vru_track,
        occluders=occluders,
        sim_duration=duration,
        frame_rate=ov.frame_rate,
    )


def _crossing_occluders(kind: ScenarioKind, ov: ScenarioOverrides, vru_start_dist: float) -> tuple[Prism, ...]:
    if kind is ScenarioKind.CPNC50:
        near_edge = -(ov.lane_half_width + ov.parked_car_clearance)
        center_y = near_edge - ov.parked_car_width / 2
        center_x = ov.parked_car_gap / 2 + ov.parked_car_length / 2
        return (
            Prism(Vec2(center_x, center_y), ov.parked_car_length / 2, ov.parked_car_width / 2, 0.0, height=ov.parked_car_height),
            Prism(Vec2(-center_x, center_y), ov.parked_car_length / 2, ov.parked_car_width / 2, 0.0, height=ov.parked_car_height),
        )
    # wall beside the cyclist approach, ending short of the conflict point
    near_y = -ov.wall_end_distance
    far_y = -(vru_start_dist + 2.0)
    center_y = (near_y + far_y) / 2
    half_len = (near_y - far_y) / 2
    center_x = -(ov.wall_clearance + ov.wall_thickness / 2)
    return (
        Prism(Vec2(center_x, center_y), half_len, ov.wall_thickness / 2, math.pi / 2, height=ov.wall_height),
    )


def rotate_scenario(spec: ScenarioSpec, yaw: float) -> ScenarioSpec:
    """Rotate the whole scene about the origin; sensor layouts stay put."""
    if yaw == 0.0:
        return spec

    def rot_track(track: ActorTrack) -> ActorTrack:
        return replace(track, path=tuple(p.rotated(yaw) for p in track.path))

    def rot_prism(p: Prism) -> Prism:
        return Prism(p.center.rotated(yaw), p.half_long, p.half_lat, p.heading + yaw, height=p.height)

    return replace(
        spec,
        vut_track=rot_track(spec.vut_track),
        vru_track=rot_track(spec.vru_track),
        occluders=tuple(rot_prism(p) for p in spec.occluders),
    )
