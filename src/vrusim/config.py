"""Run configuration: YAML surface, validation, and canonical hashing.

The config file speaks user units (km/h, degrees, pixels); all but the
pixel floors, which each unit reads by its own aperture, are converted to
SI radians/meters/seconds exactly once, here.  Unknown keys are errors at
every level, so a typo cannot silently fall back to a default.  The
resolved RunConfig is what the rest of the harness consumes, and its
canonical text (hence hash) covers every value that can influence the
outputs.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping, Sequence

import yaml

from .aeb import AebPolicy
from .scenario import (
    DEFAULT_OVERRIDES,
    ScenarioKind,
    ScenarioOverrides,
    allowed_speeds_kmh,
    build_scenario,
    frame_steps,
)
from .sensing import (
    DEFAULT_HFOV_RAD,
    DEFAULT_IMAGE_HEIGHT_PX,
    DEFAULT_RANGE_M,
    DetectionModel,
    SensorUnit,
    default_layout,
    default_vut_sensor,
    parse_layout,
    vertical_aperture,
)

__all__ = ["SubsetSpec", "RunConfig", "load_config", "ConfigError"]


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


@dataclass(frozen=True)
class SubsetSpec:
    name: str
    sensor_ids: tuple[str, ...]


@dataclass(frozen=True)
class RunConfig:
    scenarios: tuple[ScenarioKind, ...]
    speeds_by_kind: Mapping[ScenarioKind, tuple[float, ...]]  # km/h
    out_dir: str
    dt: float
    scene_yaws_deg: tuple[float, ...]
    policy: AebPolicy
    model: DetectionModel
    vut_sensor: SensorUnit
    rsu_units: tuple[SensorUnit, ...]
    subsets: tuple[SubsetSpec, ...]
    overrides: ScenarioOverrides
    write_traces: bool

    def all_units(self) -> tuple[SensorUnit, ...]:
        return (self.vut_sensor, *self.rsu_units)

    def cells(self) -> tuple[tuple[float, ScenarioKind, float], ...]:
        """Every (scene yaw in degrees, scenario, speed in km/h), in sweep order."""
        return tuple(
            (yaw, kind, speed)
            for yaw in self.scene_yaws_deg
            for kind in self.scenarios
            for speed in self.speeds_by_kind[kind]
        )

    def canonical_text(self) -> str:
        """Deterministic dump of every outcome-relevant resolved value."""
        parts = [
            "scenarios=" + ",".join(k.display_name for k in self.scenarios),
            "speeds="
            + ";".join(
                k.display_name + ":" + ",".join(f"{s:g}" for s in self.speeds_by_kind[k])
                for k in self.scenarios
            ),
            f"seed={self.model.seed}",
            f"dt={self.dt:.9g}",
            "yaws=" + ",".join(f"{y:.9g}" for y in self.scene_yaws_deg),
            f"policy={self.policy.deceleration:.9g},{self.policy.latency:.9g},{self.policy.confirm_frames}",
            "model="
            + ",".join(
                f"{v:.9g}"
                for v in (
                    self.model.min_visible_fraction,
                    self.model.min_width_px,
                    self.model.min_height_px,
                    self.model.image_width_px,
                    self.model.miss_probability,
                )
            )
            + f",{self.model.seed}",
            "units="
            + ";".join(_unit_text(u, self.overrides.frame_rate) for u in self.all_units()),
            "subsets=" + ";".join(f"{s.name}:{','.join(s.sensor_ids)}" for s in self.subsets),
            "overrides="
            + ",".join(
                f"{f.name}={getattr(self.overrides, f.name):.9g}"
                for f in fields(ScenarioOverrides)
            ),
        ]
        return "\n".join(parts) + "\n"

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _unit_text(u: SensorUnit, frame_rate: float) -> str:
    # a unit's text follows the layout file's columns, whose rate column is
    # the scenario frame rate
    return (
        f"{u.sensor_id},{u.mount},{u.pose.x:.9g},{u.pose.y:.9g},{u.pose.z:.9g},"
        f"{u.pose.yaw:.9g},{u.pose.pitch:.9g},{u.hfov:.9g},{u.vfov:.9g},"
        f"{u.max_range:.9g},{frame_rate:.9g},{u.latency:.9g}"
    )


class _Section:
    """Mapping view that errors on unknown keys when finished."""

    def __init__(self, data: Any, path: str):
        if data is None:
            data = {}
        if not isinstance(data, dict):
            raise ConfigError(f"{path}: expected a mapping")
        self.data = dict(data)
        self.path = path

    def take(self, key: str, default: Any) -> Any:
        return self.data.pop(key, default)

    def section(self, key: str) -> "_Section":
        return _Section(self.data.pop(key, None), f"{self.path}.{key}" if self.path else key)

    def finish(self) -> None:
        if self.data:
            names = ", ".join(sorted(map(str, self.data)))
            where = self.path or "top level"
            raise ConfigError(f"unknown key(s) at {where}: {names}")


def _number(value: Any, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _integer(value: Any, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _boolean(value: Any, path: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{path}: expected true/false, got {value!r}")
    return value


def _kind(name: Any) -> ScenarioKind:
    for kind in ScenarioKind:
        if kind.display_name == name:
            return kind
    options = ", ".join(k.display_name for k in ScenarioKind)
    raise ConfigError(f"unknown scenario {name!r}; choose from {options}")


def _resolve_speeds(
    kinds: Sequence[ScenarioKind],
    explicit: Any,
    range_section: _Section | None,
) -> dict[ScenarioKind, tuple[float, ...]]:
    if explicit is not None and range_section is not None:
        raise ConfigError("give either speeds_kmh or speed_range, not both")
    if explicit is not None:
        if not isinstance(explicit, list) or not explicit:
            raise ConfigError("speeds_kmh: expected a non-empty list")
        speeds = tuple(_number(v, "speeds_kmh") for v in explicit)
        if len(set(speeds)) != len(speeds):
            raise ConfigError("speeds_kmh: duplicate entries")
        out = {}
        for kind in kinds:
            allowed = allowed_speeds_kmh(kind)
            for s in speeds:
                if s not in allowed:
                    raise ConfigError(
                        f"speed {s:g} km/h is not a {kind.display_name} sweep speed; "
                        f"allowed: {allowed[0]:g}..{allowed[-1]:g} in steps of 5"
                    )
            out[kind] = tuple(sorted(speeds))
        return out
    if range_section is not None:
        lo = _number(range_section.take("min_kmh", 20.0), "speed_range.min_kmh")
        hi = _number(range_section.take("max_kmh", 60.0), "speed_range.max_kmh")
        step = _number(range_section.take("step_kmh", 5.0), "speed_range.step_kmh")
        range_section.finish()
        if step <= 0:
            raise ConfigError("speed_range.step_kmh must be positive")
        if hi < lo:
            raise ConfigError("speed_range.max_kmh must be at least min_kmh")
        out = {}
        for kind in kinds:
            allowed = allowed_speeds_kmh(kind)
            picked = tuple(s for s in allowed if _on_grid(s, lo, hi, step))
            if not picked:
                raise ConfigError(
                    f"speed_range selects no {kind.display_name} speeds "
                    f"(allowed {allowed[0]:g}..{allowed[-1]:g})"
                )
            out[kind] = picked
        return out
    return {kind: allowed_speeds_kmh(kind) for kind in kinds}


def _on_grid(speed: float, lo: float, hi: float, step: float) -> bool:
    """Whether some lo + k * step (k = 0, 1, ...) at most hi, with 1e-9 of
    slack, rounds to `speed` at six decimals. Only the grid points on
    either side of the speed can, so the check costs the same however
    small the step."""
    if speed < lo:
        near: tuple[float, ...] = (lo,)
    else:
        below = speed - (speed - lo) % step
        near = (below, below + step)
    return any(v <= hi + 1e-9 and round(v, 6) == speed for v in near)


def read_layout(path: str, frame_rate: float, where: str) -> tuple[SensorUnit, ...]:
    """The units of a layout file, with unique ids, none of them the fused
    subset's name ``any``, each at the scenario frame rate; ``where`` (a
    config key or a flag) prefixes every error."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            units = parse_layout(fh.read(), frame_rate)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{where}: {exc}") from None
    ids = [u.sensor_id for u in units]
    if len(set(ids)) != len(ids):
        raise ConfigError(f"{where}: sensor ids must be unique")
    if "any" in ids:
        raise ConfigError(f"{where}: the sensor id 'any' is reserved for the fused subset")
    return units


def _resolve_subsets(raw: Any, sensor_ids: Sequence[str]) -> tuple[SubsetSpec, ...]:
    known = set(sensor_ids)
    if raw is None:
        subsets = [SubsetSpec("vut", ("vut",))]
        subsets += [SubsetSpec(s, (s,)) for s in sensor_ids if s != "vut"]
        subsets.append(SubsetSpec("any", tuple(sensor_ids)))
        return tuple(subsets)
    if not isinstance(raw, list) or not raw:
        raise ConfigError("subsets: expected a non-empty list")
    out = []
    for entry in raw:
        if entry == "any":
            out.append(SubsetSpec("any", tuple(sensor_ids)))
            continue
        if isinstance(entry, str):
            entry = [entry]
        if not isinstance(entry, list) or not entry:
            raise ConfigError(f"subsets: bad entry {entry!r}")
        ids = []
        for sid in entry:
            if not isinstance(sid, str) or sid not in known:
                raise ConfigError(
                    f"subsets: unknown sensor {sid!r}; known: {', '.join(sensor_ids)}"
                )
            if sid in ids:
                raise ConfigError(f"subsets: duplicate sensor {sid!r} in one subset")
            ids.append(sid)
        out.append(SubsetSpec("+".join(ids), tuple(ids)))
    names = [s.name for s in out]
    if len(set(names)) != len(names):
        raise ConfigError("subsets: duplicate subset definitions")
    return tuple(out)


def load_config(
    path: str | None = None,
    *,
    seed: int | None = None,
    out_dir: str | None = None,
    subset_filter: Sequence[str] | None = None,
    speed_filter: Sequence[float] | None = None,
    write_traces: bool | None = None,
) -> RunConfig:
    """Parse, validate, and resolve a run configuration.

    ``path=None`` gives the all-defaults config.  Keyword overrides mirror
    the command-line flags and are applied before validation, so the
    resulting hash reflects what will actually run.
    """
    if path is None:
        raw: Any = {}
    else:
        with open(path, "r", encoding="utf-8") as fh:
            raw = yaml.safe_load(fh)
    top = _Section(raw, "")

    scenario_names = top.take("scenarios", [k.display_name for k in ScenarioKind])
    if not isinstance(scenario_names, list) or not scenario_names:
        raise ConfigError("scenarios: expected a non-empty list")
    kinds = tuple(_kind(n) for n in scenario_names)
    if len(set(kinds)) != len(kinds):
        raise ConfigError("scenarios: duplicate entries")

    explicit_speeds = top.take("speeds_kmh", None)
    range_raw = top.take("speed_range", None)
    range_section = _Section(range_raw, "speed_range") if range_raw is not None else None
    speeds_by_kind = _resolve_speeds(kinds, explicit_speeds, range_section)

    cfg_seed = _integer(top.take("seed", 0), "seed")
    cfg_out = top.take("out_dir", "out")
    if not isinstance(cfg_out, str) or not cfg_out:
        raise ConfigError("out_dir: expected a non-empty string")
    dt = _number(top.take("dt_s", 0.005), "dt_s")
    if dt <= 0:
        raise ConfigError("dt_s must be positive")

    yaws_raw = top.take("scene_yaw_deg", [0.0])
    if not isinstance(yaws_raw, list) or not yaws_raw:
        raise ConfigError("scene_yaw_deg: expected a non-empty list")
    yaws = tuple(_number(v, "scene_yaw_deg") for v in yaws_raw)
    if len(set(yaws)) != len(yaws):
        raise ConfigError("scene_yaw_deg: duplicate entries")

    cam = top.section("camera")
    hfov_deg = _number(cam.take("hfov_deg", math.degrees(DEFAULT_HFOV_RAD)), "camera.hfov_deg")
    img_w = _number(cam.take("image_width_px", DetectionModel.image_width_px), "camera.image_width_px")
    img_h = _number(cam.take("image_height_px", DEFAULT_IMAGE_HEIGHT_PX), "camera.image_height_px")
    cam.finish()
    # the vertical aperture follows the horizontal one and the aspect
    # ratio, and a pinhole's horizontal aperture ends at 180 degrees
    if not 0 < hfov_deg <= 180:
        raise ConfigError("camera.hfov_deg must be in (0, 180]")
    if img_w <= 0 or img_h <= 0:
        raise ConfigError("camera: image sizes must be positive")
    hfov = math.radians(hfov_deg)
    vfov = vertical_aperture(hfov, img_w, img_h)

    det = top.section("detection")
    min_w_px = _number(det.take("min_width_px", DetectionModel.min_width_px), "detection.min_width_px")
    min_h_px = _number(det.take("min_height_px", DetectionModel.min_height_px), "detection.min_height_px")
    min_frac = _number(det.take("min_visible_fraction", DetectionModel.min_visible_fraction), "detection.min_visible_fraction")
    miss_p = _number(det.take("miss_probability", DetectionModel.miss_probability), "detection.miss_probability")
    det.finish()

    pol = top.section("policy")
    decel = _number(pol.take("deceleration_mps2", AebPolicy.deceleration), "policy.deceleration_mps2")
    latency = _number(pol.take("latency_s", AebPolicy.latency), "policy.latency_s")
    confirm = _integer(pol.take("confirm_frames", AebPolicy.confirm_frames), "policy.confirm_frames")
    pol.finish()
    if decel <= 0:
        raise ConfigError("policy.deceleration_mps2 must be positive")
    try:
        policy = AebPolicy(deceleration=decel, latency=latency, confirm_frames=confirm)
    except ValueError as exc:
        raise ConfigError(f"policy: {exc}") from None

    sens = top.section("sensors")
    layout_file = sens.take("layout_file", None)
    range_m = _number(sens.take("range_m", DEFAULT_RANGE_M), "sensors.range_m")
    sensor_latency = _number(sens.take("latency_s", SensorUnit.latency), "sensors.latency_s")
    sens.finish()

    ov = top.section("scenario_overrides")
    ov_fields = {f.name: f for f in fields(ScenarioOverrides)}
    ov_values = {}
    for name in list(ov.data):
        if name not in ov_fields:
            raise ConfigError(
                f"scenario_overrides: unknown field {name!r}; "
                f"known: {', '.join(sorted(ov_fields))}"
            )
        ov_values[name] = _number(ov.take(name, None), f"scenario_overrides.{name}")
    ov.finish()
    overrides = replace(DEFAULT_OVERRIDES, **ov_values) if ov_values else DEFAULT_OVERRIDES
    for name in ("frame_rate", "pedestrian_speed_kmh", "cyclist_speed_kmh"):
        if not getattr(overrides, name) > 0:
            raise ConfigError(f"scenario_overrides.{name} must be positive")
    try:
        frame_steps(overrides.frame_rate, dt)
    except ValueError:
        raise ConfigError(
            f"dt_s={dt:g} must divide the {1.0 / overrides.frame_rate:g} s frame period "
            "evenly, into two steps or more"
        ) from None

    cfg_traces = _boolean(top.take("write_traces", False), "write_traces")
    subsets_raw = top.take("subsets", None)
    top.finish()

    try:
        model = DetectionModel(
            min_visible_fraction=min_frac,
            min_width_px=min_w_px,
            min_height_px=min_h_px,
            image_width_px=img_w,
            miss_probability=miss_p,
            seed=cfg_seed if seed is None else seed,
        )
    except ValueError as exc:
        raise ConfigError(f"detection: {exc}") from None

    if layout_file is not None:
        if not isinstance(layout_file, str):
            raise ConfigError("sensors.layout_file: expected a path string")
        rsu_units = read_layout(layout_file, overrides.frame_rate, "sensors.layout_file")
    hardware = dict(hfov=hfov, vfov=vfov, max_range=range_m, latency=sensor_latency)
    try:
        vut_sensor = replace(default_vut_sensor(), **hardware)
        if layout_file is None:
            rsu_units = tuple(replace(u, **hardware) for u in default_layout())
    except ValueError as exc:
        raise ConfigError(f"sensors: {exc}") from None
    ids = [vut_sensor.sensor_id] + [u.sensor_id for u in rsu_units]
    if len(set(ids)) != len(ids):
        raise ConfigError("sensor ids must be unique across the vehicle and layout")

    subsets = _resolve_subsets(subsets_raw, ids)

    config = RunConfig(
        scenarios=kinds,
        speeds_by_kind=speeds_by_kind,
        out_dir=cfg_out if out_dir is None else out_dir,
        dt=dt,
        scene_yaws_deg=yaws,
        policy=policy,
        model=model,
        vut_sensor=vut_sensor,
        rsu_units=rsu_units,
        subsets=subsets,
        overrides=overrides,
        write_traces=cfg_traces if write_traces is None else write_traces,
    )
    if subset_filter:
        by_name = {s.name: s for s in config.subsets}
        missing = [n for n in subset_filter if n not in by_name]
        if missing:
            raise ConfigError(
                f"subset filter names {missing} not configured; "
                f"available: {', '.join(by_name)}"
            )
        config = replace(config, subsets=tuple(by_name[n] for n in subset_filter))
    if speed_filter:
        kept = {}
        for kind in config.scenarios:
            picked = tuple(s for s in config.speeds_by_kind[kind] if s in speed_filter)
            if picked:
                kept[kind] = picked
        if not kept:
            raise ConfigError("speed filter removes every sweep cell")
        config = replace(
            config,
            scenarios=tuple(k for k in config.scenarios if k in kept),
            speeds_by_kind=kept,
        )
    _check_report_names(config)
    _check_scenarios(config)
    return config


def cell_tag(yaw_deg: float, kind: ScenarioKind, speed_kmh: float) -> str:
    """A sweep cell's name in its report file names."""
    tag = f"{kind.display_name}_{speed_kmh:g}"
    return tag if yaw_deg == 0.0 else f"{tag}_yaw{yaw_deg:g}"


def _check_report_names(config: RunConfig) -> None:
    """Reject, before any simulation, a subset whose heatmap file name
    ``<cell>_<subset>.csv`` (or ``.ppm``) passes the 255-byte limit."""
    longest = max(len(cell_tag(*cell).encode()) for cell in config.cells())
    for sub in config.subsets:
        size = longest + len(f"_{sub.name}.csv".encode())
        if size > 255:
            raise ConfigError(f"subsets: subset {sub.name!r} names report files of {size} bytes; the limit is 255")


def _check_scenarios(config: RunConfig) -> None:
    """Build every configured (scenario, speed) once, so that overrides no
    scenario can be built with fail at load time, not in the middle of a
    sweep."""
    for kind in config.scenarios:
        for speed in config.speeds_by_kind[kind]:
            try:
                build_scenario(kind, speed, config.overrides)
            except ValueError as exc:
                raise ConfigError(
                    f"scenario_overrides: {kind.display_name} at {speed:g} km/h: {exc}"
                ) from None
