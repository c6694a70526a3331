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
from dataclasses import dataclass, fields, is_dataclass, replace
from typing import Any, Callable, Mapping, Sequence

import yaml

from .aeb import AebPolicy
from .scenario import (
    DEFAULT_OVERRIDES,
    ScenarioKind,
    ScenarioOverrides,
    allowed_speeds_kmh,
    build_scenario,
    kinematics_grid,
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


# the kinematics steps one run may take; the default sweep's longest run takes 2 980
_MAX_RUN_STEPS = 10**6


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
    scene_yaws_deg: tuple[float, ...]
    policy: AebPolicy
    model: DetectionModel
    vut_sensor: SensorUnit
    rsu_units: tuple[SensorUnit, ...]
    subsets: tuple[SubsetSpec, ...]
    overrides: ScenarioOverrides
    write_traces: bool

    @property
    def dt(self) -> float:
        """The kinematics step, which the frame rate fixes."""
        return kinematics_grid(self.overrides.frame_rate)[0]

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
        """Every field but `out_dir` and `write_traces`, one a line, walked
        down to its numbers, each float in repr, which is exact."""
        return "".join(
            f"{f.name}={_canonical(getattr(self, f.name))}\n"
            for f in fields(self)
            if f.name not in ("out_dir", "write_traces")
        )

    def config_hash(self) -> str:
        return hashlib.sha256(self.canonical_text().encode()).hexdigest()[:16]


def _canonical(value: Any) -> str:
    """`value` as text that tells apart any two values that differ."""
    if is_dataclass(value):
        return "(" + ",".join(f"{f.name}={_canonical(getattr(value, f.name))}" for f in fields(value)) + ")"
    if isinstance(value, Mapping):
        return "{" + ",".join(f"{_canonical(k)}:{_canonical(v)}" for k, v in value.items()) + "}"
    if isinstance(value, tuple):
        return "(" + ",".join(map(_canonical, value)) + ")"
    return repr(value)


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


def _entries(raw: Any, key: str, parse: Callable[[Any], Any]) -> tuple:
    """The entries of the list `raw` under `key`, each read by `parse`;
    the list must be non-empty and no two entries may read alike."""
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError(f"{key}: expected a non-empty list")
    entries = tuple(map(parse, raw))
    if len(set(entries)) != len(entries):
        raise ConfigError(f"{key}: duplicate entries")
    return entries


def _resolve_speeds(kinds: Sequence[ScenarioKind], explicit: Any) -> dict[ScenarioKind, tuple[float, ...]]:
    """Each scenario's sweep speeds: all it allows, or those of `explicit`
    it allows, where each listed speed must suit some scenario and each
    scenario some listed speed."""
    if explicit is None:
        return {kind: allowed_speeds_kmh(kind) for kind in kinds}
    speeds = sorted(_entries(explicit, "speeds_kmh", lambda v: _number(v, "speeds_kmh")))
    out = {kind: tuple(s for s in speeds if s in allowed_speeds_kmh(kind)) for kind in kinds}
    unused = [s for s in speeds if not any(s in picked for picked in out.values())]
    empty = [kind.display_name for kind, picked in out.items() if not picked]
    if unused or empty:
        what = f"{unused[0]:g} km/h suits no configured scenario" if unused else f"no {empty[0]} speed is listed"
        grids = ", ".join(
            f"{kind.display_name} {allowed_speeds_kmh(kind)[0]:g}..{allowed_speeds_kmh(kind)[-1]:g}" for kind in kinds
        )
        raise ConfigError(f"speeds_kmh: {what}; allowed: {grids} in steps of 5")
    return out


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
    if not isinstance(raw, (list, tuple)) or not raw:
        raise ConfigError("subsets: expected a non-empty list")
    out = []
    for entry in raw:
        if entry == "any":
            out.append(SubsetSpec("any", tuple(sensor_ids)))
            continue
        if isinstance(entry, str):
            entry = [entry]
        if not isinstance(entry, (list, tuple)) or not entry:
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
    subsets: Sequence[Any] | None = None,
    speeds_kmh: Sequence[float] | None = None,
    write_traces: bool | None = None,
) -> RunConfig:
    """Parse, validate, and resolve a run configuration.

    ``path=None`` gives the all-defaults config.  Each keyword that is not
    None replaces the top-level key of its name before any key is read, so
    that key's rules check it; the command-line flags pass through these.
    """
    raw: Any = None
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                raw = yaml.safe_load(fh)
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: {exc}") from None
    top = _Section(raw, "")
    given = dict(seed=seed, out_dir=out_dir, subsets=subsets, speeds_kmh=speeds_kmh, write_traces=write_traces)
    top.data.update((key, value) for key, value in given.items() if value is not None)

    kinds = _entries(top.take("scenarios", [k.display_name for k in ScenarioKind]), "scenarios", _kind)

    speeds_by_kind = _resolve_speeds(kinds, top.take("speeds_kmh", None))

    cfg_seed = _integer(top.take("seed", 0), "seed")
    cfg_out = top.take("out_dir", "out")
    if not isinstance(cfg_out, str) or not cfg_out:
        raise ConfigError("out_dir: expected a non-empty string")

    yaws = _entries(top.take("scene_yaw_deg", [0.0]), "scene_yaw_deg", lambda v: _number(v, "scene_yaw_deg"))
    labels: dict[str, float] = {}
    for yaw in yaws:
        other = labels.setdefault(f"{yaw:g}", yaw)
        if other != yaw:
            # `cell_tag` and summary.csv print a yaw with :g
            raise ConfigError(f"scene_yaw_deg: {other!r} and {yaw!r} both read {yaw:g} in report names and rows")

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
            seed=cfg_seed,
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

    config = RunConfig(
        scenarios=kinds,
        speeds_by_kind=speeds_by_kind,
        out_dir=cfg_out,
        scene_yaws_deg=yaws,
        policy=policy,
        model=model,
        vut_sensor=vut_sensor,
        rsu_units=rsu_units,
        subsets=_resolve_subsets(subsets_raw, ids),
        overrides=overrides,
        write_traces=cfg_traces,
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
    scenario can be built with, and a run of more than _MAX_RUN_STEPS
    kinematics steps, fail at load time, not in the middle of a sweep."""
    rate = config.overrides.frame_rate
    try:
        dt = config.dt
    except ValueError as exc:
        raise ConfigError(f"scenario_overrides.frame_rate: {exc}") from None
    for kind in config.scenarios:
        for speed in config.speeds_by_kind[kind]:
            try:
                spec = build_scenario(kind, speed, config.overrides)
            except ValueError as exc:
                raise ConfigError(
                    f"scenario_overrides: {kind.display_name} at {speed:g} km/h: {exc}"
                ) from None
            # its frame periods, the last frame's included, over dt
            if (spec.sim_duration + 1.0 / rate) / dt > _MAX_RUN_STEPS:
                raise ConfigError(
                    f"scenario_overrides.frame_rate: at {rate:g} frames/s the {kind.display_name} "
                    f"run at {speed:g} km/h takes more than {_MAX_RUN_STEPS:.0e} steps of {dt:g} s"
                )
