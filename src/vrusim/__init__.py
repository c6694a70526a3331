"""Deterministic simulator for infrastructure-assisted emergency braking.

Crossing and longitudinal vulnerable-road-user encounters are replayed on
an analytic 2-D stage; roadside and vehicle cameras are reduced to frustum,
occlusion, and apparent-size checks, and an automatic braking policy is
scored against the unassisted vehicle.  Everything downstream of a seed is
reproducible byte for byte.
"""

from ._version import __version__
from .aeb import AebPolicy, SafetyOutcome, simulate_run
from .config import ConfigError, RunConfig, load_config
from .harness import emit_reports, run_sweep
from .metrics import accuracy, mean_detections_per_frame
from .scenario import ScenarioKind, build_scenario
from .sensing import DetectionModel, SensorUnit, default_layout, default_vut_sensor

__all__ = [
    "__version__",
    "AebPolicy",
    "SafetyOutcome",
    "simulate_run",
    "ConfigError",
    "RunConfig",
    "load_config",
    "emit_reports",
    "run_sweep",
    "accuracy",
    "mean_detections_per_frame",
    "ScenarioKind",
    "build_scenario",
    "DetectionModel",
    "SensorUnit",
    "default_layout",
    "default_vut_sensor",
]
