"""Seeded input generation for the benchmark workloads.

A seed selects one of ``VARIANTS`` input variants, and every variant has a
committed golden digest, so any seed the benchmark is given can be checked.
Layouts are written through vrusim's own ``format_layout`` and configs as
YAML; the program under test receives only these files.
"""

from __future__ import annotations

import math
import random
from dataclasses import replace
from pathlib import Path

import yaml

VARIANTS = 8

# sweep-replay: the default 13 sensors and 14 subsets, one cell per
# scenario at 60 km/h, the fastest cells of the default sweep (3.4-4 s
# each), so that a timed run holds three iterations
REPLAY_SPEEDS_KMH = [60]

# sweep-dense: many roadside units, two subsets, two scene yaws
DENSE_UNITS = 150
DENSE_SPEEDS_KMH = [40]
DENSE_YAWS_DEG = [0, 90]
DENSE_MISS_PROBABILITY = 0.1
DENSE_WORKERS = 2

# placement-greedy: K candidate sites, budget B, one speed per scenario;
# K = 8, B = 2 and the fastest cells keep an iteration near 12 s
CANDIDATE_SITES = 8
BUDGET = 2
PLACEMENT_SPEEDS_KMH = [60]


def variant(seed: int) -> int:
    return seed % VARIANTS


def _aimed_units(sensing, geometry, prefix: str, count: int, jitter: random.Random | None,
                 radius: tuple[float, float], height: tuple[float, float]) -> list:
    """Roadside units around the origin, each aimed at the conflict zone.

    A fixed template spreads the units evenly in angle, one random angle
    per equal sector.  ``jitter`` moves each unit by up to 25 cm and turns
    it by up to a degree.
    """

    def nudge(half: float) -> float:
        return jitter.uniform(-half, half) if jitter else 0.0

    template = random.Random(f"{prefix}-template")
    units = []
    for i in range(count):
        theta = 2.0 * math.pi * (i + template.random()) / count
        r = template.uniform(*radius) + nudge(0.25)
        x = round(r * math.cos(theta), 2)
        y = round(r * math.sin(theta), 2)
        z = round(template.uniform(*height) + nudge(0.1), 2)
        aim = template.uniform(-20.0, 20.0) + nudge(1.0)
        yaw_deg = round(math.degrees(math.atan2(-y, -x)) + aim, 1)
        tilt = template.uniform(-5.0, 5.0) + nudge(0.5)
        pitch_deg = round(-math.degrees(math.atan2(z, math.hypot(x, y))) + tilt, 1)
        units.append(
            sensing.SensorUnit(
                sensor_id=f"{prefix}{i}",
                mount="rsu",
                pose=geometry.MountPose(x, y, z, math.radians(yaw_deg), math.radians(pitch_deg)),
                hfov=sensing.DEFAULT_HFOV_RAD,
                vfov=sensing.DEFAULT_VFOV_RAD,
                max_range=sensing.DEFAULT_RANGE_M,
            )
        )
    return units


def _write_yaml(path: Path, data: dict) -> Path:
    path.write_text(yaml.safe_dump(data, sort_keys=True), encoding="utf-8")
    return path


def sweep_replay_inputs(seed: int, work: Path, sensing, geometry) -> dict:
    config = _write_yaml(work / "config.yaml", {
        "seed": seed,
        "speeds_kmh": REPLAY_SPEEDS_KMH,
        "out_dir": str(work / "out"),
    })
    return {"config": config, "variant": "any"}


def sweep_dense_inputs(seed: int, work: Path, sensing, geometry) -> dict:
    v = variant(seed)
    units = _aimed_units(sensing, geometry, "rsu", DENSE_UNITS, random.Random(f"sweep-dense/{v}"),
                         radius=(5.0, 25.0), height=(3.0, 8.0))
    layout = work / "layout.txt"
    layout.write_text(sensing.format_layout(units), encoding="utf-8")
    config = _write_yaml(work / "config.yaml", {
        "seed": v,
        "speeds_kmh": DENSE_SPEEDS_KMH,
        "scene_yaw_deg": DENSE_YAWS_DEG,
        "subsets": ["vut", "any"],
        "detection": {"miss_probability": DENSE_MISS_PROBABILITY},
        "sensors": {"layout_file": str(layout)},
        "out_dir": str(work / "out"),
    })
    return {"config": config, "variant": str(v)}


def placement_inputs(seed: int, work: Path, sensing, geometry) -> dict:
    v = variant(seed)
    # a variant renames and reorders one fixed set of sites: moving the
    # sites, even by 25 cm, flips enough replays between avoided and
    # collided to change the work of a variant by a tenth or more
    sites = _aimed_units(sensing, geometry, "site", CANDIDATE_SITES, None,
                         radius=(8.0, 20.0), height=(4.0, 8.0))
    random.Random(f"placement-greedy/{v}").shuffle(sites)
    sites = [replace(site, sensor_id=f"site{i}") for i, site in enumerate(sites)]
    candidates = work / "candidates.txt"
    candidates.write_text(sensing.format_layout(sites), encoding="utf-8")
    config = _write_yaml(work / "config.yaml", {
        "seed": v,
        "speeds_kmh": PLACEMENT_SPEEDS_KMH,
        "out_dir": str(work / "out"),
    })
    return {"config": config, "candidates": candidates, "variant": str(v)}
