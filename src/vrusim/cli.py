"""Command line front end.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure,
3 the command finished but some report files could not be written (see
the manifest's `FAILED` lines).
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import uuid
from typing import Callable

import yaml

from ._version import __version__
from .config import ConfigError, RunConfig, load_config, read_layout
from .harness import Manifest, cell_spec, emit_placement_reports, emit_reports, run_sweep
from .placement import candidate_sites_from_units, evaluate_sites, greedy_select

log = logging.getLogger(__name__)

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2
EXIT_PARTIAL = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrusim",
        description="Simulate roadside-assisted emergency braking scenarios.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sweep = sub.add_parser("sweep", help="run the scenario sweep and write reports")
    sweep.add_argument(
        "--subset", action="append", metavar="NAME",
        help="score this subset: 'any' or sensor ids joined by '+'; repeatable; replaces the subsets key",
    )
    sweep.add_argument(
        "--speeds", metavar="KMH[,KMH...]",
        help="comma-separated speeds; replaces the speeds_kmh key",
    )
    sweep.add_argument("--workers", type=int, default=1, help="worker processes (default 1)")
    sweep.add_argument(
        "--write-traces", action="store_true", default=None,
        help="also write per-cell frame traces",
    )
    _shared_flags(sweep)

    place = sub.add_parser("placement", help="greedy sensor-site selection")
    place.add_argument(
        "--candidates", metavar="LAYOUT", required=True,
        help="candidate sites as a sensor layout file",
    )
    place.add_argument("--budget", type=int, required=True, help="number of sites to pick")
    _shared_flags(place)

    return parser


def _shared_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="YAML", help="configuration file")
    parser.add_argument("--out", metavar="DIR", help="report directory (overrides config)")
    parser.add_argument("--seed", type=int, help="detection-noise seed (overrides config)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    group.add_argument("-q", "--quiet", action="store_true", help="warnings only")


def _setup_logging(args: argparse.Namespace) -> None:
    level = logging.INFO
    if getattr(args, "verbose", False):
        level = logging.DEBUG
    elif getattr(args, "quiet", False):
        level = logging.WARNING
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _parse_speeds(text: str | None) -> list[float] | None:
    if text is None:
        return None
    try:
        return [float(part) for part in text.split(",")]
    except ValueError:
        raise ConfigError(f"--speeds: expected comma-separated numbers, got {text!r}") from None


def _probe_out_dir(out_dir: str) -> None:
    """Fail before any simulation if reports cannot be written."""
    os.makedirs(out_dir, exist_ok=True)
    probe = os.path.join(out_dir, f".write-probe-{uuid.uuid4().hex}")
    with open(probe, "w", encoding="utf-8") as fh:
        fh.write("probe\n")
    os.unlink(probe)


def _load_sweep(args: argparse.Namespace) -> tuple[RunConfig, Callable[[], Manifest]]:
    """The sweep's config, and the run that writes its reports."""
    config = load_config(
        args.config,
        seed=args.seed,
        out_dir=args.out,
        subsets=[n if n == "any" else n.split("+") for n in args.subset] if args.subset else None,
        speeds_kmh=_parse_speeds(args.speeds),
        write_traces=args.write_traces,
    )
    if args.workers < 1:
        raise ConfigError("--workers must be at least 1")
    return config, lambda: emit_reports(run_sweep(config, workers=args.workers), config.out_dir)


def _load_placement(args: argparse.Namespace) -> tuple[RunConfig, Callable[[], Manifest]]:
    """The placement config, and the search that writes its reports."""
    config = load_config(args.config, seed=args.seed, out_dir=args.out)
    units = read_layout(args.candidates, config.overrides.frame_rate, "--candidates")
    try:
        candidates = candidate_sites_from_units(units)
    except ValueError as exc:
        raise ConfigError(f"--candidates: {exc}") from None
    if args.budget < 1:
        raise ConfigError("--budget must be at least 1")

    def run() -> Manifest:
        suite = tuple(cell_spec(config.overrides, *cell) for cell in config.cells())
        scores = evaluate_sites(candidates, suite, config.policy, config.model)
        picked = greedy_select(candidates, args.budget, suite, config.policy, config.model)
        log.info(
            "selected %s: avoidance %.3f, accuracy %.3f",
            ", ".join(picked.selected_site_ids), picked.avoidance_rate, picked.accuracy,
        )
        return emit_placement_reports(config, units, scores, picked, config.out_dir)

    return config, run


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _setup_logging(args)
    load = _load_sweep if args.command == "sweep" else _load_placement
    try:
        config, run = load(args)
        _probe_out_dir(config.out_dir)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG

    try:
        manifest = run()
    except Exception:
        log.exception("%s failed", args.command)
        return EXIT_RUNTIME

    for rel, msg in manifest.failures:
        log.error("could not write %s: %s", rel, msg)
    log.info(
        "wrote %d file(s) to %s (config %s)",
        len(manifest.entries), config.out_dir, config.config_hash(),
    )
    return EXIT_OK if manifest.complete else EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
