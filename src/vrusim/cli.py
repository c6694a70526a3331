"""Command line front end.

Exit codes: 0 success, 1 configuration problem, 2 runtime failure,
3 sweep finished but one or more report files could not be written.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import uuid

import yaml

from ._version import __version__
from .config import ConfigError, load_config, read_layout
from .harness import _fmt, cell_spec, emit_reports, run_sweep
from .placement import candidate_sites_from_units, evaluate_sites, greedy_select
from .sensing import format_layout

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
    sweep.add_argument("--config", metavar="YAML", help="configuration file")
    sweep.add_argument("--out", metavar="DIR", help="report directory (overrides config)")
    sweep.add_argument("--seed", type=int, help="detection-noise seed (overrides config)")
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
    _verbosity(sweep)

    place = sub.add_parser("placement", help="greedy sensor-site selection")
    place.add_argument("--config", metavar="YAML", help="configuration file")
    place.add_argument(
        "--candidates", metavar="LAYOUT", required=True,
        help="candidate sites as a sensor layout file",
    )
    place.add_argument("--budget", type=int, required=True, help="number of sites to pick")
    place.add_argument("--out", metavar="DIR", help="report directory (overrides config)")
    place.add_argument("--seed", type=int, help="detection-noise seed (overrides config)")
    _verbosity(place)

    return parser


def _verbosity(parser: argparse.ArgumentParser) -> None:
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
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
        _probe_out_dir(config.out_dir)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG

    try:
        result = run_sweep(config, workers=args.workers)
        manifest = emit_reports(result, config.out_dir)
    except Exception:
        log.exception("sweep failed")
        return EXIT_RUNTIME

    for rel, msg in manifest.failures:
        log.error("could not write %s: %s", rel, msg)
    log.info(
        "wrote %d file(s) to %s (config %s)",
        len(manifest.entries), config.out_dir, result.config_hash,
    )
    return EXIT_OK if manifest.complete else EXIT_PARTIAL


def _cmd_placement(args: argparse.Namespace) -> int:
    try:
        config = load_config(args.config, seed=args.seed, out_dir=args.out)
        units = read_layout(args.candidates, config.overrides.frame_rate, "--candidates")
        try:
            candidates = candidate_sites_from_units(units)
        except ValueError as exc:
            raise ConfigError(f"--candidates: {exc}") from None
        if args.budget < 1:
            raise ConfigError("--budget must be at least 1")
        _probe_out_dir(config.out_dir)
    except (ConfigError, OSError, yaml.YAMLError) as exc:
        log.error("%s", exc)
        return EXIT_CONFIG

    try:
        suite = tuple(cell_spec(config.overrides, *cell) for cell in config.cells())
        scores = evaluate_sites(candidates, suite, config.policy, config.model)
        picked = greedy_select(candidates, args.budget, suite, config.policy, config.model)
    except Exception:
        log.exception("placement failed")
        return EXIT_RUNTIME

    lines = ["site_id,selected,selection_rank,marginal_gain,avoidance,accuracy"]
    rank = {sid: i for i, sid in enumerate(picked.selected_site_ids)}
    for score in scores:
        i = rank.get(score.site_id)
        lines.append(
            ",".join(
                (
                    score.site_id,
                    _fmt(i is not None),
                    str(i) if i is not None else "NA",
                    _fmt(picked.marginal_gains[i] if i is not None else None),
                    _fmt(score.avoidance),
                    _fmt(score.accuracy),
                )
            )
        )
    by_id = {unit.sensor_id: unit for unit in units}
    selected_units = tuple(by_id[sid] for sid in picked.selected_site_ids)

    try:
        with open(os.path.join(config.out_dir, "placement.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        with open(
            os.path.join(config.out_dir, "selected_layout.txt"), "w", encoding="utf-8"
        ) as fh:
            fh.write(format_layout(selected_units, config.overrides.frame_rate))
    except OSError as exc:
        log.error("could not write placement reports: %s", exc)
        return EXIT_PARTIAL

    log.info(
        "selected %s: avoidance %.3f, accuracy %.3f",
        ", ".join(picked.selected_site_ids), picked.avoidance_rate, picked.accuracy,
    )
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    _setup_logging(args)
    if args.command == "sweep":
        return _cmd_sweep(args)
    if args.command == "placement":
        return _cmd_placement(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
