"""Write the golden digests of every workload and input variant.

    python3 perfbench/make_golden.py [--workload NAME]

The digests are taken from the reports that the ``vrusim sweep`` and
``vrusim placement`` commands write for each variant's generated inputs, so
``run.py``, which drives the library calls itself, is checked against the
program's own writers.  Run this only when a change to vrusim's outputs is
deliberate, and log the change.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil

import gen
from workloads import GOLDEN_DIR, HERE, WORKLOADS, fresh_import


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    args = parser.parse_args()
    mods = fresh_import()
    cli = importlib.import_module("vrusim.cli")
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in args.workload or sorted(WORKLOADS):
        wl = WORKLOADS[name]
        work = HERE / "work" / f"golden-{name}-{os.getpid()}"
        golden = {}
        try:
            for seed in range(gen.VARIANTS):
                shutil.rmtree(work, ignore_errors=True)
                work.mkdir(parents=True)
                inputs = wl.make_inputs(seed, work, mods.sensing, mods.geometry)
                if inputs["variant"] in golden:
                    continue
                out = work / "out"
                code = cli.main(wl.cli_args(inputs, out) + ["--quiet"])
                if code != 0:
                    raise SystemExit(f"vrusim {wl.cli_args(inputs, out)[0]} exited with {code}")
                golden[inputs["variant"]] = dict(sorted(wl.digests(out).items()))
                print(f"{name} variant {inputs['variant']}: "
                      f"{len(golden[inputs['variant']])} files", flush=True)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(golden, fh, indent=1, sort_keys=True)
            fh.write("\n")


if __name__ == "__main__":
    main()
