"""Time one set-up in a fresh interpreter: import the simulator, then
build every model and trace of a workload's cells without simulating.

Prints ``{"import_s": ..., "build_s": ...}``.  ``run.py`` starts this
several times per run and reports the median.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402

import grid  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=grid.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    grid.load_repro()
    import repro.sim.system  # noqa: F401  (the whole simulator)
    imported = time.perf_counter()
    for cell in grid.cells_for(grid.WORKLOADS[args.workload]):
        grid.build_cell(cell, args.seed)
    built = time.perf_counter()
    print(json.dumps({"import_s": imported - STARTED,
                      "build_s": built - imported}))


if __name__ == "__main__":
    main()
