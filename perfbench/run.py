"""Host-performance benchmark of the MORC simulator.

    python3 perfbench/run.py --workload fig6-morc --seed 1 --seconds 30 --trace 0

Runs the workload's grid of simulation cells (see ``grid.py``) in whole
rounds until ``--seconds`` have passed (at least two rounds), checks the
outputs (``checks.py``), and prints one JSON line as the last line of
stdout.  With ``--trace 0`` it reports the end-to-end metrics, measured
without instrumentation; with ``--trace 1`` it runs the grid with layer
spans installed (``spans.py``) and reports per-layer self time and
counts.  Progress and the per-layer table go to stderr.

Host times are wall-clock seconds of this single-threaded process; a
cell's time is its fastest round, so rounds disturbed by other processes
on the host do not move the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

import checks
import grid
from grid import Cell
from spans import ALL_LAYERS, CELL, Spans

SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
#: instructions per thread of the untimed first pass that lets lazy
#: imports and allocator growth happen before timing
WARMUP_INSTRUCTIONS = 2_000
#: instructions of each data-integrity replay
DATA_CHECK_INSTRUCTIONS = 12_000


def _drop_repro_knobs() -> None:
    """Measure the default configuration: no ``REPRO_*`` knob reaches the
    simulator, in this process or in the set-up probes."""
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]


class SetupProbes:
    """Set-up times from fresh interpreters (``setup_probe.py``).

    A probe runs after every timed round, so the probes sample the same
    stretch of host time as the cells rather than one burst of it.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.command = [sys.executable,
                        str(Path(__file__).with_name("setup_probe.py")),
                        "--workload", workload, "--seed", str(seed)]
        self.samples: Dict[str, List[float]] = {"import_s": [],
                                                "build_s": []}

    def run(self) -> None:
        done = subprocess.run(self.command, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, check=True)
        for key, value in json.loads(done.stdout.splitlines()[-1]).items():
            self.samples[key].append(value)

    def medians(self) -> Dict[str, float]:
        """Median seconds, after topping up to :data:`SETUP_PROBES`."""
        while len(self.samples["import_s"]) < SETUP_PROBES:
            self.run()
        totals = [a + b for a, b in zip(self.samples["import_s"],
                                        self.samples["build_s"])]
        return {"setup_s": statistics.median(totals),
                "import_s": statistics.median(self.samples["import_s"]),
                "build_s": statistics.median(self.samples["build_s"])}


class Measurement:
    """Per-cell times and first-round results of the timed rounds."""

    def __init__(self, cells: List[Cell]) -> None:
        self.cells = cells
        self.times: Dict[Cell, List[float]] = {cell: [] for cell in cells}
        self.results: Dict[Cell, object] = {}
        self.problems: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.rounds = 0

    def record(self, cell: Cell, seconds: float, result) -> None:
        self.attempted += 1
        self.times[cell].append(seconds)
        if cell not in self.results:
            self.results[cell] = result
            problems = checks.invariant_problems(cell, result)
        elif (checks.fingerprint(cell, result)
              != checks.fingerprint(cell, self.results[cell])):
            problems = [f"round {self.rounds + 1} did not reproduce round 1"]
        else:
            problems = []
        self.note(cell.label, problems)

    def note(self, where: str, problems: List[str]) -> None:
        if problems:
            self.failed += 1
            self.problems.extend(f"{where}: {p}" for p in problems)

    def cell_seconds(self, cell: Cell) -> float:
        """The cell's fastest round.

        Every round repeats the same deterministic work, so rounds differ
        only by interference from other processes on the host, which
        only ever adds time.
        """
        return min(self.times[cell])

    def kinst_per_s(self) -> float:
        """Simulated kilo-instructions per host second over one round."""
        work = sum(cell.total_instructions for cell in self.cells)
        return work / 1000 / sum(map(self.cell_seconds, self.cells))

    def simulated_kinst(self) -> float:
        return self.rounds * sum(c.total_instructions
                                 for c in self.cells) / 1000


def measure(cells: List[Cell], seed: int, seconds: float,
            probes: SetupProbes,
            spans: Optional[Spans] = None) -> Measurement:
    """Run whole rounds of ``cells`` until ``seconds`` have passed, with a
    set-up probe after each round."""
    run = grid.run_cell
    if spans is not None:
        def run(cell: Cell, seed: int):
            return spans.span(CELL, grid.run_cell, cell, seed)
    found = Measurement(cells)
    started = time.perf_counter()
    while found.rounds < 2 or time.perf_counter() - started < seconds:
        for cell in cells:
            # Collect the previous cell's garbage outside the timing.
            gc.collect()
            begun = time.perf_counter()
            result = run(cell, seed)
            found.record(cell, time.perf_counter() - begun, result)
        found.rounds += 1
        probes.run()
    return found


def warm_up(cells: List[Cell], seed: int) -> None:
    """Run each scheme once, untimed, at :data:`WARMUP_INSTRUCTIONS`."""
    done = set()
    for cell in cells:
        if (cell.kind, cell.scheme) not in done:
            done.add((cell.kind, cell.scheme))
            grid.run_cell(Cell(cell.kind, cell.name, cell.scheme,
                               WARMUP_INSTRUCTIONS), seed)


def check_outputs(found: Measurement, workload: grid.Workload,
                  seed: int) -> None:
    """The checks that span cells: scheme agreement and data replays."""
    views = {cell: checks.l1_view(cell, result)
             for cell, result in found.results.items()}
    found.note("schemes", checks.scheme_problems(views))
    for scheme in workload.schemes:
        found.attempted += 1
        found.note("data", checks.data_problems(
            workload.data_check, scheme, seed, DATA_CHECK_INSTRUCTIONS))


def model_metrics(found: Measurement) -> Dict[str, tuple]:
    """Simulated per-layer counts; identical on every run of a seed."""
    threads = [m for cell, result in found.results.items()
               for m in checks.threads(cell, result)]
    kinst = sum(m.instructions for m in threads) / 1000
    llc_lookups = sum(m.llc_hits + m.llc_misses for m in threads)
    ratios = [r.compression_ratio for r in found.results.values()]
    morc = [r.llc_stats for c, r in found.results.items()
            if c.scheme == "MORC"]
    trials = sum(s.get("trial_compressions", 0) for s in morc)
    commits = sum(s.get("compressions", 0) for s in morc)
    return {
        "core.cpi": (sum(m.cycles for m in threads)
                     / sum(m.instructions for m in threads), "cycles"),
        "l1.misses_per_kinst": (sum(m.l1_misses for m in threads) / kinst,
                                "1/kinst"),
        "llc.hit_rate": (sum(m.llc_hits for m in threads) / llc_lookups,
                         "ratio"),
        "llc.compression_ratio": (statistics.fmean(ratios), "x"),
        "mem.reads_per_kinst": (sum(m.memory_reads for m in threads) / kinst,
                                "1/kinst"),
        "mem.writes_per_kinst": (sum(m.memory_writes for m in threads)
                                 / kinst, "1/kinst"),
        "morc_trial.commits_per_trial": (commits / trials if trials else 0.0,
                                         "ratio"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=grid.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _drop_repro_knobs()
    grid.load_repro()
    workload = grid.WORKLOADS[args.workload]
    cells = grid.cells_for(workload)
    probes = SetupProbes(workload.name, args.seed)
    warm_up(cells, args.seed)

    metrics: Dict[str, tuple] = {}
    if args.trace:
        with Spans() as spans:
            found = measure(cells, args.seed, args.seconds, probes, spans)
        setup = probes.medians()
        kinst = found.simulated_kinst()
        for layer in ALL_LAYERS:
            metrics[f"{layer}.self_us_per_kinst"] = (
                spans.self_s[layer] * 1e6 / kinst, "us/kinst")
            metrics[f"{layer}.calls_per_kinst"] = (
                spans.calls[layer] / kinst, "1/kinst")
        metrics.update(model_metrics(found))
        metrics["traced.kinst_per_s"] = (found.kinst_per_s(), "kinst/s")
        metrics["setup.import_ms"] = (setup["import_s"] * 1e3, "ms")
        metrics["setup.build_ms"] = (setup["build_s"] * 1e3, "ms")
        print(spans.table(), file=sys.stderr)
    else:
        found = measure(cells, args.seed, args.seconds, probes)
        setup = probes.medians()
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["kinst_per_s"] = (found.kinst_per_s(), "kinst/s")
        metrics["peak_rss_mb"] = (peak_kb / 1024, "MB")
        metrics["setup_s"] = (setup["setup_s"], "s")
    check_outputs(found, workload, args.seed)

    for cell in cells:
        print(f"{cell.label:<22} {cell.total_instructions:>8} instr  "
              f"best {found.cell_seconds(cell):.3f} s of "
              f"{len(found.times[cell])} rounds", file=sys.stderr)
    for problem in found.problems:
        print(f"perfbench: FAILED {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not found.problems,
        "attempted": found.attempted,
        "failed": found.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
