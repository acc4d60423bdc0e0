"""Performance-trajectory harness: kernel and end-to-end speedups.

Times the live compression kernels against their test oracles
(``repro.conformance.oracles``) and one end-to-end figure run in two
configurations — serial versus the process pool — plus an observability
leg (``REPRO_OBS`` off vs on) and
a robustness leg (``REPRO_FAULT_INJECT`` crashing 10% of cells, then a
checkpoint resume that must match a fault-free run bit-for-bit), then
writes the measurements to ``BENCH_perf.json``.

Every optimisation is bit-exact (enforced by
``tests/test_perf_equivalence.py``), so these numbers are pure speed:

    python benchmarks/bench_perf.py --quick     # CI-friendly, <60s
    python benchmarks/bench_perf.py             # full trajectory

The end-to-end legs run in subprocesses so ``REPRO_JOBS`` and the other
knobs are set before any module import; the parallel leg uses every
core, so its speedup is the process-pool fan-out on multi-core hosts.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
SRC = REPO_ROOT / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from repro.common.bitio import BitWriter                   # noqa: E402
from repro.compression.cpack import CPackCompressor        # noqa: E402
from repro.compression.lbe import LbeCompressor, LbeDictionary  # noqa: E402
from repro.conformance.corpus import mixed_stream        # noqa: E402
from repro.conformance.oracles import (                     # noqa: E402
    ReferenceBitWriter,
    reference_cpack_bits,
    reference_lbe_measure,
)

#: active logs trialled per fill in the MORC cache (morc/cache.py)
TRIAL_LOGS = 8


def _timeit(fn, repeats: int = 3) -> float:
    """Best-of-N wall clock of ``fn()``."""
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _trial_dictionaries(lines) -> list:
    """Dictionaries shaped like the cache's active logs mid-run: the
    lines are striped across them so each holds a partial view."""
    compressor = LbeCompressor()
    dictionaries = [LbeDictionary() for _ in range(TRIAL_LOGS)]
    for index, line in enumerate(lines):
        compressor.compress(line, dictionaries[index % TRIAL_LOGS],
                            commit=True)
    return dictionaries


def bench_lbe_measure(lines) -> dict:
    """The dominant hot path: trial placement measures every line
    against every active log's dictionary (8 measures per fill)."""
    dictionaries = _trial_dictionaries(lines)
    compressor = LbeCompressor()

    def reference() -> None:
        for line in lines:
            for dictionary in dictionaries:
                reference_lbe_measure(line, dictionary)

    def fast() -> None:
        for line in lines:
            for dictionary in dictionaries:
                compressor.measure(line, dictionary)

    reference_s = _timeit(reference)
    fast()  # warm the per-dictionary memos once, as a live run would
    fast_s = _timeit(fast)
    return {"reference_s": reference_s, "fast_s": fast_s,
            "speedup": reference_s / fast_s if fast_s else float("inf")}


def bench_line_codec(lines, compressor, reference_bits) -> dict:
    def reference() -> None:
        for line in lines:
            reference_bits(line)

    def fast() -> None:
        for line in lines:
            compressor.compress(line)

    reference_s = _timeit(reference)
    fast()
    fast_s = _timeit(fast)
    return {"reference_s": reference_s, "fast_s": fast_s,
            "speedup": reference_s / fast_s if fast_s else float("inf")}


def bench_bitio(n_fields: int) -> dict:
    """Many small writes — the shape every codec produces."""

    def run_writer(writer_cls) -> None:
        writer = writer_cls()
        for index in range(n_fields):
            writer.write(index & 0x1F, 7)
        writer.to_bytes()

    reference_s = _timeit(lambda: run_writer(ReferenceBitWriter))
    fast_s = _timeit(lambda: run_writer(BitWriter))
    return {"reference_s": reference_s, "fast_s": fast_s,
            "speedup": reference_s / fast_s if fast_s else float("inf")}


_END_TO_END_SNIPPET = """\
import json, sys, time
sys.path.insert(0, {src!r})
from repro.experiments import figure6, parallel
started = time.perf_counter()
result = figure6.run(benchmarks={benchmarks!r},
                     n_instructions={n_instructions},
                     schemes={schemes!r})
elapsed = time.perf_counter() - started
ratios = {{scheme: [round(r.compression_ratio, 6) for r in runs]
          for scheme, runs in result.runs.items()}}
print(json.dumps({{"elapsed_s": elapsed, "ratios": ratios,
                  "cells": len(parallel.last_timings())}}))
"""


def _end_to_end_leg(benchmarks, n_instructions, schemes, jobs: int,
                    obs_trace: str = "") -> dict:
    env = dict(os.environ)
    env["REPRO_JOBS"] = str(jobs)
    if obs_trace:
        env["REPRO_OBS"] = "1"
        env["REPRO_OBS_TRACE"] = obs_trace
    else:
        env["REPRO_OBS"] = "0"
    env.pop("REPRO_VERIFY", None)
    snippet = _END_TO_END_SNIPPET.format(
        src=str(SRC), benchmarks=list(benchmarks),
        n_instructions=n_instructions, schemes=tuple(schemes))
    output = subprocess.run(
        [sys.executable, "-c", snippet], env=env, check=True,
        capture_output=True, text=True).stdout
    return json.loads(output.strip().splitlines()[-1])


_ROBUSTNESS_SNIPPET = """\
import json, sys, time
sys.path.insert(0, {src!r})
from repro.common.errors import CellError
from repro.experiments import figure6, parallel
from repro.experiments.parallel import EngineOptions
started = time.perf_counter()
result = figure6.run(benchmarks={benchmarks!r},
                     n_instructions={n_instructions},
                     schemes={schemes!r},
                     engine=EngineOptions(on_error="skip",
                                          checkpoint={checkpoint!r},
                                          resume={resume!r}))
elapsed = time.perf_counter() - started
failed = sum(1 for runs in result.runs.values() for cell in runs
             if isinstance(cell, CellError))
ratios = None
if not failed:
    ratios = {{scheme: [round(r.compression_ratio, 6) for r in runs]
              for scheme, runs in result.runs.items()}}
print(json.dumps({{"elapsed_s": elapsed, "failed": failed,
                  "ratios": ratios, "resume": parallel.last_resume()}}))
"""


def _robustness_leg(benchmarks, n_instructions, schemes, checkpoint,
                    resume: bool, fault: str) -> dict:
    env = dict(os.environ)
    env["REPRO_OBS"] = "0"
    env["REPRO_JOBS"] = str(max(1, os.cpu_count() or 1))
    if fault:
        env["REPRO_FAULT_INJECT"] = fault
    else:
        env.pop("REPRO_FAULT_INJECT", None)
    snippet = _ROBUSTNESS_SNIPPET.format(
        src=str(SRC), benchmarks=list(benchmarks),
        n_instructions=n_instructions, schemes=tuple(schemes),
        checkpoint=checkpoint, resume=resume)
    output = subprocess.run(
        [sys.executable, "-c", snippet], env=env, check=True,
        capture_output=True, text=True).stdout
    return json.loads(output.strip().splitlines()[-1])


def bench_robustness(benchmarks, n_instructions, schemes) -> dict:
    """Crash 10% of the grid, finish, resume, and assert bit-exactness.

    The acceptance scenario for the fault-tolerant engine: with
    ``REPRO_FAULT_INJECT`` crashing every 10th cell a figure-6 grid
    still completes (failed cells reported as ``CellError``), and a
    subsequent ``--resume`` run re-runs only those cells and matches a
    fault-free serial run bit-for-bit.
    """
    import tempfile
    clean = _end_to_end_leg(benchmarks, n_instructions, schemes, jobs=1)
    handle, ckpt = tempfile.mkstemp(suffix=".ckpt",
                                    prefix="repro_robust_")
    os.close(handle)
    os.unlink(ckpt)  # the engine creates and appends to it
    try:
        faulted = _robustness_leg(benchmarks, n_instructions, schemes,
                                  ckpt, resume=False, fault="crash@10%")
        if faulted["failed"] < 1:
            raise AssertionError("crash@10% injected no failures — the "
                                 "fault hook is not firing")
        resumed = _robustness_leg(benchmarks, n_instructions, schemes,
                                  ckpt, resume=True, fault="")
    finally:
        if os.path.exists(ckpt):
            os.unlink(ckpt)
    if resumed["failed"]:
        raise AssertionError("resume with faults off still failed cells")
    if resumed["ratios"] != clean["ratios"]:
        raise AssertionError("resumed grid diverged from the fault-free "
                             "run: merged results must be bit-exact")
    stats = resumed["resume"] or {}
    if stats.get("executed") != faulted["failed"]:
        raise AssertionError(
            f"resume re-ran {stats.get('executed')} cells but "
            f"{faulted['failed']} failed — it must re-run exactly the "
            f"missing ones")
    return {
        "benchmarks": list(benchmarks),
        "schemes": list(schemes),
        "n_instructions": n_instructions,
        "fault": "crash@10%",
        "failed_cells": faulted["failed"],
        "faulted_s": faulted["elapsed_s"],
        "resume_s": resumed["elapsed_s"],
        "resume_loaded": stats.get("loaded"),
        "resume_executed": stats.get("executed"),
        "bit_exact": True,
    }


def bench_end_to_end(benchmarks, n_instructions, schemes) -> dict:
    """Serial vs the process pool over every core."""
    jobs = max(1, os.cpu_count() or 1)
    before = _end_to_end_leg(benchmarks, n_instructions, schemes, jobs=1)
    after = _end_to_end_leg(benchmarks, n_instructions, schemes, jobs=jobs)
    if before["ratios"] != after["ratios"]:
        raise AssertionError("end-to-end legs diverged: the pool must be "
                             "bit-exact")
    return {
        "benchmarks": list(benchmarks),
        "schemes": list(schemes),
        "n_instructions": n_instructions,
        "cells": after["cells"],
        "jobs": jobs,
        "serial_s": before["elapsed_s"],
        "parallel_s": after["elapsed_s"],
        "speedup": before["elapsed_s"] / after["elapsed_s"],
        "bit_exact": True,
    }


def bench_observability(benchmarks, n_instructions, schemes) -> dict:
    """Tracing-off vs tracing-on cost of the same grid.

    Both legs run serial so the only difference is
    ``REPRO_OBS``; results must stay bit-identical either way (the
    tracer observes, never perturbs), and the off leg's overhead versus
    a default run is what the <5% acceptance bound measures.
    """
    import tempfile
    off = _end_to_end_leg(benchmarks, n_instructions, schemes, jobs=1)
    handle, trace_path = tempfile.mkstemp(suffix=".jsonl",
                                          prefix="repro_obs_bench_")
    os.close(handle)
    try:
        on = _end_to_end_leg(benchmarks, n_instructions, schemes,
                             jobs=1, obs_trace=trace_path)
        with open(trace_path, "rb") as stream:
            events = sum(1 for _ in stream)
    finally:
        os.unlink(trace_path)
    if off["ratios"] != on["ratios"]:
        raise AssertionError("tracing changed simulation results: "
                             "the tracer must only observe")
    overhead = on["elapsed_s"] / off["elapsed_s"] - 1.0
    return {
        "benchmarks": list(benchmarks),
        "schemes": list(schemes),
        "n_instructions": n_instructions,
        "obs_off_s": off["elapsed_s"],
        "obs_on_s": on["elapsed_s"],
        "overhead_pct": overhead * 100.0,
        "events": events,
        "bit_exact": True,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="CI-sized corpora and grid (<60s)")
    parser.add_argument("--robustness-only", action="store_true",
                        help="run only the fault-injection/resume leg "
                             "(CI fault-tolerance smoke)")
    parser.add_argument("-o", "--output",
                        default=str(REPO_ROOT / "BENCH_perf.json"),
                        help="where to write the JSON trajectory")
    args = parser.parse_args(argv)

    if args.quick:
        corpus = mixed_stream(200)
        bitio_fields = 50_000
        grid = dict(benchmarks=("gcc", "hmmer"), n_instructions=15_000,
                    schemes=("Uncompressed", "MORC"))
    else:
        corpus = mixed_stream(1_000)
        bitio_fields = 200_000
        # MORC-family schemes: every cell exercises the optimised
        # kernels, so the single-core leg shows the kernel gains and the
        # pool multiplies them on multi-core hosts (12 cells).
        grid = dict(benchmarks=("gcc", "hmmer", "mcf", "soplex"),
                    n_instructions=60_000,
                    schemes=("MORC", "MORCMerged", "MORC-CPack"))

    if args.robustness_only:
        robustness = bench_robustness(**grid)
        print(f"robustness: {robustness['failed_cells']} injected "
              f"failures, resume re-ran "
              f"{robustness['resume_executed']} cells  (bit-exact)")
        output = Path(args.output)
        output.write_text(json.dumps(
            {"mode": "robustness", "host_cpus": os.cpu_count(),
             "robustness": robustness}, indent=2) + "\n")
        print(f"wrote {output}")
        return 0

    print(f"kernel corpora: {len(corpus)} lines"
          f" ({'quick' if args.quick else 'full'} mode)")
    kernels = {}
    kernels["lbe_measure_trial_placement"] = bench_lbe_measure(corpus)
    kernels["cpack_compress"] = bench_line_codec(
        corpus, CPackCompressor(), reference_cpack_bits)
    kernels["bitwriter"] = bench_bitio(bitio_fields)
    for name, numbers in kernels.items():
        print(f"  {name:32s} {numbers['reference_s']:.3f}s -> "
              f"{numbers['fast_s']:.3f}s  ({numbers['speedup']:.2f}x)")

    print(f"end-to-end figure6 grid: {grid['benchmarks']} x "
          f"{grid['schemes']} @ {grid['n_instructions']} instructions")
    end_to_end = bench_end_to_end(**grid)
    print(f"  serial {end_to_end['serial_s']:.2f}s -> "
          f"parallel({end_to_end['jobs']}) "
          f"{end_to_end['parallel_s']:.2f}s  "
          f"({end_to_end['speedup']:.2f}x, bit-exact)")

    observability = bench_observability(**grid)
    print(f"  obs off {observability['obs_off_s']:.2f}s -> "
          f"obs on {observability['obs_on_s']:.2f}s  "
          f"({observability['overhead_pct']:+.1f}%, "
          f"{observability['events']} events, bit-exact)")

    robustness = bench_robustness(**grid)
    print(f"  fault injection: {robustness['failed_cells']} crashed "
          f"cells reported, resume re-ran "
          f"{robustness['resume_executed']}  (bit-exact)")

    payload = {
        "mode": "quick" if args.quick else "full",
        "host_cpus": os.cpu_count(),
        "kernels": kernels,
        "end_to_end": end_to_end,
        "observability": observability,
        "robustness": robustness,
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"wrote {output}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
