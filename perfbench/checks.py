"""Output checks: the simulator must stay correct while it gets faster.

Three kinds of check, none of which knows the expected numbers of a seed
in advance:

- accounting invariants every run must satisfy (each L1 miss is an LLC
  hit or an LLC miss, each LLC miss one memory read, CPI of at least 1,
  an uncompressed LLC never holds more lines than it has frames);
- agreement: every round replays the same cells and must reproduce the
  first round bit for bit, and the private L1 sees the same stream under
  every LLC scheme, so its counts must not depend on the scheme;
- data integrity: a replay that, after every access, compares the line
  the L1 ends up holding with the value the program wrote or read.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from grid import Cell, seed_offset


def threads(cell: Cell, result) -> list:
    return [result.metrics] if cell.kind == "single" else result.per_thread


def fingerprint(cell: Cell, result) -> tuple:
    """Everything a figure reads from a cell, for exact comparison."""
    return (result.compression_ratio,) + tuple(
        (m.instructions, m.cycles, m.l1_accesses, m.l1_misses, m.llc_hits,
         m.llc_misses, m.memory_reads, m.memory_writes)
        for m in threads(cell, result))


def l1_view(cell: Cell, result) -> tuple:
    """The per-thread counts that must not depend on the LLC scheme."""
    return tuple((m.instructions, m.l1_accesses, m.l1_misses)
                 for m in threads(cell, result))


def invariant_problems(cell: Cell, result) -> List[str]:
    problems = []
    ratio = result.compression_ratio
    if not ratio > 0:
        problems.append(f"compression ratio {ratio} is not positive")
    if cell.scheme == "Uncompressed" and ratio > 1.0 + 1e-9:
        problems.append(f"uncompressed LLC reports ratio {ratio}")
    for thread, m in enumerate(threads(cell, result)):
        where = f"thread {thread}"
        # The warm-up boundary and the trace end fall between accesses,
        # so the measured region may miss its budget by an access's gap
        # (hundreds of instructions for a compute-bound program); a
        # warm-up accounting bug misses it by the whole warm-up.
        budget = cell.n_instructions
        if abs(m.instructions - budget) > 0.25 * budget:
            problems.append(f"{where}: measured {m.instructions} instructions"
                            f" of {budget}")
        if m.l1_misses != m.llc_hits + m.llc_misses:
            problems.append(f"{where}: {m.l1_misses} L1 misses but "
                            f"{m.llc_hits} LLC hits + {m.llc_misses} misses")
        if m.memory_reads != m.llc_misses:
            problems.append(f"{where}: {m.memory_reads} memory reads for "
                            f"{m.llc_misses} LLC misses")
        if m.cycles < m.instructions:
            problems.append(f"{where}: {m.cycles} cycles for "
                            f"{m.instructions} instructions")
        if not 0 < m.l1_misses <= m.l1_accesses:
            problems.append(f"{where}: {m.l1_misses} L1 misses of "
                            f"{m.l1_accesses} accesses")
    return problems


def scheme_problems(views: Dict[Cell, tuple]) -> List[str]:
    """L1 counts per program must agree across every LLC scheme."""
    by_name: Dict[str, Tuple[Cell, tuple]] = {}
    problems = []
    for cell, view in views.items():
        first = by_name.setdefault(cell.name, (cell, view))
        if first[1] != view:
            problems.append(f"{cell.label}: L1 counts {view} differ from "
                            f"{first[0].label}'s {first[1]}")
    return problems


def data_problems(program: str, scheme: str, seed: int,
                  n_instructions: int) -> List[str]:
    """Replay ``program`` and check every line the L1 ends up holding.

    After an access the L1 holds the line, and its contents must be the
    value the trace says the program sees: what it just wrote, or for a
    read what it last wrote there.  A read that missed got that value
    from the LLC or from memory, so a wrong value from a compressed LLC
    shows up here.
    """
    from repro.common.config import SystemConfig
    from repro.mem.controller import MemoryChannel
    from repro.sim.core import CoreSimulator
    from repro.sim.system import make_llc
    from repro.workloads.spec import make_trace

    config = SystemConfig()
    core = CoreSimulator(make_llc(scheme, config),
                         MemoryChannel(config.memory), config)
    for step, record in enumerate(make_trace(program, n_instructions,
                                             seed_offset=seed_offset(seed))):
        core.step(record)
        if core.l1.line_data(record.address) != record.data:
            return [f"{program}/{scheme}: access {step} to "
                    f"{record.address:#x} left wrong data in the L1"]
    if core.metrics.llc_hits == 0:
        return [f"{program}/{scheme}: the data replay never hit the LLC"]
    return []
