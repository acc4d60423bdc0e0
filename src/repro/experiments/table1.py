"""Table 1: energy of on-chip and off-chip operations on 64b of data.

The paper's motivating energy table.  The values are literature constants
(cited per row in the paper); the experiment reproduces the table and the
headline ratio — off-chip DRAM access is three-to-four orders of
magnitude costlier than on-chip operations — that motivates spending
compute on compression.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.experiments.report import format_table


@dataclass(frozen=True)
class Operation:
    """One Table 1 row."""

    description: str
    energy_j: float

    def scale_versus(self, baseline_j: float) -> float:
        return self.energy_j / baseline_j


TABLE1_OPERATIONS: List[Operation] = [
    Operation("64b comparison (65nm)", 2e-12),
    Operation("64b access 128KB SRAM (32nm)", 4e-12),
    Operation("64b floating point op (45nm)", 45e-12),
    Operation("64b transfer across 15mm on-chip", 375e-12),
    Operation("64b transfer across main-board", 2.5e-9),
    Operation("64b access to DDR3", 9.35e-9),
]


def run() -> List[Operation]:
    """Return the table rows (kept as a run() for harness uniformity)."""
    return TABLE1_OPERATIONS


def render(operations: List[Operation] = None) -> str:
    """Render Table 1 with the paper's 'scale' column."""
    operations = operations or TABLE1_OPERATIONS
    base = operations[0].energy_j
    rows = []
    for op in operations:
        if op.energy_j < 1e-9:
            energy = f"{op.energy_j * 1e12:.0f}pJ"
        else:
            energy = f"{op.energy_j * 1e9:.2f}nJ"
        rows.append([op.description, energy,
                     f"{op.scale_versus(base):g}x"])
    return format_table(["Operation", "Energy", "Scale"], rows,
                        title="Table 1: energy of 64b operations")


def offchip_onchip_ratio(operations: List[Operation] = None) -> float:
    """DDR3 access vs SRAM access — the ~2000x gap the paper leans on."""
    operations = operations or TABLE1_OPERATIONS
    sram = next(o for o in operations if "SRAM" in o.description)
    ddr = next(o for o in operations if "DDR3" in o.description)
    return ddr.energy_j / sram.energy_j
