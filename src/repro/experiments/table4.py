"""Table 4: tag/metadata/engine overheads per compression scheme.

Each scheme's overheads come analytically from the architecture
parameters (§3.3) and sit, with the paper's percentages, in its row of
:mod:`repro.sim.schemes`; this module renders them.
"""

from __future__ import annotations

from typing import List

from repro.experiments.report import format_table
from repro.sim.schemes import SCHEMES, Scheme


def run() -> List[Scheme]:
    """The scheme rows with a Table 4 column, in row order."""
    return [row for row in SCHEMES if row.overheads is not None]


def render(schemes: List[Scheme] = None) -> str:
    rows = []
    for scheme in schemes or run():
        o = scheme.overheads
        rows.append([scheme.name, f"{o.tags_pct:.2f}%",
                     f"{o.metadata_pct:.2f}%", f"{o.total_pct:.2f}%",
                     f"{o.paper_pct[2]:.2f}%", f"{o.engine_area_mm2:.2f}mm2",
                     f"{o.dictionary_bytes}B"])
    return format_table(
        ["Scheme", "Tags", "Metadata", "Tags+Meta", "Paper Tags+Meta",
         "Engine", "Dict"],
        rows, title="Table 4: overheads normalised to cache capacity")
