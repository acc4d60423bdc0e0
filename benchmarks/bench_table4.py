"""Regenerates Table 4: per-scheme tag/metadata/engine overheads."""

from benchmarks.common import emit, run_once
from repro.experiments import table4


def test_table4(benchmark, capsys):
    overheads = run_once(benchmark, table4.run)
    emit(capsys, table4.render(overheads))
    by_name = {row.name: row.overheads for row in overheads}
    # The paper's headline: MORCMerged beats every prior scheme but
    # Decoupled on total overhead.
    assert by_name["MORCMerged"].total_pct < by_name["SC2"].total_pct
    assert by_name["MORCMerged"].total_pct < by_name["Adaptive"].total_pct
