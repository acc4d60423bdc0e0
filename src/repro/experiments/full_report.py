"""One-shot evaluation report: run every experiment, emit markdown.

``python -m repro report -o report.md`` regenerates the complete
evaluation in one pass — the programmatic source for EXPERIMENTS.md's
measured values.  Budgets follow the same defaults as the benches;
``-n`` scales them.
"""

from __future__ import annotations

import time
from typing import List, Optional, Sequence

from repro.experiments import (
    ablations,
    extensions,
    figure2,
    figure6,
    figure7,
    figure8,
    figure9,
    figure10,
    figure11,
    figure12,
    figure13,
    figure14,
    figure15,
    table1,
    table4,
)
from repro.experiments.report import bar_chart
from repro.experiments.runner import amean

REPORT_BENCHMARKS = ("astar", "gcc", "h264ref", "hmmer", "mcf",
                     "omnetpp", "bzip2", "cactusADM", "povray", "soplex")


def _section(title: str, body: str) -> str:
    return f"## {title}\n\n```\n{body}\n```\n"


def generate(benchmarks: Optional[Sequence[str]] = None,
             n_instructions: Optional[int] = None,
             include_slow: bool = True) -> str:
    """Run the full evaluation and return a markdown report."""
    benchmarks = list(benchmarks or REPORT_BENCHMARKS)
    sections: List[str] = ["# MORC reproduction — full evaluation report",
                           "", f"workloads: {', '.join(benchmarks)}", ""]
    started = time.time()

    sections.append(_section("Table 1", table1.render(table1.run())))
    sections.append(_section("Table 4", table4.render(table4.run())))

    fig2 = figure2.run(benchmarks=benchmarks,
                       n_instructions=n_instructions)
    sections.append(_section("Figure 2", figure2.render(fig2)))

    fig6 = figure6.run(benchmarks=benchmarks,
                       n_instructions=n_instructions)
    sections.append(_section("Figure 6", figure6.render(fig6)))
    ratios = fig6.ratio_series()
    sections.append(_section(
        "Figure 6a summary",
        bar_chart("mean compression ratio", list(ratios),
                  [amean(values) for values in ratios.values()],
                  unit="x")))

    fig7 = figure7.run(benchmarks=benchmarks,
                       n_instructions=n_instructions)
    sections.append(_section("Figure 7", figure7.render(fig7)))

    if include_slow:
        fig8 = figure8.run()
        sections.append(_section("Figure 8", figure8.render(fig8)))

    fig9 = figure9.run(benchmarks=benchmarks,
                       n_instructions=n_instructions)
    sections.append(_section("Figure 9", figure9.render(fig9)))

    if include_slow:
        fig10 = figure10.run(n_instructions=n_instructions)
        sections.append(_section("Figure 10", figure10.render(fig10)))
        fig11 = figure11.run(n_instructions=n_instructions)
        sections.append(_section("Figure 11", figure11.render(fig11)))

    fig12 = figure12.run(benchmarks=benchmarks,
                         n_instructions=n_instructions)
    sections.append(_section("Figure 12", figure12.render(fig12)))

    if include_slow:
        fig13 = figure13.run(benchmarks=("gcc", "mcf"),
                             n_instructions=n_instructions)
        sections.append(_section("Figure 13", figure13.render(fig13)))

    fig14 = figure14.run(benchmarks=benchmarks,
                         n_instructions=n_instructions)
    sections.append(_section("Figure 14", figure14.render(fig14)))

    fig15 = figure15.run(benchmarks=benchmarks,
                         n_instructions=n_instructions)
    sections.append(_section("Figure 15", figure15.render(fig15)))

    if include_slow:
        abl = ablations.run(n_instructions=n_instructions)
        sections.append(_section("Ablations", ablations.render(abl)))
        ext = extensions.run(n_instructions=n_instructions)
        sections.append(_section("Extensions", extensions.render(ext)))

    elapsed = time.time() - started
    sections.append(f"_generated in {elapsed:.0f}s_")
    return "\n".join(sections)
