#!/usr/bin/env python3
"""Exploring MORC's design space with the public API.

Reproduces the paper's §5.4 sensitivity methodology interactively:
log size, number of active logs, tag/data co-location (MORCMerged), and
the inclusive-vs-non-inclusive write policy, all on one workload.

Usage::

    python examples/design_space.py [benchmark]
"""

import sys

from repro import SystemConfig, run_single_program


def show(label: str, **kwargs) -> None:
    result = run_single_program(**kwargs)
    print(f"  {label:34s} ratio={result.compression_ratio:5.2f}  "
          f"GB/1e9={result.bandwidth_gb:6.2f}")


def main() -> None:
    benchmark = sys.argv[1] if len(sys.argv) > 1 else "gcc"
    # Limit studies need capacity to bind: long enough that logs recycle.
    n = 300_000
    print(f"benchmark={benchmark}\n")

    print("log size (8 active logs, unlimited metadata):")
    for log_size in (64, 256, 512, 2048):
        config = SystemConfig().with_morc(log_size_bytes=log_size,
                                          unlimited_metadata=True)
        show(f"log={log_size}B", benchmark=benchmark, scheme="MORC",
             config=config, n_instructions=n)

    print("\nactive logs (512B logs, unlimited metadata):")
    for count in (1, 4, 8, 32):
        config = SystemConfig().with_morc(n_active_logs=count,
                                          unlimited_metadata=True)
        show(f"active={count}", benchmark=benchmark, scheme="MORC",
             config=config, n_instructions=n)

    print("\ntag placement (evaluated configuration):")
    show("separate 2x tag store (MORC)", benchmark=benchmark,
         scheme="MORC", n_instructions=n)
    show("co-located tags (MORCMerged)", benchmark=benchmark,
         scheme="MORCMerged", n_instructions=n)

    print("\nwrite policy (compression disabled, Figure 12):")
    for inclusive in (True, False):
        result = run_single_program(benchmark, "MORC-Raw", n_instructions=n,
                                    inclusive_writes=inclusive)
        label = "inclusive" if inclusive else "non-inclusive"
        print(f"  {label:34s} invalid lines="
              f"{result.invalid_fraction * 100:5.1f}%")


if __name__ == "__main__":
    main()
