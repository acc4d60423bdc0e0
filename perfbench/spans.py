"""Layer spans for the traced run, recorded from outside the program.

:class:`Spans` wraps the methods at each layer boundary of the simulator
for the duration of a ``with`` block and restores them afterwards, so the
program itself carries no instrumentation.  A span's self time is its
duration minus the time of the spans it caused; spans are aggregated per
layer as they close (a run makes millions of them), keeping for each
layer its self time and call count, and for each (caller, layer) pair
the number of calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict
from typing import Dict, List, Tuple

#: layer -> the methods whose calls are that layer's spans, as
#: "module:Class.method".  Order is the order the report lists them in.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "trace": ("repro.workloads.trace:SyntheticTrace.__iter__",),
    "multicore": ("repro.sim.multicore:MultiCoreSystem.run",),
    "core": ("repro.sim.core:CoreSimulator.run",
             "repro.sim.core:CoreSimulator.step"),
    "l1": ("repro.cache.l1:L1Cache.lookup", "repro.cache.l1:L1Cache.fill"),
    "llc": ("repro.cache.set_assoc:SetAssociativeCache.read",
            "repro.cache.set_assoc:SetAssociativeCache.fill",
            "repro.cache.set_assoc:SetAssociativeCache.writeback",
            "repro.cache.set_assoc:AdaptiveCache.read",
            "repro.morc.cache:MorcCache.read",
            "repro.morc.cache:MorcCache.fill",
            "repro.morc.cache:MorcCache.writeback"),
    "morc_trial": ("repro.morc.cache:MorcCache._trial_all",),
    "morc_commit": ("repro.morc.cache:MorcCache._commit_append",),
    "data_codec": ("repro.compression.lbe:LbeCompressor.measure",
                   "repro.compression.lbe:LbeCompressor.compress",
                   "repro.compression.cpack:CPackCompressor.compress",
                   "repro.compression.sc2dict:Sc2Dictionary.observe",
                   "repro.compression.sc2dict:Sc2Dictionary.compress"),
    "tag_codec": ("repro.compression.tag_compression:TagCompressor.measure",
                  "repro.compression.tag_compression:TagCompressor.append"),
    "mem": ("repro.mem.controller:MemoryChannel.read",
            "repro.mem.controller:MemoryChannel.write"),
}

#: the span the benchmark opens around each cell; its self time is the
#: cell's model construction and result packaging
CELL = "cell"
ALL_LAYERS = (CELL,) + tuple(LAYERS)


class Spans:
    """Per-layer self time and calls over the lifetime of a ``with``."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.callers: Counter = Counter()
        self.missing: List[str] = []
        # one [layer, child seconds] frame per open span
        self._stack: list = []
        self._patched: list = []

    # -- span bookkeeping -----------------------------------------------------

    def _open(self, layer: str) -> list:
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list, elapsed: float) -> None:
        stack = self._stack
        stack.pop()
        layer = frame[0]
        self.self_s[layer] += elapsed - frame[1]
        self.calls[layer] += 1
        if stack:
            stack[-1][1] += elapsed
            self.callers[stack[-1][0], layer] += 1
        else:
            self.callers[None, layer] += 1

    def span(self, layer: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span of ``layer``."""
        clock = time.perf_counter
        frame = self._open(layer)
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(frame, clock() - start)

    def _wrap(self, layer: str, fn):
        clock = time.perf_counter
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = open_(layer)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(frame, clock() - start)
        return traced

    def _wrap_generator(self, layer: str, fn):
        """Time each ``next`` of a generator, not the consumer's work."""
        clock = time.perf_counter
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                frame = open_(layer)
                start = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    close(frame, clock() - start)
                yield item
        return traced

    # -- installing the hooks -------------------------------------------------

    def __enter__(self) -> "Spans":
        for layer, targets in LAYERS.items():
            for target in targets:
                module_name, _, qualname = target.partition(":")
                class_name, _, method = qualname.partition(".")
                owner = getattr(importlib.import_module(module_name),
                                class_name, None)
                original = (None if owner is None
                            else owner.__dict__.get(method))
                if original is None:
                    self.missing.append(target)
                    continue
                wrap = (self._wrap_generator if method == "__iter__"
                        else self._wrap)
                setattr(owner, method, wrap(layer, original))
                self._patched.append((owner, method, original))
        if self.missing:
            print(f"perfbench: no such layer hook: {', '.join(self.missing)}",
                  file=sys.stderr)
        return self

    def __exit__(self, *exc) -> None:
        for owner, method, original in reversed(self._patched):
            setattr(owner, method, original)
        self._patched.clear()

    # -- reporting ------------------------------------------------------------

    def table(self) -> str:
        """Human-readable per-layer breakdown, largest self time first."""
        total = sum(self.self_s.values()) or 1.0
        lines = [f"{'layer':<12} {'self s':>9} {'share':>7} {'calls':>10}"
                 "  called from"]
        for layer in sorted(ALL_LAYERS, key=lambda l: -self.self_s[l]):
            callers = ", ".join(
                f"{caller or 'top'} {n}" for (caller, callee), n
                in self.callers.most_common() if callee == layer)
            lines.append(f"{layer:<12} {self.self_s[layer]:9.3f} "
                         f"{100 * self.self_s[layer] / total:6.1f}% "
                         f"{self.calls[layer]:10d}  {callers}")
        return "\n".join(lines)
