"""Trace records and the synthetic trace generator.

A trace is a finite iterable of :class:`TraceRecord`.  Records carry the
full 64-byte line contents so the cache hierarchy compresses real values:
for writes, ``data`` is the post-write contents; for reads it is the
line's current contents (tracked by per-line write versions, so replays
are consistent).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional

from repro.common.words import LINE_SIZE
from repro.workloads.datamodel import (
    AccessProfile,
    AddressModel,
    DataProfile,
    LineDataModel,
)


@dataclass(frozen=True)
class TraceRecord:
    """One memory access.

    ``gap`` is the number of non-memory instructions executed since the
    previous access (CPI=1 each under Table 5's core model).
    """

    address: int
    is_write: bool
    gap: int
    data: bytes

    @property
    def line_address(self) -> int:
        return self.address // LINE_SIZE


class SyntheticTrace:
    """A reproducible single-program memory trace.

    Iterating yields :class:`TraceRecord` until approximately
    ``n_instructions`` (memory accesses + gaps) have been produced.  The
    generator is restartable: each ``iter()`` replays the same stream.
    """

    def __init__(self, name: str, data_profile: DataProfile,
                 access_profile: AccessProfile, n_instructions: int,
                 seed: int = 0, base_line: int = 0,
                 data_seed: Optional[int] = None) -> None:
        if n_instructions <= 0:
            raise ValueError("trace needs a positive instruction budget")
        self.name = name
        self.data_profile = data_profile
        self.access_profile = access_profile
        self.n_instructions = n_instructions
        self.seed = seed
        self.base_line = base_line
        # Two copies of the same program share data values (same binary,
        # same input) even when their access streams drift in phase; the
        # data seed is therefore separable from the access seed.
        self.data_seed = seed if data_seed is None else data_seed

    def __iter__(self) -> Iterator[TraceRecord]:
        data_model = LineDataModel(self.data_profile, seed=self.data_seed)
        address_model = AddressModel(self.access_profile, seed=self.seed,
                                     base_line=self.base_line)
        versions: Dict[int, int] = {}
        line_phase: Dict[int, int] = {}
        phase_span = self.data_profile.phase_instructions
        produced = 0
        while produced < self.n_instructions:
            line, is_write, gap = address_model.next_access()
            current_phase = (produced // phase_span) if phase_span else 0
            if is_write:
                versions[line] = versions.get(line, 0) + 1
                # A write binds the line's content to the current phase's
                # value pools; unwritten lines keep their birth phase.
                line_phase[line] = current_phase
            elif line not in line_phase:
                line_phase[line] = current_phase
            data = data_model.line_data(line, versions.get(line, 0),
                                        phase=line_phase[line])
            produced += 1 + gap
            yield TraceRecord(address=line * LINE_SIZE, is_write=is_write,
                              gap=gap, data=data)
