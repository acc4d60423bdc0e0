"""Value and address models for the synthetic workloads.

**Data model.**  Cache-line contents are composed hierarchically, matching
the granularities LBE compresses at: a line is two 32-byte chunks; each
chunk is either all-zero, a block drawn from a shared 32B pool, or split
into 16B halves which are in turn pool blocks or split further, down to
4-byte words (zero / narrow 8-bit / narrow 16-bit / pooled / random).
Pool draws are what create *inter-line* duplication: two lines sharing a
pool block compress to one symbol under LBE but remain incompressible to
intra-line schemes.  Pool sizes control how far that sharing reaches.

**Address model.**  Accesses mix sequential runs (spatial locality),
re-references of a recent hot set (temporal locality), and uniform draws
over the working set.  ``mean_gap`` non-memory instructions separate
consecutive accesses, setting memory intensity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.common.words import LINE_SIZE


def _validate_probability(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be a probability, got {value}")


@dataclass(frozen=True)
class DataProfile:
    """Per-benchmark value-structure knobs.

    ``n_families`` partitions the address space into data "types", each
    with its own block pools.  Lines of different families share almost no
    blocks, which is what makes MORC's content-aware multi-log placement
    (paper §3.2.3, Figure 13b) pay off: segregating families into
    different active logs keeps each log's small dictionary hot.
    """

    p_zero_chunk: float = 0.1      # 32B chunk entirely zero
    p_pool256: float = 0.1         # 32B chunk from the shared pool
    p_pool128: float = 0.1         # 16B half from the shared pool
    p_pool64: float = 0.1          # 8B piece from the shared pool
    p_zero_word: float = 0.1       # 4B word zero
    p_narrow8: float = 0.1         # 4B word < 2^8
    p_narrow16: float = 0.1        # 4B word < 2^16
    p_pool32: float = 0.2          # 4B word from the shared pool
    pool256_size: int = 12
    pool128_size: int = 24
    pool64_size: int = 48
    pool32_size: int = 96
    n_families: int = 4
    family_region_lines: int = 16  # lines per contiguous family region
    #: instructions per program phase (0 = stationary values).  Phases
    #: regenerate the block pools: data *written* in a later phase draws
    #: from fresh pools, modelling SPEC's phase behaviour — this is what
    #: ages SC2's software-trained global dictionary (paper §6) while
    #: MORC's short-lived per-log dictionaries adapt for free.
    phase_instructions: int = 0

    def __post_init__(self) -> None:
        for name in ("p_zero_chunk", "p_pool256", "p_pool128", "p_pool64",
                     "p_zero_word", "p_narrow8", "p_narrow16", "p_pool32"):
            _validate_probability(name, getattr(self, name))
        if self.p_zero_chunk + self.p_pool256 > 1.0:
            raise ValueError("chunk-level probabilities exceed 1")
        word_p = (self.p_zero_word + self.p_narrow8 + self.p_narrow16
                  + self.p_pool32)
        if word_p > 1.0:
            raise ValueError("word-level probabilities exceed 1")
        if self.n_families < 1:
            raise ValueError("need at least one data family")
        if self.family_region_lines < 1:
            raise ValueError("family regions must hold at least one line")
        for name in ("pool256_size", "pool128_size", "pool64_size",
                     "pool32_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got "
                                 f"{getattr(self, name)}")
        if self.phase_instructions < 0:
            raise ValueError("phase_instructions cannot be negative, got "
                             f"{self.phase_instructions}")


@dataclass(frozen=True)
class AccessProfile:
    """Per-benchmark address-structure knobs."""

    working_set_lines: int = 4096
    p_sequential: float = 0.5
    mean_run_lines: int = 8
    p_hot: float = 0.3
    hot_set_lines: int = 256
    write_fraction: float = 0.25
    mean_gap: float = 8.0

    def __post_init__(self) -> None:
        if self.working_set_lines < 1:
            raise ValueError("working set must hold at least one line")
        if self.hot_set_lines < 1:
            raise ValueError("hot_set_lines must be at least 1, got "
                             f"{self.hot_set_lines}")
        for name in ("p_sequential", "p_hot", "write_fraction"):
            _validate_probability(name, getattr(self, name))
        if self.mean_gap < 0:
            raise ValueError("mean gap cannot be negative")


class LineDataModel:
    """Deterministic line contents for a benchmark.

    ``line_data(line_address, version)`` is a pure function of the model
    seed, the address, and the line's write-version, so traces replay
    identically and reads observe what the last write produced.
    """

    def __init__(self, profile: DataProfile, seed: int = 0) -> None:
        self.profile = profile
        self.seed = seed
        # pools keyed by (family, phase); phase 0 built eagerly, later
        # phases lazily (they only exist once writes reach them)
        self._pools_by_phase: Dict[Tuple[int, int],
                                   Dict[int, List[bytes]]] = {}
        for family in range(profile.n_families):
            self._pools_by_phase[(family, 0)] = self._build_pools(
                self._pool_rng(family, 0))

    def _pool_rng(self, family: int, phase: int) -> random.Random:
        return random.Random((self.seed << 16) ^ (family << 4)
                             ^ (phase * 0x9E37_79B9) ^ 0x5EED_DA7A)

    def _pools(self, family: int, phase: int) -> Dict[int, List[bytes]]:
        key = (family, phase)
        pools = self._pools_by_phase.get(key)
        if pools is None:
            pools = self._build_pools(self._pool_rng(family, phase))
            self._pools_by_phase[key] = pools
        return pools

    def _build_pools(self, rng: random.Random) -> Dict[int, List[bytes]]:
        """Build one family's block pools, bottom-up.

        Coarse blocks are *composed from* the family's finer blocks (a
        256-bit record shares its field values with other records), so a
        coarse block's first appearance in a log already compresses well
        at the finer granularities — without this, every log would spend
        its capacity re-learning raw literals.
        """
        p = self.profile
        pool32 = [self._pool_word(rng) for _ in range(p.pool32_size)]
        pool64 = [rng.choice(pool32) + rng.choice(pool32)
                  for _ in range(p.pool64_size)]
        pool128 = [rng.choice(pool64) + rng.choice(pool64)
                   for _ in range(p.pool128_size)]
        pool256 = [rng.choice(pool128) + rng.choice(pool128)
                   for _ in range(p.pool256_size)]
        return {4: pool32, 8: pool64, 16: pool128, 32: pool256}

    def _pool_word(self, rng: random.Random) -> bytes:
        """A distinctive family word: narrow or full-width random."""
        p = self.profile
        narrow = p.p_narrow8 + p.p_narrow16
        if narrow and rng.random() < narrow / max(narrow + 0.5, 1e-9):
            return rng.randrange(1, 1 << 16).to_bytes(4, "big")
        return rng.getrandbits(32).to_bytes(4, "big")

    def family_of(self, line_address: int) -> int:
        """The data family a line belongs to (contiguous regions)."""
        region = line_address // self.profile.family_region_lines
        return region % self.profile.n_families

    def _rng_for(self, line_address: int, version: int) -> random.Random:
        key = (self.seed * 0x9E3779B97F4A7C15
               + line_address * 0x100000001B3
               + version * 0x1000193) & 0xFFFFFFFFFFFFFFFF
        return random.Random(key)

    def line_data(self, line_address: int, version: int = 0,
                  phase: int = 0) -> bytes:
        """Generate the 64 bytes of one cache line.

        ``phase`` selects the pool generation the line's values come
        from; callers must bind it at write time (content is a pure
        function of ``(address, version, phase)``).
        """
        rng = self._rng_for(line_address, version + (phase << 20))
        pools = self._pools(self.family_of(line_address), phase)
        chunks = [self._make_chunk(rng, pools)
                  for _ in range(LINE_SIZE // 32)]
        return b"".join(chunks)

    def _make_chunk(self, rng: random.Random, pools: Dict) -> bytes:
        p = self.profile
        roll = rng.random()
        if roll < p.p_zero_chunk:
            return bytes(32)
        if roll < p.p_zero_chunk + p.p_pool256:
            return rng.choice(pools[32])
        return (self._make_half(rng, pools) + self._make_half(rng, pools))

    def _make_half(self, rng: random.Random, pools: Dict) -> bytes:
        p = self.profile
        if rng.random() < p.p_pool128:
            return rng.choice(pools[16])
        return (self._make_piece(rng, pools) + self._make_piece(rng, pools))

    def _make_piece(self, rng: random.Random, pools: Dict) -> bytes:
        p = self.profile
        if rng.random() < p.p_pool64:
            return rng.choice(pools[8])
        return self._make_word(rng, pools) + self._make_word(rng, pools)

    def _make_word(self, rng: random.Random, pools: Dict) -> bytes:
        p = self.profile
        roll = rng.random()
        threshold = p.p_zero_word
        if roll < threshold:
            return bytes(4)
        threshold += p.p_narrow8
        if roll < threshold:
            return rng.randrange(1, 1 << 8).to_bytes(4, "big")
        threshold += p.p_narrow16
        if roll < threshold:
            return rng.randrange(1 << 8, 1 << 16).to_bytes(4, "big")
        threshold += p.p_pool32
        if roll < threshold:
            return rng.choice(pools[4])
        return rng.getrandbits(32).to_bytes(4, "big")


@dataclass
class _RunState:
    """Mutable cursor for the address generator."""

    position: int = 0
    remaining: int = 0


class AddressModel:
    """Generates the line-address stream for one program."""

    def __init__(self, profile: AccessProfile, seed: int = 0,
                 base_line: int = 0) -> None:
        self.profile = profile
        self.base_line = base_line
        self._rng = random.Random((seed << 8) ^ 0xADD2E55)
        self._run = _RunState()
        self._hot: List[int] = []
        self._hot_pos = 0

    def _remember(self, line: int) -> None:
        if len(self._hot) < self.profile.hot_set_lines:
            self._hot.append(line)
        else:
            self._hot[self._hot_pos] = line
            self._hot_pos = (self._hot_pos + 1) % self.profile.hot_set_lines

    def next_access(self) -> Tuple[int, bool, int]:
        """Return ``(line_address, is_write, gap_instructions)``."""
        p = self.profile
        rng = self._rng
        if self._run.remaining > 0:
            self._run.remaining -= 1
            self._run.position = (self._run.position + 1) % p.working_set_lines
            line = self._run.position
        else:
            roll = rng.random()
            if roll < p.p_sequential:
                self._run.position = rng.randrange(p.working_set_lines)
                self._run.remaining = max(
                    0, int(rng.expovariate(1.0 / max(1, p.mean_run_lines))))
                line = self._run.position
            elif roll < p.p_sequential + p.p_hot and self._hot:
                line = rng.choice(self._hot)
            else:
                line = rng.randrange(p.working_set_lines)
        self._remember(line)
        is_write = rng.random() < p.write_fraction
        gap = (int(rng.expovariate(1.0 / p.mean_gap))
               if p.mean_gap > 0 else 0)
        return self.base_line + line, is_write, gap
