"""Deterministic soft-error injection for compressed cache payloads.

The injector models bit-flips in the physical arrays that hold
*compressed* data — the interesting case, because one flipped bit can
corrupt every line that decodes through the shared dictionary state
behind it.  Uncompressed copies are assumed ECC-protected and are not
targeted, which is also what makes the ``raw`` fallback policy a real
recovery strategy rather than a coin flip.

Determinism contract: no RNG.  Rate mode uses an error-diffusion
accumulator — every payload adds ``payload_bits * rate``; when the
accumulator crosses 1.0 a flip fires and the accumulator keeps the
remainder — so a run injects ``round(total_bits * rate)`` flips at
reproducible insert positions.  The flipped bit offset is derived from
``sha256(seed:ordinal)``, so changing ``REPRO_SOFT_ERROR_SEED`` moves
the flips without touching how many fire.  ``@N``/``@N:B`` mode poisons
exactly the ``N``-th compressed insert seen by the injector.

Faults are *logical*: the cache records which stored bit of an entry's
payload flipped (``poison_bit``) instead of mutating the bytes, and the
read path treats a poisoned entry as a detected decode failure.  That
keeps injection O(1), makes detection exact (the model stands in for a
checksum/decoder-failure detector), and lets tests assert on the precise
bit reported.
"""

from __future__ import annotations

import hashlib
from typing import Optional

from repro import settings


class SoftErrorInjector:
    """Deterministic per-cache bit-flip source.

    One injector is owned by each cache instance, so the insert ordinal
    stream (and therefore ``@N`` targeting) is per cache, not global.
    """

    __slots__ = ("_rate", "_index", "_bit", "_seed", "_acc", "_ordinal",
                 "soft_errors_injected")

    def __init__(self, rate: float, index: Optional[int],
                 bit: Optional[int], seed: int) -> None:
        self._rate = rate
        self._index = index
        self._bit = bit
        self._seed = seed
        self._acc = 0.0
        self._ordinal = 0
        self.soft_errors_injected = 0

    def flip_for(self, payload_bits: int) -> Optional[int]:
        """Bit offset to poison in this insert's payload, or ``None``.

        Must be called exactly once per compressed insert; the call
        advances the ordinal/accumulator state even when no flip fires.
        """
        ordinal = self._ordinal
        self._ordinal = ordinal + 1
        if payload_bits <= 0:
            return None
        if self._index is not None:
            if ordinal != self._index:
                return None
            bit = self._bit
            if bit is None:
                bit = self._derive_bit(ordinal, payload_bits)
            self.soft_errors_injected += 1
            return bit % payload_bits
        self._acc += payload_bits * self._rate
        if self._acc < 1.0:
            return None
        self._acc -= 1.0
        self.soft_errors_injected += 1
        return self._derive_bit(ordinal, payload_bits)

    def _derive_bit(self, ordinal: int, payload_bits: int) -> int:
        digest = hashlib.sha256(
            f"{self._seed}:{ordinal}".encode()).digest()
        return int.from_bytes(digest[:8], "big") % payload_bits


def make_injector() -> Optional[SoftErrorInjector]:
    """A fresh injector per the current settings, or ``None`` when inert.

    Caches hold the result and guard every hook with
    ``if self._injector is not None`` so a clean run costs one attribute
    load per insert.
    """
    cfg = settings.current()
    rate, index, bit = cfg.soft_errors
    if rate <= 0.0 and index is None:
        return None
    return SoftErrorInjector(rate, index, bit, cfg.soft_error_seed)
