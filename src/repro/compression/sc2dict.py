"""SC2's sampled, system-wide compression dictionary.

SC2 (the paper's strongest baseline) keeps one shared statistical
dictionary of the most frequent 32-bit values and Huffman-codes every
cache line against it.  The dictionary is built in *software* from value
samples (the paper contrasts this with MORC needing none): the cache runs
uncompressed during a sampling phase, then a canonical Huffman code over
the top-K values (plus an escape symbol) is installed.  Because the
dictionary is fixed-size and system-wide, multi-programmed mixes dilute it
— the effect the paper highlights in §5.2.

The 18KB storage figure from the paper's Table 4 corresponds to roughly
2K tracked values plus decode tables; ``max_entries`` defaults to 2048.

The cache model needs only encoded sizes.  Every training (retrains
included) turns the new code into a word-to-bits table plus one escape
width (escape codeword and 32-bit payload), so sizing a line is one
table lookup per word.  :class:`~repro.compression.huffman.HuffmanStreamCodec`
is the bitstream those sizes stand for.
"""

from __future__ import annotations

from collections import Counter
from itertools import repeat
from typing import Dict, Optional

from repro.common.stats import StatGroup
from repro.common.words import check_line, words32
from repro.compression.base import CompressedSize
from repro.compression.huffman import ESCAPE, HuffmanCode

DEFAULT_MAX_ENTRIES = 2048
DEFAULT_SAMPLE_LINES = 2048
ESCAPE_PAYLOAD_BITS = 32


class Sc2Dictionary:
    """Sampling + Huffman coding state shared by the whole LLC.

    Usage: feed every fill through :meth:`observe`; once enough samples
    accumulate the code is (re)built.  :meth:`compress` returns the exact
    encoded size of a line under the current code, or an uncompressed size
    while still sampling.
    """

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES,
                 sample_lines: int = DEFAULT_SAMPLE_LINES,
                 retrain_interval: Optional[int] = None) -> None:
        self.max_entries = max_entries
        self.sample_lines = sample_lines
        self.retrain_interval = retrain_interval
        self.stats = StatGroup("sc2dict")
        self._counts: Counter = Counter()
        self._lines_seen = 0
        self._code: Optional[HuffmanCode] = None
        self._lines_since_training = 0
        #: the trained code as word -> bits, and the bits of any other word
        self._word_bits: Dict[int, int] = {}
        self._escape_bits = ESCAPE_PAYLOAD_BITS

    def observe(self, line: bytes) -> None:
        """Account one filled line's values toward the statistics."""
        line = check_line(line)
        self._counts.update(words32(line))
        self._lines_seen += 1
        self._lines_since_training += 1
        if self._code is None:
            if self._lines_seen >= self.sample_lines:
                self._train()
        elif (self.retrain_interval is not None
              and self._lines_since_training >= self.retrain_interval):
            self._train()

    def _train(self) -> None:
        frequencies: Dict[object, int] = dict(
            self._counts.most_common(self.max_entries))
        # The escape symbol's frequency estimate is everything we did not
        # keep; ensure it exists so unseen values stay encodable.
        dropped = sum(self._counts.values()) - sum(frequencies.values())
        frequencies[ESCAPE] = max(1, dropped)
        code = HuffmanCode.from_frequencies(frequencies)
        self._code = code
        self._word_bits = {symbol: code.length(symbol)
                           for symbol in code.symbols()
                           if symbol is not ESCAPE}
        self._escape_bits = code.length(ESCAPE) + ESCAPE_PAYLOAD_BITS
        self._lines_since_training = 0
        self.stats.add("trainings")
        self.stats.set("dictionary_entries", len(frequencies) - 1)

    def compress(self, line: bytes) -> CompressedSize:
        """Exact encoded size of ``line`` under the current dictionary."""
        line = check_line(line)
        if self._code is None:
            self.stats.add("uncompressed_lines")
            return CompressedSize(len(line) * 8)
        bits = sum(map(self._word_bits.get, words32(line),
                       repeat(self._escape_bits)))
        self.stats.add("compressed_lines")
        return CompressedSize(bits)
