"""Codec registry and side-by-side comparison harness.

One place that knows every compressor in the package, for ablations,
the CLI, and quick what-compresses-this-best studies::

    from repro.compression.registry import compare_codecs
    table = compare_codecs(lines)   # codec -> mean bits/line

Intra-line codecs are measured per line; stream codecs (LBE, LZ) are
measured over the sequence with one fresh stream state, which is how a
single MORC log would see it.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List

from repro.common.words import check_line
from repro.compression.bdi import BdiCompressor
from repro.compression.cpack import CPackCompressor
from repro.compression.fpc import FpcCompressor
from repro.compression.lbe import LbeCompressor, LbeDictionary
from repro.compression.lz import LzHistory, LzStreamCompressor
from repro.compression.sc2dict import Sc2Dictionary

INTRA_LINE_CODECS: Dict[str, Callable] = {
    "cpack": CPackCompressor,
    "fpc": FpcCompressor,
    "bdi": BdiCompressor,
}

STREAM_CODECS = ("lbe", "lz")

ALL_CODECS = tuple(INTRA_LINE_CODECS) + STREAM_CODECS + ("sc2",)


def make_codec(name: str):
    """Instantiate an intra-line codec by name."""
    try:
        return INTRA_LINE_CODECS[name]()
    except KeyError:
        raise KeyError(f"unknown intra-line codec {name!r}; "
                       f"choose from {sorted(INTRA_LINE_CODECS)}")


def measure_stream(name: str, lines: List[bytes]) -> int:
    """Total encoded bits of ``lines`` through one stream-codec state."""
    if name == "lbe":
        codec = LbeCompressor()
        dictionary = LbeDictionary()
        return sum(codec.compress(line, dictionary).size_bits
                   for line in lines)
    if name == "lz":
        codec = LzStreamCompressor()
        history = LzHistory()
        return sum(codec.compress(line, history).size_bits
                   for line in lines)
    raise KeyError(f"unknown stream codec {name!r}")


def compare_codecs(lines: Iterable[bytes],
                   codecs: Iterable[str] = ALL_CODECS,
                   ) -> Dict[str, float]:
    """Mean encoded bits per line for each codec over ``lines``.

    ``sc2`` is trained on the same lines before measuring (its usual
    sampled-dictionary deployment).
    """
    lines = [check_line(line) for line in lines]
    if not lines:
        return {name: 0.0 for name in codecs}
    results: Dict[str, float] = {}
    for name in codecs:
        if name in INTRA_LINE_CODECS:
            codec = make_codec(name)
            total = sum(codec.compress(line).size_bits for line in lines)
        elif name in STREAM_CODECS:
            total = measure_stream(name, lines)
        elif name == "sc2":
            dictionary = Sc2Dictionary(sample_lines=len(lines))
            for line in lines:
                dictionary.observe(line)
            total = sum(dictionary.compress(line).size_bits
                        for line in lines)
        else:
            raise KeyError(f"unknown codec {name!r}")
        results[name] = total / len(lines)
    return results
