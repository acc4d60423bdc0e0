"""Multi-log, content-aware placement (paper §3.2.3).

With several active logs, MORC trial-compresses the incoming line into
every one it fits in and commits only the most fruitful.  Always taking the best log
can starve the others of diverse content, so the paper adds a fudge
factor: when the best and worst candidate sizes are within (by default) 5%
of each other, the line is seeded to the *least-used* log instead,
spreading distinct data across logs.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional

from repro.morc.log import Log


class PlacementCandidate(NamedTuple):
    """An active log a line fits in, with its trial-compression outcome."""

    log: Log
    data_bits: int
    tag_bits: int

    @property
    def total_bits(self) -> int:
        return self.data_bits + self.tag_bits


def choose_log(candidates: List[PlacementCandidate],
               fudge_factor: float = 0.05) -> Optional[PlacementCandidate]:
    """Pick the log to append into.

    Every candidate is a log the line fits in
    (:meth:`repro.morc.cache.MorcCache._trial_all` leaves out the rest).
    Returns None when there is none (the caller must retire a log and
    retry).  Scoring uses the compressed *data* size (the
    content-commonality signal); the tag delta is an addressing artefact
    — letting it into the score makes the warmest tag stream attract
    every line and defeats segregation.  When all candidates compress
    within ``fudge_factor`` of each other, the least-used (most free
    space) log wins; otherwise the smallest encoding wins.  Ties go to
    the earliest candidate.  One pass finds the smallest, the largest
    and the least-used candidate.
    """
    if not candidates:
        return None
    best = roomiest = candidates[0]
    low = high = best.data_bits
    most_free = best.log.free_data_bits
    for candidate in candidates:
        bits = candidate.data_bits
        if bits < low:
            best, low = candidate, bits
        elif bits > high:
            high = bits
        free = candidate.log.free_data_bits
        if free > most_free:
            roomiest, most_free = candidate, free
    if high == 0:
        return best
    if (high - low) / high <= fudge_factor:
        return roomiest
    return best
