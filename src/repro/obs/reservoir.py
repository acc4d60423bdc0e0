"""Bounded-memory streaming statistics: reservoir sampling + exact moments.

:class:`repro.sim.metrics.RunMetrics` keeps its ``miss_latencies`` and
``miss_gaps`` streams in :class:`MissSeries`, so a long run's memory
stays bounded.

Design constraints (why this is not just ``random.sample``):

- **Exact below capacity.**  While ``count <= capacity`` the reservoir
  stores the full history in arrival order, so every downstream
  computation (throughput sums, CGMT replay) is
  bit-identical to the old list-backed behaviour.  Only past capacity
  does it degrade to a uniform sample — with ``sum``/``count``/``min``/
  ``max`` still exact, streamed.
- **Deterministic.**  Replacement decisions come from an inline
  xorshift64* generator seeded per instance, never from ``random`` —
  parallel experiment cells must not perturb global RNG state, and a
  rerun must produce the same sample.
- **Pair-preserving.**  Two reservoirs built with the same seed and
  capacity, fed the same number of observations, make identical
  keep/replace decisions at every step.  ``miss_gaps`` and
  ``miss_latencies`` are appended in lock-step, so ``zip(gaps, lats)``
  keeps yielding true (gap, latency) pairs for the CGMT replay model
  even after both overflow.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

_MASK64 = (1 << 64) - 1
_DEFAULT_SEED = 0x9E3779B97F4A7C15


class Reservoir:
    """Algorithm-R reservoir with exact streamed count/sum/min/max."""

    __slots__ = ("capacity", "count", "total", "min", "max",
                 "_samples", "_state")

    def __init__(self, capacity: int = 4096,
                 seed: int = _DEFAULT_SEED) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = float("-inf")
        self._samples: List[float] = []
        self._state = (seed or _DEFAULT_SEED) & _MASK64

    def _next_random(self) -> int:
        """xorshift64*: deterministic, allocation-free, good enough."""
        x = self._state
        x ^= (x << 13) & _MASK64
        x ^= x >> 7
        x ^= (x << 17) & _MASK64
        self._state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def observe(self, value: float) -> None:
        """Fold one value into the stream."""
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.capacity:
            self._samples.append(value)
            return
        slot = self._next_random() % self.count
        if slot < self.capacity:
            self._samples[slot] = value

    @property
    def exact(self) -> bool:
        """True while the samples are the complete, ordered history."""
        return self.count <= self.capacity

    @property
    def samples(self) -> List[float]:
        return list(self._samples)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Linear-interpolated quantile of the (sampled) distribution."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        if not self._samples:
            return 0.0
        ordered = sorted(self._samples)
        position = q * (len(ordered) - 1)
        low = int(position)
        high = min(low + 1, len(ordered) - 1)
        fraction = position - low
        return ordered[low] * (1.0 - fraction) + ordered[high] * fraction

    def __len__(self) -> int:
        return self.count

    def __iter__(self):
        return iter(self._samples)

    def __repr__(self) -> str:
        return (f"{type(self).__name__}(count={self.count}, "
                f"mean={self.mean:.3f}, capacity={self.capacity})")


class MissSeries(Reservoir):
    """List-compatible reservoir backing ``RunMetrics`` miss streams.

    Supports the subset of the list protocol the simulator and its tests
    rely on — ``append``/``extend``/``len``/iteration/slicing — while
    bounding memory at ``capacity`` floats.  ``len()`` reports the exact
    number of observations (so ``len(miss_latencies) == l1_misses``
    stays true forever); iteration yields the stored samples.
    """

    #: ~0.5 MB of floats per series; far above any tier-1 run's miss
    #: count, so default behaviour is exact, yet bounded for the
    #: billion-instruction runs the roadmap aims at.
    DEFAULT_CAPACITY = 65536

    __slots__ = ()

    def __init__(self, values: Iterable[float] = (),
                 capacity: int = DEFAULT_CAPACITY,
                 seed: int = _DEFAULT_SEED) -> None:
        super().__init__(capacity=capacity, seed=seed)
        for value in values:
            self.observe(value)

    append = Reservoir.observe

    def extend(self, values: Union["MissSeries", Iterable[float]]) -> None:
        """Fold in another series (or any iterable of values).

        Merging another :class:`MissSeries` keeps ``count``/``total``
        exact even when the other side has already overflowed: the
        unsampled mass is folded in as an aggregate.
        """
        if isinstance(values, Reservoir):
            for value in values._samples:
                self.observe(value)
            hidden = values.count - len(values._samples)
            if hidden > 0:
                self.count += hidden
                self.total += values.total - sum(values._samples)
                if values.min < self.min:
                    self.min = values.min
                if values.max > self.max:
                    self.max = values.max
            return
        for value in values:
            self.observe(value)

    def __getitem__(self, index):
        """Slice/index over the stored samples (list compatibility)."""
        return self._samples[index]

    def __eq__(self, other) -> bool:
        if isinstance(other, Reservoir):
            return (self.count == other.count
                    and self._samples == other._samples)
        if isinstance(other, (list, tuple)):
            return self.exact and self._samples == list(other)
        return NotImplemented

    __hash__ = None  # mutable container semantics, like list


def series_total(values: Union[Reservoir, Sequence[float]]) -> float:
    """Exact sum of a miss stream, list- or reservoir-backed."""
    if isinstance(values, Reservoir):
        return values.total
    return sum(values)


def series_scale(values: Union[Reservoir, Sequence[float]]) -> float:
    """Observations represented by each stored sample (1.0 while exact)."""
    if isinstance(values, Reservoir):
        stored = len(values._samples)
        return values.count / stored if stored else 1.0
    return 1.0
