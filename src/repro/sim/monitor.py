"""Statistics collectors for simulation output analysis.

:class:`Tally` accumulates independent observations (response times, hit
indicators) with Welford's online algorithm, so means and standard
deviations are numerically stable over millions of samples.
:class:`TimeWeighted` integrates a piecewise-constant signal over time
(queue lengths, cache occupancy).
"""

from __future__ import annotations

import math
import typing as t

from repro.errors import StatisticsError


class Tally:
    """Online mean / variance / extrema over independent observations."""

    def __init__(self, name: str = "tally") -> None:
        self.name = name
        self._count = 0
        self._mean = 0.0
        self._m2 = 0.0
        #: Exact running sum, kept alongside the Welford state: deriving
        #: the total as ``mean * count`` re-amplifies the mean's rounding
        #: error by ``count`` and drifts over millions of samples.
        self._sum = 0.0
        self._min = math.inf
        self._max = -math.inf

    def __repr__(self) -> str:
        return f"<Tally {self.name!r} n={self._count} mean={self.mean:.6g}>"

    def record(self, value: float) -> None:
        """Add one observation."""
        self._count += 1
        self._sum += value
        delta = value - self._mean
        self._mean += delta / self._count
        self._m2 += delta * (value - self._mean)
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        """Sample mean (0.0 when empty, so reports stay printable)."""
        return self._mean if self._count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        if self._count < 2:
            return 0.0
        return self._m2 / (self._count - 1)

    @property
    def std(self) -> float:
        return math.sqrt(self.variance)

    @property
    def total(self) -> float:
        """Exact sum of all recorded observations."""
        return self._sum

    @property
    def minimum(self) -> float:
        return self._min if self._count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self._count else 0.0

    def confidence_interval(
        self, level: float = 0.95
    ) -> tuple[float, float]:
        """Student-t confidence interval for the mean.

        Any level in the open interval (0, 1) is accepted; the critical
        value comes from the dependency-free t machinery in
        :mod:`repro.experiments.scenarios.stats` (exact for every level
        and degree of freedom, unlike the three hard-coded z quantiles
        this replaced).  Raises :class:`~repro.errors.StatisticsError`
        for a level outside (0, 1); fewer than two observations yield a
        degenerate (zero-width) interval.
        """
        if not 0.0 < level < 1.0:
            raise StatisticsError(
                f"confidence level must lie in (0, 1), got {level!r}"
            )
        if self._count < 2:
            return (self.mean, self.mean)
        # Imported lazily: the experiments package imports the kernel, so
        # a module-level import here would be a cycle.
        from repro.experiments.scenarios.stats import t_critical

        half = (
            t_critical(self._count - 1, level)
            * self.std
            / math.sqrt(self._count)
        )
        return (self._mean - half, self._mean + half)

    def merge(self, other: "Tally") -> None:
        """Fold another tally into this one (parallel-run aggregation)."""
        if other._count == 0:
            return
        if self._count == 0:
            self._count = other._count
            self._mean = other._mean
            self._m2 = other._m2
            self._sum = other._sum
            self._min = other._min
            self._max = other._max
            return
        n1, n2 = self._count, other._count
        delta = other._mean - self._mean
        total = n1 + n2
        self._mean += delta * n2 / total
        self._m2 += other._m2 + delta * delta * n1 * n2 / total
        self._count = total
        self._sum += other._sum
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)


class TimeWeighted:
    """Time integral of a piecewise-constant signal (e.g. queue length)."""

    def __init__(self, now: float = 0.0, value: float = 0.0,
                 name: str = "timeweighted") -> None:
        self.name = name
        self._start = now
        self._last_time = now
        self._value = value
        self._integral = 0.0
        self._max = value

    def update(self, now: float, value: float) -> None:
        """Record that the signal changed to ``value`` at time ``now``."""
        if now < self._last_time:
            raise ValueError(
                f"time went backwards: {now!r} < {self._last_time!r}"
            )
        self._integral += self._value * (now - self._last_time)
        self._last_time = now
        self._value = value
        if value > self._max:
            self._max = value

    @property
    def current(self) -> float:
        return self._value

    @property
    def maximum(self) -> float:
        return self._max

    def time_average(self, now: float) -> float:
        """Average value of the signal over ``[start, now]``."""
        elapsed = now - self._start
        if elapsed <= 0:
            return self._value
        integral = self._integral + self._value * (now - self._last_time)
        return integral / elapsed


class RatioCounter:
    """Numerator/denominator pair reported as a ratio (hit and error rates)."""

    def __init__(self, name: str = "ratio") -> None:
        self.name = name
        self.hits = 0
        self.total = 0

    def __repr__(self) -> str:
        return f"<RatioCounter {self.name!r} {self.hits}/{self.total}>"

    def record(self, success: bool) -> None:
        self.total += 1
        if success:
            self.hits += 1

    def record_many(self, successes: int, total: int) -> None:
        """Fold ``total`` observations, ``successes`` of them hits."""
        self.total += total
        self.hits += successes

    @property
    def ratio(self) -> float:
        """Hit fraction in [0, 1]; 0.0 when no observations exist."""
        return self.hits / self.total if self.total else 0.0

    def merge(self, other: "RatioCounter") -> None:
        self.hits += other.hits
        self.total += other.total


def summarize(values: t.Iterable[float], name: str = "summary") -> Tally:
    """Build a :class:`Tally` from an iterable in one call."""
    tally = Tally(name)
    for value in values:
        tally.record(value)
    return tally
