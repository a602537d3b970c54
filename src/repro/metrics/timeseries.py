"""Bucketed time series of ratio metrics.

Aggregate hit/error ratios hide *dynamics*: how fast a replacement
policy recovers after the hot set changes, how a burst backs the system
up, how staleness accumulates during a disconnection.  A
:class:`BucketedRatio` splits the horizon into fixed-width buckets and
keeps a numerator/denominator pair per bucket, cheap enough to record
every access.
"""

from __future__ import annotations

from repro._units import Ratio, Seconds


class BucketedRatio:
    """Per-time-bucket success ratios (e.g. hit ratio over time)."""

    def __init__(self, bucket_seconds: Seconds, name: str = "series") -> None:
        if bucket_seconds <= 0:
            raise ValueError(
                f"bucket width must be positive, got {bucket_seconds!r}"
            )
        self.bucket_seconds = float(bucket_seconds)
        self.name = name
        self._hits: dict[int, int] = {}
        self._totals: dict[int, int] = {}

    def __repr__(self) -> str:
        return (
            f"<BucketedRatio {self.name!r} buckets={len(self._totals)} "
            f"width={self.bucket_seconds:g}s>"
        )

    def record(self, now: Seconds, success: bool) -> None:
        if now < 0:
            raise ValueError(f"negative sample time: {now!r}")
        bucket = int(now // self.bucket_seconds)
        self._totals[bucket] = self._totals.get(bucket, 0) + 1
        if success:
            self._hits[bucket] = self._hits.get(bucket, 0) + 1

    def record_many(self, now: Seconds, successes: int, total: int) -> None:
        """Fold ``total`` samples taken at ``now``, ``successes`` of them
        hits; the same as ``total`` :meth:`record` calls (none for 0)."""
        if not total:
            return
        if now < 0:
            raise ValueError(f"negative sample time: {now!r}")
        bucket = int(now // self.bucket_seconds)
        self._totals[bucket] = self._totals.get(bucket, 0) + total
        if successes:
            self._hits[bucket] = self._hits.get(bucket, 0) + successes

    def series(self) -> list[tuple[float, float, int]]:
        """(bucket start time, ratio, sample count) per non-empty bucket."""
        out = []
        for bucket in sorted(self._totals):
            total = self._totals[bucket]
            hits = self._hits.get(bucket, 0)
            out.append((bucket * self.bucket_seconds, hits / total, total))
        return out

    def ratio_between(self, start: Seconds, end: Seconds) -> Ratio:
        """Aggregate ratio over [start, end) (0.0 if no samples)."""
        hits = 0
        total = 0
        for bucket, count in self._totals.items():
            time = bucket * self.bucket_seconds
            if start <= time < end:
                total += count
                hits += self._hits.get(bucket, 0)
        return hits / total if total else 0.0

    def samples_between(self, start: Seconds, end: Seconds) -> int:
        """Sample count over [start, end), by bucket start time.

        The window test matches :meth:`ratio_between`, so a caller can
        first check the denominator is non-zero (warm-up truncation must
        error out on an empty window, never divide by it).
        """
        return sum(
            count
            for bucket, count in self._totals.items()
            if start <= bucket * self.bucket_seconds < end
        )

    def merge(self, other: "BucketedRatio") -> None:
        """Fold another series (same bucket width) into this one."""
        if other.bucket_seconds != self.bucket_seconds:
            raise ValueError(
                f"cannot merge series with different bucket widths: "
                f"{self.bucket_seconds:g}s vs {other.bucket_seconds:g}s"
            )
        for bucket, count in other._totals.items():
            self._totals[bucket] = self._totals.get(bucket, 0) + count
        for bucket, count in other._hits.items():
            self._hits[bucket] = self._hits.get(bucket, 0) + count

    def sparkline(self, width: int = 60) -> str:
        """A terminal sparkline of the ratio over time."""
        points = self.series()
        if not points:
            return ""
        blocks = " ▁▂▃▄▅▆▇█"
        if len(points) > width:
            # Downsample by averaging consecutive groups.
            group = len(points) / width
            sampled = []
            for index in range(width):
                chunk = points[
                    int(index * group):max(
                        int((index + 1) * group), int(index * group) + 1
                    )
                ]
                sampled.append(sum(p[1] for p in chunk) / len(chunk))
        else:
            sampled = [ratio for __, ratio, __ in points]
        return "".join(
            blocks[min(int(ratio * (len(blocks) - 1)), len(blocks) - 2) + 1]
            if ratio > 0 else blocks[0]
            for ratio in sampled
        )


class BucketedTally:
    """Per-time-bucket value tallies (e.g. response time over time).

    The value-metric sibling of :class:`BucketedRatio`: each bucket keeps
    a (count, sum) pair so windowed means and windowed totals — the two
    aggregations warm-up truncation needs — stay exact and cheap.
    """

    def __init__(self, bucket_seconds: Seconds, name: str = "tally") -> None:
        if bucket_seconds <= 0:
            raise ValueError(
                f"bucket width must be positive, got {bucket_seconds!r}"
            )
        self.bucket_seconds = float(bucket_seconds)
        self.name = name
        self._counts: dict[int, int] = {}
        self._sums: dict[int, float] = {}

    def __repr__(self) -> str:
        return (
            f"<BucketedTally {self.name!r} buckets={len(self._counts)} "
            f"width={self.bucket_seconds:g}s>"
        )

    def record(self, now: Seconds, value: float) -> None:
        if now < 0:
            raise ValueError(f"negative sample time: {now!r}")
        bucket = int(now // self.bucket_seconds)
        self._counts[bucket] = self._counts.get(bucket, 0) + 1
        self._sums[bucket] = self._sums.get(bucket, 0.0) + value

    def series(self) -> list[tuple[float, float, int]]:
        """(bucket start time, mean value, sample count) per bucket."""
        return [
            (
                bucket * self.bucket_seconds,
                self._sums[bucket] / self._counts[bucket],
                self._counts[bucket],
            )
            for bucket in sorted(self._counts)
        ]

    def samples_between(self, start: Seconds, end: Seconds) -> int:
        """Sample count over [start, end), by bucket start time."""
        return sum(
            count
            for bucket, count in self._counts.items()
            if start <= bucket * self.bucket_seconds < end
        )

    def sum_between(self, start: Seconds, end: Seconds) -> float:
        """Total of all values recorded in [start, end)."""
        return sum(
            total
            for bucket, total in self._sums.items()
            if start <= bucket * self.bucket_seconds < end
        )

    def mean_between(self, start: Seconds, end: Seconds) -> float:
        """Mean value over [start, end) (0.0 if no samples)."""
        count = self.samples_between(start, end)
        return self.sum_between(start, end) / count if count else 0.0

    def merge(self, other: "BucketedTally") -> None:
        """Fold another tally (same bucket width) into this one."""
        if other.bucket_seconds != self.bucket_seconds:
            raise ValueError(
                f"cannot merge tallies with different bucket widths: "
                f"{self.bucket_seconds:g}s vs {other.bucket_seconds:g}s"
            )
        for bucket, count in other._counts.items():
            self._counts[bucket] = self._counts.get(bucket, 0) + count
        for bucket, total in other._sums.items():
            self._sums[bucket] = self._sums.get(bucket, 0.0) + total
