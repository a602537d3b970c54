"""Count-Min-Sketch frequency estimation for admission-aware policies.

The sketch answers "how often was this key touched recently?" in O(1)
space per row with two refinements from the TinyLFU literature:

* **conservative increment** — only the row counters equal to the
  current minimum estimate are bumped, which provably never loosens the
  over-estimate and sharply reduces collision inflation;
* **periodic halving** — once ``reset_interval`` increments have been
  absorbed, every counter is right-shifted by one.  Halving forgets
  stale history at a bounded rate, so the estimate tracks *recent*
  popularity instead of all-time popularity (the aging mechanism the
  W-TinyLFU admission filter relies on).

Counters saturate at ``max_count`` (4-bit style), which keeps the
halving cheap and bounds the damage any single hot key can do to the
estimates of colliding keys.

Hashing must be independent of ``PYTHONHASHSEED``: simulation workers
run in separate processes and the determinism smoke test re-runs the
suite under a different hash seed, so the builtin ``hash()`` is off
limits.  Keys are encoded through their (deterministic) ``repr`` and
digested with BLAKE2b; the 128-bit digest is sliced into one 32-bit
index seed per row.  Digests are memoized per key — the key population
is the object universe, a few thousand entries at most.  A sketch fed
dense integer key ids is given the key space's decoder
(:meth:`CountMinSketch.bind_decoder`) and hashes the decoded
``(OID, attribute)`` text, so every row index is the same as for the
tuple key.
"""

from __future__ import annotations

import hashlib
import typing as t

#: Default number of counters per row (rounded up to a power of two).
DEFAULT_WIDTH = 4096
#: Default number of hash rows.
DEFAULT_DEPTH = 4
#: Saturation value of each counter (4-bit counters, as in TinyLFU).
DEFAULT_MAX_COUNT = 15


class CountMinSketch:
    """Conservative-increment count-min sketch with periodic halving."""

    __slots__ = (
        "_width",
        "_depth",
        "_mask",
        "_rows",
        "_max_count",
        "_reset_interval",
        "_ops",
        "_digests",
        "_decode",
    )

    def __init__(
        self,
        width: int = DEFAULT_WIDTH,
        depth: int = DEFAULT_DEPTH,
        reset_interval: "int | None" = None,
        max_count: int = DEFAULT_MAX_COUNT,
    ) -> None:
        if width < 1:
            raise ValueError(f"width must be >= 1, got {width!r}")
        if not 1 <= depth <= 4:
            raise ValueError(f"depth must lie in [1, 4], got {depth!r}")
        if max_count < 1:
            raise ValueError(f"max count must be >= 1, got {max_count!r}")
        self._width = _next_power_of_two(int(width))
        self._mask = self._width - 1
        self._depth = int(depth)
        self._rows = [[0] * self._width for __ in range(self._depth)]
        self._max_count = int(max_count)
        if reset_interval is None:
            reset_interval = 8 * self._width
        if reset_interval < 1:
            raise ValueError(
                f"reset interval must be >= 1, got {reset_interval!r}"
            )
        self._reset_interval = int(reset_interval)
        self._ops = 0
        self._digests: dict[t.Any, int] = {}
        self._decode: t.Callable[[t.Any], t.Any] | None = None

    # ------------------------------------------------------------------
    @property
    def width(self) -> int:
        return self._width

    @property
    def depth(self) -> int:
        return self._depth

    @property
    def reset_interval(self) -> int:
        return self._reset_interval

    def bind_decoder(self, decode: t.Callable[[t.Any], t.Any]) -> None:
        """Hash ``decode(key)`` instead of ``key`` from now on.

        Used with dense key ids: the decoder maps an id back to its
        ``(OID, attribute)`` key, whose text fixes the row indices.
        """
        self._decode = decode
        self._digests.clear()

    def _indices(self, key: t.Any) -> list[int]:
        digest = self._digests.get(key)
        if digest is None:
            # repr() of a cache key — (OID, attribute) — is a pure
            # function of its fields, unlike hash(), which varies with
            # PYTHONHASHSEED across worker processes.
            canonical = key if self._decode is None else self._decode(key)
            encoded = repr(canonical).encode("utf-8")
            raw = hashlib.blake2b(encoded, digest_size=16).digest()
            digest = int.from_bytes(raw, "little")
            self._digests[key] = digest
        return [
            (digest >> (32 * row)) & self._mask
            for row in range(self._depth)
        ]

    def increment(self, key: t.Any) -> None:
        """Record one touch of ``key`` (conservative increment)."""
        indices = self._indices(key)
        estimate = min(
            self._rows[row][index]
            for row, index in enumerate(indices)
        )
        if estimate < self._max_count:
            for row, index in enumerate(indices):
                if self._rows[row][index] == estimate:
                    self._rows[row][index] = estimate + 1
        self._ops += 1
        if self._ops >= self._reset_interval:
            self._halve()

    def estimate(self, key: t.Any) -> int:
        """Upper bound on recent touches of ``key``."""
        return min(
            self._rows[row][index]
            for row, index in enumerate(self._indices(key))
        )

    def _halve(self) -> None:
        for row in self._rows:
            for index, value in enumerate(row):
                if value:
                    row[index] = value >> 1
        self._ops >>= 1


def _next_power_of_two(value: int) -> int:
    power = 1
    while power < value:
        power <<= 1
    return power
