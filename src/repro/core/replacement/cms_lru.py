"""Sketch-gated LRU: the admission-filter ablation.

Classic LRU plus *only* the TinyLFU admission filter — no window, no
segmented main region.  Under replacement pressure a new key is
admitted only when the count-min sketch estimates it to be strictly
more popular than the key LRU would evict for it; otherwise the insert
is denied (the cache emits ``CacheReject``) and the resident set stays
put.  The denied attempt still increments the sketch, so a key that
keeps being requested accumulates frequency and eventually passes.

Comparing this against full W-TinyLFU isolates how much of the win
comes from admission filtering alone versus the windowed SLRU
structure.
"""

from __future__ import annotations

import typing as t
from collections import OrderedDict

from repro.core.granularity import CacheKey
from repro.core.replacement.base import ReplacementPolicy, register_policy
from repro.core.replacement.sketch import CountMinSketch


class CMSAdmissionLRUPolicy(ReplacementPolicy):
    """LRU eviction behind a count-min-sketch admission gate."""

    name = "cmslru"

    def __init__(self, sketch: "CountMinSketch | None" = None) -> None:
        self._sketch = sketch if sketch is not None else CountMinSketch()
        self._order: OrderedDict[CacheKey, None] = OrderedDict()

    def __contains__(self, key: CacheKey) -> bool:
        return key in self._order

    def __len__(self) -> int:
        return len(self._order)

    def bind_key_decoder(self, decode: t.Callable[[t.Any], t.Any]) -> None:
        self._sketch.bind_decoder(decode)

    def frequency(self, key: CacheKey) -> int:
        """Sketch estimate for ``key`` (diagnostics and tests)."""
        return self._sketch.estimate(key)

    def should_admit(self, key: CacheKey, now: float) -> bool:
        # Record the attempt first: denial must still teach the sketch,
        # or a steadily re-requested key could never pass the gate.
        self._sketch.increment(key)
        if not self._order:
            return True
        victim = next(iter(self._order))
        return self._sketch.estimate(key) > self._sketch.estimate(victim)

    def on_admit(self, key: CacheKey, now: float) -> None:
        self._require_absent(key)
        self._sketch.increment(key)
        self._order[key] = None

    def on_access(self, key: CacheKey, now: float) -> None:
        self._require_resident(key)
        self._sketch.increment(key)
        self._order.move_to_end(key)

    def remove(self, key: CacheKey) -> None:
        self._require_resident(key)
        del self._order[key]

    def evict(self, now: float) -> CacheKey:
        self._require_nonempty()
        key, __ = self._order.popitem(last=False)
        self.last_eviction_score = float(self._sketch.estimate(key))
        return key


def make_cms_lru(reset_interval: "float | None" = None) -> CMSAdmissionLRUPolicy:
    """Factory behind ``"cmslru"``; the optional parameter is the
    sketch's halving interval in touches (``cmslru-8192``)."""
    if reset_interval is None:
        return CMSAdmissionLRUPolicy()
    interval = int(reset_interval)
    if interval < 1 or interval != reset_interval:
        raise ValueError(
            f"halving interval must be a positive integer, got "
            f"{reset_interval!r}"
        )
    policy = CMSAdmissionLRUPolicy(
        sketch=CountMinSketch(reset_interval=interval)
    )
    policy.name = f"cmslru-{interval}"
    return policy


register_policy("cmslru")(make_cms_lru)
