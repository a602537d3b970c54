"""W-TinyLFU: windowed admission-filtered segmented LRU.

The 2010s design the tournament pits against the paper's 1998 schemes.
Resident keys live in one of three segments:

* **window** — a small LRU absorbing every new admission.  One-shot
  items (sequential scans) die here without ever touching the main
  region;
* **probation** — the main region's entry segment, LRU-ordered.  Keys
  arrive here two ways: window overflow drains into probation while the
  cache still has room (admission is free when nothing must die for
  it), and at eviction time a window victim is transferred here when
  the frequency sketch says it is more popular than probation's own
  next victim — otherwise the window victim is evicted outright
  (TinyLFU admission filtering);
* **protected** — keys re-accessed while on probation.  Overflow
  demotes the protected LRU head back to probation, so the segment
  holds the most recently *re-used* keys (SLRU).

Segment targets are entry counts derived from the current resident set
(the storage cache budgets bytes, not slots, so count-based targets are
the natural approximation).  The adaptive variant shifts the window
fraction with a hit-rate EWMA: a collapsing hit rate signals a scan, so
the window shrinks to starve it; recovery lets the window drift back
toward the default (the SNIPPETS exemplar idiom).
"""

from __future__ import annotations

import math
import typing as t
from collections import OrderedDict

from repro.core.granularity import CacheKey
from repro.core.replacement.base import ReplacementPolicy, register_policy
from repro.core.replacement.sketch import CountMinSketch

#: Segment labels reported by :meth:`WTinyLFUPolicy.segment_of`.
SEG_WINDOW = "window"
SEG_PROBATION = "probation"
SEG_PROTECTED = "protected"

#: Default share of the resident set held by the admission window.
DEFAULT_WINDOW_FRACTION = 0.10
#: Share of the main region (probation + protected) kept protected.
PROTECTED_FRACTION = 0.80

#: Adaptive-window bounds and control parameters.
ADAPTIVE_MIN_FRACTION = 0.02
ADAPTIVE_MAX_FRACTION = 0.25
ADAPTIVE_EWMA_ALPHA = 0.02
#: Hit-rate EWMA below this means "scan": shrink the window.
SCAN_HIT_RATE = 0.15
#: Hit-rate EWMA above this means locality is back: regrow the window.
RECOVER_HIT_RATE = 0.35
#: Events between window-fraction adjustments.
ADAPT_EVERY = 64


class WTinyLFUPolicy(ReplacementPolicy):
    """Window-LRU + SLRU main region behind a count-min admission filter."""

    name = "tinylfu"

    def __init__(
        self,
        window_fraction: float = DEFAULT_WINDOW_FRACTION,
        adaptive: bool = False,
        sketch: "CountMinSketch | None" = None,
    ) -> None:
        if not 0.0 < window_fraction < 1.0:
            raise ValueError(
                f"window fraction must lie in (0, 1), got "
                f"{window_fraction!r}"
            )
        self.window_fraction = float(window_fraction)
        self.default_window_fraction = float(window_fraction)
        self.adaptive = bool(adaptive)
        self._sketch = sketch if sketch is not None else CountMinSketch()
        self._window: OrderedDict[CacheKey, None] = OrderedDict()
        self._probation: OrderedDict[CacheKey, None] = OrderedDict()
        self._protected: OrderedDict[CacheKey, None] = OrderedDict()
        self._segments: dict[CacheKey, str] = {}
        #: Hit-rate EWMA over the admit(0)/access(1) event stream.
        self._hit_ewma = 0.5
        self._events_since_adapt = 0

    # ------------------------------------------------------------------
    def __contains__(self, key: CacheKey) -> bool:
        return key in self._segments

    def __len__(self) -> int:
        return len(self._segments)

    def segment_of(self, key: CacheKey) -> str | None:
        return self._segments.get(key)

    def bind_key_decoder(self, decode: t.Callable[[t.Any], t.Any]) -> None:
        self._sketch.bind_decoder(decode)

    def frequency(self, key: CacheKey) -> int:
        """Sketch estimate for ``key`` (diagnostics and tests)."""
        return self._sketch.estimate(key)

    # ------------------------------------------------------------------
    def on_admit(self, key: CacheKey, now: float) -> None:
        self._require_absent(key)
        self._sketch.increment(key)
        self._window[key] = None
        self._segments[key] = SEG_WINDOW
        self._observe(hit=False)
        self._spill_window()

    def on_access(self, key: CacheKey, now: float) -> None:
        self._require_resident(key)
        self._sketch.increment(key)
        segment = self._segments[key]
        if segment == SEG_WINDOW:
            self._window.move_to_end(key)
        elif segment == SEG_PROTECTED:
            self._protected.move_to_end(key)
        else:
            # Probation re-hit: promote, demoting on protected overflow.
            del self._probation[key]
            self._protected[key] = None
            self._segments[key] = SEG_PROTECTED
            main_count = len(self._probation) + len(self._protected)
            protected_target = max(
                1, int(PROTECTED_FRACTION * main_count)
            )
            while len(self._protected) > protected_target:
                demoted, __ = self._protected.popitem(last=False)
                self._probation[demoted] = None
                self._segments[demoted] = SEG_PROBATION
        self._observe(hit=True)

    def remove(self, key: CacheKey) -> None:
        self._require_resident(key)
        segment = self._segments.pop(key)
        del self._segment_dict(segment)[key]

    def evict(self, now: float) -> CacheKey:
        self._require_nonempty()
        victim = self._pick_victim()
        self.last_eviction_score = float(self._sketch.estimate(victim))
        self.remove(victim)
        return victim

    # ------------------------------------------------------------------
    def _segment_dict(self, segment: str) -> OrderedDict[CacheKey, None]:
        if segment == SEG_WINDOW:
            return self._window
        if segment == SEG_PROBATION:
            return self._probation
        return self._protected

    def _window_target(self) -> int:
        return max(1, math.ceil(self.window_fraction * len(self)))

    def _spill_window(self) -> None:
        # Window overflow drains into probation.  Spilled keys stay
        # resident — no bytes are freed — they merely lose their
        # recency shelter and must now survive the frequency duel.
        while len(self._window) > self._window_target():
            spilled, __ = self._window.popitem(last=False)
            self._probation[spilled] = None
            self._segments[spilled] = SEG_PROBATION

    def _pick_victim(self) -> CacheKey:
        if not self._window:
            if self._probation:
                return next(iter(self._probation))
            return next(iter(self._protected))
        candidate = next(iter(self._window))
        if not self._probation:
            # Nothing on probation to compare against: the window
            # victim leaves (protected keys are never displaced by a
            # first-touch candidate).
            return candidate
        incumbent = next(iter(self._probation))
        if self._sketch.estimate(candidate) > self._sketch.estimate(
            incumbent
        ):
            # The candidate is provably hotter: transfer it into the
            # main region and evict probation's own victim instead.
            del self._window[candidate]
            self._probation[candidate] = None
            self._segments[candidate] = SEG_PROBATION
            return incumbent
        return candidate

    # ------------------------------------------------------------------
    def _observe(self, hit: bool) -> None:
        if not self.adaptive:
            return
        alpha = ADAPTIVE_EWMA_ALPHA
        self._hit_ewma += alpha * ((1.0 if hit else 0.0) - self._hit_ewma)
        self._events_since_adapt += 1
        if self._events_since_adapt < ADAPT_EVERY:
            return
        self._events_since_adapt = 0
        if self._hit_ewma < SCAN_HIT_RATE:
            # Scan regime: starve the window so one-shot items cannot
            # displace the frequency-vetted main region.  Spill right
            # away so the shrink takes effect this instant, not on the
            # next admission.
            self.window_fraction = max(
                ADAPTIVE_MIN_FRACTION, self.window_fraction * 0.5
            )
            self._spill_window()
        elif self._hit_ewma > RECOVER_HIT_RATE:
            # Locality is back: drift toward (and slightly past) the
            # default so recency-heavy phases get window capacity.
            self.window_fraction = min(
                ADAPTIVE_MAX_FRACTION,
                max(
                    self.default_window_fraction,
                    self.window_fraction * 1.5,
                ),
            )

    def describe(self) -> str:
        return self.name


def make_tinylfu(parameter: str = "") -> WTinyLFUPolicy:
    """Factory behind the ``"tinylfu"`` spec.

    ``tinylfu`` — fixed 10% window; ``tinylfu-25`` — fixed 25% window;
    ``tinylfu-adaptive`` — scan-aware adaptive window sizing.
    """
    text = parameter.strip()
    if not text:
        policy = WTinyLFUPolicy()
        policy.name = "tinylfu"
        return policy
    if text == "adaptive":
        policy = WTinyLFUPolicy(adaptive=True)
        policy.name = "tinylfu-adaptive"
        return policy
    try:
        percent = float(text)
    except ValueError:
        raise ValueError(
            f"expected a window percentage or 'adaptive', got {text!r}"
        ) from None
    if not math.isfinite(percent) or not 0.0 < percent < 100.0:
        raise ValueError(
            f"window percentage must lie in (0, 100), got {text!r}"
        )
    policy = WTinyLFUPolicy(window_fraction=percent / 100.0)
    policy.name = f"tinylfu-{percent:g}"
    return policy


register_policy("tinylfu", raw_parameter=True)(make_tinylfu)
