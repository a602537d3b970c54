"""Unit and property tests for the lazy score heap."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.replacement.base import LazyScoreHeap
from repro.errors import ReplacementError


class TestBasics:
    def test_empty_heap(self):
        heap = LazyScoreHeap()
        assert len(heap) == 0
        assert heap.top() is None
        with pytest.raises(ReplacementError):
            heap.peek_min()
        with pytest.raises(ReplacementError):
            heap.pop_min()

    def test_min_ordering(self):
        heap = LazyScoreHeap()
        heap.set_score("b", 2.0)
        heap.set_score("a", 1.0)
        heap.set_score("c", 3.0)
        assert heap.peek_min() == (1.0, "a")
        assert heap.pop_min() == "a"
        assert heap.pop_min() == "b"
        assert heap.pop_min() == "c"

    def test_score_update_reorders(self):
        heap = LazyScoreHeap()
        heap.set_score("a", 1.0)
        heap.set_score("b", 2.0)
        heap.set_score("a", 5.0)  # stale record must not win
        assert heap.pop_min() == "b"
        assert heap.pop_min() == "a"

    def test_discard(self):
        heap = LazyScoreHeap()
        heap.set_score("a", 1.0)
        heap.set_score("b", 2.0)
        heap.discard("a")
        assert "a" not in heap
        assert heap.pop_min() == "b"
        assert len(heap) == 0

    def test_discard_absent_is_noop(self):
        heap = LazyScoreHeap()
        heap.discard("ghost")
        assert len(heap) == 0

    def test_score_of(self):
        heap = LazyScoreHeap()
        heap.set_score("a", 4.5)
        assert heap.score_of("a") == 4.5
        with pytest.raises(KeyError):
            heap.score_of("missing")

    def test_equal_scores_fifo_tiebreak(self):
        heap = LazyScoreHeap()
        heap.set_score("first", 1.0)
        heap.set_score("second", 1.0)
        assert heap.pop_min() == "first"
        assert heap.pop_min() == "second"


@settings(max_examples=80, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["set", "discard", "pop"]),
            st.integers(min_value=0, max_value=12),
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        ),
        max_size=200,
    )
)
def test_matches_reference_dict(operations):
    """The heap must always agree with a brute-force min search."""
    heap = LazyScoreHeap()
    reference: dict[int, float] = {}
    tie = {}  # FIFO sequence for equal scores
    counter = 0
    for op, key, score in operations:
        if op == "set":
            counter += 1
            heap.set_score(key, score)
            reference[key] = score
            tie[key] = counter
        elif op == "discard":
            heap.discard(key)
            reference.pop(key, None)
        elif op == "pop" and reference:
            expected_key = min(
                reference, key=lambda k: (reference[k], tie[k])
            )
            assert heap.pop_min() == expected_key
            del reference[expected_key]
        assert len(heap) == len(reference)
        top = heap.top()
        if reference:
            score, key = heap.peek_min()
            assert score == min(reference.values())
            assert top is not None
            assert (top[0], top[2]) == (score, key)
        else:
            assert top is None


class _NeverCompacts(LazyScoreHeap):
    """Reference heap: the same lazy heap with compaction switched off."""

    __slots__ = ()

    def _compact(self) -> None:
        return None


@settings(max_examples=80, deadline=None)
@given(
    operations=st.lists(
        st.tuples(
            st.sampled_from(["set", "set", "set", "discard", "pop"]),
            st.integers(min_value=0, max_value=40),
            st.integers(min_value=-50, max_value=50),
        ),
        max_size=600,
    )
)
def test_compaction_keeps_pop_order_and_bounds_the_heap(operations):
    """Compaction may not reorder pops, and stale records stay bounded."""
    heap = LazyScoreHeap()
    reference = _NeverCompacts()
    for op, key, score in operations:
        if op == "set":
            heap.set_score(key, score)
            reference.set_score(key, score)
        elif op == "discard":
            heap.discard(key)
            reference.discard(key)
        elif len(reference):
            assert heap.pop_min() == reference.pop_min()
        assert len(heap) == len(reference)
        assert len(heap._heap) <= 2 * len(heap) + 64
    while len(reference):
        assert heap.pop_min() == reference.pop_min()
    assert len(heap) == 0


def test_compaction_fires_on_discard():
    heap = LazyScoreHeap()
    for key in range(200):
        heap.set_score(key, float(key))
    for key in range(190):
        heap.discard(key)
    assert len(heap._heap) <= 2 * len(heap) + 64
    assert [heap.pop_min() for __ in range(10)] == list(range(190, 200))
