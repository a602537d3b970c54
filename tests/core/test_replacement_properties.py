"""Property-based tests: policies under arbitrary operation sequences."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.replacement import (
    ClockPolicy,
    EWMAPolicy,
    FIFOPolicy,
    LRDPolicy,
    LRUKPolicy,
    LRUPolicy,
    MeanPolicy,
    RandomPolicy,
    WindowPolicy,
)
from repro.oodb.objects import OID

POLICY_BUILDERS = {
    "lru": LRUPolicy,
    "lru3": lambda: LRUKPolicy(3),
    "lrd": LRDPolicy,
    "mean": MeanPolicy,
    "window": lambda: WindowPolicy(4),
    "ewma": lambda: EWMAPolicy(0.5),
    "clock": ClockPolicy,
    "fifo": FIFOPolicy,
    "random": lambda: RandomPolicy(seed=3),
}


def key(n):
    return (OID("Root", n), None)


#: Operation stream: (op, key-number). Times increase monotonically.
operations = st.lists(
    st.tuples(
        st.sampled_from(["admit", "access", "remove", "evict"]),
        st.integers(min_value=0, max_value=15),
    ),
    max_size=120,
)


@settings(max_examples=60, deadline=None)
@given(ops=operations, policy_name=st.sampled_from(sorted(POLICY_BUILDERS)))
def test_policy_mirrors_reference_set(ops, policy_name):
    """Whatever the op sequence, the policy's resident set stays exact."""
    policy = POLICY_BUILDERS[policy_name]()
    reference: set = set()
    clock = 0.0
    for op, n in ops:
        clock += 1.0
        k = key(n)
        if op == "admit" and k not in reference:
            policy.on_admit(k, clock)
            reference.add(k)
        elif op == "access" and k in reference:
            policy.on_access(k, clock)
        elif op == "remove" and k in reference:
            policy.remove(k)
            reference.discard(k)
        elif op == "evict" and reference:
            victim = policy.evict(clock)
            assert victim in reference
            reference.discard(victim)
        assert len(policy) == len(reference)
        for resident in reference:
            assert resident in policy


@settings(max_examples=40, deadline=None)
@given(
    ops=operations,
    policy_name=st.sampled_from(sorted(POLICY_BUILDERS)),
)
def test_policy_can_always_drain(ops, policy_name):
    """After any op sequence the policy drains without error."""
    policy = POLICY_BUILDERS[policy_name]()
    reference: set = set()
    clock = 0.0
    for op, n in ops:
        clock += 1.0
        k = key(n)
        if op in ("admit", "access"):
            if k in reference:
                policy.on_access(k, clock)
            else:
                policy.on_admit(k, clock)
                reference.add(k)
        elif op == "remove" and k in reference:
            policy.remove(k)
            reference.discard(k)
    drained = set()
    for __ in range(len(reference)):
        drained.add(policy.evict(clock + 10.0))
    assert drained == reference
    assert len(policy) == 0


@settings(max_examples=40, deadline=None)
@given(
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_ewma_mean_bounded(gaps):
    """EWMA of durations lies within [0, max(d)] (M starts at zero)."""
    policy = EWMAPolicy(0.5)
    policy.on_admit(key(1), 0.0)
    clock = 0.0
    for gap in gaps:
        clock += gap
        policy.on_access(key(1), clock)
    mean = policy.mean_duration(key(1))
    assert 0.0 <= mean <= max(gaps) + 1e-9


@settings(max_examples=40, deadline=None)
@given(
    gaps=st.lists(
        st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
        min_size=1,
        max_size=50,
    )
)
def test_mean_estimate_matches_arithmetic_mean(gaps):
    policy = MeanPolicy()
    policy.on_admit(key(1), 0.0)
    clock = 0.0
    for gap in gaps:
        clock += gap
        policy.on_access(key(1), clock)
    expected = sum(gaps) / len(gaps)
    assert policy.estimate(key(1), clock) == pytest.approx(
        expected, rel=1e-9, abs=1e-9
    )


@settings(max_examples=40, deadline=None)
@given(
    gaps=st.lists(
        st.floats(min_value=0.01, max_value=1e4, allow_nan=False),
        min_size=2,
        max_size=30,
    ),
    window=st.integers(min_value=2, max_value=8),
)
def test_window_estimate_uses_only_window(gaps, window):
    policy = WindowPolicy(window=window)
    policy.on_admit(key(1), 0.0)
    times = [0.0]
    clock = 0.0
    for gap in gaps:
        clock += gap
        times.append(clock)
        policy.on_access(key(1), clock)
    recent = times[-window:]
    expected = (recent[-1] - recent[0]) / (len(recent) - 1)
    assert policy.estimate(key(1), clock) == pytest.approx(expected)


#: The duration-scored schemes, whose victims carry a rank.
SCORED_BUILDERS = {
    "mean": MeanPolicy,
    "window": lambda: WindowPolicy(4),
    "ewma": lambda: EWMAPolicy(0.5),
}


@settings(max_examples=80, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(
                ["admit", "access", "access", "access", "remove", "evict"]
            ),
            st.integers(min_value=0, max_value=5),
            st.integers(min_value=0, max_value=300),
        ),
        min_size=20,
        max_size=200,
    ),
)
@pytest.mark.parametrize("policy_name", sorted(SCORED_BUILDERS))
def test_victim_has_the_maximal_estimate(policy_name, ops):
    """Each victim's rank is the largest estimate among the keys
    resident just before its eviction, whatever regime each key is in."""
    policy = SCORED_BUILDERS[policy_name]()
    resident: set = set()
    clock = 0.0
    for op, n, gap in ops:
        clock += gap
        k = key(n)
        if op == "admit" and k not in resident:
            policy.on_admit(k, clock)
            resident.add(k)
        elif op == "access" and k in resident:
            policy.on_access(k, clock)
        elif op == "remove" and k in resident:
            policy.remove(k)
            resident.discard(k)
        elif op == "evict" and resident:
            highest = max(policy.estimate(r, clock) for r in resident)
            victim = policy.evict(clock)
            assert victim in resident
            assert policy.last_eviction_score == pytest.approx(
                highest, rel=1e-9, abs=1e-9
            )
            resident.discard(victim)
