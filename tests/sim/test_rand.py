"""Unit and property tests for seeded random streams."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim import RandomStream, cumulative, replication_seed, spawn_seed


def test_same_seed_same_sequence():
    a = RandomStream(seed=7)
    b = RandomStream(seed=7)
    assert [a.random() for __ in range(20)] == [b.random() for __ in range(20)]


def test_different_labels_diverge():
    root = RandomStream(seed=7)
    x = root.fork("x")
    y = root.fork("y")
    assert [x.random() for __ in range(5)] != [y.random() for __ in range(5)]


def test_fork_is_deterministic():
    a = RandomStream(seed=3).fork("arrivals")
    b = RandomStream(seed=3).fork("arrivals")
    assert [a.random() for __ in range(10)] == [b.random() for __ in range(10)]


def test_fork_does_not_perturb_parent():
    a = RandomStream(seed=3)
    before = RandomStream(seed=3)
    a.fork("whatever")
    assert [a.random() for __ in range(5)] == [
        before.random() for __ in range(5)
    ]


def test_exponential_mean_is_roughly_right():
    stream = RandomStream(seed=11)
    n = 20_000
    total = sum(stream.exponential(100.0) for __ in range(n))
    assert total / n == pytest.approx(100.0, rel=0.05)


def test_exponential_rejects_nonpositive_mean():
    with pytest.raises(ValueError):
        RandomStream(seed=1).exponential(0.0)


def test_bernoulli_bounds():
    stream = RandomStream(seed=1)
    with pytest.raises(ValueError):
        stream.bernoulli(1.5)
    with pytest.raises(ValueError):
        stream.bernoulli(-0.1)


def test_bernoulli_extremes():
    stream = RandomStream(seed=1)
    assert not any(stream.bernoulli(0.0) for __ in range(100))
    assert all(stream.bernoulli(1.0) for __ in range(100))


def test_cumulative_prefix_sums():
    assert cumulative([1, 2, 3]) == [1, 3, 6]


def test_cumulative_rejects_negative_and_empty():
    with pytest.raises(ValueError):
        cumulative([1, -1])
    with pytest.raises(ValueError):
        cumulative([])
    with pytest.raises(ValueError):
        cumulative([0.0, 0.0])


def test_weighted_index_respects_weights():
    stream = RandomStream(seed=5)
    weights = cumulative([0.8, 0.2])
    draws = [stream.weighted_index(weights) for __ in range(10_000)]
    share = draws.count(0) / len(draws)
    assert share == pytest.approx(0.8, abs=0.03)


def test_weighted_index_empty_is_error():
    with pytest.raises(ValueError):
        RandomStream(seed=1).weighted_index([])


def test_weighted_index_single_bucket():
    stream = RandomStream(seed=1)
    weights = cumulative([4.2])
    assert all(stream.weighted_index(weights) == 0 for __ in range(50))


@given(st.lists(st.floats(min_value=0.01, max_value=100), min_size=1,
                max_size=20), st.integers(min_value=0, max_value=2**31))
def test_weighted_index_always_in_range(weights, seed):
    stream = RandomStream(seed=seed)
    cum = cumulative(weights)
    index = stream.weighted_index(cum)
    assert 0 <= index < len(weights)


@given(st.integers(min_value=0, max_value=2**31))
def test_uniform_stays_in_bounds(seed):
    stream = RandomStream(seed=seed)
    for __ in range(100):
        value = stream.uniform(2.0, 5.0)
        assert 2.0 <= value < 5.0 or math.isclose(value, 5.0)


def test_sample_returns_distinct_items():
    stream = RandomStream(seed=9)
    picked = stream.sample(range(100), 10)
    assert len(set(picked)) == 10


# ----------------------------------------------------------------------
# The (base_seed, run_key) spawn scheme the parallel executor rides on.
# ----------------------------------------------------------------------
def test_spawn_seed_is_reproducible():
    assert spawn_seed(42, 0) == spawn_seed(42, 0)
    assert spawn_seed(42, "HC|U=0.1") == spawn_seed(42, "HC|U=0.1")


def test_spawn_seed_distinct_runs_distinct_seeds():
    seeds = {spawn_seed(42, index) for index in range(200)}
    assert len(seeds) == 200


def test_spawn_seed_depends_on_base_seed():
    assert spawn_seed(1, 7) != spawn_seed(2, 7)


def test_spawn_seed_only_depends_on_its_arguments():
    """The derivation is a pure function: evaluating other runs' seeds
    first (in any order) never changes a given run's seed — the property
    that makes results independent of scheduling and run-list order."""
    expected = spawn_seed(42, 5)
    for index in reversed(range(10)):
        spawn_seed(42, index)
    assert spawn_seed(42, 5) == expected


def test_spawn_streams_are_decorrelated():
    a = RandomStream(spawn_seed(42, 0))
    b = RandomStream(spawn_seed(42, 1))
    assert [a.random() for __ in range(10)] != [b.random() for __ in range(10)]


def test_spawn_stream_same_run_reproducible():
    a = RandomStream(spawn_seed(42, 3)).fork("arrivals")
    b = RandomStream(spawn_seed(42, 3)).fork("arrivals")
    assert [a.random() for __ in range(10)] == [b.random() for __ in range(10)]


def test_spawned_seed_disjoint_from_fork_derivation():
    """A run's spawned root stream never collides with a fork child of
    the base stream (the ``spawn:`` domain prefix keeps them apart)."""
    base = RandomStream(42)
    spawned = base.spawn(0)
    assert spawned.seed != base.seed
    forked = base.fork("0")
    assert [spawned.random() for __ in range(10)] != [
        forked.random() for __ in range(10)
    ]


def test_spawn_does_not_perturb_parent():
    a = RandomStream(seed=3)
    before = RandomStream(seed=3)
    a.spawn(9)
    assert [a.random() for __ in range(5)] == [
        before.random() for __ in range(5)
    ]


def test_spawn_method_matches_function():
    assert RandomStream(42).spawn(4).seed == spawn_seed(42, 4)


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=0, max_value=10_000))
def test_spawn_seed_in_64_bit_range(base_seed, run_index):
    seed = spawn_seed(base_seed, run_index)
    assert 0 <= seed < 2**64


# ----------------------------------------------------------------------
# The per-replication seed scheme the scenario registry rides on.
# ----------------------------------------------------------------------
def test_replication_seed_is_reproducible():
    assert replication_seed(42, 0) == replication_seed(42, 0)
    assert replication_seed(42, 9) == replication_seed(42, 9)


def test_replication_seed_rejects_negative_index():
    with pytest.raises(ValueError):
        replication_seed(42, -1)


def test_replication_seeds_collision_free_to_1000():
    """Replication indices 0..999 map to 1000 distinct seeds, and the
    derivation never degenerates to the base seed itself."""
    seeds = {replication_seed(42, rep) for rep in range(1000)}
    assert len(seeds) == 1000
    assert 42 not in seeds


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=0, max_value=999),
       st.integers(min_value=0, max_value=999))
def test_replication_seeds_pairwise_distinct(base_seed, rep_a, rep_b):
    seed_a = replication_seed(base_seed, rep_a)
    seed_b = replication_seed(base_seed, rep_b)
    assert (seed_a == seed_b) == (rep_a == rep_b)


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=0, max_value=999))
def test_replication_streams_decorrelated_from_neighbours(base_seed, rep):
    """Adjacent replications' root streams share no draw prefix — the
    statistical independence every confidence interval assumes."""
    a = RandomStream(replication_seed(base_seed, rep))
    b = RandomStream(replication_seed(base_seed, rep + 1))
    assert [a.random() for __ in range(8)] != [b.random() for __ in range(8)]


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=0, max_value=999))
def test_replication_seed_disjoint_from_fork_domain(base_seed, rep):
    """A replication's root stream never collides with any fork child
    of the base stream, including one literally labelled ``rep:<n>`` —
    fork varies the label under the same seed, replication_seed derives
    a new seed under the ``spawn:`` domain prefix."""
    base = RandomStream(base_seed)
    rep_stream = RandomStream(replication_seed(base_seed, rep))
    forked = base.fork(f"rep:{rep}")
    assert rep_stream.seed != forked.seed
    assert [rep_stream.random() for __ in range(8)] != [
        forked.random() for __ in range(8)
    ]


@given(st.integers(min_value=0, max_value=2**31),
       st.integers(min_value=0, max_value=999))
def test_replication_seed_disjoint_from_content_key_spawns(base_seed, rep):
    """The ``rep:<n>`` key namespace never collides with content-keyed
    spawns (``|``-joined field=value lists, as ``config_key`` builds
    them), so replication seeds and per-config spawns compose."""
    assert replication_seed(base_seed, rep) != spawn_seed(
        base_seed, f"granularity='HC'|seed={rep}"
    )
