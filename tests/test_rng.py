"""Tests for the named, seeded random streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rng import PARK_LIMIT, RandomStream, StreamFactory, derive_seed


def test_same_seed_and_name_reproduce_the_same_draws():
    a = RandomStream(42, "clients")
    b = RandomStream(42, "clients")
    assert [a.random() for _ in range(10)] == [b.random() for _ in range(10)]


def test_different_names_give_different_streams():
    a = RandomStream(42, "clients")
    b = RandomStream(42, "server")
    assert [a.random() for _ in range(10)] != [b.random() for _ in range(10)]


def test_derive_seed_is_stable():
    assert derive_seed(1, "x") == derive_seed(1, "x")
    assert derive_seed(1, "x") != derive_seed(2, "x")


def test_factory_caches_streams():
    factory = StreamFactory(7)
    assert factory.stream("a") is factory.stream("a")
    assert factory.stream("a") is not factory.stream("b")


def test_exponential_rejects_nonpositive_rate():
    stream = RandomStream(0, "t")
    with pytest.raises(ValueError):
        stream.exponential(0.0)


def test_exponential_mean_roughly_matches_rate():
    stream = RandomStream(0, "poisson")
    rate = 5.0
    samples = [stream.exponential(rate) for _ in range(5000)]
    assert abs(sum(samples) / len(samples) - 1.0 / rate) < 0.02


def test_service_time_within_jitter_band():
    stream = RandomStream(3, "server")
    capacity = 10.0
    for _ in range(200):
        value = stream.service_time(capacity, jitter=0.1)
        assert 0.9 / capacity <= value <= 1.1 / capacity


def test_service_time_validations():
    stream = RandomStream(3, "server")
    with pytest.raises(ValueError):
        stream.service_time(0.0)
    with pytest.raises(ValueError):
        stream.service_time(10.0, jitter=1.5)


def test_bernoulli_bounds():
    stream = RandomStream(1, "coin")
    with pytest.raises(ValueError):
        stream.bernoulli(1.5)
    assert stream.bernoulli(1.0) is True
    assert stream.bernoulli(0.0) is False


def test_choice_on_empty_sequence_raises():
    stream = RandomStream(0, "c")
    with pytest.raises(IndexError):
        stream.choice([])


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**31), st.text(min_size=1, max_size=20))
def test_streams_are_reproducible_property(seed, name):
    """Property: a (seed, name) pair fully determines the stream."""
    first = RandomStream(seed, name)
    second = RandomStream(seed, name)
    assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]


def test_exponentials_batch_matches_sequential_draws():
    from repro.rng import RandomStream

    a = RandomStream(42, "batch")
    b = RandomStream(42, "batch")
    batched = a.exponentials(3.0, 10)
    sequential = [b.exponential(3.0) for _ in range(10)]
    assert batched == sequential
    # The stream state is identical afterwards too.
    assert a.exponential(3.0) == b.exponential(3.0)
    with pytest.raises(ValueError):
        a.exponentials(0.0, 3)
    with pytest.raises(ValueError):
        a.exponentials(1.0, -1)


# ---------------------------------------------------------------------------
# Lazy, parkable streams
# ---------------------------------------------------------------------------


#: Every draw a stream offers, each with fixed arguments.
DRAWS = {
    "uniform": lambda s: s.uniform(1.0, 3.0),
    "random": lambda s: s.random(),
    "randint": lambda s: s.randint(0, 1000),
    "choice": lambda s: s.choice("abcdefg"),
    "sample": lambda s: s.sample(range(100), 5),
    "exponential": lambda s: s.exponential(2.0),
    "exponentials": lambda s: s.exponentials(2.0, 40),
    "service_time": lambda s: s.service_time(100.0),
    "bernoulli": lambda s: s.bernoulli(0.3),
}

VARIABLE_LENGTH = ("randint", "choice", "sample")


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31),
    st.lists(st.sampled_from(sorted(DRAWS) + ["park"] * 4), max_size=40),
)
def test_parking_never_changes_a_draw(seed, steps):
    """Property: a stream parked between draws gives its twin's values."""
    parked = RandomStream(seed, "parked")
    twin = RandomStream(seed, "parked")
    for step in steps:
        if step == "park":
            parked.park()
        else:
            assert DRAWS[step](parked) == DRAWS[step](twin), step
    assert parked.random() == twin.random()


def test_a_stream_has_no_generator_until_its_first_draw():
    stream = RandomStream(5, "lazy")
    assert stream._rng is None
    first = stream.random()
    assert stream._rng is not None
    stream.park()
    assert stream._rng is None
    twin = RandomStream(5, "lazy")
    assert [twin.random(), twin.random()] == [first, stream.random()]


def test_park_holds_up_to_one_twister_block():
    stream = RandomStream(3, "block")
    stream.exponentials(1.0, PARK_LIMIT // 2)  # exactly 624 words
    stream.park()
    assert stream._rng is None
    stream.random()  # 626 words: replaying would cost more than a block
    stream.park()
    assert stream._rng is not None


@pytest.mark.parametrize("draw", VARIABLE_LENGTH)
def test_park_is_a_no_op_after_a_variable_length_draw(draw):
    stream = RandomStream(3, "variable")
    stream.random()
    DRAWS[draw](stream)
    stream.park()
    assert stream._rng is not None
    stream.random()
    stream.park()
    assert stream._rng is not None
