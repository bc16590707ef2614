"""The seeded stream against numpy.random.default_rng, byte for byte."""

import numpy as np
import pytest

from esoclcp import instances, make_instance
from esoclcp.rng import Pcg64

SEEDS = [*range(300), 2**32 - 1, 2**32, 2**64 + 3, np.int64(12345)]

# Every (low, high) the generators (instances.py) and the solver's random
# starts (solvers._starts) draw with.
RANGES = [
    (-instances.ENTRY_RANGE, instances.ENTRY_RANGE),
    (-instances.PART_HI, instances.PART_HI),
    (instances.LAMBDA_LO, instances.LAMBDA_HI),
    (instances.PART_LO, 1.0),
    (instances.PART_LO, instances.PART_HI),
    (-1.0, 1.0),
    (0.0, 1.0),
    (0.5, 1.5),
]


@pytest.mark.parametrize("seed", SEEDS, ids=str)
def test_stream_matches_default_rng(seed):
    # one generator per side, so each call also checks the state the calls
    # before it left behind
    ours, theirs = Pcg64(seed), np.random.default_rng(seed)
    for low, high in RANGES:
        for size in (None, 1, 3, (4, 4)):
            a, b = ours.uniform(low, high, size), theirs.uniform(low, high, size)
            assert type(a) is type(b)
            assert np.asarray(a).shape == np.asarray(b).shape
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), (low, high, size)
    assert ours.uniform(size=5).tobytes() == theirs.uniform(size=5).tobytes()
    assert ours.uniform() == theirs.uniform()


@pytest.mark.parametrize("seed", [-1, np.int64(-2), -(2**70)])
def test_negative_seed_raises_value_error(seed):
    with pytest.raises(ValueError):
        np.random.default_rng(seed)
    with pytest.raises(ValueError, match="^seed must be non-negative"):
        Pcg64(seed)
    with pytest.raises(ValueError, match="^seed must be non-negative"):
        make_instance("vi", 2, 2, seed)


@pytest.mark.parametrize("seed", [1.5, 2.0, np.float64(3.0), "3", None])
def test_non_integral_seed_raises_type_error(seed):
    with pytest.raises(TypeError, match="^seed must be an integer"):
        Pcg64(seed)
    with pytest.raises(TypeError, match="^seed must be an integer"):
        make_instance("vi", 2, 2, seed)


def test_numpy_integer_seed_draws_like_int():
    assert np.array_equal(make_instance("vi", 3, 2, np.int64(7)).problem.T, make_instance("vi", 3, 2, 7).problem.T)
    assert Pcg64(np.uint64(2**64 - 1)).uniform() == Pcg64(2**64 - 1).uniform()
