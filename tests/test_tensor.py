"""PRNG stream tests.

The PRNG checks compare against a pure-python SplitMix64 written from the
documented recurrence, so a regression in the vectorized implementation
cannot hide behind itself.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from msam.errors import UsageError
from msam.tensor import Rng, derive_seed

MASK = (1 << 64) - 1


def splitmix_reference(seed, n):
    """Counter-mode SplitMix64, python ints only."""
    out = []
    for i in range(1, n + 1):
        z = (seed + i * 0x9E3779B97F4A7C15) & MASK
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", [0, 1, 42, 2**63, MASK])
def test_raw64_matches_reference(seed):
    got = Rng(seed).raw64(64)
    assert got.dtype == np.uint64
    assert [int(v) for v in got] == splitmix_reference(seed, 64)


def test_raw64_counter_is_request_size_independent():
    r1, r2 = Rng(7), Rng(7)
    a = np.concatenate([r1.raw64(3), r1.raw64(1), r1.raw64(2)])
    assert_array_equal(a, r2.raw64(6))


def test_raw64_rejects_negative():
    with pytest.raises(UsageError):
        Rng(0).raw64(-1)


@pytest.mark.parametrize("draw, size", [
    ("uniform", (2**64,)), ("uniform", (2**30, 2**30)), ("normal", (2**62,)),
    ("normal", (2**60 - 1,)), ("raw64", 2**60), ("permutation", 2**70),
])
def test_draws_no_array_can_hold_are_memory_errors(draw, size):
    # refused before numpy is asked for anything, and nothing is drawn
    rng = Rng(5)
    with pytest.raises(MemoryError, match="does not fit in memory"):
        getattr(rng, draw)(size)
    assert rng.raw64(2).tolist() == Rng(5).raw64(2).tolist()


def test_uniform_range_and_determinism():
    u = Rng(11).uniform((10_000,))
    assert u.min() >= 0.0 and u.max() < 1.0
    assert_array_equal(u, Rng(11).uniform((10_000,)))
    # top-53-bits construction, checked against the raw stream
    raw = Rng(11).raw64(4)
    assert_array_equal(Rng(11).uniform((4,)), (raw >> np.uint64(11)).astype(np.float64) * 2.0**-53)


def test_uniform_moments():
    u = Rng(5).uniform((1_000_000,))
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(u.var() - 1.0 / 12.0) < 0.01


def test_normal_moments():
    z = Rng(17).normal((1_000_000,))
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02


def test_normal_shapes_and_odd_lengths():
    assert isinstance(Rng(3).normal(), float)
    assert Rng(3).normal((3,)).shape == (3,)
    assert Rng(3).normal((2, 5)).shape == (2, 5)
    # odd requests burn a full Box-Muller pair; prefix property still holds
    a = Rng(9).normal((5,))
    b = Rng(9).normal((5,))
    assert_array_equal(a, b)


def test_integers_bounds_and_validation():
    v = Rng(23).integers(7, 10_000)
    assert v.dtype == np.int64
    assert v.min() >= 0 and v.max() <= 6
    assert set(np.unique(v)) == set(range(7))
    with pytest.raises(UsageError):
        Rng(0).integers(0, 3)


def test_permutation_is_a_permutation():
    p = Rng(31).permutation(257)
    assert_array_equal(np.sort(p), np.arange(257))
    assert_array_equal(p, Rng(31).permutation(257))
    assert not np.array_equal(p, Rng(32).permutation(257))


def test_derive_seed_is_order_sensitive_and_stable():
    assert derive_seed(1, 2) == derive_seed(1, 2)
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert derive_seed(0) != derive_seed(0, 0)
    seen = {derive_seed(a, b) for a in range(20) for b in range(20)}
    assert len(seen) == 400
