"""Segmented sieve over half-open real intervals."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tanprimes import sieve_segment
from tanprimes.errors import InvalidRange, RangeTooLarge


def simple_primes(limit):
    """Independent oracle, plain Eratosthenes."""
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, int(limit**0.5) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0]


def test_matches_oracle_to_1e5():
    oracle = simple_primes(100000)
    blk = sieve_segment(0.0, 100000.0)
    assert np.array_equal(blk.primes, oracle)


def test_every_small_upper_bound():
    # the base primes come from the sieve itself, one level down; its
    # smallest cases, where the recursion stops, against the oracle
    for b in range(2, 300):
        assert sieve_segment(0, b).primes.tolist() == simple_primes(b).tolist(), b


def test_half_open_resolution():
    # (10.7, 19.3] resolves to integer range (10, 19]
    blk = sieve_segment(10.7, 19.3)
    assert blk.primes.tolist() == [11, 13, 17, 19]
    assert blk.lo == 10 and blk.hi == 19


def test_left_endpoint_excluded():
    assert sieve_segment(7.0, 11.0).primes.tolist() == [11]
    assert sieve_segment(6.9, 7.0).primes.tolist() == [7]


def test_empty_segment():
    assert len(sieve_segment(0.2, 1.9)) == 0
    assert len(sieve_segment(24.0, 28.9)) == 0


def test_desk_windows(w2, block2, block3):
    assert len(block2) == 63
    assert len(block3) == 992
    assert int(block2.primes[0]) > w2.delta1
    assert float(block2.primes[-1]) <= w2.delta2


def test_logs_accurate(block2):
    assert np.max(np.abs(block2.logs - np.log(block2.primes))) == 0.0


def test_bad_ranges():
    with pytest.raises(InvalidRange):
        sieve_segment(9.0, 9.0)
    with pytest.raises(InvalidRange):
        sieve_segment(12.0, 5.0)
    with pytest.raises(InvalidRange):
        sieve_segment(-1.0, 10.0)
    with pytest.raises(RangeTooLarge):
        sieve_segment(0.0, 2.0**50 + 1.0)


@given(st.integers(min_value=11, max_value=9999))
@settings(max_examples=40, deadline=None)
def test_segment_splitting_invariant(m):
    a, b = 3.0, 10000.0
    whole = sieve_segment(a, b).primes
    left = sieve_segment(a, float(m)).primes
    right = sieve_segment(float(m), b).primes
    assert np.array_equal(whole, np.concatenate([left, right]))


def test_threads_do_not_change_output():
    one = sieve_segment(1000.0, 300000.0, threads=1)
    four = sieve_segment(1000.0, 300000.0, threads=4)
    assert np.array_equal(one.primes, four.primes)
    assert np.array_equal(one.logs, four.logs)


def test_crossing_segment_boundary():
    # spans several internal segments of size 2^18
    blk = sieve_segment(2.0**18 - 50.0, 2.0**19 + 50.0)
    oracle = simple_primes(2**19 + 50)
    oracle = oracle[oracle > 2**18 - 50]
    assert np.array_equal(blk.primes, oracle)
