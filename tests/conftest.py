"""Shared fixtures.

Window construction at the desk scales used here almost always clips tau
(the admissible arc half-width exceeds 1/4), so the clip warning is
suppressed globally via pyproject. Fixtures that need a warning-free
construction path suppress everything locally instead.
"""

import warnings

import pytest

from tanprimes import sieve_segment, value_table, window_from_index
from tanprimes.repcount import build_pair_map


def quiet_window(k, c, theta, epsilon=0.05):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return window_from_index(k, c, theta, epsilon)


@pytest.fixture(scope="session")
def w0():
    return quiet_window(0, 1.05, 2.0)


@pytest.fixture(scope="session")
def w2():
    return quiet_window(2, 1.05, 2.0)


@pytest.fixture(scope="session")
def w3():
    return quiet_window(3, 1.02, 1.5)


@pytest.fixture(scope="session")
def w4():
    return quiet_window(4, 1.02, 1.5)


@pytest.fixture(scope="session")
def block2(w2):
    return sieve_segment(w2.delta1, w2.delta2)


@pytest.fixture(scope="session")
def block3(w3):
    return sieve_segment(w3.delta1, w3.delta2)


@pytest.fixture(scope="session")
def block4(w4):
    return sieve_segment(w4.delta1, w4.delta2)


@pytest.fixture(scope="session")
def table2(w2, block2):
    return value_table(block2.primes, w2.c, w2.theta)


@pytest.fixture(scope="session")
def table3(w3, block3):
    return value_table(block3.primes, w3.c, w3.theta)


@pytest.fixture(scope="session")
def table4(w4, block4):
    return value_table(block4.primes, w4.c, w4.theta)


@pytest.fixture(scope="session")
def pairmap2(table2, block2):
    return build_pair_map(table2, block2.logs)


@pytest.fixture(scope="session")
def pairmap3(table3, block3):
    return build_pair_map(table3, block3.logs)
