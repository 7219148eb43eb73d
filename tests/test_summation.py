"""Compensated summation, the base layer everything else leans on."""

import math

import numpy as np
from hypothesis import given, strategies as st

from orbitcount.summation import NeumaierSum, neumaier_sum, neumaier_sum_complex, neumaier_sum_rows

finite = st.floats(
    allow_nan=False, allow_infinity=False, min_value=-1e12, max_value=1e12
)


def nsum(xs) -> float:
    acc = NeumaierSum()
    for x in xs:
        acc.add(float(x))
    return acc.value


def test_adversarial_cancellation():
    # naive left-to-right float addition gets this wrong
    xs = [1e16, 1.0, -1e16]
    assert sum(xs) != 1.0
    assert nsum(xs) == 1.0


def test_matches_fsum_on_mixed_magnitudes():
    rng = np.random.default_rng(7)
    xs = np.concatenate(
        [rng.normal(size=200) * 1e12, rng.normal(size=200), rng.normal(size=200) * 1e-9]
    )
    rng.shuffle(xs)
    got = nsum(xs)
    want = math.fsum(xs.tolist())
    assert abs(got - want) <= 4e-16 * np.sum(np.abs(xs))


@given(st.lists(finite, max_size=60))
def test_error_bound_property(xs):
    got = nsum(xs)
    want = math.fsum(xs)
    scale = math.fsum(abs(x) for x in xs)
    assert abs(got - want) <= 1e-15 * scale + 1e-300


def test_incremental_equals_batch():
    # chained adds, and a start value standing in for the first add, leave
    # the same state as adding term by term
    xs = [0.1 * k + 1.0 for k in range(57)]
    chained = NeumaierSum()
    for x in xs:
        chained = chained.add(x)
    assert chained.value == nsum(xs)
    started = NeumaierSum(xs[0])
    for x in xs[1:]:
        started.add(x)
    assert started.value == nsum(xs)


@given(st.lists(finite, max_size=60))
def test_plain_loop_equals_the_running_sum(xs):
    # both Neumaier branches taken: large terms against a small running sum
    xs = xs + [1e16, 1.0, -1e16, 0.5]
    assert neumaier_sum(xs) == nsum(xs)


def test_complex_parts_are_independent():
    zs = [complex(1e16, 1.0), complex(1.0, -1e16), complex(-1e16, 1e16)]
    got = neumaier_sum_complex(zs)
    assert got == complex(1.0, 1.0)
    assert neumaier_sum_complex(np.array(zs)) == got


@given(st.lists(st.tuples(finite, finite), min_size=0, max_size=5), st.integers(1, 6))
def test_rows_equal_the_scalar_sum(cols, rows):
    # every row the same columns, shuffled per row, plus a cancelling pair
    rng = np.random.default_rng(len(cols) * 7 + rows)
    base = [complex(a, b) for a, b in cols] + [1e16 + 1j, -1e16 - 1j]
    x = np.array([rng.permutation(base) for _ in range(rows)])
    got = neumaier_sum_rows(x)
    for k in range(rows):
        want = neumaier_sum_complex(x[k].tolist())
        assert got[k].real == want.real and got[k].imag == want.imag
