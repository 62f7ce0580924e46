"""Scalar information measures: frozen values and algebraic properties."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdpost.entropy import (
    Dist,
    binary_entropy,
    shannon_entropy,
    type_deviation_bound,
)


def test_dist_validates_sum():
    with pytest.raises(ValueError):
        Dist([0.5, 0.6])
    with pytest.raises(ValueError):
        Dist([-0.1, 1.1])
    with pytest.raises(ValueError, match="NaN"):
        Dist([math.nan, 1.0])
    with pytest.raises(ValueError, match="NaN"):
        shannon_entropy([0.5, math.nan])
    d = Dist([0.25, 0.75])
    assert d(0) == 0.25
    assert d(1) == 0.75
    assert len(d) == 2


def test_dist_rejects_an_empty_alphabet():
    with pytest.raises(ValueError, match="at least one symbol"):
        Dist([])


def test_binary_entropy_endpoints_and_symmetry():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    # h(0.11) appears in the one-way threshold; frozen from direct evaluation.
    assert abs(binary_entropy(0.11) - 0.499915958164528) < 1e-12
    for p in (0.01, 0.2, 0.37):
        assert abs(binary_entropy(p) - binary_entropy(1 - p)) < 1e-15


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        binary_entropy(-0.01)
    with pytest.raises(ValueError):
        binary_entropy(1.01)
    with pytest.raises(ValueError, match="nan"):
        binary_entropy(math.nan)
    # tiny negatives from float cancellation are clamped, not rejected
    assert binary_entropy(-1e-13) == 0.0


def test_shannon_entropy_values():
    assert shannon_entropy(Dist([1.0, 0.0])) == 0.0
    assert abs(shannon_entropy(Dist([0.25] * 4)) - 2.0) < 1e-15
    assert abs(shannon_entropy([0.5, 0.25, 0.25]) - 1.5) < 1e-15


def test_type_deviation_bound_values():
    # (n+1)^(k-1) * 2^(-eps^2 n / (2 ln 2)), capped at 1
    n, eps = 10**5, 0.05
    expected = 2.0 ** (math.log2(n + 1) - (eps**2) * n / (2.0 * math.log(2)))
    got = type_deviation_bound(n, eps, 2)
    assert got == pytest.approx(expected, rel=1e-9)
    assert got == pytest.approx(5.166472297043984e-50, rel=1e-9)
    # small n: the polynomial prefactor dominates and the cap engages
    assert type_deviation_bound(1000, 0.05, 2) == 1.0
    assert type_deviation_bound(10, 0.001, 2) == 1.0


def test_type_deviation_bound_validation():
    with pytest.raises(ValueError):
        type_deviation_bound(0, 0.1, 2)
    with pytest.raises(ValueError):
        type_deviation_bound(10, -0.1, 2)
    with pytest.raises(ValueError):
        type_deviation_bound(10, 0.1, 1)


@pytest.mark.parametrize("args", [(100, math.nan, 2), (math.nan, 0.1, 2), (100, 0.1, math.nan)])
def test_type_deviation_bound_rejects_nan(args):
    with pytest.raises(ValueError):
        type_deviation_bound(*args)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_binary_entropy_range(p):
    h = binary_entropy(p)
    assert 0.0 <= h <= 1.0


@given(st.lists(st.floats(min_value=1e-6, max_value=1.0), min_size=2, max_size=6))
def test_shannon_entropy_bounds(weights):
    total = sum(weights)
    d = Dist([w / total for w in weights])
    h = shannon_entropy(d)
    assert -1e-12 <= h <= math.log2(len(d)) + 1e-12
