"""Bell-diagonal parameterizations and the length-2 block laws.

The derived-law oracle enumerates the four 2-bit discrepancy patterns of an
i.i.d. bit-flip process directly; the module under test must reproduce it.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdpost.channel import (
    BellDiagonal,
    bb84_family,
    derived_dists,
    sample_pair,
    six_state_point,
)


def block_law_oracle(eps: float) -> tuple[dict, dict]:
    """Enumerate 2-bit error blocks with i.i.d. flip probability eps.

    Returns (law of parity, law of second bit given parity 0).
    """
    parity = {0: 0.0, 1: 0.0}
    joint0 = {0: 0.0, 1: 0.0}
    for e1, e2 in itertools.product((0, 1), repeat=2):
        w = (eps if e1 else 1 - eps) * (eps if e2 else 1 - eps)
        parity[e1 ^ e2] += w
        if e1 ^ e2 == 0:
            joint0[e2] += w
    cond = {b: joint0[b] / parity[0] for b in (0, 1)}
    return parity, cond


def test_bell_diagonal_validation():
    with pytest.raises(ValueError):
        BellDiagonal(0.5, 0.5, 0.5, -0.5)
    with pytest.raises(ValueError):
        BellDiagonal(0.3, 0.3, 0.3, 0.3)
    with pytest.raises(ValueError, match="p00=nan"):
        BellDiagonal(math.nan, 0.5, 0.25, 0.25)
    p = BellDiagonal(0.7, 0.1, 0.1, 0.1)
    assert p.bit_flip_rate() == pytest.approx(0.2)


def test_six_state_point():
    assert six_state_point(0.0) == BellDiagonal(1.0, 0.0, 0.0, 0.0)
    p = six_state_point(2.0 / 3.0)
    assert p.p00 == pytest.approx(0.0, abs=1e-15)
    assert p.p10 == pytest.approx(1.0 / 3.0)
    # all three pairwise marginal error conditions hold
    p = six_state_point(0.1)
    assert p.p10 + p.p11 == pytest.approx(0.1)
    assert p.p01 + p.p11 == pytest.approx(0.1)
    assert p.p01 + p.p10 == pytest.approx(0.1)
    with pytest.raises(ValueError):
        six_state_point(0.7)
    with pytest.raises(ValueError):
        six_state_point(-0.01)
    with pytest.raises(ValueError, match="error rate nan"):
        six_state_point(math.nan)


def test_bb84_family():
    assert bb84_family(0.1, 0.0) == BellDiagonal(0.8, 0.1, 0.1, 0.0)
    p = bb84_family(0.1, 0.1)
    assert (p.p00, p.p10, p.p01, p.p11) == pytest.approx((0.9, 0.0, 0.0, 0.1))
    with pytest.raises(ValueError):
        bb84_family(0.1, 0.2)
    with pytest.raises(ValueError):
        bb84_family(0.6, 0.0)
    with pytest.raises(ValueError, match="p11=nan"):
        bb84_family(0.1, math.nan)
    with pytest.raises(ValueError, match="error rate nan"):
        bb84_family(math.nan, 0.0)


@given(
    st.floats(min_value=0.0, max_value=0.5),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_bb84_constraints_hold(e, frac):
    p11 = frac * e
    p = bb84_family(e, p11)
    assert p.p10 + p.p11 == pytest.approx(e, abs=1e-12)
    assert p.p01 + p.p11 == pytest.approx(e, abs=1e-12)


def test_derived_dists_against_enumeration():
    for eps in (0.0, 0.05, 0.1, 0.25, 0.5):
        p = six_state_point(eps)
        flip = p.bit_flip_rate()
        parity, cond = block_law_oracle(flip)
        w1, w2 = derived_dists(p)
        assert w1(0) == pytest.approx(parity[0], abs=1e-12)
        assert w1(1) == pytest.approx(parity[1], abs=1e-12)
        assert w2(1) == pytest.approx(cond[1], abs=1e-12)
    # deterministic flip: both bits of a block always differ, so parity is 0
    w1, _ = derived_dists(BellDiagonal(0.0, 0.5, 0.0, 0.5))
    assert w1(0) == pytest.approx(1.0)


def test_derived_dists_frozen_values():
    w1, w2 = derived_dists(six_state_point(0.1))
    assert w1(1) == pytest.approx(0.18, abs=1e-12)
    eps = 0.1
    assert w2(1) == pytest.approx(eps**2 / ((1 - eps) ** 2 + eps**2), abs=1e-12)
    assert w1(0) == pytest.approx((1 - eps) ** 2 + eps**2, abs=1e-12)


def test_derived_dists_noiseless():
    w1, w2 = derived_dists(BellDiagonal(1.0, 0.0, 0.0, 0.0))
    assert w1.probs == pytest.approx((1.0, 0.0))
    assert w2.probs == pytest.approx((1.0, 0.0))


@st.composite
def bell_diagonals(draw):
    raw = [draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(4)]
    total = sum(raw)
    if total <= 0:
        raw, total = [1.0, 0.0, 0.0, 0.0], 1.0
    vals = [r / total for r in raw]
    vals[0] = 1.0 - (vals[1] + vals[2] + vals[3])
    return BellDiagonal(*vals)


@given(bell_diagonals())
def test_derived_dists_normalization(p):
    w1, w2 = derived_dists(p)
    assert abs(w1(0) + w1(1) - 1.0) <= 1e-12
    assert abs(w2(0) + w2(1) - 1.0) <= 1e-12
    assert w1(0) >= 0.5 - 1e-12


@given(bell_diagonals())
def test_derived_dists_phase_label_swap_invariance(p):
    swapped = BellDiagonal(p.p01, p.p11, p.p00, p.p10)
    (a1, a2), (b1, b2) = derived_dists(p), derived_dists(swapped)
    assert a1(1) == pytest.approx(b1(1), abs=1e-12)
    assert a2(1) == pytest.approx(b2(1), abs=1e-12)


def test_sample_pair_reproducible_and_correct_rate():
    p = six_state_point(0.1)
    rng1 = np.random.default_rng(42)
    rng2 = np.random.default_rng(42)
    x1, y1 = sample_pair(p, 10**6, rng1)
    x2, y2 = sample_pair(p, 10**6, rng2)
    assert np.array_equal(x1, x2)
    assert np.array_equal(y1, y2)
    rate = np.mean(x1 ^ y1)
    assert abs(rate - 0.1) < 0.003


def test_sample_pair_degenerate():
    rng = np.random.default_rng(0)
    x, y = sample_pair(BellDiagonal(1.0, 0.0, 0.0, 0.0), 1000, rng)
    assert np.array_equal(x, y)
    x, y = sample_pair(BellDiagonal(0.0, 0.5, 0.0, 0.5), 1000, rng)
    assert np.array_equal(x ^ y, np.ones(1000, dtype=np.uint8))


def test_sample_pair_length_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_pair(six_state_point(0.1), 7, rng)
    with pytest.raises(ValueError):
        sample_pair(six_state_point(0.1), 0, rng)
