"""Block reduction: parities, second bits and partitions."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdpost.blocks import as_bits, parity_seq, partition, second_bit_seq
from qkdpost.channel import derived_dists, sample_pair, six_state_point


def test_as_bits_rejects_non_binary():
    with pytest.raises(ValueError):
        as_bits([0, 1, 2])
    with pytest.raises(ValueError):
        as_bits([[0, 1]])
    # Non-integer input is checked before the cast, which would truncate it.
    for bad in ([0.5, 1.7], [0.0, float("nan")]):
        with pytest.raises(ValueError):
            as_bits(bad)
    assert as_bits([1.0, 0.0]).tolist() == [1, 0]
    assert as_bits([]).size == 0


def test_parity_seq():
    assert parity_seq([0, 0, 1, 1]).tolist() == [0, 0]
    assert parity_seq([0, 1, 1, 0]).tolist() == [1, 1]
    with pytest.raises(ValueError):
        parity_seq([0, 1, 1])


def test_second_bit_seq():
    assert second_bit_seq([0, 1, 1, 1], [0, 0]).tolist() == [1, 1]
    assert second_bit_seq([0, 1, 1, 1], [1, 1]).tolist() == [0, 0]
    assert second_bit_seq([0, 1, 1, 1], [0, 1]).tolist() == [1, 0]
    with pytest.raises(ValueError):
        second_bit_seq([0, 1], [0, 1])


def test_partition():
    assert partition([0, 0, 0]).tolist() == [0, 1, 2]
    assert partition([1, 0, 1]).tolist() == [1]
    assert partition([1, 1]).tolist() == []
    assert partition([]).tolist() == []


bitseqs = st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda s: len(s) % 2 == 0)


@given(bitseqs, st.randoms())
def test_parity_linearity(bits, pyrandom):
    x = np.array(bits, dtype=np.uint8)
    y = np.array([pyrandom.randint(0, 1) for _ in bits], dtype=np.uint8)
    assert np.array_equal(parity_seq(x) ^ parity_seq(y), parity_seq(x ^ y))


@given(st.lists(st.integers(0, 1), min_size=0, max_size=64))
def test_partition_covers(w1hat):
    t0 = partition(w1hat)
    assert t0.tolist() == [i for i, bit in enumerate(w1hat) if bit == 0]


def test_block_laws_converge_on_samples():
    # end-to-end: sampled discrepancy pattern must follow the derived laws
    p = six_state_point(0.1)
    law_w1, law_w2 = derived_dists(p)
    rng = np.random.default_rng(123)
    x, y = sample_pair(p, 2 * 10**5, rng)
    w1 = parity_seq(x) ^ parity_seq(y)
    assert abs(np.mean(w1) - law_w1(1)) < 0.01
    # second-bit discrepancy restricted to true parity-0 blocks
    err2 = (x ^ y).reshape(-1, 2)[:, 1]
    w2_on_t0 = err2[w1 == 0]
    assert abs(np.mean(w2_on_t0) - law_w2(1)) < 0.01
