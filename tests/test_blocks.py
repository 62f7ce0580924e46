"""Block reduction: parities, second bits and partitions; the shared input checks."""

import re
from collections.abc import Callable

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdpost.blocks import as_bits, as_count, as_real, parity_seq, partition, second_bit_seq
from qkdpost.channel import BellDiagonal, bb84_family, derived_dists, sample_pair, six_state_point
from qkdpost.codes import ParityCheck, bp_decode, code_for_rate, ml_decode
from qkdpost.entropy import type_deviation_bound
from qkdpost.keyrate import bb84_curve, bb84_rate, sixstate_curve, sweep, tolerable_rate
from qkdpost.oracle import lemma_suite, min_entropy, partial_trace, random_density
from qkdpost.protocol import SessionConfig, SessionPlan, key_length, plan_session, run_full_session, run_ir, toeplitz_hash


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


@pytest.mark.parametrize("dtype", [np.int64, np.int16, np.int8, np.uint16, np.uint64])
def test_as_bits_checks_integers_before_the_cast(dtype):
    # A cast to uint8 would wrap 257 and -255 to 1 and 256 to 0, so wide
    # integers are range-checked first; 0/1 values of any integer dtype pass.
    for bad in ([257, 0], [-255, 1], [256, 1], [2, 0], [-1, 0]):
        values = np.array(bad).astype(dtype)
        if values.tolist() == bad:
            with pytest.raises(ValueError, match=r"values outside \{0, 1\}"):
                as_bits(values)
    assert as_bits(np.array([1, 0, 1], dtype=dtype)).tolist() == [1, 0, 1]


def test_as_bits_keeps_uint8_and_bool_input():
    # A uint8 sequence is returned as it is, without a copy; bool input is cast.
    bits = np.array([1, 0, 1], dtype=np.uint8)
    assert as_bits(bits) is bits
    flags = as_bits(np.array([True, False]))
    assert flags.dtype == np.uint8 and flags.tolist() == [1, 0]


def test_as_count():
    # Both bounds are inclusive; without a high bound there is no cap.
    assert as_count("k", 3, 3, 3) == 3
    assert as_count("k", 0, 0) == 0
    assert as_count("k", 10**30, 1) == 10**30
    for value in (np.int64(7), np.uint8(7), np.uint64(7)):
        out = as_count("k", value, 7, 7)
        assert out == 7 and type(out) is int
    with pytest.raises(ValueError, match="^k=2 must be >= 3$"):
        as_count("k", 2, 3)
    with pytest.raises(ValueError, match="^k=4 must be at most 3$"):
        as_count("k", 4, 0, 3)
    with pytest.raises(ValueError, match="^k=-1 must be >= 0$"):
        as_count("k", np.int64(-1), 0, 3)
    for bad in (2.5, 2.0, float("nan"), None, True, False, "2", np.float64(2.0), np.bool_(True)):
        with pytest.raises(ValueError, match=f"^k={re.escape(repr(bad))} must be an integer$"):
            as_count("k", bad, 0)


_SMALL_CODE = ParityCheck.from_dense(np.array([[1, 1, 0], [0, 1, 1]], dtype=np.uint8))

# Every public count argument, called with one value v for it and valid
# values for the rest; 2 is in range for each.
_COUNT_ARGUMENTS = [
    ("SessionConfig", "n", lambda v: SessionConfig(channel=six_state_point(0.05), n=v)),
    ("SessionConfig", "m", lambda v: SessionConfig(channel=six_state_point(0.05), m=v)),
    ("SessionConfig", "seed", lambda v: SessionConfig(channel=six_state_point(0.05), seed=v)),
    ("toeplitz_hash", "ell", lambda v: toeplitz_hash(np.zeros(5, np.uint8), np.zeros(4, np.uint8), v)),
    ("key_length", "n", lambda v: key_length(six_state_point(0.05), v, 0.0)),
    ("ParityCheck", "m", lambda v: ParityCheck(v, 4, [], [])),
    ("ParityCheck", "n", lambda v: ParityCheck(2, v, [], [])),
    ("code_for_rate", "n", lambda v: code_for_rate(v, 0.5, rng=np.random.default_rng(0))),
    ("bp_decode", "max_iters", lambda v: bp_decode(_SMALL_CODE, np.ones(2, np.uint8), 0.1, max_iters=v)),
    ("sample_pair", "length", lambda v: sample_pair(six_state_point(0.05), v, np.random.default_rng(0))),
    ("type_deviation_bound", "n", lambda v: type_deviation_bound(v, 0.1, 2)),
    ("type_deviation_bound", "alphabet_size", lambda v: type_deviation_bound(10, 0.1, v)),
    ("random_density", "dim", lambda v: random_density(v, np.random.default_rng(0))),
    ("random_density", "rank", lambda v: random_density(2, np.random.default_rng(0), rank=v)),
    ("lemma_suite", "samples", lambda v: lemma_suite(v, np.random.default_rng(0))),
    ("partial_trace", "dims", lambda v: partial_trace(np.eye(4) / 4, (v, 2), (0,))),
    ("partial_trace", "keep", lambda v: partial_trace(np.eye(8) / 8, (2, 2, 2), (v,))),
    ("min_entropy", "dims", lambda v: min_entropy(np.eye(4) / 4, np.eye(2) / 2, (v, 2))),
]


@pytest.mark.parametrize(
    "name, call", [pytest.param(name, call, id=f"{where}-{name}") for where, name, call in _COUNT_ARGUMENTS]
)
def test_count_arguments_take_integers_only(name, call):
    for bad in (2.5, 2.0, None, True, "2"):
        if bad is None and name == "rank":
            continue  # rank=None is the documented full-rank default
        with pytest.raises(ValueError, match=f"^{name}={re.escape(repr(bad))} must be an integer$"):
            call(bad)
    for good in (np.int64(2), np.uint8(2)):
        call(good)


def test_as_real():
    # No range: NaN and infinity pass here, and each caller's range test fails them.
    for value in (0.25, 1, np.float32(0.25), np.float64(0.25), np.int64(1), float("nan"), float("inf")):
        out = as_real("x", value)
        assert type(out) is float and (out == value or out != out)
    for bad in (None, True, False, "0.1", np.bool_(True), 1j):
        with pytest.raises(ValueError, match=f"^x={re.escape(repr(bad))} must be a real number$"):
            as_real("x", bad)


# Every public real argument, called with one value v for it and valid
# values for the rest; 0.1 is in range for each.
_REAL_ARGUMENTS = [
    ("SessionConfig", "delta", lambda v: SessionConfig(channel=six_state_point(0.05), delta=v)),
    ("SessionConfig", "abort_tolerance", lambda v: SessionConfig(channel=six_state_point(0.05), abort_tolerance=v)),
    ("SessionConfig", "finite_size_margin",
     lambda v: SessionConfig(channel=six_state_point(0.05), finite_size_margin=v)),
    ("key_length", "margin", lambda v: key_length(six_state_point(0.05), 10, v)),
    ("code_for_rate", "target_rate", lambda v: code_for_rate(4, v, rng=np.random.default_rng(0))),
    ("bp_decode", "crossover", lambda v: bp_decode(_SMALL_CODE, np.ones(2, np.uint8), v)),
    ("six_state_point", "e", lambda v: six_state_point(v)),
    ("bb84_family", "e", lambda v: bb84_family(v, 0.0)),
    ("bb84_family", "p11", lambda v: bb84_family(0.2, v)),
    ("bb84_rate", "e", lambda v: bb84_rate(v)),
    ("bb84_curve", "e", lambda v: bb84_curve([v])),
    ("sixstate_curve", "e", lambda v: sixstate_curve([v])),
    ("sweep", "emin", lambda v: sweep(v, 0.2, 0.05, "bb84")),
    ("sweep", "emax", lambda v: sweep(0.0, v, 0.05, "bb84")),
    ("sweep", "step", lambda v: sweep(0.0, 0.2, v, "bb84")),
    ("type_deviation_bound", "eps", lambda v: type_deviation_bound(10, v, 2)),
]


@pytest.mark.parametrize(
    "name, call", [pytest.param(name, call, id=f"{where}-{name}") for where, name, call in _REAL_ARGUMENTS]
)
def test_real_arguments_take_reals_only(name, call):
    for bad in (None, True, "0.1"):
        with pytest.raises(ValueError, match=f"^{name}={re.escape(repr(bad))} must be a real number$"):
            call(bad)
    for good in (np.float32(0.1), np.float64(0.1)):
        call(good)


_SMALL_CONFIG = SessionConfig(channel=six_state_point(0.05), n=4, m=100)
_SMALL_PLAN = SessionPlan(point=six_state_point(0.05), rates=(0.5, 0.5), crossovers=(0.1, 0.1), n0_bounds=(0, 3),
                          key_bits=0)


def _run_small_ir(**argument):
    """run_ir on noiseless 6-bit raw keys, with argument in place of its valid value."""
    zeros = np.zeros(2 * _SMALL_CODE.n, np.uint8)
    valid = dict(code1=_SMALL_CODE, plan=_SMALL_PLAN, rng_code2=np.random.default_rng(0), rng=np.random.default_rng(0))
    return run_ir(zeros, zeros, **{**valid, **argument})


# Every public protocol, channel, codes and keyrate argument that is read as
# an object, called with one value v for it and valid values for the rest.
# Each failed as a bare AttributeError or TypeError before the check.
_INSTANCE_ARGUMENTS = [
    ("run_full_session", "cfg", SessionConfig, lambda v: run_full_session(v), _SMALL_CONFIG),
    ("plan_session", "cfg", SessionConfig, lambda v: plan_session(0.05, v), _SMALL_CONFIG),
    ("key_length", "p_est", BellDiagonal, lambda v: key_length(v, 10, 0.0), six_state_point(0.05)),
    ("sample_pair", "p", BellDiagonal, lambda v: sample_pair(v, 10, np.random.default_rng(0)), six_state_point(0.05)),
    ("sample_pair", "rng", np.random.Generator, lambda v: sample_pair(six_state_point(0.05), 10, v),
     np.random.default_rng(0)),
    ("run_ir", "code1", ParityCheck, lambda v: _run_small_ir(code1=v), _SMALL_CODE),
    ("run_ir", "plan", SessionPlan, lambda v: _run_small_ir(plan=v), _SMALL_PLAN),
    ("run_ir", "rng_code2", np.random.Generator, lambda v: _run_small_ir(rng_code2=v), np.random.default_rng(0)),
    ("run_ir", "rng", np.random.Generator, lambda v: _run_small_ir(rng=v), np.random.default_rng(0)),
    ("code_for_rate", "rng", np.random.Generator, lambda v: code_for_rate(100, 0.5, v), np.random.default_rng(0)),
    ("bp_decode", "H", ParityCheck, lambda v: bp_decode(v, np.ones(2, np.uint8), 0.1), _SMALL_CODE),
    ("ml_decode", "H", ParityCheck, lambda v: ml_decode(v, np.ones(2, np.uint8)), _SMALL_CODE),
    ("tolerable_rate", "curve", Callable, lambda v: tolerable_rate(v), lambda e: 0.1 - e),
]


@pytest.mark.parametrize(
    "name, kind, call, good",
    [pytest.param(name, kind, call, good, id=f"{where}-{name}") for where, name, kind, call, good in _INSTANCE_ARGUMENTS],
)
def test_object_arguments_take_their_type_only(name, kind, call, good):
    for bad in ("x", None, 0.5, (0.25, 0.25, 0.25, 0.25)):
        with pytest.raises(ValueError, match=f"^{name}={re.escape(repr(bad))} must be a {kind.__name__}$"):
            call(bad)
    call(good)


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
