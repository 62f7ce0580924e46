"""Two-way reconciliation sessions end to end.

Small instances run run_ir with the exact decoder ml_decode patched in for
protocol.bp_decode, so every protocol branch is checked against direct
enumeration; the operating-point runs use the session's decode, one
300-sweep bp_decode per round, at frozen seeds, and one test pins the
bp_decode calls a session makes. Hash claims are verified against the
explicit matrix construction.
"""

import functools
import json
import math
import re

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from qkdpost.blocks import parity_seq, partition, second_bit_seq
from qkdpost.channel import BellDiagonal, bb84_family, derived_dists, sample_pair, six_state_point
from qkdpost.codes import ParityCheck, bp_decode, code_for_rate, ml_decode
from qkdpost.entropy import binary_entropy, shannon_entropy, type_deviation_bound
from qkdpost.keyrate import bb84_rate, rate_proposed
from qkdpost.protocol import (
    ALICE_TO_BOB,
    BOB_TO_ALICE,
    Message,
    SessionConfig,
    SessionPlan,
    Transcript,
    key_length,
    parameter_estimation,
    plan_session,
    run_full_session,
    run_ir,
    toeplitz_hash,
)
from test_codes import dense_code


def _labels(transcript):
    return tuple(m.label for m in transcript.messages)


def _message(transcript, label):
    """The transcript's message with this label, or None."""
    return next((m for m in transcript.messages if m.label == label), None)


def test_parameter_estimation_accepts():
    x = np.array([0, 1, 1, 0], dtype=np.uint8)
    out = parameter_estimation(x, x.copy())
    assert out == 0.0
    assert SessionConfig(channel=BellDiagonal(1.0, 0.0, 0.0, 0.0), abort_tolerance=0.01).accepts(out)


def test_parameter_estimation_aborts():
    x = np.array([0, 1, 1, 0], dtype=np.uint8)
    out = parameter_estimation(x, x ^ 1)
    assert out == 1.0
    assert not SessionConfig(channel=six_state_point(0.05), abort_tolerance=0.02).accepts(out)


def test_accepts_boundary():
    # Exactly representable values: the tolerance's edge is accepted, one
    # step of 2^-10 past it is not, on either side of the nominal rate.
    cfg = SessionConfig(channel=BellDiagonal(0.75, 0.25, 0.0, 0.0), abort_tolerance=0.125)
    assert cfg.channel.bit_flip_rate() == 0.25
    assert cfg.accepts(0.375) and cfg.accepts(0.125)
    assert not cfg.accepts(0.375 + 2**-10) and not cfg.accepts(0.125 - 2**-10)


def test_parameter_estimation_validation():
    x = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError):
        parameter_estimation(x, np.zeros(3, dtype=np.uint8))
    with pytest.raises(ValueError):
        parameter_estimation(np.zeros(0, dtype=np.uint8), np.zeros(0, dtype=np.uint8))


def test_parameter_estimation_abort_rate():
    # The type-class proxy bound uses L1 radius 2*tol on a binary alphabet.
    # It is vacuous at this sample size, so also pin an empirical ceiling.
    cfg = SessionConfig(channel=six_state_point(0.05), m=10_000, abort_tolerance=0.02)
    rng = np.random.default_rng(15)
    aborts = 0
    trials = 100
    for _ in range(trials):
        x, y = sample_pair(cfg.channel, cfg.m, rng)
        aborts += not cfg.accepts(parameter_estimation(x, y))
    assert aborts / trials <= type_deviation_bound(cfg.m, 2.0 * cfg.abort_tolerance, 2)
    assert aborts / trials <= 0.05


def test_toeplitz_zero_input():
    rng = np.random.default_rng(16)
    seed = rng.integers(0, 2, size=24 + 8 - 1, dtype=np.uint8)
    out = toeplitz_hash(seed, np.zeros(24, dtype=np.uint8), 8)
    assert out.size == 8
    assert not out.any()


def test_toeplitz_linearity():
    rng = np.random.default_rng(17)
    for _ in range(20):
        seed = rng.integers(0, 2, size=40 + 16 - 1, dtype=np.uint8)
        a = rng.integers(0, 2, size=40, dtype=np.uint8)
        b = rng.integers(0, 2, size=40, dtype=np.uint8)
        lhs = toeplitz_hash(seed, a ^ b, 16)
        rhs = toeplitz_hash(seed, a, 16) ^ toeplitz_hash(seed, b, 16)
        assert np.array_equal(lhs, rhs)


@st.composite
def toeplitz_cases(draw):
    """(seed, value, ell) with len(value) up to 2000 and ell in [0, len(value)]."""
    n = draw(st.integers(1, 2000))
    ell = draw(st.integers(0, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    density = draw(st.sampled_from((0.5, 0.02, 1.0)))
    value = (rng.random(n) < density).astype(np.uint8)
    seed = rng.integers(0, 2, size=n + ell - 1, dtype=np.uint8)
    return seed, value, ell


@settings(deadline=None)
@given(toeplitz_cases())
def test_toeplitz_matches_explicit_matrix(case):
    seed, value, ell = case
    n = value.size
    # entry (i, j) of the ell x n matrix is seed[i - j + n - 1]
    matrix = seed[np.arange(ell)[:, None] - np.arange(n)[None, :] + n - 1]
    expected = (np.count_nonzero(matrix & value, axis=1) & 1).astype(np.uint8)
    assert np.array_equal(toeplitz_hash(seed, value, ell), expected)


@pytest.mark.parametrize("n,ell,circular", [
    (1000, 81, 1080),  # 1080-bit seed is 5-smooth: no padding, wrap at the seed's end
    (1000, 10, 1024),  # 1009-bit seed is prime: padded
    (1000, 1000, 2000),  # ell == n, 1999-bit prime seed
    (1, 1, 1),
    (2000, 1, 2000),  # ell == 1 on a 5-smooth seed
    (997, 1, 1000),  # ell == 1 on a prime seed
])
def test_toeplitz_circular_length_boundaries(n, ell, circular):
    # The hash wraps at the circular length; windows next to the wrap must
    # still equal the explicit matrix, with random and all-ones bits (the
    # largest sums).
    assert scipy.fft.next_fast_len(n + ell - 1, real=True) == circular
    rng = np.random.default_rng(n + ell)
    rows = np.arange(ell)[:, None] - np.arange(n)[None, :] + n - 1
    for seed, value in (
        (rng.integers(0, 2, size=n + ell - 1, dtype=np.uint8), rng.integers(0, 2, size=n, dtype=np.uint8)),
        (np.ones(n + ell - 1, dtype=np.uint8), np.ones(n, dtype=np.uint8)),
    ):
        expected = (np.count_nonzero(seed[rows] & value, axis=1) & 1).astype(np.uint8)
        assert np.array_equal(toeplitz_hash(seed, value, ell), expected)


def test_toeplitz_exact_at_2_20_bits():
    # At 2^20 input bits the float convolution sums reach ~2^19; sampled
    # rows must still equal the exact GF(2) dot product of their window.
    rng = np.random.default_rng(19)
    n = 1 << 20
    ell = 566_231  # 0.54 of the input, the key fraction at the default point
    value = rng.integers(0, 2, size=n, dtype=np.uint8)
    seed = rng.integers(0, 2, size=n + ell - 1, dtype=np.uint8)
    out = toeplitz_hash(seed, value, ell)
    assert out.size == ell
    rows = np.concatenate([[0, ell - 1], rng.integers(0, ell, size=62)])
    for i in rows:
        # row i is seed[i + n - 1], ..., seed[i]: its window reversed
        window = seed[i : i + n][::-1]
        assert out[i] == np.count_nonzero(window & value) & 1, i


def test_toeplitz_validation():
    value = np.zeros(10, dtype=np.uint8)
    with pytest.raises(ValueError):
        toeplitz_hash(np.zeros(10, dtype=np.uint8), value, 4)
    with pytest.raises(ValueError):
        toeplitz_hash(np.zeros(20, dtype=np.uint8), value, 11)
    with pytest.raises(ValueError):
        toeplitz_hash(np.zeros(8, dtype=np.uint8), value, -1)
    empty = toeplitz_hash(np.zeros(9, dtype=np.uint8), value, 0)
    assert empty.size == 0


def test_toeplitz_rejects_non_integer_length():
    value = np.ones(4, dtype=np.uint8)
    seed = np.zeros(5, dtype=np.uint8)
    for bad in (2.0, True, False, "2"):
        with pytest.raises(ValueError, match=f"ell={bad!r} must be an integer"):
            toeplitz_hash(seed, value, bad)
    for good in (np.int64(2), np.uint8(2)):
        assert toeplitz_hash(seed, value, good).tolist() == [0, 0]


def test_toeplitz_collision_rate():
    # By linearity a pair collides iff their difference hashes to zero; each
    # nonzero difference collides on exactly 1/8 of all seeds. 500 sampled
    # seeds put the worst of the 63 difference classes within 0.21.
    rng = np.random.default_rng(14)
    seeds = rng.integers(0, 2, size=(500, 6 + 3 - 1), dtype=np.uint8)
    worst = 0.0
    for dval in range(1, 64):
        d = np.array([(dval >> (5 - i)) & 1 for i in range(6)], dtype=np.uint8)
        coll = sum(1 for s in seeds if not toeplitz_hash(s, d, 3).any())
        worst = max(worst, coll / 500)
    assert worst <= 0.21


def test_key_length():
    noiseless = BellDiagonal(1.0, 0.0, 0.0, 0.0)
    assert key_length(noiseless, 500, margin=0.0) == 1000
    assert key_length(noiseless, 500, margin=2.0) == 0
    n = 50_000
    ell = key_length(six_state_point(0.05), n, margin=0.02)
    target = rate_proposed(six_state_point(0.05)) - 0.02
    assert abs(ell / (2 * n) - target) <= 1.0 / (2 * n)
    with pytest.raises(ValueError):
        key_length(noiseless, 500, margin=-0.1)
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match=f"margin={bad}"):
            key_length(noiseless, 500, margin=bad)
    with pytest.raises(ValueError):
        key_length(noiseless, 0, margin=0.0)


def _plan(n0_bounds, crossovers, rate2=0.5):
    """A plan for run_ir, which reads its window, both crossovers and round
    two's rate; the point, round one's rate and the key length go unread."""
    return SessionPlan(point=six_state_point(0.05), rates=(0.5, rate2), crossovers=crossovers,
                       n0_bounds=n0_bounds, key_bits=0)


def test_run_ir_noiseless():
    rng = np.random.default_rng(19)
    n = 64
    x = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    code1 = dense_code(n, 0.5, seed=20)
    ir = run_ir(x, x.copy(), code1, _plan((0, n), (0.01, 0.01), rate2=0.2),
                rng_code2=np.random.default_rng(21), rng=np.random.default_rng(21))
    assert ir.reconciliation_ok
    assert ir.n_hat0 == n
    assert not ir.bounds_violated
    assert ir.decode1.iterations == 0
    assert not ir.decode1.error_estimate.any()
    assert _labels(ir.transcript) == ("t1", "w1hat", "t2")
    assert ir.leak_bits == code1.m + math.ceil(n * 0.2)
    expected = np.empty(2 * n, dtype=np.uint8)
    expected[0::2] = parity_seq(x)
    expected[1::2] = second_bit_seq(x, np.zeros(n, dtype=np.uint8))
    assert np.array_equal(ir.u_hat, expected)
    assert np.array_equal(ir.u_tilde, expected)


@pytest.fixture
def exact_decode(monkeypatch):
    """run_ir decodes both rounds with ml_decode in place of bp_decode."""
    monkeypatch.setattr("qkdpost.protocol.bp_decode",
                        lambda code, t, crossover, max_iters: ml_decode(code, t))


def test_run_ir_single_block_error(exact_decode):
    # One flipped raw bit gives a weight-1 parity discrepancy; the seed-7
    # dense code decodes every weight-1 coset uniquely, checked on the spot.
    rng = np.random.default_rng(22)
    n = 8
    code1 = dense_code(n, 0.5, seed=7)
    x = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    y = x.copy()
    y[6] ^= 1
    w1_true = parity_seq(x ^ y)
    assert w1_true.tolist() == [0, 0, 0, 1, 0, 0, 0, 0]
    dense = code1.to_dense()
    target = tuple(code1.syndrome(w1_true))
    matches = [
        v for v in range(2**n)
        if tuple(dense @ np.array([(v >> (n - 1 - i)) & 1 for i in range(n)], dtype=np.uint8) % 2)
        == target and bin(v).count("1") <= 1
    ]
    assert matches == [0b00010000]
    ir = run_ir(x, y, code1, _plan((0, n), (0.1, 0.01)),
                rng_code2=np.random.default_rng(23), rng=np.random.default_rng(23))
    assert np.array_equal(_message(ir.transcript, "w1hat").payload, w1_true)
    assert ir.n_hat0 == 7
    assert ir.reconciliation_ok
    u_true = np.empty(2 * n, dtype=np.uint8)
    u_true[0::2] = parity_seq(x)
    u_true[1::2] = second_bit_seq(x, w1_true)
    assert np.array_equal(ir.u_hat, u_true)


def test_run_ir_bounds_violation_guess(exact_decode):
    rng = np.random.default_rng(24)
    n = 16
    code1 = dense_code(n, 0.5, seed=25)
    x = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    y = x.copy()
    y[10] ^= 1
    ir = run_ir(x, y, code1, _plan((n, n), (0.05, 0.01)),
                rng_code2=np.random.default_rng(26), rng=np.random.default_rng(27))
    assert ir.bounds_violated
    assert ir.decode2 is None
    assert _labels(ir.transcript) == ("t1", "w1hat")
    assert ir.leak_bits == code1.m
    assert not ir.reconciliation_ok


def test_run_ir_no_survivors(exact_decode):
    # Flipping one raw bit per block discards every second bit; with an
    # identity round-one code the parity discrepancies decode exactly, the
    # second round never runs, and both outputs still agree.
    rng = np.random.default_rng(28)
    n = 8
    code1 = ParityCheck.from_dense(np.eye(n, dtype=np.uint8))
    x = rng.integers(0, 2, size=2 * n, dtype=np.uint8)
    y = x.copy()
    y[0::2] ^= 1
    ir = run_ir(x, y, code1, _plan((0, n), (0.3, 0.01)),
                rng_code2=np.random.default_rng(29), rng=np.random.default_rng(29))
    assert ir.n_hat0 == 0
    assert not ir.bounds_violated
    assert ir.decode2 is None
    assert _labels(ir.transcript) == ("t1", "w1hat")
    assert ir.leak_bits == n
    assert ir.reconciliation_ok
    assert not ir.u_hat[1::2].any()


def test_run_ir_validation():
    n = 8
    code1 = dense_code(n, 0.5, seed=30)
    x = np.zeros(2 * n, dtype=np.uint8)
    plan = _plan((0, n), (0.1, 0.1))
    rng = np.random.default_rng(32)
    with pytest.raises(ValueError):
        run_ir(x, np.zeros(2 * n - 1, dtype=np.uint8), code1, plan, rng, rng)
    with pytest.raises(ValueError):
        run_ir(np.zeros(2 * n + 2, dtype=np.uint8), np.zeros(2 * n + 2, dtype=np.uint8),
               code1, plan, rng, rng)
    # The window is read with the count rule: a fraction is not truncated.
    bad_windows = (((5, 3), "n0_bounds[1]=3 must be >= 5"),
                   ((0, n + 1), "n0_bounds[1]=9 must be at most 8"),
                   ((-1, 4), "n0_bounds[0]=-1 must be >= 0"),
                   ((0.5, 4.9), "n0_bounds[0]=0.5 must be an integer"),
                   ((0, 4.9), "n0_bounds[1]=4.9 must be an integer"),
                   ((None, 4), "n0_bounds[0]=None must be an integer"))
    for bounds, message in bad_windows:
        with pytest.raises(ValueError, match=re.escape(message)):
            run_ir(x, x, code1, plan._replace(n0_bounds=bounds), rng, rng)
    with pytest.raises(TypeError, match="rng"):
        run_ir(x, x, code1, plan, rng)


def test_run_ir_checks_a_hand_built_plan(monkeypatch):
    # Every plan field run_ir reads is checked before t1 is sent, so a bad
    # round-two field fails even when round two would not run: this plan's
    # (0, 0) window is missed by all 8 survivors.
    n = 8
    code1 = ParityCheck.from_dense(np.eye(n, dtype=np.uint8))
    x = np.zeros(2 * n, dtype=np.uint8)
    rng = np.random.default_rng(47)
    sent = []
    monkeypatch.setattr("qkdpost.protocol.Message",
                        lambda label, payload: sent.append(label) or Message(label, payload))
    plan = SessionPlan(point=six_state_point(0.05), rates=(0.5, 1.5), crossovers=(0.1, None),
                       n0_bounds=(0, 0), key_bits=0)
    fixed = plan._replace(crossovers=(0.1, 0.01))
    bad_fields = ((plan, "plan.crossovers[1]=None must be a real number"),
                  (fixed, "plan.rates[1]=1.5 must be in (0, 1)"),
                  (fixed._replace(rates=(0.5, True)), "plan.rates[1]=True must be a real number"),
                  (fixed._replace(crossovers=(0.5, 0.01)), "plan.crossovers[0]=0.5 must be in (0, 1/2)"),
                  (fixed._replace(crossovers=(0.1, math.nan)), "plan.crossovers[1]=nan must be in (0, 1/2)"))
    for bad, message in bad_fields:
        with pytest.raises(ValueError, match=re.escape(message)):
            run_ir(x, x, code1, bad, rng, rng)
    assert sent == []


def test_run_ir_reads_its_plan(monkeypatch):
    # The rounds differ in rate and crossover, so a swap between them shows;
    # one flipped raw bit leaves 63 survivors and no round-two noise.
    built, crossovers = [], []

    def recorded_code(n, rate, rng):
        built.append((n, rate, code_for_rate(n, rate, rng=rng)))
        return built[-1][2]

    def recorded_decode(code, t, crossover, **kwargs):
        crossovers.append(crossover)
        return bp_decode(code, t, crossover, **kwargs)

    n = 64
    code1 = code_for_rate(n, 0.6, rng=np.random.default_rng(43))
    monkeypatch.setattr("qkdpost.protocol.code_for_rate", recorded_code)
    monkeypatch.setattr("qkdpost.protocol.bp_decode", recorded_decode)
    plan = _plan((0, n), (0.02, 0.004), rate2=0.3)
    x = np.random.default_rng(44).integers(0, 2, size=2 * n, dtype=np.uint8)
    y = x.copy()
    y[10] ^= 1
    ir = run_ir(x, y, code1, plan, np.random.default_rng(45), np.random.default_rng(46))
    assert ir.reconciliation_ok and ir.n_hat0 == n - 1
    assert [(size, rate) for size, rate, _ in built] == [(ir.n_hat0, plan.rates[1])]
    reference = code_for_rate(ir.n_hat0, plan.rates[1], rng=np.random.default_rng(45))
    assert np.array_equal(built[0][2].to_dense(), reference.to_dense())
    assert tuple(crossovers) == plan.crossovers
    assert ir.leak_bits == code1.m + reference.m


def test_run_ir_operating_point():
    # Six-state nominal laws at e = 0.05: parity discrepancy rate 0.095,
    # surviving-bit rate 0.0025/0.905, both codes at entropy + 0.05.
    n = 50_000
    p = six_state_point(0.05)
    c1, c2 = 0.095, 0.0025 / 0.905
    rate1 = binary_entropy(c1) + 0.05
    rate2 = binary_entropy(c2) + 0.05
    code1 = code_for_rate(n, rate1, rng=np.random.default_rng(33))
    plan = SessionPlan(point=p, rates=(rate1, rate2), crossovers=(c1, c2),
                       n0_bounds=(math.floor(n * (0.905 - 0.05)), math.ceil(n * (0.905 + 0.05))),
                       key_bits=key_length(p, n, 0.0))
    rng = np.random.default_rng(34)
    for _ in range(3):
        x, y = sample_pair(p, 2 * n, rng)
        ir = run_ir(x, y, code1, plan, np.random.default_rng(35), np.random.default_rng(36))
        assert ir.reconciliation_ok
        assert not ir.bounds_violated
        assert abs(ir.n_hat0 / n - 0.905) <= 0.01
        assert ir.leak_bits == code1.m + math.ceil(ir.n_hat0 * rate2)


def test_exact_and_starved_decoders():
    code = dense_code(12, 0.5, seed=36)
    res = ml_decode(code, np.zeros(code.m, dtype=np.uint8))
    assert res.converged
    assert not res.error_estimate.any()
    # An unsatisfiable iteration budget reports failure instead of raising.
    hard = code_for_rate(18, 0.45, rng=np.random.default_rng(37))
    starved = functools.partial(bp_decode, max_iters=1)
    seen_failure = False
    rng = np.random.default_rng(38)
    for _ in range(20):
        t = rng.integers(0, 2, size=hard.m, dtype=np.uint8)
        out = starved(hard, t, 0.3)
        seen_failure |= not out.converged
    assert seen_failure


def _unconverged(code, t, crossover, **kwargs):
    """bp_decode, reporting non-convergence whatever it found."""
    return bp_decode(code, t, crossover, **kwargs)._replace(converged=False)


@pytest.mark.parametrize("fail_first", [False, True])
def test_session_decode_call_pattern(monkeypatch, fail_first):
    # Each round makes one 300-sweep pass, and a round-one pass that does
    # not converge ends the run. The benchmark's session check reads a
    # session's BP calls as one per round, seen through the same
    # protocol.bp_decode binding that is patched here.
    calls = []

    def recorded(code, t, crossover, **kwargs):
        calls.append(kwargs)
        return (_unconverged if fail_first else bp_decode)(code, t, crossover, **kwargs)

    monkeypatch.setattr("qkdpost.protocol.bp_decode", recorded)
    n = 16
    code1 = dense_code(n, 0.5, seed=39)
    x = np.random.default_rng(40).integers(0, 2, size=2 * n, dtype=np.uint8)
    ir = run_ir(x, x.copy(), code1, _plan((0, n), (0.1, 0.01)), np.random.default_rng(41),
                np.random.default_rng(42))
    assert calls == [{"max_iters": 300}] * (1 if fail_first else 2)
    if fail_first:
        assert _labels(ir.transcript) == ("t1",)
        assert ir.leak_bits == code1.m
        assert ir.n_hat0 == 0 and not ir.bounds_violated
        assert not ir.decode1.converged and ir.decode2 is None
        assert not ir.reconciliation_ok
    else:
        assert ir.decode1.converged and ir.decode2.converged
        assert ir.reconciliation_ok


def test_criterion_08_trial_96_decodes_in_its_first_pass():
    # Criterion 08's slowest trial: the flooding schedule needed its
    # 300-iteration first pass and 221 damped iterations of the retry; the
    # group-shuffled schedule converges to the true parities in the first.
    n = 50_000
    code = code_for_rate(n, binary_entropy(0.095) + 0.05, rng=np.random.default_rng(800))
    stream = np.random.SeedSequence(2026).spawn(100)[96]
    x, y = sample_pair(six_state_point(0.05), 2 * n, np.random.default_rng(stream.spawn(4)[0]))
    w1 = parity_seq(x ^ y)
    res = bp_decode(code, code.syndrome(w1), 0.095, max_iters=300)
    assert (res.converged, res.iterations) == (True, 181)
    assert np.array_equal(res.error_estimate, w1)


@settings(deadline=None, max_examples=60)
@given(
    st.integers(2, 14),
    st.floats(0.2, 0.8),
    st.integers(0, 2**32 - 1),
    st.floats(0.01, 0.45),
    st.data(),
)
def test_converged_decode_matches_syndrome(n, rate, code_seed, crossover, data):
    # The session's decode, exhaustive ML and a starved BP on small
    # codes: whatever the decoder, converged=True means the syndrome is
    # matched.
    code = code_for_rate(n, rate, rng=np.random.default_rng(code_seed))
    bits = data.draw(st.lists(st.integers(0, 1), min_size=code.m, max_size=code.m))
    t = np.array(bits, dtype=np.uint8)
    session_decode = functools.partial(bp_decode, crossover=crossover, max_iters=300)
    starved_decode = functools.partial(bp_decode, crossover=crossover, max_iters=1)
    for decode in (session_decode, ml_decode, starved_decode):
        res = decode(code, t)
        if res.converged:
            assert np.array_equal(code.syndrome(res.error_estimate), t), decode


def test_message_and_transcript_contracts():
    with pytest.raises(ValueError):
        Message("t3", np.zeros(4, dtype=np.uint8))
    t1 = Message("t1", np.array([1, 0, 1, 1], dtype=np.uint8))
    w1 = Message("w1hat", np.zeros(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        Transcript((w1, t1))
    for bad in ("t1", None, (t1,)):
        with pytest.raises(ValueError, match="is not a Message"):
            Transcript((bad,))
        with pytest.raises(ValueError, match="is not a Message"):
            Transcript((t1, bad))
    transcript = Transcript((t1, w1))
    assert _labels(transcript) == ("t1", "w1hat")
    assert _message(transcript, "t1") is t1
    assert _message(transcript, "t2") is None
    record = t1.to_dict()
    assert record["bits"] == 4
    assert record["payload_hex"] == "b0"
    assert list(record) == ["direction", "label", "bits", "payload_hex"]
    assert record["direction"] == ALICE_TO_BOB
    assert w1.to_dict()["direction"] == BOB_TO_ALICE


def test_session_config_validation():
    channel = six_state_point(0.05)
    for bad in (0, math.nan):
        with pytest.raises(ValueError, match=f"n={bad} must be"):
            SessionConfig(channel=channel, n=bad)
    with pytest.raises(ValueError):
        SessionConfig(channel=channel, m=3)
    with pytest.raises(ValueError):
        SessionConfig(channel=channel, delta=0.0)
    with pytest.raises(ValueError):
        SessionConfig(channel=channel, abort_tolerance=-0.1)
    with pytest.raises(ValueError):
        SessionConfig(channel=channel, finite_size_margin=-0.1)
    with pytest.raises(ValueError, match="delta=1.0"):
        SessionConfig(channel=channel, delta=1.0)
    for name in ("delta", "abort_tolerance", "finite_size_margin"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=f"{name}={bad}"):
                SessionConfig(channel=channel, **{name: bad})
    non_reals = (("delta", "0.05"), ("delta", None), ("abort_tolerance", None), ("abort_tolerance", "0.02"),
                 ("abort_tolerance", True), ("finite_size_margin", None), ("finite_size_margin", False))
    for name, bad in non_reals:
        with pytest.raises(ValueError, match=re.escape(f"{name}={bad!r} must be a real number")):
            SessionConfig(channel=channel, **{name: bad})
    SessionConfig(channel=channel, delta=np.float32(0.05), abort_tolerance=0, finite_size_margin=np.float64(0.1))
    with pytest.raises(ValueError):
        SessionConfig(channel=channel, mapping="b92")
    non_integers = (("n", 1000.5), ("n", 2000.0), ("n", True), ("n", None), ("m", 200.0), ("m", None),
                    ("seed", 1.5), ("seed", False), ("seed", None))
    for name, bad in non_integers:
        with pytest.raises(ValueError, match=f"{name}={bad!r} must be an integer"):
            SessionConfig(channel=channel, **{name: bad})
    with pytest.raises(ValueError, match="seed=-1 must be >= 0"):
        SessionConfig(channel=channel, seed=-1)
    for bad in (0.05, None, (1.0, 0.0, 0.0, 0.0)):
        with pytest.raises(ValueError, match=re.escape(f"channel={bad!r} must be a BellDiagonal")):
            SessionConfig(channel=bad)
    SessionConfig(channel=channel, n=np.int64(2000), m=np.int32(200), seed=np.uint64(2**64 - 1))
    SessionConfig(channel=channel, n=10**6, m=10**6)
    for name in ("n", "m"):
        with pytest.raises(ValueError, match=f"{name}=1000002 must be at most 1000000"):
            SessionConfig(channel=channel, **{name: 10**6 + 2})


def _sizing_law_by_law(estimate, cfg):
    """The session's sizing written out one law at a time, as a second
    statement of the formulas plan_session applies to both laws at once."""
    if cfg.mapping == "six-state":
        point = six_state_point(estimate)
    else:
        _, p11_star = bb84_rate(estimate, "proposed")
        point = bb84_family(estimate, p11_star)
    w1, w2 = derived_dists(point)
    floor = 1e-12
    return {
        "point": point,
        "rates": (shannon_entropy(w1) + cfg.delta, shannon_entropy(w2) + cfg.delta),
        "crossovers": (min(max(w1(1), floor), 0.5 - floor), min(max(w2(1), floor), 0.5 - floor)),
        "n0_bounds": (max(0, math.floor(cfg.n * (w1(0) - cfg.delta))),
                      min(cfg.n, math.ceil(cfg.n * (w1(0) + cfg.delta)))),
        "key_bits": key_length(point, cfg.n, cfg.finite_size_margin),
    }


_DEFAULT_RATES = (0.5029425481872832, 0.07746007297749057)
_DEFAULT_CROSSOVERS = (0.095, 0.0027624309392265197)


@pytest.mark.parametrize(
    "estimate, cfg, rates, crossovers, n0_bounds, key_bits",
    [
        (0.05, SessionConfig(channel=six_state_point(0.05)),
         _DEFAULT_RATES, _DEFAULT_CROSSOVERS, (42_750, 47_750), 54_431),
        (0.05, SessionConfig(channel=six_state_point(0.05), mapping="bb84"),
         _DEFAULT_RATES, _DEFAULT_CROSSOVERS, (42_750, 47_750), 44_472),
        (0.0, SessionConfig(channel=BellDiagonal(1.0, 0.0, 0.0, 0.0), n=2000, m=2000, seed=5),
         (0.05, 0.05), (1e-12, 1e-12), (1900, 2000), 4000),
    ],
    ids=["six-state", "bb84", "noiseless"],
)
def test_plan_session_pinned(estimate, cfg, rates, crossovers, n0_bounds, key_bits):
    # Sizing needs no code and no decode: each pin is checked against the
    # plan and against the formulas written out law by law.
    plan = plan_session(estimate, cfg)
    assert plan.rates == pytest.approx(rates, rel=1e-12, abs=0)
    assert plan.crossovers == pytest.approx(crossovers, rel=1e-12, abs=0)
    assert plan.n0_bounds == n0_bounds
    assert plan.key_bits == key_bits
    assert plan == SessionPlan(**_sizing_law_by_law(estimate, cfg))
    assert plan == plan_session(estimate, cfg)
    if cfg.mapping == "bb84":
        assert plan.point == bb84_family(0.05, bb84_rate(0.05)[1])
        assert plan.point.p11 == pytest.approx(2.92e-4, rel=1e-3)
    else:
        assert plan.point == six_state_point(estimate)


@pytest.mark.parametrize(
    "channel, seed",
    [(BellDiagonal(1.0, 0.0, 0.0, 0.0), 5), (six_state_point(0.05), 0)],
    ids=["noiseless", "six-state"],
)
def test_full_session_follows_its_plan(monkeypatch, channel, seed):
    # At e = 0.05 the rounds differ in rate and crossover, so a swap between
    # them shows; both seeds reconcile at n = 2000.
    code_rates, crossovers = [], []

    def recorded_code(n, rate, rng):
        code_rates.append(rate)
        return code_for_rate(n, rate, rng=rng)

    def recorded_decode(code, t, crossover, **kwargs):
        crossovers.append(crossover)
        return bp_decode(code, t, crossover, **kwargs)

    monkeypatch.setattr("qkdpost.protocol.code_for_rate", recorded_code)
    monkeypatch.setattr("qkdpost.protocol.bp_decode", recorded_decode)
    cfg = SessionConfig(channel=channel, n=2000, m=2000, seed=seed)
    report = run_full_session(cfg)
    plan = plan_session(report.estimated_e, cfg)
    assert report.key_match and _labels(report.transcript) == ("t1", "w1hat", "t2", "hash_seed")
    assert tuple(code_rates) == plan.rates
    assert tuple(crossovers) == plan.crossovers
    assert plan.n0_bounds[0] <= report.n_hat0 <= plan.n0_bounds[1]
    assert report.leak_bits == math.ceil(cfg.n * plan.rates[0]) + math.ceil(report.n_hat0 * plan.rates[1])
    assert report.key_alice.size == plan.key_bits


def test_full_session_noiseless():
    cfg = SessionConfig(channel=BellDiagonal(1.0, 0.0, 0.0, 0.0), n=2000, m=2000, seed=5)
    report = run_full_session(cfg)
    assert not report.aborted
    assert report.nominal_e == 0.0
    assert report.estimated_e == 0.0
    assert report.reconciliation_ok
    assert report.key_match
    assert report.n_hat0 == 2000
    assert report.decode1_converged and report.decode2_converged
    assert _labels(report.transcript) == ("t1", "w1hat", "t2", "hash_seed")
    assert report.leak_bits == 2 * math.ceil(2000 * 0.05)
    assert report.key_alice.size == 4000
    assert abs(report.empirical_key_rate - 1.0) <= 1.0 / 4000


def test_full_session_margin_deduction():
    for margin, key_bits in ((0.25, 3000), (1.0, 0)):
        cfg = SessionConfig(
            channel=BellDiagonal(1.0, 0.0, 0.0, 0.0),
            n=2000, m=2000, seed=5, finite_size_margin=margin,
        )
        report = run_full_session(cfg)
        assert report.reconciliation_ok
        assert report.key_alice.size == key_bits
        assert abs(report.empirical_key_rate - key_bits / 4000) <= 1.0 / 4000
        # Two empty keys are equal, but no key was matched.
        assert report.key_match == (key_bits > 0)


def test_full_session_abort():
    cfg = SessionConfig(
        channel=six_state_point(0.05), n=500, m=2000, abort_tolerance=1e-9, seed=3,
    )
    report = run_full_session(cfg)
    assert report.aborted
    assert report.estimated_e != report.nominal_e
    assert report.key_alice.size == 0
    assert report.key_bob.size == 0
    assert report.leak_bits == 0
    assert _labels(report.transcript) == ()
    assert not report.key_match
    assert report.empirical_key_rate == 0.0
    assert report.decode1_converged is None
    with pytest.raises(ValueError, match="read-only"):
        report.key_alice[:] = 1


def test_full_session_stops_after_failed_round_one(monkeypatch):
    # Bob's decode misses the round-one syndrome, so Bob knows the estimate
    # is wrong: the session sends no w1hat, t2 or hash seed and keeps no key.
    monkeypatch.setattr("qkdpost.protocol.bp_decode", _unconverged)
    report = run_full_session(SessionConfig(channel=six_state_point(0.05), n=1000, m=2000, seed=4))
    assert not report.aborted
    assert _labels(report.transcript) == ("t1",)
    assert report.leak_bits == _message(report.transcript, "t1").payload.size > 0
    assert report.key_alice.size == report.key_bob.size == 0
    assert not report.key_match and not report.reconciliation_ok
    assert report.decode1_converged is False
    assert report.decode2_converged is None


def test_full_session_determinism():
    cfg = SessionConfig(channel=BellDiagonal(1.0, 0.0, 0.0, 0.0), n=1000, m=2000, seed=9)
    first = json.dumps(run_full_session(cfg).to_dict())
    second = json.dumps(run_full_session(cfg).to_dict())
    assert first == second
    other = json.dumps(run_full_session(
        SessionConfig(channel=BellDiagonal(1.0, 0.0, 0.0, 0.0), n=1000, m=2000, seed=10)
    ).to_dict())
    assert first != other


def test_full_session_bb84_mapping():
    cfg = SessionConfig(
        channel=BellDiagonal(1.0, 0.0, 0.0, 0.0), n=1000, m=2000, seed=11, mapping="bb84",
    )
    report = run_full_session(cfg)
    assert not report.aborted
    assert report.key_match
    assert report.empirical_key_rate == pytest.approx(1.0, abs=1e-3)


def test_full_session_operating_point():
    cfg = SessionConfig(channel=six_state_point(0.05), n=50_000, m=20_000, seed=0)
    report = run_full_session(cfg)
    assert not report.aborted
    assert report.reconciliation_ok
    assert report.key_match
    assert abs(report.n_hat0 / 50_000 - 0.905) <= 0.01
    t1 = _message(report.transcript, "t1")
    t2 = _message(report.transcript, "t2")
    assert report.leak_bits == t1.payload.size + t2.payload.size
    rate = rate_proposed(six_state_point(report.estimated_e))
    assert abs(report.empirical_key_rate - rate) <= 1.0 / (2 * 50_000)


def test_small_sessions_reconcile():
    # Small sessions reconcile too: both rounds of an n = 400 session take
    # codes of at most 400 columns. The seeds are the first ten trials of
    # `simulate --seed 7`.
    seeds = np.random.SeedSequence(7).generate_state(10, dtype=np.uint64).tolist()
    matched = sum(
        run_full_session(
            SessionConfig(channel=six_state_point(0.05), n=400, m=2000, seed=int(seed))
        ).key_match
        for seed in seeds
    )
    assert matched >= 5


def test_session_report_json():
    cfg = SessionConfig(channel=BellDiagonal(1.0, 0.0, 0.0, 0.0), n=500, m=2000, seed=12)
    report = run_full_session(cfg)
    decoded = json.loads(json.dumps(report.to_dict()))
    assert decoded["n"] == 500
    assert decoded["key_bits"] == 1000
    assert decoded["key_alice_hex"] == decoded["key_bob_hex"]
    labels = [msg["label"] for msg in decoded["transcript"]["messages"]]
    assert labels == ["t1", "w1hat", "t2", "hash_seed"]
    assert decoded["transcript"]["messages"][0]["direction"] == "alice_to_bob"
