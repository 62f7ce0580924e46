"""Parity-check construction and the two syndrome decoders.

The decoding oracle here is literal: enumerate every error vector, group by
syndrome, and take coset minima. Monte Carlo targets run at frozen seeds;
the bounds were calibrated once against those seeds and hold with margin.
"""

import hashlib
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qkdpost.codes import (
    ParityCheck,
    bp_decode,
    code_for_rate,
    gf2_rank,
    ml_decode,
)
from qkdpost.entropy import binary_entropy


def int_to_bits(val: int, width: int) -> np.ndarray:
    return np.array([(val >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def coset_minima(dense: np.ndarray) -> dict[tuple, int]:
    """Map each reachable syndrome to its minimum coset weight, by brute force."""
    m, n = dense.shape
    minima: dict[tuple, int] = {}
    for val in range(2**n):
        e = int_to_bits(val, n)
        t = tuple((dense @ e) % 2)
        w = int(e.sum())
        if w < minima.get(t, n + 1):
            minima[t] = w
    return minima


def random_dense(m: int, n: int, seed: int) -> ParityCheck:
    rng = np.random.default_rng(seed)
    while True:
        mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        if gf2_rank(mat) == m:
            return ParityCheck.from_dense(mat)


def dense_code(n: int, rate: float, seed: int) -> ParityCheck:
    """A seeded uniform-random m = ceil(n*rate) parity check of full row rank.

    Each draw gives every zero column one random row and is kept once its
    rank is m, within 64 draws. Tests calibrated on these dense matrices
    build their codes here; code_for_rate builds staircase codes.
    """
    m = math.ceil(n * rate)
    rng = np.random.default_rng(seed)
    for _ in range(64):
        mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        # A zero column would leave that bit invisible to the syndrome.
        for j in np.flatnonzero(mat.sum(axis=0) == 0):
            mat[rng.integers(m), j] = 1
        if gf2_rank(mat) == m:
            return ParityCheck.from_dense(mat)
    raise ValueError("no full-rank dense matrix in 64 draws")


@pytest.fixture(scope="module")
def big_code() -> ParityCheck:
    # The construction a session uses at n = 10^4; shared by the large-block
    # BP tests.
    rng = np.random.default_rng(20260819)
    return code_for_rate(10_000, 0.5, rng=rng)


def test_gf2_rank():
    assert gf2_rank(np.eye(5, dtype=np.uint8)) == 5
    assert gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0
    dup = np.array([[1, 0, 1], [1, 0, 1], [0, 1, 0]], dtype=np.uint8)
    assert gf2_rank(dup) == 2


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0)])
def test_gf2_rank_of_an_empty_matrix(shape):
    assert gf2_rank(np.zeros(shape, dtype=np.uint8)) == 0


def test_dense_matrices_follow_the_bit_rule():
    # from_dense and gf2_rank read a matrix as every bit input is read: an
    # entry other than 0 or 1 is a ValueError, neither reduced modulo 2 nor
    # truncated, and a float 0/1 matrix is accepted.
    for bad in ([[2, 1]], [[0.5, 1.0]]):
        with pytest.raises(ValueError, match=r"values outside \{0, 1\}"):
            ParityCheck.from_dense(bad)
        with pytest.raises(ValueError, match=r"values outside \{0, 1\}"):
            gf2_rank(bad)
    assert ParityCheck.from_dense(np.eye(3)).to_dense().tolist() == np.eye(3, dtype=np.uint8).tolist()
    assert gf2_rank(np.eye(3)) == 3


def test_parity_check_validation():
    # ParityCheck(m, n, edge_var, edge_check): entry i is a 1 in column
    # edge_var[i], row edge_check[i].
    with pytest.raises(ValueError):
        ParityCheck(2, 2, [0, 0, 1], [0, 0, 1])
    for edge_var, edge_check in (
        ([0, 1], [0, 2]),  # row out of range
        ([5], [0]),  # column out of range
        ([-1], [0]),  # negative column
        ([0, 1], [0]),  # arrays of different lengths
        ([[0, 1]], [[0, 1]]),  # not 1-d
        ([1, 0], [0, 1]),  # columns out of order
        ([0, 0], [1, 0]),  # rows descending within a column
    ):
        with pytest.raises(ValueError):
            ParityCheck(2, 2, edge_var, edge_check)
    with pytest.raises(ValueError):
        ParityCheck.from_dense(np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8))
    with pytest.raises(ValueError):
        ParityCheck.from_dense(np.zeros(4, dtype=np.uint8))


@st.composite
def edge_lists(draw):
    """(m, n, edge_var, edge_check, v): distinct entries, column-major."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 40))
    cells = draw(st.lists(st.integers(0, m * n - 1), unique=True, max_size=300))
    flat = np.sort(np.array(cells, dtype=np.int64))
    v = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    return m, n, flat // m, flat % m, v


@given(edge_lists())
def test_edge_constructor_matches_dense(case):
    m, n, edge_var, edge_check, v = case
    dense = np.zeros((m, n), dtype=np.uint8)
    dense[edge_check, edge_var] = 1
    code = ParityCheck(m, n, edge_var, edge_check)
    assert np.array_equal(code.to_dense(), dense)
    assert np.array_equal(code.syndrome(v), (dense.astype(np.int64) @ v) % 2)
    # stored column-major, rows ascending within a column, nothing repeated
    keys = code._edge_var * m + code._edge_check
    assert np.all(np.diff(keys) > 0)
    assert keys.size == edge_var.size


def test_syndrome_zero_and_length():
    code = random_dense(4, 12, seed=0)
    assert not code.syndrome(np.zeros(12, dtype=np.uint8)).any()
    with pytest.raises(ValueError):
        code.syndrome(np.zeros(11, dtype=np.uint8))


def test_syndrome_of_codeword_is_zero():
    # Systematic form [I | A]: v = (A x, x) lies in the null space.
    rng = np.random.default_rng(1)
    a = rng.integers(0, 2, size=(5, 9), dtype=np.uint8)
    code = ParityCheck.from_dense(np.hstack([np.eye(5, dtype=np.uint8), a]))
    for _ in range(20):
        x = rng.integers(0, 2, size=9, dtype=np.uint8)
        v = np.concatenate([(a @ x) % 2, x]).astype(np.uint8)
        assert not code.syndrome(v).any()


_LIN_CODE = random_dense(7, 20, seed=2)


@given(st.integers(0, 2**20 - 1), st.integers(0, 2**20 - 1))
def test_syndrome_linearity(va, vb):
    a = int_to_bits(va, 20)
    b = int_to_bits(vb, 20)
    lhs = _LIN_CODE.syndrome(a ^ b)
    rhs = _LIN_CODE.syndrome(a) ^ _LIN_CODE.syndrome(b)
    assert np.array_equal(lhs, rhs)


def test_ml_zero_syndrome():
    code = random_dense(5, 14, seed=3)
    res = ml_decode(code, np.zeros(5, dtype=np.uint8))
    assert res.converged
    assert not res.error_estimate.any()


def test_ml_hamming_weight_one():
    # Columns are the binary expansions of 1..7: distinct weight-1 syndromes.
    dense = np.array(
        [[(j >> b) & 1 for j in range(1, 8)] for b in (2, 1, 0)], dtype=np.uint8
    )
    code = ParityCheck.from_dense(dense)
    minima = coset_minima(dense)
    for pos in range(7):
        e = np.zeros(7, dtype=np.uint8)
        e[pos] = 1
        t = code.syndrome(e)
        assert minima[tuple(t)] == 1
        res = ml_decode(code, t)
        assert np.array_equal(res.error_estimate, e)


def test_ml_coset_minimal_exhaustive():
    for m, n, seed in ((3, 8, 10), (4, 10, 11), (5, 12, 12), (6, 12, 13), (4, 9, 14)):
        code = random_dense(m, n, seed)
        minima = coset_minima(code.to_dense())
        for val in range(2**m):
            t = int_to_bits(val, m)
            res = ml_decode(code, t)
            assert np.array_equal(code.syndrome(res.error_estimate), t)
            assert int(res.error_estimate.sum()) == minima[tuple(t)]


def test_ml_lexicographic_ties():
    pair = ParityCheck.from_dense(np.array([[1, 1]], dtype=np.uint8))
    res = ml_decode(pair, np.array([1], dtype=np.uint8))
    assert res.error_estimate.tolist() == [0, 1]

    triple = ParityCheck.from_dense(np.array([[1, 1, 1]], dtype=np.uint8))
    res = ml_decode(triple, np.array([1], dtype=np.uint8))
    assert res.error_estimate.tolist() == [0, 0, 1]


def test_ml_validation():
    code = random_dense(4, 10, seed=4)
    with pytest.raises(ValueError):
        ml_decode(code, np.zeros(3, dtype=np.uint8))
    wide = ParityCheck.from_dense(np.eye(25, dtype=np.uint8))
    with pytest.raises(ValueError):
        ml_decode(wide, np.zeros(25, dtype=np.uint8))


def test_ml_rate_margin_proxy():
    # Rate h(p) + 0.1 at n = 20; block error stays under 10% at this seed.
    p = 0.01
    n = 20
    code = dense_code(n, binary_entropy(p) + 0.1, seed=4)
    assert code.m == 4
    rng = np.random.default_rng(104)
    errs = 0
    for _ in range(1000):
        e = (rng.random(n) < p).astype(np.uint8)
        res = ml_decode(code, code.syndrome(e))
        errs += not np.array_equal(res.error_estimate, e)
    assert errs / 1000 <= 0.10


def test_bp_zero_syndrome_immediate():
    code = random_dense(6, 18, seed=5)
    res = bp_decode(code, np.zeros(6, dtype=np.uint8), crossover=0.1)
    assert res.converged
    assert res.iterations == 0
    assert not res.error_estimate.any()


def test_bp_validation():
    code = random_dense(4, 10, seed=6)
    t = np.zeros(4, dtype=np.uint8)
    with pytest.raises(ValueError):
        bp_decode(code, t, crossover=0.0)
    with pytest.raises(ValueError):
        bp_decode(code, t, crossover=0.5)
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"max_iters={bad} must be >= 1"):
            bp_decode(code, t, crossover=0.1, max_iters=bad)
    with pytest.raises(ValueError):
        bp_decode(code, np.zeros(5, dtype=np.uint8), crossover=0.1)


def test_bp_never_beats_ml():
    # Paired draws on one small code, decoded by BP as one stack: exact ML
    # bounds BP from below, and any converged BP output must reproduce the
    # target syndrome.
    code = code_for_rate(18, 0.45, rng=np.random.default_rng(7))
    errors = (np.random.default_rng(0).random((1000, 18)) < 0.08).astype(np.uint8)
    syndromes = np.array([code.syndrome(e) for e in errors])
    rb = bp_decode(code, syndromes, crossover=0.08)
    bp_err = ml_err = 0
    for e, t, est, converged in zip(errors, syndromes, rb.error_estimate, rb.converged):
        rm = ml_decode(code, t)
        if converged:
            assert np.array_equal(code.syndrome(est), t)
        bp_err += not (converged and np.array_equal(est, e))
        ml_err += not np.array_equal(rm.error_estimate, e)
    assert 0 < ml_err <= bp_err < 1000


def _decode_digest(results) -> str:
    """sha256 over each result's (error_estimate, converged, iterations)."""
    digest = hashlib.sha256()
    for res in results:
        digest.update(np.asarray(res.error_estimate, dtype=np.uint8).tobytes())
        digest.update(bytes([bool(res.converged)]))
        digest.update(int(res.iterations).to_bytes(4, "little"))
    return digest.hexdigest()


def test_bp_small_decodes_pinned():
    # Rewrites of the BP kernel must not move one output bit: 240 decodes
    # on three small codes, default and starved (max_iters = 1).
    def results():
        for m, n, seed in ((3, 8, 50), (5, 12, 51), (8, 20, 52)):
            code = random_dense(m, n, seed)
            draw = np.random.default_rng(seed + 100)
            for kwargs in ({}, {"max_iters": 1}):
                for _ in range(40):
                    e = (draw.random(n) < 0.15).astype(np.uint8)
                    yield bp_decode(code, code.syndrome(e), 0.12, **kwargs)

    expected = "74b7e78d929b158c6448970174c1c45ba13c8fc0afb0d4e5f7661e23539f37a9"
    assert _decode_digest(results()) == expected


def test_bp_large_decodes_pinned(big_code):
    # A decode that never converges carries every message rounding into
    # its final estimate; the second converges.
    draw = np.random.default_rng(60)
    results = []
    for p, kwargs in ((0.12, {"max_iters": 300}), (0.05, {})):
        e = (draw.random(big_code.n) < p).astype(np.uint8)
        results.append(bp_decode(big_code, big_code.syndrome(e), 0.11, **kwargs))
    assert [(r.converged, r.iterations) for r in results] == [(False, 300), (True, 5)]
    expected = "9ee0639cadcc804d2bc39372f9dcc2319841a412a3fcd9a93986537e56680f5a"
    assert _decode_digest(results) == expected


def test_bp_session_decode_pinned():
    # One round-one-size decode: the code and the noise of a default-point
    # session at its usual parity error fraction.
    rng = np.random.default_rng(1000)
    code = code_for_rate(50_000, binary_entropy(0.095) + 0.05, rng)
    e = (rng.random(code.n) < 0.095).astype(np.uint8)
    res = bp_decode(code, code.syndrome(e), 0.095)
    assert (res.converged, res.iterations) == (True, 21)
    expected = "addf4b86ee85d76b37df2ebd572ab0962caff88910a1922ac9c77c3aa6a07514"
    assert _decode_digest([res]) == expected


def test_bp_saturated_messages_stay_finite():
    # The crossover clamps of run_full_session drive every prior to the
    # message clip or to nearly zero, and a degree-40 check sums 39
    # log-magnitudes; no decode may warn, and a converged one matches.
    dense = np.random.default_rng(70).integers(0, 2, size=(4, 40), dtype=np.uint8)
    dense[0] = 1
    codes = [ParityCheck.from_dense(dense), code_for_rate(400, 0.5, np.random.default_rng(71))]
    assert codes[0].row_degrees()[0] == 40
    draw = np.random.default_rng(72)
    for code in codes:
        rates = np.repeat([0.01, 0.2, 0.5], 8)[:, None]
        errors = (draw.random((rates.size, code.n)) < rates).astype(np.uint8)
        syndromes = np.array([code.syndrome(e) for e in errors])
        syndromes = np.vstack([syndromes, np.ones(code.m, dtype=np.uint8)])
        for crossover in (1e-12, 0.5 - 1e-12):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                res = bp_decode(code, syndromes, crossover, max_iters=50)
            for est, t in zip(res.error_estimate[res.converged], syndromes[res.converged]):
                assert np.array_equal(code.syndrome(est), t)


@st.composite
def decode_stacks(draw):
    """(code, (B, m) syndromes, crossover, max_iters) on a small
    full-rank code; rows mix zero syndromes, error syndromes and arbitrary
    ones. Codes with m < 4 leave some of BP's check groups empty, and n = m
    includes the one-column code [1]."""
    m = draw(st.integers(1, 6))
    n = draw(st.integers(m, 14))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    while True:
        mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        if gf2_rank(mat) == m:
            break
    code = ParityCheck.from_dense(mat)
    rows = []
    for kind in draw(st.lists(st.sampled_from(["zero", "error", "any"]), min_size=1, max_size=12)):
        if kind == "zero":
            rows.append(np.zeros(m, dtype=np.uint8))
        elif kind == "error":
            rows.append(code.syndrome((rng.random(n) < 0.15).astype(np.uint8)))
        else:
            rows.append(rng.integers(0, 2, size=m, dtype=np.uint8))
    crossover = draw(st.floats(0.01, 0.45))
    max_iters = draw(st.sampled_from([1, 2, 5, 40]))
    return code, np.array(rows), crossover, max_iters


@settings(deadline=None, max_examples=150)
@given(decode_stacks())
@example((ParityCheck.from_dense(np.ones((1, 1), dtype=np.uint8)), np.array([[1], [0], [1]]), 0.1, 5))
def test_bp_stack_equals_rows(case):
    # A stack decodes each row exactly as its own one-row call would, and an
    # all-zero syndrome retires before the first sweep.
    code, syndromes, crossover, max_iters = case
    stacked = bp_decode(code, syndromes, crossover, max_iters=max_iters)
    assert stacked.error_estimate.shape == (len(syndromes), code.n)
    assert stacked.converged.shape == stacked.iterations.shape == (len(syndromes),)
    zero = ~syndromes.any(axis=1)
    assert stacked.converged[zero].all() and not stacked.iterations[zero].any()
    assert not stacked.error_estimate[zero].any()
    for i, t in enumerate(syndromes):
        single = bp_decode(code, t, crossover, max_iters=max_iters)
        assert isinstance(single.converged, bool) and isinstance(single.iterations, int)
        assert stacked.error_estimate[i].tobytes() == single.error_estimate.tobytes()
        assert stacked.converged[i] == single.converged
        assert stacked.iterations[i] == single.iterations


def test_bp_stack_rows_retire_at_different_iterations():
    code = code_for_rate(18, 0.45, rng=np.random.default_rng(7))
    rng = np.random.default_rng(3)
    syndromes = np.array([code.syndrome((rng.random(18) < 0.1).astype(np.uint8)) for _ in range(200)])
    stacked = bp_decode(code, syndromes, 0.1, max_iters=60)
    assert len(set(stacked.iterations.tolist())) >= 5
    assert not stacked.converged.all() and stacked.converged.any()
    for i in range(0, 200, 7):
        single = bp_decode(code, syndromes[i], 0.1, max_iters=60)
        assert np.array_equal(stacked.error_estimate[i], single.error_estimate)
        assert (stacked.converged[i], stacked.iterations[i]) == (single.converged, single.iterations)


def test_bp_stack_validation():
    code = random_dense(4, 10, seed=6)
    with pytest.raises(ValueError, match="syndrome shape"):
        bp_decode(code, np.zeros((3, 5), dtype=np.uint8), crossover=0.1)
    with pytest.raises(ValueError, match="syndrome shape"):
        bp_decode(code, np.zeros((2, 3, 4), dtype=np.uint8), crossover=0.1)
    with pytest.raises(ValueError):
        bp_decode(code, np.full((2, 4), 2, dtype=np.uint8), crossover=0.1)
    empty = bp_decode(code, np.zeros((0, 4), dtype=np.uint8), crossover=0.1)
    assert empty.error_estimate.shape == (0, 10) and empty.converged.size == 0


def test_bp_regular_ldpc_large_block(big_code):
    # A rate-1/2 staircase code at n = 10^4 decodes crossover 0.05 with few
    # block failures.
    assert big_code.m == 5000
    rng = np.random.default_rng(11)
    fails = 0
    for _ in range(100):
        e = (rng.random(big_code.n) < 0.05).astype(np.uint8)
        res = bp_decode(big_code, big_code.syndrome(e), crossover=0.05)
        fails += not (res.converged and np.array_equal(res.error_estimate, e))
    assert fails <= 5


def test_bp_crossover_mismatch(big_code):
    # A decoder fed a 10% misestimate of the true flip rate still succeeds.
    for decode_p, seed in ((0.045, 12), (0.055, 13)):
        rng = np.random.default_rng(seed)
        fails = 0
        for _ in range(30):
            e = (rng.random(big_code.n) < 0.05).astype(np.uint8)
            res = bp_decode(big_code, big_code.syndrome(e), crossover=decode_p)
            fails += not (res.converged and np.array_equal(res.error_estimate, e))
        assert fails <= 2


def test_code_for_rate_contract():
    code = code_for_rate(10, 0.5, rng=np.random.default_rng(10))
    assert (code.m, code.n) == (5, 10)
    assert gf2_rank(code.to_dense()) == 5


@given(st.integers(2, 90), st.floats(0.1, 0.9))
def test_code_for_rate_row_count(n, rate):
    code = code_for_rate(n, rate, rng=np.random.default_rng(42))
    assert code.m == math.ceil(n * rate)
    assert gf2_rank(code.to_dense()) == code.m


def test_code_for_rate_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        code_for_rate(10, 0.0, rng=rng)
    with pytest.raises(ValueError):
        code_for_rate(10, 1.0, rng=rng)
    with pytest.raises(ValueError):
        code_for_rate(0, 0.5, rng=rng)


def test_code_for_rate_one_column():
    # A round with one block or one survivor needs a one-column code: [1].
    code = code_for_rate(1, 0.3, rng=np.random.default_rng(0))
    assert (code.m, code.n) == (1, 1)
    assert code.to_dense().tolist() == [[1]]


def test_construction_determinism():
    # A small and a larger staircase code.
    for n in (40, 600):
        a = code_for_rate(n, 0.4, rng=np.random.default_rng(21))
        b = code_for_rate(n, 0.4, rng=np.random.default_rng(21))
        c = code_for_rate(n, 0.4, rng=np.random.default_rng(22))
        assert np.array_equal(a.to_dense(), b.to_dense())
        assert not np.array_equal(a.to_dense(), c.to_dense())


def test_staircase_structure():
    code = code_for_rate(1200, 0.4, rng=np.random.default_rng(24))
    m, n = code.m, code.n
    assert m == 480
    dense = code.to_dense()
    tail = dense[:, n - m:]
    assert np.array_equal(np.diagonal(tail), np.ones(m, dtype=np.uint8))
    assert not np.triu(tail, k=1).any()
    assert gf2_rank(dense) == m
    col_degrees = dense.sum(axis=0)
    info_degrees = col_degrees[: n - m]
    assert set(info_degrees.tolist()) <= {3, 12}
    frac3 = float(np.mean(info_degrees == 3))
    assert frac3 == pytest.approx(0.7, abs=0.02)
    tail_degrees = col_degrees[n - m:]
    assert set(tail_degrees.tolist()) <= {1, 2, 3}


def test_constructions_pinned():
    # Staircase codes from n = 12 up to a session's 50 000, all from one
    # generator: sha256 of every edge array and of the generator's state
    # afterwards, so a rewrite of the construction or the cycle breaker that
    # moves one edge or one draw shows here.
    rng = np.random.default_rng(70)
    digest = hashlib.sha256()
    for n in (12, 512, 600, 5000, 50_000):
        for rate in (0.3, 0.5):
            code = code_for_rate(n, rate, rng=rng)
            digest.update(code._edge_var.astype(np.int64).tobytes())
            digest.update(code._edge_check.astype(np.int64).tobytes())
    digest.update(repr(rng.bit_generator.state).encode())
    assert digest.hexdigest() == "b48631551c43da184a33a36072d4717f07d540dd4734c0d4bd18a7b040e28eb7"


def test_staircase_edges_pinned():
    # Seeded codes must not move when the construction is rewritten: the
    # criterion 08 round-one code and a survivor-size round-two code, as
    # sha256 of the edge arrays.
    cases = (
        (50_000, binary_entropy(0.095) + 0.05, 800,
         "271bf95476ef1ee8ca483ac6544dcdeb5d6ff544661dc1628780791039fd8105"),
        (45_250, binary_entropy(0.0025 / 0.905) + 0.05, 801,
         "1b64a0d5def2ebea3239e78354af2fd9f7a7b7b53b6f3d28cbbdfa7e0eb5abb3"),
    )
    for n, rate, seed, expected in cases:
        code = code_for_rate(n, rate, rng=np.random.default_rng(seed))
        digest = hashlib.sha256()
        digest.update(code._edge_var.astype(np.int64).tobytes())
        digest.update(code._edge_check.astype(np.int64).tobytes())
        assert digest.hexdigest() == expected, (n, seed)
