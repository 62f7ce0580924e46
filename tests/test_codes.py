"""Parity-check construction and the two syndrome decoders.

The decoding oracle here is literal: enumerate every error vector, group by
syndrome, and take coset minima. Monte Carlo targets run at frozen seeds;
the bounds were calibrated once against those seeds and hold with margin.
"""

import hashlib
import math

import numpy as np
import pytest
from hypothesis import given
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


def test_parity_check_validation():
    # ParityCheck(m, n, edge_var, edge_check, certificate): entry i is a 1 in
    # column edge_var[i], row edge_check[i].
    with pytest.raises(ValueError):
        ParityCheck(2, 2, [0, 1], [0, 1], "guessed")
    with pytest.raises(ValueError):
        ParityCheck(2, 2, [0, 0, 1], [0, 0, 1], "eliminated")
    for edge_var, edge_check in (
        ([0, 1], [0, 2]),  # row out of range
        ([5], [0]),  # column out of range
        ([-1], [0]),  # negative column
        ([0, 1], [0]),  # arrays of different lengths
        ([[0, 1]], [[0, 1]]),  # not 1-d
    ):
        with pytest.raises(ValueError):
            ParityCheck(2, 2, edge_var, edge_check, "eliminated")
    unsorted = ParityCheck(4, 2, [1, 0, 0], [0, 3, 1], "eliminated")
    assert unsorted._edge_var.tolist() == [0, 0, 1]
    assert unsorted._edge_check.tolist() == [1, 3, 0]
    with pytest.raises(ValueError):
        ParityCheck.from_dense(np.array([[1, 0, 1], [1, 0, 1]], dtype=np.uint8))
    with pytest.raises(ValueError):
        ParityCheck.from_dense(np.zeros(4, dtype=np.uint8))


@st.composite
def edge_lists(draw):
    """(m, n, edge_var, edge_check, v): distinct entries in shuffled order."""
    m = draw(st.integers(1, 30))
    n = draw(st.integers(1, 40))
    cells = draw(st.lists(st.integers(0, m * n - 1), unique=True, max_size=300))
    flat = np.array(cells, dtype=np.int64)
    v = np.array(draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)), dtype=np.uint8)
    return m, n, flat // m, flat % m, v


@given(edge_lists())
def test_edge_constructor_matches_dense(case):
    m, n, edge_var, edge_check, v = case
    dense = np.zeros((m, n), dtype=np.uint8)
    dense[edge_check, edge_var] = 1
    code = ParityCheck(m, n, edge_var, edge_check, "eliminated")
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
        res = ml_decode(code, t, crossover=0.05)
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
        ml_decode(code, np.zeros(4, dtype=np.uint8), crossover=0.5)
    with pytest.raises(ValueError):
        ml_decode(code, np.zeros(3, dtype=np.uint8))
    wide = ParityCheck.from_dense(np.eye(25, dtype=np.uint8))
    with pytest.raises(ValueError):
        ml_decode(wide, np.zeros(25, dtype=np.uint8))


def test_ml_rate_margin_proxy():
    # Rate h(p) + 0.1 at n = 20; block error stays under 10% at this seed.
    p = 0.01
    n = 20
    code = code_for_rate(n, binary_entropy(p) + 0.1, rng=np.random.default_rng(4))
    assert code.m == 4
    rng = np.random.default_rng(104)
    errs = 0
    for _ in range(1000):
        e = (rng.random(n) < p).astype(np.uint8)
        res = ml_decode(code, code.syndrome(e), p)
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
    with pytest.raises(ValueError):
        bp_decode(code, t, crossover=0.1, damping=1.0)
    for bad in (0, -3):
        with pytest.raises(ValueError, match=f"max_iters {bad}"):
            bp_decode(code, t, crossover=0.1, max_iters=bad)
    with pytest.raises(ValueError):
        bp_decode(code, np.zeros(5, dtype=np.uint8), crossover=0.1)


def test_bp_never_beats_ml():
    # Paired draws on one small code: exact ML bounds BP from below, and any
    # converged BP output must reproduce the target syndrome.
    code = code_for_rate(18, 0.45, rng=np.random.default_rng(7))
    rng = np.random.default_rng(0)
    bp_err = ml_err = 0
    for _ in range(1000):
        e = (rng.random(18) < 0.08).astype(np.uint8)
        t = code.syndrome(e)
        rb = bp_decode(code, t, crossover=0.08)
        rm = ml_decode(code, t, crossover=0.08)
        if rb.converged:
            assert np.array_equal(code.syndrome(rb.error_estimate), t)
        bp_err += not (rb.converged and np.array_equal(rb.error_estimate, e))
        ml_err += not np.array_equal(rm.error_estimate, e)
    assert 0 < ml_err <= bp_err < 1000


def test_bp_regular_ldpc_large_block(big_code):
    # A rate-1/2 staircase code at n = 10^4 decodes crossover 0.05 with few
    # block failures.
    assert big_code.m == 5000
    assert big_code.rank_certificate == "triangular"
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


def test_bp_damping_converges():
    code = code_for_rate(600, 0.5, rng=np.random.default_rng(8))
    rng = np.random.default_rng(9)
    e = (rng.random(600) < 0.02).astype(np.uint8)
    res = bp_decode(code, code.syndrome(e), crossover=0.02, damping=0.3)
    assert res.converged
    assert np.array_equal(res.error_estimate, e)


def test_code_for_rate_contract():
    code = code_for_rate(10, 0.5, rng=np.random.default_rng(10))
    assert (code.m, code.n) == (5, 10)
    assert gf2_rank(code.to_dense()) == 5
    assert code.rank_certificate == "eliminated"


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
        code_for_rate(1, 0.5, rng=rng)


def test_construction_determinism():
    # n = 40 builds a dense code, n = 600 a staircase code.
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
    assert code.rank_certificate == "triangular"
    dense = code.to_dense()
    tail = dense[:, n - m:]
    assert np.array_equal(np.diagonal(tail), np.ones(m, dtype=np.uint8))
    assert not np.triu(tail, k=1).any()
    assert gf2_rank(dense) == m
    info_degrees = code.col_degrees()[: n - m]
    assert set(info_degrees.tolist()) <= {3, 12}
    frac3 = float(np.mean(info_degrees == 3))
    assert frac3 == pytest.approx(0.7, abs=0.02)
    tail_degrees = code.col_degrees()[n - m:]
    assert set(tail_degrees.tolist()) <= {1, 2, 3}


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
