"""Density-matrix verification engine: entropies, purifications, twirl,
coset decomposition, and the randomized inequality suite.

Anchors are hand-computable degenerate states; randomized checks run on
frozen seeds. The randomized closed-form-vs-oracle, twirl and coset loops
live once, in ``verify``'s suites (``qkdpost.cli.SUITES``); test_keyrate and
the twirl tests here run them at their own seeds. Here the direct
construction itself is exercised, and test_oracle_stands_alone checks that
it never reads the closed-form block laws.
"""

import collections
import itertools
import math

import numpy as np
import pytest

from qkdpost.channel import BellDiagonal, bb84_family, derived_dists, six_state_point
from qkdpost.cli import SUITES
from qkdpost.entropy import Dist, shannon_entropy
from qkdpost import keyrate, oracle
from qkdpost.keyrate import rate_first_arg, rate_second_arg
from qkdpost.oracle import (
    _CHUNK,
    _TWIRL_UNITARIES,
    QUANTUM,
    CcqState,
    _coset_signs,
    _fidelity,
    _kron,
    _max_entropy,
    _min_entropy,
    _partial_trace,
    _spectral_entropy,
    _support,
    _trace_norm,
    _two_copy_vectors,
    assemble_two_copy_ccq,
    bell_basis_vector,
    conditional_entropy,
    coset_decomposition_check,
    discrete_twirl,
    fidelity,
    lemma_suite,
    max_entropy,
    min_entropy,
    partial_trace,
    purify_bell_diagonal,
    purify_state,
    random_bell_diagonal,
    random_density,
    theorem3_direct,
    trace_norm,
    von_neumann_entropy,
    worst_case_check,
)


def two_copy_ccq(psi: np.ndarray) -> CcqState:
    """The two-copy ccq state of a general purification psi of shape (2, 2, dE)."""
    return CcqState(registers=oracle._REGISTERS, keys=oracle._OUTCOME_KEYS, vectors=_two_copy_vectors(psi))


def bell_density(p: BellDiagonal) -> np.ndarray:
    out = np.zeros((4, 4), dtype=complex)
    for entry, (x, z) in zip(
        (p.p00, p.p10, p.p01, p.p11), ((0, 0), (1, 0), (0, 1), (1, 1))
    ):
        vec = bell_basis_vector(x, z)
        out += entry * np.outer(vec, vec.conj())
    return out


def bell_entries(sigma: np.ndarray) -> tuple:
    """Diagonal of sigma in the Bell basis, ordered (p00, p10, p01, p11)."""
    vecs = [bell_basis_vector(x, z) for x, z in ((0, 0), (1, 0), (0, 1), (1, 1))]
    return tuple(float((b.conj() @ sigma @ b).real) for b in vecs)


def test_purify_state_validation():
    with pytest.raises(ValueError):
        purify_state(np.array([[0.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        purify_state(np.diag([1.5, -0.5]))
    with pytest.raises(ValueError):
        purify_state(np.diag([1.0, 1.0]))


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), complex(0.0, float("nan"))])
def test_non_finite_density_is_a_clear_error(bad):
    rho = random_density(4, np.random.default_rng(15))
    rho[1, 2] = bad
    for call in (purify_state, worst_case_check):
        with pytest.raises(ValueError, match="non-finite"):
            call(rho)


NON_FINITE_CALLS = {
    "von_neumann_entropy": lambda m: von_neumann_entropy(m),
    "max_entropy": lambda m: max_entropy(m),
    "trace_norm": lambda m: trace_norm(m),
    "min_entropy": lambda m: min_entropy(m, np.eye(2) / 2, dims=(2, 2)),
    "min_entropy_sigma": lambda m: min_entropy(np.eye(8) / 8, m, dims=(2, 4)),
    "fidelity": lambda m: fidelity(m, np.eye(4) / 4),
    "fidelity_sigma": lambda m: fidelity(np.eye(4) / 4, m),
    "discrete_twirl": lambda m: discrete_twirl(m),
    "partial_trace": lambda m: partial_trace(m, (2, 2), (0,)),
}


@pytest.mark.parametrize("name", sorted(NON_FINITE_CALLS))
def test_non_finite_input_is_a_clear_error(name):
    # Off the diagonal LAPACK raises LinAlgError or returns NaN; a NaN on the
    # diagonal gave finite, wrong eigenvalues; the twirl returned all NaN.
    for pos, bad in (((0, 1), float("nan")), ((0, 0), float("nan")), ((2, 3), float("nan")),
                     ((1, 1), float("inf")), ((3, 0), complex(0.0, float("nan")))):
        m = np.eye(4, dtype=complex) / 4
        m[pos] = bad
        with pytest.raises(ValueError, match="non-finite"):
            NON_FINITE_CALLS[name](m)


@pytest.mark.parametrize("shape, message", [
    ((2, 3), "expected a square matrix"),
    ((4,), "expected a square matrix"),
    ((257, 257), "dimension 257 exceeds 256"),
])
def test_matrix_shape_is_a_clear_error(shape, message):
    for call in (von_neumann_entropy, purify_state, discrete_twirl):
        with pytest.raises(ValueError, match=message):
            call(np.zeros(shape))


def test_kron_matches_numpy_bit_for_bit():
    rng = np.random.default_rng(16)
    for shape_a, shape_b in (((2, 2), (4, 4)), ((2, 2), (2, 3)), ((4, 4), (2, 2))):
        a = random_density(max(shape_a), rng)[: shape_a[0], : shape_a[1]]
        b = random_density(max(shape_b), rng)[: shape_b[0], : shape_b[1]]
        for left in (a, np.eye(*shape_a)):
            assert _kron(left, b).tobytes() == np.kron(left, b).tobytes()


def test_von_neumann_entropy():
    pure = np.zeros((4, 4), dtype=complex)
    pure[0, 0] = 1.0
    assert von_neumann_entropy(pure) == pytest.approx(0.0, abs=1e-12)
    assert von_neumann_entropy(np.eye(4) / 4.0) == pytest.approx(2.0, abs=1e-12)
    probs = (0.5, 0.25, 0.15, 0.1)
    diag = np.diag(probs).astype(complex)
    assert von_neumann_entropy(diag) == pytest.approx(
        shannon_entropy(Dist(probs)), abs=1e-12
    )


def test_max_entropy():
    assert max_entropy(np.diag([0.5, 0.5, 0.0, 0.0])) == pytest.approx(1.0)
    assert max_entropy(np.eye(3) / 3.0) == pytest.approx(math.log2(3))
    with pytest.raises(ValueError):
        max_entropy(np.zeros((2, 2)))


def test_min_entropy_uniform():
    rho = np.eye(8) / 8.0
    sigma = np.eye(2) / 2.0
    assert min_entropy(rho, sigma, dims=(4, 2)) == pytest.approx(2.0, abs=1e-10)


def test_min_entropy_pure_product():
    a = np.array([1.0, 1.0j]) / math.sqrt(2.0)
    b = np.array([0.6, 0.8])
    psi = np.kron(a, b)
    rho_ab = np.outer(psi, psi.conj())
    rho_b = np.outer(b, b.conj()).astype(complex)
    assert min_entropy(rho_ab, rho_b, dims=(2, 2)) == pytest.approx(0.0, abs=1e-10)


def test_min_entropy_support_violation():
    rho_ab = np.eye(4) / 4.0
    sigma_b = np.diag([1.0, 0.0]).astype(complex)
    assert min_entropy(rho_ab, sigma_b, dims=(2, 2)) == float("-inf")
    with pytest.raises(ValueError):
        min_entropy(rho_ab, sigma_b, dims=(4, 2))


def test_fidelity_and_trace_norm():
    rho = random_density(4, np.random.default_rng(0))
    assert fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)
    zero = np.diag([1.0, 0.0]).astype(complex)
    one = np.diag([0.0, 1.0]).astype(complex)
    assert fidelity(zero, one) == pytest.approx(0.0, abs=1e-10)
    assert fidelity(zero, np.eye(2) / 2.0) == pytest.approx(math.sqrt(0.5), abs=1e-10)
    assert trace_norm(zero - one) == pytest.approx(2.0, abs=1e-12)
    assert trace_norm(np.diag([0.5, -0.25])) == pytest.approx(0.75, abs=1e-12)


def test_partial_trace():
    rng = np.random.default_rng(1)
    rho_a = random_density(2, rng)
    rho_b = random_density(3, rng)
    joint = np.kron(rho_a, rho_b)
    assert np.allclose(partial_trace(joint, (2, 3), (0,)), rho_a, atol=1e-12)
    assert np.allclose(partial_trace(joint, (2, 3), (1,)), rho_b, atol=1e-12)
    assert partial_trace(joint, (2, 3), ()).real == pytest.approx(1.0, abs=1e-12)
    with pytest.raises(ValueError):
        partial_trace(joint, (2, 2), (0,))
    with pytest.raises(ValueError):
        partial_trace(joint, (2, 3), (2,))


def test_purify_bell_diagonal():
    rng = np.random.default_rng(2)
    for _ in range(10):
        p = random_bell_diagonal(rng)
        psi = purify_bell_diagonal(p)
        assert np.vdot(psi, psi).real == pytest.approx(1.0, abs=1e-12)
        sigma = partial_trace(np.outer(psi, psi.conj()), (4, 4), (0,))
        entries = (p.p00, p.p10, p.p01, p.p11)
        assert np.allclose(bell_entries(sigma), entries, atol=1e-12)


def test_purify_bell_diagonal_noiseless():
    psi = purify_bell_diagonal(BellDiagonal(1.0, 0.0, 0.0, 0.0))
    sigma = partial_trace(np.outer(psi, psi.conj()), (4, 4), (0,))
    target = bell_basis_vector(0, 0)
    assert np.allclose(sigma, np.outer(target, target.conj()), atol=1e-12)


def test_purify_state_recovers_input():
    rho = random_density(4, np.random.default_rng(3), rank=2)
    psi = purify_state(rho)
    assert psi.size == 8
    back = partial_trace(np.outer(psi, psi.conj()), (4, 2), (0,))
    assert np.allclose(back, rho, atol=1e-10)


def test_two_copy_ccq_structure():
    rng = np.random.default_rng(4)
    p = random_bell_diagonal(rng)
    ccq = assemble_two_copy_ccq(p)
    assert ccq.registers == ("u1", "u2", "w1")
    assert len(ccq.keys) == 16 and ccq.vectors.shape == (16, 16)
    norms = np.einsum("od,od->o", ccq.vectors.conj(), ccq.vectors).real
    assert math.fsum(norms) == pytest.approx(1.0, abs=1e-12)
    w1_law, _ = derived_dists(p)
    for value in (0, 1):
        marginal = math.fsum(n for key, n in zip(ccq.keys, norms) if key[2] == value)
        assert marginal == pytest.approx(w1_law(value), abs=1e-12)


def test_two_copy_ccq_matches_kron_reference():
    # The outcome vectors come from one broadcast product; they must equal,
    # byte for byte, np.kron of the two copies' vectors in outcome order.
    p = random_bell_diagonal(np.random.default_rng(17))
    psi = purify_bell_diagonal(p).reshape(2, 2, 4)
    keys, vecs = [], []
    for a1, b1, a2, b2 in itertools.product((0, 1), repeat=4):
        w1 = a1 ^ b1 ^ a2 ^ b2
        keys.append((a1 ^ a2, a2 if w1 == 0 else 0, w1))
        vecs.append(np.kron(psi[a1, b1], psi[a2, b2]))
    ccq = assemble_two_copy_ccq(p)
    assert ccq.keys == tuple(keys)
    assert ccq.vectors.tobytes() == np.array(vecs).tobytes()


def test_two_copy_ccq_noiseless():
    # Only outcomes with a1 = b1 and a2 = b2 occur, each with one environment
    # vector of squared norm 1/4; the others keep a zero vector.
    ccq = assemble_two_copy_ccq(BellDiagonal(1.0, 0.0, 0.0, 0.0))
    norms = np.einsum("od,od->o", ccq.vectors.conj(), ccq.vectors).real
    assert sorted(norms.tolist()) == pytest.approx([0.0] * 12 + [0.25] * 4, abs=1e-15)
    blocks = {key: op for key, op in group_blocks(ccq, ccq.registers).items() if np.trace(op).real > 0.0}
    assert len(blocks) == 4 and all(key[2] == 0 for key in blocks)
    for op in blocks.values():
        assert np.count_nonzero(np.linalg.eigvalsh(op) > 1e-10) == 1
        assert np.trace(op).real == pytest.approx(0.25, abs=1e-12)


def test_conditional_entropy_reductions():
    ccq = assemble_two_copy_ccq(BellDiagonal(1.0, 0.0, 0.0, 0.0))
    # Four equiprobable blocks sharing one environment vector: joint = 2 bits.
    assert conditional_entropy(ccq, ()) == pytest.approx(2.0, abs=1e-10)
    assert conditional_entropy(ccq, ("w1", QUANTUM)) == pytest.approx(2.0, abs=1e-10)
    with pytest.raises(ValueError):
        conditional_entropy(ccq, ("w9",))


def test_conditional_entropy_classical_reduction():
    # Identical conditionals factor out: H(X | quantum) = H(X). Each value's
    # block is its probability times id/2, the sum of two outcome projectors.
    keys = [(0,), (0,), (1,), (1,)]
    vectors = np.sqrt([0.15, 0.15, 0.35, 0.35])[:, None] * np.tile(np.eye(2), (2, 1))
    ccq = CcqState(registers=("x",), keys=keys, vectors=vectors)
    expected = shannon_entropy(Dist((0.3, 0.7)))
    assert conditional_entropy(ccq, (QUANTUM,)) == pytest.approx(expected, abs=1e-12)


def group_blocks(ccq, names):
    """The d x d block of each group of outcomes that share the named register
    values, built from the outcome vectors with np.outer, keyed by those values
    in first-seen order."""
    idx = [i for i, r in enumerate(ccq.registers) if r in names]
    groups = {}
    for key, vec in zip(ccq.keys, ccq.vectors):
        g = tuple(key[i] for i in idx)
        groups[g] = groups.get(g, 0.0) + np.outer(vec, vec.conj())
    return groups


def normalized_form_entropy(ccq, names, with_quantum):
    """The entropy in the (probability, normalized state) form: the Shannon
    entropy of the group traces p_g, plus sum_g p_g S(A_g / p_g) with the
    quantum part. Groups of probability 0 carry no state."""
    blocks = [a_g for a_g in group_blocks(ccq, names).values() if np.trace(a_g).real > 0.0]
    probs = [np.trace(a_g).real for a_g in blocks]
    h = shannon_entropy(Dist(probs))
    if with_quantum:
        h += sum(p_g * von_neumann_entropy(a_g / p_g) for p_g, a_g in zip(probs, blocks))
    return h


def test_conditional_entropy_matches_normalized_form():
    rng = np.random.default_rng(21)
    states = [assemble_two_copy_ccq(random_bell_diagonal(rng)) for _ in range(3)]
    states.append(two_copy_ccq(purify_state(random_density(4, rng)).reshape(2, 2, -1)))
    for ccq in states:
        joint = normalized_form_entropy(ccq, set(ccq.registers), True)
        for size in range(len(ccq.registers) + 1):
            for subset in itertools.combinations(ccq.registers, size):
                for with_quantum in (False, True):
                    given = subset + ((QUANTUM,) if with_quantum else ())
                    expected = joint
                    if given:
                        expected -= normalized_form_entropy(ccq, set(subset), with_quantum)
                    assert conditional_entropy(ccq, given) == pytest.approx(expected, abs=1e-12)


def looped_marginal_entropy(ccq, names, with_quantum):
    """The block-sum reference, one marginal at a time: each group's d x d
    block summed from its outcome projectors, and its spectrum solved."""
    blocks = list(group_blocks(ccq, names).values())
    if with_quantum:
        return math.fsum(_spectral_entropy(np.stack(blocks)))
    probs = [float(np.trace(op).real) for op in blocks]
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def test_conditional_entropy_equals_looped_marginals():
    # The Gram spectra of the outcome vectors give the block sums' entropies.
    rng = np.random.default_rng(23)
    states = [assemble_two_copy_ccq(BellDiagonal(0.7, 0.2, 0.1, 0.0))]
    states += [assemble_two_copy_ccq(random_bell_diagonal(rng)) for _ in range(3)]
    for rank in (1, 2, 4):
        states.append(two_copy_ccq(purify_state(random_density(4, rng, rank=rank)).reshape(2, 2, -1)))
    for ccq in states:
        joint = looped_marginal_entropy(ccq, set(ccq.registers), True)
        for size in range(len(ccq.registers) + 1):
            for subset in itertools.combinations(ccq.registers, size):
                for with_quantum in (False, True):
                    given = subset + ((QUANTUM,) if with_quantum else ())
                    expected = joint
                    if given:
                        expected -= looped_marginal_entropy(ccq, set(subset), with_quantum)
                    assert conditional_entropy(ccq, given) == pytest.approx(expected, abs=1e-12), given


@pytest.mark.parametrize("where, value", [((1, 0), np.nan), ((1, 1), np.inf)])
def test_ccq_state_rejects_non_finite_block(where, value):
    # LAPACK can return finite, wrong spectra for such an outcome's block.
    vectors = np.full((2, 2), 0.5, dtype=complex)
    vectors[where] = value
    with pytest.raises(ValueError, match=r"outcome \(1,\) has non-finite entries"):
        CcqState(registers=("x",), keys=[(0,), (1,)], vectors=vectors)


def test_ccq_state_rejects_mismatched_blocks():
    with pytest.raises(ValueError, match=r"shape \(3, 2\): expected one row for each of 2 keys"):
        CcqState(registers=("x",), keys=[(0,), (1,)], vectors=np.full((3, 2), 0.5))
    with pytest.raises(ValueError, match=r"shape \(2,\): expected one row for each of 2 keys"):
        CcqState(registers=("x",), keys=[(0,), (1,)], vectors=np.full(2, 0.5**0.5))


def test_ccq_state_rejects_traces_not_summing_to_one():
    with pytest.raises(ValueError, match="squared norms sum to 0.5"):
        CcqState(registers=("x",), keys=[(0,), (1,)], vectors=np.full((2, 2), 0.5**1.5))


def test_ccq_state_rejects_a_total_dimension_above_256():
    # Each state holds a unit mass but exceeds the bound, in the vector
    # dimension or in the outcome count.
    for shape, message in (((1, 257), "dimension 257"), ((257, 1), "outcome count 257")):
        keys = [(x,) for x in range(shape[0])]
        with pytest.raises(ValueError, match=message + " exceeds 256"):
            CcqState(registers=("x",), keys=keys, vectors=np.full(shape, 257**-0.5))


def test_conditional_entropy_rejects_a_negative_eigenvalue():
    # A Gram matrix has no negative eigenvalue, so the check is met on a
    # matrix given to the shared spectral core directly.
    with pytest.raises(ValueError, match="negative eigenvalue -0.5"):
        von_neumann_entropy(np.diag([1.5, -0.5]))


@pytest.mark.parametrize("shape", [(2, 2), (4, 4), (2, 4, 4), (2, 2, 2, 2)])
def test_two_copy_ccq_rejects_a_wrong_shape(shape):
    with pytest.raises(ValueError, match=r"expected shape \(2, 2, dE\)"):
        _two_copy_vectors(np.ones(shape, dtype=complex) / 2.0)


def test_theorem3_direct_anchors():
    first, second = theorem3_direct(BellDiagonal(1.0, 0.0, 0.0, 0.0))
    assert first == pytest.approx(1.0, abs=1e-9)
    assert second == pytest.approx(0.5, abs=1e-9)
    first, second = theorem3_direct(BellDiagonal(0.25, 0.25, 0.25, 0.25))
    assert first == pytest.approx(-0.75, abs=1e-9)
    assert second == pytest.approx(-0.25, abs=1e-9)


# Exact oracle values (float.hex): any change to the outcome vectors, the
# marginal groups, their order or the Gram products moves them.
THEOREM3_PINNED = [
    (BellDiagonal(1.0, 0.0, 0.0, 0.0), ("0x1.fffffffffffecp-1", "0x1.ffffffffffffap-2")),
    (BellDiagonal(0.25, 0.25, 0.25, 0.25), ("-0x1.8000000000000p-1", "-0x1.0000000000000p-2")),
    (BellDiagonal(0.7, 0.2, 0.1, 0.0), ("-0x1.1df0659f6b2c8p-4", "-0x1.91af888b75040p-7")),
    (six_state_point(0.05), ("0x1.16b09f3639adcp-1", "0x1.3a94f154e2b07p-2")),
    (bb84_family(0.11, 0.02), ("0x1.545d876c3b1eep-4", "0x1.4a2459c19f8eap-4")),
    (BellDiagonal(0.4, 0.3, 0.2, 0.1), ("-0x1.38f87df0023a8p-1", "-0x1.cf69ea7e167e2p-3")),
]
# (first, second) original, then twirled, for random_density(4, rank=r)
# drawn in rank order from default_rng(29)
WORST_CASE_PINNED = {
    1: ("-0x1.41ebe6580fad8p-4", "-0x1.4f6f929780d60p-6", "-0x1.361c601a6a22bp-1", "-0x1.5b611f6094962p-2"),
    2: ("-0x1.96543dd9ff708p-1", "-0x1.97112cdb05df3p-2", "-0x1.216437a607ff8p+0", "-0x1.df9330110b675p-2"),
    3: ("-0x1.1be6fb4189739p+0", "-0x1.9fbd1afe0fa3dp-2", "-0x1.4fd41d2759482p+0", "-0x1.b79a902f6a962p-2"),
    4: ("-0x1.1a4489a2ec129p+0", "-0x1.9af3253d40b33p-2", "-0x1.33b7744985ca4p+0", "-0x1.b896ee09e2153p-2"),
}
# conditional_entropy on assemble_two_copy_ccq(six_state_point(0.05))
CONDITIONAL_PINNED = {
    (): "0x1.49514f9c7ca87p+1",
    ("w1", QUANTUM): "0x1.910152ea14467p+0",
    ("u1", "w1", QUANTUM): "0x1.474e42cdbb104p-1",
    (QUANTUM,): "0x1.910152ea14468p+0",
    ("u1",): "0x1.92a29f38f950ep+0",
    ("u1", "u2"): "0x1.289bd4fb3fde8p-1",
}


def test_oracle_values_pinned():
    for p, expected in THEOREM3_PINNED:
        assert tuple(v.hex() for v in theorem3_direct(p)) == expected, p
    rng = np.random.default_rng(29)
    for rank, expected in WORST_CASE_PINNED.items():
        record = worst_case_check(random_density(4, rng, rank=rank))
        assert tuple(v.hex() for v in record[:4]) == expected, rank
    ccq = assemble_two_copy_ccq(six_state_point(0.05))
    for given, expected in CONDITIONAL_PINNED.items():
        assert conditional_entropy(ccq, given).hex() == expected, given


@pytest.fixture
def lapack_calls(monkeypatch):
    """Counts calls of numpy's three eigenvalue solvers, by name."""
    calls = collections.Counter()
    for name in ("eigh", "eigvalsh", "eigvals"):
        def counted(*args, _name=name, _solve=getattr(np.linalg, name), **kwargs):
            calls[_name] += 1
            return _solve(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return calls


def test_brackets_solve_in_one_stack(lapack_calls, monkeypatch):
    # The joint, {w1} and {u1, w1} marginals of the brackets share one
    # eigvalsh call, and so do the joint and the conditioning marginal.
    # Its input is the stack of 12 group Gram matrices, at most 8 x 8, not
    # the 16 x 16 blocks of a full-rank state.
    shapes = []
    solve = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a, *args, **kw: shapes.append(a.shape) or solve(a, *args, **kw))
    theorem3_direct(six_state_point(0.05))
    assert lapack_calls == {"eigvalsh": 1}
    assert shapes == [(12, 8, 8)]
    ccq = assemble_two_copy_ccq(six_state_point(0.05))
    for given in ((), ("w1", QUANTUM), ("u1", "u2")):
        lapack_calls.clear()
        conditional_entropy(ccq, given)
        assert lapack_calls == {"eigvalsh": 1}, given


def test_worst_case_check_solves_each_state_once(lapack_calls):
    # purify_state validates on the eigendecomposition it purifies with, so
    # worst_case_check makes one eigh per state (sigma and its twirl) and
    # one eigvalsh per bracket stack.
    sigma = random_density(4, np.random.default_rng(19), rank=3)
    purify_state(sigma)
    assert lapack_calls == {"eigh": 1}
    lapack_calls.clear()
    worst_case_check(sigma)
    assert lapack_calls == {"eigh": 2, "eigvalsh": 2}


def test_brackets_build_no_ccq_state(monkeypatch):
    # The brackets read the two-copy outcome vectors directly: neither
    # theorem3_direct nor worst_case_check builds and validates a CcqState.
    built = []
    check = CcqState.__post_init__
    monkeypatch.setattr(CcqState, "__post_init__", lambda self: built.append(self) or check(self))
    theorem3_direct(six_state_point(0.05))
    worst_case_check(random_density(4, np.random.default_rng(19), rank=3))
    assert built == []
    assemble_two_copy_ccq(six_state_point(0.05))
    assert len(built) == 1


def test_oracle_stands_alone(monkeypatch):
    # The oracle checks the closed forms, so it must reach the same brackets
    # with the closed-form block laws out of reach.
    rng = np.random.default_rng(13)
    points = [random_bell_diagonal(rng) for _ in range(5)]
    expected = [(rate_first_arg(p), rate_second_arg(p)) for p in points]

    def closed_form_laws(p):
        raise AssertionError("the oracle read derived_dists")

    monkeypatch.setattr("qkdpost.channel.derived_dists", closed_form_laws)
    monkeypatch.setattr("qkdpost.oracle.derived_dists", closed_form_laws, raising=False)
    for p, (first, second) in zip(points, expected):
        direct_first, direct_second = theorem3_direct(p)
        assert direct_first == pytest.approx(first, abs=1e-9)
        assert direct_second == pytest.approx(second, abs=1e-9)
    for check in SUITES["twirl"](3, np.random.default_rng(14)):
        assert check["deviation"] <= check["bound"], check["name"]


def test_discrete_twirl():
    rng = np.random.default_rng(5)
    fixed = bell_density(random_bell_diagonal(rng))
    assert np.allclose(discrete_twirl(fixed), fixed, atol=1e-12)
    sigma = random_density(4, rng)
    twirled = discrete_twirl(sigma)
    assert np.allclose(bell_entries(twirled), bell_entries(sigma), atol=1e-12)
    assert np.allclose(discrete_twirl(twirled), twirled, atol=1e-12)
    with pytest.raises(ValueError):
        discrete_twirl(np.eye(2) / 2.0)


def test_worst_case_fixed_point():
    record = worst_case_check(bell_density(random_bell_diagonal(np.random.default_rng(6))))
    assert record.first_twirled == pytest.approx(record.first_original, abs=1e-9)
    assert record.second_twirled == pytest.approx(record.second_original, abs=1e-9)
    assert record.w1_twirled(0) == pytest.approx(record.w1_original(0), abs=1e-12)
    assert record.w2_twirled(0) == pytest.approx(record.w2_original(0), abs=1e-12)


def test_worst_case_random_states():
    for check in SUITES["twirl"](25, np.random.default_rng(7)):
        assert check["deviation"] <= check["bound"], check["name"]


def test_coset_decomposition():
    rng = np.random.default_rng(8)
    p = random_bell_diagonal(rng)
    code = [(0, 0), (1, 1)]
    for shift in ((0, 0), (0, 1), (1, 0), (1, 1)):
        assert coset_decomposition_check(p, code, shift) <= 1e-10
    assert coset_decomposition_check(p, [(0, 0)], (0, 1)) <= 1e-10
    assert coset_decomposition_check(p, [(0,), (1,)], (0,)) <= 1e-10
    with pytest.raises(ValueError):
        coset_decomposition_check(p, [(0, 0, 0, 0)], (0, 0, 0, 0))
    with pytest.raises(ValueError):
        coset_decomposition_check(p, [(0, 0, 0)], (0, 0))


@pytest.mark.parametrize("code, shift, name", [
    ([(0, 0), (2, 2)], (0, 0), r"code word \(2, 2\)"),
    ([(0, 0), (1, 1)], (0, 2), r"shift \(0, 2\)"),
    ([(0, 0), (1, 1)], (0, -1), r"shift \(0, -1\)"),
])
def test_coset_check_rejects_non_binary_entries(code, shift, name):
    # Read modulo 2, each of these would pass as a code with deviation 0.
    p = random_bell_diagonal(np.random.default_rng(8))
    with pytest.raises(ValueError, match=name + " has an entry other than 0 or 1"):
        coset_decomposition_check(p, code, shift)


def test_coset_check_rejects_an_empty_code():
    # Every set closed under XOR holds the zero word, so an empty one is no code.
    p = random_bell_diagonal(np.random.default_rng(8))
    with pytest.raises(ValueError, match="empty code"):
        coset_decomposition_check(p, [], (0, 1))


def test_coset_check_skips_impossible_patterns():
    # With zero Bell entries some discrepancy patterns have probability 0;
    # they are skipped, and the rest still decompose.
    for p in (BellDiagonal(1.0, 0.0, 0.0, 0.0), BellDiagonal(0.7, 0.2, 0.1, 0.0)):
        for shift in itertools.product((0, 1), repeat=2):
            worst = coset_decomposition_check(p, [(0, 0), (1, 1)], shift)
            assert math.isfinite(worst) and worst <= 1e-10, (p, shift)


def test_coset_check_detects_a_set_not_closed_under_xor():
    # A word set that is not a linear code has no coset decomposition, so it
    # is rejected rather than read as a failure of the identity.
    p = BellDiagonal(0.7, 0.1, 0.15, 0.05)
    for words, pair in (
        ([(1, 1)], r"\(1, 1\) \+ \(1, 1\)"),
        ([(0, 1), (1, 0)], r"\(0, 1\) \+ \(0, 1\)"),
        ([(0, 0), (1, 0), (0, 1)], r"\(1, 0\) \+ \(0, 1\)"),
        ([(0, 0, 0), (1, 1, 0), (0, 1, 1)], r"\(1, 1, 0\) \+ \(0, 1, 1\)"),
    ):
        for shift in itertools.product((0, 1), repeat=len(words[0])):
            with pytest.raises(ValueError, match=f"^code is not closed under XOR: {pair} is not a code word$"):
                coset_decomposition_check(p, words, shift)


def test_theta_vectors_orthogonal_across_cosets():
    rng = np.random.default_rng(9)
    p = random_bell_diagonal(rng)
    words = np.array(list(itertools.product((0, 1), repeat=2)))
    # {00, 11} is its own dual code; its cosets are {00, 11} and {01, 10}
    code = np.array([(0, 0), (1, 1)])
    entries = {(0, 0): p.p00, (1, 0): p.p10, (0, 1): p.p01, (1, 1): p.p11}
    for xbar in words.tolist():
        weights = [math.prod(entries[xi, zi] for xi, zi in zip(xbar, z)) for z in words.tolist()]
        vecs = _coset_signs(words, code, np.array([1, 0])) * np.sqrt(weights)
        assert vecs.shape == (2, 4)
        for vec, coset in zip(vecs, ([0, 3], [1, 2])):
            # (-1)^(shift . (z + j)) on the coset whose first word is j, 0 off it
            assert np.flatnonzero(vec).tolist() == coset
            assert np.sign(vec[coset]).tolist() == [1.0, -1.0]
            assert vec @ vec == pytest.approx(math.fsum(weights[z] for z in coset), abs=1e-12)
        assert abs(vecs[0] @ vecs[1]) <= 1e-12


def test_lemma_suite():
    worst = lemma_suite(60, np.random.default_rng(10))
    assert set(worst) == {
        "monotonicity", "chain_rule", "removal",
        "sandwich_lower", "sandwich_upper", "operator_bound",
    }
    for name, value in worst.items():
        assert value <= 1e-9, name


# lemma_suite's exact dicts, each value the true maximum over the samples
# (negative where no sample comes near the bound); (200, 44) is criterion
# 06's draw.
LEMMA_SUITE_PINNED = {
    (200, 44): {
        "monotonicity": "-0.00012065549771467232",
        "chain_rule": "2.220446049250313e-15",
        "removal": "-0.43686006444981773",
        "sandwich_lower": "-0.27639745486439693",
        "sandwich_upper": "-0.01837912071259773",
        "operator_bound": "3.408205139269565e-16",
    },
    (60, 10): {
        "monotonicity": "-0.0013746015021307567",
        "chain_rule": "1.7763568394002505e-15",
        "removal": "-0.2054175554903792",
        "sandwich_lower": "-0.283665508505311",
        "sandwich_upper": "-0.023573908095249063",
        "operator_bound": "4.2328530079234257e-16",
    },
}


@pytest.mark.parametrize("samples, seed", sorted(LEMMA_SUITE_PINNED))
def test_lemma_suite_pinned(samples, seed):
    worst = lemma_suite(samples, np.random.default_rng(seed))
    assert {name: repr(value) for name, value in worst.items()} == LEMMA_SUITE_PINNED[samples, seed]


def test_lemma_suite_chunks_draw_sample_by_sample():
    # The stream is consumed sample by sample, so a run across a chunk
    # boundary equals a full chunk followed by the rest on one generator.
    whole = lemma_suite(_CHUNK + 7, np.random.default_rng(3))
    rng = np.random.default_rng(3)
    first, rest = lemma_suite(_CHUNK, rng), lemma_suite(7, rng)
    assert whole == {name: max(first[name], rest[name]) for name in first}


def test_lemma_suite_solves_in_stacks(lapack_calls):
    # One LAPACK call per quantity and chunk: a per-sample loop would make
    # the count grow with the sample count.
    counts = []
    for samples in (10, 100):
        lapack_calls.clear()
        lemma_suite(samples, np.random.default_rng(10))
        counts.append(dict(lapack_calls))
    assert counts[0] and counts[0] == counts[1]
    # One eigh for each conditioning state (sigma of monotonicity, removal
    # and the chain rule) and for rho_B of the chain rule; the eigvalsh calls
    # are one per min-entropy and support size, plus max-entropy, trace norm
    # and the operator bound's two.
    assert counts[0] == {"eigh": 4, "eigvalsh": 10, "eigvals": 1}


# Benchmark oracle lemma seeds whose chain rule read 6.84e-9, 1.69e-9 and
# 4.64e-9 while each min-entropy solved its own conditioning state: sigma_C
# has an eigenvalue near 1e-8, and two solves erred apart.
NEAR_SINGULAR_LEMMA_SEEDS = [769512071635823168, 8358529215191477859, 7399127668851441704]


@pytest.mark.parametrize("seed", NEAR_SINGULAR_LEMMA_SEEDS)
def test_lemma_suite_holds_for_a_nearly_singular_sigma(seed):
    worst = lemma_suite(200, np.random.default_rng(seed))
    for name, value in worst.items():
        assert value <= 1e-9, name


def failed(checks):
    return {check["name"] for check in checks if not check["deviation"] <= check["bound"]}


def _half_twirl(sigma):
    """The average over the two Z-type unitaries alone (s = 0)."""
    return (_TWIRL_UNITARIES[:2] @ sigma @ _TWIRL_UNITARIES[:2].conj().swapaxes(1, 2)).sum(axis=0) / 2.0


@pytest.mark.parametrize("twirl", [np.asarray, _half_twirl], ids=["identity", "half"])
def test_twirl_suite_fails_a_wrong_twirl(monkeypatch, twirl):
    # Either map keeps the z-basis block laws and can only meet the one-sided
    # excess checks, so the Bell-diagonal row alone tells it from the twirl.
    assert not failed(SUITES["twirl"](20, np.random.default_rng(42)))
    monkeypatch.setattr("qkdpost.oracle.discrete_twirl", twirl)
    monkeypatch.setattr("qkdpost.cli.discrete_twirl", twirl)
    assert failed(SUITES["twirl"](20, np.random.default_rng(42))) == {"twirl_is_bell_diagonal"}


def test_theorem3_suite_fails_swapped_arguments(monkeypatch):
    honest = keyrate._first_arg
    monkeypatch.setattr(keyrate, "_first_arg", lambda p00, p10, p01, p11: honest(p00, p01, p10, p11))
    checks = SUITES["theorem3"](100, np.random.default_rng(41))
    assert failed(checks) == {"first_argument_vs_oracle"}
    assert checks[0]["deviation"] > 0.05


def test_lemma_suite_fails_a_min_entropy_that_ignores_sigma(monkeypatch):
    # Criterion 06's draw. The mutation conditions on rho's own B marginal
    # instead of the given sigma_B; the chain rule catches it. (The identity,
    # id / d_B and sigma_B's support projector in place of sigma_B all keep
    # every inequality and pass.)
    honest = oracle._min_entropy

    def own_marginal(rho_ab, w_b, v_b, da, db):
        w, v, _ = _support(_partial_trace(rho_ab, (da, db), (1,)))
        return honest(rho_ab, w, v, da, db)

    monkeypatch.setattr(oracle, "_min_entropy", own_marginal)
    worst = lemma_suite(200, np.random.default_rng(44))
    assert worst["chain_rule"] > 0.05


def _same(stacked, rows):
    return np.asarray(stacked).tobytes() == np.asarray(rows).tobytes()


def test_min_entropy_stack_equals_rows():
    rng = np.random.default_rng(18)
    b = np.diag([1.0, 0.0]).astype(complex)
    rhos = [random_density(4, rng) for _ in range(4)]
    sigmas = [random_density(2, rng) for _ in range(4)]
    # a rank-1 sigma_B, a leak past it (-inf), a zero sigma_B (-inf) and a
    # zero rho_AB, whose top eigenvalue 0 gives +inf
    rhos += [_kron(random_density(2, rng), b), np.eye(4) / 4.0, random_density(4, rng), np.zeros((4, 4))]
    sigmas += [b, b, np.zeros((2, 2)), random_density(2, rng)]
    order = rng.permutation(len(rhos))
    rhos, sigmas = np.stack(rhos)[order], np.stack(sigmas).astype(complex)[order]
    stacked = _min_entropy(rhos, *_support(sigmas)[:2], 2, 2)
    rows = [min_entropy(rho, sigma, dims=(2, 2)) for rho, sigma in zip(rhos, sigmas)]
    assert _same(stacked, rows)
    assert sorted(v for v in rows if not math.isfinite(v)) == [-math.inf, -math.inf, math.inf]
    rhos = np.stack([random_density(8, rng, rank=r) for r in (1, 3, 8)])
    sigmas = np.stack([random_density(4, rng, rank=r) for r in (4, 2, 4)])
    stacked = _min_entropy(rhos, *_support(sigmas)[:2], 2, 4)
    assert _same(stacked, [min_entropy(r, s, dims=(2, 4)) for r, s in zip(rhos, sigmas)])


def test_entropy_cores_stack_equals_rows():
    rng = np.random.default_rng(19)
    ops = np.stack([random_density(4, rng, rank=r) for r in (1, 2, 3, 4, 4)] + [np.zeros((4, 4), complex)])
    others = np.stack([random_density(4, rng) * 0.7 for _ in ops])
    assert _same(_spectral_entropy(ops), [von_neumann_entropy(op) for op in ops])
    assert _same(_max_entropy(ops[:-1]), [max_entropy(op) for op in ops[:-1]])
    assert _same(_fidelity(ops, others), [fidelity(op, other) for op, other in zip(ops, others)])
    assert _same(_trace_norm(ops - others), [trace_norm(op) for op in ops - others])
    w, v, k = _support(ops)
    for i, op in enumerate(ops):
        assert all(_same(a[i], b) for a, b in zip((w, v, k), _support(op)))
        assert _same(_kron(others, ops)[i], _kron(others[i], op))
        assert _same(_kron(np.eye(2), ops)[i], np.kron(np.eye(2), op))
    for dims, keep in (((2, 2), (0,)), ((2, 2), (1,)), ((2, 2), ()), ((4, 2), (1,))):
        wide = ops if math.prod(dims) == 4 else np.stack([random_density(8, rng) for _ in range(3)])
        stacked = _partial_trace(wide, dims, keep)
        assert all(_same(stacked[i], partial_trace(op, dims, keep)) for i, op in enumerate(wide))


@pytest.mark.parametrize("samples", [0, -1])
def test_lemma_suite_rejects_empty_sample(samples):
    with pytest.raises(ValueError, match="samples"):
        lemma_suite(samples, np.random.default_rng(10))


def test_random_density():
    rng = np.random.default_rng(11)
    rho = random_density(6, rng, rank=2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(rho, rho.conj().T, atol=1e-12)
    eigs = np.linalg.eigvalsh(rho)
    assert eigs.min() >= -1e-12
    assert int(np.count_nonzero(eigs > 1e-10)) == 2


@pytest.mark.parametrize("dim, rank", [(4, 0), (4, -1), (0, None), (0, 2)])
def test_random_density_rejects_empty_shape(dim, rank):
    with pytest.raises(ValueError, match=r"^(dim|rank)=-?\d+ must be >= 1$"):
        random_density(dim, np.random.default_rng(11), rank=rank)


def test_random_bell_diagonal():
    rng = np.random.default_rng(12)
    for _ in range(10):
        p = random_bell_diagonal(rng)
        entries = (p.p00, p.p10, p.p01, p.p11)
        assert math.fsum(entries) == pytest.approx(1.0, abs=1e-12)
        assert min(entries) >= 0.0
