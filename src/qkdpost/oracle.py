"""Brute-force density-matrix verification engine.

Everything here recomputes, from explicit small matrices, quantities the rest
of the package obtains from closed forms, so the two routes can be compared:

* purifications of Bell-diagonal (and arbitrary two-qubit) states, with the
  eavesdropper holding the purifying system;
* the classical-classical-quantum state over (U1, U2, W1) and the two
  environment copies produced by measuring two purified copies in the z
  basis and applying the length-2 block reduction;
* von Neumann, min- and max-entropies on dense Hermitian matrices, with the
  generalized eigenvalue problem solved by congruence on the support;
* the discrete twirl (correlated Pauli averaging onto Bell-diagonal form);
* the coset decomposition of averaged eavesdropper states over a linear
  code's shifts;
* an entropy-inequality suite (monotonicity, a chain-rule instance, the
  removal bound, the fidelity-distance sandwich) on randomized inputs.

A measurement outcome is one subnormalized operator (or vector) on the
eavesdropper's system, and its probability is the trace (or squared norm).

All computations stay at dimension <= 256. Every entropy and support comes
from eigendecompositions of Hermitian matrices; fidelity alone takes the
general eigenvalues of rho*sigma. Entropies are in bits. Each entropy helper
has one core over (..., d, d) stacks; its public one-matrix function checks
the input and calls that core, and lemma_suite solves a chunk of samples with
one LAPACK call per quantity.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .blocks import as_count
from .channel import BellDiagonal
from .entropy import Dist, shannon_entropy

__all__ = [
    "CcqState",
    "WorstCaseRecord",
    "von_neumann_entropy",
    "max_entropy",
    "min_entropy",
    "fidelity",
    "trace_norm",
    "partial_trace",
    "purify_bell_diagonal",
    "purify_state",
    "bell_basis_vector",
    "assemble_two_copy_ccq",
    "conditional_entropy",
    "theorem3_direct",
    "discrete_twirl",
    "worst_case_check",
    "coset_decomposition_check",
    "lemma_suite",
    "random_bell_diagonal",
    "random_density",
]

# Hermiticity, eigenvalue and support tolerance of every oracle check.
_TOL = 1e-10
_MAX_DIM = 256

QUANTUM = "quantum"


def _finite(rho) -> np.ndarray:
    """A public entry point's square matrix of dimension at most _MAX_DIM,
    without NaN and infinite entries: LAPACK fails on some placements and
    on others (a NaN on the diagonal) returns finite, wrong eigenvalues."""
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if rho.shape[0] > _MAX_DIM:
        raise ValueError(f"dimension {rho.shape[0]} exceeds {_MAX_DIM}")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has non-finite entries")
    return rho


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, stacks broadcasting, by one broadcast
    product (the same products, without np.kron's per-call shape handling)."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (m * p, n * q))


def check_density(rho) -> np.ndarray:
    """Validate finiteness, Hermiticity, positivity and unit trace."""
    rho = _finite(rho)
    if np.abs(rho - rho.conj().T).max() > _TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -_TOL:
        raise ValueError(f"matrix has negative eigenvalue {eigs.min()}")
    if abs(np.trace(rho).real - 1.0) > 1e-8:
        raise ValueError(f"trace {np.trace(rho).real}, expected 1")
    return rho


def von_neumann_entropy(rho) -> float:
    """-sum lambda log2 lambda over the eigenvalues; zeros contribute 0."""
    return _spectral_entropy(_finite(rho)[None])[0]


def _spectral_entropy(rho: np.ndarray) -> list:
    """-sum lambda log2 lambda of each positive semidefinite matrix in a stack
    built here from finite inputs. Unit trace is not required: for a
    subnormalized block A this is -tr A log2 A. eigvalsh sorts ascending, so
    terms holds each row's positive eigenvalues as one run, row after row."""
    eigs = np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2.0)
    if eigs.min() < -_TOL:
        raise ValueError(f"state has negative eigenvalue {eigs.min()}")
    positive = eigs > 0.0
    terms = eigs[positive] * np.log2(eigs[positive])
    ends = np.cumsum(positive.sum(axis=-1)).tolist()
    return [float(-np.sum(terms[a:b])) if b > a else 0.0 for a, b in zip([0, *ends], ends)]


def max_entropy(rho) -> float:
    """log2 of the rank (eigenvalues above _TOL)."""
    return _max_entropy(_finite(rho)[None])[0]


def _max_entropy(rho: np.ndarray) -> list:
    ranks = np.count_nonzero(np.linalg.eigvalsh((rho + rho.conj().swapaxes(-1, -2)) / 2.0) > _TOL, axis=-1)
    if not ranks.all():
        raise ValueError("zero operator has no rank")
    return [math.log2(rank) for rank in ranks.tolist()]


def _support(rho: np.ndarray):
    """(eigenvalues, eigenvectors, support size k) of each matrix; the support is the last k."""
    w, v = np.linalg.eigh((rho + rho.conj().swapaxes(-1, -2)) / 2.0)
    return w, v, np.count_nonzero(w > _TOL, axis=-1)


def min_entropy(rho_ab, sigma_b, dims: tuple[int, int]) -> float:
    """-log2 of the least lambda with lambda*(id_A (x) sigma_B) >= rho_AB.

    Solved as the top eigenvalue of the congruence-transformed operator on
    the support of sigma_B. Returns -inf when rho's B-marginal leaks outside
    that support (the defining infimum is then empty).
    """
    rho_ab = _finite(rho_ab)
    sigma_b = _finite(sigma_b)
    da, db = dims
    if rho_ab.shape[0] != da * db or sigma_b.shape[0] != db:
        raise ValueError("dimension mismatch between state and conditioning system")
    return float(_min_entropy(rho_ab[None], sigma_b[None], da, db)[0])


def _min_entropy(rho_ab: np.ndarray, sigma_b: np.ndarray, da: int, db: int) -> np.ndarray:
    """min_entropy of each pair in stacks (n, da*db, da*db) and (n, db, db), solved in groups
    of one support size k of sigma_B, so each row runs the arithmetic of its one-matrix call."""
    out = np.full(len(rho_ab), -math.inf)
    w_all, v_all, ks = _support(sigma_b)
    rho_b = _partial_trace(rho_ab, (da, db), (1,))
    for k in np.unique(ks[ks > 0]).tolist():
        rows = np.flatnonzero(ks == k)
        vs = v_all[rows, :, db - k :]
        inside = vs.conj().swapaxes(1, 2) @ rho_b[rows] @ vs
        leak = np.trace(rho_b[rows], axis1=1, axis2=2).real - np.trace(inside, axis1=1, axis2=2).real
        rows, vs = rows[~(leak > _TOL)], vs[~(leak > _TOL)]
        iso = _kron(np.eye(da), vs)
        scale = _kron(np.eye(da), (w_all[rows, db - k :] ** -0.5)[:, :, None] * np.eye(k))
        lams = np.linalg.eigvalsh(scale @ (iso.conj().swapaxes(1, 2) @ rho_ab[rows] @ iso) @ scale)
        out[rows] = [math.inf if lam <= 0.0 else -math.log2(lam) for lam in lams.max(axis=-1).tolist()]
    return out


def fidelity(rho, sigma) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)), via the eigenvalues of rho*sigma
    (same spectrum, no explicit square roots). Valid for subnormalized
    operators as well."""
    return float(_fidelity(_finite(rho), _finite(sigma)))


def _fidelity(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvals(rho @ sigma)
    return np.sum(np.sqrt(np.clip(eigs.real, 0.0, None)), axis=-1)


def trace_norm(op) -> float:
    """Sum of absolute eigenvalues (Hermitian input)."""
    return float(_trace_norm(_finite(op)))


def _trace_norm(op: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh((op + op.conj().swapaxes(-1, -2)) / 2.0)).sum(axis=-1)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in keep (0-based, ascending)."""
    rho = _finite(rho)
    dims = tuple(as_count("dims", d, 1) for d in dims)
    keep = sorted(set(keep))
    if rho.shape[0] != math.prod(dims):
        raise ValueError("dims do not factor the matrix dimension")
    if any(i < 0 or i >= len(dims) for i in keep):
        raise ValueError("keep index out of range")
    return _partial_trace(rho, dims, keep)


def _partial_trace(rho: np.ndarray, dims: tuple, keep) -> np.ndarray:
    """partial_trace of each matrix in a stack, unchecked."""
    k, letters = len(dims), "abcdefghijklmnopqrstuvwxyz"
    col = "".join(letters[k + i] if i in keep else letters[i] for i in range(k))
    out = "".join(letters[i] for i in keep) + "".join(letters[k + i] for i in keep)
    expr = f"...{letters[:k]}{col}->...{out}"
    stack, d_keep = rho.shape[:-2], math.prod(dims[i] for i in keep)
    return np.einsum(expr, rho.reshape(stack + dims + dims)).reshape(stack + (d_keep, d_keep))


# --- purifications and the measured two-copy construction ---


def bell_basis_vector(x: int, z: int) -> np.ndarray:
    """(|0, x> + (-1)^z |1, 1+x>)/sqrt(2) on two qubits."""
    vec = np.zeros(4, dtype=complex)
    vec[2 * 0 + x] = 1.0
    vec[2 * 1 + (1 ^ x)] = -1.0 if z else 1.0
    return vec / math.sqrt(2.0)


def purify_bell_diagonal(p: BellDiagonal) -> np.ndarray:
    """Unit vector on A (x) B (x) E (2*2*4) whose E-trace is the mixture.

    The environment basis label 2x+z records which Bell component it
    purifies."""
    cols = np.zeros((4, 4), dtype=complex)
    for x, z in itertools.product((0, 1), repeat=2):
        weight = (p.p00, p.p10, p.p01, p.p11)[x + 2 * z]
        if weight > 0.0:
            cols[:, 2 * x + z] = math.sqrt(weight) * bell_basis_vector(x, z)
    return cols.reshape(-1)


def purify_state(rho) -> np.ndarray:
    """Eigen-purification: sum_i sqrt(lambda_i) |v_i>|i>, environment = rank."""
    w, v, k = _support(check_density(rho))
    return (v[:, w.size - k :] * np.sqrt(w[w.size - k :])).reshape(-1)


@dataclass(frozen=True)
class CcqState:
    """Classical registers plus one quantum system, block by block.

    blocks maps each tuple of register values to that outcome's
    subnormalized operator on the quantum system; its trace is the outcome's
    probability. The joint state is the direct sum of the blocks, so every
    entropy reduces to per-block spectra. Every block must be a finite
    square matrix of one shape; a ValueError names the block that is not.
    """

    registers: tuple[str, ...]
    blocks: dict

    def __post_init__(self):
        blocks = {}
        shape = None
        for key, op in self.blocks.items():
            try:
                op = _finite(op)
            except ValueError as err:
                raise ValueError(f"block {key}: {err}") from None
            shape = shape or op.shape
            if op.shape != shape:
                raise ValueError(f"block {key} has shape {op.shape}, the first block {shape}")
            blocks[key] = op
        object.__setattr__(self, "blocks", blocks)
        mass = math.fsum(np.trace(op).real for op in blocks.values())
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"block traces sum to {mass}")
        total = len(blocks) * shape[0]
        if total > _MAX_DIM:
            raise ValueError(f"total dimension {total} exceeds {_MAX_DIM}")


def _two_copy_ccq_from_pure(psi: np.ndarray) -> CcqState:
    """Measure two copies of a tripartite pure state in the z basis on A,B
    and label the outcomes with the block-reduction variables.

    psi has shape (2, 2, dE); outcome (a, b) leaves the environment in the
    subnormalized vector psi[a, b]. For outcomes (a1,b1), (a2,b2):
    u1 = a1+a2, w1 = (a1+b1)+(a2+b2), and u2 = a2 where w1 = 0, else 0.
    Each block is the sum of its outcomes' projectors, unnormalized.
    """
    if psi.ndim != 3 or psi.shape[:2] != (2, 2):
        raise ValueError(f"expected shape (2, 2, dE), got {psi.shape}")
    d_e = psi.shape[2]
    # vecs[a1, b1, a2, b2] = psi[a1, b1] (x) psi[a2, b2], and their projectors
    vecs = (psi[:, :, None, None, :, None] * psi[None, None, :, :, None, :]).reshape(2, 2, 2, 2, -1)
    projectors = vecs[..., :, None] * vecs.conj()[..., None, :]
    blocks: dict[tuple[int, int, int], np.ndarray] = {}
    for a1, b1, a2, b2 in itertools.product((0, 1), repeat=4):
        vec = vecs[a1, b1, a2, b2]
        if np.vdot(vec, vec).real <= 1e-300:
            continue
        w1 = (a1 ^ b1) ^ (a2 ^ b2)
        u1 = a1 ^ a2
        u2 = a2 if w1 == 0 else 0
        key = (u1, u2, w1)
        blocks.setdefault(key, np.zeros((d_e * d_e, d_e * d_e), dtype=complex))
        blocks[key] += projectors[a1, b1, a2, b2]
    return CcqState(registers=("u1", "u2", "w1"), blocks=blocks)


def assemble_two_copy_ccq(p: BellDiagonal) -> CcqState:
    """The (U1, U2, W1, E1 E2) state for two purified copies of p."""
    return _two_copy_ccq_from_pure(purify_bell_diagonal(p).reshape(2, 2, 4))


def conditional_entropy(ccq: CcqState, conditioned_on) -> float:
    """H(everything else | conditioned_on) = H(joint) - H(conditioned_on).

    conditioned_on is a collection of register names, optionally including
    "quantum" for the quantum part. Empty means the joint entropy.
    """
    names = set(conditioned_on)
    with_quantum = QUANTUM in names
    names.discard(QUANTUM)
    unknown = names - set(ccq.registers)
    if unknown:
        raise ValueError(f"unknown registers {sorted(unknown)}")
    joint = _ccq_entropy(ccq, set(ccq.registers), True)
    if not names and not with_quantum:
        return joint
    return joint - _ccq_entropy(ccq, names, with_quantum)


def _ccq_entropy(ccq: CcqState, names: set, with_quantum: bool) -> float:
    """Entropy of the marginal on the named registers (plus the quantum
    part when requested). The blocks sharing the named values sum to one
    subnormalized operator A_g of trace p_g; the entropy is
    sum_g -tr A_g log2 A_g with the quantum part, -sum_g p_g log2 p_g
    without it."""
    idx = [i for i, r in enumerate(ccq.registers) if r in names]
    groups: dict[tuple, np.ndarray] = {}
    for key, op in ccq.blocks.items():
        g = tuple(key[i] for i in idx)
        groups[g] = groups.get(g, 0.0) + op
    if with_quantum:
        return math.fsum(_spectral_entropy(np.stack(list(groups.values()))))
    probs = [float(np.trace(op).real) for op in groups.values()]
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def _measured_block_laws(psi: np.ndarray) -> tuple[Dist, Dist]:
    """(P_W1, P_W2 | W1=0) for two i.i.d. copies measured in the z basis."""
    weights = np.einsum("abe,abe->ab", psi, psi.conj()).real
    p_e = np.array([weights[0, 0] + weights[1, 1], weights[0, 1] + weights[1, 0]])
    p_e = p_e / p_e.sum()
    w1 = Dist([p_e[0] ** 2 + p_e[1] ** 2, 2.0 * p_e[0] * p_e[1]])
    # p_e is normalized, so w1(0) = p_e(0)^2 + p_e(1)^2 >= 1/2
    w2 = Dist([p_e[0] ** 2 / w1(0), p_e[1] ** 2 / w1(0)])
    return w1, w2


def _brackets(psi: np.ndarray) -> tuple[float, float, Dist, Dist]:
    """Unhalved bracket quantities of a purification of shape (2, 2, dE),
    with the block laws (P_W1, P_W2 | W1=0) measured from psi itself:

    first  = H(U1 U2 | W1 E1 E2) - H(P_W1) - P_W1(0) H(P_W2|W1=0)
    second = H(U2 | W1 U1 E1 E2) - P_W1(0) H(P_W2|W1=0)
    """
    ccq = _two_copy_ccq_from_pure(psi)
    w1, w2 = _measured_block_laws(psi)
    h_w2 = shannon_entropy(w2)
    joint = _ccq_entropy(ccq, set(ccq.registers), True)
    first = joint - _ccq_entropy(ccq, {"w1"}, True) - shannon_entropy(w1) - w1(0) * h_w2
    second = joint - _ccq_entropy(ccq, {"u1", "w1"}, True) - w1(0) * h_w2
    return first, second, w1, w2


def theorem3_direct(p: BellDiagonal) -> tuple[float, float]:
    """Both bracket arguments of the closed-form rate, from raw entropies of
    two purified copies of p (half of each bracket of _brackets)."""
    first, second, _, _ = _brackets(purify_bell_diagonal(p).reshape(2, 2, 4))
    return 0.5 * first, 0.5 * second


# --- discrete twirl and the worst-case comparison ---

_PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


# X^s Z^t (x) X^s Z^t for (s, t) = 00, 01, 10, 11
_PAULIS = np.stack(
    [np.linalg.matrix_power(_PAULI_X, s) @ np.linalg.matrix_power(_PAULI_Z, t) for s in (0, 1) for t in (0, 1)]
)
_TWIRL_UNITARIES = _kron(_PAULIS, _PAULIS)


def discrete_twirl(sigma) -> np.ndarray:
    """Average over correlated X^s Z^t on both qubits; output Bell-diagonal."""
    sigma = _finite(sigma)
    if sigma.shape[0] != 4:
        raise ValueError("discrete twirl acts on two-qubit states")
    out = np.zeros_like(sigma)
    for u in _TWIRL_UNITARIES:
        out += u @ sigma @ u.conj().T
    return out / 4.0


class WorstCaseRecord(NamedTuple):
    """Bracket quantities for a state and its twirl, plus the block laws."""

    first_original: float
    second_original: float
    first_twirled: float
    second_twirled: float
    w1_original: Dist
    w1_twirled: Dist
    w2_original: Dist
    w2_twirled: Dist


def worst_case_check(sigma) -> WorstCaseRecord:
    """Compare both bracket quantities for sigma against its discrete twirl."""
    f_o, s_o, w1_o, w2_o = _brackets(purify_state(sigma).reshape(2, 2, -1))
    f_t, s_t, w1_t, w2_t = _brackets(purify_state(discrete_twirl(sigma)).reshape(2, 2, -1))
    return WorstCaseRecord(f_o, s_o, f_t, s_t, w1_o, w1_t, w2_o, w2_t)


# --- coset decomposition of averaged eavesdropper states ---


def _coset_signs(words: np.ndarray, code: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """One row per coset of the dual code over the phase patterns words:
    (-1)^(shift . (z + j)) on the words z of the coset whose first word is
    j, 0 off it. Two words share a coset exactly when they have the same
    parities against every code word, so those parities label the cosets
    and the dual code is never listed."""
    _, first, label = np.unique((words @ code.T) & 1, axis=0, return_index=True, return_inverse=True)
    label = label.reshape(-1)
    signs = 1 - 2 * (((words ^ words[first[label]]) @ shift) & 1)
    return np.where(label == np.arange(first.size)[:, None], signs, 0)


def coset_decomposition_check(p: BellDiagonal, code, shift) -> float:
    """Max entrywise deviation between the code-averaged environment state
    and its coset eigendecomposition, over all discrepancy patterns.

    code is a set of length-m words closed under XOR; shift is the common
    offset a. Patterns with zero probability are skipped (both sides are
    conditioned on an impossible event). Given a discrepancy pattern xbar,
    every vector lives on the 2^m phase patterns z.
    """
    code = [tuple(int(b) for b in w) for w in code]
    shift = tuple(int(b) for b in shift)
    m = len(shift)
    if m > 3:
        raise ValueError("coset check limited to blocks of length <= 3")
    if any(len(w) != m for w in code):
        raise ValueError("code word length mismatch")
    words = (np.arange(2**m)[:, None] >> np.arange(m - 1, -1, -1)) & 1
    code, shift = np.array(code, dtype=np.int64).reshape(len(code), m), np.array(shift, dtype=np.int64)
    probs = np.array([[p.p00, p.p01], [p.p10, p.p11]])
    # (-1)^(x . z) for Alice's bits x = c + shift, one row per code word
    signs = 1 - 2 * (((code ^ shift) @ words.T) & 1)
    cosets = _coset_signs(words, code, shift)
    worst = 0.0
    for xbar in words:
        # sqrt(P(xbar, z)) of each phase pattern z; Eve's subnormalized vector
        # given x is (-1)^(x . z) sqrt(P(xbar, z)), of squared norm P(xbar),
        # and each coset's vector carries its signs on the same amplitudes.
        amps = np.sqrt(np.prod(probs[xbar, words], axis=1))
        eve = signs * amps
        px = float(eve[0] @ eve[0])
        if px <= 1e-14:
            continue
        lhs = sum(np.outer(vec, vec) for vec in eve) / len(code)
        rhs = sum(np.outer(vec, vec) for vec in cosets * amps)
        worst = max(worst, float(np.abs(lhs - rhs).max()) / px)
    return worst


# --- randomized entropy-inequality suite ---


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Normalized G G^dagger with complex Gaussian G of the given rank."""
    dim = as_count("dim", dim, 1)
    rank = dim if rank is None else as_count("rank", rank, 1)
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_bell_diagonal(rng: np.random.Generator) -> BellDiagonal:
    probs = rng.dirichlet(np.ones(4))
    vals = [float(v) for v in probs]
    vals[0] = 1.0 - (vals[1] + vals[2] + vals[3])
    return BellDiagonal(*vals)


_LEMMAS = ("monotonicity", "chain_rule", "removal", "sandwich_lower", "sandwich_upper", "operator_bound")
# Samples per stack in lemma_suite: every LAPACK call sees a whole chunk,
# and memory stays bounded at any sample count.
_CHUNK = 256


def lemma_suite(samples: int, rng: np.random.Generator) -> dict:
    """Max violation per inequality over randomized instances.

    All instances are exact (no smoothing): each reported number is the true
    maximum, which should be <= 0 up to numerical noise, and the suite's
    consumers assert <= 1e-9. Samples are drawn one by one and checked in
    stacks of at most _CHUNK.
    """
    samples = as_count("samples", samples, 1)
    worst = dict.fromkeys(_LEMMAS, -math.inf)
    for start in range(0, samples, _CHUNK):
        for name, values in zip(_LEMMAS, _lemma_chunk(min(_CHUNK, samples - start), rng)):
            worst[name] = max(worst[name], *values)
    return worst


def _lemma_chunk(count: int, rng: np.random.Generator) -> tuple:
    """Each inequality's violations on count fresh samples, in _LEMMAS and
    sample order. A sample's inputs are drawn in the order its checks use them."""
    draws = [
        (
            rng.dirichlet(np.ones(2)),
            *(random_density(4, rng, rank=int(rng.integers(1, 5))) for _ in range(2)),
            random_density(2, rng),
            random_density(8, rng, rank=int(rng.integers(1, 9))),
            random_density(2, rng),
            random_density(8, rng, rank=int(rng.integers(1, 9))),
            random_density(2, rng),
            random_density(4, rng) * float(rng.uniform(0.5, 1.0)),
            random_density(4, rng) * float(rng.uniform(0.5, 1.0)),
            random_density(4, rng, rank=int(rng.integers(1, 5))),
        )
        for _ in range(count)
    ]
    probs, part0, part1, sigma_m, rho_c, sigma_c, rho_r, sigma_r, rho, sig, rho_ab = map(np.stack, zip(*draws))

    # monotonicity: adding a classical register cannot lower min-entropy
    rho_xbc = np.zeros((count, 8, 8), dtype=complex)
    for x, part in enumerate((part0, part1)):
        rho_xbc += probs[:, x, None, None] * _kron(np.diag([1.0 - x, x]), part)
    rho_bc = probs[:, 0, None, None] * part0 + probs[:, 1, None, None] * part1
    monotonicity = _min_entropy(rho_bc, sigma_m, 2, 2) - _min_entropy(rho_xbc, sigma_m, 4, 2)

    # chain rule witness: conditioning on B's uniformized support loses
    # at most the max-entropy of B
    _, vb, rank_b = _support(_partial_trace(rho_c, (2, 2, 2), (1,)))
    proj_b = np.empty((count, 2, 2), dtype=complex)
    for k in np.unique(rank_b).tolist():
        rows = np.flatnonzero(rank_b == k)
        proj_b[rows] = vb[rows, :, 2 - k :] @ vb[rows, :, 2 - k :].conj().swapaxes(1, 2)
    h_bc = _min_entropy(rho_c, _kron(proj_b / rank_b[:, None, None], sigma_c), 2, 4)
    chain_rule = (_min_entropy(rho_c, sigma_c, 4, 2) - np.log2(rank_b)) - h_bc

    # removal bound: discarding A costs at most its max-entropy
    rho_bc = _partial_trace(rho_r, (2, 2, 2), (1, 2))
    h_a = _max_entropy(_partial_trace(rho_r, (2, 2, 2), (0,)))
    removal = (_min_entropy(rho_bc, sigma_r, 2, 2) - h_a) - _min_entropy(rho_r, sigma_r, 4, 2)

    # fidelity-distance sandwich on subnormalized operators
    fid, tn = _fidelity(rho, sig).tolist(), _trace_norm(rho - sig).tolist()
    traces = np.trace(rho, axis1=1, axis2=2).real + np.trace(sig, axis1=1, axis2=2).real
    # per-sample scalars, with the scalar powers and sqrt of the one-sample check
    lower = [float((t - 2.0 * f) - n) for t, f, n in zip(traces, fid, tn)]
    upper = [n - math.sqrt(max(t**2 - 4.0 * f**2, 0.0)) for t, f, n in zip(traces, fid, tn)]

    # operator inequality behind the removal bound:
    # rank(rho_A) id_A (x) rho_B >= rho_AB
    rank_a = np.count_nonzero(np.linalg.eigvalsh(_partial_trace(rho_ab, (2, 2), (0,))) > _TOL, axis=-1)
    bound = rank_a[:, None, None] * _kron(np.eye(2), _partial_trace(rho_ab, (2, 2), (1,))) - rho_ab
    gaps = np.linalg.eigvalsh(bound).min(axis=-1)
    return monotonicity.tolist(), chain_rule.tolist(), removal.tolist(), lower, upper, (-gaps).tolist()
