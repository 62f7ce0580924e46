"""Brute-force density-matrix verification engine.

Everything here recomputes, from explicit small matrices, quantities the rest
of the package obtains from closed forms, so the two routes can be compared:

* purifications of Bell-diagonal (and arbitrary two-qubit) states, with the
  eavesdropper holding the purifying system;
* the classical-classical-quantum state over (U1, U2, W1) and the two
  environment copies produced by measuring two purified copies in the z
  basis and applying the length-2 block reduction, kept as one environment
  vector per measurement outcome, its probability the squared norm; a group
  of outcomes has the nonzero spectrum of its Gram matrix <x_i|x_j>;
* von Neumann, min- and max-entropies on dense Hermitian matrices, with the
  generalized eigenvalue problem solved by congruence on the support;
* the discrete twirl (correlated Pauli averaging onto Bell-diagonal form);
* the coset decomposition of averaged eavesdropper states over a linear
  code's shifts;
* an entropy-inequality suite (monotonicity, a chain-rule instance, the
  removal bound, the fidelity-distance sandwich) on randomized inputs.

All computations stay at dimension <= 256. Every entropy and support comes
from eigendecompositions of Hermitian matrices; fidelity alone takes the
general eigenvalues of rho*sigma. Entropies are in bits. Each entropy helper
has one core over (..., d, d) stacks, called by its public one-matrix
function after the input checks (finite, nonempty and, for the entropies,
fidelity and trace norm, Hermitian within _TOL); input numpy cannot read as
numbers is a ValueError. lemma_suite draws a sample in 14 generator calls,
with the stream of one call per draw, forms a chunk's densities in one
product per (dim, rank) and solves the chunk with one LAPACK call per
quantity; the brackets form the zero-padded two-copy stack in one product,
solve each distinct outcome group of their three marginals once, in one
stack over all their states, and _spectral_entropy reduces the stack's
spectra in one array pass. worst_case_check purifies sigma and its twirl
from one eigh of the pair.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .blocks import as_count, as_instance
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
_REGISTERS = ("u1", "u2", "w1")
# (u1, u2, w1) = (a1+a2, a2 if w1 = 0 else 0, a1+b1+a2+b2) of outcome (a1, b1, a2, b2) = (a, b, c, d), product order
_OUTCOME_KEYS = [(a ^ c, c * (a ^ b == c ^ d), a ^ b ^ c ^ d) for a, b, c, d in itertools.product((0, 1), repeat=4)]


def _finite(rho) -> np.ndarray:
    """A public entry point's square matrix of dimension at most _MAX_DIM,
    without NaN and infinite entries: LAPACK fails on some placements and
    on others (a NaN on the diagonal) returns finite, wrong eigenvalues."""
    try:
        rho = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError):
        # an object, a dict, a non-numeric string or a ragged nesting
        raise ValueError(f"expected a numeric square matrix, got {type(rho).__name__}") from None
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if rho.shape[0] == 0:
        raise ValueError("matrix has dimension 0")
    if rho.shape[0] > _MAX_DIM:
        raise ValueError(f"dimension {rho.shape[0]} exceeds {_MAX_DIM}")
    if not np.isfinite(rho).all():
        raise ValueError("matrix has non-finite entries")
    return rho


def _hermitian(rho) -> np.ndarray:
    """_finite's matrix, Hermitian within _TOL, as every entropy, the fidelity
    and the trace norm assume: eigvalsh and eigh read one triangle, so a
    non-Hermitian input would be answered as some other matrix."""
    rho = _finite(rho)
    if np.abs(rho - rho.conj().T).max() > _TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    return rho


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of the last two axes, stacks broadcasting, by one broadcast
    product (the same products, without np.kron's per-call shape handling)."""
    (m, n), (p, q) = a.shape[-2:], b.shape[-2:]
    prod = a[..., :, None, :, None] * b[..., None, :, None, :]
    return prod.reshape(prod.shape[:-4] + (m * p, n * q))


def von_neumann_entropy(rho) -> float:
    """-sum lambda log2 lambda over the eigenvalues; zeros contribute 0."""
    return float(_spectral_entropy(_hermitian(rho)[None])[0])


def _spectral_entropy(rho: np.ndarray) -> np.ndarray:
    """-sum lambda log2 lambda of each Hermitian positive semidefinite matrix
    in a stack, as one array, +0.0 where no term is nonzero. eigvalsh reads
    one triangle, so the callers pass Hermitian matrices: Gram matrices, or
    a public entry point's checked input. Unit trace is not required: for a
    subnormalized block A this is -tr A log2 A."""
    eigs = np.linalg.eigvalsh(rho)
    if eigs.min() < -_TOL:
        raise ValueError(f"state has negative eigenvalue {eigs.min()}")
    return 0.0 - (eigs * np.log2(np.where(eigs > 0.0, eigs, 1.0))).sum(axis=-1)


def max_entropy(rho) -> float:
    """log2 of the rank (eigenvalues above _TOL)."""
    return _max_entropy(_hermitian(rho)[None])[0]


def _max_entropy(rho: np.ndarray) -> list:
    eigs = np.linalg.eigvalsh((rho.conj().swapaxes(-1, -2) + rho) * 0.5)
    if eigs.min() < -_TOL:
        raise ValueError(f"state has negative eigenvalue {eigs.min()}")
    ranks = np.count_nonzero(eigs > _TOL, axis=-1)
    if not ranks.all():
        raise ValueError("zero operator has no rank")
    return [math.log2(rank) for rank in ranks.tolist()]


def _support(rho: np.ndarray):
    """(eigenvalues, eigenvectors, support size k) of each matrix; the support is the last k."""
    w, v = np.linalg.eigh((rho.conj().swapaxes(-1, -2) + rho) * 0.5)
    return w, v, np.count_nonzero(w > _TOL, axis=-1)


def min_entropy(rho_ab, sigma_b, dims: tuple[int, int]) -> float:
    """-log2 of the least lambda with lambda*(id_A (x) sigma_B) >= rho_AB, solved
    as the top eigenvalue of the congruence-transformed operator on the support
    of sigma_B; -inf when rho's B-marginal leaks outside that support (the
    defining infimum is then empty)."""
    rho_ab, sigma_b = _hermitian(rho_ab), _hermitian(sigma_b)
    da, db = (as_count("dims", d, 1) for d in dims)
    if rho_ab.shape[0] != da * db or sigma_b.shape[0] != db:
        raise ValueError("dimension mismatch between state and conditioning system")
    w, v, _ = _support(sigma_b[None])
    return float(_min_entropy(rho_ab[None], w, v, da, db)[0])


def _min_entropy(rho_ab: np.ndarray, w_b: np.ndarray, v_b: np.ndarray, da: int, db: int) -> np.ndarray:
    """min_entropy of each rho_AB in a stack (n, da*db, da*db), against the
    sigma_B whose eigendecomposition (w_b, v_b), eigenvalues ascending, is
    given, so a caller solves each sigma_B once. Solved in groups of one
    support size k of sigma_B, so each row runs the arithmetic of its
    one-matrix call."""
    out = np.full(len(rho_ab), -math.inf)
    ks = np.count_nonzero(w_b > _TOL, axis=-1)
    rho_b = _partial_trace(rho_ab, (da, db), (1,))
    for k in np.unique(ks[ks > 0]).tolist():
        rows = np.flatnonzero(ks == k)
        vs = v_b[rows, :, db - k :]
        inside = vs.conj().swapaxes(1, 2) @ rho_b[rows] @ vs
        leak = np.trace(rho_b[rows], axis1=1, axis2=2).real - np.trace(inside, axis1=1, axis2=2).real
        rows, vs = rows[~(leak > _TOL)], vs[~(leak > _TOL)]
        iso, s = _kron(np.eye(da), vs), np.tile(w_b[rows, db - k :] ** -0.5, da)
        # s is the diagonal of kron(id_A, sigma_B^(-1/2)) on the support
        lams = np.linalg.eigvalsh(iso.conj().swapaxes(1, 2) @ rho_ab[rows] @ iso * s[:, :, None] * s[:, None, :])
        out[rows] = [math.inf if lam <= 0.0 else -math.log2(lam) for lam in lams.max(axis=-1).tolist()]
    return out


def fidelity(rho, sigma) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)), via the eigenvalues of rho*sigma
    (same spectrum, no explicit square roots). Valid for subnormalized
    operators as well."""
    rho, sigma = _hermitian(rho), _hermitian(sigma)
    if rho.shape != sigma.shape:
        raise ValueError(f"dimension mismatch between rho ({len(rho)}) and sigma ({len(sigma)})")
    return float(_fidelity(rho, sigma))


def _fidelity(rho: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    eigs = np.linalg.eigvals(rho @ sigma)
    return np.sum(np.sqrt(np.clip(eigs.real, 0.0, None)), axis=-1)


def trace_norm(op) -> float:
    """Sum of absolute eigenvalues (Hermitian input)."""
    return float(_trace_norm(_hermitian(op)))


def _trace_norm(op: np.ndarray) -> np.ndarray:
    return np.abs(np.linalg.eigvalsh((op.conj().swapaxes(-1, -2) + op) * 0.5)).sum(axis=-1)


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in keep (0-based, ascending)."""
    rho = _finite(rho)
    dims = tuple(as_count("dims", d, 1) for d in dims)
    keep = sorted({as_count("keep", k, 0, len(dims) - 1) for k in keep})
    if rho.shape[0] != math.prod(dims):
        raise ValueError("dims do not factor the matrix dimension")
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


# Column 2x+z is bell_basis_vector(x, z).
_BELL = np.stack([bell_basis_vector(x, z) for x in (0, 1) for z in (0, 1)], axis=1)


def purify_bell_diagonal(p: BellDiagonal) -> np.ndarray:
    """Unit vector on A (x) B (x) E (2*2*4) whose E-trace is the mixture.

    The environment basis label 2x+z records which Bell component it
    purifies. An entry that rounding leaves slightly negative counts as 0."""
    p = as_instance("p", p, BellDiagonal)
    return (_BELL * np.sqrt(np.maximum([p.p00, p.p01, p.p10, p.p11], 0.0))).reshape(-1)


def purify_state(rho) -> np.ndarray:
    """Eigen-purification: sum_i sqrt(lambda_i) |v_i>|i>, environment = rank.
    rho must be a density matrix: finite, Hermitian, positive and of unit
    trace; positivity is read from the eigenvalues it purifies with, solved
    by _purifications as a stack of one."""
    return _purifications(_hermitian(rho)[None])[0].reshape(-1)


def _purifications(rho: np.ndarray) -> np.ndarray:
    """purify_state of each Hermitian matrix in a stack (b, d, d), as
    (b, d, dE), from one eigh; dE is the largest rank, and a row of lower
    rank gets zero columns on its null space. The first row that fails a
    check names its failure, its negative eigenvalue before its trace."""
    w, v, k = _support(rho)
    low, trace = w[:, 0], np.trace(rho, axis1=1, axis2=2).real
    failed = (low < -_TOL) | (np.abs(trace - 1.0) > 1e-8)
    if failed.any():
        row = failed.argmax()
        if low[row] < -_TOL:
            raise ValueError(f"matrix has negative eigenvalue {low[row].item()}")
        raise ValueError(f"trace {trace[row].item()}, expected 1")
    w, v = w[:, w.shape[1] - k.max() :], v[:, :, w.shape[1] - k.max() :]
    return v * np.sqrt(np.where(w > _TOL, w, 0.0))[:, None, :]


@dataclass(frozen=True)
class CcqState:
    """Classical registers plus one quantum system, outcome by outcome.

    keys holds each outcome's tuple of register values and vectors, one row
    per outcome, its subnormalized vector on the quantum system; the squared
    norm is the outcome's probability, and every entropy reduces to Gram
    spectra of outcome vectors. A ValueError names a non-finite outcome.
    """

    registers: tuple[str, ...]
    keys: tuple
    vectors: np.ndarray

    def __post_init__(self):
        try:
            keys, vectors = tuple(map(tuple, self.keys)), np.asarray(self.vectors, dtype=complex)
        except (TypeError, ValueError):
            raise ValueError(f"expected numeric outcome vectors, got {type(self.vectors).__name__}") from None
        if vectors.ndim != 2 or len(vectors) != len(keys):
            raise ValueError(f"vectors have shape {vectors.shape}: expected one row for each of {len(keys)} keys")
        for what, size in (("outcome count", len(keys)), ("dimension", vectors.shape[1])):
            if size > _MAX_DIM:
                raise ValueError(f"{what} {size} exceeds {_MAX_DIM}")
        finite = np.isfinite(vectors).all(axis=1)
        if not finite.all():
            raise ValueError(f"outcome {keys[finite.argmin()]} has non-finite entries")
        mass = math.fsum(np.einsum("od,od->o", vectors.conj(), vectors).real.tolist())
        if abs(mass - 1.0) > 1e-9:
            raise ValueError(f"squared norms sum to {mass}")
        object.__setattr__(self, "keys", keys)
        object.__setattr__(self, "vectors", vectors)


def _two_copy_vectors(psi: np.ndarray) -> np.ndarray:
    """The 16 outcome vectors of two copies of each tripartite pure state of
    a stack psi (b, 2, 2, dE) measured in the z basis on A,B, as rows 0-15
    of a (b, 17, dE^2) stack whose row 16 is zero, the pad row of the
    _group_rows layouts; outcome (a, b) leaves the environment in the
    subnormalized vector psi[a, b]. Outcome (a1, b1), (a2, b2), labelled by
    _OUTCOME_KEYS, keeps psi[a1, b1] (x) psi[a2, b2], zero or not."""
    if psi.ndim != 4 or psi.shape[1:3] != (2, 2):
        raise ValueError(f"expected shape (b, 2, 2, dE), got {psi.shape}")
    b, de = len(psi), psi.shape[3]
    out = np.zeros((b, 17, de * de), dtype=complex)
    # row 8*a1 + 4*b1 + 2*a2 + b2 is psi[a1, b1] (x) psi[a2, b2]
    np.multiply(psi[:, :, :, None, None, :, None], psi[:, None, None, :, :, None, :],
                out=out[:, :16].reshape(b, 2, 2, 2, 2, de, de))
    return out


def assemble_two_copy_ccq(p: BellDiagonal) -> CcqState:
    """The (U1, U2, W1, E1 E2) state for two purified copies of p."""
    vectors = _two_copy_vectors(purify_bell_diagonal(p).reshape(1, 2, 2, 4))[0, :16]
    return CcqState(registers=_REGISTERS, keys=_OUTCOME_KEYS, vectors=vectors)


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
    marginals = [(ccq.registers, True)] + ([(names, with_quantum)] if names or with_quantum else [])
    padded = np.concatenate([ccq.vectors, np.zeros_like(ccq.vectors[:1])])[None]
    joint, *given = _ccq_entropies(padded, marginals, _group_rows(ccq.registers, ccq.keys, marginals))[0]
    return joint - given[0] if given else joint


def _group_rows(registers, keys, marginals: list) -> tuple[np.ndarray, list]:
    """The groups of every marginal (names, with_quantum): the outcomes that
    share the named register values, in first-seen order. Returns one row of
    outcome indices per distinct group, padded to the widest group with
    len(keys), the index of an appended zero row, and for each marginal the
    rows of its groups, so a group that marginals share is solved once."""
    rows, members = {}, []
    for names, _ in marginals:
        idx = [j for j, r in enumerate(registers) if r in names]
        groups: dict = {}
        for i, key in enumerate(keys):
            groups.setdefault(tuple([key[j] for j in idx]), []).append(i)
        members.append([rows.setdefault(tuple(group), len(rows)) for group in groups.values()])
    width = max(map(len, rows))
    return np.array([[*group] + [len(keys)] * (width - len(group)) for group in rows]), members


def _ccq_entropies(vectors: np.ndarray, marginals: list, layout: tuple[np.ndarray, list]) -> list[list[float]]:
    """Entropy of each marginal (names, with_quantum), one list per state of a
    stack (b, outcomes + 1, d) of outcome vectors whose last row is zero,
    from their _group_rows layout. A group's block A_g = X X^dagger, with its
    outcome vectors as the columns of X, has the nonzero spectrum of the
    k x k Gram matrix X^dagger X, and a zero pad column adds a zero
    eigenvalue. The entropy is the math.fsum over the marginal's groups of
    -tr A_g log2 A_g with the quantum part, of -p_g log2 p_g, p_g the Gram
    trace, without it; the traces are formed only when such a marginal asks.
    One Gram product and one eigvalsh call serve the stack, the latter up to
    the last group a quantum marginal reads: exactly theirs when, as in
    every caller, the quantum marginals come first. The k x k Gram form
    serves every vector dimension d: at these sizes (k <= 8, d <= 16) call
    overhead sets the time."""
    rows, members = layout
    x = vectors.take(rows, axis=1)
    gram = x.conj() @ x.swapaxes(2, 3)
    quantum = [q for _, q in marginals]
    solved, shannon = len(rows), [None] * len(x)
    if not all(quantum):
        traces = np.trace(gram, axis1=2, axis2=3).real.tolist()
        shannon = [[-p * math.log2(p) if p > 0.0 else 0.0 for p in state] for state in traces]
        solved = 1 + max(g for groups, q in zip(members, quantum) if q for g in groups)
    spectra = _spectral_entropy(gram[:, :solved].reshape((-1,) + gram.shape[2:])).reshape(len(x), -1).tolist()
    return [
        [math.fsum(map((spectral if q else classical).__getitem__, groups)) for groups, q in zip(members, quantum)]
        for spectral, classical in zip(spectra, shannon)
    ]


# The joint, {w1} and {u1, w1} marginals of the brackets, grouped once
_BRACKET_MARGINALS = [(_REGISTERS, True), (("w1",), True), (("u1", "w1"), True)]
_BRACKET_LAYOUT = _group_rows(_REGISTERS, _OUTCOME_KEYS, _BRACKET_MARGINALS)


def _measured_block_laws(psi: np.ndarray) -> Iterator[tuple[Dist, Dist]]:
    """(P_W1, P_W2 | W1=0) for two i.i.d. copies measured in the z basis, of
    each state in a stack (b, 2, 2, dE) in turn: one einsum, then Python
    floats, each square a C pow as numpy's float64 scalar power is."""
    for (w00, w01), (w10, w11) in np.einsum("sabe,sabe->sab", psi, psi.conj()).real.tolist():
        total = (w00 + w11) + (w01 + w10)
        e0, e1 = (w00 + w11) / total, (w01 + w10) / total
        w1 = Dist([e0**2 + e1**2, 2.0 * e0 * e1])
        # (e0, e1) is normalized, so w1(0) = e0^2 + e1^2 >= 1/2
        yield w1, Dist([e0**2 / w1(0), e1**2 / w1(0)])


def _brackets(psi: np.ndarray) -> Iterator[tuple[float, float, Dist, Dist]]:
    """Unhalved bracket quantities of each purification in a stack (b, 2, 2, dE),
    with the block laws (P_W1, P_W2 | W1=0) measured from it, the whole stack
    in one two-copy product, one Gram product and one (10b, 8, 8) eigvalsh:

    first  = H(U1 U2 | W1 E1 E2) - H(P_W1) - P_W1(0) H(P_W2|W1=0)
    second = H(U2 | W1 U1 E1 E2) - P_W1(0) H(P_W2|W1=0)
    """
    entropies = _ccq_entropies(_two_copy_vectors(psi), _BRACKET_MARGINALS, _BRACKET_LAYOUT)
    for (joint, h_w1, h_u1_w1), (w1, w2) in zip(entropies, _measured_block_laws(psi)):
        h_w2 = shannon_entropy(w2)
        yield joint - h_w1 - shannon_entropy(w1) - w1(0) * h_w2, joint - h_u1_w1 - w1(0) * h_w2, w1, w2


def theorem3_direct(p: BellDiagonal) -> tuple[float, float]:
    """Both bracket arguments of the closed-form rate, from raw entropies of
    two purified copies of p (half of each bracket of _brackets, a stack of one)."""
    ((first, second, _, _),) = _brackets(purify_bell_diagonal(p).reshape(1, 2, 2, 4))
    return 0.5 * first, 0.5 * second


# --- discrete twirl and the worst-case comparison ---

# X^s Z^t (x) X^s Z^t for (s, t) = 00, 01, 10, 11
_X, _Z = np.array([[[0, 1], [1, 0]], [[1, 0], [0, -1]]], dtype=complex)
_PAULIS = np.stack([np.linalg.matrix_power(_X, s) @ np.linalg.matrix_power(_Z, t) for s in (0, 1) for t in (0, 1)])
_TWIRL_UNITARIES = _kron(_PAULIS, _PAULIS)


def discrete_twirl(sigma) -> np.ndarray:
    """Average over correlated X^s Z^t on both qubits; output Bell-diagonal."""
    sigma = _finite(sigma)
    if sigma.shape[0] != 4:
        raise ValueError("discrete twirl acts on two-qubit states")
    return (_TWIRL_UNITARIES @ sigma @ _TWIRL_UNITARIES.conj().swapaxes(1, 2)).sum(axis=0, initial=0.0) / 4.0


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
    """Both bracket quantities of sigma and its discrete twirl, from one eigh and one _brackets call."""
    sigma = _hermitian(sigma)
    psi = _purifications(np.stack([sigma, discrete_twirl(sigma)])).reshape(2, 2, 2, -1)
    (f_o, s_o, w1_o, w2_o), (f_t, s_t, w1_t, w2_t) = _brackets(psi)
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

    code lists each word of a set of length-m words closed under XOR once,
    a ValueError otherwise; shift is the common offset a. Patterns of zero
    probability are skipped (both sides condition on an impossible event);
    a discrepancy pattern xbar's vectors live on the 2^m phase patterns z.
    """
    p, code, shift = as_instance("p", p, BellDiagonal), [tuple(w) for w in code], tuple(shift)
    for name, word in [*(("code word", w) for w in code), ("shift", shift)]:
        if set(word) - {0, 1}:
            raise ValueError(f"{name} {word} has an entry other than 0 or 1")
    if not code:
        raise ValueError("empty code: a set closed under XOR holds at least the zero word")
    m = len(shift)
    if m > 3:
        raise ValueError("coset check limited to blocks of length <= 3")
    if any(len(w) != m for w in code):
        raise ValueError("code word length mismatch")
    if len(set(code)) < len(code):
        raise ValueError(f"code word {max(code, key=code.count)} is repeated")
    for a, b in itertools.product(code, repeat=2):
        if tuple(x ^ y for x, y in zip(a, b)) not in code:
            raise ValueError(f"code is not closed under XOR: {a} + {b} is not a code word")
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


def _densities(g: np.ndarray) -> np.ndarray:
    """Normalized G G^dagger of each G = g[i, 0] + 1j g[i, 1] in a stack of
    shape (n, 2, dim, rank), each row with the arithmetic of a 2-D call."""
    g = g[:, 0] + 1j * g[:, 1]
    rho = g @ g.conj().swapaxes(1, 2)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def random_density(dim: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """Normalized G G^dagger with complex Gaussian G of the given rank."""
    dim = as_count("dim", dim, 1)
    rank = dim if rank is None else as_count("rank", rank, 1)
    return _densities(as_instance("rng", rng, np.random.Generator).standard_normal((1, 2, dim, rank)))[0]


def random_bell_diagonal(rng: np.random.Generator) -> BellDiagonal:
    p10, p01, p11 = as_instance("rng", rng, np.random.Generator).dirichlet(np.ones(4)).tolist()[1:]
    return BellDiagonal(1.0 - (p10 + p01 + p11), p10, p01, p11)


_LEMMAS = ("monotonicity", "chain_rule", "removal", "sandwich_lower", "sandwich_upper", "operator_bound")
# Samples per stack in lemma_suite: every LAPACK call sees a whole chunk,
# and memory stays bounded at any sample count.
_CHUNK = 256


def lemma_suite(samples: int, rng: np.random.Generator) -> dict:
    """Max violation per inequality over randomized instances.

    All instances are exact (no smoothing): each reported number is the true
    maximum, which should be <= 0 up to numerical noise, and the suite's
    consumers assert <= 1e-9. Samples are drawn one by one, and their
    densities formed and checked in stacks of at most _CHUNK.
    """
    samples, rng = as_count("samples", samples, 1), as_instance("rng", rng, np.random.Generator)
    worst = dict.fromkeys(_LEMMAS, -math.inf)
    for start in range(0, samples, _CHUNK):
        for name, values in zip(_LEMMAS, _lemma_chunk(min(_CHUNK, samples - start), rng)):
            worst[name] = max(worst[name], *values)
    return worst


# (dim, rank) of a lemma sample's ten densities in draw order: a None rank is
# drawn from 1..dim first, and _SCALED_SLOTS draw a scale in [0.5, 1) after.
_SLOTS = ((4, None), (4, None), (2, 2), (8, None), (2, 2), (8, None), (2, 2), (4, 4), (4, 4), (4, None))
_SCALED_SLOTS = (7, 8)
_SLOT_DIMS = np.array([dim for dim, _ in _SLOTS])


def _normal_runs() -> tuple:
    """The slots whose Gaussian entries one standard_normal call draws: a run
    starts at a drawn rank and ends at a scale. One (dim, size, scaled) per
    run: the dim of its drawn rank (0 if none), the entries of its other
    slots, and whether a scale follows."""
    runs = []
    for j, (dim, rank) in enumerate(_SLOTS):
        if rank is None or j - 1 in _SCALED_SLOTS or not runs:
            runs.append([0 if rank else dim, 0, False])
        runs[-1][1] += 2 * dim * (rank or 0)
        runs[-1][2] = j in _SCALED_SLOTS
    return tuple(map(tuple, runs))


_NORMAL_RUNS = _normal_runs()


def _lemma_draws(count: int, rng: np.random.Generator) -> list:
    """The mixing weights and ten density stacks of count samples, drawn
    sample by sample in _SLOTS order, in 14 generator calls a sample with the
    stream of the per-sample draws: the weights as the normalized
    standard_exponential(2) that dirichlet(np.ones(2)) draws, each scale as
    0.5 + 0.5 * random(), as uniform(0.5, 1.0) forms it, and each of
    _NORMAL_RUNS in one standard_normal call, which splits into the values
    of one call per slot. Each (dim, rank) gathers its Gaussian entries from
    the drawn stream and forms its densities in one _densities call,
    unpadded, since zero columns would change the bits; each slot's stack
    is filled by index assignment."""
    exps, ranks, normals, units = np.empty((count, 2)), [], [], []
    for i in range(count):
        rng.standard_exponential(out=exps[i])
        for dim, size, scaled in _NORMAL_RUNS:
            if dim:
                rank = int(rng.integers(1, dim + 1))
                ranks.append(rank)
                size += 2 * dim * rank
            normals.append(rng.standard_normal(size))
            if scaled:
                units.append(rng.random())
    rank = np.tile([r or 0 for _, r in _SLOTS], (count, 1))
    rank[:, [j for j, (_, r) in enumerate(_SLOTS) if r is None]] = np.reshape(ranks, (count, -1))
    # each density's entries start where the stream reaches its (sample, slot)
    sizes = 2 * _SLOT_DIMS * rank
    starts, flat = np.cumsum(sizes).reshape(count, -1) - sizes, np.concatenate(normals)
    slots = [None] * len(_SLOTS)
    for dim in np.unique(_SLOT_DIMS).tolist():
        cols = np.flatnonzero(_SLOT_DIMS == dim)
        stacks = np.empty((len(cols), count, dim, dim), dtype=complex)
        for r in np.unique(rank[:, cols]).tolist():
            # the group's rows in draw order: sample by sample, slot by slot
            rows = rank[:, cols] == r
            g = flat[starts[:, cols][rows][:, None] + np.arange(2 * dim * r)]
            stacks.transpose(1, 0, 2, 3)[rows] = _densities(g.reshape(-1, 2, dim, r))
        for j, stack in zip(cols.tolist(), stacks):
            slots[j] = stack
    for j, scale in zip(_SCALED_SLOTS, (0.5 + 0.5 * np.reshape(units, (count, -1))).T):
        slots[j] = slots[j] * scale[:, None, None]
    probs = exps * (1.0 / (0.0 + exps[:, 0] + exps[:, 1]))[:, None]
    return [probs, *slots]


def _lemma_chunk(count: int, rng: np.random.Generator) -> tuple:
    """Each inequality's violations on count fresh samples, in _LEMMAS and sample order."""
    probs, part0, part1, sigma_m, rho_c, sigma_c, rho_r, sigma_r, rho, sig, rho_ab = _lemma_draws(count, rng)

    # monotonicity: adding a classical register cannot lower min-entropy
    rho_xbc = np.zeros((count, 8, 8), dtype=complex)
    for x, part in enumerate((part0, part1)):
        rho_xbc += probs[:, x, None, None] * _kron(np.diag([1.0 - x, x]), part)
    rho_bc = probs[:, 0, None, None] * part0 + probs[:, 1, None, None] * part1
    w_m, v_m, _ = _support(sigma_m)
    monotonicity = _min_entropy(rho_bc, w_m, v_m, 2, 2) - _min_entropy(rho_xbc, w_m, v_m, 4, 2)

    # chain rule witness: conditioning on B's uniformized support loses
    # at most the max-entropy of B. kron(P_B / r, sigma_C) is solved from
    # the two factors, so both min-entropies read sigma_C's one solve.
    wb, vb, rank_b = _support(_partial_trace(rho_c, (2, 2, 2), (1,)))
    w_c, v_c, _ = _support(sigma_c)
    w_bc = (((wb > _TOL) / rank_b[:, None])[:, :, None] * w_c[:, None, :]).reshape(count, 4)
    order = np.argsort(w_bc, axis=-1, kind="stable")
    w_bc, v_bc = np.take_along_axis(w_bc, order, -1), np.take_along_axis(_kron(vb, v_c), order[:, None, :], -1)
    h_bc = _min_entropy(rho_c, w_bc, v_bc, 2, 4)
    chain_rule = (_min_entropy(rho_c, w_c, v_c, 4, 2) - np.log2(rank_b)) - h_bc

    # removal bound: discarding A costs at most its max-entropy
    rho_bc = _partial_trace(rho_r, (2, 2, 2), (1, 2))
    h_a = _max_entropy(_partial_trace(rho_r, (2, 2, 2), (0,)))
    w_r, v_r, _ = _support(sigma_r)
    removal = (_min_entropy(rho_bc, w_r, v_r, 2, 2) - h_a) - _min_entropy(rho_r, w_r, v_r, 4, 2)

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
