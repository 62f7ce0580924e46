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
general eigenvalues of rho*sigma. Entropies are in bits.
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


def _as_matrix(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {rho.shape}")
    if rho.shape[0] > _MAX_DIM:
        raise ValueError(f"dimension {rho.shape[0]} exceeds {_MAX_DIM}")
    return rho


def _finite(rho) -> np.ndarray:
    """_as_matrix for a public entry point, rejecting NaN and infinite
    entries: LAPACK fails on some placements and on others (a NaN on the
    diagonal) returns finite, wrong eigenvalues."""
    rho = _as_matrix(rho)
    if not np.isfinite(rho).all():
        raise ValueError("matrix has non-finite entries")
    return rho


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices by one broadcast product (the same products,
    without np.kron's per-call shape handling)."""
    (m, n), (p, q) = a.shape, b.shape
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(m * p, n * q)


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
    return _spectral_entropy(_finite(rho))


def _spectral_entropy(rho: np.ndarray) -> float:
    """-sum lambda log2 lambda of a positive semidefinite matrix built here
    from finite inputs. Unit trace is not required: for a subnormalized
    block A this is -tr A log2 A."""
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    if eigs.min() < -_TOL:
        raise ValueError(f"state has negative eigenvalue {eigs.min()}")
    eigs = eigs[eigs > 0.0]
    return float(-np.sum(eigs * np.log2(eigs))) if eigs.size else 0.0


def max_entropy(rho) -> float:
    """log2 of the rank (eigenvalues above _TOL)."""
    rho = _finite(rho)
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    rank = int(np.count_nonzero(eigs > _TOL))
    if rank == 0:
        raise ValueError("zero operator has no rank")
    return math.log2(rank)


def _support(rho):
    """(eigenvalues, isometry onto the support)."""
    w, v = np.linalg.eigh((rho + rho.conj().T) / 2.0)
    keep = w > _TOL
    return w[keep], v[:, keep]


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
    ws, vs = _support(sigma_b)
    if ws.size == 0:
        return float("-inf")
    rho_b = partial_trace(rho_ab, (da, db), (1,))
    leak = np.trace(rho_b).real - np.trace(vs.conj().T @ rho_b @ vs).real
    if leak > _TOL:
        return float("-inf")
    iso = _kron(np.eye(da), vs)
    core = iso.conj().T @ rho_ab @ iso
    scale = _kron(np.eye(da), np.diag(ws**-0.5))
    lam = float(np.linalg.eigvalsh(scale @ core @ scale).max())
    if lam <= 0.0:
        return float("inf")
    return -math.log2(lam)


def fidelity(rho, sigma) -> float:
    """Tr sqrt(sqrt(rho) sigma sqrt(rho)), via the eigenvalues of rho*sigma
    (same spectrum, no explicit square roots). Valid for subnormalized
    operators as well."""
    rho = _finite(rho)
    sigma = _finite(sigma)
    eigs = np.linalg.eigvals(rho @ sigma)
    return float(np.sum(np.sqrt(np.clip(eigs.real, 0.0, None))))


def trace_norm(op) -> float:
    """Sum of absolute eigenvalues (Hermitian input)."""
    op = _finite(op)
    return float(np.abs(np.linalg.eigvalsh((op + op.conj().T) / 2.0)).sum())


def partial_trace(rho, dims, keep) -> np.ndarray:
    """Trace out every subsystem not listed in keep (0-based, ascending)."""
    rho = _as_matrix(rho)
    dims = tuple(as_count("dims", d, 1) for d in dims)
    keep = sorted(set(keep))
    k = len(dims)
    if rho.shape[0] != math.prod(dims):
        raise ValueError("dims do not factor the matrix dimension")
    if any(i < 0 or i >= k for i in keep):
        raise ValueError("keep index out of range")
    letters = "abcdefghijklmnopqrstuvwxyz"
    row = [letters[i] for i in range(k)]
    col = [letters[k + i] if i in keep else letters[i] for i in range(k)]
    out = [letters[i] for i in keep] + [letters[k + i] for i in keep]
    expr = "".join(row + col) + "->" + "".join(out)
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    return np.einsum(expr, rho.reshape(dims + dims)).reshape(d_keep, d_keep)


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
    w, v = _support(check_density(rho))
    return (v * np.sqrt(w)).reshape(-1)


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
        return math.fsum(_spectral_entropy(op) for op in groups.values())
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


def _twirl_unitary(s: int, t: int) -> np.ndarray:
    pauli = np.linalg.matrix_power(_PAULI_X, s) @ np.linalg.matrix_power(_PAULI_Z, t)
    return _kron(pauli, pauli)


# X^s Z^t (x) X^s Z^t for (s, t) = 00, 01, 10, 11
_TWIRL_UNITARIES = tuple(_twirl_unitary(s, t) for s, t in itertools.product((0, 1), repeat=2))


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


def _env_vector(p: BellDiagonal, xbar: tuple, terms) -> np.ndarray:
    """The subnormalized environment vector sum of sign * sqrt(P(xbar, z))
    |xbar, z> over the (z, sign) terms, whose squared norm is their weight
    sum of P(xbar, z). Each copy's basis label is 2*xbar_i + z_i."""
    entries = {(0, 0): p.p00, (1, 0): p.p10, (0, 1): p.p01, (1, 1): p.p11}
    vec = np.zeros(4 ** len(xbar), dtype=complex)
    for z, sign in terms:
        idx = 0
        for xi, zi in zip(xbar, z):
            idx = idx * 4 + (2 * xi + zi)
        vec[idx] = sign * math.sqrt(math.prod(entries[xi, zi] for xi, zi in zip(xbar, z)))
    return vec


def _dual_code(code: list, m: int) -> list:
    words = [tuple(w) for w in itertools.product((0, 1), repeat=m)]
    return [w for w in words if all(sum(a * b for a, b in zip(w, c)) % 2 == 0 for c in code)]


def _coset_reps(subgroup: list, m: int) -> list:
    seen = set()
    reps = []
    for w in itertools.product((0, 1), repeat=m):
        if w in seen:
            continue
        reps.append(w)
        seen.update(tuple(a ^ b for a, b in zip(w, c)) for c in subgroup)
    return reps


def _coset_terms(shift: tuple, j: tuple, dual: list) -> list:
    """(z, sign) terms of coset j: z = j + c and sign (-1)^(shift . c) for c in dual."""
    return [
        (tuple(ji ^ ci for ji, ci in zip(j, c)), (-1) ** (sum(a * b for a, b in zip(shift, c)) & 1))
        for c in dual
    ]


def coset_decomposition_check(p: BellDiagonal, code, shift) -> float:
    """Max entrywise deviation between the code-averaged environment state
    and its coset eigendecomposition, over all discrepancy patterns.

    code is a set of length-m words closed under XOR; shift is the common
    offset a. Patterns with zero probability are skipped (both sides are
    conditioned on an impossible event).
    """
    code = [tuple(int(b) for b in w) for w in code]
    shift = tuple(int(b) for b in shift)
    m = len(shift)
    if m > 3:
        raise ValueError("coset check limited to blocks of length <= 3")
    if any(len(w) != m for w in code):
        raise ValueError("code word length mismatch")
    dual = _dual_code(code, m)
    reps = _coset_reps(dual, m)
    words = list(itertools.product((0, 1), repeat=m))
    worst = 0.0
    for xbar in words:
        # Subnormalized environment vectors given Alice's bits x = c + shift,
        # one per code word; each has squared norm P(xbar).
        eve = []
        for c in code:
            x = tuple(ci ^ ai for ci, ai in zip(c, shift))
            signs = [(-1) ** (sum(a * b for a, b in zip(x, z)) & 1) for z in words]
            eve.append(_env_vector(p, xbar, zip(words, signs)))
        px = float(np.vdot(eve[0], eve[0]).real)
        if px <= 1e-14:
            continue
        theta = [_env_vector(p, xbar, _coset_terms(shift, j, dual)) for j in reps]
        lhs = sum(np.outer(vec, vec.conj()) for vec in eve) / len(code)
        rhs = sum(np.outer(vec, vec.conj()) for vec in theta)
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


def lemma_suite(samples: int, rng: np.random.Generator) -> dict:
    """Max violation per inequality over randomized instances.

    All instances are exact (no smoothing): each reported number should be
    <= 0 up to numerical noise, and the suite's consumers assert <= 1e-9.
    """
    as_count("samples", samples, 1)
    worst = {
        "monotonicity": 0.0,
        "chain_rule": 0.0,
        "removal": 0.0,
        "sandwich_lower": 0.0,
        "sandwich_upper": 0.0,
        "operator_bound": 0.0,
    }
    for _ in range(samples):
        # monotonicity: adding a classical register cannot lower min-entropy
        probs = rng.dirichlet(np.ones(2))
        rho_bc_parts = [random_density(4, rng, rank=int(rng.integers(1, 5))) for _ in range(2)]
        rho_xbc = np.zeros((8, 8), dtype=complex)
        for x in range(2):
            proj = np.zeros((2, 2), dtype=complex)
            proj[x, x] = 1.0
            rho_xbc += probs[x] * _kron(proj, rho_bc_parts[x])
        rho_bc = probs[0] * rho_bc_parts[0] + probs[1] * rho_bc_parts[1]
        sigma_c = random_density(2, rng)
        lhs = min_entropy(rho_xbc, sigma_c, dims=(4, 2))
        rhs = min_entropy(rho_bc, sigma_c, dims=(2, 2))
        worst["monotonicity"] = max(worst["monotonicity"], rhs - lhs)

        # chain rule witness: conditioning on B's uniformized support loses
        # at most the max-entropy of B
        rho_abc = random_density(8, rng, rank=int(rng.integers(1, 9)))
        sigma_c = random_density(2, rng)
        h_c = min_entropy(rho_abc, sigma_c, dims=(4, 2))
        rho_b = partial_trace(rho_abc, (2, 2, 2), (1,))
        wb, vb = _support(rho_b)
        rank_b = wb.size
        proj_b = vb @ vb.conj().T
        sigma_bc = _kron(proj_b / rank_b, sigma_c)
        h_bc = min_entropy(rho_abc, sigma_bc, dims=(2, 4))
        worst["chain_rule"] = max(worst["chain_rule"], (h_c - math.log2(rank_b)) - h_bc)

        # removal bound: discarding A costs at most its max-entropy
        rho_abc = random_density(8, rng, rank=int(rng.integers(1, 9)))
        sigma_c = random_density(2, rng)
        lhs = min_entropy(rho_abc, sigma_c, dims=(4, 2))
        rho_bc = partial_trace(rho_abc, (2, 2, 2), (1, 2))
        rho_a = partial_trace(rho_abc, (2, 2, 2), (0,))
        rhs = min_entropy(rho_bc, sigma_c, dims=(2, 2)) - max_entropy(rho_a)
        worst["removal"] = max(worst["removal"], rhs - lhs)

        # fidelity-distance sandwich on subnormalized operators
        rho = random_density(4, rng) * float(rng.uniform(0.5, 1.0))
        sig = random_density(4, rng) * float(rng.uniform(0.5, 1.0))
        f = fidelity(rho, sig)
        tn = trace_norm(rho - sig)
        traces = np.trace(rho).real + np.trace(sig).real
        worst["sandwich_lower"] = max(worst["sandwich_lower"], (traces - 2.0 * f) - tn)
        worst["sandwich_upper"] = max(
            worst["sandwich_upper"], tn - math.sqrt(max(traces**2 - 4.0 * f**2, 0.0))
        )

        # operator inequality behind the removal bound:
        # rank(rho_A) id_A (x) rho_B >= rho_AB
        rho_ab = random_density(4, rng, rank=int(rng.integers(1, 5)))
        rho_a = partial_trace(rho_ab, (2, 2), (0,))
        rho_b = partial_trace(rho_ab, (2, 2), (1,))
        rank_a = int(np.count_nonzero(np.linalg.eigvalsh(rho_a) > _TOL))
        gap = np.linalg.eigvalsh(rank_a * _kron(np.eye(2), rho_b) - rho_ab).min()
        worst["operator_bound"] = max(worst["operator_bound"], -float(gap))
    return worst
