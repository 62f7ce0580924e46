"""Binary linear codes as syndrome compressors.

A parity-check matrix H (m rows, n columns, full row rank) compresses a bit
sequence v to its syndrome v*H^T over F2. Two decoders recover the most
plausible vector with a prescribed syndrome under an i.i.d. Bernoulli model:

* ml_decode: exhaustive search, exact maximum likelihood for any crossover
  below 1/2 (minimum Hamming weight in the coset, lexicographic ties). The
  correctness oracle; n <= 24.
* bp_decode: syndrome-based sum-product belief propagation with a flooding
  schedule, the practical engine for sparse matrices at large n.

Constructions: dense uniform-random with an explicit rank check (small n),
and a staircase form [S | T] whose lower-triangular tail T makes full row
rank structural (protocol scale, where elimination-based rank verification
is too expensive). code_for_rate builds dense codes up to 512 columns and
staircase codes above. Staircase information columns follow one fixed,
tuned degree profile, and a fixed fraction of tail columns carry a third
entry below the diagonal; both set the belief-propagation threshold, which
must sit comfortably above the session operating point for the
block-failure rate to stay negligible at the session's rate margins.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import as_bits

__all__ = [
    "DecodeResult",
    "ParityCheck",
    "code_for_rate",
    "gf2_rank",
    "ml_decode",
    "bp_decode",
]

# Tuned for the session operating point (syndrome rate ~0.50, crossover
# ~0.095 at n = 5*10^4): mixing degree-3 information columns with a heavy
# fraction, plus third entries on some tail columns, pushes the
# belief-propagation threshold past 0.104 while the degree-2 mass stays
# stable. Chosen by density evolution over candidate profiles and frozen
# after Monte Carlo validation. Every seeded staircase code depends on them.
DEFAULT_INFO_DEGREES: tuple[tuple[int, float], ...] = ((3, 0.7), (12, 0.3))
DEFAULT_TAIL_DEGREE3 = 0.4

_ML_MAX_N = 24
# code_for_rate builds dense codes up to this many columns, staircase codes above.
_DENSE_LIMIT = 512
# Random dense draws tried before giving up on full row rank.
_DENSE_DRAWS = 64
# Bound on variable-to-check messages, which keeps tanh away from +-1.
_LLR_CLIP = 25.0
# Tail column i of a staircase code takes its third row from
# [i + 2, i + 2 + _TAIL_WINDOW), when drawn and when the cycle breaker
# redraws it.
_TAIL_WINDOW = 500
# Rounds of the best-effort 4-cycle repair in _break_low_degree_cycles.
_CYCLE_ROUNDS = 16


def gf2_rank(mat: np.ndarray) -> int:
    """Rank over F2 via Gaussian elimination on bit-packed rows."""
    mat = np.asarray(mat, dtype=np.uint8) & 1
    if mat.size == 0:
        return 0
    words = np.packbits(mat, axis=1)
    m, n = mat.shape
    rank = 0
    for col in range(n):
        if rank == m:
            break
        word, bit = divmod(col, 8)
        shift = 7 - bit
        hits = np.nonzero((words[rank:, word] >> shift) & 1)[0]
        if hits.size == 0:
            continue
        pivot = rank + int(hits[0])
        if pivot != rank:
            words[[rank, pivot]] = words[[pivot, rank]]
        below = rank + 1 + np.nonzero((words[rank + 1 :, word] >> shift) & 1)[0]
        if below.size:
            words[below] ^= words[rank]
        rank += 1
    return rank


def _column_major(cols: np.ndarray, rows: np.ndarray, m: int) -> np.ndarray:
    """Stable order of entries by column, then row (rows in [0, m)).

    The same permutation as np.lexsort((rows, cols)), from one sort of a
    single int64 key, which is several times faster.
    """
    return np.argsort(cols * m + rows, kind="stable")


@dataclass(frozen=True)
class DecodeResult:
    """Decoder output; converged guarantees the syndrome is matched."""

    error_estimate: np.ndarray
    converged: bool
    iterations: int


class ParityCheck:
    """Immutable full-row-rank binary matrix stored as its nonzero entries.

    Entry i of (edge_var, edge_check) is a 1 in column edge_var[i], row
    edge_check[i]; the entries may come in any order and are kept sorted by
    column, rows ascending within a column. rank_certificate records how
    full rank was established: "eliminated" (explicit F2 elimination) or
    "triangular" (staircase tail, structural).
    """

    def __init__(
        self, m: int, n: int, edge_var: np.ndarray, edge_check: np.ndarray, rank_certificate: str
    ):
        if rank_certificate not in ("eliminated", "triangular"):
            raise ValueError(f"unknown rank certificate {rank_certificate!r}")
        ev = np.asarray(edge_var, dtype=np.int64)
        ec = np.asarray(edge_check, dtype=np.int64)
        if ev.ndim != 1 or ev.shape != ec.shape:
            raise ValueError(f"edge arrays must be 1-d of one length: {ev.shape}, {ec.shape}")
        if ec.size and (ec.min() < 0 or ec.max() >= m):
            raise ValueError("row index out of range")
        if ev.size and (ev.min() < 0 or ev.max() >= n):
            raise ValueError("column index out of range")
        order = _column_major(ev, ec, m)
        ev, ec = ev[order], ec[order]
        if np.any((ev[1:] == ev[:-1]) & (ec[1:] == ec[:-1])):
            raise ValueError("duplicate row index within a column")
        self.m = int(m)
        self.n = int(n)
        self.rank_certificate = rank_certificate
        self._edge_var = ev
        self._edge_check = ec
        self._ml_cache = None

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "ParityCheck":
        """Wrap an explicit matrix; rejects anything below full row rank."""
        mat = np.asarray(mat)
        if mat.ndim != 2:
            raise ValueError("parity check must be 2-d")
        mat = (mat & 1).astype(np.uint8)
        m, n = mat.shape
        if gf2_rank(mat) != m:
            raise ValueError(f"matrix rank below row count {m}")
        edge_var, edge_check = np.nonzero(mat.T)
        return cls(m, n, edge_var, edge_check, rank_certificate="eliminated")

    def to_dense(self) -> np.ndarray:
        mat = np.zeros((self.m, self.n), dtype=np.uint8)
        mat[self._edge_check, self._edge_var] = 1
        return mat

    def col_degrees(self) -> np.ndarray:
        return np.bincount(self._edge_var, minlength=self.n).astype(np.int64)

    def row_degrees(self) -> np.ndarray:
        return np.bincount(self._edge_check, minlength=self.m).astype(np.int64)

    def syndrome(self, v: np.ndarray) -> np.ndarray:
        """t = v*H^T over F2."""
        v = as_bits(v)
        if v.size != self.n:
            raise ValueError(f"expected length {self.n}, got {v.size}")
        set_edges = self._edge_check[v[self._edge_var] == 1]
        counts = np.bincount(set_edges, minlength=self.m)
        return (counts & 1).astype(np.uint8)

    # --- decoder support ---

    def _ml_tables(self):
        if self._ml_cache is None:
            if self.n > _ML_MAX_N:
                raise ValueError(f"exhaustive decoding limited to n <= {_ML_MAX_N}")
            col_ints = np.zeros(self.n, dtype=np.uint32)
            bits = np.left_shift(1, self.m - 1 - self._edge_check).astype(np.uint32)
            np.bitwise_or.at(col_ints, self._edge_var, bits)
            size = 1 << self.n
            synd = np.zeros(size, dtype=np.uint32)
            weight = np.zeros(size, dtype=np.uint8)
            for k in range(self.n):
                block = 1 << k
                # integer bit k corresponds to vector position n-1-k
                synd[block : 2 * block] = synd[:block] ^ col_ints[self.n - 1 - k]
                weight[block : 2 * block] = weight[:block] + 1
            self._ml_cache = (synd, weight)
        return self._ml_cache


def _bits_to_int(bits: np.ndarray) -> int:
    val = 0
    for b in bits:
        val = (val << 1) | int(b)
    return val


def _int_to_bits(val: int, width: int) -> np.ndarray:
    return np.array([(val >> (width - 1 - i)) & 1 for i in range(width)], dtype=np.uint8)


def ml_decode(H: ParityCheck, t: np.ndarray, crossover: float = 0.0) -> DecodeResult:
    """Exact ML for a BSC: minimum-weight coset member, lexicographic ties.

    Minimum weight is the likelihood order for every crossover below 1/2, so
    the crossover enters only as a validity bound.
    """
    if not 0.0 <= crossover < 0.5:
        raise ValueError(f"crossover {crossover} not in [0, 1/2)")
    t = as_bits(t)
    if t.size != H.m:
        raise ValueError(f"syndrome length {t.size}, expected {H.m}")
    synd, weight = H._ml_tables()
    target = np.uint32(_bits_to_int(t))
    cands = np.flatnonzero(synd == target)
    key = (weight[cands].astype(np.int64) << H.n) | cands
    best = int(cands[np.argmin(key)])
    return DecodeResult(_int_to_bits(best, H.n), converged=True, iterations=0)


def bp_decode(
    H: ParityCheck,
    t: np.ndarray,
    crossover: float,
    max_iters: int = 200,
    damping: float = 0.0,
) -> DecodeResult:
    """Syndrome-based sum-product decoding on the BSC.

    Priors favor the all-zero error; check nodes flip sign where the target
    syndrome bit is 1. The exclusion product at each check runs in the
    log-magnitude domain with explicit sign counts so degree-40 checks stay
    finite. Flooding schedule, early stop on syndrome match; non-convergence
    is a flagged result. damping blends each variable-to-check update with
    the previous message (0 = off), which settles oscillating small
    structures at some cost in speed.
    """
    if not 0.0 < crossover < 0.5:
        raise ValueError(f"crossover {crossover} not in (0, 1/2)")
    if not 0.0 <= damping < 1.0:
        raise ValueError(f"damping {damping} not in [0, 1)")
    if max_iters < 1:
        raise ValueError(f"max_iters {max_iters} must be >= 1")
    t = as_bits(t)
    if t.size != H.m:
        raise ValueError(f"syndrome length {t.size}, expected {H.m}")
    if not t.any():
        return DecodeResult(np.zeros(H.n, dtype=np.uint8), converged=True, iterations=0)

    ev, ec = H._edge_var, H._edge_check
    m = H.m
    llr0 = math.log((1.0 - crossover) / crossover)
    target = t.astype(np.int64)
    m_vc = np.full(ev.size, llr0)
    posterior = np.zeros(H.n)
    for it in range(1, max_iters + 1):
        tanh_half = np.tanh(m_vc / 2.0)
        mag = np.log(np.maximum(np.abs(tanh_half), 1e-300))
        neg = tanh_half < 0
        mag_tot = np.bincount(ec, weights=mag, minlength=m)
        # A check message is negative when the target bit plus the other
        # edges' negative signs is odd.
        neg_tot = np.bincount(ec[neg], minlength=m) + target
        excl_mag = np.minimum(mag_tot[ec] - mag, -1e-16)
        flip = (neg_tot[ec] - neg) & 1
        m_cv = (1.0 - 2.0 * flip) * 2.0 * np.arctanh(np.exp(excl_mag))
        posterior = llr0 + np.bincount(ev, weights=m_cv, minlength=H.n)
        post_edge = posterior[ev]
        fresh = np.minimum(np.maximum(post_edge - m_cv, -_LLR_CLIP), _LLR_CLIP)
        m_vc = damping * m_vc + (1.0 - damping) * fresh if damping > 0.0 else fresh
        # Syndrome of the hard decision, read from the edges already at hand.
        syndrome = np.bincount(ec[post_edge < 0], minlength=m) & 1
        if not np.count_nonzero(syndrome != target):
            return DecodeResult((posterior < 0).astype(np.uint8), converged=True, iterations=it)
    return DecodeResult((posterior < 0).astype(np.uint8), converged=False, iterations=max_iters)


def code_for_rate(n: int, target_rate: float, rng: np.random.Generator | None = None) -> ParityCheck:
    """Build an m = ceil(n*target_rate) parity check, deterministic per rng.

    Dense up to 512 columns, staircase above.
    """
    if not 0.0 < target_rate < 1.0:
        raise ValueError(f"target rate {target_rate} not in (0, 1)")
    if n < 2:
        raise ValueError("need at least two columns")
    if rng is None:
        rng = np.random.default_rng()
    m = math.ceil(n * target_rate)
    if n <= _DENSE_LIMIT:
        return _dense_code(m, n, rng)
    return _staircase_code(m, n, rng)


def _dense_code(m: int, n: int, rng: np.random.Generator) -> ParityCheck:
    for _ in range(_DENSE_DRAWS):
        mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
        # A zero column would leave that bit invisible to the syndrome.
        for j in np.flatnonzero(mat.sum(axis=0) == 0):
            mat[rng.integers(m), j] = 1
        if gf2_rank(mat) == m:
            edge_var, edge_check = np.nonzero(mat.T)
            return ParityCheck(m, n, edge_var, edge_check, "eliminated")
    raise ValueError(f"no full-rank dense matrix in {_DENSE_DRAWS} draws")


def _staircase_code(m: int, n: int, rng: np.random.Generator) -> ParityCheck:
    """[S | T]: T lower triangular (full rank structurally), S random with
    balanced row loads and the column degrees of DEFAULT_INFO_DEGREES.

    Tail column i holds rows {i, i+1}; a DEFAULT_TAIL_DEGREE3 fraction also
    gets one extra row drawn from a bounded window below, which stays under
    the diagonal and keeps the row loads near-uniform.
    """
    k = n - m
    if k < 0:
        raise ValueError("staircase needs m <= n")
    tail_extra = np.full(m, -1, dtype=np.int64)
    if m > 2:
        eligible = np.arange(m - 2)
        count = int(round(DEFAULT_TAIL_DEGREE3 * eligible.size))
        chosen = rng.choice(eligible, size=count, replace=False)
        lo = chosen + 2
        hi = np.minimum(lo + _TAIL_WINDOW, m)
        tail_extra[chosen] = lo + (rng.random(count) * (hi - lo)).astype(np.int64)
    pre_load = np.bincount(tail_extra[tail_extra >= 0], minlength=m).astype(np.int64)
    pre_load += 2
    pre_load[0] -= 1
    degrees = np.minimum(_profile_degrees(k, rng), m)
    info_rows = np.zeros(0, dtype=np.int64)
    if k:
        info_rows = _balanced_sockets(m, degrees, rng, pre_load)
    steps = np.arange(m - 1)
    extra = np.flatnonzero(tail_extra >= 0)
    edge_var = np.concatenate(
        [np.repeat(np.arange(k), degrees), k + steps, k + steps, k + extra, [n - 1]]
    )
    edge_check = np.concatenate([info_rows, steps, steps + 1, tail_extra[extra], [m - 1]])
    # column-major with rows ascending, the layout the cycle breaker edits
    order = _column_major(edge_var, edge_check, m)
    edge_var, edge_check = edge_var[order], edge_check[order]
    col_ptr = np.concatenate([[0], np.cumsum(np.bincount(edge_var, minlength=n))])
    _break_low_degree_cycles(col_ptr, edge_check, m, k, rng)
    return ParityCheck(m, n, edge_var, edge_check, rank_certificate="triangular")


def _break_low_degree_cycles(
    col_ptr: np.ndarray,
    rows: np.ndarray,
    m: int,
    k: int,
    rng: np.random.Generator,
):
    """Rewire 4-cycles between columns of degree <= 3, in place, best effort.

    Column j holds rows[col_ptr[j]:col_ptr[j + 1]], ascending. Two
    low-degree columns sharing a row pair form an absorbing structure that
    dominates the belief-propagation error floor; pairs touching a heavy
    column are left alone. Info columns are rewired freely; tail columns
    only through their third entry, keeping rows i, i+1 fixed so
    triangularity survives.

    The repair is best effort, bounded by _CYCLE_ROUNDS: each round
    rewires one column of every shared pair found at its start, a rewiring
    can create a new shared pair, and a tail-tail pair with no third entry
    cannot be rewired. Shared pairs can remain (a handful at session scale).
    """
    sizes = np.diff(col_ptr)
    low = np.flatnonzero((sizes >= 2) & (sizes <= 3))
    if low.size == 0:
        return
    # Row pairs (0, 1), (0, 2), (1, 2) of each column, column by column.
    per_col = np.where(sizes[low] == 3, 3, 1)
    owners = np.repeat(low, per_col)
    slot = np.arange(owners.size) - np.repeat(np.cumsum(per_col) - per_col, per_col)
    first = col_ptr[owners] + np.array([0, 0, 1])[slot]
    second = col_ptr[owners] + np.array([1, 2, 2])[slot]
    for _ in range(_CYCLE_ROUNDS):
        keys = rows[first] * m + rows[second]
        ordered = np.sort(keys)
        shared = ordered[1:][ordered[1:] == ordered[:-1]]
        if shared.size == 0:
            return
        # Only the few pairs on a shared key need the stable (key, position)
        # order that decides which pair is repaired first.
        at = np.flatnonzero(np.isin(keys, shared))
        at = at[np.argsort(keys[at], kind="stable")]
        for p1, p2 in zip(at[:-1], at[1:]):
            if keys[p1] != keys[p2]:
                continue
            j1, j2 = int(owners[p1]), int(owners[p2])
            if j1 == j2:
                continue
            if j2 < k:
                target = j2
            elif j1 < k:
                target = j1
            else:
                # tail-tail: only a third entry is movable, prefer the
                # column that has one
                target = j2 if sizes[j2] == 3 else j1
            col = rows[col_ptr[target] : col_ptr[target + 1]]
            if target < k:
                swap_at = int(rng.integers(0, col.size))
                lo, hi = 0, m
            else:
                # Tail column i holds rows i, i+1 and at most a third row
                # in [i + 2, m), which sorts last and alone can move.
                if col.size < 3:
                    continue
                swap_at = 2
                lo = target - k + 2
                hi = min(lo + _TAIL_WINDOW, m)
            for _ in range(32):
                candidate = int(rng.integers(lo, hi))
                if candidate not in col:
                    new_rows = col.copy()
                    new_rows[swap_at] = candidate
                    col[:] = np.sort(new_rows)
                    break


def _profile_degrees(k: int, rng: np.random.Generator) -> np.ndarray:
    """k information-column degrees in DEFAULT_INFO_DEGREES proportions, shuffled."""
    if k == 0:
        return np.zeros(0, dtype=np.int64)
    counts = [int(round(frac * k)) for _, frac in DEFAULT_INFO_DEGREES]
    counts[int(np.argmax(counts))] += k - sum(counts)
    degrees = np.repeat([d for d, _ in DEFAULT_INFO_DEGREES], counts)
    rng.shuffle(degrees)
    return degrees


def _balanced_sockets(m: int, degrees: np.ndarray, rng: np.random.Generator, pre_load: np.ndarray):
    """Assign each column's edges to checks with near-uniform check loads.

    pre_load counts edges already placed on each check by the caller; the
    assignment tops rows up toward a common total. Duplicate checks within
    one column are repaired by random swaps; across columns, rare shared
    pairs are tolerated (the cycle-count impact at session scale is
    negligible). Returns the check of each edge, column by column: column j
    owns the next degrees[j] entries.
    """
    total = int(degrees.sum())
    base = (total + int(pre_load.sum())) // m
    row_counts = np.maximum(base - pre_load, 0).astype(np.int64)
    drift = total - int(row_counts.sum())
    while drift > 0:
        take = min(drift, m)
        row_counts[rng.permutation(m)[:take]] += 1
        drift -= take
    while drift < 0:
        candidates = np.nonzero(row_counts > 0)[0]
        take = min(-drift, candidates.size)
        order = candidates[np.argsort(-(row_counts + pre_load)[candidates], kind="stable")]
        row_counts[order[:take]] -= 1
        drift += take
    sockets = np.repeat(np.arange(m), row_counts)
    rng.shuffle(sockets)
    offsets = np.concatenate([[0], np.cumsum(degrees)]).astype(np.int64)
    col_of_edge = np.repeat(np.arange(degrees.size), degrees)
    for _ in range(64):
        order = _column_major(col_of_edge, sockets, m)
        same_col = col_of_edge[order][1:] == col_of_edge[order][:-1]
        same_sock = sockets[order][1:] == sockets[order][:-1]
        dup_positions = order[1:][same_col & same_sock]
        if dup_positions.size == 0:
            return sockets
        for pos in dup_positions:
            other = int(rng.integers(0, total))
            sockets[pos], sockets[other] = sockets[other], sockets[pos]
    # Tiny structured instances (column degree near m) can make random swaps
    # hopeless; assign greedily by residual row capacity instead, which
    # always yields distinct rows per column at a small cost in balance.
    if degrees.max() > m:
        raise ValueError("column degree exceeds the number of checks")
    caps = row_counts.astype(np.float64)
    for j in np.argsort(-degrees, kind="stable"):
        d = int(degrees[j])
        top = np.argsort(-(caps + 0.25 * rng.random(m)), kind="stable")[:d]
        sockets[offsets[j] : offsets[j + 1]] = top
        caps[top] -= 1.0
    return sockets
