"""Binary linear codes as syndrome compressors.

A parity-check matrix H (m rows, n columns, full row rank) compresses a bit
sequence v to its syndrome v*H^T over F2. Two decoders recover the most
plausible vector with a prescribed syndrome under an i.i.d. Bernoulli model:

* ml_decode: exhaustive search, exact maximum likelihood for any crossover
  below 1/2 (minimum Hamming weight in the coset, lexicographic ties). The
  correctness oracle; n <= 24.
* bp_decode: syndrome-based sum-product belief propagation on a
  group-shuffled schedule, the practical engine for sparse matrices at
  large n. One kernel decodes one syndrome or a (B, m) stack of them on one
  code; a row of a stack retires at the sweep its syndrome matches, and
  every row gets bit for bit what its own one-row call returns.

Construction: code_for_rate builds every code, at every size, in a sparse
staircase form [S | T] whose lower-triangular tail T makes full row rank
structural, so no elimination is needed. The raw ParityCheck constructor
trusts its caller for full row rank; ParityCheck.from_dense wraps an
explicit 0/1 matrix after checking its rank. Staircase information columns
follow one fixed, tuned degree profile, and a fixed fraction of tail
columns carry a third entry below the diagonal; both set the
belief-propagation threshold, which must sit comfortably above the session
operating point for the block-failure rate to stay negligible at the
session's rate margins.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from .blocks import as_bits, as_count, as_instance, as_real

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
# Bound on variable-to-check messages, in half-LLR units (LLR/2): the
# float32 tanh of 8 is 1 - 2.4e-7, so tanh stays below 1.
_LLR_CLIP = 8.0
# bp_decode updates the checks in 2**_GROUP_BITS interleaved groups per sweep.
_GROUP_BITS = 2
_GROUPS = 1 << _GROUP_BITS
# Tail column i of a staircase code takes its third row from
# [i + 2, i + 2 + _TAIL_WINDOW), when drawn and when the cycle breaker
# redraws it.
_TAIL_WINDOW = 500
# Rounds of the best-effort 4-cycle repair in _break_low_degree_cycles.
_CYCLE_ROUNDS = 16


def gf2_rank(mat: np.ndarray) -> int:
    """Rank over F2 via Gaussian elimination on bit-packed rows of a 0/1 matrix."""
    mat = np.asarray(mat)
    mat = as_bits(mat.reshape(-1)).reshape(mat.shape)
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
        words[[rank, pivot]] = words[[pivot, rank]]
        below = rank + 1 + np.nonzero((words[rank + 1 :, word] >> shift) & 1)[0]
        words[below] ^= words[rank]
        rank += 1
    return rank


def _ranges(ends: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Indices ends[i] - lengths[i], ..., ends[i] - 1 for every i, in order."""
    at = np.repeat(ends - np.cumsum(lengths), lengths)
    at += np.arange(at.size)
    return at


def _in_runs(ordered: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted array that equal a neighbour."""
    same = ordered[1:] == ordered[:-1]
    mask = np.zeros(ordered.size, dtype=bool)
    mask[1:] = same
    mask[:-1] |= same
    return mask


class DecodeResult(NamedTuple):
    """Decoder output; converged guarantees the syndrome is matched.

    For a (B, m) syndrome stack, error_estimate is (B, n) and converged and
    iterations are length-B arrays, row by row.
    """

    error_estimate: np.ndarray
    converged: bool | np.ndarray
    iterations: int | np.ndarray


class ParityCheck:
    """Immutable full-row-rank binary matrix stored as its nonzero entries.

    Entry i of (edge_var, edge_check) is a 1 in column edge_var[i], row
    edge_check[i]. The entries must come column-major: columns ascending,
    rows ascending within a column, none repeated (the order np.nonzero of
    the transposed matrix gives); any other order is a ValueError, since
    bp_decode reads each column's edges as one run. Full row rank is the
    caller's responsibility here: code_for_rate has it by construction, and
    from_dense checks it.
    """

    def __init__(self, m: int, n: int, edge_var: np.ndarray, edge_check: np.ndarray):
        m = as_count("m", m, 0)
        n = as_count("n", n, 0)
        ev = np.asarray(edge_var, dtype=np.int64)
        ec = np.asarray(edge_check, dtype=np.int64)
        if ev.ndim != 1 or ev.shape != ec.shape:
            raise ValueError(f"edge arrays must be 1-d of one length: {ev.shape}, {ec.shape}")
        if ec.size and (ec.min() < 0 or ec.max() >= m):
            raise ValueError("row index out of range")
        if ev.size and (ev.min() < 0 or ev.max() >= n):
            raise ValueError("column index out of range")
        keys = ev * m + ec
        if np.any(keys[1:] <= keys[:-1]):
            raise ValueError("edges not column-major with rows ascending and none repeated")
        self.m = m
        self.n = n
        self._edge_var = ev
        self._edge_check = ec

    @classmethod
    def from_dense(cls, mat: np.ndarray) -> "ParityCheck":
        """Wrap an explicit 0/1 matrix; rejects anything below full row rank."""
        mat = np.asarray(mat)
        if mat.ndim != 2:
            raise ValueError("parity check must be 2-d")
        mat = as_bits(mat.reshape(-1)).reshape(mat.shape)
        m, n = mat.shape
        if gf2_rank(mat) != m:
            raise ValueError(f"matrix rank below row count {m}")
        edge_var, edge_check = np.nonzero(mat.T)
        return cls(m, n, edge_var, edge_check)

    def to_dense(self) -> np.ndarray:
        mat = np.zeros((self.m, self.n), dtype=np.uint8)
        mat[self._edge_check, self._edge_var] = 1
        return mat

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

    @functools.cached_property
    def _ml_tables(self):
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
        return synd, weight


def ml_decode(H: ParityCheck, t: np.ndarray) -> DecodeResult:
    """Exact ML for a BSC: minimum-weight coset member, lexicographic ties.

    Minimum weight is the likelihood order for every crossover below 1/2, so
    no crossover is needed.
    """
    H, t = as_instance("H", H, ParityCheck), as_bits(t)
    if t.size != H.m:
        raise ValueError(f"syndrome length {t.size}, expected {H.m}")
    synd, weight = H._ml_tables
    # as in the tables, the first bit of a vector is the integer's highest
    cands = np.flatnonzero(synd == t @ (1 << np.arange(H.m - 1, -1, -1)))
    key = (weight[cands].astype(np.int64) << H.n) | cands
    best = cands[np.argmin(key)]
    return DecodeResult(((best >> np.arange(H.n - 1, -1, -1)) & 1).astype(np.uint8), converged=True, iterations=0)


def bp_decode(
    H: ParityCheck,
    t: np.ndarray,
    crossover: float,
    max_iters: int = 200,
) -> DecodeResult:
    """Syndrome-based sum-product decoding on the BSC.

    Priors favor the all-zero error; check nodes flip sign where the target
    syndrome bit is 1. Messages and posteriors are float32 in half-LLR
    units (LLR/2), the argument tanh takes in the check update. The
    exclusion product at each check runs in the log-magnitude domain with
    explicit sign parities, and with float32-safe bounds: variable-to-check
    messages are clipped to +-_LLR_CLIP, each |tanh| is floored at 1e-30
    and each check message's log-magnitude capped at -1e-7, so degree-40
    checks and saturated priors stay finite. The checks c % 4 == g form
    group g; a sweep updates g = 0..3 in turn, each from the posteriors the
    groups before it left, and stops early on a syndrome match; no match
    is a flagged result.

    t is one syndrome of length m, or a (B, m) stack of syndromes decoded
    together on H. Each row of a stack runs exactly the arithmetic of its
    own one-row call: it retires at the sweep where its syndrome matches
    (an all-zero row retires at 0), so every row's estimate, flag and
    iteration (sweep) count equal those of decoding it alone.
    A stack returns a (B, n) estimate and length-B converged and iterations
    arrays; a single syndrome returns scalars.
    """
    H = as_instance("H", H, ParityCheck)
    if not 0.0 < as_real("crossover", crossover) < 0.5:
        raise ValueError(f"crossover {crossover} not in (0, 1/2)")
    max_iters = as_count("max_iters", max_iters, 1)
    t = np.asarray(t)
    if t.ndim not in (1, 2) or t.shape[-1] != H.m:
        raise ValueError(f"syndrome shape {t.shape}, expected ({H.m},) or (B, {H.m})")
    stack = as_bits(t.reshape(-1)).reshape(t.shape if t.ndim == 2 else (1, H.m))
    estimate, converged, iterations = _bp_stack(H, stack, crossover, max_iters)
    if t.ndim == 2:
        return DecodeResult(estimate, converged, iterations)
    return DecodeResult(estimate[0], bool(converged[0]), int(iterations[0]))


def _bp_stack(
    H: ParityCheck, synd: np.ndarray, crossover: float, max_iters: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The group-shuffled sum-product kernel behind bp_decode, on a (B, m) stack.

    A sweep updates the check groups c % _GROUPS in turn. A group's
    variable-to-check messages are the posterior less its own last check
    messages, and the change of its new check messages is added to the
    posterior before the next group reads it; all of these are float32 half
    LLRs, and each bincount sums in float64 and is cast back to float32.
    Each group keeps H's column-major edge order; live row r reads the
    group's local checks r*m_g + c // _GROUPS and variables r*n + edge_var,
    so every bincount sums in a one-row decode's order. A row that matches
    its syndrome after a sweep retires and the rows behind it move up,
    which keeps the live rows a prefix of every buffer and offset index
    array (each built once).
    """
    rows, m = synd.shape
    n = H.n
    ev, ec = H._edge_var, H._edge_check
    estimate = np.zeros((rows, n), dtype=np.uint8)
    converged = np.ones(rows, dtype=bool)
    iterations = np.zeros(rows, dtype=np.int64)
    live = np.flatnonzero(synd.any(axis=1))
    if live.size == 0:
        return estimate, converged, iterations
    target, count = synd[live], live.size
    shift = np.arange(count)[:, None]
    # Column j of live row r owns the col_degree[r*n + j] edges that end
    # before col_end[r*n + j] in H's order, which the syndrome test reads.
    col_degree = np.tile(np.bincount(ev, minlength=n), count)
    col_end = np.cumsum(col_degree)
    ec_rows = (ec + m * shift).ravel()
    key = ec & (_GROUPS - 1)
    # Each group's offset variables and local checks, row by row, and its
    # check messages of the last two sweeps: sweep it writes cv[it % 2].
    groups = []
    for g in range(min(m, _GROUPS)):
        at = np.flatnonzero(key == g)
        local = (ec[at] >> _GROUP_BITS) + len(range(g, m, _GROUPS)) * shift
        cv = np.zeros((2, count, at.size), dtype=np.float32)
        groups.append((g, ev[at] + n * shift, local, cv))
    mag = np.empty(max(evg.size for _, evg, _, _ in groups), dtype=np.float32)
    neg = np.empty(mag.size, dtype=bool)
    flip = np.empty(mag.size, dtype=np.uint8)
    sign = np.empty(mag.size, dtype=np.uint32)
    posterior = np.full((count, n), 0.5 * math.log((1.0 - crossover) / crossover), dtype=np.float32)
    for it in range(1, max_iters + 1):
        post = posterior[:count].ravel()
        for g, evg, ecg, cv in groups:
            vl, cl = evg[:count].ravel(), ecg[:count].ravel()
            old, new = cv[1 - it % 2, :count].ravel(), cv[it % 2, :count].ravel()
            mg, ng, fl, sg = mag[: vl.size], neg[: vl.size], flip[: vl.size], sign[: vl.size]
            post.take(vl, out=mg, mode="clip")
            np.subtract(mg, old, out=mg)
            np.clip(mg, -_LLR_CLIP, _LLR_CLIP, out=mg)
            np.tanh(mg, out=mg)
            np.less(mg, 0.0, out=ng)
            np.abs(mg, out=mg)
            np.maximum(mg, 1e-30, out=mg)
            np.log(mg, out=mg)
            tg = target[:, g::_GROUPS].ravel()
            mag_tot = np.bincount(cl, weights=mg, minlength=tg.size).astype(np.float32)
            # A check message is negative when the target bit plus the other
            # edges' negative signs is odd: the check's parity XOR the edge's own.
            parity = np.bincount(cl, weights=ng, minlength=tg.size).astype(np.int64) & 1
            parity = parity.astype(np.uint8) ^ tg
            parity.take(cl, out=fl, mode="clip")
            fl ^= ng
            mag_tot.take(cl, out=new, mode="clip")
            np.subtract(new, mg, out=new)
            np.minimum(new, -1e-7, out=new)
            np.exp(new, out=new)
            np.arctanh(new, out=new)
            # (1 - 2*flip) * arctanh(.), exactly: flip the sign bit.
            np.left_shift(fl, np.uint32(31), out=sg, dtype=np.uint32)
            np.bitwise_xor(new.view(np.uint32), sg, out=new.view(np.uint32))
            np.subtract(new, old, out=mg)
            post += np.bincount(vl, weights=mg, minlength=post.size).astype(np.float32)
        # Syndrome of the hard decision, from the edges of its set bits.
        ones = np.flatnonzero(post < 0)
        at = _ranges(col_end[ones], col_degree[ones])
        syndrome = np.bincount(ec_rows[at], minlength=count * m) & 1
        matched = (syndrome.reshape(count, m) == target).all(axis=1)
        if not (matched.any() or it == max_iters):
            continue
        estimate[live] = posterior[:count] < 0
        converged[live] = matched
        iterations[live] = it
        if matched.all() or it == max_iters:
            break
        live, target = live[~matched], target[~matched]
        posterior[: live.size] = posterior[:count][~matched]
        for _, _, _, cv in groups:
            cv[it % 2, : live.size] = cv[it % 2, :count][~matched]
        count = live.size
    return estimate, converged, iterations


def code_for_rate(n: int, target_rate: float, rng: np.random.Generator) -> ParityCheck:
    """Build an m = ceil(n*target_rate) staircase parity check, deterministic per rng.

    [S | T]: T lower triangular (full rank structurally), S random with
    balanced row loads and the column degrees of DEFAULT_INFO_DEGREES.
    Tail column i holds rows {i, i+1}; a DEFAULT_TAIL_DEGREE3 fraction also
    gets one extra row drawn from a bounded window below, which stays under
    the diagonal and keeps the row loads near-uniform. Any n >= 1: a
    one-column code is the single row [1].
    """
    if not 0.0 < as_real("target_rate", target_rate) < 1.0:
        raise ValueError(f"target rate {target_rate} not in (0, 1)")
    n, rng = as_count("n", n, 1), as_instance("rng", rng, np.random.Generator)
    m = math.ceil(n * target_rate)
    k = n - m
    tail_extra = np.full(m, -1, dtype=np.int64)
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
    # Column-major with rows ascending, the layout the cycle breaker edits:
    # each info column's rows sorted in place, then tail column i as
    # i, i + 1 and its extra row (which lies below both), the last column
    # as m - 1 alone.
    offsets = np.concatenate([[0], np.cumsum(degrees)])
    for d in np.unique(degrees).tolist():
        at = offsets[:-1][degrees == d, None] + np.arange(d)
        info_rows[at] = np.sort(info_rows[at], axis=1)
    extra = np.flatnonzero(tail_extra >= 0)
    tail_degrees = np.full(m, 2, dtype=np.int64)
    tail_degrees[extra] = 3
    tail_degrees[m - 1] = 1
    tail_at = np.cumsum(tail_degrees) - tail_degrees
    tail_rows = np.empty(int(tail_degrees.sum()), dtype=np.int64)
    tail_rows[tail_at] = np.arange(m)
    tail_rows[tail_at[:-1] + 1] = np.arange(1, m)
    tail_rows[tail_at[extra] + 2] = tail_extra[extra]
    col_degrees = np.concatenate([degrees, tail_degrees])
    edge_var = np.repeat(np.arange(n), col_degrees)
    edge_check = np.concatenate([info_rows, tail_rows])
    col_ptr = np.concatenate([[0], np.cumsum(col_degrees)])
    _break_low_degree_cycles(col_ptr, edge_check, m, k, rng)
    return ParityCheck(m, n, edge_var, edge_check)


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
    rewires one column of every shared pair found at its start, and a
    rewiring can create a new shared pair. Shared pairs can remain (a
    handful at session scale).
    """
    sizes = np.diff(col_ptr)
    low = np.flatnonzero((sizes >= 2) & (sizes <= 3))
    # Row pairs (0, 1), (0, 2), (1, 2) of each column, column by column.
    per_col = np.where(sizes[low] == 3, 3, 1)
    owners = np.repeat(low, per_col)
    pair_ptr = np.zeros(sizes.size + 1, dtype=np.int64)
    pair_ptr[low + 1] = per_col
    np.cumsum(pair_ptr, out=pair_ptr)
    slot = np.arange(owners.size) - pair_ptr[owners]
    first = col_ptr[owners] + np.array([0, 0, 1])[slot]
    second = col_ptr[owners] + np.array([1, 2, 2])[slot]
    keys = rows[first] * m + rows[second]
    # Pair positions sorted by key, and their keys; a round's rewired pairs
    # are taken out and put back at their new keys. Only the shared pairs
    # need (key, position) order, and a round puts them in it.
    order = np.argsort(keys)
    ordered = keys[order]
    for _ in range(_CYCLE_ROUNDS):
        shared = _in_runs(ordered)
        if not shared.any():
            return
        at = order[shared]
        at = at[np.lexsort((at, ordered[shared]))]
        at_keys, at_owners = keys[at].tolist(), owners[at].tolist()
        rewired = []
        # A column's rows are distinct, so a shared key has two owners.
        for i in range(at.size - 1):
            if at_keys[i] != at_keys[i + 1]:
                continue
            j1, j2 = at_owners[i], at_owners[i + 1]
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
                # Tail column i holds rows i, i+1 and a third row in
                # [i + 2, m), which sorts last and alone can move. A tail
                # target has one: degree-2 tail columns {i, i+1} and
                # {j, j+1} share a pair only if i = j.
                swap_at = 2
                lo = target - k + 2
                hi = min(lo + _TAIL_WINDOW, m)
            held = col.tolist()
            for _ in range(32):
                candidate = int(rng.integers(lo, hi))
                if candidate not in held:
                    held[swap_at] = candidate
                    col[:] = sorted(held)
                    rewired.append(target)
                    break
        if not rewired:
            continue
        cols = np.unique(rewired)
        moved = _ranges(pair_ptr[cols + 1], pair_ptr[cols + 1] - pair_ptr[cols])
        keys[moved] = rows[first[moved]] * m + rows[second[moved]]
        gone = np.zeros(keys.size, dtype=bool)
        gone[moved] = True
        kept = ~gone[order]
        order, ordered = order[kept], ordered[kept]
        moved = moved[np.argsort(keys[moved])]
        back = np.searchsorted(ordered, keys[moved])
        order = np.insert(order, back, moved)
        ordered = np.insert(ordered, back, keys[moved])


def _profile_degrees(k: int, rng: np.random.Generator) -> np.ndarray:
    """k information-column degrees in DEFAULT_INFO_DEGREES proportions, shuffled."""
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
    negligible). Every degree is at most m. Returns the check of each edge,
    column by column: column j owns the next degrees[j] entries.
    """
    total = int(degrees.sum())
    base = (total + int(pre_load.sum())) // m
    row_counts = np.maximum(base - pre_load, 0).astype(np.int64)
    # drift < m: row_counts sums to at least m * base - sum(pre_load).
    drift = total - int(row_counts.sum())
    if drift > 0:
        row_counts[rng.permutation(m)[:drift]] += 1
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
        keys = col_of_edge * m + sockets
        ordered = np.sort(keys)
        repeated = ordered[1:][ordered[1:] == ordered[:-1]]
        if repeated.size == 0:
            return sockets
        # Only the columns holding a repeated row have duplicates; their
        # entries in (column, row, position) order decide which entries
        # move, and in what order.
        cols = np.unique(repeated // m)
        at = _ranges(offsets[cols + 1], degrees[cols])
        order = at[np.argsort(keys[at], kind="stable")]
        dup_positions = order[1:][keys[order[1:]] == keys[order[:-1]]]
        for pos in dup_positions:
            other = int(rng.integers(0, total))
            sockets[pos], sockets[other] = sockets[other], sockets[pos]
    # Tiny structured instances (column degree near m) can make random swaps
    # hopeless; assign greedily by residual row capacity instead, which
    # always yields distinct rows per column at a small cost in balance.
    caps = row_counts.astype(np.float64)
    for j in np.argsort(-degrees, kind="stable"):
        d = int(degrees[j])
        top = np.argsort(-(caps + 0.25 * rng.random(m)), kind="stable")[:d]
        sockets[offsets[j] : offsets[j + 1]] = top
        caps[top] -= 1.0
    return sockets
