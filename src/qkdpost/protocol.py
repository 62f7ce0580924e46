"""Executable two-party post-processing session.

One session runs parameter estimation, the two-way information
reconciliation rounds, and privacy amplification, with every public message
recorded in an ordered transcript and every leaked bit counted. The flow:

1. Alice and Bob compare a fresh sample of bit pairs; a sample error rate
   too far from the configured channel aborts the session.
2. Alice compresses her block-parity sequence to a syndrome; Bob decodes
   the parity discrepancies and sends the estimate back. A decode that does
   not match the syndrome tells Bob the estimate is wrong, and the session
   ends there with no key.
3. Second bits survive only on blocks whose estimated discrepancy parity is
   0. If the survivor count lands inside the agreed window, a second
   syndrome round corrects them; otherwise Bob fills in uniformly random
   guesses and no second syndrome is sent.
4. Both parties hash their reconciled strings with a shared Toeplitz seed
   drawn fresh per session and published in the transcript.

Leak accounting is the exact syndrome bit count |t1| + |t2|; estimation
disclosures and the hash seed are public by construction and carry no key
information. Security bookkeeping at finite size is collapsed into a single
configurable key-rate margin: the session certifies leak counts and rate
formulas, not a composable finite-size security claim, since the smooth
entropy quantities behind such a claim have no closed form here.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np
import scipy.fft

from .blocks import as_bits, as_count, parity_seq, partition, second_bit_seq
from .channel import BellDiagonal, bb84_family, derived_dists, sample_pair, six_state_point
from .codes import DecodeResult, ParityCheck, bp_decode, code_for_rate
from .entropy import shannon_entropy
from .keyrate import bb84_rate, rate_proposed

__all__ = [
    "ALICE_TO_BOB",
    "BOB_TO_ALICE",
    "Abort",
    "Message",
    "Transcript",
    "IrResult",
    "SessionConfig",
    "SessionPlan",
    "SessionReport",
    "parameter_estimation",
    "run_ir",
    "toeplitz_hash",
    "key_length",
    "plan_session",
    "run_full_session",
]

ALICE_TO_BOB = "alice_to_bob"
BOB_TO_ALICE = "bob_to_alice"

# Direction of each label, in legal message order; t2 is skipped when the
# survivor window is violated (or empty), hash_seed outside full sessions.
_LABEL_DIRECTION = {
    "t1": ALICE_TO_BOB,
    "w1hat": BOB_TO_ALICE,
    "t2": ALICE_TO_BOB,
    "hash_seed": ALICE_TO_BOB,
}
_LABEL_ORDER = tuple(_LABEL_DIRECTION)

# Decoder validity clamp for degenerate estimates (noiseless or saturated).
_CROSSOVER_FLOOR = 1e-12


def _bits_hex(bits: np.ndarray) -> str:
    return np.packbits(bits).tobytes().hex() if bits.size else ""


@dataclass(frozen=True)
class Message:
    """One public-channel transmission; its label fixes its direction."""

    label: str
    payload: np.ndarray

    def __post_init__(self):
        if self.label not in _LABEL_ORDER:
            raise ValueError(f"unknown message label {self.label!r}")
        object.__setattr__(self, "payload", as_bits(self.payload))

    def to_dict(self) -> dict:
        return {
            "direction": _LABEL_DIRECTION[self.label],
            "label": self.label,
            "bits": int(self.payload.size),
            "payload_hex": _bits_hex(self.payload),
        }


@dataclass(frozen=True)
class Transcript:
    """Ordered public messages of one session.

    Labels must respect protocol order (t1, w1hat, optional t2, optional
    hash_seed); prefixes are legal, so partial transcripts from aborted or
    reconciliation-only runs validate too.
    """

    messages: tuple[Message, ...] = ()

    def __post_init__(self):
        last = -1
        for msg in self.messages:
            if not isinstance(msg, Message):
                raise ValueError(f"transcript entry {msg!r} is not a Message")
            pos = _LABEL_ORDER.index(msg.label)
            if pos <= last:
                raise ValueError(f"message {msg.label!r} out of protocol order")
            last = pos

    def with_message(self, message: Message) -> "Transcript":
        return Transcript(self.messages + (message,))

    def to_dict(self) -> dict:
        return {"messages": [m.to_dict() for m in self.messages]}


@dataclass(frozen=True)
class Abort:
    """Estimation outcome outside the configured tolerance."""

    estimate: float
    nominal: float
    tolerance: float


def parameter_estimation(
    sample_x: np.ndarray,
    sample_y: np.ndarray,
    nominal_e: float,
    tol: float,
) -> float | Abort:
    """Empirical error rate of a disclosed sample, or Abort when it strays.

    Returns Hamming(sample_x, sample_y) / m when within tol of nominal_e,
    an Abort record otherwise. The disclosed sample is consumed either way.
    """
    x = as_bits(sample_x)
    y = as_bits(sample_y)
    if x.size != y.size:
        raise ValueError(f"sample lengths differ: {x.size} vs {y.size}")
    if x.size == 0:
        raise ValueError("estimation sample is empty")
    estimate = float(np.sum(x ^ y)) / x.size
    if abs(estimate - nominal_e) <= tol:
        return estimate
    return Abort(estimate=estimate, nominal=nominal_e, tolerance=tol)


@dataclass(frozen=True)
class IrResult:
    """Outputs of the reconciliation rounds.

    u_hat and u_tilde are Alice's and Bob's length-2n reconciled strings,
    parity bits interleaved with surviving second bits (discarded second
    bits are literal zeros). leak_bits counts syndrome bits only.
    reconciliation_ok certifies u_hat == u_tilde == the string Alice would
    have produced with the true discrepancy parities. A run stopped by a
    failed round-one decode has empty u_hat and u_tilde.
    """

    u_hat: np.ndarray
    u_tilde: np.ndarray
    transcript: Transcript
    leak_bits: int
    n_hat0: int
    bounds_violated: bool
    reconciliation_ok: bool
    decode1: DecodeResult
    decode2: DecodeResult | None


def _interleave(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    out = np.empty(first.size + second.size, dtype=np.uint8)
    out[0::2] = first
    out[1::2] = second
    return out


def run_ir(
    x: np.ndarray,
    y: np.ndarray,
    code1: ParityCheck,
    code2_factory: Callable[[int], ParityCheck],
    n0_bounds: tuple[int, int],
    crossover1: float,
    crossover2: float,
    rng: np.random.Generator,
) -> IrResult:
    """Run both reconciliation rounds on raw keys x (Alice) and y (Bob).

    Round one: Alice sends the syndrome t1 of her block parities under
    code1; Bob decodes the discrepancy parities w1hat from t1 plus his own
    syndrome at crossover1 and sends w1hat back. A decode that does not
    converge misses the syndrome, so Bob knows w1hat is wrong: the run stops
    with t1 as its only message, leaking |t1|. A decode that converges to
    the wrong coset member matches the syndrome, so neither party sees it;
    it surfaces as a key mismatch.

    Round two: both sides keep second bits only on blocks with estimated
    discrepancy parity 0 (zeros elsewhere). If the survivor count n_hat0
    falls outside n0_bounds, Bob guesses the surviving second bits
    uniformly at random and no second syndrome is sent; otherwise Alice
    sends the syndrome t2 of her survivors under code2_factory(n_hat0) and
    Bob decodes at crossover2.

    rng is required and feeds only the violation-branch guess, so a seeded
    caller's run stays reproducible. Each round decodes with one 300-sweep
    bp_decode, looked up in this module at call time, so a wrapper bound
    over protocol.bp_decode sees every call. Decode failures are reported
    in the result, never raised.
    """
    x = as_bits(x)
    y = as_bits(y)
    n = code1.n
    if x.size != y.size:
        raise ValueError(f"raw key lengths differ: {x.size} vs {y.size}")
    if x.size != 2 * n:
        raise ValueError(f"raw key length {x.size}, expected {2 * n} for the round-one code")
    lo, hi = int(n0_bounds[0]), int(n0_bounds[1])
    if not 0 <= lo <= hi <= n:
        raise ValueError(f"survivor bounds ({lo}, {hi}) not within [0, {n}]")

    u1 = parity_seq(x)
    v1 = parity_seq(y)
    t1 = code1.syndrome(u1)
    transcript = Transcript().with_message(Message("t1", t1))

    decode1 = bp_decode(code1, t1 ^ code1.syndrome(v1), crossover1, max_iters=300)
    if not decode1.converged:
        empty = np.zeros(0, dtype=np.uint8)
        return IrResult(u_hat=empty, u_tilde=empty, transcript=transcript, leak_bits=code1.m,
                        n_hat0=0, bounds_violated=False, reconciliation_ok=False,
                        decode1=decode1, decode2=None)
    w1hat = decode1.error_estimate
    transcript = transcript.with_message(Message("w1hat", w1hat))

    u2_hat = second_bit_seq(x, w1hat)
    v2_hat = second_bit_seq(y, w1hat)
    survivors = partition(w1hat)
    n_hat0 = survivors.size
    violated = not lo <= n_hat0 <= hi

    u1_tilde = v1 ^ w1hat
    u2_tilde = np.zeros(n, dtype=np.uint8)
    leak = code1.m
    decode2: DecodeResult | None = None
    if violated:
        u2_tilde[survivors] = rng.integers(0, 2, size=n_hat0, dtype=np.uint8)
    elif n_hat0 > 0:
        code2 = code2_factory(n_hat0)
        if code2.n != n_hat0:
            raise ValueError(f"round-two code has {code2.n} columns, expected {n_hat0}")
        t2 = code2.syndrome(u2_hat[survivors])
        transcript = transcript.with_message(Message("t2", t2))
        leak += code2.m
        v2_surv = v2_hat[survivors]
        decode2 = bp_decode(code2, t2 ^ code2.syndrome(v2_surv), crossover2, max_iters=300)
        u2_tilde[survivors] = v2_surv ^ decode2.error_estimate

    u_hat = _interleave(u1, u2_hat)
    u_tilde = _interleave(u1_tilde, u2_tilde)
    w1_true = parity_seq(x ^ y)
    u_true = _interleave(u1, second_bit_seq(x, w1_true))
    ok = bool(np.array_equal(u_hat, u_tilde) and np.array_equal(u_hat, u_true))
    return IrResult(
        u_hat=u_hat,
        u_tilde=u_tilde,
        transcript=transcript,
        leak_bits=int(leak),
        n_hat0=n_hat0,
        bounds_violated=violated,
        reconciliation_ok=ok,
        decode1=decode1,
        decode2=decode2,
    )


def toeplitz_hash(seed: np.ndarray, value: np.ndarray, ell: int) -> np.ndarray:
    """Multiply by the binary Toeplitz matrix built from seed diagonals.

    The matrix has ell rows and len(value) columns; entry (i, j) is
    seed[i - j + len(value) - 1], so row i of the output is entry
    n - 1 + i of the linear convolution of value with seed (n = len(value)).
    Requires seed length exactly n + ell - 1.

    The convolution is one circular FFT convolution of length
    L = next_fast_len(len(seed)) >= n + ell - 1, not of the full linear
    length 2n + ell - 2. The window [n - 1, n + ell - 1) does not alias: a
    wrapped term k + L lands past the last linear index 2n + ell - 3, and
    k - L is negative. The sums are counts up to n, computed in float64;
    measured on 2^22 random input bits with ell = 0.54 n, they sit at most
    3.5e-10 from an integer, far inside the rounding margin of 0.5.
    """
    seed = as_bits(seed)
    value = as_bits(value)
    ell = as_count("ell", ell, 0, value.size)
    if seed.size != value.size + ell - 1:
        raise ValueError(f"seed length {seed.size}, expected {value.size + ell - 1}")
    if ell == 0:
        return np.zeros(0, dtype=np.uint8)
    length = scipy.fft.next_fast_len(seed.size, real=True)
    spectrum = scipy.fft.rfft(seed, length) * scipy.fft.rfft(value, length)
    window = scipy.fft.irfft(spectrum, length)[value.size - 1 : value.size - 1 + ell]
    return (np.rint(window).astype(np.int64) & 1).astype(np.uint8)


def key_length(p_est: BellDiagonal, n: int, margin: float) -> int:
    """Distillable bits for 2n raw bits at the estimated channel.

    floor(2n * max(0, asymptotic rate - margin)); margin absorbs every
    finite-size correction in one configurable deduction.
    """
    if not 0.0 <= margin < math.inf:
        raise ValueError(f"margin={margin} must be finite and >= 0")
    n = as_count("n", n, 1)
    rate = rate_proposed(p_est) - margin
    return int(math.floor(2 * n * max(0.0, rate)))


# Cap on a session's n and m. One session at n = 10**6 takes about 20 s and
# 0.6 GB on a 2-core machine; far larger sizes fail allocating their arrays.
_MAX_SIZE = 10**6


@dataclass(frozen=True)
class SessionConfig:
    """Full-session parameters.

    channel is the nominal source; estimation aborts when the sampled error
    rate strays more than abort_tolerance from its bit-flip rate. delta
    (code-rate margin and survivor-window radius) and mapping (how the
    estimate becomes a Bell-diagonal point) size the session as SessionPlan
    describes. Codes come from code_for_rate, and each round decodes with
    one 300-sweep bp_decode.
    """

    channel: BellDiagonal
    n: int = 50_000
    m: int = 20_000
    delta: float = 0.05
    abort_tolerance: float = 0.02
    finite_size_margin: float = 0.0
    seed: int = 0
    mapping: str = "six-state"

    def __post_init__(self):
        if not isinstance(self.channel, BellDiagonal):
            raise ValueError(f"channel={self.channel!r} must be a BellDiagonal")
        as_count("n", self.n, 1, _MAX_SIZE)
        if as_count("m", self.m, 2, _MAX_SIZE) % 2 != 0:
            raise ValueError("estimation sample size must be even and >= 2 (drawn block-wise)")
        as_count("seed", self.seed, 0)
        for name in ("delta", "abort_tolerance", "finite_size_margin"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name}={value!r} must be a real number")
        # Written so that NaN and infinity fail each check. delta >= 1 would
        # push a code rate H + delta to 1 or more, leaving no syndrome
        # shorter than the data; the cap also keeps the survivor window's
        # floor finite.
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta={self.delta} must be in (0, 1)")
        if not 0.0 <= self.abort_tolerance < math.inf:
            raise ValueError(f"abort_tolerance={self.abort_tolerance} must be finite and >= 0")
        if not 0.0 <= self.finite_size_margin < math.inf:
            raise ValueError(f"finite_size_margin={self.finite_size_margin} must be finite and >= 0")
        if self.mapping not in ("six-state", "bb84"):
            raise ValueError(f"unknown mapping {self.mapping!r}")


@dataclass(frozen=True)
class SessionReport:
    """Immutable record of one session.

    leak_bits is exactly |t1| + |t2|; empirical_key_rate is
    len(key_alice) / (2n); key_match needs a nonempty key, so a 0-bit key
    never counts as matched. bounds_violated and the decode flags separate a
    survivor-window rejection from a plain decode failure; decode flags are
    None for rounds that never ran. estimated_e sits next to the nominal
    rate so calibration drift is visible in the report itself. The defaults
    describe a session that stopped before reconciliation: no messages, no
    leak, empty keys.
    """

    aborted: bool
    nominal_e: float
    estimated_e: float
    n: int
    transcript: Transcript = field(default_factory=Transcript)
    leak_bits: int = 0
    key_alice: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    key_bob: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.uint8))
    reconciliation_ok: bool = False
    key_match: bool = False
    empirical_key_rate: float = 0.0
    n_hat0: int = 0
    bounds_violated: bool = False
    decode1_converged: bool | None = None
    decode2_converged: bool | None = None

    def to_dict(self) -> dict:
        return {
            "aborted": self.aborted,
            "nominal_e": self.nominal_e,
            "estimated_e": self.estimated_e,
            "n": self.n,
            "leak_bits": self.leak_bits,
            "n_hat0": self.n_hat0,
            "bounds_violated": self.bounds_violated,
            "decode1_converged": self.decode1_converged,
            "decode2_converged": self.decode2_converged,
            "reconciliation_ok": self.reconciliation_ok,
            "key_match": self.key_match,
            "key_bits": int(self.key_alice.size),
            "empirical_key_rate": self.empirical_key_rate,
            "key_alice_hex": _bits_hex(self.key_alice),
            "key_bob_hex": _bits_hex(self.key_bob),
            "transcript": self.transcript.to_dict(),
        }


# A NamedTuple: immutable, at an eighth of a frozen dataclass's import cost.
class SessionPlan(NamedTuple):
    """Sizing of one session, fixed by its estimate before any syndrome is sent.

    point lifts the estimate as cfg.mapping says: "six-state" pins all four
    entries; "bb84" takes the rate-minimizing member of its family, the
    conservative choice for key length (decoding sees only the bit-flip
    marginal). rates are the block-law entropies H(W1) and H(W2) plus
    delta; a rate out of (0, 1) fails code construction, since no syndrome
    shorter than the data exists there. crossovers are the BP priors
    P_W1(1) and P_W2(1), clamped into [1e-12, 0.5 - 1e-12]. n0_bounds is
    the survivor window n * (P_W1(0) -/+ delta) within [0, n]; an upper end
    anchored at P_W1(1) would sit far below the typical survivor count and
    reject almost every honest session. key_bits is key_length(point, n,
    finite_size_margin).
    """

    point: BellDiagonal
    rates: tuple[float, float]
    crossovers: tuple[float, float]
    n0_bounds: tuple[int, int]
    key_bits: int


def plan_session(estimate: float, cfg: SessionConfig) -> SessionPlan:
    """The SessionPlan of an estimated error rate under cfg; deterministic."""
    if cfg.mapping == "six-state":
        point = six_state_point(estimate)
    else:
        point = bb84_family(estimate, bb84_rate(estimate, "proposed")[1])
    laws = derived_dists(point)
    center = laws[0](0)
    return SessionPlan(
        point=point,
        rates=tuple(shannon_entropy(w) + cfg.delta for w in laws),
        crossovers=tuple(min(max(w(1), _CROSSOVER_FLOOR), 0.5 - _CROSSOVER_FLOOR) for w in laws),
        n0_bounds=(max(0, math.floor(cfg.n * (center - cfg.delta))),
                   min(cfg.n, math.ceil(cfg.n * (center + cfg.delta)))),
        key_bits=key_length(point, cfg.n, cfg.finite_size_margin),
    )


def run_full_session(cfg: SessionConfig) -> SessionReport:
    """Sample, estimate, reconcile, and hash one session; deterministic per seed.

    The seed is split into independent streams for estimation sampling, raw
    keys, both code constructions, the hash seed, and the violation-branch
    guess, in that fixed order. An out-of-tolerance estimate yields an
    aborted report with empty transcript and zero leak; a failed round-one
    decode yields a report with transcript (t1,), leak |t1| and no key.
    The estimate sizes the rest of the session through plan_session.
    """
    streams = np.random.SeedSequence(cfg.seed).spawn(6)
    rng_est, rng_data, rng_code1, rng_code2, rng_hash, rng_guess = map(np.random.default_rng, streams)
    nominal_e = cfg.channel.bit_flip_rate()

    sample_x, sample_y = sample_pair(cfg.channel, cfg.m, rng_est)
    outcome = parameter_estimation(sample_x, sample_y, nominal_e, cfg.abort_tolerance)
    if isinstance(outcome, Abort):
        return SessionReport(aborted=True, nominal_e=nominal_e, estimated_e=outcome.estimate, n=cfg.n)

    estimate = outcome
    plan = plan_session(estimate, cfg)
    x, y = sample_pair(cfg.channel, 2 * cfg.n, rng_data)
    code1 = code_for_rate(cfg.n, plan.rates[0], rng=rng_code1)
    ir = run_ir(
        x,
        y,
        code1,
        lambda n0: code_for_rate(n0, plan.rates[1], rng=rng_code2),
        plan.n0_bounds,
        *plan.crossovers,
        rng_guess,
    )
    if not ir.decode1.converged:
        return SessionReport(aborted=False, nominal_e=nominal_e, estimated_e=estimate, n=cfg.n,
                             transcript=ir.transcript, leak_bits=ir.leak_bits,
                             decode1_converged=False)

    hash_seed = rng_hash.integers(0, 2, size=2 * cfg.n + plan.key_bits - 1, dtype=np.uint8)
    key_alice = toeplitz_hash(hash_seed, ir.u_hat, plan.key_bits)
    key_bob = toeplitz_hash(hash_seed, ir.u_tilde, plan.key_bits)
    transcript = ir.transcript.with_message(Message("hash_seed", hash_seed))
    return SessionReport(
        aborted=False,
        nominal_e=nominal_e,
        estimated_e=estimate,
        n=cfg.n,
        transcript=transcript,
        leak_bits=ir.leak_bits,
        key_alice=key_alice,
        key_bob=key_bob,
        reconciliation_ok=ir.reconciliation_ok,
        key_match=key_alice.size > 0 and bool(np.array_equal(key_alice, key_bob)),
        empirical_key_rate=key_alice.size / ir.u_hat.size,
        n_hat0=ir.n_hat0,
        bounds_violated=ir.bounds_violated,
        decode1_converged=ir.decode1.converged,
        decode2_converged=None if ir.decode2 is None else ir.decode2.converged,
    )
