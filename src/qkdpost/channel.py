"""Bell-diagonal channel parameterizations and raw-key sampling.

A two-qubit Bell-diagonal state is parameterized by four probabilities
(p00, p10, p01, p11); the first index is the bit-flip component x, the second
the phase component z. Measuring both halves in the z basis makes only the
bit-flip marginal P_X(x) = sum_z p_xz observable: Alice's bit is uniform and
Bob's differs with probability P_X(1) = p10 + p11. Phase components never show
up in sampling but drive the key-rate formulas, so all four entries travel
together as the single source of truth for the constraint sets.

derived_dists returns the laws of length-2 blocks of the bit-flip process
as a pair of Dists: W1 is the block parity of the discrepancy pattern, W2
the second-bit discrepancy after parity alignment. With row sums
r0 + r1 = 1, their one denominator P_W1(0) = r0^2 + r1^2 is at least 1/2;
the one that can vanish, r0 r1, appears only in the key rates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blocks import as_count, as_real
from .entropy import _SUM_TOL, Dist

__all__ = [
    "BellDiagonal",
    "six_state_point",
    "bb84_family",
    "derived_dists",
    "sample_pair",
]


@dataclass(frozen=True)
class BellDiagonal:
    """Bell-diagonal entries (p00, p10, p01, p11); must sum to 1."""

    p00: float
    p10: float
    p01: float
    p11: float

    def __post_init__(self):
        entries = (self.p00, self.p10, self.p01, self.p11)
        for name, value in zip(("p00", "p10", "p01", "p11"), entries):
            if not -_SUM_TOL <= value <= 1.0 + _SUM_TOL:
                raise ValueError(f"{name}={value} outside [0, 1]")
        total = math.fsum(entries)
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"entries sum to {total}, not 1")

    def bit_flip_rate(self) -> float:
        """P_X(1) = p10 + p11; the probability Bob's z-basis bit differs."""
        return self.p10 + self.p11


def six_state_point(e: float) -> BellDiagonal:
    """The single Bell-diagonal state consistent with six-state error rate e.

    All three marginal conditions p10+p11 = p01+p11 = p01+p10 = e hold, which
    forces (1 - 3e/2, e/2, e/2, e/2). Valid for 0 <= e <= 2/3.
    """
    e = as_real("e", e)
    if not -_SUM_TOL <= e <= 2.0 / 3.0 + _SUM_TOL:
        raise ValueError(f"six-state error rate {e} outside [0, 2/3]")
    e = min(max(e, 0.0), 2.0 / 3.0)
    return BellDiagonal(1.0 - 1.5 * e, 0.5 * e, 0.5 * e, 0.5 * e)


def bb84_family(e: float, p11: float) -> BellDiagonal:
    """The BB84-compatible Bell-diagonal state with free parameter p11.

    BB84 estimation constrains only p10+p11 = e and p01+p11 = e, leaving the
    one-parameter family (1-2e+p11, e-p11, e-p11, p11) with p11 in [0, e].
    """
    e, p11 = as_real("e", e), as_real("p11", p11)
    if not -_SUM_TOL <= e <= 0.5 + _SUM_TOL:
        raise ValueError(f"BB84 error rate {e} outside [0, 1/2]")
    if not -_SUM_TOL <= p11 <= e + _SUM_TOL:
        raise ValueError(f"p11={p11} outside [0, e={e}]")
    return BellDiagonal(*_bb84_entries(min(max(e, 0.0), 0.5), p11))


def _bb84_entries(e: float, p11: float) -> tuple[float, float, float, float]:
    """Entries (p00, p10, p01, p11) of bb84_family for e in [0, 1/2], with
    p11 clamped into [0, e] and p00 clamped at 0; the key rates evaluate
    these without building a BellDiagonal. The clamps are conditional
    expressions, which return what min and max return without a call."""
    p11 = 0.0 if 0.0 > p11 else p11
    p11 = e if e < p11 else p11
    p00 = 1.0 - 2.0 * e + p11
    return 0.0 if 0.0 > p00 else p00, e - p11, e - p11, p11


def derived_dists(p: BellDiagonal) -> tuple[Dist, Dist]:
    """Block laws (w1, w2) of the length-2 reduction: w1 is the law of the
    block discrepancy parity W1 (P_Xbar in the rates), w2 the law of the
    second-bit discrepancy W2 given W1 = 0.

    With row sums r0 = p00+p01 and r1 = p10+p11 (the bit-flip marginal):

        w1 = (r0^2 + r1^2, 2 r0 r1)
        w2 = (r0^2, r1^2) / (r0^2 + r1^2)

    Row sums that rounding leaves slightly negative are clipped to 0.
    """
    r0 = max(0.0, p.p00 + p.p01)
    r1 = max(0.0, p.p10 + p.p11)
    pbar0 = r0 * r0 + r1 * r1
    pbar1 = 2.0 * r0 * r1
    total = pbar0 + pbar1
    # total = (r0+r1)^2 = 1 up to rounding; renormalize the pair exactly.
    w1 = Dist([pbar0 / total, pbar1 / total])
    w2 = Dist([r0 * r0 / pbar0, r1 * r1 / pbar0])
    return w1, w2


def sample_pair(p: BellDiagonal, length: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Sample correlated raw keys (x, y) of the given even length.

    x is i.i.d. uniform; y = x XOR e with e_i i.i.d. Bernoulli(p10 + p11).
    Phase-flip components do not affect z-basis outcomes, so only the bit-flip
    marginal enters. Reproducible given the generator state.
    """
    if as_count("length", length, 2) % 2 != 0:
        raise ValueError(f"length must be even and >= 2, got {length}")
    x = rng.integers(0, 2, size=length, dtype=np.uint8)
    flips = (rng.random(length) < p.bit_flip_rate()).astype(np.uint8)
    y = x ^ flips
    return x, y
