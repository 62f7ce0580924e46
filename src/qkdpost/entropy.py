"""Scalar information measures over small finite alphabets.

All entropies are in bits (log base 2); key rates elsewhere in the package
inherit that unit. The 0*log(0) := 0 convention is handled by an explicit
branch on exact zeros, never by epsilon-flooring, so exact zeros stay exact.
Alphabets here are tiny (at most 16 symbols), so distributions are kept dense.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .blocks import as_count, as_real

__all__ = [
    "Dist",
    "binary_entropy",
    "shannon_entropy",
    "type_deviation_bound",
]

_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Dist:
    """Probability distribution over a finite alphabet {0, ..., k-1}.

    Entries must be non-negative and sum to 1 within 1e-12. The alphabet size
    is carried explicitly as len(probs).
    """

    probs: tuple[float, ...]

    def __init__(self, probs: Iterable[float]):
        p = tuple(float(x) for x in probs)
        if len(p) == 0:
            raise ValueError("distribution needs at least one symbol")
        # Written so that NaN fails both checks.
        if not all(x >= 0.0 for x in p):
            raise ValueError(f"negative or NaN probability in {p}")
        total = math.fsum(p)
        if not abs(total - 1.0) <= _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return len(self.probs)

    def __call__(self, symbol: int) -> float:
        return self.probs[symbol]


def binary_entropy(p: float) -> float:
    """h(p) = -p*log2(p) - (1-p)*log2(1-p), with 0*log(0) := 0.

    Accepts p within 1e-12 outside [0,1] (clamped); anything farther out,
    or NaN, is a domain error.
    """
    if not -_SUM_TOL <= p <= 1.0 + _SUM_TOL:
        raise ValueError(f"binary_entropy argument {p} outside [0, 1]")
    p = min(max(p, 0.0), 1.0)
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def shannon_entropy(dist: Dist | Sequence[float]) -> float:
    """H(P) = -sum P(x) log2 P(x) in bits; zero-probability terms contribute 0."""
    probs = dist.probs if isinstance(dist, Dist) else Dist(dist).probs
    return -math.fsum(p * math.log2(p) for p in probs if p > 0.0)


def type_deviation_bound(n: int, eps: float, alphabet_size: int) -> float:
    """Probability bound for the type deviating from the true distribution.

    Bound on Pr{ ||type(x) - P|| > eps } for n i.i.d. draws from any P over an
    alphabet of the given size:

        (n+1)^(k-1) * 2^(-eps^2 * n / (2 ln 2)),

    clamped to at most 1. The exponential has base 2; the natural log appears
    only in the exponent conversion.
    """
    n = as_count("n", n, 1)
    # Written so that NaN fails the check.
    if not as_real("eps", eps) > 0.0:
        raise ValueError("eps must be positive")
    alphabet_size = as_count("alphabet_size", alphabet_size, 2)
    # log2 of the bound; the exponent -eps^2*n/(2 ln 2) is already in bits.
    log2_bound = (alphabet_size - 1) * math.log2(n + 1) - (eps * eps * n) / (2.0 * math.log(2))
    if log2_bound >= 0.0:
        return 1.0
    return min(1.0, 2.0 ** log2_bound)
