"""Length-2 block reduction of raw keys.

Raw keys of length 2n are viewed as n blocks of two bits. The reduction maps
each block (a1, a2) to a parity bit a1 XOR a2 and a second bit that survives
only where a supplied discrepancy-parity estimate is 0; the surviving and
discarded block indices form the T0/T1 partition. Discarded second bits are
stored as literal zeros so downstream hashing always sees full-length arrays.

Bit sequences are numpy uint8 arrays with values in {0, 1}. Indices are
0-based everywhere in code; any rendering for people is the caller's problem.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "BlockPartition",
    "as_bits",
    "parity_seq",
    "second_bit_seq",
    "partition",
]


def as_bits(values) -> np.ndarray:
    """Coerce to a uint8 array of 0/1 values; reject anything else."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d bit sequence, got shape {arr.shape}")
    # Casting would truncate fractions (0.5 -> 0), so other dtypes must
    # hold exact 0/1 values.
    if arr.dtype.kind not in "biu" and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit sequence contains values outside {0, 1}")
    arr = arr.astype(np.uint8, copy=False)
    if arr.size and int(arr.max(initial=0)) > 1:
        raise ValueError("bit sequence contains values outside {0, 1}")
    return arr


@dataclass(frozen=True)
class BlockPartition:
    """Disjoint sorted index sets t0/t1 covering range(n)."""

    t0: np.ndarray
    t1: np.ndarray

    def __post_init__(self):
        n = self.t0.size + self.t1.size
        combined = np.concatenate([self.t0, self.t1])
        if not np.array_equal(np.sort(combined), np.arange(n)):
            raise ValueError("t0 and t1 must partition range(n)")

    @property
    def n0(self) -> int:
        return int(self.t0.size)


def parity_seq(s: np.ndarray) -> np.ndarray:
    """Per-block parity: output i = s[2i] XOR s[2i+1]. Length must be even."""
    s = as_bits(s)
    if s.size % 2 != 0:
        raise ValueError(f"length {s.size} is odd; blocks have two bits")
    pairs = s.reshape(-1, 2)
    return pairs[:, 0] ^ pairs[:, 1]


def second_bit_seq(s: np.ndarray, w1hat: np.ndarray) -> np.ndarray:
    """Second bit of each block where w1hat is 0; literal 0 where w1hat is 1."""
    s = as_bits(s)
    w1hat = as_bits(w1hat)
    if s.size != 2 * w1hat.size:
        raise ValueError(f"length mismatch: {s.size} bits vs {w1hat.size} parity estimates")
    second = s.reshape(-1, 2)[:, 1]
    return second & (1 - w1hat)


def partition(w1hat: np.ndarray) -> BlockPartition:
    """Split block indices by parity estimate: t0 where 0, t1 where 1."""
    w1hat = as_bits(w1hat)
    idx = np.arange(w1hat.size)
    return BlockPartition(t0=idx[w1hat == 0], t1=idx[w1hat == 1])

