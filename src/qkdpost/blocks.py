"""Length-2 block reduction of raw keys.

Raw keys of length 2n are viewed as n blocks of two bits. The reduction maps
each block (a1, a2) to a parity bit a1 XOR a2 and a second bit that survives
only where a supplied discrepancy-parity estimate is 0; the surviving block
indices are T0, the blocks the second reconciliation round works on.
Discarded second bits are stored as literal zeros so downstream hashing
always sees full-length arrays.

Bit sequences are numpy uint8 arrays with values in {0, 1}. Indices are
0-based everywhere in code; any rendering for people is the caller's problem.
"""

from __future__ import annotations

import numbers

import numpy as np

__all__ = [
    "as_bits",
    "as_count",
    "as_real",
    "parity_seq",
    "second_bit_seq",
    "partition",
]


def as_bits(values) -> np.ndarray:
    """Coerce to a uint8 array of 0/1 values; reject anything else."""
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"expected a 1-d bit sequence, got shape {arr.shape}")
    # Casting would truncate fractions (0.5 -> 0) and wrap wide integers
    # (257 -> 1), so dtypes other than bool and uint8 must hold exact 0/1
    # values before the cast.
    if arr.dtype.char not in "?B" and not np.all((arr == 0) | (arr == 1)):
        raise ValueError("bit sequence contains values outside {0, 1}")
    arr = arr.astype(np.uint8, copy=False)
    if arr.size and int(arr.max(initial=0)) > 1:
        raise ValueError("bit sequence contains values outside {0, 1}")
    return arr


def as_count(name: str, value, low: int, high: int | None = None) -> int:
    """value as an int in [low, high], high None for no cap; numpy integers pass, and
    a bool or any other non-integer (an integral float too) is a ValueError naming name."""
    # The type test first: the ABC test costs about 0.3 us a call, and most counts are ints.
    if type(value) is not int and (isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValueError(f"{name}={value!r} must be an integer")
    if value < low:
        raise ValueError(f"{name}={value} must be >= {low}")
    if high is not None and value > high:
        raise ValueError(f"{name}={value} must be at most {high}")
    return int(value)


def as_real(name: str, value) -> float:
    """value as a float; numpy floats pass, and a bool or any other non-real is a
    ValueError naming name. Ranges are the caller's, written so that NaN fails them."""
    # The type test first, as in as_count: most reals are floats.
    if type(value) is not float and (isinstance(value, bool) or not isinstance(value, numbers.Real)):
        raise ValueError(f"{name}={value!r} must be a real number")
    return float(value)


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


def partition(w1hat: np.ndarray) -> np.ndarray:
    """T0: the ascending indices of the blocks whose parity estimate is 0."""
    return np.flatnonzero(as_bits(w1hat) == 0)
