"""Two-way hashed information reconciliation for QKD post-processing.

The package has three layers:

* classical mechanics: block transforms, linear-code syndromes and decoders,
  Toeplitz hashing, and the full two-way reconciliation session (``blocks``,
  ``codes``, ``protocol``);
* closed-form key rates for the six-state and BB84 constraint sets plus the
  comparison baselines (``keyrate``);
* a brute-force density-matrix oracle that recomputes the same rates from
  explicit purifications and checks the entropy lemmas the security argument
  rests on (``oracle``).

The ``qkdpost`` console script exposes key-rate sweeps, end-to-end session
simulation, and the verification suites.
"""

__version__ = "0.1.0"

from .channel import BellDiagonal, bb84_family, derived_dists, six_state_point
from .codes import ParityCheck, bp_decode, code_for_rate, ml_decode
from .entropy import Dist, binary_entropy, shannon_entropy
from .keyrate import bb84_curve, bb84_rate, rate_point, sixstate_curve, sweep, tolerable_rate
from .protocol import (
    SessionConfig,
    SessionReport,
    key_length,
    parameter_estimation,
    run_full_session,
    run_ir,
    toeplitz_hash,
)

__all__ = [
    "__version__",
    "BellDiagonal",
    "Dist",
    "ParityCheck",
    "SessionConfig",
    "SessionReport",
    "bb84_curve",
    "bb84_family",
    "bb84_rate",
    "binary_entropy",
    "bp_decode",
    "code_for_rate",
    "derived_dists",
    "key_length",
    "ml_decode",
    "parameter_estimation",
    "rate_point",
    "run_full_session",
    "run_ir",
    "shannon_entropy",
    "six_state_point",
    "sixstate_curve",
    "sweep",
    "toeplitz_hash",
    "tolerable_rate",
]
