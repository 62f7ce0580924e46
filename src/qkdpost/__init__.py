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
simulation, and the verification suites. The package root holds only
``__version__``; every other name is imported from its submodule. A record
that only holds fields is a ``typing.NamedTuple``; a frozen dataclass is kept
only where the class validates its fields.
"""

__version__ = "0.1.0"
