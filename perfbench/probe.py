"""Machine-speed probe: fixed work, owned by the benchmark, timed between
operations so that their times can be scaled to a reference speed.

The reference machine is a shared 2-vCPU KVM guest whose speed swings by up
to 50% over a minute or two as other tenants load the host. Those swings
move every operation of a run together, so raw medians spread by 0.2-0.5 of
their value across ten seeds. The probe's own time swings with them: over
150 s of alternating probe and operation, the interpreter and small-LAPACK
parts of the probe tracked the oracle, keyrate and code-construction
operations (correlation 0.6-0.85) and the streaming part tracked the large
hash (0.63), while the streaming part tracked the others poorly (0.4-0.5).
So there are two kinds, and each workload names the one that matches it.
Whole sessions (5-8 s each) follow neither: one session run 12-16 times in
a row spread 0.08-0.09 as measured and 0.12-0.16 scaled by the `cpu` kind;
the `memory` kind did as well as no scaling there, but over ten seeds of
three sessions its samples after a session sometimes read twice their
usual time, and the scaled median spread 0.29 against 0.10 as measured.
So session times are not scaled.
A single probe is short and noisy, so a sample is the median of five, and
an operation is scaled by the mean of the samples just before and just
after it.

A third kind, ``import``, is the reference for the program's import time:
a forked copy of the process imports a fixed set of standard-library
modules. Timed next to a forked import of the program, it cancels the host
drift that neither of the other kinds tracks well (over ten set-ups spread
across two minutes, the medians of 15 program imports spread 0.12 of their
value, and their ratios to the reference 0.04).

Nothing here imports qkdpost, so no change to the program moves the probe.
"""

from __future__ import annotations

import importlib
import os
import statistics
import sys
import time

import numpy as np

KINDS = ("cpu", "memory")

# Median probe seconds on the reference machine; a scaled time is the time
# the operation would take when the probe runs at this speed.
REFERENCE_S = {"cpu": 0.015, "memory": 0.011, "import": 0.06}

# Standard-library modules that neither the benchmark, numpy, scipy nor
# qkdpost load, so that every forked copy imports all of them afresh.
IMPORT_REFERENCE = (
    "asyncio",
    "http.client",
    "xml.dom.minidom",
    "configparser",
    "tomllib",
    "logging.handlers",
    "plistlib",
    "optparse",
    "mailbox",
    "smtplib",
)

_LOOP = 60_000
_EIGH = 60
_PASSES = 6
_PER_SAMPLE = 5


class Probe:
    def __init__(self):
        self._a = np.linspace(0.0, 1.0, 1 << 20)  # 8 MiB, four times the L2 of a core
        self._b = np.empty_like(self._a)
        m = np.random.default_rng(0).standard_normal((16, 16))
        self._m = m + m.T
        for kind in KINDS:
            self.seconds(kind)

    def seconds(self, kind: str) -> float:
        """Time one probe of the given kind."""
        t0 = time.perf_counter()
        if kind == "cpu":
            acc = 0
            table = {}
            for i in range(_LOOP):
                acc = (acc * 31 + i) & 0xFFFF
                table[i & 1023] = acc
            for _ in range(_EIGH):
                np.linalg.eigh(self._m)
        else:
            for _ in range(_PASSES):
                np.multiply(self._a, 1.000001, out=self._b)
                np.add(self._b, self._a, out=self._b)
        return time.perf_counter() - t0

    def sample(self, kind: str) -> float:
        """Median of a few probes: the current speed for this kind of work."""
        return statistics.median(self.seconds(kind) for _ in range(_PER_SAMPLE))


def forked_import_seconds(modules, path=None) -> float:
    """Seconds a forked copy of this process takes to import modules, with
    path put first on its sys.path. The copy starts with every module this
    process has loaded, so only the modules new to it are timed."""
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            if path is not None:
                sys.path.insert(0, str(path))
            t0 = time.perf_counter()
            for name in modules:
                importlib.import_module(name)
            os.write(write, repr(time.perf_counter() - t0).encode())
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read, "rb") as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not data:
        raise RuntimeError(f"forked import of {', '.join(modules)} failed")
    return float(data)


def scale(kind: str, before: float, after: float) -> float:
    """Factor from the speed measured around some work to the reference."""
    return REFERENCE_S[kind] / (0.5 * (before + after))
