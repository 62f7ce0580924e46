"""The four benchmark workloads: session, keyrate, oracle and pa-large.

Each workload builds the inputs of operation i from the workload seed alone,
runs one operation through the public qkdpost API (the only timed part),
and checks the outputs. A check that fails raises CheckFailed; the caller
counts it, with any exception the program raises, in ``failed``.

Calls go through module attributes (``protocol.run_full_session``, not a
name bound at import) so that the tracer's wrappers are seen.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import time
from collections import Counter

import numpy as np

import qkdpost.codes as codes
import qkdpost.keyrate as keyrate
import qkdpost.oracle as oracle
import qkdpost.protocol as protocol
from qkdpost.channel import BellDiagonal, six_state_point

import tracing


class CheckFailed(Exception):
    """An output did not pass the workload's correctness check."""


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *key]))


def _sha256(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


class DigestStore:
    """Digests of outputs that must repeat exactly, across the runs of one
    source tree. Keyed by the digest of ``src/`` so that a changed program
    starts a fresh record instead of failing against the old one."""

    def __init__(self, path, source_digest: str):
        self.path = path
        self.source_digest = source_digest
        try:
            with open(path) as fh:
                stored = json.load(fh)
        except (OSError, ValueError):
            stored = {}
        self.known: dict[str, str] = stored.get(source_digest, {})
        self.fresh: dict[str, str] = {}
        self.compared = 0

    def expect(self, key: str, digest: str) -> None:
        """Fail when key was recorded before with another digest."""
        seen = self.known.get(key, self.fresh.get(key))
        if seen is None:
            self.fresh[key] = digest
            return
        self.compared += 1
        if seen != digest:
            raise CheckFailed(f"{key}: digest {digest[:12]} differs from earlier run {seen[:12]}")

    def save(self) -> None:
        if not self.fresh:
            return
        try:
            with open(self.path) as fh:
                stored = json.load(fh)
        except (OSError, ValueError):
            stored = {}
        stored.setdefault(self.source_digest, {}).update(self.fresh)
        tmp = f"{self.path}.tmp"
        with open(tmp, "w") as fh:
            json.dump(stored, fh, indent=1, sort_keys=True)
        os.replace(tmp, self.path)


class Workload:
    """One operation kind. Subclasses set name and the part names of an op.

    fixed_ops is None for workloads that run in a closed loop until the
    measuring time is up, or the number of operations a run makes.
    """

    name = ""
    parts: tuple[str, ...] = ()
    fixed_ops: int | None = None
    # the probe.KINDS entry whose speed swings match, or None when no kind
    # tracks the operation and its times stay as measured
    probe_kind: str | None = "cpu"

    def __init__(self, seed: int, seconds: int, store: DigestStore):
        self.seed = seed
        self.store = store
        self.traced = False  # set by the runner before each operation
        self.attempt = 0  # likewise

    def inputs(self, i: int):
        """Untimed: the inputs of operation i, from the workload seed."""
        return None

    def execute(self, inputs) -> tuple[object, dict[str, float]]:
        """Timed: run one operation, return its outputs and part times."""
        raise NotImplementedError

    def check(self, i: int, inputs, outputs) -> None:
        """Untimed: raise CheckFailed when an output is wrong."""

    def op_seconds(self, times: dict[int, float]) -> float:
        """The op_s end-to-end value from the seconds of each timed
        operation, keyed by attempt number."""
        return float(np.median(list(times.values())))

    def record(self) -> dict:
        """Workload-specific results for the run record."""
        return {}

    def close(self) -> None:
        """Undo anything the workload installed."""


# --- session ---------------------------------------------------------------

SESSION_ERROR = 0.05
# A run makes one session per this many seconds of --seconds, rounded up.
# The count is fixed, not timed, so that a seed always runs the same
# sessions and the outcome counts repeat exactly; at the default of 20 s a
# run makes three sessions, 5-8 s each when they reconcile and 15-55 s when
# round-one BP fails. Three make op_s a true median; more would not end
# within 180 s when most of them fail.
SECONDS_PER_SESSION = 7.0
# The sessions come from one pool: the trial seeds of
# ``qkdpost simulate --seed 7 --trials 40`` (the README's example seed), none
# filtered out. Seed s runs the pool entries s*k, s*k + 1, ... (mod 40) for
# k sessions a run, so that every session a run can make has a committed
# baseline outcome in baseline.json.
POOL_SEED = 7
POOL_TRIALS = 40
BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")


def session_pool() -> list[int]:
    """The trial seeds as ``qkdpost simulate`` derives them."""
    states = np.random.SeedSequence(POOL_SEED).generate_state(POOL_TRIALS, dtype=np.uint64)
    return [int(s) for s in states]


def _baseline_trials() -> dict[int, dict]:
    """Per trial seed, the outcome and BP retry count at the baseline."""
    try:
        with open(BASELINE) as fh:
            trials = json.load(fh).get("session_trials", {})
    except (OSError, ValueError):
        return {}
    return {int(k): v for k, v in trials.items()}


def _bp_rounds(calls: list[tuple[int, bool]]) -> list[dict]:
    """Split the BP calls of one session into rounds.

    A first pass that does not converge is followed by exactly one damped
    retry (the DecoderPolicy default), so a call is a retry when the round
    before it holds only a failed first pass.
    """
    rounds: list[dict] = []
    for iters, converged in calls:
        last = rounds[-1] if rounds else None
        if last is not None and last["retry"] is None and not last["first"][1]:
            last["retry"] = (iters, converged)
        else:
            rounds.append({"first": (iters, converged), "retry": None})
    return rounds


def _round_converged(rnd: dict) -> bool:
    return (rnd["retry"] or rnd["first"])[1]


def _retries(rounds: list[dict]) -> int:
    return sum(r["retry"] is not None for r in rounds)


class Session(Workload):
    """Successive run_full_session calls at the SessionConfig defaults and
    six_state_point(0.05); trial seeds from the pool (see POOL_SEED).

    Besides its own checks, a session fails when its outcome is worse than
    the baseline's for the same trial seed: a key the baseline matched is
    not matched, or BP needs more retries. A rise in reconciliation
    failures therefore makes the run incorrect instead of only dropping out
    of op_s."""

    name = "session"
    parts = ("session_s",)
    probe_kind = None  # see probe.py: scaling widened the spread of sessions

    def __init__(self, seed, seconds, store):
        super().__init__(seed, seconds, store)
        self.fixed_ops = max(1, math.ceil(seconds / SECONDS_PER_SESSION))
        pool = session_pool()
        self.trials = [(seed * self.fixed_ops + j) % POOL_TRIALS for j in range(self.fixed_ops)]
        self.trial_seeds = [pool[t] for t in self.trials]
        self.baseline = _baseline_trials()
        self.baseline_compared = 0
        self.channel = six_state_point(SESSION_ERROR)
        self.sessions: list[dict] = []
        self._bp_calls: list[tuple[int, bool]] = []
        self._restore = tracing.patch(codes, "bp_decode", self._count_bp)

    def _count_bp(self, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            self._bp_calls.append((int(result.iterations), bool(result.converged)))
            return result

        return counted

    def close(self) -> None:
        self._restore()

    def inputs(self, i):
        return protocol.SessionConfig(channel=self.channel, seed=self.trial_seeds[i])

    def execute(self, cfg):
        self._bp_calls = []
        t0 = time.perf_counter()
        report = protocol.run_full_session(cfg)
        self._wall = time.perf_counter() - t0
        return report, {"session_s": self._wall}

    def check(self, i, cfg, report):
        rounds = _bp_rounds(self._bp_calls)
        flags = (report.decode1_converged, report.decode2_converged)
        seen = tuple(_round_converged(r) for r in rounds) + (None,) * (2 - len(rounds))
        sent = {m.label: int(m.payload.size) for m in report.transcript.messages}
        leak = sent.get("t1", 0) + sent.get("t2", 0)
        matched = not report.aborted and report.reconciliation_ok and report.key_match
        if report.aborted:
            outcome = "aborted"
        elif report.decode1_converged is False:
            outcome = "decode_failed_round1"
        elif report.bounds_violated:
            outcome = "window_violated"
        elif report.decode2_converged is False:
            outcome = "decode_failed_round2"
        elif not report.key_match:
            outcome = "key_mismatch_undetected"
        elif not report.reconciliation_ok:
            outcome = "not_reconciled"
        else:
            outcome = "reconciled"
        digest = _sha256(
            report.key_alice.tobytes(),
            report.key_bob.tobytes(),
            json.dumps(report.transcript.to_dict(), sort_keys=True).encode(),
        )
        self.sessions.append(
            {
                "trial": self.trials[i],
                "trial_seed": cfg.seed,
                "traced": self.traced,
                "attempt": self.attempt,
                "wall_s": self._wall,
                "outcome": outcome,
                "matched": matched,
                "aborted": report.aborted,
                "window_violated": report.bounds_violated,
                "decode1_converged": report.decode1_converged,
                "decode2_converged": report.decode2_converged,
                "key_match": report.key_match,
                "key_bits": int(report.key_alice.size),
                "leak_bits": report.leak_bits,
                "n_hat0": report.n_hat0,
                "bp_rounds": rounds,
                "digest": digest,
            }
        )
        if report.leak_bits != leak:
            raise CheckFailed(f"trial {i}: leak_bits {report.leak_bits} != |t1| + |t2| = {leak}")
        if seen != flags:
            raise CheckFailed(f"trial {i}: BP calls {rounds} disagree with decode flags {flags}")
        self.store.expect(f"session/{cfg.seed}", digest)
        base = self.baseline.get(cfg.seed)
        if base is not None:
            self.baseline_compared += 1
            if base["matched"] and not matched:
                raise CheckFailed(f"trial {self.trials[i]}: {outcome}, baseline {base['outcome']}")
            if _retries(rounds) > base["bp_retries"]:
                raise CheckFailed(f"trial {self.trials[i]}: {_retries(rounds)} BP retries, baseline {base['bp_retries']}")

    def op_seconds(self, times):
        # Median over the sessions that produced a matched key: a session
        # whose round-one BP fails runs 3-8x longer, and with three sessions
        # a run the median over all of them would be bimodal across seeds.
        # The failures stay visible in reconciled_fraction and key_bits_per_s,
        # and one the baseline did not have fails the run (check).
        matched = {s["attempt"] for s in self.sessions if s["matched"]}
        kept = [t for a, t in times.items() if a in matched]
        return float(np.median(kept or list(times.values())))

    def record(self):
        """Outcome counts, BP histograms and key yield of the untraced
        sessions (in a traced run, only the untraced reference session)."""
        done = [s for s in self.sessions if not s["traced"]]
        count = len(done)
        n = protocol.SessionConfig(channel=self.channel).n
        matched_bits = sum(s["key_bits"] for s in done if s["matched"])
        wall = sum(s["wall_s"] for s in done)
        hist = {}
        for k, rnd in enumerate(("round1", "round2")):
            ran = [s["bp_rounds"][k] for s in done if len(s["bp_rounds"]) > k]
            first = Counter(r["first"][0] for r in ran)
            retry = Counter(r["retry"][0] for r in ran if r["retry"])
            hist[rnd] = {
                "first_pass_iters": {str(it): c for it, c in sorted(first.items())},
                "retry_iters": {str(it): c for it, c in sorted(retry.items())},
            }
        reconciled = sum(s["matched"] for s in done)
        return {
            "metrics": {
                "key_bits_per_s": matched_bits / wall if wall else 0.0,
                "reconciled_fraction": reconciled / count if count else 0.0,
                "key_rate_achieved": matched_bits / (2 * n * count) if count else 0.0,
                "matched_session_s": self.op_seconds({s["attempt"]: s["wall_s"] for s in done}) if count else None,
            },
            "outcomes": {
                "attempted": count,
                "reconciled": reconciled,
                "aborted": sum(s["aborted"] for s in done),
                "window_violated": sum(s["window_violated"] for s in done),
                "decode_failed_detected_round1": sum(s["decode1_converged"] is False for s in done),
                "decode_failed_detected_round2": sum(s["decode2_converged"] is False for s in done),
                "key_mismatch_undetected": sum(s["outcome"] == "key_mismatch_undetected" for s in done),
            },
            "baseline_compared": self.baseline_compared,
            "failed_seeds": [
                {"trial": s["trial"], "trial_seed": s["trial_seed"], "outcome": s["outcome"]}
                for s in done
                if not s["matched"]
            ],
            "bp_iteration_histogram": hist,
            "sessions": self.sessions,
        }


# --- keyrate ---------------------------------------------------------------

# The CLI's default grid step and the ranges of the README's tables.
KEYRATE_STEP = 1e-3
BB84_EMAX = 0.25
SIXSTATE_EMAX = 0.35


class Keyrate(Workload):
    """BB84 and six-state key-rate tables plus the one-way (criterion 02)
    and proposed-curve threshold searches. The inputs are the CLI grid; the
    workload seed does not change them."""

    name = "keyrate"
    parts = ("table_s", "threshold_s")
    thresholds: dict | None = None

    def execute(self, _):
        t0 = time.perf_counter()
        bb84 = keyrate.sweep(0.0, BB84_EMAX, KEYRATE_STEP, "bb84")
        six = keyrate.sweep(0.0, SIXSTATE_EMAX, KEYRATE_STEP, "six-state")
        t1 = time.perf_counter()
        thresholds = {
            "six_oneway": keyrate.tolerable_rate(lambda e: keyrate.rate_oneway(six_state_point(e))),
            "bb84_oneway": keyrate.tolerable_rate(lambda e: keyrate.bb84_rate(e, "oneway")[0]),
            "six_proposed": keyrate.tolerable_rate(lambda e: keyrate.rate_proposed(six_state_point(e))),
            "bb84_proposed": keyrate.tolerable_rate(lambda e: keyrate.bb84_rate(e, "proposed")[0]),
        }
        t2 = time.perf_counter()
        return (bb84, six, thresholds), {"table_s": t1 - t0, "threshold_s": t2 - t1}

    def check(self, i, _, outputs):
        bb84, six, thr = outputs
        if len(bb84) != 251 or len(six) != 351:
            raise CheckFailed(f"table lengths {len(bb84)}/{len(six)}, expected 251/351")
        for name, target in (("six_oneway", 0.126), ("bb84_oneway", 0.110)):
            if not thr[name].found or abs(thr[name].e_star - target) > 0.002:
                raise CheckFailed(f"{name} threshold {thr[name].e_star} not within 0.002 of {target}")
        for proto in ("six", "bb84"):
            if not thr[f"{proto}_proposed"].found or thr[f"{proto}_proposed"].e_star <= thr[f"{proto}_oneway"].e_star:
                raise CheckFailed(f"{proto} proposed threshold does not exceed the one-way one")
        self.store.expect("keyrate/table", _sha256(keyrate.render_csv(bb84).encode(), keyrate.render_csv(six).encode()))
        self.store.expect("keyrate/thresholds", _sha256(repr(sorted((k, v.e_star) for k, v in thr.items())).encode()))
        self.thresholds = {k: v.e_star for k, v in thr.items()}

    def record(self):
        return {"thresholds": self.thresholds}


# --- oracle ----------------------------------------------------------------

THEOREM3_DRAWS = 100
TWIRL_DRAWS = 100
LEMMA_SAMPLES = 200
ORACLE_BOUND = 1e-9
LAW_BOUND = 1e-12


def _bell_diagonal(rng: np.random.Generator) -> BellDiagonal:
    vals = [float(v) for v in rng.dirichlet(np.ones(4))]
    vals[0] = 1.0 - (vals[1] + vals[2] + vals[3])
    return BellDiagonal(*vals)


def _density4(rng: np.random.Generator) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class Oracle(Workload):
    """One batch each of the verify suites theorem3, twirl and lemmas."""

    name = "oracle"
    parts = ("theorem3_check_s", "twirl_check_s", "lemma_check_s")
    worst = 0.0

    def inputs(self, i):
        rng = _rng(self.seed, i)
        points = [_bell_diagonal(rng) for _ in range(THEOREM3_DRAWS)]
        states = [_density4(rng) for _ in range(TWIRL_DRAWS)]
        return points, states, int(rng.integers(2**63))

    def execute(self, inputs):
        points, states, lemma_seed = inputs
        t0 = time.perf_counter()
        dev = 0.0
        for p in points:
            first, second = oracle.theorem3_direct(p)
            dev = max(dev, abs(keyrate.rate_first_arg(p) - first), abs(keyrate.rate_second_arg(p) - second))
        t1 = time.perf_counter()
        records = [oracle.worst_case_check(s) for s in states]
        t2 = time.perf_counter()
        worst = oracle.lemma_suite(LEMMA_SAMPLES, np.random.default_rng(lemma_seed))
        t3 = time.perf_counter()
        parts = {"theorem3_check_s": t1 - t0, "twirl_check_s": t2 - t1, "lemma_check_s": t3 - t2}
        return (dev, records, worst), parts

    def check(self, i, _, outputs):
        dev, records, worst = outputs
        excess = max(max(r.first_twirled - r.first_original, r.second_twirled - r.second_original) for r in records)
        law = max(
            max(abs(r.w1_original(0) - r.w1_twirled(0)), abs(r.w2_original(0) - r.w2_twirled(0))) for r in records
        )
        if dev > ORACLE_BOUND:
            raise CheckFailed(f"batch {i}: closed form vs oracle deviation {dev:.3e}")
        if excess > ORACLE_BOUND or law > LAW_BOUND:
            raise CheckFailed(f"batch {i}: twirl excess {excess:.3e}, law deviation {law:.3e}")
        peak = max(worst.values())
        if peak > ORACLE_BOUND:
            raise CheckFailed(f"batch {i}: lemma violation {peak:.3e}")
        self.worst = max(self.worst, dev, excess, peak)

    def record(self):
        return {"worst_deviation": self.worst, "bound": ORACLE_BOUND}


# --- pa-large --------------------------------------------------------------

PA_BITS = 1 << 22
# Key fraction at the default point: rate_proposed(six_state_point(0.05)).
PA_FRACTION = 0.54
PA_CHECK_ROWS = 32


def toeplitz_row(seed: np.ndarray, value: np.ndarray, row: int) -> int:
    """Exact GF(2) output bit: sum_j seed[row - j + n - 1] value[j] mod 2."""
    window = seed[row : row + value.size][::-1]
    return int(np.count_nonzero(window & value)) & 1


class PaLarge(Workload):
    """toeplitz_hash on random 2^22-bit inputs, output 0.54 of the input."""

    name = "pa-large"
    parts = ("pa_s",)
    probe_kind = "memory"

    def inputs(self, i):
        rng = _rng(self.seed, i)
        ell = int(PA_FRACTION * PA_BITS)
        value = rng.integers(0, 2, size=PA_BITS, dtype=np.uint8)
        seed = rng.integers(0, 2, size=PA_BITS + ell - 1, dtype=np.uint8)
        rows = np.concatenate(([0, ell - 1], rng.choice(ell, PA_CHECK_ROWS - 2, replace=False)))
        return seed, value, ell, rows

    def execute(self, inputs):
        seed, value, ell, _ = inputs
        t0 = time.perf_counter()
        out = protocol.toeplitz_hash(seed, value, ell)
        return out, {"pa_s": time.perf_counter() - t0}

    def check(self, i, inputs, out):
        seed, value, ell, rows = inputs
        if out.shape != (ell,) or out.dtype != np.uint8:
            raise CheckFailed(f"hash {i}: output shape {out.shape} {out.dtype}, expected ({ell},) uint8")
        for row in rows:
            if int(out[row]) != toeplitz_row(seed, value, int(row)):
                raise CheckFailed(f"hash {i}: row {row} differs from the GF(2) product")


WORKLOADS = {w.name: w for w in (Session, Keyrate, Oracle, PaLarge)}
