"""Command-line front end: rate tables, session campaigns, verification.

Three subcommands on one console script:

* ``keyrate`` writes the rate-curve table for a protocol on an inclusive
  error-rate grid.
* ``simulate`` runs seeded end-to-end sessions and writes per-session
  reports plus a campaign summary.
* ``verify`` runs one of the randomized verification suites and fails the
  process when any assertion exceeds its bound. ``SUITES`` maps each suite
  name to its function; the acceptance criteria and unit tests call the
  same functions at their own seeds and sample counts.

One writer, ``_write``, turns every command's result into CSV or JSON. Both
embed the tool version, the command, its arguments as click parsed them
(all options but ``--out`` and ``--seed``, sorted by name) and the seed,
and contain no timestamps, so a rerun with identical arguments produces a
byte-identical file. Exit codes: 0 success, 1 output I/O failure, 2 bad
usage, 3 verification failure. Sizes out of range are bad usage: --trials,
--samples, --n and --m each accept at most 10**6.
"""

from __future__ import annotations

import dataclasses
import itertools
import json
import math
import sys

import click
import numpy as np

from . import __version__
from .channel import bb84_family, sample_pair, six_state_point
from .entropy import type_deviation_bound
from .keyrate import TABLE_CURVES, rate_first_arg, rate_second_arg, render_json_rows, sweep
from .oracle import (
    bell_basis_vector,
    coset_decomposition_check,
    discrete_twirl,
    lemma_suite,
    random_bell_diagonal,
    random_density,
    theorem3_direct,
    worst_case_check,
)
from .protocol import SessionConfig, parameter_estimation, run_full_session, toeplitz_hash

_EXIT_IO = 1
_EXIT_VERIFY = 3
# Cap on --trials and --samples, so that a huge count is a usage error
# rather than an out-of-memory traceback from allocating its arrays.
_MAX_COUNT = 10**6


def _cell(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return value if isinstance(value, str) else str(int(value))


def _write(payload: dict, table: list[dict], notes: dict | None = None):
    """Write the running command's result as --format asks, to --out or stdout.

    args are the options click parsed, minus out and seed. JSON is the
    envelope {version, command, args, seed} followed by payload's keys. CSV
    is four ``#`` header lines, one ``# key: value`` line per note (sorted),
    and table, whose columns are the keys of its first record.
    """
    ctx = click.get_current_context()
    args = {k: v for k, v in sorted(ctx.params.items()) if k not in ("out", "seed")}
    command, seed, out = ctx.command.name, ctx.params["seed"], ctx.params["out"]
    if args["format"] == "json":
        envelope = {"version": __version__, "command": command, "args": args, "seed": seed}
        text = json.dumps({**envelope, **payload}, indent=2) + "\n"
    else:
        columns = list(table[0])
        lines = [
            f"# qkdpost {__version__}",
            f"# command: {command}",
            "# args: " + " ".join(f"{k}={v}" for k, v in args.items()),
            f"# seed: {seed}",
            *(f"# {k}: {_cell(v)}" for k, v in sorted((notes or {}).items())),
            ",".join(columns),
            *(",".join(_cell(rec[c]) for c in columns) for rec in table),
        ]
        text = "\n".join(lines) + "\n"
    if out is None:
        click.echo(text, nl=False)
        return
    try:
        with open(out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        click.echo(f"cannot write {out}: {exc}", err=True)
        sys.exit(_EXIT_IO)


def _canonical_curves(ctx, param, value: str) -> str:
    names = [c.strip() for c in value.split(",") if c.strip()]
    if not names:
        raise click.BadParameter("no curves requested")
    return ",".join(names)


@click.group()
@click.version_option(__version__, prog_name="qkdpost")
def main():
    """Key-rate tables, reconciliation session campaigns, verification."""


@main.command()
@click.option("--protocol", type=click.Choice(["six-state", "bb84"]), required=True)
@click.option("--emin", type=float, default=0.0, show_default=True)
@click.option("--emax", type=float, required=True)
@click.option("--step", type=float, default=1e-3, show_default=True)
@click.option(
    "--curves",
    default=",".join(TABLE_CURVES),
    show_default=True,
    callback=_canonical_curves,
    help="Comma-separated curve names.",
)
@click.option("--format", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Default: stdout.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True)
def keyrate(protocol, emin, emax, step, curves, format, out, seed):
    """Write the key-rate table on the inclusive grid [emin, emax]."""
    try:
        rows = render_json_rows(sweep(emin, emax, step, protocol), curves.split(","))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    _write({"rows": rows}, rows)


_SESSION_COLUMNS = (
    "trial",
    "trial_seed",
    "aborted",
    "estimated_e",
    "n_hat0",
    "bounds_violated",
    "leak_bits",
    "reconciliation_ok",
    "key_match",
    "key_bits",
    "empirical_key_rate",
)


@main.command()
@click.option("--e", type=float, required=True, help="Channel error rate.")
@click.option("--protocol", type=click.Choice(["six-state", "bb84"]), default="six-state", show_default=True)
@click.option("--n", type=int, default=SessionConfig.n, show_default=True, help="Blocks per session.")
@click.option("--m", type=int, default=SessionConfig.m, show_default=True, help="Estimation sample size.")
@click.option("--trials", type=click.IntRange(1, _MAX_COUNT), default=1, show_default=True)
@click.option("--delta", type=float, default=SessionConfig.delta, show_default=True, help="Code-rate margin.")
@click.option(
    "--tolerance", type=float, default=SessionConfig.abort_tolerance, show_default=True, help="Abort tolerance."
)
@click.option(
    "--margin", type=float, default=SessionConfig.finite_size_margin, show_default=True, help="Key-rate deduction."
)
@click.option("--format", type=click.Choice(["csv", "json"]), default="json", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Default: stdout.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=0, show_default=True)
def simulate(e, protocol, n, m, trials, delta, tolerance, margin, format, out, seed):
    """Run seeded end-to-end sessions and summarize the campaign."""
    try:
        if protocol == "six-state":
            channel = six_state_point(e)
        else:
            channel = bb84_family(e, 0.5 * e)
        cfg = SessionConfig(
            channel=channel,
            n=n,
            m=m,
            delta=delta,
            abort_tolerance=tolerance,
            finite_size_margin=margin,
            mapping=protocol,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc))

    trial_seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64).tolist()
    reports = []
    for trial, trial_seed in enumerate(trial_seeds):
        try:
            report = run_full_session(dataclasses.replace(cfg, seed=int(trial_seed)))
        except ValueError as exc:
            # Parameters whose estimated block laws push a code rate out of
            # (0, 1) leave no syndrome shorter than the data.
            raise click.UsageError(f"trial {trial} (seed {trial_seed}): {exc}")
        record = {"trial": trial, "trial_seed": int(trial_seed)}
        record.update(report.to_dict())
        reports.append(record)

    count = float(trials)
    summary = {
        "trials": trials,
        "aborted": sum(r["aborted"] for r in reports),
        "success_fraction": sum(r["reconciliation_ok"] for r in reports) / count,
        "key_match_fraction": sum(r["key_match"] for r in reports) / count,
        "mean_empirical_key_rate": sum(r["empirical_key_rate"] for r in reports) / count,
        "mean_leak_per_bit": sum(r["leak_bits"] for r in reports) / (count * 2 * n),
    }
    table = [{c: r[c] for c in _SESSION_COLUMNS} for r in reports]
    _write({"summary": summary, "reports": reports}, table, notes=summary)


def _suite_theorem3(samples: int, rng: np.random.Generator) -> list[dict]:
    dev_first = 0.0
    dev_second = 0.0
    for _ in range(samples):
        p = random_bell_diagonal(rng)
        direct_first, direct_second = theorem3_direct(p)
        dev_first = max(dev_first, abs(rate_first_arg(p) - direct_first))
        dev_second = max(dev_second, abs(rate_second_arg(p) - direct_second))
    return [
        {"name": "first_argument_vs_oracle", "deviation": dev_first, "bound": 1e-9},
        {"name": "second_argument_vs_oracle", "deviation": dev_second, "bound": 1e-9},
    ]


def _suite_lemmas(samples: int, rng: np.random.Generator) -> list[dict]:
    worst = lemma_suite(samples, rng)
    return [{"name": name, "deviation": v, "bound": 1e-9} for name, v in sorted(worst.items())]


def _suite_twirl(samples: int, rng: np.random.Generator) -> list[dict]:
    # Columns are the Bell vectors: the twirl of sigma, written in this
    # basis, is the diagonal matrix of sigma's Bell fidelities.
    bell = np.stack([bell_basis_vector(x, z) for x, z in itertools.product((0, 1), repeat=2)], axis=1)
    first_excess = -math.inf
    second_excess = -math.inf
    law_dev = 0.0
    bell_dev = 0.0
    for _ in range(samples):
        sigma = random_density(4, rng)
        rec = worst_case_check(sigma)
        first_excess = max(first_excess, rec.first_twirled - rec.first_original)
        second_excess = max(second_excess, rec.second_twirled - rec.second_original)
        law_dev = max(
            law_dev,
            abs(rec.w1_original(0) - rec.w1_twirled(0)),
            abs(rec.w2_original(0) - rec.w2_twirled(0)),
        )
        in_bell = bell.conj().T @ discrete_twirl(sigma) @ bell
        fidelities = np.diag(bell.conj().T @ sigma @ bell)
        bell_dev = max(bell_dev, float(np.abs(in_bell - np.diag(fidelities)).max()))
    return [
        {"name": "first_bracket_twirl_excess", "deviation": first_excess, "bound": 1e-9},
        {"name": "second_bracket_twirl_excess", "deviation": second_excess, "bound": 1e-9},
        {"name": "block_law_invariance", "deviation": law_dev, "bound": 1e-12},
        {"name": "twirl_is_bell_diagonal", "deviation": bell_dev, "bound": 1e-12},
    ]


def _suite_coset(samples: int, rng: np.random.Generator) -> list[dict]:
    code = [(0, 0), (1, 1)]
    worst = 0.0
    for _ in range(samples):
        p = random_bell_diagonal(rng)
        for shift in ((0, 0), (0, 1), (1, 0), (1, 1)):
            worst = max(worst, coset_decomposition_check(p, code, shift))
    return [{"name": "coset_mixture_identity", "deviation": worst, "bound": 1e-10}]


def _suite_types(samples: int, rng: np.random.Generator) -> list[dict]:
    # The session's default m and tolerance. At m = 10 000 the type bound is
    # 1, which no abort fraction can exceed; here it is 2.25e-3.
    cfg = SessionConfig(channel=six_state_point(0.05))
    aborts = 0
    for _ in range(samples):
        x, y = sample_pair(cfg.channel, cfg.m, rng)
        aborts += not cfg.accepts(parameter_estimation(x, y))
    # The tolerance on the scalar rate is an L1 radius of twice it on the binary type.
    bound = type_deviation_bound(cfg.m, 2 * cfg.abort_tolerance, 2)
    return [{"name": "abort_fraction_vs_type_bound", "deviation": aborts / samples, "bound": bound}]


def _suite_hash(samples: int, rng: np.random.Generator) -> list[dict]:
    """Two-universality over the full 10-bit domain.

    By linearity a pair (a, b) collides exactly when the hash of a XOR b is
    zero, so sweeping all nonzero differences covers every distinct pair.
    Each difference collides in a binomial(samples, 2^-ell) number of
    samples. The bound is that binomial's exact upper quantile at level
    1e-3 / 1023, so by the union bound over the 1023 differences an honest
    hash fails a run with probability below 1e-3. Below 5 samples that
    quantile is 1, which no collision fraction can exceed, so fewer samples
    are refused.
    """
    # Imported here: scipy.stats takes most of a second to load, and only
    # this suite needs it.
    from scipy.stats import binom

    bits, ell = 10, 4
    level = 1e-3 / (2**bits - 1)
    bound = float(binom.isf(level, samples, 2.0**-ell)) / samples
    if bound >= 1.0:
        # The quantile drops below samples once P(all collide) reaches the level.
        fewest = math.ceil(math.log(level) / math.log(2.0**-ell))
        raise ValueError(
            f"--samples {samples} puts the collision bound at {bound:.3f}, which no "
            f"collision fraction can exceed; use --samples {fewest} or more"
        )
    seeds = rng.integers(0, 2, size=(samples, bits + ell - 1), dtype=np.uint8)
    # toeplitz[s, i, j] = seeds[s, i - j + bits - 1]
    i_idx = np.arange(ell)[:, None]
    j_idx = np.arange(bits)[None, :]
    toeplitz = seeds[:, i_idx - j_idx + bits - 1]
    worst = 0.0
    convention_dev = 0.0
    for diff in range(1, 2**bits):
        d = np.array([(diff >> (bits - 1 - k)) & 1 for k in range(bits)], dtype=np.uint8)
        outputs = (toeplitz @ d) & 1
        collisions = float(np.mean(~outputs.any(axis=1)))
        worst = max(worst, collisions)
        if diff <= 8:
            expected = toeplitz_hash(seeds[diff % samples], d, ell)
            convention_dev = max(convention_dev, float(np.abs(outputs[diff % samples] - expected).max()))
    return [
        {"name": "max_collision_fraction", "deviation": worst, "bound": bound},
        {"name": "matrix_convention_vs_hash", "deviation": convention_dev, "bound": 0.0},
    ]


# Each suite takes (samples, rng) and returns its checks, one dict of name,
# deviation and bound per check.
SUITES = {
    "theorem3": _suite_theorem3,
    "lemmas": _suite_lemmas,
    "twirl": _suite_twirl,
    "coset": _suite_coset,
    "types": _suite_types,
    "hash": _suite_hash,
}


@main.command()
@click.option("--suite", type=click.Choice(sorted(SUITES)), required=True)
@click.option("--samples", type=click.IntRange(1, _MAX_COUNT), default=100, show_default=True)
@click.option("--format", type=click.Choice(["csv", "json"]), default="csv", show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None, help="Default: stdout.")
@click.option("--seed", type=click.IntRange(0, 2**64 - 1), default=1, show_default=True)
def verify(suite, samples, format, out, seed):
    """Run a verification suite; nonzero exit when any bound is exceeded."""
    try:
        checks = SUITES[suite](samples, np.random.default_rng(seed))
    except ValueError as exc:
        raise click.UsageError(str(exc))
    for check in checks:
        check["pass"] = bool(check["deviation"] <= check["bound"])
    passed = all(c["pass"] for c in checks)
    table = [
        {"name": c["name"], "deviation": c["deviation"], "bound": c["bound"], "status": "PASS" if c["pass"] else "FAIL"}
        for c in checks
    ]
    _write({"checks": checks, "passed": passed}, table)
    if not passed:
        sys.exit(_EXIT_VERIFY)
