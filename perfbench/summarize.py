"""Summarize run records across seeds.

    python3 perfbench/summarize.py [perfbench/out]

Reads the untraced run records (``record-<workload>-seed<n>.json``) and
prints, per workload and end-to-end or named metric, the median over seeds,
the quartiles and their distance as a share of the median, and for
``session`` the outcome counts and failing trials summed over the runs.
``--json`` prints the same as one JSON object, the form ``baseline.json``
keeps; its ``session.trials`` (outcome and BP retries per trial seed) is
what ``baseline.json`` keeps as ``session_trials``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "q1": med, "q3": med, "iqr_frac": 0.0, "runs": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "iqr_frac": (q3 - q1) / med if med else None, "runs": len(values)}


def _add_counts(total: dict, counts: dict) -> None:
    for key, value in counts.items():
        if isinstance(value, dict):
            _add_counts(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value


def collect(out_dir: Path) -> dict:
    """Per workload: seeds, metric spreads, and on session the outcome
    counts, BP histograms and failing trials summed over the runs."""
    by_workload: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    seeds: dict[str, list[int]] = defaultdict(list)
    sessions: dict = {"outcomes": {}, "bp_iteration_histogram": {}, "failed_seeds": [], "trials": {}}
    for path in sorted(out_dir.glob("record-*-seed*.json")):
        if path.stem.endswith("-trace"):
            continue
        rec = json.loads(path.read_text())
        w = rec["workload"]
        seeds[w].append(rec["seed"])
        for name, m in rec["metrics"].items():
            by_workload[w][name].append(m["value"])
        for name, v in rec["as_measured"].items():
            by_workload[w][f"as_measured.{name}"].append(v)
        for name, m in rec["workload_metrics"].items():
            by_workload[w][name].append(m["median"] if isinstance(m, dict) else m)
        if w == "session":
            wr = rec["workload_record"]
            _add_counts(sessions["outcomes"], wr["outcomes"])
            _add_counts(sessions["bp_iteration_histogram"], wr["bp_iteration_histogram"])
            sessions["failed_seeds"] += [dict(f, seed=rec["seed"]) for f in wr["failed_seeds"]]
            for t in wr["sessions"]:
                if not t["traced"]:
                    retries = sum(r["retry"] is not None for r in t["bp_rounds"])
                    sessions["trials"][str(t["trial_seed"])] = {
                        "trial": t["trial"],
                        "outcome": t["outcome"],
                        "matched": t["matched"],
                        "bp_retries": retries,
                    }
    summary = {
        w: {"seeds": sorted(seeds[w]), "metrics": {k: spread(v) for k, v in sorted(ms.items()) if None not in v}}
        for w, ms in sorted(by_workload.items())
    }
    if "session" in summary:
        sessions["failed_seeds"].sort(key=lambda f: (f["seed"], f["trial"]))
        summary["session"].update(sessions)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Summarize benchmark run records across seeds.")
    parser.add_argument("out_dir", nargs="?", default=str(Path(__file__).resolve().parent / "out"))
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    summary = collect(Path(args.out_dir))
    if args.json:
        print(json.dumps(summary, indent=1))
        return 0
    for w, data in summary.items():
        print(f"{w} (seeds {data['seeds']})")
        for name, s in data["metrics"].items():
            frac = "-" if s["iqr_frac"] is None else f"{s['iqr_frac']:.3f}"
            print(f"  {name:24s} median {s['median']:.6g}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  iqr/median {frac}")
        if "outcomes" in data:
            print(f"  outcomes {data['outcomes']}")
            print(f"  failed trials {[(f['seed'], f['trial'], f['outcome']) for f in data['failed_seeds']]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
