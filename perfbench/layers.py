"""Which qkdpost functions the traced run wraps, and the per-layer metrics
computed from their spans.

Layers are the package's modules: codes, protocol, channel, blocks, keyrate
and oracle. Every time and call count is per traced operation (the mean
over the run's traced operations); the session outcome counts are totals
over the traced sessions.
"""

from __future__ import annotations

import types

import numpy as np

import qkdpost.keyrate as keyrate
import qkdpost.oracle as oracle
import qkdpost.protocol as protocol
from qkdpost.codes import ParityCheck


def _code_shape(args, code):
    return {"m": code.m, "n": code.n, "edges": int(code.row_degrees().sum())}


def _decode_result(args, result):
    return {"iters": int(result.iterations), "converged": bool(result.converged)}


# Functions that always get a span. Other public keyrate and oracle
# functions get one only when called from outside their layer; calls from
# inside it (the closed forms inside a BB84 minimization, the entropies
# inside an oracle check, tens of thousands per operation) are only counted.
ENTRY_POINTS = {
    "keyrate": {"sweep", "sixstate_curve", "bb84_curve", "bb84_rate", "tolerable_rate"},
    "oracle": {"theorem3_direct", "worst_case_check", "lemma_suite"},
}


def install(tracer) -> None:
    """Wrap the layer boundaries at the names callers bind."""
    tracer.install(protocol, "run_full_session", "protocol.run_full_session")
    tracer.install(protocol, "run_ir", "protocol.run_ir")
    tracer.install(protocol, "parameter_estimation", "protocol.parameter_estimation")
    tracer.install(protocol, "toeplitz_hash", "protocol.toeplitz_hash", lambda a, r: {"bits": int(np.size(a[1]))})
    tracer.install(protocol, "code_for_rate", "codes.code_for_rate", _code_shape)
    tracer.install(protocol, "bp_decode", "codes.bp_decode", _decode_result)
    tracer.install(ParityCheck, "syndrome", "codes.syndrome")
    tracer.install(protocol, "sample_pair", "channel.sample_pair")
    for name in ("parity_seq", "second_bit_seq", "partition"):
        tracer.install(protocol, name, f"blocks.{name}")
    for module, layer in ((keyrate, "keyrate"), (oracle, "oracle")):
        for name in module.__all__:
            if isinstance(getattr(module, name), types.FunctionType):
                observe = (lambda a, rows: {"rows": len(rows)}) if name == "sweep" else None
                inner = name not in ENTRY_POINTS[layer]
                tracer.install(module, name, f"{layer}.{name}", observe, inner)


# name -> (unit, better); the order is the order of BENCHMARK.json
METRICS = {
    "codes.construct_s": ("s", "lower"),
    "codes.construct_calls": ("count", "lower"),
    "codes.edges": ("count", "lower"),
    "codes.construct_ns_per_edge": ("ns/edge", "lower"),
    "codes.bp_s": ("s", "lower"),
    "codes.bp_calls": ("count", "lower"),
    "codes.bp_iters": ("count", "lower"),
    "codes.bp_ms_per_iter": ("ms/iter", "lower"),
    "codes.bp_retry_fraction": ("ratio", "lower"),
    "codes.bp_converged_fraction": ("ratio", "higher"),
    "codes.syndrome_s": ("s", "lower"),
    "codes.syndrome_calls": ("count", "lower"),
    "protocol.session_self_s": ("s", "lower"),
    "protocol.run_ir_s": ("s", "lower"),
    "protocol.run_ir_self_s": ("s", "lower"),
    "protocol.estimation_s": ("s", "lower"),
    "protocol.leak_bits": ("bit", "lower"),
    "protocol.n_hat0": ("count", "higher"),
    "protocol.aborted": ("count", "lower"),
    "protocol.window_violated": ("count", "lower"),
    "protocol.decode_failed_detected": ("count", "lower"),
    "protocol.key_mismatch_undetected": ("count", "lower"),
    "protocol.hash_s": ("s", "lower"),
    "protocol.hash_mbit_per_s": ("Mbit/s", "higher"),
    "channel.sample_s": ("s", "lower"),
    "blocks.s": ("s", "lower"),
    "keyrate.sweep_s": ("s", "lower"),
    "keyrate.rows_per_s": ("row/s", "higher"),
    "keyrate.bb84_rate_s": ("s", "lower"),
    "keyrate.bb84_rate_calls": ("count", "lower"),
    "keyrate.tolerable_rate_s": ("s", "lower"),
    "oracle.theorem3_direct_s": ("s", "lower"),
    "oracle.worst_case_check_s": ("s", "lower"),
    "oracle.lemma_suite_s": ("s", "lower"),
    "oracle.calls": ("count", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def metrics(tracer, sessions: list[dict], overhead_frac: float) -> tuple[dict[str, float], dict]:
    """Per-layer values from the spans inside traced operations.

    sessions are the traced session records (empty on other workloads).
    Returns the metric values and the per-round BP breakdown.
    """
    inside = []
    for name, par in zip(tracer.names, tracer.parent):
        inside.append(name == "op" or (par >= 0 and inside[par]))
    durations = tracer.durations()
    self_times = tracer.self_times()
    incl: dict[str, float] = {}
    own: dict[str, float] = {}
    calls: dict[str, int] = {}
    attrs: dict[str, list[dict]] = {}
    for idx, name in enumerate(tracer.names):
        if not inside[idx]:
            continue
        incl[name] = incl.get(name, 0.0) + durations[idx]
        own[name] = own.get(name, 0.0) + self_times[idx]
        calls[name] = calls.get(name, 0) + 1
        if idx in tracer.attrs:
            attrs.setdefault(name, []).append(tracer.attrs[idx])
    ops = calls.get("op", 0)

    def per_op(value: float) -> float:
        return _ratio(value, ops)

    def layer(prefix: str, table: dict) -> float:
        return sum(v for k, v in table.items() if k.startswith(prefix))

    edges = sum(a["edges"] for a in attrs.get("codes.code_for_rate", []))
    iters = sum(a["iters"] for a in attrs.get("codes.bp_decode", []))
    rows = sum(a["rows"] for a in attrs.get("keyrate.sweep", []))
    hashed = sum(a["bits"] for a in attrs.get("protocol.toeplitz_hash", []))
    rounds = [r for s in sessions for r in s["bp_rounds"]]
    construct_s = incl.get("codes.code_for_rate", 0.0)
    bp_s = incl.get("codes.bp_decode", 0.0)
    hash_s = incl.get("protocol.toeplitz_hash", 0.0)
    values = {
        "codes.construct_s": per_op(construct_s),
        "codes.construct_calls": per_op(calls.get("codes.code_for_rate", 0)),
        "codes.edges": per_op(edges),
        "codes.construct_ns_per_edge": _ratio(construct_s * 1e9, edges),
        "codes.bp_s": per_op(bp_s),
        "codes.bp_calls": per_op(calls.get("codes.bp_decode", 0)),
        "codes.bp_iters": per_op(iters),
        "codes.bp_ms_per_iter": _ratio(bp_s * 1e3, iters),
        "codes.bp_retry_fraction": _ratio(sum(r["retry"] is not None for r in rounds), len(rounds)),
        "codes.bp_converged_fraction": _ratio(sum((r["retry"] or r["first"])[1] for r in rounds), len(rounds)),
        "codes.syndrome_s": per_op(incl.get("codes.syndrome", 0.0)),
        "codes.syndrome_calls": per_op(calls.get("codes.syndrome", 0)),
        "protocol.session_self_s": per_op(own.get("protocol.run_full_session", 0.0)),
        "protocol.run_ir_s": per_op(incl.get("protocol.run_ir", 0.0)),
        "protocol.run_ir_self_s": per_op(own.get("protocol.run_ir", 0.0)),
        "protocol.estimation_s": per_op(incl.get("protocol.parameter_estimation", 0.0)),
        "protocol.leak_bits": _ratio(sum(s["leak_bits"] for s in sessions), len(sessions)),
        "protocol.n_hat0": _ratio(sum(s["n_hat0"] for s in sessions), len(sessions)),
        "protocol.aborted": sum(s["aborted"] for s in sessions),
        "protocol.window_violated": sum(s["window_violated"] for s in sessions),
        "protocol.decode_failed_detected": sum(
            (s["decode1_converged"] is False) + (s["decode2_converged"] is False) for s in sessions
        ),
        "protocol.key_mismatch_undetected": sum(s["outcome"] == "key_mismatch_undetected" for s in sessions),
        "protocol.hash_s": per_op(hash_s),
        "protocol.hash_mbit_per_s": _ratio(hashed / 1e6, hash_s),
        "channel.sample_s": per_op(incl.get("channel.sample_pair", 0.0)),
        "blocks.s": per_op(layer("blocks.", incl)),
        "keyrate.sweep_s": per_op(incl.get("keyrate.sweep", 0.0)),
        "keyrate.rows_per_s": _ratio(rows, incl.get("keyrate.sweep", 0.0)),
        "keyrate.bb84_rate_s": per_op(incl.get("keyrate.bb84_rate", 0.0)),
        "keyrate.bb84_rate_calls": per_op(calls.get("keyrate.bb84_rate", 0)),
        "keyrate.tolerable_rate_s": per_op(incl.get("keyrate.tolerable_rate", 0.0)),
        "oracle.theorem3_direct_s": per_op(incl.get("oracle.theorem3_direct", 0.0)),
        "oracle.worst_case_check_s": per_op(incl.get("oracle.worst_case_check", 0.0)),
        "oracle.lemma_suite_s": per_op(incl.get("oracle.lemma_suite", 0.0)),
        "oracle.calls": per_op(layer("oracle.", calls) + layer("oracle.", tracer.inner_calls)),
        "trace.overhead_frac": overhead_frac,
    }
    op_s = incl.get("op", 0.0)
    detail = {
        "traced_ops": ops,
        "spans": len(tracer.names),
        "codes_share_of_op": _ratio(construct_s + bp_s, op_s),
        "self_s_per_op": {k: per_op(v) for k, v in sorted(own.items())},
        "calls_per_op": {k: per_op(v) for k, v in sorted(calls.items())},
    }
    return values, detail
