"""The benchmark in perfbench/ wraps and calls qkdpost functions by name.

These checks fail as soon as one of those names is renamed or unbound, which
otherwise shows only in a traced benchmark run. They import the benchmark's
modules and build its workloads, and run one operation of each workload
through the benchmark's own check, so a change to the tables, render_csv,
tolerable_rate, the oracle's records, a session or the Toeplitz hash that the
benchmark would refuse fails here too. They write nothing under perfbench/.
"""

import sys
from pathlib import Path

import pytest

import qkdpost.codes as codes
import qkdpost.keyrate as keyrate
import qkdpost.oracle as oracle
import qkdpost.protocol as protocol

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def perfbench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import tracing
    import workloads

    return layers, tracing, workloads


def _bindings():
    """Every public function of the modules perfbench patches, by identity."""
    out = {}
    for module in (codes, protocol, keyrate, oracle):
        for name in dir(module):
            value = getattr(module, name)
            if callable(value) and not name.startswith("__"):
                out[module.__name__, name] = value
    return out


def test_tracer_installs_and_restores(perfbench):
    layers, tracing, _ = perfbench
    before = _bindings()
    tracer = tracing.Tracer()
    layers.install(tracer)
    try:
        assert protocol.code_for_rate is not before["qkdpost.protocol", "code_for_rate"]
        assert keyrate.bb84_rate is not before["qkdpost.keyrate", "bb84_rate"]
    finally:
        tracer.uninstall()
    assert codes.bp_decode is before["qkdpost.codes", "bp_decode"]
    assert protocol.code_for_rate is before["qkdpost.protocol", "code_for_rate"]
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())


def test_workloads_build_and_close(perfbench, tmp_path):
    _, _, workloads = perfbench
    bp_decode, code_for_rate = codes.bp_decode, protocol.code_for_rate
    store = workloads.DigestStore(tmp_path / "digests.json", "contract")
    for workload in workloads.WORKLOADS.values():
        run = workload(0, 20, store)
        try:
            run.inputs(0)
        finally:
            run.close()
    assert codes.bp_decode is bp_decode
    assert protocol.code_for_rate is code_for_rate


def test_keyrate_operation_passes_its_check(perfbench, tmp_path):
    _, _, workloads = perfbench
    store = workloads.DigestStore(tmp_path / "digests.json", "contract")
    run = workloads.Keyrate(0, 20, store)
    try:
        outputs, _ = run.execute(None)
        run.check(0, None, outputs)
    finally:
        run.close()
    # The digests the check records: render_csv of both tables and the four
    # thresholds, which must not move.
    assert store.fresh == {
        "keyrate/table": "59f7d7203d3cd145ea620bc60eb87b6f606962b4e10a76fb380243a1ae2a9dfb",
        "keyrate/thresholds": "edf2f764b5b4a714a5afbdf96f679f41542efa8d37d9a9fdc9c74a350f0c6e23",
    }


# Session index i of seed 0 is pool entry i. Entry 1 reconciles in well under
# a second; entry 0 fails round-one BP, and its session stops after that one
# 300-sweep decode in about a second.
@pytest.mark.parametrize("name, i", [("oracle", 0), ("session", 0), ("session", 1), ("pa-large", 0)])
def test_operation_passes_its_check(perfbench, tmp_path, name, i):
    _, _, workloads = perfbench
    store = workloads.DigestStore(tmp_path / "digests.json", "contract")
    run = workloads.WORKLOADS[name](0, 20, store)
    try:
        inputs = run.inputs(i)
        outputs, _ = run.execute(inputs)
        run.check(i, inputs, outputs)
    finally:
        run.close()
    if name == "session":
        assert run.baseline_compared == 1
        assert run.sessions[-1]["outcome"] == ("decode_failed_round1", "reconciled")[i]
