"""Closed-form rate brackets, comparison curves, thresholds, and sweeps.

Hand-derived anchor points pin the algebra at degenerate inputs; the
density-matrix construction in qkdpost.oracle supplies an independent value
for the two bracket arguments at random channels. That closed-form-vs-oracle
loop lives once, in ``verify``'s theorem3 suite (``qkdpost.cli.SUITES``),
which test_bracket_oracle_equivalence runs at its own seed. Threshold
regressions are frozen from a bisection refined to 1e-4.
"""


import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from qkdpost.channel import BellDiagonal, bb84_family, six_state_point
from qkdpost.cli import SUITES
from qkdpost.entropy import binary_entropy, shannon_entropy
from qkdpost.keyrate import (
    CURVES,
    _h,
    bb84_curve,
    bb84_rate,
    rate_first_arg,
    rate_oneway,
    rate_point,
    rate_proposed,
    rate_second_arg,
    rate_vollbrecht,
    render_csv,
    render_json_rows,
    sixstate_curve,
    sweep,
    tolerable_rate,
)
from qkdpost.oracle import random_bell_diagonal


@st.composite
def bell_diagonals(draw):
    raw = [draw(st.floats(1e-3, 1.0)) for _ in range(4)]
    total = sum(raw)
    return BellDiagonal(*(v / total for v in raw))


def test_noiseless_anchor():
    p = BellDiagonal(1.0, 0.0, 0.0, 0.0)
    assert rate_first_arg(p) == pytest.approx(1.0, abs=1e-12)
    assert rate_second_arg(p) == pytest.approx(0.5, abs=1e-12)
    assert rate_proposed(p) == pytest.approx(1.0, abs=1e-12)
    assert rate_vollbrecht(p) == pytest.approx(1.0, abs=1e-12)
    assert rate_oneway(p) == pytest.approx(1.0, abs=1e-12)


def test_uniform_anchor():
    # Substituting all-1/4 entries: 1 - 2 + (1/4) h(1/2) for the first
    # bracket, (1/4)(1 - 2) for the second, 1 - 2 + (1/8)(1 + 1) Vollbrecht.
    p = BellDiagonal(0.25, 0.25, 0.25, 0.25)
    assert rate_first_arg(p) == pytest.approx(-0.75, abs=1e-12)
    assert rate_second_arg(p) == pytest.approx(-0.25, abs=1e-12)
    assert rate_proposed(p) == pytest.approx(-0.25, abs=1e-12)
    assert rate_vollbrecht(p) == pytest.approx(-0.75, abs=1e-12)
    assert rate_oneway(p) == pytest.approx(-1.0, abs=1e-12)


@given(bell_diagonals())
def test_dominance_chain(p):
    first = rate_first_arg(p)
    assert rate_proposed(p) >= first - 1e-12
    assert rate_proposed(p) >= rate_second_arg(p) - 1e-12
    assert first >= rate_oneway(p) - 1e-12
    assert first >= rate_vollbrecht(p) - 1e-12


def test_bracket_oracle_equivalence():
    for check in SUITES["theorem3"](20, np.random.default_rng(31)):
        assert check["deviation"] <= check["bound"], check["name"]


def test_six_state_values():
    p = six_state_point(0.05)
    assert rate_first_arg(p) == pytest.approx(0.5443162683, abs=1e-9)
    assert rate_second_arg(p) == pytest.approx(0.3072087963, abs=1e-9)
    assert rate_vollbrecht(p) == pytest.approx(0.5247359377, abs=1e-9)
    assert rate_oneway(p) == pytest.approx(0.4968162683, abs=1e-9)


def test_pprime_closed_form():
    rng = np.random.default_rng(33)
    for p in [six_state_point(0.2)] + [random_bell_diagonal(rng) for _ in range(5)]:
        pbar0 = (p.p00 + p.p01) ** 2 + (p.p10 + p.p11) ** 2
        pprime = [
            (p.p00**2 + p.p01**2) / pbar0,
            2 * p.p00 * p.p01 / pbar0,
            (p.p10**2 + p.p11**2) / pbar0,
            2 * p.p10 * p.p11 / pbar0,
        ]
        expected = 0.5 * pbar0 * (1.0 - shannon_entropy(pprime))
        assert rate_second_arg(p) == pytest.approx(expected, abs=1e-12)


# float.hex of (rate_first_arg, rate_second_arg, rate_vollbrecht, rate_oneway):
# seven random_bell_diagonal draws of default_rng(41), then six_state_point(0.05),
# the noiseless point, the deterministic flip, the uniform point and a point
# with an entry rounding left slightly negative.
CLOSED_FORM_PINS = [
    ("-0x1.189be0eeab288p-6", "0x1.8a7b87176a5f4p-5", "-0x1.b3e96ce9a67bep-5", "-0x1.27f2179ee03a8p-3"),
    ("-0x1.de34e9a6b3f2cp-3", "-0x1.3630843aa457fp-4", "-0x1.172e48da308c8p-2", "-0x1.7eb75e3e7c6a0p-2"),
    ("-0x1.86e0844631466p-3", "-0x1.9fd664acf9705p-4", "-0x1.03b69c56cc5d3p-2", "-0x1.6d9021685b208p-2"),
    ("-0x1.1ad2667023748p-2", "-0x1.19ac853f4de2ap-3", "-0x1.8a35795cb1c70p-2", "-0x1.0a14516bf44ccp-1"),
    ("-0x1.4556219b4ed40p-1", "-0x1.f4f77c7bef257p-3", "-0x1.523a83d3ad48bp-1", "-0x1.c31c3a44653b4p-1"),
    ("0x1.dc37a53937affp-3", "0x1.0fc6716bb4c11p-3", "0x1.baedbee5bc3e2p-3", "0x1.66670fa348d7cp-3"),
    ("-0x1.f06c5a485024ep-4", "-0x1.96a1722560180p-8", "-0x1.5bea2f9d8cbaep-3", "-0x1.2440e8ad50c90p-2"),
    ("0x1.16b09f3639adcp-1", "0x1.3a94f154e2b00p-2", "0x1.0caa3056c5f8dp-1", "0x1.fcbd676235eaep-2"),
    ("0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("-0x1.8000000000000p-1", "-0x1.0000000000000p-2", "-0x1.8000000000000p-1", "-0x1.0000000000000p+0"),
    ("-0x1.5ea3a478bd14ep-3", "-0x1.65aaf51a4b184p-4", "-0x1.dddf5ef53f916p-3", "-0x1.2e8d8cb8e1988p-2"),
]


def test_closed_forms_pinned():
    rng = np.random.default_rng(41)
    points = [random_bell_diagonal(rng) for _ in range(7)] + [
        six_state_point(0.05),
        BellDiagonal(1.0, 0.0, 0.0, 0.0),
        BellDiagonal(0.0, 0.5, 0.0, 0.5),
        BellDiagonal(0.25, 0.25, 0.25, 0.25),
        BellDiagonal(0.6, 0.3, 0.1 + 1e-13, -1e-13),
    ]
    fns = (rate_first_arg, rate_second_arg, rate_vollbrecht, rate_oneway)
    for p, pinned in zip(points, CLOSED_FORM_PINS, strict=True):
        assert tuple(f(p).hex() for f in fns) == pinned, p


def test_rate_point_accessors():
    p = six_state_point(0.3)
    pt = rate_point(p, e=0.3)
    assert pt.proposed == max(pt.first_arg, pt.second_arg)
    for curve in CURVES:
        assert pt.clamped(curve) == max(0.0, pt.raw(curve))
    with pytest.raises(ValueError):
        pt.raw("noisy")


def test_sixstate_curve_monotone_and_dominant():
    grid = [i * 1e-3 for i in range(351)]
    rows = sixstate_curve(grid)
    assert rows[0].clamped("proposed") == pytest.approx(1.0, abs=1e-12)
    values = [r.clamped("proposed") for r in rows]
    assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    for r in rows:
        for other in ("vollbrecht", "bstep", "oneway"):
            assert r.clamped("proposed") >= r.clamped(other) - 1e-12


def test_bb84_rate_noiseless():
    # At e = 0 the family is the single point (1, 0, 0, 0): the first
    # argument keeps the whole key, the second half of it.
    for curve in CURVES:
        half = curve in ("second_arg", "bstep")
        assert bb84_rate(0.0, curve) == (0.5 if half else 1.0, 0.0), curve


def test_vector_binary_entropy_matches_scalar():
    # The BB84 core's h keeps the scalar closed forms' convention: exact
    # zeros at 0 and 1, and no flooring next to them.
    points = [0.0, 1e-300, 1e-13, 1e-12, 0.3, 1.0 - 1e-13, 1.0]
    assert _h(np.array(points)).tolist() == [binary_entropy(x) for x in points]


def test_bb84_minimization_certificate():
    rng = np.random.default_rng(32)
    for e in (0.02, 0.08, 0.13):
        best, p11_star = bb84_rate(e)
        assert 0.0 <= p11_star <= e
        probes = np.concatenate([rng.uniform(0.0, e, size=20), [e * e, e, 0.0]])
        for p11 in probes:
            probe = max(0.0, rate_proposed(bb84_family(e, float(p11))))
            assert best <= probe + 1e-9


def test_bb84_rate_regression():
    rate, _ = bb84_rate(0.05)
    assert rate == pytest.approx(0.4447252658, abs=1e-8)


# float.hex of bb84_rate(e, curve): the scalar path must not drift.
BB84_RATE_PINS = {
    (0.02, "proposed"): ("0x1.70e65e172aa39p-1", "0x1.96d280b96fa6cp-17"),
    (0.02, "vollbrecht"): ("0x1.702ef70298348p-1", "0x1.6d2a4d36dfb77p-17"),
    (0.02, "bstep"): ("0x1.723b13fce82ffp-2", "0x0.0p+0"),
    (0.02, "oneway"): ("0x1.6f2a35ddd149ep-1", "0x1.a36e2eb1c432dp-12"),
    (0.05, "proposed"): ("0x1.c7660f61dfddep-2", "0x1.326c02dc5023dp-12"),
    (0.05, "vollbrecht"): ("0x1.c06744d15cc0cp-2", "0x1.e272d18daf45cp-13"),
    (0.05, "bstep"): ("0x1.d4a84503193c7p-3", "0x0.0p+0"),
    (0.05, "oneway"): ("0x1.b575831c1abbep-2", "0x1.47ae162f86a72p-9"),
    (0.11, "proposed"): ("0x1.0aea298b6cc8fp-4", "0x1.54a6bc08ba784p-8"),
    (0.11, "vollbrecht"): ("0x1.6264a7c2b6fbdp-5", "0x1.d2185f9ef3c1ep-9"),
    (0.11, "bstep"): ("0x1.dcb0543833d79p-5", "0x1.6d63fe72431ffp-16"),
    (0.11, "oneway"): ("0x1.607f3bd48c000p-13", "0x1.8c7e2801ade16p-7"),
    (0.14, "proposed"): ("0x1.3698ed20dc82bp-10", "0x1.169ec4a0199aep-10"),
    (0.14, "vollbrecht"): ("-0x1.aa882c9155990p-4", "0x1.0a0d2073df536p-7"),
    (0.14, "bstep"): ("0x1.3698ed20dc82bp-10", "0x1.169ec4a0199aep-10"),
    (0.14, "oneway"): ("-0x1.590acbd0f5a38p-3", "0x1.41205a8cb89efp-6"),
}


def test_bb84_rate_pinned():
    for (e, curve), pinned in BB84_RATE_PINS.items():
        rate, p11 = bb84_rate(e, curve)
        assert (rate.hex(), p11.hex()) == pinned, (e, curve)


def test_bb84_curve_matches_bb84_rate():
    grid = [i * 1e-3 for i in range(251)] + [0.5]
    rows = bb84_curve(grid)
    assert [r.e for r in rows] == grid
    for r in rows:
        assert 0.0 <= r.p11_star <= r.e
        for curve in ("proposed", "vollbrecht", "bstep", "oneway"):
            assert abs(r.raw(curve) - bb84_rate(r.e, curve)[0]) <= 1e-12, (r.e, curve)


def test_bb84_curve_edges():
    assert bb84_curve([]) == []
    for bad in ([0.1, 0.51], [-1e-3], [float("nan")]):
        with pytest.raises(ValueError):
            bb84_curve(bad)
        with pytest.raises(ValueError):
            bb84_rate(bad[-1])


def test_thresholds():
    cases = [
        (lambda e: rate_oneway(six_state_point(e)), 0.1262),
        (lambda e: rate_proposed(six_state_point(e)), 0.1810),
        (lambda e: rate_vollbrecht(six_state_point(e)), 0.1423),
        (lambda e: bb84_rate(e, "oneway")[0], 0.1100),
        (lambda e: bb84_rate(e, "proposed")[0], 0.1407),
    ]
    for curve, expected in cases:
        res = tolerable_rate(curve)
        assert res.found
        assert res.e_star == pytest.approx(expected, abs=2e-3)


THRESHOLD_PINS = [
    (lambda e: rate_oneway(six_state_point(e)), "0x1.027ef9db22d0ep-3"),
    (lambda e: rate_proposed(six_state_point(e)), "0x1.72c083126e978p-3"),
    (lambda e: rate_vollbrecht(six_state_point(e)), "0x1.23645a1cac084p-3"),
    (lambda e: bb84_rate(e, "oneway")[0], "0x1.c2b020c49ba5ep-4"),
    (lambda e: bb84_rate(e, "proposed")[0], "0x1.203126e978d50p-3"),
    (lambda e: bb84_rate(e, "vollbrecht")[0], "0x1.e47ae147ae148p-4"),
    (lambda e: bb84_rate(e, "bstep")[0], "0x1.203126e978d50p-3"),
]


def test_thresholds_pinned():
    # Bit for bit: any change to a closed form, the BB84 grid or its polish
    # that moves a scan or bisection sign moves these.
    for curve, pinned in THRESHOLD_PINS:
        assert tolerable_rate(curve).e_star.hex() == pinned


def test_threshold_ordering():
    proposed = tolerable_rate(lambda e: rate_proposed(six_state_point(e)))
    voll = tolerable_rate(lambda e: rate_vollbrecht(six_state_point(e)))
    assert proposed.e_star >= voll.e_star


def test_threshold_edge_cases():
    res = tolerable_rate(lambda e: 1.0)
    assert not res.found
    assert res.e_star is None
    # The scan reaches 1/2.
    res = tolerable_rate(lambda e: 0.4999 - e)
    assert res.found
    assert res.e_star == pytest.approx(0.4999, abs=1e-4)
    with pytest.raises(ValueError):
        tolerable_rate(lambda e: -1.0)


@pytest.mark.parametrize("curve,where", [
    (lambda e: float("nan"), "e = 0.0"),
    # in the scan
    (lambda e: float("nan") if e >= 0.05 else 1.0, "e = 0.05"),
    # in the bisection: the scan brackets the zero at 0.1 in [0.099, 0.1]
    (lambda e: float("nan") if 0.0992 < e < 0.0998 else 0.1 - e, "e = 0.0995"),
], ids=["everywhere", "scan", "bisection"])
def test_threshold_rejects_nan(curve, where):
    # NaN has no sign, so it must not read as a rate that stays positive.
    with pytest.raises(ValueError, match=f"NaN at {where}"):
        tolerable_rate(curve)


def test_sweep_grid_contract():
    rows = sweep(0.0, 0.1, 0.01, "six-state")
    assert len(rows) == 11
    assert rows[0].e == 0.0
    assert rows[-1].e == pytest.approx(0.1, abs=1e-12)
    for r in rows:
        for curve in CURVES:
            assert r.clamped(curve) >= 0.0
    with pytest.raises(ValueError):
        sweep(0.2, 0.1, 0.01, "six-state")
    with pytest.raises(ValueError):
        sweep(0.0, 0.1, 0.0, "six-state")
    with pytest.raises(ValueError):
        sweep(0.0, 0.1, 0.01, "b92")


def test_bb84_sweep_carries_minimizer():
    rows = sweep(0.0, 0.04, 0.02, "bb84")
    assert len(rows) == 3
    for r in rows:
        assert r.p11_star is not None
        assert 0.0 <= r.p11_star <= r.e


def test_render_csv():
    rows = sixstate_curve([0.0, 0.05])
    text = render_csv(rows)
    lines = text.strip().split("\n")
    assert lines[0] == "e,proposed,vollbrecht,bstep,oneway,first_arg_raw,second_arg_raw"
    assert len(lines) == 3
    assert lines[1].startswith("0,1,")
    with pytest.raises(ValueError):
        render_csv(rows, curves=("proposed", "noisy"))


def test_render_csv_bb84_column():
    rows = bb84_curve([0.0, 0.05])
    lines = render_csv(rows).strip().split("\n")
    assert lines[0].endswith(",p11_star")
    assert len(lines[1].split(",")) == len(lines[0].split(","))


def test_render_json_rows():
    rows = sixstate_curve([0.05])
    recs = render_json_rows(rows)
    assert len(recs) == 1
    rec = recs[0]
    assert set(rec) == {
        "e", "proposed", "vollbrecht", "bstep", "oneway",
        "first_arg_raw", "second_arg_raw",
    }
    assert rec["proposed"] == pytest.approx(0.5443162683, abs=1e-9)
    assert rec["first_arg_raw"] == pytest.approx(0.5443162683, abs=1e-9)
