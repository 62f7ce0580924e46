"""Closed-form asymptotic key rates for Bell-diagonal channels.

The proposed rate is the larger of two bracket arguments:

    first  = 1 - H(P_XZ) + (P_Xbar(1)/2) h((p00 p10 + p01 p11) / (r0 r1))
    second = (P_Xbar(0)/2) (1 - H(P'_XZ))

with r0 = p00+p01, r1 = p10+p11 the bit-flip marginal, P_Xbar = (r0^2 + r1^2,
2 r0 r1) the two-copy parity law and P'_XZ = (p00^2+p01^2, 2 p00 p01,
p10^2+p11^2, 2 p10 p11) / P_Xbar(0) the law of the surviving blocks.
Comparison curves: the Vollbrecht-Verstraete style correction (first argument
with the entropy of the mean replaced by the mean of entropies), the plain
advantage-distillation rate (the second argument alone), and the one-way
baseline 1 - H(P_XZ). TABLE_CURVES names the proposed rate and these three,
the columns of every rate table. P_Xbar(0) >= 1/2 as r0 + r1 = 1; the one
denominator that can vanish, r0 r1, also multiplies its terms.

Six-state curves substitute p = six_state_point(e). BB84 curves minimize
over the free parameter p11 in [0, e] (the channel family the estimate
leaves undetermined), by a dense grid plus golden-section refinement; the
objective is not assumed unimodal, the refinement only polishes the best
grid bracket. Minimizing the raw rate and clamping afterwards equals
minimizing the clamped rate, since clamping is monotone.

Scalar entry points take a validated BellDiagonal and hand its four entries
to private closed forms. The BB84 grid runs on a private vectorized core
kept consistent with the scalar path by tests; it evaluates only the curves
asked of it, and of each curve only the terms it needs (base entropy, first
argument, second argument, Vollbrecht). bb84_curve solves a whole e-grid and
the four TABLE_CURVES at once: one grid pass over (e, p11), then, curve by
curve, golden-section polishing as array operations on every e bracket.
bb84_rate, which serves one error rate and one curve at a time (threshold
searches, the session's BB84 mapping), evaluates that curve alone on one grid
row, reads its best point and bracket as floats, and polishes with the scalar
closed forms on the family's entries. These take four floats and build no
list, and no BellDiagonal, per evaluation.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from typing import NamedTuple

import numpy as np

from .blocks import as_instance, as_real
from .channel import BellDiagonal, _bb84_entries, six_state_point
from .entropy import binary_entropy

__all__ = [
    "CURVES",
    "TABLE_CURVES",
    "RatePoint",
    "ThresholdResult",
    "rate_first_arg",
    "rate_second_arg",
    "rate_proposed",
    "rate_vollbrecht",
    "rate_oneway",
    "rate_point",
    "sixstate_curve",
    "bb84_rate",
    "bb84_curve",
    "tolerable_rate",
    "sweep",
    "render_csv",
    "render_json_rows",
]

CURVES = ("proposed", "first_arg", "second_arg", "vollbrecht", "bstep", "oneway")
# The curves of the rate tables, each minimized on its own over p11 for BB84;
# first_arg and second_arg follow the proposed argmin.
TABLE_CURVES = ("proposed", "vollbrecht", "bstep", "oneway")

_GRID_POINTS = 2001
_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _entropy_xz(a: float, b: float, c: float, d: float) -> float:
    """Entropy in bits of the four weights, each clipped at 0, over their
    fsum. Takes four floats and builds no list; a zero weight adds an exact
    0.0 term, which leaves the fsum unchanged."""
    a = a if a > 0.0 else 0.0
    b = b if b > 0.0 else 0.0
    c = c if c > 0.0 else 0.0
    d = d if d > 0.0 else 0.0
    total = math.fsum((a, b, c, d))
    a, b, c, d = a / total, b / total, c / total, d / total
    return -math.fsum((a * math.log2(a) if a > 0.0 else 0.0, b * math.log2(b) if b > 0.0 else 0.0,
                       c * math.log2(c) if c > 0.0 else 0.0, d * math.log2(d) if d > 0.0 else 0.0))


# Closed forms on the entries (p00, p10, p01, p11); the rate_* functions
# below are their BellDiagonal entry points. Each two-argument max(a, b) is
# written b if b > a else a, and min(a, b) b if b < a else a, which return
# what the builtins return, NaN and signed zeros included, without a call.


def _first_arg(p00: float, p10: float, p01: float, p11: float) -> float:
    r0 = p00 + p01
    r1 = p10 + p11
    base = 1.0 - _entropy_xz(p00, p10, p01, p11)
    denom = r0 * r1
    if denom <= 0.0:
        return base
    arg = (p00 * p10 + p01 * p11) / denom
    arg = 0.0 if 0.0 > arg else arg
    return base + denom * binary_entropy(1.0 if 1.0 < arg else arg)


def _second_arg(p00: float, p10: float, p01: float, p11: float) -> float:
    r0 = p00 + p01
    r0 = r0 if r0 > 0.0 else 0.0
    r1 = p10 + p11
    r1 = r1 if r1 > 0.0 else 0.0
    pbar0 = r0 * r0 + r1 * r1
    q0, q1 = (p00 * p00 + p01 * p01) / pbar0, 2.0 * p00 * p01 / pbar0
    q2, q3 = (p10 * p10 + p11 * p11) / pbar0, 2.0 * p10 * p11 / pbar0
    qs = q0 + q1 + q2 + q3
    # P_Xbar(0) over (r0 + r1)^2, which is 1 up to rounding
    return 0.5 * (pbar0 / (pbar0 + 2.0 * r0 * r1)) * (1.0 - _entropy_xz(q0 / qs, q1 / qs, q2 / qs, q3 / qs))


def _proposed(p00: float, p10: float, p01: float, p11: float) -> float:
    first, second = _first_arg(p00, p10, p01, p11), _second_arg(p00, p10, p01, p11)
    return second if second > first else first


def _vollbrecht(p00: float, p10: float, p01: float, p11: float) -> float:
    r0 = p00 + p01
    r1 = p10 + p11
    base = 1.0 - _entropy_xz(p00, p10, p01, p11)
    if r0 * r1 <= 0.0:
        return base
    mean_h = binary_entropy(p01 / r0) + binary_entropy(p11 / r1)
    return base + 0.5 * r0 * r1 * mean_h


def _oneway(p00: float, p10: float, p01: float, p11: float) -> float:
    return 1.0 - _entropy_xz(p00, p10, p01, p11)


def rate_first_arg(p: BellDiagonal) -> float:
    """1 - H(P_XZ) plus the two-way alignment correction."""
    return _first_arg(p.p00, p.p10, p.p01, p.p11)


def rate_second_arg(p: BellDiagonal) -> float:
    """Surviving-block fraction times the rate of the transformed channel."""
    return _second_arg(p.p00, p.p10, p.p01, p.p11)


def rate_proposed(p: BellDiagonal) -> float:
    """max of the two bracket arguments; callers clamp at 0 for curves."""
    return _proposed(p.p00, p.p10, p.p01, p.p11)


def rate_vollbrecht(p: BellDiagonal) -> float:
    """Correction with per-row entropies in place of the entropy of the mix."""
    return _vollbrecht(p.p00, p.p10, p.p01, p.p11)


def rate_oneway(p: BellDiagonal) -> float:
    return _oneway(p.p00, p.p10, p.p01, p.p11)


_CLOSED_FORMS = {
    "proposed": _proposed,
    "first_arg": _first_arg,
    "second_arg": _second_arg,
    "vollbrecht": _vollbrecht,
    "bstep": _second_arg,
    "oneway": _oneway,
}


class RatePoint(NamedTuple):
    """All curves at one error rate; raw values, clamps via accessors.

    For BB84 rows, first_arg/second_arg are evaluated at the p11 minimizing
    the proposed rate (kept in p11_star), so the max invariant holds
    exactly; the comparison curves are each minimized over their own p11.
    """

    e: float
    first_arg: float
    second_arg: float
    vollbrecht: float
    bstep: float
    oneway: float
    p11_star: float | None = None

    @property
    def proposed(self) -> float:
        return max(self.first_arg, self.second_arg)

    def raw(self, curve: str) -> float:
        if curve not in CURVES:
            raise ValueError(f"unknown curve {curve!r}")
        return getattr(self, curve)

    def clamped(self, curve: str) -> float:
        return max(0.0, self.raw(curve))


def rate_point(p: BellDiagonal, e: float) -> RatePoint:
    # bstep (advantage distillation alone) is the second argument itself
    second = rate_second_arg(p)
    return RatePoint(
        e=e,
        first_arg=rate_first_arg(p),
        second_arg=second,
        vollbrecht=rate_vollbrecht(p),
        bstep=second,
        oneway=rate_oneway(p),
    )


def sixstate_curve(e_grid) -> list[RatePoint]:
    """RatePoint rows along the six-state family, each carrying all curves."""
    return [rate_point(six_state_point(e), e) for e in [as_real("e", v) for v in e_grid]]


# --- vectorized core for the BB84 family grid ---


# The kernels give entropy terms negated, x log2 x in three passes, and each
# caller folds the sign into its sum (1 - H is 1 + (a + b + b + c)); rounding
# is symmetric in sign, so every rate keeps its bits. They need x >= 0, true
# of the family entries at 0 <= t <= e; only 1 - x, which can fall a rounding
# below 0, is clamped. As in entropy.py, nothing is floored near 0 or 1.


def _xlog2x(x: np.ndarray) -> np.ndarray:
    """x log2 x of each element of x >= 0; -0.0 at x = 0."""
    out = np.maximum(x, 1e-300)
    np.log2(out, out=out)
    out *= x
    return out


def _neg_h(x: np.ndarray) -> np.ndarray:
    """-h(x) of each element of x in [0, 1], 1 exceeded by at most a rounding."""
    return _xlog2x(x) + _xlog2x(np.maximum(1.0 - x, 0.0))


# The curves that proposed and bstep are built from; every other curve is
# computed as itself. first_arg and vollbrecht add to the oneway base.
_BUILT_FROM = {"proposed": ("first_arg", "second_arg"), "bstep": ("second_arg",)}


def _curves_vec(e, t, curves) -> dict[str, np.ndarray]:
    """Raw values of the named curves on arrays of BB84 family points
    (error rate e, p11 = t), computing only the terms those curves need.
    The entries are _bb84_entries' unclamped, so every point must satisfy
    0 <= t <= e, as grid, polish and argmin points do. Then p10 = p01,
    r0 >= 1/2, and r0 r1 = 0 only where p10 = p11 = 0, which zero its numerators."""
    need = {term for c in curves for term in _BUILT_FROM.get(c, (c,))}
    p01 = p10 = e - t
    p00, p11 = 1.0 - 2.0 * e + t, t
    r0 = p00 + p01
    r1 = p10 + p11
    vals = {}
    if need & {"oneway", "first_arg", "vollbrecht"}:
        s10 = _xlog2x(p10)
        vals["oneway"] = base = 1.0 + (_xlog2x(p00) + s10 + s10 + _xlog2x(p11))
        denom = r0 * r1
    if "first_arg" in need:
        arg = (p00 * p10 + p01 * p11) / np.where(denom > 0.0, denom, 1.0)
        vals["first_arg"] = base - denom * _neg_h(arg)
    if "second_arg" in need:
        pbar0 = r0 * r0 + r1 * r1
        s_q = (_xlog2x((p00 * p00 + p01 * p01) / pbar0) + _xlog2x(2.0 * p00 * p01 / pbar0)
               + _xlog2x((p10 * p10 + p11 * p11) / pbar0) + _xlog2x(2.0 * p10 * p11 / pbar0))
        vals["second_arg"] = 0.5 * pbar0 * (1.0 + s_q)
    if "vollbrecht" in need:
        voll = _neg_h(p01 / r0) + _neg_h(p11 / np.where(r1 > 0.0, r1, 1.0))
        vals["vollbrecht"] = base - 0.5 * denom * voll
    if "proposed" in curves:
        vals["proposed"] = np.maximum(vals["first_arg"], vals["second_arg"])
    if "bstep" in curves:
        vals["bstep"] = vals["second_arg"]
    return {c: vals[c] for c in curves}


# e-rows per grid pass: an 8 x 2001 float64 temporary (128 064 B) stays under
# glibc's 128 KiB mmap threshold, so it reuses heap pages, never a fresh mapping.
_GRID_ROWS = 8
_POLISH_TOL = 1e-12


def _p11_grid(e):
    """The p11 grid on [0, e], a row for a float e or for each e of a column;
    a row is np.linspace(0, e, _GRID_POINTS) unless e / (_GRID_POINTS - 1) is 0."""
    t = np.arange(_GRID_POINTS) * (e / (_GRID_POINTS - 1))
    t[..., -1:] = e
    return t


def _best(vals):
    """Grid indices of each row's least value and of its clamped neighbours."""
    best = np.argmin(vals, axis=-1)
    return best, np.maximum(best - 1, 0), np.minimum(best + 1, _GRID_POINTS - 1)


def bb84_rate(e: float, which: str = "proposed") -> tuple[float, float]:
    """(min over p11 in [0, e] of the raw selected curve, argmin p11).

    Dense grid then golden-section refinement in the best grid bracket.
    Clamping the returned value equals minimizing the clamped curve.
    """
    if which not in CURVES:
        raise ValueError(f"unknown curve {which!r}")
    e = as_real("e", e)
    if not 0.0 <= e <= 0.5:
        raise ValueError(f"BB84 error rate {e} outside [0, 1/2]")
    closed_form = _CLOSED_FORMS[which]
    t = _p11_grid(e)
    vals = _curves_vec(e, t, (which,))[which]
    best, lo, hi = _best(vals)
    grid_val, grid_t, lo, hi = vals.item(best), t.item(best), t.item(lo), t.item(hi)

    def f(t: float) -> float:
        return closed_form(*_bb84_entries(e, t))

    a, b = lo, hi
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > _POLISH_TOL:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = f(x2)
    t_star, val = (x1, f1) if f1 <= f2 else (x2, f2)
    val = float(min(val, grid_val))
    if grid_val <= val:
        t_star = grid_t
    return val, float(t_star)


def _bb84_polish(e: np.ndarray, curve: str, a: np.ndarray, b: np.ndarray):
    """Golden-section search on every bracket [a, b] at once, each stopping
    at width _POLISH_TOL; bracket k minimizes curve at e[k]. Returns the
    final point of each bracket and its value."""

    def f(idx, t):
        return _curves_vec(e[idx], t, (curve,))[curve]

    a, b = a.copy(), b.copy()
    every = np.arange(e.size)
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = f(every, x1), f(every, x2)
    act = every[b - a > _POLISH_TOL]
    while act.size:
        left = f1[act] <= f2[act]
        y1, y2 = x1[act], x2[act]
        lo = np.where(left, a[act], y1)
        hi = np.where(left, y2, b[act])
        x_new = np.where(left, hi - _GOLDEN * (hi - lo), lo + _GOLDEN * (hi - lo))
        f_new = f(act, x_new)
        a[act], b[act] = lo, hi
        x1[act] = np.where(left, x_new, y2)
        x2[act] = np.where(left, y1, x_new)
        f1[act], f2[act] = np.where(left, f_new, f2[act]), np.where(left, f1[act], f_new)
        act = act[hi - lo > _POLISH_TOL]
    return np.where(f1 <= f2, x1, x2), np.where(f1 <= f2, f1, f2)


def bb84_curve(e_grid) -> list[RatePoint]:
    """RatePoint rows for BB84: first/second at the proposed argmin, the
    comparison curves each minimized over their own p11.

    All rows and curves are solved together (see the module docstring); the
    final rule per (e, curve) is bb84_rate's: the smaller of the polished
    and the best grid value.
    """
    es = np.array([as_real("e", e) for e in e_grid], dtype=np.float64)
    bad = ~((es >= 0.0) & (es <= 0.5))
    if bad.any():
        raise ValueError(f"BB84 error rate {es[bad][0]} outside [0, 1/2]")
    # the best grid value of each curve and row, its p11 and its p11 bracket
    grid = np.empty((4, len(TABLE_CURVES), es.size))
    for start in range(0, es.size, _GRID_ROWS):
        rows = slice(start, start + _GRID_ROWS)
        t = _p11_grid(es[rows, None])
        vals = _curves_vec(es[rows, None], t, TABLE_CURVES)
        r = np.arange(t.shape[0])
        for k, curve in enumerate(TABLE_CURVES):
            best, lo, hi = _best(vals[curve])
            grid[:, k, rows] = vals[curve][r, best], t[r, best], t[r, lo], t[r, hi]
    grid_val, grid_t, lo, hi = grid
    polished = np.array([_bb84_polish(es, c, a, b) for c, a, b in zip(TABLE_CURVES, lo, hi)])
    t_star, val = polished[:, 0], polished[:, 1]
    grid_won = grid_val <= val
    val = np.where(grid_won, grid_val, val)
    t_star = np.where(grid_won, grid_t, t_star)
    at_star = _curves_vec(es, t_star[0], ("first_arg", "second_arg"))
    return [
        RatePoint(e=e_i, first_arg=first, second_arg=second, vollbrecht=voll, bstep=bstep,
                  oneway=oneway, p11_star=p11)
        for e_i, first, second, voll, bstep, oneway, p11 in zip(
            es.tolist(), at_star["first_arg"].tolist(), at_star["second_arg"].tolist(),
            *val[1:].tolist(), t_star[0].tolist(),
        )
    ]


class ThresholdResult(NamedTuple):
    """Zero crossing of a rate curve; e_star is None, and found False, when
    the curve stays positive on [0, 1/2]."""

    e_star: float | None

    @property
    def found(self) -> bool:
        return self.e_star is not None


_SCAN_STEP = 1e-3
_SCAN_POINTS = 500  # the scan's last point is 1/2
_REFINE = 1e-4


def tolerable_rate(curve) -> ThresholdResult:
    """Smallest zero of a raw rate curve on [0, 1/2], bisected to _REFINE.

    curve maps an error rate to the raw (unclamped) rate; the clamped curve
    reaches zero exactly where the raw one changes sign. The scan points are
    i * _SCAN_STEP for i = 1 .. _SCAN_POINTS. A NaN rate is an error, since
    it has no sign.
    """

    def nonpositive(e: float) -> bool:
        rate = curve(e)
        if math.isnan(rate):
            raise ValueError(f"rate curve returned NaN at e = {e}")
        return rate <= 0.0

    curve = as_instance("curve", curve, Callable)
    lo = 0.0
    if nonpositive(lo):
        raise ValueError("rate curve must be positive at e = 0")
    for i in range(1, _SCAN_POINTS + 1):
        hi = i * _SCAN_STEP
        if nonpositive(hi):
            lo = hi - _SCAN_STEP
            break
    else:
        return ThresholdResult(e_star=None)
    while hi - lo > _REFINE:
        mid = 0.5 * (lo + hi)
        if nonpositive(mid):
            hi = mid
        else:
            lo = mid
    return ThresholdResult(e_star=0.5 * (lo + hi))


# Each protocol's error-rate range; at the CLI's default step of 1e-3 a
# valid range has at most 668 rows.
_E_RANGE = {"six-state": (2.0 / 3.0, "2/3"), "bb84": (0.5, "1/2")}
_MAX_ROWS = 10**6


def sweep(emin: float, emax: float, step: float, protocol: str):
    """Deterministic RatePoint rows on the inclusive grid."""
    if protocol not in _E_RANGE:
        raise ValueError(f"unknown protocol {protocol!r}")
    top, label = _E_RANGE[protocol]
    # Written so that NaN and infinities fail the checks.
    for name, value in (("emin", emin), ("emax", emax)):
        if not 0.0 <= as_real(name, value) <= top:
            raise ValueError(f"{name}={value} outside [0, {label}] for {protocol}")
    if not emin < emax:
        raise ValueError(f"emin={emin} must be below emax={emax}")
    if not 0.0 < as_real("step", step) < math.inf:
        raise ValueError(f"step={step} must be positive and finite")
    span = (emax - emin) / step + 1e-9
    if not span < _MAX_ROWS:
        raise ValueError(f"step={step} gives more than {_MAX_ROWS} rows")
    grid = [emin + i * step for i in range(int(span) + 1)]
    return (sixstate_curve if protocol == "six-state" else bb84_curve)(grid)


def render_csv(rows, curves=TABLE_CURVES):
    """CSV text of render_json_rows, every value as .12g."""
    records = render_json_rows(rows, curves)
    # An empty table keeps the header of a row without p11_star.
    header = (records or render_json_rows([RatePoint(0.0, 0.0, 0.0, 0.0, 0.0, 0.0)], curves))[0]
    lines = [",".join(header), *(",".join(f"{v:.12g}" for v in rec.values()) for rec in records)]
    return "\n".join(lines) + "\n"


def render_json_rows(rows, curves=TABLE_CURVES):
    """The table as records: e, the clamped curves, the raw bracket
    arguments, and the minimizing p11 whenever a row carries one
    (constrained families)."""
    for c in curves:
        if c not in CURVES:
            raise ValueError(f"unknown curve {c!r}; choices: {', '.join(CURVES)}")
    out = []
    for row in rows:
        rec = {"e": row.e}
        rec.update({c: row.clamped(c) for c in curves})
        rec["first_arg_raw"] = row.first_arg
        rec["second_arg_raw"] = row.second_arg
        if row.p11_star is not None:
            rec["p11_star"] = row.p11_star
        out.append(rec)
    return out
