"""Closed-form predictors for second-order zero differential spectra,
Kloosterman sums, vanishing-flat counting formulas, and the verification
harness that checks every closed form against brute-force recomputation.

Each supported claim is one :class:`Claim` record in ``CLAIMS`` (``THEOREMS``
is its summary view), which declares its hypothesis for one `_check` to
test.  ``predict`` returns the claimed table value for a single cell,
``vanishing_count_formula`` a claimed vanishing-flat count, and ``verify``
recomputes the relevant object from scratch (spectra, flat enumeration,
kernel dimensions) and compares, returning a :class:`TheoremVerdict`.
Hypothesis violations are reported as a distinct verdict state, never as
cell mismatches.
"""

from __future__ import annotations

import functools
import math
import random
import time
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .field import _TABLE_LIMIT, Field, FieldElement, InvariantError, make_field, omega
from .functions import (
    FunctionError,
    GammaTraceInverse,
    InversePlusTrace,
    Monomial,
    TableFunction,
    canonical_exponent,
    gamma_conditions,
)
from .spectra import (_checked_trivial, _trivial, differential_uniformity, fbct_rows,
                      fbct_spectrum, orbit_rows)
from .flats import check_prop_identity, vanishing_flats
from .algebra import kloosterman

__all__ = [
    "HypothesisError",
    "TheoremVerdict",
    "THEOREMS",
    "kloosterman",
    "predict",
    "s6_count_formula",
    "vanishing_count_formula",
    "verify",
]


class HypothesisError(ValueError):
    """A closed form was requested outside the conditions it is stated for."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise HypothesisError(message)


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TheoremVerdict:
    """Outcome of one verification run.

    ``status`` is ``"passed"``, ``"failed"`` (a cell mismatch was found) or
    ``"hypothesis_error"`` (the requested parameters violate the claim's
    stated conditions; nothing was checked).  ``first_mismatch``, when
    present, holds the lexicographically first offending cell.
    """

    theorem_id: str
    params: dict
    status: str
    cells_checked: int
    first_mismatch: Optional[dict]
    elapsed_ms: float
    notes: tuple = dc_field(default_factory=tuple)

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    def to_json_obj(self, fixed_time: bool = False) -> dict:
        """JSON-ready dict.  ``fixed_time`` zeroes the timing field so that
        repeated runs with one configuration serialize byte-identically."""
        return {
            "theorem": self.theorem_id,
            "params": dict(self.params),
            "passed": self.passed,
            "cells_checked": self.cells_checked,
            "first_mismatch": (None if self.first_mismatch is None
                               else dict(self.first_mismatch)),
            "elapsed_ms": 0.0 if fixed_time else round(self.elapsed_ms, 3),
            "status": self.status,
            "notes": list(self.notes),
        }


def _mismatch(field: Field, a: int, b: int, predicted, observed) -> dict:
    return {
        "a": field.from_code(a).text,
        "b": field.from_code(b).text,
        "predicted": predicted,
        "observed": observed,
    }


# ---------------------------------------------------------------------------
# hypotheses: declared on each claim, tested by one check
# ---------------------------------------------------------------------------

#: The rule on p of each kind of claim, and how a violation reads.
_P_RULES = {
    2: (lambda p: p == 2, "is stated over GF(2^n)"),
    3: (lambda p: p == 3, "requires p = 3"),
    "> 3": (lambda p: p > 3, "requires p > 3"),
    "odd": (lambda p: p % 2 == 1, "requires odd characteristic"),
}


def _check(tid: str, claim: "Claim", kw: dict) -> None:
    """The hypothesis of one claim, shared by ``verify``, ``predict`` and the
    count formulas: p and n given, n >= 1, then the rule on p, then the rule
    on n (parity, least n, and the reason printed with them), then the
    claim's own remaining condition."""
    if claim.p is None:
        return
    p, n = kw["p"], kw["n"]
    _require(p is not None and n is not None, f"{tid} requires p and n")
    _require(n >= 1, f"{tid} requires n >= 1, got n={n}")
    holds, says = _P_RULES[claim.p]
    _require(holds(p), f"{tid} {says}, got p={p}")
    parity, least, *why = claim.n
    _require((parity is None or n % 2 == ("even", "odd").index(parity))
             and (least is None or n >= least),
             f"{tid} requires {parity + ' ' if parity else ''}n"
             f"{f' >= {least}' if least else ''}{f' ({why[0]})' if why else ''}"
             f", got n={n}")
    claim.check(kw)


def _check_T1(kw: dict) -> None:
    p, n = kw["p"], kw["n"]
    q = p ** n if n < _TABLE_LIMIT.bit_length() and p ** n <= _TABLE_LIMIT else f"{p}^{n}"
    _require(pow(p, n, 3) == 2, f"T1 requires p^n ≡ 2 (mod 3), got p^n={q}")


def _check_T2(kw: dict) -> None:
    n, k = kw["n"], kw["k"]
    g = math.gcd(k, 2 * n)
    _require(g == 1, f"T2 requires gcd(k, 2n) = 1, got gcd({k}, {2 * n}) = {g}")
    _require(k >= 1, f"T2 requires k >= 1, got k={k}")


def _t_inside(tid: str, kw: dict) -> None:
    """THMT, and T7 at a given t: 0 < t < n."""
    n, t = kw["n"], kw["t"]
    _require(t is not None and 0 < t < n,
             f"{tid} requires 0 < t < n, got t={t}, n={n}")


def _check_m(tid: str, why: str, kw: dict) -> None:
    """C_F1 (n = 2m) and C_F2 (n = 2m+1): m > 2."""
    _require(kw["n"] // 2 > 2, f"{tid} requires m > 2 ({why}), got m={kw['n'] // 2}")


def _check_T7(kw: dict) -> None:
    """The admissibility of a given gamma is checked when the function is
    built, since it needs the field."""
    if kw["gamma"] is not None:
        _require(kw["t"] is not None, "a gamma value requires t as well")
    elif kw["t"] is not None:
        _t_inside("T7", kw)


# ---------------------------------------------------------------------------
# vanishing-flat count formulas
# ---------------------------------------------------------------------------

def _exact_int(val: Fraction, what: str) -> int:
    if val.denominator != 1:
        raise HypothesisError(f"inexact division in {what}: {val}")
    return int(val)


def vanishing_count_formula(theorem_id: str, n: int) -> int:
    """Claimed number of vanishing flats for the family named by the id.

    All divisions are performed exactly; an inexact division raises
    :class:`HypothesisError` since it signals parameters outside the formula's
    scope.
    """
    claim = CLAIMS.get(theorem_id)
    if claim is None or claim.run is not _run_vb:
        raise ValueError(f"no vanishing-flat count formula for id {theorem_id!r}")
    _check(theorem_id, claim, _arguments(claim, n=n))
    what = f"vanishing-flat count for {theorem_id}"
    if theorem_id == "C_F1_VB":
        m = n // 2
        base = (2 ** (m - 2) - 1) * (2 ** (m - 1) - 1)
        if m % 2 == 1:
            base += 1
        return _exact_int(Fraction(base * (2 ** n - 1), 3), what)
    K = kloosterman(n, "direct")
    if theorem_id == "C_F2_VB":
        shift = 7 if ((n - 1) // 2) % 3 == 1 else 1
        val = (Fraction(2 ** (n - 2) + shift, 6) - Fraction(K, 8)) * (2 ** n - 1)
        return _exact_int(val, what)
    val = (2 ** n - 1) * (Fraction(2 ** (n - 2) + 1, 6) - Fraction(K, 8))
    return _exact_int(val, what)


def s6_count_formula(theorem_id: str, n: int) -> int:
    """Claimed size of the value-4 support set S_6 (the b outside the named
    special sets whose row-one differential count at B equals 6) for the
    C_F2 / C_F3 families, expressed through K(1).  Its range of n is that of
    the family's vanishing-flat formula."""
    family = theorem_id.removesuffix("_VB")
    if family not in ("C_F2", "C_F3"):
        raise ValueError(f"no S_6 count formula for id {theorem_id!r}")
    vb = family + "_VB"
    _check(vb, CLAIMS[vb], _arguments(CLAIMS[vb], n=n))
    rich = ((n - 1) // 2) % 3 == 1 if family == "C_F2" else n % 3 == 0
    K = kloosterman(n, "direct")
    lead = 2 ** (n - 2) - 5 if rich else 2 ** (n - 2) + 1
    val = 6 * (Fraction(lead, 6) - Fraction(K, 8))
    return _exact_int(val, f"S_6 count for {theorem_id}")


# ---------------------------------------------------------------------------
# per-cell predictors
# ---------------------------------------------------------------------------

@functools.cache
def _omega_codes(field: Field) -> tuple:
    """Codes of the two primitive cube roots of unity (n even, char 2)."""
    w = omega(field).code
    return w, field.mul_code(w, w)


def _b_map(field: Field, t: int) -> tuple:
    """(B, count): B(c) = (c^(2^t) + c) / (c(c+1)) for every code c, 0 at
    c in {0, 1} since inv(0) = 0, and count[v] = #{c outside {0, 1} : B(c) = v}.
    Off {0, 1}, B(c) is the row-one derivative (c+1)^(2^t-1) + c^(2^t-1),
    which is 1 at c in {0, 1}; so delta(1, v) of x^(2^t-1) is count[v] for v > 1."""
    cs = np.arange(field.q, dtype=np.int64)
    B = field.vmul(field.vpow(cs, 2 ** t) ^ cs, field.vinv(field.vmul(cs, cs ^ 1)))
    return B, np.bincount(B[2:], minlength=field.q)


@functools.cache
def _s6_mask(field: Field, t: int) -> np.ndarray:
    """Boolean mask over codes b: B(b) outside {0,1} (so b is too), and the
    row-one differential count of x^(2^t-1) at B(b) equals 6."""
    B, count = _b_map(field, t)
    mask = (B > 1) & (count[B] == 6)
    mask.flags.writeable = False  # one array serves every caller of the cache
    return mask


# Row-one predictors of power maps: entry c is the claimed value at (1, c),
# and `_homogeneous` reads row a off it.  `_predicted_row` sets the trivial
# cells, so their entries here are arbitrary.

def _homogeneous(row1: Callable) -> Callable:
    """A power map's predictor of row a: row one read at b/a, since
    nabla(ca, cb) = nabla(a, b) for x^d (monomial homogeneity)."""
    return lambda field, t, a: row1(field, t)[
        field.vmul(np.arange(field.q, dtype=np.int64), field.vinv(a))]


def _inverse_row1(field: Field, t) -> np.ndarray:
    """x^(q-2): 0 off the trivial cells, except 4 at the primitive cube
    roots of unity, which exist exactly when n is even."""
    row = np.zeros(field.q, dtype=np.int64)
    if field.n % 2 == 0:
        row[list(_omega_codes(field))] = 4
    return row


def _fourth_power_row1(field: Field, t) -> np.ndarray:
    """x^4: 1 + eta(-(1 + c^2)/3)."""
    cs = np.arange(field.q, dtype=np.int64)
    inv3 = field.inv_code(field.scalar_mul_code(3, 1))
    s = field.vneg(field.vadd(1, field.vmul(cs, cs)))
    return 1 + field.tables().eta[field.vmul(s, inv3)].astype(np.int64)


def _ternary_row1(field: Field, t) -> np.ndarray:
    """x^((3^n-1)/2+2): 1 where 1 + c^2 is a square, 3 where it is not."""
    cs = np.arange(field.q, dtype=np.int64)
    e = field.tables().eta[field.vadd(1, field.vmul(cs, cs))]
    return 2 - e.astype(np.int64)


def _thmt_row1(field: Field, t: int) -> np.ndarray:
    """x^(2^t-1) through B(c) and |ker L_B|, L_B(x) = x^(2^t) + x + B(x^2 + x):
    0 and 1 are roots, and x outside {0, 1} is one iff B(x) = B."""
    n = field.n
    B, count = _b_map(field, t)
    ker = 2 + count
    row = np.maximum(ker[B] - 4, 0)
    row[B == 0] = 2 ** math.gcd(t, n) - 4
    row[B == 1] = 2 ** math.gcd(t - 1, n)
    return row


def _cf1_row1(field: Field, m: int) -> np.ndarray:
    cs = np.arange(field.q, dtype=np.int64)
    row = np.where(field.vpow(cs, 2 ** m - 1) == 1, 2 ** m - 4, 0)
    if m % 2 == 1:
        row[field.vpow(cs, 2 ** m - 2) == 1] = 4
    return row.astype(np.int64)


def _s6_row1(field: Field, t: int, power: int, value: int,
             when: bool) -> np.ndarray:
    """C_F2 and C_F3: 4 on S_6; when ``when`` holds, ``value`` on the c
    with c^power = 1."""
    row = np.where(_s6_mask(field, t), 4, 0).astype(np.int64)
    if when:
        cs = np.arange(field.q, dtype=np.int64)
        row[field.vpow(cs, power) == 1] = value
    return row


def _t6_row(field: Field, t, a: int) -> np.ndarray:
    """Row a of x^(2^n-2) + Tr(x^2/(x+1)): explicit trace conditions on a and
    b; on the coset b in {aw, aw^2} the value depends on b alone."""
    tr = field.tables().tr
    vmul, vinv = field.vmul, field.vinv
    bs = np.arange(field.q, dtype=np.int64)
    ab = vmul(bs, a)
    apb = bs ^ a
    s = field.mul_code(a, a) ^ ab ^ vmul(bs, bs)
    w1 = vmul(vinv(vmul(bs, apb)), a)
    w2v = vmul(bs, vinv(vmul(apb, a)))
    w3 = vmul(apb, vinv(ab))
    extra = vmul(vmul(ab, apb), vinv(s ^ 1))
    row = np.where((tr[w1] == 0) & (tr[w2v] == 0) & (tr[w3] == 0)
                   & (tr[extra] == 1), 4, 0).astype(np.int64)
    w, w2 = _omega_codes(field)
    coset = vmul(np.array([w, w2], dtype=np.int64), a)
    b3 = field.vpow(coset, 3)
    binv = vinv(coset)
    c1 = tr[vmul(b3, vinv(b3 ^ 1))] == 0
    c2 = ((tr[binv] == 0) & (tr[vmul(binv, w)] == 0)
          & (tr[vmul(binv, w2)] == 0) & (tr[b3] == 1))
    row[coset] = 4 * c1 + 4 * c2
    return row


# ---------------------------------------------------------------------------
# generic row comparison
# ---------------------------------------------------------------------------

#: Note labels of the row-compared claims' observed maximum over the
#: nontrivial cells; the label is text only, `_trivial` picks the cells.
_OFF_DIAGONAL = "observed off-diagonal maximum"
_NONTRIVIAL = "observed nontrivial maximum"
_BETA = "observed F-boomerang uniformity"


def _predicted_row(theorem_id: str, field: Field, t, a: int) -> np.ndarray:
    """Predicted row a of a per-cell claim, its trivial cells set to q."""
    row = CLAIMS[theorem_id].row(field, t, a)
    row[_trivial(field, a)] = field.q
    return row


def _compare_rows(theorem_id: str, field: Field, setting: dict, kw: dict):
    """The run of every per-cell claim: compare brute-force rows with the
    prediction over the grid a, b != 0 (the a = b diagonal included) up to
    the first mismatching cell, note the nontrivial maximum under the
    claim's label, then apply its expected-maximum check.  Only the
    `orbit_rows(F)` representatives are walked, in ascending order.  The
    predicted rows share the symmetry it proves on the observed ones (power
    maps by `_homogeneous`, T6 by Frobenius), so an orbit's rows match or
    fail together: the first offending row is the smallest of its orbit, the
    representative, and the first mismatch, `cells_checked` and the observed
    maximum are those of a walk over every row."""
    claim = CLAIMS[theorem_id]
    q = field.q
    F = claim.build(field, setting)
    observed, cells, first = 0, (q - 1) * (q - 1), None
    for a, obs in fbct_rows(F, [a for a, _ in orbit_rows(F)]):
        pred = _predicted_row(theorem_id, field, setting.get("t"), a)
        bad = np.nonzero(obs[1:] != pred[1:])[0]
        if bad.size:
            b = int(bad[0]) + 1
            cells = (a - 1) * (q - 1) + b
            first = _mismatch(field, a, b, int(pred[b]), int(obs[b]))
            break
        off = np.delete(obs, _checked_trivial(field, a, obs))
        observed = max(observed, int(off.max(initial=0)))
    notes = [f"{claim.label} {observed}"]
    if claim.expect is not None:
        first = claim.expect(F, setting, observed, first, notes)
    return setting, cells, first, notes


def _maximum(what: str, claimed: Callable[[dict], int]):
    """Expected-maximum check: a mismatch when the observed maximum is not
    the claimed one."""
    def expect(F, setting, observed, first, notes):
        want = claimed(setting)
        if first is None and observed != want:
            first = {"a": what, "b": "", "predicted": want,
                     "observed": observed}
        return first
    return expect


def _below_differential_uniformity(F, setting, observed, first, notes):
    delta = differential_uniformity(F)
    notes.append(f"differential uniformity {delta}")
    if first is None and observed > delta:
        first = {"a": "F-boomerang uniformity", "b": "differential uniformity",
                 "predicted": delta, "observed": observed}
        notes.append("F-boomerang uniformity exceeds differential uniformity")
    return first


def _bound_attained(F, setting, observed, first, notes):
    if first is None and observed < 8:
        notes.append(f"bound not attained: maximum 8 claimed, observed "
                     f"{observed} on this field")
    return first


# ---------------------------------------------------------------------------
# spectrum- and count-level checks
# ---------------------------------------------------------------------------

def _power_map(field: Field, setting: dict):
    return Monomial(field, setting["d"])


def _mersenne(field: Field, t: int, with_m: bool = False) -> dict:
    """Verdict params of x^(2^t-1): t, the exponent d and, for the claims
    stated in m, m = t."""
    out = {"t": t, "d": canonical_exponent(field.q, 2 ** t - 1)}
    if with_m:
        out["m"] = t
    return out


def _one_of(values) -> str:
    return "one of {" + ", ".join(map(str, sorted(values))) + "}"


def _first_outside(F, allowed) -> tuple:
    """(cells, mismatch) at the first nontrivial FBCT cell (a, b), in
    row-major order, whose value is not in ``allowed``, where cells =
    (a - 1)(q - 1) + b counts it; called only once the histogram shows
    such a value.  The representatives are walked in ascending order, as in
    `_compare_rows`, which says why the first offending row is one."""
    f = F.field
    for a, row in fbct_rows(F, [a for a, _ in orbit_rows(F)]):
        outside = ~np.isin(row, sorted(allowed))
        outside[_trivial(f, a)] = False
        hit = np.flatnonzero(outside)
        if hit.size:
            b = int(hit[0])
            return (a - 1) * (f.q - 1) + b, _mismatch(f, a, b, _one_of(allowed), int(row[b]))
    raise InvariantError(f"the histogram of {F.text()} holds a value outside "
                         f"{_one_of(allowed)} that no row holds")


def _run_T2(theorem_id: str, field: Field, setting: dict, kw: dict):
    """Value set and maximum of the nontrivial spectrum, with its histogram."""
    q = field.q
    F = _power_map(field, setting)
    allowed = {0, 1, (field.p - 3) // 2}
    hist = fbct_spectrum(F).histogram
    notes = ["observed nontrivial value histogram: "
             + ", ".join(f"{v}: {c}" for v, c in hist)]
    if any(v not in allowed for v, _ in hist):
        cells, first = _first_outside(F, allowed)
        notes.append(f"claimed value set and maximum not attained on GF({q})")
        return setting, cells, first, notes
    withmax = hist[-1][0]
    notes += [f"{_NONTRIVIAL} {withmax}",
              "per-cell branch conditions are not machine-checkable; "
              "value-set and maximum checked instead"]
    expect = _maximum("maximum over ab != 0", lambda s: max(allowed))
    return setting, (q - 1) * (q - 1), expect(F, setting, withmax, None, notes), notes


def _run_vb(theorem_id: str, field: Field, setting: dict, kw: dict):
    """The enumerated vanishing-flat count, then (C_F2_VB, C_F3_VB) the size
    of S_6 by direct count, each against its formula; stops at the first
    that differs."""
    claimed = vanishing_count_formula(theorem_id, field.n)
    enumerated = vanishing_flats(_power_map(field, setting)).vanishing_count
    notes = [f"enumerated vanishing flats: {enumerated}"]
    if enumerated != claimed:
        return setting, 1, {"a": "vanishing-flat count", "b": "",
                            "predicted": claimed, "observed": enumerated}, notes
    if theorem_id == "C_F1_VB":
        return setting, 1, None, notes
    s6_direct = int(_s6_mask(field, setting["t"]).sum())
    s6_claimed = s6_count_formula(theorem_id, field.n)
    notes.append(f"S_6 size by direct count: {s6_direct}")
    first = None
    if s6_direct != s6_claimed:
        first = {"a": "S_6 size", "b": "",
                 "predicted": s6_claimed, "observed": s6_direct}
    return setting, 2, first, notes


def _admissible_gammas(field: Field, t: int) -> list:
    """The nonzero codes that meet both `gamma_conditions` at t."""
    gs = np.arange(1, field.q, dtype=np.int64)
    fixed, traceless = gamma_conditions(field, t, gs)
    return gs[fixed & traceless].tolist()


_T7_VALUES = frozenset({0, 4, 8})


def _run_T7(theorem_id: str, field: Field, setting: dict, kw: dict):
    """Every admissible (t, gamma), or the given ones: nontrivial values in
    {0, 4, 8}, one function per class.  Tr(x^(2^(n-t)+1)) = Tr(x^(2^t+1)) and
    F_{t,g^2}(x^2) = F_{t,g}(x)^2, so an enumerated t > n - t, or gamma with a
    smaller conjugate, repeats an earlier pair's value set; its cells count.
    At t = n/2, Tr(x^(2^t+1)) = 0, so every gamma there gives x^(q-2)."""
    q, n, t, gamma = field.q, field.n, kw["t"], kw["gamma"]
    params = {} if t is None else {"t": t}
    if gamma is not None:
        g = field.element(gamma)
        pairs = [(t, g.code)]
        params["gamma"] = g.text
    else:
        pairs = [(tt, g) for tt in ([t] if t is not None else range(1, n))
                 for g in _admissible_gammas(field, tt)]
    cells, observed, half = 0, set(), False
    for tt, g in pairs:
        if gamma is None and ((t is None and tt > n - tt) or (2 * tt == n and half)
                              or min(field.vpow(g, 2 ** i) for i in range(n)) < g):
            cells += (q - 1) * (q - 1)
            continue
        half = half or 2 * tt == n
        try:
            F = GammaTraceInverse(field, tt, field.from_code(g))
        except FunctionError as exc:
            raise HypothesisError(str(exc)) from exc
        values = {v for v, _ in fbct_spectrum(F).histogram}
        if not values <= _T7_VALUES:
            row_major, first = _first_outside(F, _T7_VALUES)
            first.update(t=tt, gamma=field.from_code(g).text)
            return params, cells + row_major, first, []
        observed |= values
        cells += (q - 1) * (q - 1)
    notes = [f"admissible (t, gamma) pairs: {len(pairs)}"]
    if pairs:
        notes.append(f"observed nontrivial values: {sorted(observed)}")
    else:
        notes.append("no admissible (t, gamma) pair exists for this n; "
                     "the claim is vacuous here")
    return params, cells, None, notes


#: (label, [(p, n), ...], exponent function, claimed maximum function)
_TABLE1_ROWS = (
    ("x^3, p > 3",
     [(5, 1), (7, 1)], lambda p, q: 3, lambda p: 1),
    ("x^(3^n-3), p = 3, odd n > 1",
     [(3, 3)], lambda p, q: q - 3, lambda p: 2),
    ("x^(q-2), p odd, q ≡ 2 (mod 3)",
     [(5, 1), (11, 1)], lambda p, q: q - 2, lambda p: 1),
    ("x^(p^m+2), p > 3, n = 2m, p^m ≡ 1 (mod 3)",
     [(7, 2)], lambda p, q: math.isqrt(q) + 2, lambda p: 1),
    ("x^(3^n-2), p = 3",
     [(3, 2), (3, 3)], lambda p, q: q - 2, lambda p: 3),
    ("x^(q-2), p odd, q ≡ 1 (mod 3)",
     [(7, 1), (13, 1)], lambda p, q: q - 2, lambda p: 3),
    ("x^4, p > 3, n > 1",
     [(5, 2)], lambda p, q: 4, lambda p: 2),
    ("x^((2q-1)/3), q ≡ 2 (mod 3)",
     [(5, 1), (5, 3)], lambda p, q: (2 * q - 1) // 3, lambda p: 1),
    ("x^((p+1)/2), p > 3",
     [(7, 1), (11, 1), (13, 1), (11, 2)], lambda p, q: (p + 1) // 2,
     lambda p: (p - 3) // 2),
    ("x^((3^n-1)/2+2), p = 3, odd n",
     [(3, 3)], lambda p, q: (q - 1) // 2 + 2, lambda p: 3),
)


def _run_TABLE1(theorem_id: str, field, setting: dict, kw: dict):
    cells = 0
    notes = []
    first = None
    for label, fields, d_fn, max_fn in _TABLE1_ROWS:
        for p, n in fields:
            f = make_field(p, n)
            q = f.q
            claimed = max_fn(p)
            F = Monomial(f, canonical_exponent(q, d_fn(p, q)))
            got = fbct_spectrum(F).uniformity
            cells += (q - 1) * (q - 1)
            notes.append(f"{label} on GF({p}^{n}): maximum {got} "
                         f"(claimed {claimed})")
            if got != claimed and first is None:
                first = {"a": f"{label} on GF({p}^{n})",
                         "b": "maximum over ab != 0",
                         "predicted": claimed, "observed": got}
    return {}, cells, first, notes


def _run_PROP_VB(theorem_id: str, field: Field, setting: dict, kw: dict):
    q = field.q
    num_tables = kw["num_random_tables"]
    seed = kw["seed"]
    jobs = [(f"monomial d={d}", Monomial(field, d)) for d in range(1, q)]
    rng = random.Random(seed)
    for i in range(num_tables):
        codes = [rng.randrange(q) for _ in range(q)]
        jobs.append((f"random table {i}", TableFunction(field, codes)))
    first = None
    for label, F in jobs:
        res = check_prop_identity(F)
        if not res.holds:
            first = {"a": label, "b": "",
                     "predicted": res.rhs_24x, "observed": res.fbct_sum}
            break
    notes = [f"functions checked: {len(jobs)} "
             f"({q - 1} monomials, {num_tables} random tables)"]
    return {"num_random_tables": num_tables, "seed": seed}, len(jobs), first, notes


def _run_APN_IFF_FBCT0(theorem_id: str, field: Field, setting: dict, kw: dict):
    q = field.q
    first = None
    apn_count = 0
    for d in range(1, q):
        F = Monomial(field, d)
        apn = differential_uniformity(F) == 2
        fb_max = fbct_spectrum(F).uniformity
        if apn != (fb_max == 0):
            first = {"a": f"monomial d={d}", "b": "",
                     "predicted": 0 if apn else "nonzero somewhere",
                     "observed": fb_max}
            break
        if apn:
            apn_count += 1
    notes = [f"monomials checked: {q - 1}; APN among them: {apn_count}"]
    return {}, q - 1, first, notes


# ---------------------------------------------------------------------------
# the claim registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Claim:
    """Everything ``verify``, ``predict`` and ``THEOREMS`` know about one id.
    Its hypothesis is ``p``, the rule on the characteristic (a number is
    also the default p); ``n``, the parity and the least n (None: no rule;
    a least n of 0 is not printed), and a reason printed with them; and
    ``check``, any condition beyond both.  `_check` tests them in that
    order.  A per-cell claim gives ``row`` and keeps the generic ``run``;
    any other claim gives its own."""

    summary: str
    p: object = 2                      # 2, 3, "> 3" or "odd"; None: no field
    n: tuple = (None, None)            # (parity, least n[, reason])
    check: Callable[[dict], None] = lambda kw: None  # the remaining condition
    params: tuple = ("p", "n")         # the parameters the claim is stated in
    defaults: dict = dc_field(default_factory=dict)  # for those not given
    setting: Callable[[Field, dict], dict] = lambda field, kw: {}  # d, t, m, k
    build: Callable = _power_map       # the function checked, from its setting
    row: Optional[Callable] = None     # per-cell claims: the predicted row a
    label: str = _NONTRIVIAL           # note label of the observed maximum
    expect: Optional[Callable] = None  # expected-maximum check after the rows
    run: Callable = _compare_rows      # or a spectrum- or count-level check
    values: Optional[frozenset] = None  # membership claims: values off diagonal


CLAIMS = {
    "L1": Claim(
        summary="x^(2^n-2) on GF(2^n), n even: nontrivial cells are 0 "
                "except value 4 exactly at a in {b*w, b*w^2}, w a "
                "primitive cube root of unity",
        n=("even", 0),
        setting=lambda f, kw: {"d": f.q - 2},
        row=_homogeneous(_inverse_row1), label=_OFF_DIAGONAL),
    "L2": Claim(
        summary="x^(2^n-2) on GF(2^n), n odd: every cell with "
                "a,b nonzero and a != b is 0",
        n=("odd", 0),
        setting=lambda f, kw: {"d": f.q - 2},
        row=_homogeneous(_inverse_row1), label=_OFF_DIAGONAL),
    "T1": Claim(
        summary="x^((2q-1)/3) on GF(q), q = p^n ≡ 2 (mod 3), p odd: "
                "every cell with ab != 0 equals 1",
        p="odd", n=(None, 1), check=_check_T1,
        setting=lambda f, kw: {"d": (2 * f.q - 1) // 3},
        row=_homogeneous(lambda f, t: np.ones(f.q, dtype=np.int64))),
    "T2": Claim(
        summary="x^((p^k+1)/2) on GF(p^n), p > 3, gcd(k, 2n) = 1: "
                "nontrivial values lie in {0, 1, (p-3)/2} with maximum "
                "(p-3)/2 (checked at the spectrum level)",
        params=("p", "n", "k"),
        p="> 3", check=_check_T2, defaults={"k": 1},
        # p^k mod 2(q-1) is odd, so halving it gives (p^k+1)/2 mod q-1
        setting=lambda f, kw: {"k": kw["k"], "d": canonical_exponent(
            f.q, (pow(f.p, kw["k"], 2 * (f.q - 1)) + 1) // 2)},
        run=_run_T2),
    "T3": Claim(
        summary="x^4 on GF(p^n), p > 3, n > 1: cell value for ab != 0 is "
                "1 + eta(-(a^2+b^2)/3)",
        p="> 3", n=(None, 2),
        setting=lambda f, kw: {"d": 4},
        row=_homogeneous(_fourth_power_row1),
        expect=_maximum("maximum over ab != 0", lambda s: 2)),
    "T4": Claim(
        summary="x^((3^n-1)/2+2) on GF(3^n), n odd: cell value for "
                "ab != 0 is 1 or 3 according to the signs of eta(ab) and "
                "eta(a^2+b^2); maximum 3",
        p=3, n=("odd", None),
        setting=lambda f, kw: {"d": (f.q - 1) // 2 + 2},
        row=_homogeneous(_ternary_row1),
        expect=_maximum("maximum over ab != 0", lambda s: 3)),
    "THMT": Claim(
        summary="x^(2^t-1) on GF(2^n), 0 < t < n: row-one values "
                "classified through B = (b^(2^t)+b)/(b(b+1)) and the "
                "kernel dimension of x^(2^t)+Bx^2+(B+1)x; other rows "
                "follow by monomial homogeneity",
        params=("p", "n", "t"),
        check=functools.partial(_t_inside, "THMT"),
        setting=lambda f, kw: _mersenne(f, kw["t"]),
        row=_homogeneous(_thmt_row1), label=_BETA,
        expect=_below_differential_uniformity),
    "C_F1": Claim(
        summary="x^(2^m-1) on GF(2^(2m)), m > 2: F-boomerang uniformity "
                "2^m-4, attained on the b with b^(2^m-1) = 1",
        n=("even", None), check=functools.partial(
            _check_m, "C_F1", "the m = 2 function is APN and the special b-sets degenerate"),
        setting=lambda f, kw: _mersenne(f, f.n // 2, with_m=True),
        row=_homogeneous(_cf1_row1), label=_BETA,
        expect=_maximum("F-boomerang uniformity", lambda s: 2 ** s["m"] - 4)),
    "C_F1_VB": Claim(
        summary="vanishing-flat count of x^(2^m-1) on GF(2^(2m)): "
                "(2^(m-2)-1)(2^(m-1)-1)(2^n-1)/3, plus (2^n-1)/3 when m "
                "is odd",
        n=("even", 4),
        setting=lambda f, kw: _mersenne(f, f.n // 2),
        run=_run_vb),
    "C_F2": Claim(
        summary="x^(2^m-1) on GF(2^(2m+1)), m > 2: F-boomerang "
                "uniformity 8 if m ≡ 1 (mod 3), else 4",
        n=("odd", None), check=functools.partial(
            _check_m, "C_F2", "for m = 2 the value-4 set is empty and the function is APN"),
        setting=lambda f, kw: _mersenne(f, (f.n - 1) // 2, with_m=True),
        row=_homogeneous(lambda f, m: _s6_row1(f, m, 2 ** m - 2, 8, m % 3 == 1)),
        label=_BETA,
        expect=_maximum("F-boomerang uniformity",
                        lambda s: 8 if s["m"] % 3 == 1 else 4)),
    "C_F2_VB": Claim(
        summary="vanishing-flat count of x^(2^m-1) on GF(2^(2m+1)) "
                "written in terms of the Kloosterman sum K(1)",
        n=("odd", 3),
        setting=lambda f, kw: _mersenne(f, (f.n - 1) // 2),
        run=_run_vb),
    "C_F3": Claim(
        summary="x^(2^t-1) on GF(2^n), n odd, t = (n+3)/2: F-boomerang "
                "uniformity 4",
        n=("odd", 7, "for n = 5 the value-4 sets are empty and the function is APN"),
        setting=lambda f, kw: _mersenne(f, (f.n + 3) // 2),
        row=_homogeneous(lambda f, t: _s6_row1(f, t, 2 ** t - 1, 4, f.n % 3 == 0)),
        label=_BETA,
        expect=_maximum("F-boomerang uniformity", lambda s: 4)),
    "C_F3_VB": Claim(
        summary="vanishing-flat count of x^(2^t-1) on GF(2^n), n odd, "
                "t = (n+3)/2, written in terms of K(1)",
        n=("odd", 5),
        setting=lambda f, kw: _mersenne(f, (f.n + 3) // 2),
        run=_run_vb),
    "T6": Claim(
        summary="x^(2^n-2) + Tr(x^2/(x+1)) on GF(2^n), n even: "
                "nontrivial values lie in {0, 4, 8}, classified by "
                "explicit trace conditions",
        n=("even", 4),
        build=lambda f, setting: InversePlusTrace(f),
        row=_t6_row, label=_BETA, expect=_bound_attained),
    "T7": Claim(
        summary="1/(x + g*Tr(x^(2^t+1))) on GF(2^n) for admissible "
                "(t, g) (g nonzero in the 2^(2t)-element subfield meet, "
                "Tr(g^(2^t+1)) = 0): nontrivial values lie in {0, 4, 8}",
        params=("p", "n", "t", "gamma"),
        check=_check_T7,
        run=_run_T7, values=_T7_VALUES),
    "TABLE1": Claim(
        summary="catalogue of power maps in odd characteristic with a "
                "claimed second-order zero differential uniformity; each "
                "row's maximum is recomputed on small admissible fields",
        params=(), p=None,
        run=_run_TABLE1),
    "PROP_VB": Claim(
        summary="for every function on GF(2^n) the nontrivial "
                "second-order spectrum sums to 24 times the "
                "vanishing-flat count",
        params=("p", "n", "num_random_tables", "seed"),
        n=(None, 2), run=_run_PROP_VB),
    "APN_IFF_FBCT0": Claim(
        summary="a function on GF(2^n) is APN exactly when its "
                "second-order spectrum vanishes off the trivial cells; "
                "checked in both directions across all monomials",
        n=(None, 2), run=_run_APN_IFF_FBCT0),
}

#: Supported claim ids mapped to a hypothesis summary and accepted parameters.
THEOREMS = {tid: {"summary": c.summary, "params": c.params}
            for tid, c in CLAIMS.items()}


def _claim(theorem_id: str) -> Claim:
    claim = CLAIMS.get(theorem_id)
    if claim is None:
        known = ", ".join(sorted(CLAIMS))
        raise ValueError(f"unknown theorem id {theorem_id!r}; known ids: {known}")
    return claim


def _arguments(claim: Claim, **given) -> dict:
    """Every parameter a check may read, with the claim's defaults filled in
    where none was given: p is the one the claim is stated for, if any."""
    kw = dict.fromkeys(("p", "n", "modulus", "t", "k", "gamma"))
    kw.update(given)
    stated = {"p": claim.p} if isinstance(claim.p, int) else {}
    kw.update({name: val for name, val in {**stated, **claim.defaults}.items()
               if kw[name] is None})
    return kw


# ---------------------------------------------------------------------------
# public entry points
# ---------------------------------------------------------------------------

def predict(theorem_id: str, a: FieldElement, b: FieldElement, *,
            t: Optional[int] = None):
    """Closed-form predicted cell value at (a, b), read off the claim's
    predicted row a under the same hypotheses ``verify`` checks.

    For T7 the claim is membership only, so the nontrivial prediction is the
    frozen set {0, 4, 8}; every other supported id yields an integer.  T2 has
    no per-cell form and raises :class:`HypothesisError`.
    """
    claim = _claim(theorem_id)
    if theorem_id == "T2":
        raise HypothesisError(
            "T2 has no per-cell predictor (its branch conditions are not "
            "pinned to explicit cells); verify it at the spectrum level")
    if claim.row is None and claim.values is None:
        raise ValueError(f"id {theorem_id!r} has no per-cell predictor")
    field = a.field
    if b.field != field:
        raise ValueError("a and b live in different fields")
    kw = _arguments(claim, p=field.p, n=field.n, t=t)
    _check(theorem_id, claim, kw)
    q = field.q
    if a.code == 0 or b.code == 0:
        return q
    if claim.values is not None:
        return q if a.code == b.code else claim.values
    t = claim.setting(field, kw).get("t")
    return int(_predicted_row(theorem_id, field, t, a.code)[b.code])


def verify(theorem_id: str, *, p: Optional[int] = None,
           n: Optional[int] = None, modulus=None, t: Optional[int] = None,
           k: Optional[int] = None, gamma=None, num_random_tables: int = 50,
           seed: int = 0) -> TheoremVerdict:
    """Recompute the object a claim is about and compare it cell by cell
    (or count by count) with the claim's closed form.

    Returns a :class:`TheoremVerdict`; parameters violating the claim's
    hypotheses produce ``status == "hypothesis_error"`` with the violated
    condition in ``notes``.
    """
    claim = _claim(theorem_id)
    given = {"p": p, "n": n, "modulus": modulus, "t": t, "k": k,
             "gamma": gamma}
    accepted = set(claim.params) | ({"modulus"} if "n" in claim.params else set())
    for name, val in given.items():
        if val is not None and name not in accepted:
            raise ValueError(
                f"parameter {name!r} is not used by theorem {theorem_id}")
    kw = _arguments(claim, **given, num_random_tables=num_random_tables,
                    seed=seed)
    start = time.perf_counter()
    try:
        _check(theorem_id, claim, kw)
        field = (make_field(kw["p"], kw["n"], modulus)
                 if "n" in claim.params else None)
        setting = claim.setting(field, kw)
        extra, cells, first, notes = claim.run(theorem_id, field, setting, kw)
        params = extra if field is None else {
            "p": field.p, "n": field.n, "modulus": field.modulus_text(),
            **extra}
        status = "passed" if first is None else "failed"
    except HypothesisError as exc:
        params = {name: val for name, val in given.items()
                  if val is not None and name != "gamma"}
        if gamma is not None:
            params["gamma"] = getattr(gamma, "text", str(gamma))
        cells, first, status = 0, None, "hypothesis_error"
        notes = [f"hypothesis not satisfied: {exc}"]
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return TheoremVerdict(theorem_id=theorem_id, params=params, status=status,
                          cells_checked=cells, first_mismatch=first,
                          elapsed_ms=elapsed_ms, notes=tuple(notes))
