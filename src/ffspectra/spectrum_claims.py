"""Spectrum-level claims: T2's and T7's value sets, TABLE1's catalogue of
maxima and APN_IFF_FBCT0, each read off whole spectra.  A claim's code is the
function named by its id; `closed_forms` loads the module on use."""

from __future__ import annotations

import math

import numpy as np

from .closed_forms import CLAIMS, _NONTRIVIAL, HypothesisError, _maximum, _mismatch
from .field import Field, InvariantError, make_field
from .functions import (FunctionError, GammaTraceInverse, Monomial, canonical_exponent,
                        gamma_conditions)
from .spectra import _trivial, differential_uniformity, fbct_rows, fbct_spectrum, orbit_rows


def _first_outside(F, allowed) -> tuple:
    """(cells, mismatch) at the first nontrivial FBCT cell (a, b), in
    row-major order, whose value is not in ``allowed``, where cells =
    (a - 1)(q - 1) + b counts it; called only once the histogram shows
    such a value.  The representatives are walked in ascending order, as in
    `cell_claims.Rows`, which says why the first offending row is one."""
    f, one_of = F.field, "one of {" + ", ".join(map(str, sorted(allowed))) + "}"
    for a, row in fbct_rows(F, [a for a, _ in orbit_rows(F)]):
        outside = ~np.isin(row, sorted(allowed))
        outside[_trivial(f, a)] = False
        hit = np.flatnonzero(outside)
        if hit.size:
            b = int(hit[0])
            return (a - 1) * (f.q - 1) + b, _mismatch(f, a, b, one_of, int(row[b]))
    raise InvariantError(f"the histogram of {F.text()} holds a value outside "
                         f"{one_of} that no row holds")


def T2(theorem_id: str, field: Field, setting: dict, kw: dict):
    """Value set and maximum of the nontrivial spectrum, with its histogram."""
    q = field.q
    F = Monomial(field, setting["d"])
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


def _admissible_gammas(field: Field, t: int) -> list:
    """The nonzero codes that meet both `gamma_conditions` at t."""
    gs = np.arange(1, field.q, dtype=np.int64)
    fixed, traceless = gamma_conditions(field, t, gs)
    return gs[fixed & traceless].tolist()


_T7_VALUES = CLAIMS["T7"].values


def T7(theorem_id: str, field: Field, setting: dict, kw: dict):
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


def TABLE1(theorem_id: str, field, setting: dict, kw: dict):
    cells, notes, first = 0, [], None
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


def APN_IFF_FBCT0(theorem_id: str, field: Field, setting: dict, kw: dict):
    q = field.q
    first, apn_count = None, 0
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
