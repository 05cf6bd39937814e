"""The claim registry: what each of the eighteen closed-form claims states,
and ``verify`` and ``predict``, which check it against brute force.

Each claim is one :class:`Claim` record in ``CLAIMS`` (``THEOREMS`` is its
summary view): its hypothesis, tested by one `_check`, and the family module
that holds its code, `cell_claims`, `count_claims` or `spectrum_claims`,
which runs only when one of its claims is verified or predicted.
Hypothesis violations are reported as a distinct verdict state, never as
cell mismatches.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

from .field import _TABLE_LIMIT, Field, FieldElement, make_field
from .functions import canonical_exponent

__all__ = ["HypothesisError", "TheoremVerdict", "THEOREMS", "predict", "verify"]


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


#: Note label of the observed maximum over the nontrivial cells.
_NONTRIVIAL = "observed nontrivial maximum"


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


def _mersenne(field: Field, t: int, with_m: bool = False) -> dict:
    """Verdict params of x^(2^t-1): t, the exponent d and, for the claims
    stated in m, m = t."""
    return {"t": t, "d": canonical_exponent(field.q, 2 ** t - 1), **({"m": t} if with_m else {})}


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
    order.  Its code is the name of its id in the ``family`` module, called
    as (theorem_id, field, setting, kw) -> (params, cells, first, notes)."""

    summary: str
    family: str                        # "cell_claims", "count_claims" or "spectrum_claims"
    p: object = 2                      # 2, 3, "> 3" or "odd"; None: no field
    n: tuple = (None, None)            # (parity, least n[, reason])
    check: Callable[[dict], None] = lambda kw: None  # the remaining condition
    params: tuple = ("p", "n")         # the parameters the claim is stated in
    defaults: dict = dc_field(default_factory=dict)  # for those not given
    setting: Callable[[Field, dict], dict] = lambda field, kw: {}  # d, t, m, k
    values: Optional[frozenset] = None  # membership claims: values off diagonal


CLAIMS = {
    "L1": Claim(
        summary="x^(2^n-2) on GF(2^n), n even: nontrivial cells are 0 "
                "except value 4 exactly at a in {b*w, b*w^2}, w a "
                "primitive cube root of unity",
        family="cell_claims", n=("even", 0),
        setting=lambda f, kw: {"d": f.q - 2}),
    "L2": Claim(
        summary="x^(2^n-2) on GF(2^n), n odd: every cell with "
                "a,b nonzero and a != b is 0",
        family="cell_claims", n=("odd", 0),
        setting=lambda f, kw: {"d": f.q - 2}),
    "T1": Claim(
        summary="x^((2q-1)/3) on GF(q), q = p^n ≡ 2 (mod 3), p odd: "
                "every cell with ab != 0 equals 1",
        family="cell_claims", p="odd", n=(None, 1), check=_check_T1,
        setting=lambda f, kw: {"d": (2 * f.q - 1) // 3}),
    "T2": Claim(
        summary="x^((p^k+1)/2) on GF(p^n), p > 3, gcd(k, 2n) = 1: "
                "nontrivial values lie in {0, 1, (p-3)/2} with maximum "
                "(p-3)/2 (checked at the spectrum level)",
        family="spectrum_claims", params=("p", "n", "k"),
        p="> 3", check=_check_T2, defaults={"k": 1},
        # p^k mod 2(q-1) is odd, so halving it gives (p^k+1)/2 mod q-1
        setting=lambda f, kw: {"k": kw["k"], "d": canonical_exponent(
            f.q, (pow(f.p, kw["k"], 2 * (f.q - 1)) + 1) // 2)}),
    "T3": Claim(
        summary="x^4 on GF(p^n), p > 3, n > 1: cell value for ab != 0 is "
                "1 + eta(-(a^2+b^2)/3)",
        family="cell_claims", p="> 3", n=(None, 2),
        setting=lambda f, kw: {"d": 4}),
    "T4": Claim(
        summary="x^((3^n-1)/2+2) on GF(3^n), n odd: cell value for "
                "ab != 0 is 1 or 3 according to the signs of eta(ab) and "
                "eta(a^2+b^2); maximum 3",
        family="cell_claims", p=3, n=("odd", None),
        setting=lambda f, kw: {"d": (f.q - 1) // 2 + 2}),
    "THMT": Claim(
        summary="x^(2^t-1) on GF(2^n), 0 < t < n: row-one values "
                "classified through B = (b^(2^t)+b)/(b(b+1)) and the "
                "kernel dimension of x^(2^t)+Bx^2+(B+1)x; other rows "
                "follow by monomial homogeneity",
        family="cell_claims", params=("p", "n", "t"),
        check=functools.partial(_t_inside, "THMT"),
        setting=lambda f, kw: _mersenne(f, kw["t"])),
    "C_F1": Claim(
        summary="x^(2^m-1) on GF(2^(2m)), m > 2: F-boomerang uniformity "
                "2^m-4, attained on the b with b^(2^m-1) = 1",
        family="cell_claims", n=("even", None), check=functools.partial(
            _check_m, "C_F1", "the m = 2 function is APN and the special b-sets degenerate"),
        setting=lambda f, kw: _mersenne(f, f.n // 2, with_m=True)),
    "C_F1_VB": Claim(
        summary="vanishing-flat count of x^(2^m-1) on GF(2^(2m)): "
                "(2^(m-2)-1)(2^(m-1)-1)(2^n-1)/3, plus (2^n-1)/3 when m "
                "is odd",
        family="count_claims", n=("even", 4),
        setting=lambda f, kw: _mersenne(f, f.n // 2)),
    "C_F2": Claim(
        summary="x^(2^m-1) on GF(2^(2m+1)), m > 2: F-boomerang "
                "uniformity 8 if m ≡ 1 (mod 3), else 4",
        family="cell_claims", n=("odd", None), check=functools.partial(
            _check_m, "C_F2", "for m = 2 the value-4 set is empty and the function is APN"),
        setting=lambda f, kw: _mersenne(f, (f.n - 1) // 2, with_m=True)),
    "C_F2_VB": Claim(
        summary="vanishing-flat count of x^(2^m-1) on GF(2^(2m+1)) "
                "written in terms of the Kloosterman sum K(1)",
        family="count_claims", n=("odd", 3),
        setting=lambda f, kw: _mersenne(f, (f.n - 1) // 2)),
    "C_F3": Claim(
        summary="x^(2^t-1) on GF(2^n), n odd, t = (n+3)/2: F-boomerang "
                "uniformity 4",
        family="cell_claims",
        n=("odd", 7, "for n = 5 the value-4 sets are empty and the function is APN"),
        setting=lambda f, kw: _mersenne(f, (f.n + 3) // 2)),
    "C_F3_VB": Claim(
        summary="vanishing-flat count of x^(2^t-1) on GF(2^n), n odd, "
                "t = (n+3)/2, written in terms of K(1)",
        family="count_claims", n=("odd", 5),
        setting=lambda f, kw: _mersenne(f, (f.n + 3) // 2)),
    "T6": Claim(
        summary="x^(2^n-2) + Tr(x^2/(x+1)) on GF(2^n), n even: "
                "nontrivial values lie in {0, 4, 8}, classified by "
                "explicit trace conditions",
        family="cell_claims", n=("even", 4)),
    "T7": Claim(
        summary="1/(x + g*Tr(x^(2^t+1))) on GF(2^n) for admissible "
                "(t, g) (g nonzero in the 2^(2t)-element subfield meet, "
                "Tr(g^(2^t+1)) = 0): nontrivial values lie in {0, 4, 8}",
        family="spectrum_claims", params=("p", "n", "t", "gamma"),
        check=_check_T7, values=frozenset({0, 4, 8})),
    "TABLE1": Claim(
        summary="catalogue of power maps in odd characteristic with a "
                "claimed second-order zero differential uniformity; each "
                "row's maximum is recomputed on small admissible fields",
        family="spectrum_claims", params=(), p=None),
    "PROP_VB": Claim(
        summary="for every function on GF(2^n) the nontrivial "
                "second-order spectrum sums to 24 times the "
                "vanishing-flat count",
        family="count_claims", params=("p", "n", "num_random_tables", "seed"),
        n=(None, 2)),
    "APN_IFF_FBCT0": Claim(
        summary="a function on GF(2^n) is APN exactly when its "
                "second-order spectrum vanishes off the trivial cells; "
                "checked in both directions across all monomials",
        family="spectrum_claims", n=(None, 2)),
}

#: Supported claim ids mapped to a hypothesis summary and accepted parameters.
THEOREMS = {tid: {"summary": c.summary, "params": c.params}
            for tid, c in CLAIMS.items()}


def _claim(theorem_id: str) -> Claim:
    claim = CLAIMS.get(theorem_id)
    if claim is None:
        raise ValueError(f"unknown theorem id {theorem_id!r}; known ids: {', '.join(sorted(CLAIMS))}")
    return claim


def _code(theorem_id: str, claim: Claim):
    """The name ``theorem_id`` in the claim's family module, which runs on first
    use.  A claim names its family: a lazy module among the registry's globals
    would run as soon as code walking them (a tracer wrapping each layer) met it."""
    return getattr(getattr(sys.modules[__package__], claim.family), theorem_id)


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
    if claim.family != "cell_claims" and claim.values is None:
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
    return int(_code(theorem_id, claim).predicted(field, t, a.code)[b.code])


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
        extra, cells, first, notes = _code(theorem_id, claim)(theorem_id, field, setting, kw)
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
