"""Count claims: the vanishing-flat formulas of C_F1_VB-C_F3_VB and their S_6
sizes, and PROP_VB's mass identity, each against its enumeration.  A claim's
code is the function named by its id; `closed_forms` loads the module on use."""

from __future__ import annotations

import random
from fractions import Fraction

from .algebra import kloosterman
from .closed_forms import CLAIMS, HypothesisError, _arguments, _check
from .field import Field
from .flats import check_prop_identity, vanishing_flats
from .functions import Monomial, TableFunction


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
    if claim is None or globals().get(theorem_id) is not _run_vb:
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


def _run_vb(theorem_id: str, field: Field, setting: dict, kw: dict):
    """The enumerated vanishing-flat count, then (C_F2_VB, C_F3_VB) the size
    of S_6 by direct count, each against its formula; stops at the first
    that differs."""
    claimed = vanishing_count_formula(theorem_id, field.n)
    enumerated = vanishing_flats(Monomial(field, setting["d"])).vanishing_count
    notes = [f"enumerated vanishing flats: {enumerated}"]
    if enumerated != claimed:
        return setting, 1, {"a": "vanishing-flat count", "b": "",
                            "predicted": claimed, "observed": enumerated}, notes
    if theorem_id == "C_F1_VB":
        return setting, 1, None, notes
    from .cell_claims import _s6_mask  # the value-4 set of C_F2 and C_F3 rows
    s6_direct = int(_s6_mask(field, setting["t"]).sum())
    s6_claimed = s6_count_formula(theorem_id, field.n)
    notes.append(f"S_6 size by direct count: {s6_direct}")
    first = None
    if s6_direct != s6_claimed:
        first = {"a": "S_6 size", "b": "",
                 "predicted": s6_claimed, "observed": s6_direct}
    return setting, 2, first, notes


C_F1_VB = C_F2_VB = C_F3_VB = _run_vb


def PROP_VB(theorem_id: str, field: Field, setting: dict, kw: dict):
    q = field.q
    num_tables, seed = kw["num_random_tables"], kw["seed"]
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
