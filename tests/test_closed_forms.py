"""Closed-form verifiers: count formulas, per-cell predictors, verdicts."""

import dataclasses
import itertools
import json
import math
import random
import time
import types
from collections import Counter

import numpy as np
import pytest

from ffspectra import algebra, cell_claims, count_claims, spectra, spectrum_claims
from ffspectra.algebra import kloosterman, linearized_kernel_dim
from ffspectra.closed_forms import (CLAIMS, THEOREMS, HypothesisError, _arguments, _check,
                                   predict, verify)
from ffspectra.count_claims import s6_count_formula, vanishing_count_formula
from ffspectra.spectrum_claims import _admissible_gammas, _first_outside
from ffspectra.field import FieldError, InvariantError, make_field, omega
from ffspectra.flats import count_two_flats, vanishing_flats
from ffspectra.functions import (GammaTraceInverse, InversePlusTrace, Monomial,
                                 TableFunction, canonical_exponent)
from ffspectra.spectra import ddt_row_counts, fbct_rows, fbct_spectrum, orbit_rows
import oracles as ref
from oracles import fbct_entry


# --- Kloosterman sums -------------------------------------------------------

def test_kloosterman_frozen_values():
    # n=1..4 recomputable by hand; the larger ones are frozen regression pins
    for n, val in [(1, 2), (2, 4), (3, -4), (7, -12), (9, -4), (10, -56),
                   (11, 68)]:
        assert kloosterman(n, "direct") == val


def test_kloosterman_methods_agree():
    for n in range(1, 17):
        assert kloosterman(n, "direct") == kloosterman(n, "carlitz")


def test_kloosterman_validation():
    with pytest.raises(ValueError):
        kloosterman(0)
    with pytest.raises(ValueError, match="n <= 4096"):
        kloosterman(4097, method="carlitz")
    with pytest.raises(ValueError):
        kloosterman(4, method="guess")


def test_kloosterman_closed_form_matches_its_fraction_oracle():
    for n in [*range(1, 601), 4096]:
        assert kloosterman(n, "carlitz") == ref.kloosterman_carlitz(n), n


def test_kloosterman_closed_form_remainder_is_a_program_fault(monkeypatch):
    monkeypatch.setattr(algebra, "math", types.SimpleNamespace(comb=lambda n, k: 1))
    with pytest.raises(InvariantError, match="n=4 is not an integer"):
        kloosterman(4, "carlitz")  # 1 - 7 + 49 = 43 is odd


# --- counting formulas ------------------------------------------------------

def test_vanishing_count_formula_frozen():
    assert [vanishing_count_formula("C_F1_VB", n) for n in (4, 6, 8, 10)] == \
        [0, 84, 1785, 36146]
    assert [vanishing_count_formula("C_F2_VB", n) for n in (3, 7, 9, 11)] == \
        [14, 889, 11753, 157619]
    assert [vanishing_count_formula("C_F3_VB", n) for n in (5, 7, 9, 11)] == \
        [0, 889, 11242, 157619]


def test_vanishing_count_formula_matches_enumeration():
    cases = [("C_F1_VB", 4, 2), ("C_F1_VB", 6, 3),
             ("C_F2_VB", 3, 1), ("C_F2_VB", 5, 2), ("C_F2_VB", 7, 3),
             ("C_F3_VB", 5, 4), ("C_F3_VB", 7, 5)]
    for tid, n, t in cases:
        f = make_field(2, n)
        F = Monomial(f, canonical_exponent(f.q, 2 ** t - 1))
        assert vanishing_count_formula(tid, n) == \
            vanishing_flats(F).vanishing_count
    # the n=3 member is the identity map, so every two-flat vanishes
    assert vanishing_count_formula("C_F2_VB", 3) == count_two_flats(3) == 14


def test_vanishing_count_formula_validation():
    with pytest.raises(HypothesisError):
        vanishing_count_formula("C_F1_VB", 5)
    with pytest.raises(HypothesisError):
        vanishing_count_formula("C_F2_VB", 4)
    with pytest.raises(HypothesisError):
        vanishing_count_formula("C_F3_VB", 3)
    with pytest.raises(ValueError):
        vanishing_count_formula("T1", 4)


def _count_outcome(formula, *args):
    try:
        return formula(*args)
    except HypothesisError as exc:
        return str(exc)


def test_count_formulas_in_ints_match_their_fraction_oracles(monkeypatch):
    """Every planted K(1) in [-64, 64] at every admissible n <= 40 gives the Fraction
    forms' count, or their inexact-division message."""
    kinds = Counter()
    for tid in ("C_F1_VB", "C_F2_VB", "C_F3_VB"):
        ns = [n for n in range(1, 41) if _count_outcome(
            _check, tid, CLAIMS[tid], _arguments(CLAIMS[tid], n=n)) is None]
        assert ns[0] == CLAIMS[tid].n[1] and len(ns) == (42 - ns[0]) // 2, ns
        formulas = [(vanishing_count_formula, ref.vanishing_count_formula, tid)]
        if tid != "C_F1_VB":
            formulas += [(s6_count_formula, ref.s6_count_formula, family)
                         for family in (tid, tid.removesuffix("_VB"))]
        for n, K in itertools.product(ns, range(-64, 65)):
            monkeypatch.setattr(count_claims, "kloosterman", lambda n, method, K=K: K)
            for formula, oracle, name in formulas:
                got = _count_outcome(formula, name, n)
                assert got == _count_outcome(oracle, name, n, K), (name, n, K)
                kinds[isinstance(got, str)] += 1
    assert kinds[True] > 1000 and kinds[False] > 1000, kinds


def test_s6_count_formula_frozen():
    for tid in ("C_F2", "C_F3"):
        assert [s6_count_formula(tid, n) for n in (7, 9, 11)] == [42, 126, 462]
    assert s6_count_formula("C_F2", 5) == 0
    assert s6_count_formula("C_F3", 5) == 0
    with pytest.raises(HypothesisError):
        s6_count_formula("C_F2", 4)
    with pytest.raises(ValueError):
        s6_count_formula("L1", 7)


# --- per-cell predictors ----------------------------------------------------

def test_predict_inverse_even_n_full_grid():
    f = make_field(2, 4)
    F = Monomial(f, 14)
    w = omega(f).code
    w2 = f.mul_code(w, w)
    for a in range(f.q):
        for b in range(f.q):
            pred = predict("L1", f.from_code(a), f.from_code(b))
            assert pred == fbct_entry(F, a, b)
            if a and b and a != b:
                assert pred == (4 if a in (f.mul_code(b, w),
                                           f.mul_code(b, w2)) else 0)
            else:
                assert pred == f.q


def test_predict_fourth_power_full_grid():
    f = make_field(5, 2)
    F = Monomial(f, 4)
    for a in range(f.q):
        for b in range(f.q):
            assert predict("T3", f.from_code(a), f.from_code(b)) == \
                fbct_entry(F, a, b)


def test_predict_membership_and_errors():
    f16 = make_field(2, 4)
    one = f16.one
    two = f16.from_code(2)
    assert predict("T7", one, two) == frozenset({0, 4, 8})
    assert predict("T7", one, one) == 16
    with pytest.raises(HypothesisError):
        predict("T2", one, two)  # no per-cell form exists
    with pytest.raises(ValueError):
        predict("NOPE", one, two)
    with pytest.raises(ValueError):
        predict("C_F1_VB", one, two)  # count-level claim, not per-cell
    with pytest.raises(ValueError):
        predict("THMT", one, two)  # t is required
    with pytest.raises(ValueError):
        predict("L1", one, make_field(2, 5).one)
    with pytest.raises(HypothesisError):
        predict("L1", make_field(2, 5).one, make_field(2, 5).from_code(2))
    for tid, n in [("C_F1", 4), ("C_F2", 5), ("C_F3", 5)]:
        f = make_field(2, n)  # the APN members verify has always rejected
        with pytest.raises(HypothesisError, match="APN"):
            predict(tid, f.one, f.from_code(2))


def _thmt_by_kernel_dims(field, t, Bs) -> dict:
    """THMT's row-one value at each B in Bs, by one Gaussian elimination
    (`linearized_kernel_dim`) per B: the oracle for the root count."""
    n = field.n
    return {B: 2 ** math.gcd(t, n) - 4 if B == 0
            else 2 ** math.gcd(t - 1, n) if B == 1
            else max(2 ** linearized_kernel_dim(t, field.from_code(B)) - 4, 0)
            for B in Bs}


@pytest.mark.parametrize("n", range(2, 11))
def test_thmt_row_one_equals_one_kernel_per_B(n):
    f = make_field(2, n)
    for t in range(1, n):
        B = cell_claims._b_map(f, t)[0].tolist()
        want = _thmt_by_kernel_dims(f, t, set(B))
        assert cell_claims._thmt_row1(f, t).tolist() == [want[b] for b in B], t


@pytest.mark.parametrize("t", [5, 8])
def test_thmt_root_count_is_the_kernel_at_n16(t):
    """|ker L_B| = 2 + #{x outside {0, 1} : B(x) = B}, at 200 seeded B plus
    0 and 1; and row one agrees with the per-B oracle wherever B(c) is one
    of them."""
    f = make_field(2, 16)
    rng = np.random.default_rng(16 + t)
    sample = np.concatenate([[0, 1], rng.integers(2, f.q, 200)])
    Bc, count = cell_claims._b_map(f, t)
    roots = 2 + count
    for B in sample.tolist():
        assert roots[B] == 2 ** linearized_kernel_dim(t, f.from_code(B)), B
    cells = np.flatnonzero(np.isin(Bc, sample))
    want = _thmt_by_kernel_dims(f, t, set(Bc[cells].tolist()))
    got = cell_claims._thmt_row1(f, t)[cells]
    assert cells.size > 2 and got.tolist() == [want[b] for b in Bc[cells].tolist()]


@pytest.mark.parametrize("n", range(2, 13))
def test_root_count_at_B_0_and_1(n):
    """The kernels that THMT states outright are read off the root count too:
    x^(2^t) = x has 2^gcd(t, n) roots, x^(2^t) = x^2 has 2^gcd(t-1, n)."""
    f = make_field(2, n)
    for t in range(1, n):
        count = cell_claims._b_map(f, t)[1]
        assert 2 + count[0] == 2 ** math.gcd(t, n), t
        assert 2 + count[1] == 2 ** math.gcd(t - 1, n), t


@pytest.mark.parametrize("n", range(3, 14))
def test_s6_mask_is_the_row_one_ddt_count(n):
    """S_6 against the DDT definition: b with B(b) outside {0, 1} and
    delta(1, B(b)) = 6 for x^(2^t-1)."""
    f = make_field(2, n)
    for t in range(1, n):
        B = cell_claims._b_map(f, t)[0]
        drow = ddt_row_counts(Monomial(f, 2 ** t - 1), 1)
        want = (B != 0) & (B != 1) & (drow[B] == 6)
        assert np.array_equal(cell_claims._s6_mask(f, t), want), t


# --- verify: parameter policing and hypothesis gating -----------------------

def test_verify_rejects_unused_parameters():
    with pytest.raises(ValueError):
        verify("L1", p=2, n=4, t=3)
    with pytest.raises(ValueError):
        verify("TABLE1", p=5)
    with pytest.raises(ValueError):
        verify("L1", p=2, n=4, gamma="1")
    with pytest.raises(ValueError):
        verify("NOPE")


@pytest.mark.parametrize("tid,kwargs", [
    ("T1", dict(p=7, n=1)),       # 7 ≡ 1 (mod 3)
    ("T1", dict(p=5)),            # n missing
    ("T2", dict(p=3, n=2)),       # needs p > 3
    ("T2", dict(p=5, n=2, k=2)),  # gcd(k, 2n) != 1
    ("T4", dict(n=2)),            # needs odd n
    ("THMT", dict(n=6)),          # t missing
    ("THMT", dict(n=6, t=0)),
    ("THMT", dict(n=6, t=6)),
    ("C_F1", dict(n=4)),          # m = 2 member is APN
    ("C_F2", dict(n=5)),
    ("C_F3", dict(n=5)),
    ("L1", dict(p=2, n=5)),
    ("L2", dict(p=2, n=4)),
    ("T7", dict(n=4, t=4)),
    ("PROP_VB", dict(p=3, n=2)),
    ("T1", dict(p=3, n=-1)),      # pow(3, -1, 3) has no value
])
def test_hypothesis_errors(tid, kwargs):
    v = verify(tid, **kwargs)
    assert v.status == "hypothesis_error"
    assert not v.passed
    assert v.cells_checked == 0 and v.first_mismatch is None
    assert v.notes and v.notes[0].startswith("hypothesis not satisfied:")


@pytest.mark.parametrize("tid,kwargs", [
    ("L1", dict(n=0)), ("T2", dict(p=5, n=0)), ("T4", dict(n=-1)), ("T7", dict(n=0))])
def test_n_below_one_is_a_hypothesis_verdict_not_a_field_error(tid, kwargs):
    v = verify(tid, **kwargs)
    assert v.status == "hypothesis_error"
    assert list(v.notes) == [f"hypothesis not satisfied: {tid} requires n >= 1, "
                             f"got n={kwargs['n']}"]


def test_t1_congruence_at_huge_n_is_a_prompt_hypothesis_verdict():
    start = time.perf_counter()
    v = verify("T1", p=5, n=10 ** 7)
    assert time.perf_counter() - start < 1.0
    assert v.status == "hypothesis_error"
    assert list(v.notes) == ["hypothesis not satisfied: T1 requires "
                             "p^n ≡ 2 (mod 3), got p^n=5^10000000"]
    assert verify("T1", p=5, n=2).notes[0].endswith("got p^n=25")


def test_inadmissible_gamma_is_a_hypothesis_error():
    f = make_field(2, 4)
    bad = next(g for g in range(1, f.q)
               if ref.trace(f, f.pow_code(g, 3)) != 0)
    v = verify("T7", n=4, t=1, gamma=f.from_code(bad))
    assert v.status == "hypothesis_error"
    assert v.params["gamma"] == f.from_code(bad).text


def test_gamma_from_another_field_is_a_field_error():
    """gamma is coerced with `Field.element`, which refuses an element of
    GF(2^4) in GF(2^6) instead of reading its code there."""
    with pytest.raises(FieldError, match="different field"):
        verify("T7", n=6, t=2, gamma=make_field(2, 4).from_code(3))


# --- verify: verdicts on concrete fields ------------------------------------

def test_inverse_map_verdicts():
    v = verify("L1", p=2, n=4)
    assert v.passed and v.cells_checked == 225 and v.first_mismatch is None
    assert verify("L2", p=2, n=5).passed


def test_half_power_verdict_passes_on_small_primes():
    # the histograms are frozen pins, recomputed with fbct_row_counts
    for p, n, hist in [(5, 2, "1: 576"), (7, 2, "0: 1152, 1: 96, 2: 1056")]:
        v = verify("T2", p=p, n=n)
        assert v.passed, (p, n, v.first_mismatch)
        assert v.params["k"] == 1
        assert v.notes[0] == f"observed nontrivial value histogram: {hist}"


def test_half_power_claim_fails_on_gf11():
    """The claimed value set {0, 1, (p-3)/2} is wrong on GF(11): the observed
    nontrivial spectrum is {0: 40, 2: 60}, so the maximum is 2, not 4.  The
    verifier must report this honestly rather than pass."""
    v = verify("T2", p=11, n=1)
    assert v.status == "failed"
    assert not v.passed
    assert v.first_mismatch == {"a": "1", "b": "1",
                                "predicted": "one of {0, 1, 4}",
                                "observed": 2}
    assert v.notes[0] == "observed nontrivial value histogram: 0: 40, 2: 60"
    assert "not attained" in v.notes[1]


def test_half_power_requires_positive_k():
    """gcd(-1, 2n) = 1, so only the k >= 1 check stops a negative k; k = 0
    still stops at the gcd check."""
    v = verify("T2", p=5, n=1, k=-1)
    assert v.status == "hypothesis_error" and v.cells_checked == 0
    assert v.notes == ("hypothesis not satisfied: T2 requires k >= 1, got k=-1",)
    assert "gcd(0, 2) = 2" in verify("T2", p=5, n=1, k=0).notes[0]
    assert verify("T2", p=5, n=2, k=3).params["k"] == 3


def test_half_power_exponent_from_p_to_the_k_mod_2_q_minus_1():
    """T2's d from p^k mod 2(q-1) is the d of (p^k+1)/2 formed in full, and
    a huge k no longer forms p^k."""
    setting = CLAIMS["T2"].setting
    for p, n in [(5, 1), (5, 2), (7, 1), (7, 3), (11, 2), (13, 1)]:
        f = make_field(p, n)
        for k in range(1, 10):
            assert setting(f, {"k": k})["d"] == canonical_exponent(f.q, (p ** k + 1) // 2), (p, n, k)
    start = time.perf_counter()
    v = verify("T2", p=5, n=1, k=20000001)
    assert time.perf_counter() - start < 2
    assert v.params["k"] == 20000001 and v.status != "hypothesis_error"


def test_trace_perturbed_inverse_bound_not_attained_note():
    v = verify("T6", n=4)
    assert v.passed
    assert any("bound not attained" in note for note in v.notes)


def test_gamma_trace_family_vacuous_when_no_pair_exists():
    v = verify("T7", n=5)
    assert v.passed and v.cells_checked == 0
    assert any("no admissible" in note for note in v.notes)


def test_gamma_trace_inverse_at_half_n_is_one_row():
    """At t = n/2, Tr(x^(2^t+1)) = 0, so every admissible gamma gives x^(-1):
    the value table proves the scaling symmetry and one row stands for all."""
    for n in (6, 8):
        f = make_field(2, n)
        gs = _admissible_gammas(f, n // 2)
        assert len(gs) == f.q - 1
        for g in gs:
            F = GammaTraceInverse(f, n // 2, f.from_code(g))
            assert orbit_rows(F) == [(1, f.q - 1)], (n, g)


def test_gamma_trace_family_small_field():
    v = verify("T7", n=4)
    assert v.passed
    assert any(note.startswith("admissible (t, gamma) pairs: 21")
               for note in v.notes)


def test_gamma_trace_failure_in_row_one_counts_its_column(monkeypatch):
    """With 4 no longer allowed, GF(2^4) fails at a = 1, b = code 6: six
    cells are checked, counted row-major as T2 and the row-one claims do."""
    monkeypatch.setattr(spectrum_claims, "_T7_VALUES", frozenset({0, 8}))
    v = verify("T7", n=4)
    assert v.status == "failed"
    assert (v.first_mismatch["a"], v.first_mismatch["b"]) == ("1,0,0,0", "0,1,1,0")
    assert v.cells_checked == 6


def test_t7_mirror_t_and_conjugate_gamma_give_one_value_set():
    """Tr(x^(2^(n-t)+1)) = Tr(x^(2^t+1)), so t and n - t admit the same gamma
    with the same function; and F_{t,g^2}(x^2) = F_{t,g}(x)^2."""
    for n in range(3, 10):
        f = make_field(2, n)
        sq = f.vpow(np.arange(f.q, dtype=np.int64), 2)
        for t in range(1, n):
            gs = _admissible_gammas(f, t)
            assert gs == _admissible_gammas(f, n - t), (n, t)
            for g in gs:
                F = GammaTraceInverse(f, t, f.from_code(g)).table()
                assert np.array_equal(
                    F, GammaTraceInverse(f, n - t, f.from_code(g)).table()), (n, t, g)
                G = GammaTraceInverse(f, t, f.from_code(int(sq[g]))).table()
                assert np.array_equal(G[sq], sq[F]), (n, t, g)


def _t7_every_pair(n, t=None):
    """T7's (status, cells, first mismatch) by a spectrum of every admissible
    pair in (t, gamma) order, with no class skipped."""
    f = make_field(2, n)
    q = f.q
    cells = 0
    for tt in [t] if t is not None else range(1, n):
        for g in _admissible_gammas(f, tt):
            F = spectrum_claims.GammaTraceInverse(f, tt, f.from_code(g))
            if not {v for v, _ in fbct_spectrum(F).histogram} <= spectrum_claims._T7_VALUES:
                row_major, first = _first_outside(F, spectrum_claims._T7_VALUES)
                first.update(t=tt, gamma=f.from_code(g).text)
                return "failed", cells + row_major, first
            cells += (q - 1) * (q - 1)
    return "passed", cells, None


def _t7_spy(monkeypatch, broken=()):
    """Record the (t, gamma code) of each T7 function built, and build the
    linear x^2 (every cell q) for the pairs in ``broken``."""
    real, built = spectrum_claims.GammaTraceInverse, []

    def make(field, t, gamma):
        built.append((t, gamma.code))
        return Monomial(field, 2) if (t, gamma.code) in broken else real(field, t, gamma)

    monkeypatch.setattr(spectrum_claims, "GammaTraceInverse", make)
    return built


@pytest.mark.parametrize("n", [6, 8])
def test_t7_checks_one_function_per_class(n, monkeypatch):
    """Each (min(t, n - t), least conjugate of gamma) class is built once,
    at its least pair; at t = n/2 every gamma gives x^(-1), so all of them
    are one class."""
    f = make_field(2, n)
    built = _t7_spy(monkeypatch)
    assert verify("T7", n=n).passed
    least = {}
    for t in range(1, n):
        for g in _admissible_gammas(f, t):
            conj = 0 if 2 * t == n else min(f.pow_code(g, 2 ** i) for i in range(n))
            least.setdefault((min(t, n - t), conj), (t, g))
    assert built == sorted(least.values())
    assert [g for t, g in built if 2 * t == n] == [1]


def test_t7_given_gamma_is_checked_whatever_its_class(monkeypatch):
    """A given (t, gamma) is built and checked, though t > n - t and gamma
    has the smaller conjugate 12 on GF(2^8)."""
    f = make_field(2, 8)
    assert min(f.pow_code(80, 2 ** i) for i in range(8)) == 12
    built = _t7_spy(monkeypatch)
    v = verify("T7", n=8, t=6, gamma=f.from_code(80))
    assert built == [(6, 80)] and v.passed and v.cells_checked == 255 ** 2
    assert "observed nontrivial values: [0, 4, 8]" in v.notes


@pytest.mark.parametrize("n, values", [(6, {0, 8}), (8, {0, 4})])
def test_t7_forced_failure_equals_every_pair_walk(n, values, monkeypatch):
    monkeypatch.setattr(spectrum_claims, "_T7_VALUES", frozenset(values))
    v = verify("T7", n=n)
    assert (v.status, v.cells_checked, v.first_mismatch) == _t7_every_pair(n)
    assert v.status == "failed"


@pytest.mark.parametrize("n, t", [(6, 3), (8, 4), (8, None)])
def test_t7_half_n_takes_one_spectrum_and_the_every_pair_verdict(n, t, monkeypatch):
    """At t = n/2 one spectrum, of the least admissible gamma, stands for
    every gamma: a value set that x^(-1) breaks fails there with the verdict
    and cells of the every-pair walk, and a pass counts every pair's cells."""
    f = make_field(2, n)
    half = _admissible_gammas(f, n // 2)
    built = _t7_spy(monkeypatch)
    v = verify("T7", n=n, t=t)
    assert v.passed and [g for tt, g in built if 2 * tt == n] == [half[0]]
    if t is not None:
        assert v.cells_checked == len(half) * (f.q - 1) ** 2
    values = {v for v, _ in fbct_spectrum(Monomial(f, f.q - 2)).histogram}
    monkeypatch.setattr(spectrum_claims, "_T7_VALUES", frozenset(values - {max(values)}))
    v = verify("T7", n=n, t=n // 2)
    assert (v.status, v.cells_checked, v.first_mismatch) == _t7_every_pair(n, n // 2)
    assert v.status == "failed" and v.first_mismatch["gamma"] == f.from_code(half[0]).text


@pytest.mark.parametrize("n, t0, g0, t", [(6, 2, 1, None), (8, 2, 12, None),
                                         (8, 6, 12, 6), (8, 1, 188, None)])
def test_t7_late_class_failure_equals_every_pair_walk(n, t0, g0, t, monkeypatch):
    """A class that fails as a whole (its mirror t and every conjugate gamma
    give x^2) is met first at its least pair, whatever pairs come before."""
    f = make_field(2, n)
    conj = {f.pow_code(g0, 2 ** i) for i in range(n)}
    _t7_spy(monkeypatch, broken={(tt, g) for tt in (t0, n - t0) for g in conj})
    v = verify("T7", n=n, t=t)
    want = _t7_every_pair(n, t)
    assert (v.status, v.cells_checked, v.first_mismatch) == want
    assert want[0] == "failed" and want[1] > (f.q - 1) ** 2, want


def test_power_family_edge_exponent():
    v = verify("THMT", n=4, t=1)
    assert v.passed and v.cells_checked == 225


def _prime_field_half_power_histogram(p: int) -> dict:
    """Definition-level oracle on GF(p) with integers mod p: nontrivial
    (a, b != 0) histogram of #{x : F(x+a+b) - F(x+a) - F(x+b) + F(x) = 0}
    for F(x) = x^((p+1)/2)."""
    d = (p + 1) // 2
    F = [pow(x, d, p) for x in range(p)]
    hist = {}
    for a in range(1, p):
        for b in range(1, p):
            c = sum(1 for x in range(p)
                    if (F[(x + a + b) % p] - F[(x + a) % p] - F[(x + b) % p]
                        + F[x]) % p == 0)
            hist[c] = hist.get(c, 0) + 1
    return dict(sorted(hist.items()))


def test_catalogue_of_odd_char_power_maps():
    """The x^((p+1)/2) row claims maximum (p-3)/2; GF(11) and GF(13) refute
    it (the T2 discrepancy), every other row holds on every field."""
    v = verify("TABLE1")
    assert v.status == "failed"
    assert len(v.notes) == 18
    row = "x^((p+1)/2), p > 3"
    hists = {p: _prime_field_half_power_histogram(p) for p in (11, 13)}
    assert hists == {11: {0: 40, 2: 60}, 13: {1: 72, 3: 72}}
    observed = {f"{row} on GF({p}^1)": max(h) for p, h in hists.items()}
    assert observed == {f"{row} on GF(11^1)": 2, f"{row} on GF(13^1)": 3}
    assert v.first_mismatch == {"a": f"{row} on GF(11^1)",
                                "b": "maximum over ab != 0",
                                "predicted": 4, "observed": 2}
    for note in v.notes:
        where, rest = note.split(": maximum ")
        got, claimed = rest.removesuffix(")").split(" (claimed ")
        if where in observed:
            assert int(got) == observed[where] != int(claimed), note
        else:
            assert got == claimed, note


# --- the first cell outside an allowed set ----------------------------------

def _every_row_scan(F, allowed):
    """Oracle: every FBCT row 1..q-1 in order, no orbits.  The nontrivial
    histogram, and (a, b, value) of the first nontrivial cell in row-major
    order whose value is not in ``allowed`` (None when there is none)."""
    f = F.field
    hist, first = Counter(), None
    for a, row in fbct_rows(F):
        bs = [b for b in range(1, f.q) if not (f.char2 and b == a)]
        values = row[bs].tolist()
        hist.update(values)
        if first is None:
            first = next(((a, b, v) for b, v in zip(bs, values)
                          if v not in allowed), None)
    return sorted(hist.items()), first


def _locator_cases():
    """(function, allowed set): T2's set on x^((p+1)/2); {0, 4, 8} on
    gamma-trace inverses, whose rows come in Frobenius orbits; and, on each,
    every observed value set minus one value, so each value once offends."""
    fns = []
    for p, n in [(11, 1), (13, 1), (5, 2)]:
        f = make_field(p, n)
        fns.append((Monomial(f, (p + 1) // 2), {0, 1, (p - 3) // 2}))
    for n in (6, 8):
        f = make_field(2, n)
        for t in range(1, n):
            gs = _admissible_gammas(f, t)
            for g in sorted({gs[0], gs[-1]}) if gs else ():
                fns.append((GammaTraceInverse(f, t, f.from_code(g)), {0, 4, 8}))
    for F, allowed in fns:
        yield F, allowed
        values = {v for v, _ in fbct_spectrum(F).histogram}
        for v in sorted(values):
            yield F, values - {v}


def _check_locator(F, allowed):
    """The histogram and the located cell against the oracle; returns the
    oracle's cell."""
    hist, first = _every_row_scan(F, allowed)
    assert fbct_spectrum(F).histogram == hist, F
    if first is None:
        with pytest.raises(InvariantError):
            _first_outside(F, allowed)
        return None
    cells, mismatch = _first_outside(F, allowed)
    a, b, observed = first
    f = F.field
    assert (cells, mismatch["observed"]) == ((a - 1) * (f.q - 1) + b, observed), (F, allowed)
    assert mismatch["a"] == f.from_code(a).text and mismatch["b"] == f.from_code(b).text
    return first


def test_first_outside_matches_every_row_scan():
    cases = list(_locator_cases())
    orbits = [len(orbit_rows(F)) for F, _ in cases if F.field.char2]
    assert min(orbits) < max(orbits) < 255  # Frobenius orbits, of two sizes
    past_row_one = 0
    for F, allowed in cases:
        first = _check_locator(F, allowed)
        past_row_one += first is not None and first[0] > 1
    assert past_row_one


def test_first_outside_on_a_table_past_row_one():
    """A seeded random table on GF(2^5), allowed the values of row 1: the
    first violation lies in a later row."""
    f = make_field(2, 5)
    rng = random.Random(11)
    F = TableFunction(f, [rng.randrange(f.q) for _ in range(f.q)])
    assert len(orbit_rows(F)) == f.q - 1
    row1 = next(fbct_rows(F, [1]))[1]
    allowed = set(np.delete(row1, [0, 1]).tolist())
    first = _check_locator(F, allowed)
    assert first is not None and first[0] > 1


# --- representative rows of per-cell claims against every row ---------------

#: Two fields each power-map claim's hypotheses admit, as (p, n, modulus, t).
#: GF(2^9) would take C_F2 and C_F3 past a second of `predict` calls, so each
#: takes GF(2^7) under two moduli.
ROW_ONE_FIELDS = {
    "L1": [(2, 4, None, None), (2, 6, None, None)],
    "L2": [(2, 3, None, None), (2, 5, None, None)],
    "T1": [(11, 1, None, None), (5, 3, None, None)],
    "T3": [(5, 2, None, None), (7, 2, None, None)],
    "T4": [(3, 1, None, None), (3, 3, None, None)],
    "THMT": [(2, 5, None, 2), (2, 6, None, 3)],
    "C_F1": [(2, 6, None, None), (2, 8, None, None)],
    "C_F2": [(2, 7, None, None), (2, 7, [1, 0, 0, 1, 0, 0, 0, 1], None)],
    "C_F3": [(2, 7, None, None), (2, 7, [1, 0, 0, 1, 0, 0, 0, 1], None)],
}
ROW_ONE_CASES = [(tid, *case) for tid, cases in ROW_ONE_FIELDS.items() for case in cases]
#: T6 walks its Frobenius representatives against the same every-row oracle.
T6_CASES = [("T6", 2, 4, None, None), ("T6", 2, 6, None, None)]


def test_row_one_ids_are_the_power_map_claims():
    assert sorted(ROW_ONE_FIELDS) == sorted(
        t for t, c in CLAIMS.items()
        if c.family == "cell_claims" and getattr(cell_claims, t).build is None)


def _verify_on(tid, p, n, modulus, t):
    return verify(tid, p=p, n=n, modulus=modulus, t=t)


def _every_row_walk(tid, field, setting):
    """Oracle: every FBCT row 1..q-1 against `predict` at each (a, b), a, b
    != 0, up to the first mismatch; the observed maximum over the rows that
    matched whole; then the claim's expected-maximum check.  Returns (first
    mismatch, cells checked, notes) as the verdict holds them."""
    claim = getattr(cell_claims, tid)
    F = claim.build(field, setting) if claim.build else Monomial(field, setting["d"])
    q = field.q
    first, cells, observed = None, 0, 0
    for a, row in fbct_rows(F):
        for b in range(1, q):
            cells += 1
            want = predict(tid, field.from_code(a), field.from_code(b), t=setting.get("t"))
            if row[b] != want:
                first = {"a": field.from_code(a).text, "b": field.from_code(b).text,
                         "predicted": want, "observed": int(row[b])}
                break
        if first is not None:
            break
        observed = max([observed] + [int(row[b]) for b in range(1, q)
                                     if not (field.char2 and b == a)])
    notes = [f"{claim.label} {observed}"]
    if claim.expect is not None:
        first = claim.expect(F, setting, observed, first, notes)
    return first, cells, notes


@pytest.mark.parametrize("tid,p,n,modulus,t", ROW_ONE_CASES + T6_CASES)
def test_row_one_verdict_equals_every_row_walk(tid, p, n, modulus, t):
    v = _verify_on(tid, p, n, modulus, t)
    assert v.status != "hypothesis_error", v.notes
    field = make_field(p, n, modulus)
    walk = _every_row_walk(tid, field, v.params)
    assert (v.first_mismatch, v.cells_checked, list(v.notes)) == walk


#: The first field of every row-compared claim.
FIRST_FIELDS = {tid: cases[0] for tid, cases in ROW_ONE_FIELDS.items()}
FIRST_FIELDS["T6"] = T6_CASES[0][1:]


@pytest.mark.parametrize("tid", sorted(FIRST_FIELDS))
def test_corrupted_row_one_fails_where_every_row_walk_does(monkeypatch, tid):
    """One predicted row-one cell c off by one, and so cell ca of each row a:
    the verdict fails at (1, c) after c cells, as the walk over every row
    does.  Row 1 is its own orbit, so T6's Frobenius walk meets it first."""
    p, n, modulus, t = FIRST_FIELDS[tid]
    field = make_field(p, n, modulus)
    c = field.q // 2 + 1
    real = getattr(cell_claims, tid).row

    def corrupt(f, tt, a):
        row = real(f, tt, a)
        row[f.vmul(c, a)] += 1
        return row

    monkeypatch.setattr(cell_claims, tid, dataclasses.replace(getattr(cell_claims, tid), row=corrupt))
    v = _verify_on(tid, p, n, modulus, t)
    assert v.status == "failed"
    assert v.cells_checked == c
    assert (v.first_mismatch["a"], v.first_mismatch["b"]) == (field.one.text,
                                                              field.from_code(c).text)
    assert (v.first_mismatch, v.cells_checked, list(v.notes)) == \
        _every_row_walk(tid, field, v.params)


def test_row_one_claims_count_one_row_and_T6_its_representatives(monkeypatch):
    counted = []
    real = cell_claims.fbct_rows

    def counting(F, codes=None):
        for a, row in real(F, codes):
            counted.append(a)
            yield a, row

    monkeypatch.setattr(cell_claims, "fbct_rows", counting)
    for tid, cases in ROW_ONE_FIELDS.items():
        counted.clear()
        assert _verify_on(tid, *cases[0]).passed, tid
        assert counted == [1], tid
    counted.clear()
    assert verify("T6", n=6).passed
    reps = [a for a, _ in orbit_rows(InversePlusTrace(make_field(2, 6)))]
    assert counted == reps and len(reps) == 13


def test_orbits_are_proved_once_per_function(monkeypatch):
    """THMT's row walk and its differential-uniformity note read one
    `orbit_rows` result, kept on the function."""
    calls = []
    real = spectra._scaling_index

    def counting(f, G):
        calls.append(f.q)
        return real(f, G)

    monkeypatch.setattr(spectra, "_scaling_index", counting)
    assert verify("THMT", n=9, t=4).passed
    assert calls == [512]


def test_power_map_build_without_symmetry_fails_like_every_row_walk(monkeypatch):
    """A power-map claim whose function loses the scaling symmetry (x^(-1)
    with one entry changed) compares its representatives and fails where
    the walk over every row does."""
    def build(f, setting):
        values = Monomial(f, setting["d"]).table().tolist()
        values[3] ^= 1
        return TableFunction(f, values)

    monkeypatch.setattr(cell_claims, "L1", dataclasses.replace(cell_claims.L1, build=build))
    field = make_field(2, 4)
    v = verify("L1", n=4)
    assert len(orbit_rows(build(field, v.params))) > 1
    assert v.status == "failed" and v.cells_checked == 6
    assert v.first_mismatch == {"a": "1,0,0,0", "b": "0,1,1,0",
                                "predicted": 4, "observed": 8}
    assert (v.first_mismatch, v.cells_checked, list(v.notes)) == \
        _every_row_walk("L1", field, v.params)


@pytest.mark.parametrize("n", [4, 6, 8, 10])
def test_t6_predictor_shares_the_frobenius_orbits(n):
    """Row a^2 of T6's predictor is row a read at b^2, and the orbits
    `orbit_rows` gives the map are Frobenius orbits only (sizes divide n)."""
    f = make_field(2, n)
    frob = f.tables().frob
    for a in range(f.q):
        assert (cell_claims._t6_row(f, None, frob[a])[frob]
                == cell_claims._t6_row(f, None, a)).all(), a
    assert all(n % w == 0 for _, w in orbit_rows(InversePlusTrace(f)))



def test_mass_identity_verdict():
    v = verify("PROP_VB", n=3, num_random_tables=5, seed=1)
    assert v.passed and v.cells_checked == 12
    assert v.params["num_random_tables"] == 5 and v.params["seed"] == 1


def test_vanishing_count_verdict_includes_support_size():
    v = verify("C_F2_VB", n=7)
    assert v.passed and v.cells_checked == 2
    assert "enumerated vanishing flats: 889" in v.notes
    assert "S_6 size by direct count: 42" in v.notes


def test_apn_equivalence_verdict():
    v = verify("APN_IFF_FBCT0", n=4)
    assert v.passed
    assert any("APN among them:" in note for note in v.notes)


@pytest.mark.parametrize("tid", ["C_F2_VB", "C_F3_VB"])
def test_vb_formula_can_fail_on_a_corrupted_kloosterman_sum(monkeypatch, tid):
    """K(1) feeds the formula side only: K + 8 takes 2^n - 1 off the claimed
    count, and the verdict fails at the count, not with an exception."""
    real = count_claims.kloosterman
    monkeypatch.setattr(count_claims, "kloosterman",
                        lambda n, method="direct": real(n, method) + 8)
    v = verify(tid, n=7)
    assert v.status == "failed" and v.cells_checked == 1
    assert v.first_mismatch == {"a": "vanishing-flat count", "b": "",
                                "predicted": 889 - 127, "observed": 889}


def test_vb_formula_can_fail_on_a_corrupted_enumeration(monkeypatch):
    """The enumerated count feeds the observed side only: one flat too many
    fails C_F1_VB at the count."""
    real = count_claims.vanishing_flats

    def one_more(F):
        res = real(F)
        return dataclasses.replace(res, vanishing_count=res.vanishing_count + 1)

    monkeypatch.setattr(count_claims, "vanishing_flats", one_more)
    v = verify("C_F1_VB", n=6)
    assert v.status == "failed" and v.cells_checked == 1
    assert v.first_mismatch == {"a": "vanishing-flat count", "b": "",
                                "predicted": 84, "observed": 85}


def test_apn_equivalence_can_fail_on_a_corrupted_uniformity(monkeypatch):
    """Differential uniformity feeds the APN side only: raised by 2, the
    Gold map x^3 reads as non-APN while its FBCT still vanishes."""
    real = spectrum_claims.differential_uniformity
    monkeypatch.setattr(spectrum_claims, "differential_uniformity",
                        lambda F: real(F) + 2)
    v = verify("APN_IFF_FBCT0", n=4)
    assert v.status == "failed"
    assert v.first_mismatch == {"a": "monomial d=3", "b": "",
                                "predicted": "nonzero somewhere", "observed": 0}


# --- verdict serialization --------------------------------------------------

def test_verdict_json_schema_and_determinism():
    v1 = verify("L2", p=2, n=5)
    v2 = verify("L2", p=2, n=5)
    o1 = v1.to_json_obj(fixed_time=True)
    o2 = v2.to_json_obj(fixed_time=True)
    assert set(o1) == {"theorem", "params", "passed", "cells_checked",
                       "first_mismatch", "elapsed_ms", "status", "notes"}
    assert o1["elapsed_ms"] == 0.0
    assert json.dumps(o1, sort_keys=True) == json.dumps(o2, sort_keys=True)
    assert o1["params"]["modulus"] == make_field(2, 5).modulus_text()
    timed = v1.to_json_obj()
    assert timed["elapsed_ms"] >= 0.0


def test_theorem_catalogue_shape():
    assert len(THEOREMS) == 18
    for tid, meta in THEOREMS.items():
        assert meta["summary"]
        assert isinstance(meta["params"], tuple)
