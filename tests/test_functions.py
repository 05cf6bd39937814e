"""Function constructors, the text grammar, and difference operators."""

import re

import numpy as np
import pytest

from ffspectra import functions
from ffspectra.field import make_field, trace
from ffspectra.functions import (FunctionError, GammaTraceInverse,
                                 InversePlusTrace, Monomial, TableFunction,
                                 canonical_exponent, gamma_conditions, parse_function)
from ffspectra.spectra import orbit_rows
from ffspectra.spectrum_claims import _admissible_gammas
import oracles as ref
from oracles import gapn_derivative, second_order_diff, value

#: Each class on every field it admits among GF(2^4), GF(2^8), GF(3^5),
#: GF(5^2) and GF(257).
ONE_DEFINITION = [
    (kind, p, n, build)
    for p, n in [(2, 4), (2, 8), (3, 5), (5, 2), (257, 1)]
    for kind, build in [
        ("x^3", lambda f: Monomial(f, 3)),
        ("x^(q-2)", lambda f: Monomial(f, f.q - 2)),
        ("inv-plus-trace", InversePlusTrace),
        ("gamma-trace-inverse", lambda f: GammaTraceInverse(
            f, 2, f.from_code(_admissible_gammas(f, 2)[-1]))),
        ("table", lambda f: TableFunction(f, np.random.default_rng(f.q).integers(0, f.q, f.q))),
    ]
    if p == 2 or kind not in ("inv-plus-trace", "gamma-trace-inverse")]


@pytest.mark.parametrize("kind, p, n, build", ONE_DEFINITION,
                         ids=[f"{kind}-GF({p}^{n})" for kind, p, n, _ in ONE_DEFINITION])
def test_value_table_eval_and_scalar_oracle_agree(kind, p, n, build):
    """F.eval reads the value table, building it on first use, and the
    table is the scalar formula of the test oracle at every code."""
    f = make_field(p, n)
    F = build(f)
    evals = [F.eval(f.from_code(x)).code for x in range(f.q)]
    FT = F.table()
    assert FT.dtype == np.int64 and FT.shape == (f.q,)
    assert evals == FT.tolist() == [value(F, x) for x in range(f.q)]
    assert all(F(f.from_code(x)).code == evals[x] for x in range(f.q))


@pytest.mark.parametrize("kind, p, n, build", ONE_DEFINITION,
                         ids=[f"{kind}-GF({p}^{n})" for kind, p, n, _ in ONE_DEFINITION])
def test_value_table_is_read_only(kind, p, n, build):
    """F is its value table, so the table it hands out refuses an in-place
    edit, and F.eval and the orbits proved on F stay those of a fresh F."""
    f = make_field(p, n)
    F, fresh = build(f), build(f)
    rows = orbit_rows(F)
    for edit in (lambda ft: ft.__setitem__(1, 0), lambda ft: ft.__ixor__(1)):
        with pytest.raises(ValueError, match="read-only"):
            edit(F.table())
    assert [F.eval(f.from_code(x)).code for x in range(f.q)] == fresh.table().tolist()
    assert orbit_rows(F) == rows == orbit_rows(fresh)


def test_monomial_matches_pow():
    for p, n in [(2, 4), (3, 2), (5, 1), (7, 2)]:
        f = make_field(p, n)
        for d in (1, 2, 3, f.q - 2, f.q - 1):
            F = Monomial(f, d)
            for x in range(f.q):
                assert F.eval(f.from_code(x)).code == value(F, x) == f.pow_code(x, d)


def test_canonical_exponent_preserves_the_function():
    for p, n in [(2, 4), (5, 2)]:
        f = make_field(p, n)
        q = f.q
        for d in (1, 3, q - 2, q - 1):
            dc = canonical_exponent(q, d + (q - 1))
            assert dc == canonical_exponent(q, d)
            assert (Monomial(f, d).table() == Monomial(f, dc).table()).all()
    # the all-ones-on-units exponent q-1 must not collapse to x^0
    assert canonical_exponent(16, 15) == 15
    assert canonical_exponent(16, 30) == 15


def test_monomial_exponent_conventions():
    f = make_field(2, 4)
    # d = 0 is the constant-one map, including at x = 0
    assert list(Monomial(f, 0).table()) == [1] * 16
    # negative exponents wrap to the unit-group inverse powers
    G = Monomial(f, -1)
    assert G.d == 14
    assert (G.table() == Monomial(f, 14).table()).all()


def test_inverse_plus_trace_values():
    f = make_field(2, 4)
    F = InversePlusTrace(f)
    inv = Monomial(f, f.q - 2)
    one = f.one.code
    for x in range(f.q):
        xe = f.from_code(x)
        tr_arg = f.mul_code(f.mul_code(x, x), ref.inv(f, ref.add(f, x, one)))
        expect = value(inv, x) ^ (trace(f.from_code(tr_arg)) and one)
        # the trace term adds 0 or 1 in the field
        expect = ref.add(f, value(inv, x), trace(f.from_code(tr_arg)) % 2)
        assert value(F, x) == expect == F.table()[x], x
    assert list(F.table()) == [value(F, x) for x in range(f.q)]


def test_gamma_trace_inverse_validation():
    f = make_field(2, 4)
    w = f.from_code(6)  # a primitive cube root of unity; gamma=1 always works
    one = f.one
    F = GammaTraceInverse(f, 2, one)
    for x in range(f.q):
        s = f.pow_code(x, 2 ** 2 + 1)
        arg = ref.add(f, x, ref.scalar_mul(f, ref.trace(f, s), one.code))
        assert value(F, x) == ref.inv(f, arg) == F.table()[x]
    with pytest.raises(FunctionError):
        GammaTraceInverse(f, 0, one)               # t out of range
    with pytest.raises(FunctionError):
        GammaTraceInverse(f, 4, one)               # t = n out of range
    with pytest.raises(FunctionError):
        GammaTraceInverse(f, 2, f.zero)            # gamma must be nonzero
    # gamma outside the subfield fixed by the 2t-th Frobenius power
    bad = f.from_code(2)
    assert f.pow_code(2, 2 ** 4) == 2  # x^(2^n) fixes everything: pick t=1
    with pytest.raises(FunctionError, match=r"gamma\^\(2\^\(2t\)\) = gamma"):
        GammaTraceInverse(f, 1, bad)   # 2^(2*1): gamma^4 != gamma for code 2
    # Tr(1) = 1 on GF(2^3), where 1 is the only gamma fixed by x -> x^4
    with pytest.raises(FunctionError, match=r"trace\(gamma\^\(2\^t\+1\)\) = 0"):
        GammaTraceInverse(make_field(2, 3), 1, make_field(2, 3).one)


def test_gamma_conditions_report_the_fixed_field_first():
    """A gamma that breaks both conditions gets the fixed-field message, and
    the vectorized conditions agree with the scalar ones code by code."""
    for n, t in [(3, 1), (5, 1), (5, 2), (6, 2), (8, 3)]:
        f = make_field(2, n)
        gs = np.arange(1, f.q)
        fixed, traceless = gamma_conditions(f, t, gs)
        for g in gs.tolist():
            assert fixed[g - 1] == (f.pow_code(g, 2 ** (2 * t)) == g)
            assert traceless[g - 1] == (ref.trace(f, f.pow_code(g, 2 ** t + 1)) == 0)
        both = gs[~fixed & ~traceless]
        if both.size:
            with pytest.raises(FunctionError, match=r"gamma\^\(2\^\(2t\)\)"):
                GammaTraceInverse(f, t, f.from_code(int(both[0])))


def test_table_function_validation():
    f = make_field(2, 2)
    F = TableFunction(f, [0, 1, 2, 3])
    assert [value(F, x) for x in range(4)] == [0, 1, 2, 3]
    with pytest.raises(FunctionError):
        TableFunction(f, [0, 1, 2])        # wrong length
    with pytest.raises(FunctionError):
        TableFunction(f, [0, 1, 2, 4])     # out-of-range code


def test_table_function_holds_a_copy_of_its_integer_codes():
    f = make_field(2, 2)
    for codes in ([3, 2, 1, 0], range(3, -1, -1), np.array([3, 2, 1, 0]),
                  np.array([3, 2, 1, 0], dtype=np.uint8), np.array([3, 2, 1, 0], dtype=np.uint64)):
        F = TableFunction(f, codes)
        assert F.table().dtype == np.int64 and F.table().tolist() == [3, 2, 1, 0]
        assert F.text() == "table:3,2,1,0"
    codes = np.array([3, 2, 1, 0])
    F = TableFunction(f, codes)
    codes[0] = 0
    assert F.table().tolist() == [3, 2, 1, 0] and F.table() is not codes


@pytest.mark.parametrize("codes", [
    [0, 1, 2, -1], [0, 1, 2, 4], [0, 1, 2, 10 ** 26], [0, 1, 2, 1.5],
    [0, 1, 2, 2 ** 64 - 1], [-1, 2 ** 63, 0, 1],  # one above 2^63 turns -1 into a float
    [0, 1, 2], [0, 1, 2, 3, 0], [[0, 1], [2, 3]], [0, 1, 2, "3"],
    np.array([0, 1, 2, -1]), np.array([0, 1, 2, 1.5]), np.array([0, 1, 2, 10 ** 26])],
    ids=repr)
def test_table_function_refuses_what_is_not_q_codes(codes):
    with pytest.raises(FunctionError):
        TableFunction(make_field(2, 2), codes)


def test_parse_monomial_plain_and_formula():
    f = make_field(5, 3)
    assert parse_function(f, "monomial:d=83").d == 83
    assert parse_function(f, "monomial:d=(2q-1)/3").d == 83
    assert parse_function(f, "monomial:d=q-2").d == 123
    assert parse_function(f, "monomial:d=(q-1)/2+2").d == 64
    assert parse_function(f, "monomial:d=(p^k+1)/2", k=1).d == 3
    f2 = make_field(2, 6)
    assert parse_function(f2, "monomial:d=2^t-1", t=3).d == 7
    assert parse_function(f2, "monomial:d=2^(n-3)").d == 8


def test_parse_formula_errors():
    f = make_field(5, 1)
    with pytest.raises(FunctionError):
        parse_function(f, "monomial:d=q/2")          # inexact division
    with pytest.raises(FunctionError):
        parse_function(f, "monomial:d=2^t-1")        # t not supplied
    with pytest.raises(FunctionError):
        parse_function(f, "monomial:d=__import__")   # names restricted
    with pytest.raises(FunctionError):
        parse_function(f, "monomial:3")              # missing d=
    with pytest.raises(FunctionError):
        parse_function(f, "mystery:ff")


def test_parse_named_and_gamma_functions():
    f = make_field(2, 4)
    assert isinstance(parse_function(f, "inv-plus-trace"), InversePlusTrace)
    F = parse_function(f, "gamma-trace-inverse:t=2,gamma=1")
    assert isinstance(F, GammaTraceInverse) and F.t == 2
    with pytest.raises(FunctionError):
        parse_function(f, "gamma-trace-inverse:t=2")


def test_parse_table_inline_and_file(tmp_path):
    f = make_field(2, 2)
    F = parse_function(f, "table:3,2,1,0")
    assert [value(F, x) for x in range(4)] == [3, 2, 1, 0]
    path = tmp_path / "tab.txt"
    path.write_text("3, 2,\n1, 0\n", encoding="utf-8")
    G = parse_function(f, f"table:@{path}")
    assert [value(G, x) for x in range(4)] == [3, 2, 1, 0]
    with pytest.raises(FunctionError):
        parse_function(f, "table:@/nonexistent/file")
    with pytest.raises(FunctionError):
        parse_function(f, "table:3,2,one,0")


_CODES = [str(x) for x in range(15, -1, -1)]
#: `table:` texts on GF(2^4), each read whole and a few characters at a time:
#: one valid, then each error and the order in which they are refused.
TABLE_TEXTS = [
    ",".join(_CODES), "\n".join(_CODES) + "\n", " , ".join(_CODES),
    ",".join(_CODES[:-1]),                        # 15 entries
    ",".join(["99"] + _CODES),                    # 17 entries, one out of range
    ",".join(["99"] + _CODES[1:]),                # out of range
    ",".join(_CODES[1:] + [str(2 ** 64)]),        # out of int64's range
    ",".join(["-1", str(2 ** 63)] + _CODES[2:]),  # a float array
    ",".join(["99"] + _CODES[1:-1] + ["x"]),      # no int, after one out of range
]


@pytest.mark.parametrize("text", TABLE_TEXTS)
def test_table_text_read_in_chunks_reads_as_whole(monkeypatch, text):
    f = make_field(2, 4)

    def outcome():
        try:
            return parse_function(f, "table:" + text).table().tolist()
        except FunctionError as exc:
            return str(exc)

    whole = outcome()
    monkeypatch.setattr(functions, "_TEXT_CHUNK", re.compile(r"(?s).{1,5}[^\s,]*"))
    assert outcome() == whole
    if not isinstance(whole, str):  # the chunks made one array, not a list
        assert isinstance(functions._table_codes(16, text), np.ndarray)


def test_function_text_round_trip():
    f = make_field(2, 4)
    for spec in ("monomial:d=14", "inv-plus-trace",
                 "gamma-trace-inverse:t=2,gamma=1", "table:" + ",".join(
                     str((x * 7) % 16) for x in range(16))):
        F = parse_function(f, spec)
        G = parse_function(f, F.text())
        assert (F.table() == G.table()).all()


def test_second_order_diff_definition():
    for p, n in [(2, 3), (5, 1), (3, 2)]:
        f = make_field(p, n)
        F = Monomial(f, 3)
        for a in range(f.q):
            for b in range(f.q):
                for x in range(0, f.q, max(1, f.q // 5)):
                    ae, be, xe = f.from_code(a), f.from_code(b), f.from_code(x)
                    lhs = second_order_diff(F, ae, be, xe)
                    rhs = (F.eval(xe + ae + be) - F.eval(xe + be)
                           - F.eval(xe + ae) + F.eval(xe))
                    assert lhs.code == rhs.code


def test_gapn_derivative_sums_prime_subfield_shifts():
    f = make_field(3, 2)
    F = Monomial(f, 2)
    a = f.from_code(4)
    for x in range(f.q):
        xe = f.from_code(x)
        total = f.zero
        for i in range(3):
            total = total + F.eval(xe + a * f.from_code(i))
        assert gapn_derivative(F, a, xe).code == total.code
