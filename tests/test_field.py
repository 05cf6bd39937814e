"""Field arithmetic: exact tables, algebraic laws, and special elements."""

import random
import tracemalloc

import numpy as np
import pytest

from ffspectra import field as field_module
from ffspectra.algebra import (cubic_roots_odd, linearized_kernel_dim, quartic_pattern_brute,
                               quartic_pattern_char2)
from ffspectra.closed_forms import verify
from ffspectra.field import (Field, FieldError, _gf2_solve, _prime_factors, make_field, omega,
                             quadratic_character, solve_quadratic, trace)
from ffspectra.functions import Monomial
from ffspectra.spectra import classify

import oracles as ref

FIELDS = [(2, 1), (2, 4), (2, 5), (3, 1), (3, 3), (5, 2), (7, 1), (11, 1)]


@pytest.fixture(params=FIELDS, ids=lambda pn: f"GF({pn[0]}^{pn[1]})")
def field(request):
    p, n = request.param
    return make_field(p, n)


def test_modulus_is_deterministic_and_monic():
    f1 = make_field(2, 8)
    f2 = make_field(2, 8)
    assert f1.modulus == f2.modulus
    assert f1.modulus[-1] == 1
    assert len(f1.modulus) == 9


def test_custom_modulus_round_trips():
    f = make_field(2, 4, [1, 0, 0, 1, 1])  # x^4 + x^3 + 1, also irreducible
    assert f.modulus_text() == "1,0,0,1,1"
    # x * x^3 = x^4 = x^3 + 1 under this modulus
    assert f.mul_code(2, 8) == 8 + 1
    assert (f.from_code(2) * f.from_code(8)).code == 8 + 1


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        make_field(2, 4, [1, 0, 0, 0, 1])  # x^4 + 1 = (x + 1)^4
    with pytest.raises(FieldError):
        make_field(4, 2)  # characteristic must be prime


def test_primality_and_factoring_match_sympy():
    import sympy

    # make_field's primality rule, on every p below 3000 and around 2^20
    for m in [*range(-2, 3000), 2 ** 20 - 3, 2 ** 20 - 1, 2 ** 20]:
        try:
            make_field(m, 1)
            prime = True
        except FieldError as exc:
            assert "is not prime" in str(exc), (m, exc)
            prime = False
        assert prime == sympy.isprime(m), m
    rng = random.Random(3)
    sample = [1, 2, 3, 4, 2 ** 20, 2 ** 20 - 1, 3 ** 12 - 1, 1021 ** 2 - 1]
    sample += [rng.randrange(1, 2 ** 20 + 1) for _ in range(3000)]
    for m in sample:
        assert _prime_factors(m) == sorted(sympy.factorint(m)), m


def test_huge_characteristic_needs_no_primality_answer(monkeypatch):
    def refuse(m):
        raise AssertionError(f"primality of {m} asked")

    monkeypatch.setattr(field_module, "_prime_factors", refuse)
    for p in (2 ** 20 + 7, 2 ** 62 + 1, 2 ** 89 - 1, 10 ** 30):
        with pytest.raises(FieldError, match="exceeds the supported"):
            make_field(p, 1)


def test_ring_laws_on_all_pairs(field):
    """The element operators obey the ring laws and agree with the
    coefficient-level oracles."""
    f = field
    q = f.q
    zero, one = f.zero, f.one
    xs = range(q) if q <= 32 else np.random.RandomState(7).randint(0, q, 30)
    for x in map(int, xs):
        X = f.from_code(x)
        assert X + zero == X and X * one == X and X + -X == zero
        assert (-X).code == ref.neg(f, x)
        if x:
            assert X * X.inv() == one and X / X == one
            assert X.inv().code == ref.inv(f, x)
        for y in (0, 1 % q, x, ref.neg(f, x), (x * 7 + 3) % q):
            Y = f.from_code(y)
            assert (X + Y).code == ref.add(f, x, y) and X + Y == Y + X
            assert (X - Y).code == ref.sub(f, x, y)
            assert (X * Y).code == f.mul_code(x, y) and X * Y == Y * X
            Z = f.from_code((x * 5 + y + 11) % q)
            assert X * (Y + Z) == X * Y + X * Z
            assert (X * Y) * Z == X * (Y * Z)


def test_inverse_of_zero_is_zero(field):
    assert field.zero.inv() == field.zero
    assert int(field.vinv(0)) == 0 and field.vinv([0]).tolist() == [0]


def test_pow_matches_repeated_multiplication(field):
    f = field
    for x in range(min(f.q, 16)):
        X = f.from_code(x)
        acc = 1 % f.q
        for e in range(1, 6):
            acc = f.mul_code(acc, x)
            assert f.pow_code(x, e) == (X ** e).code == int(f.vpow(x, e)) == acc
        if x:
            assert (X ** -1).code == ref.inv(f, x)
    # Fermat: x^q = x
    for x in range(min(f.q, 40)):
        assert f.pow_code(x, f.q) == (f.from_code(x) ** f.q).code == x


def test_generator_has_full_order(field):
    f = field
    tb = f.tables()
    g = int(tb.gen)
    seen = set()
    acc = 1 % f.q
    for _ in range(f.q - 1):
        seen.add(acc)
        acc = f.mul_code(acc, g)
    assert len(seen) == f.q - 1 and acc == 1 % f.q


@pytest.mark.parametrize("p,n", [(2, 1), (2, 9), (2, 13), (2, 16), (3, 1), (3, 10), (5, 6),
                                 (11, 3), (1327, 1)])
def test_exp_table_is_the_scalar_power_chain(p, n):
    # exp is filled by doubling with y -> gen^m * y: by the table of that
    # linear map in characteristic 2, by its matrix otherwise
    f = make_field(p, n)
    tb = f.tables()
    want = np.empty(max(f.q - 1, 1), dtype=np.int64)
    cur = 1
    for i in range(f.q - 1):
        want[i] = cur
        cur = f.mul_code(cur, int(tb.gen))
    assert cur == 1
    assert np.array_equal(tb.exp, want)


def test_exp_log_tables_agree(field):
    tb = field.tables()
    for x in range(1, field.q):
        assert int(tb.exp[int(tb.log[x])]) == x


def test_frobenius_table(field):
    f = field
    tb = f.tables()
    for x in range(f.q):
        assert int(tb.frob[x]) == f.pow_code(x, f.p)


@pytest.mark.parametrize("p,n", [(2, 1), (2, 7), (3, 1), (3, 5), (5, 3), (7, 2), (1327, 1)])
def test_trace_neg_and_digit_tables_are_the_scalar_routines(p, n):
    """The tables against the coefficient-level oracles."""
    f = make_field(p, n)
    tb = f.tables()
    xs = range(f.q)
    assert tb.tr.tolist() == [ref.trace(f, x) for x in xs]
    if f.char2:
        assert tb.neg is None and tb.dig is None
        return
    assert tb.neg.tolist() == [ref.neg(f, x) for x in xs]
    assert tb.eta.tolist() == [ref.eta(f, x) for x in xs]
    # digit-major: row i holds digit i of every code
    assert tb.dig.tolist() == [list(col) for col in zip(*(f.coeffs_of(x) for x in xs))]


def test_trace_is_linear_and_balanced(field):
    f = field
    elems = [f.from_code(x) for x in range(f.q)]
    vals = [trace(x) for x in elems]
    assert vals == [ref.trace(f, x) for x in range(f.q)]
    assert all(0 <= v < f.p for v in vals)
    counts = np.bincount(vals, minlength=f.p)
    assert (counts == f.q // f.p).all()
    for x in elems[:20]:
        assert trace(x ** f.p) == trace(x)
        for y in elems[:20]:
            assert trace(x + y) == (trace(x) + trace(y)) % f.p


def test_quadratic_character_odd_fields():
    for p, n in [(3, 2), (5, 1), (7, 1), (11, 1), (3, 3)]:
        f = make_field(p, n)
        q = f.q
        elems = [f.from_code(x) for x in range(q)]
        etas = [quadratic_character(x) for x in elems]
        assert etas[0] == 0
        assert sum(1 for e in etas if e == 1) == (q - 1) // 2
        assert sum(1 for e in etas if e == -1) == (q - 1) // 2
        for x in range(1, q):
            # eta is the {-1, 1}-valued image of x^((q-1)/2)
            assert etas[x] == ref.eta(f, x)
            for y in range(1, q):
                assert etas[(elems[x] * elems[y]).code] == etas[x] * etas[y]


def test_quadratic_character_rejected_in_char2():
    with pytest.raises(FieldError):
        quadratic_character(make_field(2, 3).one)


def test_solve_quadratic_matches_root_scan():
    """GF(17) and GF(257) have q - 1 = 2^4 and 2^8; GF(2^8) and GF(2^9) take
    Y^2 + Y = w at both parities of n."""
    rng = np.random.RandomState(11)
    for p, n in [(2, 4), (2, 5), (3, 2), (5, 1), (7, 1), (5, 2),
                 (17, 1), (257, 1), (3, 4), (5, 3), (2, 8), (2, 9)]:
        f = make_field(p, n)
        for _ in range(40):
            A = f.from_code(int(rng.randint(1, f.q)))
            B = f.from_code(int(rng.randint(0, f.q)))
            C = f.from_code(int(rng.randint(0, f.q)))
            got = {r.code for r in solve_quadratic(A, B, C)}
            want = {x for x in range(f.q)
                    if ref.add(f, f.mul_code(f.mul_code(A.code, x), x),
                               ref.add(f, f.mul_code(B.code, x), C.code)) == 0}
            assert got == want


def test_gf2_solve_matches_span_scan():
    """Oracle: every L(y), y < 2^n, by XOR of the images, for random maps of
    rank at most r = 0..n on n = 1..7, at every right-hand side."""
    rng = random.Random(5)
    for n in range(1, 8):
        for rank in range(n + 1):
            for _ in range(3):
                gens = [rng.randrange(1, 1 << n) for _ in range(rank)]
                images = [0] * n
                for j in range(n):
                    for g in gens:
                        images[j] ^= g * rng.randrange(2)
                values = [0] * (1 << n)
                for y in range(1, 1 << n):
                    low = y & -y
                    values[y] = values[y ^ low] ^ images[low.bit_length() - 1]
                kernel = values.count(0)
                span = set(values)
                for rhs in range(1 << n):
                    dim, y = _gf2_solve(images, rhs)
                    assert 1 << dim == kernel, (images, rhs)
                    if rhs in span:
                        assert y is not None and values[y] == rhs, (images, rhs)
                    else:
                        assert y is None, (images, rhs)


def test_omega_is_a_primitive_cube_root():
    for p, n in [(2, 4), (2, 6), (7, 1), (13, 1), (5, 2)]:
        f = make_field(p, n)
        w = omega(f)
        assert w.code != 1 % f.q
        assert f.pow_code(w.code, 3) == 1
        assert ref.add(f, ref.add(f, f.mul_code(w.code, w.code), w.code), 1) == 0
        assert w.code == min(w.code, f.mul_code(w.code, w.code))
    with pytest.raises(FieldError):
        omega(make_field(2, 5))  # 3 does not divide 31


def test_element_text_round_trip(field):
    f = field
    for x in range(min(f.q, 30)):
        e = f.from_code(x)
        assert f.from_text(e.text).code == x
        assert f.from_coeffs(e.coeffs).code == x
    assert f.from_coeffs([f.p]).code == 0  # coefficients reduce mod p
    with pytest.raises(FieldError):
        f.from_code(f.q)
    with pytest.raises(FieldError):
        f.from_text("not-a-number")


def test_vectorized_ops_match_scalars(field):
    """The v-ops against the coefficient-level oracles."""
    f = field
    q = f.q
    rng = np.random.RandomState(3)
    xs = rng.randint(0, q, 50).astype(np.int64)
    ys = rng.randint(0, q, 50).astype(np.int64)
    assert all(int(v) == ref.add(f, x, y) for v, x, y in zip(f.vadd(xs, ys), xs, ys))
    assert all(int(v) == f.mul_code(x, y) for v, x, y in zip(f.vmul(xs, ys), xs, ys))
    assert all(int(v) == ref.sub(f, x, y) for v, x, y in zip(f.vsub(xs, ys), xs, ys))
    assert all(int(v) == ref.neg(f, x) for v, x in zip(f.vneg(xs), xs))
    assert all(int(v) == ref.inv(f, x) for v, x in zip(f.vinv(xs), xs))
    assert all(int(v) == f.pow_code(x, 5) for v, x in zip(f.vpow(xs, 5), xs))


@pytest.mark.parametrize("p,n", [(2, 4), (3, 2)])
def test_vmul_takes_sequence_operands_holding_zero(p, n):
    """A list or tuple compares to 0 as one scalar False, so the zero mask
    must see it as an array: 3 * [0, 1] on GF(2^4) once read [8, 3]."""
    f = make_field(p, n)
    x = f.q - 1
    want = [0, x, 0, f.mul_code(x, x)]
    for seq in (list, tuple):
        for X, Y in ((x, seq([0, 1, 0, x])), (seq([0, 1, 0, x]), x),
                     (seq([0, x, 0, x]), seq([1, 1, x, x]))):
            assert f.vmul(X, Y).tolist() == want, (seq, X, Y)


@pytest.mark.parametrize("p,n", [(3, 8), (5, 6), (1327, 1), (251, 1), (11, 3)])
def test_vectorized_add_sub_beyond_the_old_table_limit(p, n):
    """int64, uint8 and uint16 index arrays (the row kernels pass the
    narrowest), array + int, int + array and int + int.  At GF(251) a digit
    sum taken in uint8 would wrap."""
    f = make_field(p, n)
    rng = np.random.RandomState(4)
    xs = rng.randint(0, f.q, 200).astype(np.int64)
    ys = rng.randint(0, f.q, 200).astype(np.int64)
    c, d = int(xs[0]), int(ys[-1])
    cases = [(xs, ys), (xs, d), (c, ys), (c, d)]
    for dtype in (np.uint8, np.uint16):
        if f.q <= np.iinfo(dtype).max + 1:
            cases.append((xs.astype(dtype), ys.astype(dtype)))
            cases.append((xs.astype(dtype), d))
    for X, Y in cases:
        pairs = np.broadcast_arrays(np.array(X, dtype=np.int64), np.array(Y, dtype=np.int64))
        pairs = list(zip(*(a.ravel().tolist() for a in pairs)))
        for op, scalar in ((f.vadd, ref.add), (f.vsub, ref.sub)):
            got = np.ravel(op(X, Y)).tolist()
            assert got == [scalar(f, x, y) for x, y in pairs]


def test_tables_hold_no_quadratic_array():
    f = make_field(3, 7)
    sizes = [np.size(v) for v in vars(f.tables()).values() if v is not None]
    assert max(sizes) < f.q ** 2


@pytest.mark.parametrize("p,n", [(3, 10), (2, 16)])
def test_table_build_peak_stays_near_what_the_tables_keep(p, n):
    # a fresh Field, not the cached one, so tables() really builds; numpy
    # reports its buffers to tracemalloc
    f = Field(p, n, make_field(p, n).modulus)
    tracemalloc.start()
    try:
        tb = f.tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = sum(v.nbytes for v in vars(tb).values() if isinstance(v, np.ndarray))
    assert peak <= 1.5 * kept, (peak, kept)


@pytest.mark.parametrize("p,n", [(2, 5), (3, 3), (7, 1)])
def test_vpow_of_every_code(p, n):
    """X = None stands for every code: 0^0 = 1, 0^e = 0 otherwise."""
    f = make_field(p, n)
    X = np.arange(f.q)
    for e in (0, 1, 2, 5, f.q - 2, f.q - 1, f.q, -1):
        want = [f.pow_code(x, e) for x in range(f.q)]
        for got in (f.vpow(None, e), f.vpow(X, e)):
            assert got.dtype == np.int64 and got.tolist() == want, e
        assert int(f.vpow(0, e)) == want[0] and int(f.vpow(np.uint8(2), e)) == want[2]


def test_power_table_peak_is_its_result_and_one_narrow_gather():
    """x^7 on GF(2^16) as a value table: the 0.5 MiB int64 result, which
    takes log * e mod (q - 1) in place, and one uint16 gather of exp, 0.63
    MiB in all (numpy 2.4).  An int64 input arange, an int64 log * e and an
    int64 copy of the gather beside the result traced 2.06 MiB."""
    f = make_field(2, 16)
    f.tables()
    F = Monomial(f, 7)
    tracemalloc.start()
    try:
        FT = F.table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * FT.nbytes, peak
    assert np.array_equal(FT[[0, 1, 2, 3, f.q - 1]], [f.pow_code(x, 7) for x in (0, 1, 2, 3, f.q - 1)])


def test_vadd_peak_is_its_result_and_a_few_digit_rows():
    # one q-length sum on GF(3^10) holds its 0.45 MiB int64 result and a few
    # byte-wide digit rows: 0.62 MiB on numpy 2, and room for older numpy's
    # temporaries; a (q, n) int64 digit array alone is 4.5 MiB
    f = make_field(3, 10)
    f.tables()
    X = np.arange(f.q)
    tracemalloc.start()
    try:
        f.vadd(X, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20, peak


@pytest.mark.parametrize("p,n", [(2, 20), (3, 12), (1048573, 1)])
def test_narrow_tables_are_exact_at_the_largest_fields(p, n):
    """Each table in the narrowest dtype of its values, checked against the
    coefficient-level oracles on 2,000 seeded codes plus 0, 1 and q - 1.  On GF(1048573)
    the Frobenius exponent log * p reaches 2^40, past int32."""
    f = make_field(p, n)
    q = f.q
    tb = f.tables()
    code = np.min_scalar_type(q - 1)
    want = {"exp": code, "log": np.int32, "inv": code, "frob": code,
            "tr": np.min_scalar_type(p - 1)}
    if not f.char2:
        want.update(neg=code, dig=np.min_scalar_type(2 * (p - 1)), eta=np.int8)
    assert {k: v.dtype for k, v in vars(tb).items() if isinstance(v, np.ndarray)} == \
        {k: np.dtype(v) for k, v in want.items()}
    assert tb.log[0] == -1
    assert np.array_equal(np.sort(tb.log[1:]), np.arange(q - 1))
    xs = [0, 1, q - 1] + np.random.default_rng(7).integers(0, q, 2000).tolist()
    for x in xs:
        if x:
            assert tb.exp[tb.log[x]] == x
            assert f.mul_code(x, tb.inv[x]) == 1
        assert tb.frob[x] == f.pow_code(x, p)
        assert tb.tr[x] == ref.trace(f, x)
        if not f.char2:
            assert tb.neg[x] == ref.neg(f, x)
    # tables narrow, results int64; log * (q - 2) passes 2^31
    X = np.array(xs)
    results = (f.vadd(X, X), f.vneg(X), f.vmul(X, X), f.vinv(X), f.vpow(X, q - 2))
    assert all(r.dtype == np.int64 for r in results)
    assert np.array_equal(results[-1], results[-2])


@pytest.mark.parametrize("p,n", [(2, 8), (2, 16), (2, 20), (3, 5)])
def test_scalar_routines_take_numpy_codes(p, n):
    """Table reads are numpy scalars of the table's dtype; the bootstrap
    product gives the same int for them as for Python ints (a uint8 x <<= 1
    would overflow in mul_code at q = 256), and the v-ops the same code."""
    f = make_field(p, n)
    rng = np.random.default_rng(11)
    for dtype in (np.uint8, np.uint16, np.uint32):
        top = min(f.q, int(np.iinfo(dtype).max) + 1)
        xs = [0, 1, top - 1] + rng.integers(0, top, 20).tolist()
        for x, y in zip(xs, xs[::-1]):
            nx, ny = dtype(x), dtype(y)
            for got, want in ((f.mul_code(nx, ny), f.mul_code(x, y)),
                              (f.pow_code(nx, dtype(7)), f.pow_code(x, 7))):
                assert type(got) is int and got == want
            for got, want in ((f.vadd(nx, ny), ref.add(f, x, y)),
                              (f.vmul(nx, ny), f.mul_code(x, y)),
                              (f.vpow(nx, 7), f.pow_code(x, 7)),
                              (f.vinv(nx), ref.inv(f, x))):
                assert int(got) == want


def test_element_operators(field):
    f = field
    a = f.from_code(1 % f.q)
    b = f.from_code(min(2, f.q - 1))
    assert (a + b - b).code == a.code
    assert (a + b).code == ref.add(f, a.code, b.code)
    assert (a * b).code == f.mul_code(a.code, b.code)
    if b.code:
        assert ((a / b) * b).code == a.code
        assert (a / b).code == f.mul_code(a.code, ref.inv(f, b.code))
    assert (b ** 3).code == f.pow_code(b.code, 3)
    assert all(type(e.code) is int for e in (a + b, a - b, -b, a * b, a / b, b ** 3, b.inv()))
    assert bool(f.zero) is False and bool(f.one) is True


def test_trace_helper_matches_method(field):
    x = field.from_code(min(3, field.q - 1))
    assert trace(x) == ref.trace(field, x.code)


def test_scalar_mul_code(field):
    """k * x for the prime-subfield constant k is x added k times."""
    f = field
    for x in range(min(f.q, 12)):
        X = f.from_code(x)
        acc = f.zero
        for k in range(f.p + 2):
            assert f.from_coeffs([k]) * X == acc
            assert acc.code == ref.scalar_mul(f, k, x)
            acc = acc + X


def test_cross_field_operands_rejected():
    a = make_field(2, 4).one
    b = make_field(2, 5).one
    with pytest.raises(FieldError):
        _ = a + b


def test_arithmetic_reads_only_the_tables_once_they_exist(monkeypatch):
    """The polynomial-basis product only builds the tables: once they exist,
    element operators, traces, characters, quadratic and cubic solving,
    quartic patterns, kernels, classification and whole verdicts run with
    mul_code and pow_code refusing every call, and give the same results."""
    f2, f3, f5 = make_field(2, 6), make_field(3, 3), make_field(5, 2)
    claims = [("T3", {"p": 5, "n": 2}), ("T4", {"n": 3}), ("L1", {"n": 4}), ("T6", {"n": 4})]

    def run():
        out = [verify(cid, **kw).to_json_obj(fixed_time=True) for cid, kw in claims]
        for f in (f2, f3, f5):
            x, y = f.from_code(f.q - 1), f.from_code(2)
            out.append([e.code for e in (x + y, x - y, -x, x * y, x / y, x ** 5, x ** -1,
                                         x.inv())])
            out.append(trace(x))
            if not f.char2:
                out.append(quadratic_character(x))
            for c in range(f.q):
                for b in (x, f.zero):
                    out.append(sorted(r.code for r in solve_quadratic(y, b, f.from_code(c))))
        out += [omega(f2).code, omega(f5).code]
        c2, c1, c0 = (f5.from_code(c) for c in (3, 7, 11))
        rep = cubic_roots_odd(c2, c1, c0)
        out.append(([r.code for r in rep.roots], rep.discriminant.code, rep.eta_disc))
        a2, a1, a0 = (f2.from_code(c) for c in (5, 9, 33))
        out += [quartic_pattern_char2(a2, a1, a0).pattern, quartic_pattern_brute(a2, a1, a0)]
        out += [linearized_kernel_dim(t, f2.from_code(b)) for t in (1, 2, 3) for b in (0, 1, 6)]
        out += [classify(Monomial(f, 3)) for f in (f2, f3, f5)]
        return out

    before = run()  # builds every table the checks read

    def refuse(*args):
        raise AssertionError("polynomial-basis arithmetic after the tables were built")

    monkeypatch.setattr(Field, "mul_code", refuse)
    monkeypatch.setattr(Field, "pow_code", refuse)
    assert run() == before
