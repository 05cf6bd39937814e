"""Definition-level oracles the tests compare the program against.

Each recomputes one quantity straight from its definition, one cell or one
element at a time, with no row kernel, orbit or closed form in between.
Field arithmetic here is coefficient-level: digits added mod p, and the
polynomial-basis product `Field.mul_code`/`pow_code`, which use no table.
The exponent-formula evaluator, the vanishing-flat and S_6 count formulas and
the Kloosterman closed form are kept as they were when they computed in
`Fraction`, so the integer forms of the program are checked against them.
"""

import ast
import math
import re
from fractions import Fraction

import numpy as np

from ffspectra.closed_forms import HypothesisError
from ffspectra.field import Field, FieldElement, InvariantError
from ffspectra.functions import (_POWER_BITS, FunctionError, FunctionUnderTest,
                                 GammaTraceInverse, InversePlusTrace, Monomial, TableFunction)
from ffspectra.spectra import deriv_row


def add(f: Field, x: int, y: int) -> int:
    """x + y: XOR of codes in characteristic 2, else digits added mod p."""
    x, y = int(x), int(y)
    if f.char2:
        return x ^ y
    return sum((a + b) % f.p * f.p ** i
               for i, (a, b) in enumerate(zip(f.coeffs_of(x), f.coeffs_of(y))))


def neg(f: Field, x: int) -> int:
    return sum(-a % f.p * f.p ** i for i, a in enumerate(f.coeffs_of(int(x))))


def sub(f: Field, x: int, y: int) -> int:
    return add(f, x, neg(f, y))


def inv(f: Field, x: int) -> int:
    """x^(q-2), so inv(0) = 0."""
    return f.pow_code(x, f.q - 2) if int(x) else 0


def trace(f: Field, x: int) -> int:
    """x + x^p + ... + x^(p^(n-1)), which lies in the prime subfield."""
    acc = cur = int(x)
    for _ in range(f.n - 1):
        cur = f.pow_code(cur, f.p)
        acc = add(f, acc, cur)
    if acc >= f.p:
        raise InvariantError("trace left the prime subfield")
    return acc


def eta(f: Field, x: int) -> int:
    """The quadratic character, x^((q-1)/2) read as -1, 0 or 1 (odd q)."""
    if int(x) == 0:
        return 0
    return 1 if f.pow_code(x, (f.q - 1) // 2) == 1 else -1


def scalar_mul(f: Field, k: int, x: int) -> int:
    """x times the prime-subfield constant k."""
    return f.mul_code(k % f.p, x)


def value(F: FunctionUnderTest, x: int) -> int:
    """The code of F(x), from F's formula by the coefficient-level routines
    above; a TableFunction's formula is the table it holds."""
    f, x = F.field, int(x)
    if isinstance(F, Monomial):
        return f.pow_code(x, F.d)
    if isinstance(F, InversePlusTrace):
        return inv(f, x) ^ trace(f, f.mul_code(f.mul_code(x, x), inv(f, x ^ 1)))
    if isinstance(F, GammaTraceInverse):
        tr = trace(f, f.pow_code(x, 2 ** F.t + 1))
        return inv(f, x ^ (F.gamma.code if tr else 0))
    if isinstance(F, TableFunction):
        return int(F.table()[x])
    raise TypeError(f"no oracle for {F!r}")


def ddt_entry(F: FunctionUnderTest, a, b) -> int:
    a, b = F.field.element(a).code, F.field.element(b).code
    return int(np.count_nonzero(deriv_row(F, a) == b))


def fbct_entry(F: FunctionUnderTest, a, b) -> int:
    f = F.field
    a, b = f.element(a).code, f.element(b).code
    d = deriv_row(F, a)
    return int(np.count_nonzero(d[f.vadd(np.arange(f.q, dtype=np.int64), b)] == d))


def level_pair_row(F: FunctionUnderTest, a) -> np.ndarray:
    """FBCT row a as the int64 histogram of y - x over the ordered pairs
    (x, y) of each level set {x : d_a(x) = v}, the sets taken by size."""
    f = F.field
    d = deriv_row(F, f.element(a).code)
    order = np.argsort(d, kind="stable")
    starts = np.flatnonzero(np.r_[True, d[order][1:] != d[order][:-1]])
    sizes = np.diff(np.r_[starts, f.q])
    row = np.zeros(f.q, dtype=np.int64)
    for g in np.unique(sizes).tolist():
        sets = order[starts[sizes == g][:, None] + np.arange(g)]
        x, y = np.repeat(sets, g, axis=1).ravel(), np.tile(sets, (1, g)).ravel()
        row += np.bincount(f.vsub(y, x), minlength=f.q)
    return row


def _second_diff(F: FunctionUnderTest, a: int, b: int, x: int) -> int:
    f = F.field
    xab = value(F, add(f, add(f, x, a), b))
    xb = value(F, add(f, x, b))
    xa = value(F, add(f, x, a))
    return add(f, sub(f, sub(f, xab, xb), xa), value(F, x))


def brute_fbct(F, a, b):
    return sum(_second_diff(F, a, b, x) == 0 for x in range(F.field.q))


def second_order_diff(F: FunctionUnderTest, a: FieldElement, b: FieldElement,
                      x: FieldElement) -> FieldElement:
    """F(x+a+b) - F(x+b) - F(x+a) + F(x)."""
    return F.field.from_code(_second_diff(F, a.code, b.code, x.code))


def gapn_derivative(F: FunctionUnderTest, a: FieldElement, x: FieldElement) -> FieldElement:
    """Sum of F(x + a*i) over all i in the prime subfield."""
    f = F.field
    acc = 0
    for i in range(f.p):
        acc = add(f, acc, value(F, add(f, x.code, f.mul_code(a.code, i))))
    return f.from_code(acc)


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


def eval_exponent_expr(text: str, field: Field, k: int | None = None,
                       t: int | None = None) -> int:
    """The exponent-formula evaluator as it was when every value was a Fraction.

    Its one known fault is kept: a zero base to a negative power escapes as
    ZeroDivisionError, where the program raises its division-by-zero
    FunctionError.
    """
    names = {"p": Fraction(field.p), "n": Fraction(field.n), "q": Fraction(field.q)}
    if k is not None:
        names["k"] = Fraction(k)
    if t is not None:
        names["t"] = Fraction(t)
    src = re.sub(r"(\d)([pnqkt])\b", r"\1*\2", text.replace("^", "**").strip())

    def ev(nd) -> Fraction:
        if isinstance(nd, ast.BinOp):
            if isinstance(nd.op, ast.Pow):
                base, e = ev(nd.left), ev(nd.right)
                if e.denominator != 1:
                    raise FunctionError(f"non-integer power in exponent expression {text!r}")
                ei = int(e)
                size = max(abs(base.numerator), base.denominator)
                if abs(ei) * (size.bit_length() - 1) >= _POWER_BITS:
                    raise FunctionError(f"power too large in exponent expression {text!r}")
                return Fraction(1) / base ** (-ei) if ei < 0 else base ** ei
            fn = _BINOPS.get(type(nd.op))
            if fn is None:
                raise FunctionError(f"unsupported operator in exponent expression {text!r}")
            try:
                return fn(ev(nd.left), ev(nd.right))
            except ZeroDivisionError:
                raise FunctionError(f"division by zero in exponent expression {text!r}") from None
        if isinstance(nd, ast.UnaryOp) and isinstance(nd.op, (ast.USub, ast.UAdd)):
            v = ev(nd.operand)
            return -v if isinstance(nd.op, ast.USub) else v
        if isinstance(nd, ast.Constant) and isinstance(nd.value, int):
            return Fraction(nd.value)
        if isinstance(nd, ast.Name):
            if nd.id in names:
                return names[nd.id]
            raise FunctionError(f"unknown name {nd.id!r} in exponent expression {text!r}")
        raise FunctionError(f"unsupported syntax in exponent expression {text!r}")

    try:
        node = ast.parse(src, mode="eval").body
    except SyntaxError as e:
        raise FunctionError(f"bad exponent expression {text!r}") from e
    val = ev(node)
    if val.denominator != 1:
        got = f" (got {val})" if max(abs(val.numerator), val.denominator) < 10 ** 4300 else ""
        raise FunctionError(f"exponent expression {text!r} is not an integer{got}; "
                            f"check the divisibility hypothesis")
    return int(val)


def _exact_int(val: Fraction, what: str) -> int:
    if val.denominator != 1:
        raise HypothesisError(f"inexact division in {what}: {val}")
    return int(val)


def vanishing_count_formula(theorem_id: str, n: int, K: int) -> int:
    """The vanishing-flat count of C_F1_VB, C_F2_VB or C_F3_VB in Fraction terms,
    given K(1) and with no hypothesis check."""
    what = f"vanishing-flat count for {theorem_id}"
    if theorem_id == "C_F1_VB":
        m = n // 2
        base = (2 ** (m - 2) - 1) * (2 ** (m - 1) - 1)
        if m % 2 == 1:
            base += 1
        return _exact_int(Fraction(base * (2 ** n - 1), 3), what)
    if theorem_id == "C_F2_VB":
        shift = 7 if ((n - 1) // 2) % 3 == 1 else 1
        val = (Fraction(2 ** (n - 2) + shift, 6) - Fraction(K, 8)) * (2 ** n - 1)
        return _exact_int(val, what)
    val = (2 ** n - 1) * (Fraction(2 ** (n - 2) + 1, 6) - Fraction(K, 8))
    return _exact_int(val, what)


def s6_count_formula(theorem_id: str, n: int, K: int) -> int:
    """The S_6 size of C_F2 or C_F3 (with or without _VB) in Fraction terms, given K(1)."""
    family = theorem_id.removesuffix("_VB")
    rich = ((n - 1) // 2) % 3 == 1 if family == "C_F2" else n % 3 == 0
    lead = 2 ** (n - 2) - 5 if rich else 2 ** (n - 2) + 1
    val = 6 * (Fraction(lead, 6) - Fraction(K, 8))
    return _exact_int(val, f"S_6 count for {theorem_id}")


def kloosterman_carlitz(n: int) -> int:
    """Carlitz's closed form of K(1) over GF(2^n) in Fraction terms."""
    acc = sum((-1) ** i * math.comb(n, 2 * i) * 7 ** i for i in range(n // 2 + 1))
    val = 1 + Fraction((-1) ** (n - 1), 2 ** (n - 1)) * acc
    if val.denominator != 1:
        raise InvariantError(f"closed-form Kloosterman evaluation for n={n} is not an "
                             f"integer: {val}")
    return int(val)
