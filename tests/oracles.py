"""Definition-level oracles the tests compare the program against.

Each recomputes one quantity straight from its definition, one cell or one
element at a time, with no row kernel, orbit or closed form in between.
"""

import numpy as np

from ffspectra.field import FieldElement
from ffspectra.functions import (FunctionUnderTest, GammaTraceInverse, InversePlusTrace,
                                 Monomial, TableFunction)
from ffspectra.spectra import deriv_row


def value(F: FunctionUnderTest, x: int) -> int:
    """The code of F(x), from F's formula by the field's scalar routines,
    which use no table; a TableFunction's formula is the table it holds."""
    f, x = F.field, int(x)
    if isinstance(F, Monomial):
        return f.pow_code(x, F.d)
    if isinstance(F, InversePlusTrace):
        return f.inv_code(x) ^ f.trace_code(f.mul_code(f.mul_code(x, x), f.inv_code(x ^ 1)))
    if isinstance(F, GammaTraceInverse):
        tr = f.trace_code(f.pow_code(x, 2 ** F.t + 1))
        return f.inv_code(x ^ (F.gamma.code if tr else 0))
    if isinstance(F, TableFunction):
        return int(F.table()[x])
    raise TypeError(f"no oracle for {F!r}")


def _at(F: FunctionUnderTest, x: FieldElement) -> FieldElement:
    return F.field.from_code(value(F, x.code))


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


def brute_fbct(F, a, b):
    f = F.field
    hits = 0
    for x in range(f.q):
        xab = value(F, f.add_code(f.add_code(x, a), b))
        xb = value(F, f.add_code(x, b))
        xa = value(F, f.add_code(x, a))
        val = f.add_code(f.sub_code(f.sub_code(xab, xb), xa), value(F, x))
        hits += val == 0
    return hits


def second_order_diff(F: FunctionUnderTest, a: FieldElement, b: FieldElement,
                      x: FieldElement) -> FieldElement:
    """F(x+a+b) - F(x+b) - F(x+a) + F(x)."""
    return _at(F, x + a + b) - _at(F, x + b) - _at(F, x + a) + _at(F, x)


def gapn_derivative(F: FunctionUnderTest, a: FieldElement, x: FieldElement) -> FieldElement:
    """Sum of F(x + a*i) over all i in the prime subfield."""
    f = F.field
    acc = f.zero
    for i in range(f.p):
        acc = acc + _at(F, x + a * f.from_code(i))
    return acc
