"""Vanishing 2-flats, the 24x sum identity, and k-th order sum-freedom.

A 2-flat (block) is an unordered set {x1,x2,x3,x4} of four distinct elements
of GF(2^n) with x1+x2+x3+x4 = 0; it vanishes under F when the images also sum
to 0.  Blocks are canonicalized by sorting on the integer element code; the
triple scan enumerates x1 < x2 < x3 with x4 = x1+x2+x3 forced above x3, so
each block appears exactly once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .field import FieldError, InvariantError
from .functions import FunctionUnderTest
from .spectra import ddt_row_counts, fbct_spectrum, orbit_rows


def count_two_flats(n: int) -> int:
    """Number of 2-flats in GF(2^n): 2^n(2^n-1)(2^n-2)/24."""
    if n < 2:
        raise ValueError(f"n={n} must be at least 2")
    q = 1 << n
    total, rem = divmod(q * (q - 1) * (q - 2), 24)
    if rem:
        raise InvariantError(f"2^n(2^n-1)(2^n-2) is not divisible by 24 at n={n}")
    return total


@dataclass
class FlatReport:
    n: int
    total_two_flats: int
    vanishing_count: int
    listing: Optional[list] = None  # list of 4-tuples of element codes


def _vanishing_count_pairs(F: FunctionUnderTest, rows: list) -> int:
    """Count via pair buckets: unordered pairs {x,y} with x+y = s land in the
    bucket (s, F(x)+F(y)), whose sizes are half the DDT row s; a vanishing
    block is two distinct same-bucket pairs, and each block arises from
    exactly 3 of its pairings.  ``rows`` is `orbit_rows`' [(s, weight)]: the
    DDT rows of an orbit hold the same bucket sizes."""
    acc = 0
    for s, w in rows:
        c = ddt_row_counts(F, s)
        if (c % 2).any():  # x and x+s list each pair twice
            raise InvariantError(f"odd entry in DDT row {s} in characteristic 2")
        m = c // 2
        acc += w * int((m * (m - 1) // 2).sum())
    count, rem = divmod(acc, 3)
    if rem:
        raise InvariantError("pair-bucket total is not a multiple of 3")
    return count


def _vanishing_listing(F: FunctionUnderTest) -> list:
    f = F.field
    q = f.q
    FT = F.table()
    X = np.arange(q, dtype=np.int64)
    blocks = []
    for x1 in range(q):
        f1 = FT[x1]
        for x2 in range(x1 + 1, q):
            x3s = X[x2 + 1:]
            x4s = x3s ^ (x1 ^ x2)
            ok = (x4s > x3s) & ((f1 ^ FT[x2] ^ FT[x3s] ^ FT[x4s]) == 0)
            for x3 in x3s[ok]:
                blocks.append((x1, x2, int(x3), int(x1 ^ x2 ^ x3)))
    return blocks


def vanishing_flats(F: FunctionUnderTest, list_blocks: bool = False,
                    full: bool = False) -> FlatReport:
    """The vanishing 2-flats of F: the count, over `orbit_rows` (every row
    with ``full``), and with ``list_blocks`` the blocks themselves."""
    f = F.field
    if not f.char2:
        raise FieldError("vanishing flats are defined in characteristic 2 only")
    if f.n < 2:
        raise ValueError("need n >= 2 for 2-flats to exist")
    if list_blocks:
        listing = _vanishing_listing(F)
        return FlatReport(n=f.n, total_two_flats=count_two_flats(f.n),
                          vanishing_count=len(listing), listing=listing)
    return FlatReport(n=f.n, total_two_flats=count_two_flats(f.n),
                      vanishing_count=_vanishing_count_pairs(F, orbit_rows(F, full=full)),
                      listing=None)


@dataclass
class PropIdentityCheck:
    holds: bool
    fbct_sum: int          # sum of nabla(a,b) over a,b != 0, a != b
    vanishing_count: int
    rhs_24x: int


def check_prop_identity(F: FunctionUnderTest) -> PropIdentityCheck:
    """Compare the off-trivial FBCT mass with 24 times the vanishing count,
    both summed over every row, so neither side rests on a row symmetry."""
    if not F.field.char2:
        raise FieldError("identity defined in characteristic 2 only")
    rep = fbct_spectrum(F, full=True)
    lhs = sum(v * c for v, c in rep.histogram)
    count = vanishing_flats(F, full=True).vanishing_count
    return PropIdentityCheck(holds=(lhs == 24 * count), fbct_sum=lhs,
                             vanishing_count=count, rhs_24x=24 * count)


# ---------------------------------------------------------------------------
# k-dimensional affine subspaces and sum-freedom
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, k: int) -> int:
    """Number of k-dimensional linear subspaces of an n-dim space over F_2."""
    if k < 0 or k > n:
        return 0
    num = den = 1
    for i in range(k):
        num *= (1 << (n - i)) - 1
        den *= (1 << (k - i)) - 1
    count, rem = divmod(num, den)
    if rem:
        raise InvariantError(f"Gaussian binomial [{n} choose {k}]_2 is not an integer")
    return count


def echelon_bases(n: int, k: int):
    """Yield each k-dim linear subspace of F_2^n exactly once, as a basis of
    n-bit integers in reduced echelon form (pivot bits descending, zeros at
    the other pivots, free bits only below the row's own pivot)."""
    for piv in itertools.combinations(range(n - 1, -1, -1), k):
        free = [[c for c in range(n) if c not in piv and c < piv[i]]
                for i in range(k)]
        choice_sets = [
            [sum(bits) for r in range(len(cols) + 1)
             for bits in itertools.combinations([1 << c for c in cols], r)]
            for cols in free
        ]
        for fills in itertools.product(*choice_sets):
            yield [(1 << piv[i]) | fills[i] for i in range(k)]


def _span(basis) -> np.ndarray:
    elems = np.zeros(1, dtype=np.int64)
    for v in basis:
        elems = np.concatenate([elems, elems ^ v])
    return elems


@dataclass
class SumFreeReport:
    k: int
    is_sum_free: bool
    violating_flat: Optional[tuple]  # sorted element codes of a bad coset


def is_kth_sum_free(F: FunctionUnderTest, k: int) -> SumFreeReport:
    """True when the F-image of every k-dimensional affine subspace sums to a
    nonzero value; returns the first violating coset otherwise."""
    f = F.field
    if not f.char2:
        raise FieldError("sum-freedom is defined in characteristic 2 only")
    n = f.n
    if not 2 <= k <= n:
        raise ValueError(f"k={k} out of range 2..{n}")
    FT = F.table()
    nonpivot_cache: dict = {}
    for piv_basis in echelon_bases(n, k):
        span = _span(piv_basis)
        pivot_mask = 0
        for v in piv_basis:
            pivot_mask |= 1 << (v.bit_length() - 1)
        reps = nonpivot_cache.get(pivot_mask)
        if reps is None:
            free_cols = [c for c in range(n) if not (pivot_mask >> c) & 1]
            reps = [sum(bits) for r in range(len(free_cols) + 1)
                    for bits in itertools.combinations([1 << c for c in free_cols], r)]
            nonpivot_cache[pivot_mask] = reps
        for u in reps:
            total = int(np.bitwise_xor.reduce(FT[span ^ u]))
            if total == 0:
                flat = tuple(sorted(int(x) for x in (span ^ u)))
                return SumFreeReport(k=k, is_sum_free=False, violating_flat=flat)
    return SumFreeReport(k=k, is_sum_free=True, violating_flat=None)


def flats_listing_lines(report: FlatReport, field) -> list:
    """One block per line, four element encodings joined by '|'."""
    if report.listing is None:
        raise ValueError("report has no listing; enumerate with list_blocks=True")
    return ["|".join(field.from_code(c).text for c in block) for block in report.listing]
