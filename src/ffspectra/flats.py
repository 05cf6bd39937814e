"""Vanishing 2-flats, the 24x sum identity, and k-th order sum-freedom.

A 2-flat (block) is an unordered set {x1,x2,x3,x4} of four distinct elements
of GF(2^n) with x1+x2+x3+x4 = 0; it vanishes under F when the images also sum
to 0, that is when it is two pairs {x, x+s} of one bucket (s, F(x)+F(x+s)),
which it then is in 3 ways.  The sum of F over a coset u+E of a k-dim E is the
k-th derivative D_e1...D_ekF(u), for a basis e1..ek of E.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .field import _CHUNK, FieldError, InvariantError
from .functions import FunctionUnderTest
from .spectra import _PAIR_KEYS, _checked_trivial, _equal_pairs, ddt_spectrum, fbct_rows

_LIST_LIMIT = 1 << 20  # blocks a listing may hold, each 4 codes and an int64 sort index


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
    listing: Optional[np.ndarray] = None  # (N, 4) codes in the code dtype, a block a row


def _bucket_blocks(FT: np.ndarray, S: np.ndarray):
    """Yield (x, y, i, j) for the pairs (x, y = x+s), x < y, s in S, walked by
    bucket: the vanishing blocks (lo, lo+s, hi, hi+s), lo the smallest code,
    are (x[i], y[i], x[j], y[j]), kept in the one pairing with lo+s < hi.
    All in the code dtype of FT and S, keys (F(x) + F(y))*m + r for s = S[r]."""
    q, m = FT.size, S.size
    X = np.arange(q, dtype=FT.dtype)
    Y = X ^ S[:, None]
    y = Y[Y > X]  # q/2 of each row, x ascending
    x = y ^ np.repeat(S, q // 2)  # not np.broadcast_to(X): its nditer costs 0.15 MB of RSS
    kt = np.min_scalar_type(m * q - 1)
    keys = (FT[x] ^ FT[y]).astype(kt).reshape(m, -1) * m + np.arange(m, dtype=kt)[:, None]
    for i, j in _equal_pairs(keys.ravel(), m * q):
        keep = y[i] < x[j]
        yield x, y, i[keep], j[keep]


def _blocks(F: FunctionUnderTest):
    """The vanishing blocks as `_bucket_blocks` yields them, from whole s
    values of up to max(_PAIR_KEYS, q/2) pairs at a time."""
    q = F.field.q
    FT = F.table().astype(np.min_scalar_type(q - 1))
    step = max(1, _PAIR_KEYS // (q // 2))
    for s in range(1, q, step):
        yield from _bucket_blocks(FT, np.arange(s, min(s + step, q), dtype=FT.dtype))


def _vanishing_listing(F: FunctionUnderTest) -> np.ndarray:
    """The vanishing blocks, ascending codes a row, rows in lexicographic order."""
    B = np.concatenate([np.stack([x[i], y[i], x[j], y[j]], axis=1)
                        for x, y, i, j in _blocks(F)])
    return B[np.lexsort((B[:, 2], B[:, 1], B[:, 0]))]


def vanishing_flats(F: FunctionUnderTest, list_blocks: bool = False) -> FlatReport:
    """The vanishing 2-flats of F: the count from `ddt_spectrum`'s histogram
    and, with ``list_blocks``, the blocks, which must be as many.  Bucket
    (s, b) holds delta(s, b)/2 pairs {x, x+s}, and each vanishing block is
    two pairs of one bucket in 3 ways.  A listing of more than _LIST_LIMIT
    blocks is refused before any block is listed."""
    f = F.field
    if not f.char2:
        raise FieldError("vanishing flats are defined in characteristic 2 only")
    if f.n < 2:
        raise ValueError("need n >= 2 for 2-flats to exist")
    hist = ddt_spectrum(F).histogram
    if any(v % 2 for v, _ in hist):  # x and x+s list each pair twice
        raise InvariantError("odd DDT entry in characteristic 2")
    count, rem = divmod(sum(c * math.comb(v // 2, 2) for v, c in hist), 3)
    if rem:
        raise InvariantError("pair-bucket total is not a multiple of 3")
    if list_blocks and count > _LIST_LIMIT:
        raise ValueError(f"--list needs at most {_LIST_LIMIT} vanishing blocks, got {count}")
    listing = _vanishing_listing(F) if list_blocks else None
    if listing is not None and len(listing) != count:
        raise InvariantError(f"{len(listing)} blocks listed, {count} counted")
    return FlatReport(n=f.n, total_two_flats=count_two_flats(f.n),
                      vanishing_count=count, listing=listing)


@dataclass
class PropIdentityCheck:
    holds: bool
    fbct_sum: int          # sum of nabla(a,b) over a,b != 0, a != b
    vanishing_count: int
    rhs_24x: int


def check_prop_identity(F: FunctionUnderTest) -> PropIdentityCheck:
    """Compare the off-trivial FBCT mass over every row with 24 times the
    number of blocks `_blocks` lists, so neither side rests on a row
    symmetry or on the other (README, "Orbit representatives")."""
    f = F.field
    if not f.char2:
        raise FieldError("identity defined in characteristic 2 only")
    lhs = sum(int(np.delete(row, _checked_trivial(f, a, row)).sum()) for a, row in fbct_rows(F))
    count = sum(i.size for _, _, i, _ in _blocks(F))
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


@dataclass
class SumFreeReport:
    k: int
    is_sum_free: bool
    violating_flat: Optional[tuple]  # sorted element codes of a bad coset


def is_kth_sum_free(F: FunctionUnderTest, k: int) -> SumFreeReport:
    """True when the F-image of every k-dim affine subspace sums to nonzero,
    else the first violating coset.  G = D_e1...D_ekF is constant on each coset
    u + E, so E violates when G has a zero.  Bases sharing e1..e(k-1) take them
    once, their ek max(1, _PAIR_KEYS // q) to a gather; the first violating E
    names its zero with no pivot bit least by (bit count, ascending bits)."""
    f = F.field
    if not f.char2:
        raise FieldError("sum-freedom is defined in characteristic 2 only")
    n = f.n
    if not 2 <= k <= n:
        raise ValueError(f"k={k} out of range 2..{n}")
    X = np.arange(f.q, dtype=np.int64)
    step = max(1, _PAIR_KEYS // f.q)
    for head, group in itertools.groupby(echelon_bases(n, k), key=lambda b: b[:-1]):
        H = F.table()
        for e in head:
            H = H ^ H[X ^ e]
        while last := [b[-1] for b in itertools.islice(group, step)]:
            G = H ^ H[X ^ np.array(last)[:, None]]
            if not G.all():
                i = int(np.argmin(G.all(axis=1)))
                basis = head + [last[i]]
                pivots = sum(1 << (v.bit_length() - 1) for v in basis)
                zeros = np.flatnonzero(G[i] == 0).tolist()
                # one zero per coset has no pivot bit; least by bit count, then
                # ascending bits, which is the largest bit-reversed code
                least = min((u for u in zeros if not u & pivots),
                            key=lambda u: (u.bit_count(), -int(f"{u:0{n}b}"[::-1], 2)))
                flat = np.array([least])
                for e in basis:
                    flat = np.concatenate([flat, flat ^ e])
                return SumFreeReport(k=k, is_sum_free=False, violating_flat=tuple(np.sort(flat).tolist()))
    return SumFreeReport(k=k, is_sum_free=True, violating_flat=None)


def flats_listing_lines(report: FlatReport, field) -> Iterator[str]:
    """One block per line, four element encodings joined by '|', _CHUNK to a text."""
    if report.listing is None:
        raise ValueError("report has no listing; enumerate with list_blocks=True")
    text = np.array([field.from_code(c).text for c in range(field.q)], dtype=object)
    return ("\n".join(map("|".join, text[report.listing[s:s + _CHUNK]].tolist()))
            for s in range(0, len(report.listing), _CHUNK))
