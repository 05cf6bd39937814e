"""Difference distribution tables and second-order zero differential spectra.

For F over GF(q) and a derivative direction a, write d_a(x) = F(x+a) - F(x).
Every computation here reduces to d_a:

  ddt entry  delta_F(a,b)  = #{x : d_a(x) = b}
  fbct entry nabla_F(a,b)  = #{x : d_a(x+b) = d_a(x)}

since F(x+a+b) - F(x+b) - F(x+a) + F(x) = d_a(x+b) - d_a(x).

Trivial cells (a=0; b=0; and a=b in characteristic 2) always hold q and are
tracked separately from the max-domain histogram.  Uniformity conventions:
delta_F maxes over a != 0, all b; nabla_F maxes over a,b != 0 (plus a != b in
characteristic 2, where the max is also called beta_F).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from .field import _CHUNK, Field, InvariantError, _prime_factors
from .functions import FunctionUnderTest, Monomial
from .walsh import fbct_walsh as _fbct_walsh

_BLOCK_CELLS = 1 << 20
_PAIR_KEYS = 1 << 13
_PAIR_COST = 39        # prime fields: a pair against a dense cell
_PAIR_COST_ODD = 108   # GF(p^n), p odd, n >= 2: each pair's y - x is a digit-wise vsub
_PAIR_COST_WHT = 16    # characteristic 2: a pair against a butterfly cell
_KEEP_TABLE_LIMIT = 1 << 12  # a kept table is q^2 cells of 2 bytes: 32 MiB at the limit


# ---------------------------------------------------------------------------
# derivative rows
# ---------------------------------------------------------------------------

def deriv_row(F: FunctionUnderTest, a: int) -> np.ndarray:
    """Vector d with d[x] = code of F(x+a) - F(x)."""
    f = F.field
    FT = F.table()
    return f.vsub(FT[f.vadd(np.arange(f.q, dtype=np.int64), a)], FT)


def ddt_row_counts(F: FunctionUnderTest, a) -> np.ndarray:
    """delta_F(a, b) for every b, as a length-q vector indexed by b's code."""
    a = F.field.element(a).code
    return np.bincount(deriv_row(F, a), minlength=F.field.q)


# ---------------------------------------------------------------------------
# symmetry orbits of the rows
# ---------------------------------------------------------------------------

def _scaling_index(f: Field, FT: np.ndarray) -> int:
    """The index m of H = {c != 0 : G(cx) = lambda_c * G(x) for every x} in
    GF(q)*, G = FT - FT[0], so H = <g^m> for the generator g.  With L[i] the
    int32 log of G(g^i) (-1 at a zero), c = g^k scales G iff L rolled by k is
    L shifted by one log lambda, read at the first i with L[i] >= 0 (G = 0 is
    scaled by every c); each probe fills one int32 target in place."""
    t = f.tables()
    q1 = f.q - 1
    L = np.empty(q1, dtype=t.log.dtype)
    for s in range(0, q1, _CHUNK):  # G in int64 a chunk at a time
        L[s:s + _CHUNK] = t.log[f.vsub(FT[t.exp[s:s + _CHUNK]], FT[0])]
    i0 = int(np.argmax(L >= 0))
    if L[i0] < 0:
        return 1
    target = np.empty_like(L)

    def scales(k: int) -> bool:
        np.add(L, (L[(i0 + k) % q1] - L[i0]) % q1, out=target)
        np.remainder(target, q1, out=target)
        target[L < 0] = -1
        # L rolled by k, L[(i + k) % q1], against target[i], as two slices
        return np.array_equal(L[k:], target[:q1 - k]) and np.array_equal(L[:k], target[q1 - k:])

    if scales(1):
        return 1
    m = q1
    for ell in _prime_factors(q1):
        while m % ell == 0 and scales(m // ell):
            m //= ell
    return m


def orbit_rows(F: FunctionUnderTest) -> list:
    """[(a, weight)]: one row a per symmetry orbit of the rows 1..q-1, with
    the orbit's size.  The DDT and FBCT rows of an orbit are column
    permutations of each other, so a statistic that ignores column order
    (histogram, maximum, pair count) is the weighted sum over the orbits.
    Both symmetries are read off the value table:

    - scaling: for c in H = <g^m> (`_scaling_index` of G = F - F(0)),
      nabla(ca, cb) = nabla(a, b) and delta(ca, lambda_c b) = delta(a, b), so a
      row depends only on its coset index log(a) mod m; a power map has m = 1;
    - Frobenius: for the smallest proper divisor e of n with F(s(x)) = s(F(x))
      at every x, s: x -> x^(p^e), row s(a) is row a read at s(b); on the
      coset index s acts as i -> i * p^e mod m.

    Each orbit of coset indices is one orbit of rows, represented by its
    smallest code.  Proved once, then kept on F as its value table is.
    """
    rows = getattr(F, "_orbits", None)
    if rows is not None:
        return rows
    f = F.field
    q = f.q
    t, FT = f.tables(), F.table()
    m = _scaling_index(f, FT)
    key = low = t.exp.reshape(-1, m).min(axis=0)  # smallest code of each coset
    sigma = t.frob  # x -> x^(p^e), in the code dtype
    for e in range(1, f.n // 2 + 1):
        if f.n % e == 0 and all(np.array_equal(FT[sigma[s:s + _CHUNK]], sigma[FT[s:s + _CHUNK]])
                                for s in range(0, q, _CHUNK)):
            i = np.arange(m)
            for _ in range(f.n // e - 1):
                i = i * pow(f.p, e, m) % m
                key = np.minimum(key, low[i])
            break
        sigma = t.frob[sigma]
    size = np.bincount(key)
    size *= (q - 1) // m
    rows = list(zip(np.flatnonzero(size).tolist(), size[size > 0].tolist()))
    if sum(w for _, w in rows) != q - 1:
        raise InvariantError(f"row orbit sizes do not sum to q - 1 = {q - 1}")
    F._orbits = rows
    return rows


def _derivs(F: FunctionUnderTest, codes) -> np.ndarray:
    """The (R, q) array of codes whose row r is d_a for a = codes[r]."""
    D = np.empty((len(codes), F.field.q), dtype=np.min_scalar_type(F.field.q - 1))
    for d, c in zip(D, codes):
        d[:] = deriv_row(F, c)
    return D


def _level_mass(D: np.ndarray) -> np.ndarray:
    """Two int64 rows, s and L, from one bincount of each row d_a of D:
    s_a = sum_v delta(a, v)^2, the number of ordered pairs (x, y) with
    d_a(x) = d_a(y), which is also sum_b nabla(a, b); L_a, the number of
    values v that d_a takes."""
    return np.array([(np.square(c).sum(), np.count_nonzero(c)) for c in map(np.bincount, D)]).T


def _fbct_dense(f: Field, D: np.ndarray) -> np.ndarray:
    """FBCT rows of the rows of D by the dense scan: for each b, one gather
    E[x + b] and one comparison with E for all rows at once; q^2 cells a row.

    E is D transposed to (q, R), each value replaced by its rank among the
    values present, in the narrowest unsigned dtype (one byte for up to 256
    values), which keeps every equality.  The comparison goes into one reused
    mask whose rows form equal runs of at most 255 (padded with zero rows): a
    uint8 column sum over a run cannot wrap, and one sum over the runs counts."""
    R, q = D.shape
    used = np.zeros(q, dtype=bool)
    used[D] = True
    rank = np.cumsum(used) - 1
    E = np.ascontiguousarray(rank.astype(np.min_scalar_type(rank[-1]))[D].T)
    X = np.arange(q, dtype=D.dtype)
    n_runs = -(-q // 255)
    eq = np.zeros((-(-q // n_runs) * n_runs, R), dtype=bool)
    runs = eq.view(np.uint8).reshape(n_runs, -1, R)
    counts = np.empty((R, q), dtype=np.min_scalar_type(q))
    for b in range(q):
        np.equal(E[f.vadd(X, b)], E, out=eq[:q])
        counts[:, b] = runs.sum(axis=1, dtype=np.uint8).sum(axis=0, dtype=counts.dtype)
    return counts


def _equal_pairs(keys: np.ndarray, bound: int):
    """Yield (i, j) for offsets k = 1, 2, ... in the stable sort of ``keys``
    (each below ``bound``): the index pairs i < j of equal keys k apart in
    sorted order, ending with an empty i.  Only the positions still equal at
    offset k can be equal at k + 1."""
    # narrow keys are radix-sorted below 2^16; order and its indices take keys' dtype
    order = np.argsort(keys.astype(np.min_scalar_type(bound - 1), copy=False),
                       kind="stable").astype(keys.dtype, copy=False)
    sk = keys[order]
    i, k = np.flatnonzero(sk[1:] == sk[:-1]).astype(keys.dtype, copy=False), 1
    yield order[i], order[i + k]
    while i.size:
        k += 1
        i = i[:np.searchsorted(i, sk.size - k)]
        i = i[sk[i + k] == sk[i]]
        yield order[i], order[i + k]


def _fbct_pairs(f: Field, D: np.ndarray) -> np.ndarray:
    """FBCT rows of the rows of D from level-set pairs: nabla(a, b) counts
    the ordered pairs (x, y) with d_a(x) = d_a(y) and y - x = b, so a row
    costs s_a pairs instead of q^2 cells.

    A window of whole rows, up to _PAIR_KEYS keys r*q + d_a(x) at index r*q + x,
    or one row when q is larger, is walked at once with `_equal_pairs`, in a
    dtype that also holds q.  Each offset's equal pairs (x, y), x < y, add one at
    r*q + y - x of the window's output rows by `np.add.at`, which counts a
    repeated index each time, with a one of the row dtype (numpy's fast path; a
    Python 1 is about 35 times slower).  The pairs in the other order add the
    row at -b, and x = y adds q at b = 0 (a cell <= q).
    """
    R, q = D.shape
    counts = np.zeros((R, q), dtype=np.min_scalar_type(q))
    step = max(1, _PAIR_KEYS // q)
    for s in range(0, R, step):
        m = min(step, R - s)
        rows = counts[s:s + m]
        keys = D[s:s + m].astype(np.min_scalar_type(max(m * q - 1, q)))  # a copy, never D
        keys += np.arange(0, m * q, q, dtype=keys.dtype)[:, None]  # one row: D's own, + 0
        for i, j in _equal_pairs(keys.ravel(), m * q):
            rowq = i - i % q  # j is in i's row
            np.add.at(rows.reshape(-1), f.vsub(j - rowq, i - rowq) + rowq, counts.dtype.type(1))
        rows += rows if f.char2 else rows[:, f.vneg(np.arange(q))]
        rows[:, 0] += q
    return counts


def _fbct_block(F: FunctionUnderTest, codes: list) -> np.ndarray:
    """The (len, q) block of FBCT rows of the int codes, whose derivatives
    are held as the rows of one (R, q) array D.  Each row must sum to s_a
    and takes the pair kernel when that costs less than the other kernel:
    in characteristic 2 when K * s_a <= (L_a + 1) q log2(q), the transform's
    butterflies, K = _PAIR_COST_WHT (always up to q = 2^5, where a row has
    at most 2^10 pairs); elsewhere when K * s_a <= q^2, the dense scan's
    cells, K = _PAIR_COST_ODD on odd extension fields and _PAIR_COST on
    prime fields (README, "FBCT row kernels").  A block counted by one
    kernel is that kernel's own array, not a copy.  Rows are
    np.min_scalar_type(q), which holds the trivial q.
    """
    f = F.field
    q = f.q
    D = _derivs(F, codes)
    mass, levels = _level_mass(D)
    K, cost, other = ((_PAIR_COST_WHT * (q > 32), (levels + 1) * q * f.n, _fbct_walsh) if f.char2
                      else (_PAIR_COST if f.n == 1 else _PAIR_COST_ODD, q * q, _fbct_dense))
    by_pairs = K * mass <= cost
    if by_pairs.all():
        counts = _fbct_pairs(f, D)
    elif not by_pairs.any():
        counts = other(f, D)
    else:
        counts = np.empty((len(codes), q), dtype=np.min_scalar_type(q))
        counts[by_pairs] = _fbct_pairs(f, D[by_pairs])
        counts[~by_pairs] = other(f, D[~by_pairs])
    bad = np.nonzero(counts.sum(axis=1, dtype=np.int64) != mass)[0]
    if bad.size:
        r = bad[0]
        raise InvariantError(f"FBCT row a={codes[r]} sums to {counts[r].sum()}, "
                             f"not to sum_v delta(a, v)^2 = {mass[r]}")
    return counts


def fbct_row_counts(F: FunctionUnderTest, a) -> np.ndarray:
    """nabla_F(a, b) for every b, as a length-q vector indexed by b's code."""
    return _fbct_block(F, [F.field.element(a).code])[0]


def fbct_rows(F: FunctionUnderTest, codes=None):
    """Yield (a, nabla_F(a, .)) for each a of ``codes`` (default 1..q-1), one
    kernel block at a time; the only path that counts many rows.  A block
    holds at most _BLOCK_CELLS cells, where the dense scan runs faster over many
    rows at once, and in characteristic 2, which has no dense scan, at most
    _PAIR_KEYS cells or 64 rows, whichever holds more (64 from q = 2^7 to 2^14)."""
    q = F.field.q
    codes = [F.field.element(c).code for c in (range(1, q) if codes is None else codes)]
    step = max(1, min(_BLOCK_CELLS // q, max(_PAIR_KEYS // q, 64) if F.field.char2 else _BLOCK_CELLS))
    for s in range(0, len(codes), step):
        block = codes[s:s + step]
        yield from zip(block, _fbct_block(F, block))


# ---------------------------------------------------------------------------
# spectrum reports
# ---------------------------------------------------------------------------

@dataclass
class SpectrumReport:
    kind: str                      # "ddt" | "fbct"
    p: int
    n: int
    modulus: str
    function: str
    histogram: list                # [(value, count)] ascending; see notes below
    uniformity: int
    beta: Optional[int]            # fbct in char 2 only
    trivial_histogram: list        # [(value, count)] over the trivial cells
    nontrivial_cells: int
    trivial_cells: int
    table: Optional[np.ndarray] = None

    def to_json_obj(self) -> dict:
        # histogram always covers exactly the max-domain cells; trivial cells
        # are reported separately so the two never mix.
        obj = {
            "field": {"p": self.p, "n": self.n, "modulus": self.modulus},
            "function": self.function,
            "kind": self.kind,
            "histogram": [{"value": int(v), "count": int(c)}
                          for v, c in sorted(self.histogram)],
            "uniformity": int(self.uniformity),
            "beta": (int(self.beta) if self.beta is not None else None),
            "trivial_histogram": [{"value": int(v), "count": int(c)}
                                  for v, c in sorted(self.trivial_histogram)],
            "nontrivial_cells": int(self.nontrivial_cells),
            "trivial_cells": int(self.trivial_cells),
        }
        if self.table is not None:
            obj["full_table"] = self.table
        return obj


def _trivial(f: Field, a: int) -> list:
    """The trivial cells b of FBCT row a: b = 0, and b = a in characteristic 2."""
    return [0, a] if f.char2 else [0]


def _checked_trivial(f: Field, a: int, row: np.ndarray) -> list:
    """The trivial cells of FBCT row a, after checking that they hold q."""
    trivial = _trivial(f, a)
    if (row[trivial] != f.q).any():
        raise InvariantError(f"a trivial cell of FBCT row a={a} does not hold q")
    return trivial


def _check_keep_table(f: Field, keep_table: bool) -> None:
    """Refuse a kept table above q = 2^12, before any row is counted."""
    if keep_table and f.q > _KEEP_TABLE_LIMIT:
        raise ValueError(f"--keep-table holds q^2 cells and needs "
                         f"q <= {_KEEP_TABLE_LIMIT}, got q={f.q}")


def _spectrum(F: FunctionUnderTest, kind: str, rows, off, keep_table: bool,
              **cells) -> SpectrumReport:
    """The report whose histogram counts the cells of each value in rows
    1..q-1: each orbit of `orbit_rows` read off its representative a and
    weighted by its size, less off(a, row) trivial cells of value q;
    ``rows(codes)`` yields (a, row a).  A kept table holds every row in the
    narrowest dtype that holds q and gives the representatives' rows."""
    f = F.field
    q = f.q
    _check_keep_table(f, keep_table)
    table = None
    if keep_table:
        table = np.empty((q, q), dtype=np.min_scalar_type(q))
        for a, row in rows(range(q)):
            table[a] = row
    orbits = orbit_rows(F)
    reps = [a for a, _ in orbits]
    hist = 0  # made from the first row's counts, not held while rows are counted
    for (a, row), (_, w) in zip(rows(reps) if table is None else zip(reps, table[reps]), orbits):
        counts = np.bincount(row, minlength=q + 1)  # the whole row, with no copy
        counts[q] -= off(a, row)
        hist = np.add(np.multiply(counts, w, out=counts), hist, out=counts)
    nz = np.nonzero(hist)[0]
    uniformity = int(nz.max()) if nz.size else 0
    return SpectrumReport(
        kind=kind, p=f.p, n=f.n, modulus=f.modulus_text(), function=F.text(),
        histogram=[(v, int(hist[v])) for v in nz.tolist()], uniformity=uniformity,
        beta=uniformity if kind == "fbct" and f.char2 else None, table=table, **cells)


def ddt_spectrum(F: FunctionUnderTest, keep_table: bool = False) -> SpectrumReport:
    """The DDT `_spectrum`; row a = 0 holds the q trivial cells."""
    q = F.field.q
    return _spectrum(F, "ddt", lambda codes: ((a, ddt_row_counts(F, a)) for a in codes),
                     lambda a, row: 0, keep_table,
                     trivial_histogram=[(0, q - 1), (q, 1)] if q > 1 else [(q, 1)],
                     nontrivial_cells=(q - 1) * q, trivial_cells=q)


def differential_uniformity(F: FunctionUnderTest) -> int:
    """max delta_F(a,b) over a != 0, all b, read off `ddt_spectrum`."""
    return ddt_spectrum(F).uniformity


def fbct_spectrum(F: FunctionUnderTest, keep_table: bool = False) -> SpectrumReport:
    """The FBCT `_spectrum`, each row less its checked trivial cells, which hold q."""
    f = F.field
    q = f.q
    trivial_cells = 3 * q - 2 if f.char2 else 2 * q - 1
    return _spectrum(F, "fbct", lambda codes: fbct_rows(F, codes),
                     lambda a, row: len(_checked_trivial(f, a, row)), keep_table,
                     trivial_histogram=[(q, trivial_cells)], trivial_cells=trivial_cells,
                     nontrivial_cells=(q - 1) * (q - 2) if f.char2 else (q - 1) * (q - 1))


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------

@dataclass
class Classification:
    differential_uniformity: int
    is_pn: bool
    is_apn: bool
    is_locally_apn: Optional[bool]
    is_gapn: bool


def classify(F: FunctionUnderTest) -> Classification:
    f = F.field
    q = f.q
    du = differential_uniformity(F)
    is_pn = (not f.char2) and du == 1
    is_apn = du == 2

    locally = None
    if f.char2 and isinstance(F, Monomial) and q > 2:
        row1 = ddt_row_counts(F, 1)
        locally = int(row1[2:].max()) == 2  # b outside the prime subfield {0,1}

    # the solution counts of row a^(p^e), or of row c*a for c in the scaling
    # subgroup H of `orbit_rows`, are those of row a, permuted
    FT = F.table()
    X = np.arange(q, dtype=np.int64)
    is_gapn = True
    for a, _ in orbit_rows(F):
        acc = FT
        for i in range(1, f.p):
            acc = f.vadd(acc, FT[f.vadd(X, f.vmul(a, i))])
        if int(np.bincount(acc, minlength=q).max()) > f.p:
            is_gapn = False
            break
    return Classification(differential_uniformity=du, is_pn=is_pn, is_apn=is_apn,
                          is_locally_apn=locally, is_gapn=is_gapn)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def table_csv_lines(table: np.ndarray) -> Iterator[str]:
    """Full q x q table as "a,b,value" rows, a-major, codes as integers, a text a row."""
    yield "a,b,value"
    lines = "\n".join(f"\0{b},%d" for b in range(table.shape[1]))  # \0 stands for "a,"
    for a, row in enumerate(table):
        yield lines.replace("\0", f"{a},") % tuple(row.tolist())
