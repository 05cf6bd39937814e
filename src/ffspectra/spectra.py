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
from typing import Optional

import numpy as np

from .field import Field, FieldElement, InvariantError
from .functions import FunctionUnderTest, Monomial

_BLOCK_CELLS = 1 << 20
_PAIR_KEYS = 1 << 16
_PAIR_COST = 16


# ---------------------------------------------------------------------------
# derivative rows and single entries
# ---------------------------------------------------------------------------

def deriv_row(F: FunctionUnderTest, a: int) -> np.ndarray:
    """Vector d with d[x] = code of F(x+a) - F(x)."""
    f = F.field
    FT = F.table()
    return f.vsub(FT[f.vadd(np.arange(f.q, dtype=np.int64), a)], FT)


def ddt_entry(F: FunctionUnderTest, a, b) -> int:
    a, b = F.field.element(a).code, F.field.element(b).code
    return int(np.count_nonzero(deriv_row(F, a) == b))


def ddt_row_counts(F: FunctionUnderTest, a) -> np.ndarray:
    """delta_F(a, b) for every b, as a length-q vector indexed by b's code."""
    a = F.field.element(a).code
    return np.bincount(deriv_row(F, a), minlength=F.field.q)


def differential_uniformity(F: FunctionUnderTest) -> int:
    """max delta_F(a,b) over a != 0, all b; row by row, no full table kept."""
    best = 0
    for a in range(1, F.field.q):
        best = max(best, int(ddt_row_counts(F, a).max()))
    return best


def fbct_entry(F: FunctionUnderTest, a, b) -> int:
    f = F.field
    a, b = f.element(a).code, f.element(b).code
    d = deriv_row(F, a)
    return int(np.count_nonzero(d[f.vadd(np.arange(f.q, dtype=np.int64), b)] == d))


def _block_rows(q: int) -> int:
    return max(1, _BLOCK_CELLS // q)


def _derivs(F: FunctionUnderTest, codes) -> np.ndarray:
    """The (q, R) int32 array whose column r is d_a for a = codes[r]."""
    D = np.empty((F.field.q, len(codes)), dtype=np.int32)
    for r, c in enumerate(codes):
        D[:, r] = deriv_row(F, c)
    return D


def _level_mass(D: np.ndarray) -> np.ndarray:
    """s_a = sum_v delta(a, v)^2 for each column d_a of D: the number of
    ordered pairs (x, y) with d_a(x) = d_a(y), which is also sum_b nabla(a, b)."""
    mass = np.empty(D.shape[1], dtype=np.int64)
    for r, d in enumerate(D.T):
        c = np.bincount(d, minlength=D.shape[0])
        mass[r] = c @ c
    return mass


def _fbct_dense(f: Field, D: np.ndarray) -> np.ndarray:
    """FBCT rows of the columns of D by the dense scan: for each b, one gather
    D[x + b] and one comparison with D for all columns at once; q^2 cells a row."""
    q, R = D.shape
    X = np.arange(q, dtype=np.int64)
    counts = np.empty((R, q), dtype=np.int64)
    for b in range(q):
        counts[:, b] = np.count_nonzero(D[f.vadd(X, b)] == D, axis=0)
    return counts


def _fbct_pairs(f: Field, D: np.ndarray) -> np.ndarray:
    """FBCT rows of the columns of D from level-set pairs: nabla(a, b) counts
    the ordered pairs (x, y) with d_a(x) = d_a(y) and y - x = b, so a row
    costs s_a pairs instead of q^2 cells.

    Up to _PAIR_KEYS keys r*q + d_a(x) are sorted at once.  Equal keys sit at
    offsets k = 1, 2, ... of each other, and only the positions still equal
    at offset k can be equal at k + 1.  Each such pair (x, y), x first in
    sorted order, adds one to H(y - x); the pairs in the other order give
    H(x - y), and x = y gives q at b = 0.  Pending differences are
    bincounted once max(_PAIR_KEYS, q) of them have piled up, so a sub-block
    holds O(max(_PAIR_KEYS, q)) memory whatever its pair count.
    """
    q, R = D.shape
    counts = np.empty((R, q), dtype=np.int64)
    neg = f.vneg(np.arange(q, dtype=np.int64))
    step = max(1, _PAIR_KEYS // q)
    cap = max(_PAIR_KEYS, q)
    for s in range(0, R, step):
        m = min(step, R - s)
        keys = (D[:, s:s + m].T + np.arange(0, m * q, q, dtype=np.int64)[:, None]).ravel()
        # below 2^16 the keys fit uint16, which numpy's stable sort radix-sorts
        order = np.argsort(keys.astype(np.min_scalar_type(keys.size - 1)), kind="stable")
        sk = keys[order]
        xs = order % q
        rowq = order - xs
        hist = np.zeros(m * q, dtype=np.int64)
        pending, npend = [], 0
        i = np.arange(sk.size)
        k = 1
        while i.size:
            i = i[:np.searchsorted(i, sk.size - k)]
            i = i[sk[i + k] == sk[i]]
            pending.append(rowq[i] + f.vsub(xs[i + k], xs[i]))
            npend += i.size
            if npend >= cap or not i.size:
                hist += np.bincount(np.concatenate(pending), minlength=m * q)
                pending, npend = [], 0
            k += 1
        hist = hist.reshape(m, q)
        counts[s:s + m] = hist + hist[:, neg]
        counts[s:s + m, 0] += q
    return counts


def fbct_row_counts(F: FunctionUnderTest, a) -> np.ndarray:
    """nabla_F(a, b) for every b, as a length-q vector indexed by b's code.

    ``a`` is one element (a FieldElement, a code or element text); any other
    iterable is a sequence of them, and gives the (len, q) block of their
    rows.  The derivatives of up to _BLOCK_CELLS / q rows are held as the
    columns of one (q, R) array D.  A row takes the pair kernel when
    _PAIR_COST * s_a <= q^2 and the dense scan otherwise, and must sum to s_a.
    """
    f = F.field
    q = f.q
    single = isinstance(a, (int, np.integer, str, FieldElement))
    codes = [f.element(c).code for c in ([a] if single else a)]
    counts = np.empty((len(codes), q), dtype=np.int64)
    step = _block_rows(q)
    for s in range(0, len(codes), step):
        block = codes[s:s + step]
        D = _derivs(F, block)
        mass = _level_mass(D)
        by_pairs = _PAIR_COST * mass <= q * q
        rows = counts[s:s + len(block)]
        for kernel, use in ((_fbct_pairs, by_pairs), (_fbct_dense, ~by_pairs)):
            if use.any():
                rows[use] = kernel(f, D if use.all() else D[:, use])
        bad = np.nonzero(rows.sum(axis=1) != mass)[0]
        if bad.size:
            r = bad[0]
            raise InvariantError(f"FBCT row a={block[r]} sums to {rows[r].sum()}, "
                                 f"not to sum_v delta(a, v)^2 = {mass[r]}")
    return counts[0] if single else counts


def fbct_rows(F: FunctionUnderTest):
    """Yield (a, nabla_F(a, .)) for a = 1..q-1, one kernel block at a time."""
    q = F.field.q
    step = _block_rows(q)
    for s in range(1, q, step):
        yield from zip(range(s, q), fbct_row_counts(F, range(s, min(s + step, q))))


def monomial_row_all(F: Monomial) -> np.ndarray:
    if not isinstance(F, Monomial):
        raise TypeError("monomial_row_all requires a power map")
    return fbct_row_counts(F, 1)


def monomial_table_from_row(F: Monomial) -> np.ndarray:
    """Full FBCT of a power map from row a=1 via nabla(a,b) = nabla(1, b/a)."""
    f = F.field
    q = f.q
    row1 = monomial_row_all(F)
    t = f.tables()
    X = np.arange(q, dtype=np.int64)
    table = np.empty((q, q), dtype=np.int64)
    table[0, :] = q
    for a in range(1, q):
        table[a, :] = row1[f.vmul(X, np.full(q, t.inv[a], dtype=np.int64))]
    return table


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
            obj["full_table"] = [[int(x) for x in row] for row in self.table]
        return obj


def _hist_pairs(counts: np.ndarray) -> list:
    nz = np.nonzero(counts)[0]
    return [(int(v), int(counts[v])) for v in nz]


def _nontrivial(f: Field, a: int, row: np.ndarray) -> np.ndarray:
    """FBCT row a without its trivial cells (b = 0, and b = a in
    characteristic 2), after checking that they hold q."""
    trivial = [0, a] if f.char2 else [0]
    if (row[trivial] != f.q).any():
        raise InvariantError(f"a trivial cell of FBCT row a={a} does not hold q")
    return np.delete(row, trivial)


def ddt_spectrum(F: FunctionUnderTest, keep_table: bool = False) -> SpectrumReport:
    f = F.field
    q = f.q
    hist = np.zeros(q + 1, dtype=np.int64)
    for a in range(1, q):
        hist += np.bincount(ddt_row_counts(F, a), minlength=q + 1)
    uniformity = int(np.nonzero(hist)[0].max())
    table = None
    if keep_table:
        table = np.stack([ddt_row_counts(F, a) for a in range(q)])
    return SpectrumReport(
        kind="ddt", p=f.p, n=f.n, modulus=f.modulus_text(), function=F.text(),
        histogram=_hist_pairs(hist), uniformity=uniformity, beta=None,
        trivial_histogram=[(0, q - 1), (q, 1)] if q > 1 else [(q, 1)],
        nontrivial_cells=(q - 1) * q, trivial_cells=q, table=table)


def fbct_spectrum(F: FunctionUnderTest, keep_table: bool = False,
                  method: str = "auto") -> SpectrumReport:
    f = F.field
    q = f.q
    if method == "auto":
        method = "monomial" if isinstance(F, Monomial) else "entrywise"
    if method == "monomial" and not isinstance(F, Monomial):
        raise TypeError("monomial method requires a power map")

    hist = np.zeros(q + 1, dtype=np.int64)
    if method == "monomial":
        # nabla(a,b) = nabla(1, b/a): the nontrivial multiset is (q-1) copies
        # of row a=1 without its trivial cells.
        hist += np.bincount(_nontrivial(f, 1, monomial_row_all(F)),
                            minlength=q + 1) * (q - 1)
    else:
        for a, row in fbct_rows(F):
            hist += np.bincount(_nontrivial(f, a, row), minlength=q + 1)

    nz = np.nonzero(hist)[0]
    uniformity = int(nz.max()) if nz.size else 0
    trivial_cells = 3 * q - 2 if f.char2 else 2 * q - 1
    nontrivial = (q - 1) * (q - 2) if f.char2 else (q - 1) * (q - 1)
    table = None
    if keep_table:
        table = (monomial_table_from_row(F) if isinstance(F, Monomial)
                 else fbct_row_counts(F, range(q)))
    return SpectrumReport(
        kind="fbct", p=f.p, n=f.n, modulus=f.modulus_text(), function=F.text(),
        histogram=_hist_pairs(hist), uniformity=uniformity,
        beta=uniformity if f.char2 else None,
        trivial_histogram=[(q, trivial_cells)],
        nontrivial_cells=nontrivial, trivial_cells=trivial_cells, table=table)


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

    FT = F.table()
    X = np.arange(q, dtype=np.int64)
    is_gapn = True
    for a in range(1, q):
        acc = FT
        for i in range(1, f.p):
            acc = f.vadd(acc, FT[f.vadd(X, f.mul_code(a, i))])
        if int(np.bincount(acc, minlength=q).max()) > f.p:
            is_gapn = False
            break
    return Classification(differential_uniformity=du, is_pn=is_pn, is_apn=is_apn,
                          is_locally_apn=locally, is_gapn=is_gapn)


# ---------------------------------------------------------------------------
# emission
# ---------------------------------------------------------------------------

def table_csv_lines(table: np.ndarray) -> list:
    """Full q x q table as "a,b,value" rows, a-major, codes as integers."""
    lines = ["a,b,value"]
    q = table.shape[0]
    for a in range(q):
        row = table[a]
        lines.extend(f"{a},{b},{int(row[b])}" for b in range(q))
    return lines
