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

import multiprocessing
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .field import Field, FieldElement, make_field
from .functions import FunctionUnderTest, Monomial, function_from_payload

_PARALLEL_MIN_Q = 512
_BLOCK_CELLS = 1 << 22


# ---------------------------------------------------------------------------
# derivative rows and single entries
# ---------------------------------------------------------------------------

def deriv_row(F: FunctionUnderTest, a: int) -> np.ndarray:
    """Vector d with d[x] = code of F(x+a) - F(x)."""
    f = F.field
    FT = F.table()
    X = np.arange(f.q, dtype=np.int64)
    if f.char2:
        return FT[X ^ a] ^ FT
    t = f.tables()
    return f.vsub(FT[t.add[:, a]], FT)


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
    X = np.arange(f.q, dtype=np.int64)
    shifted = d[X ^ b] if f.char2 else d[f.tables().add[:, b]]
    return int(np.count_nonzero(shifted == d))


def fbct_row_counts(F: FunctionUnderTest, a) -> np.ndarray:
    """nabla_F(a, b) for every b, as a length-q vector indexed by b's code."""
    f = F.field
    a = f.element(a).code
    return _fbct_row_from_deriv(f, deriv_row(F, a))


def _fbct_row_from_deriv(f: Field, d: np.ndarray) -> np.ndarray:
    q = f.q
    counts = np.empty(q, dtype=np.int64)
    X = np.arange(q, dtype=np.int64)
    blk = max(1, min(q, _BLOCK_CELLS // q))
    add = None if f.char2 else f.tables().add
    col = d[:, None]
    for s in range(0, q, blk):
        idx = (X[:, None] ^ X[None, s:s + blk]) if f.char2 else add[:, s:s + blk]
        counts[s:s + blk] = (d[idx] == col).sum(axis=0)
    return counts


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


def _ddt_hist_range(F: FunctionUnderTest, lo: int, hi: int):
    """Histogram of delta_F(a,b) over a in [lo,hi) (a>=1), all b; plus rows."""
    q = F.field.q
    hist = np.zeros(q + 1, dtype=np.int64)
    for a in range(max(lo, 1), hi):
        row = ddt_row_counts(F, a)
        hist += np.bincount(row, minlength=q + 1)
    return hist


def _fbct_hist_range(F: FunctionUnderTest, lo: int, hi: int):
    """Histogram of nabla_F(a,b) over max-domain cells with a in [lo,hi)."""
    f = F.field
    q = f.q
    hist = np.zeros(q + 1, dtype=np.int64)
    for a in range(max(lo, 1), hi):
        row = _fbct_row_from_deriv(f, deriv_row(F, a))
        assert row[0] == q, "b=0 column must hold q"
        row = row[1:]  # drop b=0
        if f.char2:
            assert row[a - 1] == q, "diagonal must hold q"
            row = np.delete(row, a - 1)
        hist += np.bincount(row, minlength=q + 1)
    return hist


_WCTX: dict = {}


def _worker_init(p, n, modulus, payload, kind):
    f = make_field(p, n, list(modulus))
    F = function_from_payload(f, payload)
    F.table()
    f.tables()
    _WCTX["F"] = F
    _WCTX["kind"] = kind


def _worker_range(bounds):
    lo, hi = bounds
    F = _WCTX["F"]
    fn = _ddt_hist_range if _WCTX["kind"] == "ddt" else _fbct_hist_range
    return fn(F, lo, hi)


def _hist_over_rows(F: FunctionUnderTest, kind: str, workers: int) -> np.ndarray:
    q = F.field.q
    serial = _ddt_hist_range if kind == "ddt" else _fbct_hist_range
    if workers <= 1 or q < _PARALLEL_MIN_Q:
        return serial(F, 1, q)
    nchunks = max(workers * 4, 1)
    step = max((q - 1 + nchunks - 1) // nchunks, 1)
    bounds = [(lo, min(lo + step, q)) for lo in range(1, q, step)]
    f = F.field
    ctx = multiprocessing.get_context("fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn")
    with ctx.Pool(workers, initializer=_worker_init,
                  initargs=(f.p, f.n, tuple(f.modulus), F.payload(), kind)) as pool:
        parts = pool.map(_worker_range, bounds)
    total = np.zeros(q + 1, dtype=np.int64)
    for part in parts:
        total += part
    return total


def ddt_spectrum(F: FunctionUnderTest, keep_table: bool = False, workers: int = 1) -> SpectrumReport:
    f = F.field
    q = f.q
    hist = _hist_over_rows(F, "ddt", workers)
    uniformity = int(np.nonzero(hist)[0].max())
    table = None
    if keep_table:
        table = np.empty((q, q), dtype=np.int64)
        for a in range(q):
            table[a] = ddt_row_counts(F, a)
    return SpectrumReport(
        kind="ddt", p=f.p, n=f.n, modulus=f.modulus_text(), function=F.text(),
        histogram=_hist_pairs(hist), uniformity=uniformity, beta=None,
        trivial_histogram=[(0, q - 1), (q, 1)] if q > 1 else [(q, 1)],
        nontrivial_cells=(q - 1) * q, trivial_cells=q, table=table)


def fbct_spectrum(F: FunctionUnderTest, keep_table: bool = False, workers: int = 1,
                  method: str = "auto") -> SpectrumReport:
    f = F.field
    q = f.q
    if method == "auto":
        method = "monomial" if isinstance(F, Monomial) else "entrywise"
    if method == "monomial" and not isinstance(F, Monomial):
        raise TypeError("monomial method requires a power map")

    if method == "monomial":
        # nabla(a,b) = nabla(1, b/a): the nontrivial multiset is (q-1) copies
        # of row a=1 restricted to b not in {0,1} (plus b != 0 in odd char).
        row1 = monomial_row_all(F)
        assert row1[0] == q
        drop = (2 if f.char2 else 1)
        body = row1[drop:] if f.char2 else row1[1:]
        if f.char2:
            assert row1[1] == q, "diagonal must hold q"
        hist = np.bincount(body, minlength=q + 1) * (q - 1)
    else:
        hist = _hist_over_rows(F, "fbct", workers)

    nz = np.nonzero(hist)[0]
    uniformity = int(nz.max()) if nz.size else 0
    trivial_cells = 3 * q - 2 if f.char2 else 2 * q - 1
    nontrivial = (q - 1) * (q - 2) if f.char2 else (q - 1) * (q - 1)
    table = None
    if keep_table:
        if isinstance(F, Monomial):
            table = monomial_table_from_row(F)
        else:
            table = np.empty((q, q), dtype=np.int64)
            for a in range(q):
                table[a] = _fbct_row_from_deriv(f, deriv_row(F, a))
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
    add = None if f.char2 else f.tables().add
    is_gapn = True
    for a in range(1, q):
        if f.char2:
            acc = FT ^ FT[X ^ a]
        else:
            acc = FT.copy()
            for i in range(1, f.p):
                ai = f.mul_code(a, i)
                acc = f.vadd(acc, FT[add[:, ai]])
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
