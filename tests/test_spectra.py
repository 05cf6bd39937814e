"""Spectra against definition-level brute force, plus structural invariants."""

import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest

from ffspectra import flats, spectra, walsh
from ffspectra.field import make_field
from ffspectra.functions import (FunctionError, GammaTraceInverse,
                                 InversePlusTrace, Monomial, TableFunction,
                                 parse_function)
from ffspectra.spectra import (classify, ddt_row_counts, ddt_spectrum,
                               differential_uniformity, fbct_row_counts,
                               fbct_rows, fbct_spectrum, orbit_rows, table_csv_lines)
from oracles import brute_fbct, ddt_entry, fbct_entry, level_pair_row


def brute_ddt(F, a, b):
    f = F.field
    return sum(1 for x in range(f.q)
               if f.sub_code(F.eval_code(f.add_code(x, a)), F.eval_code(x)) == b)


CASES = [
    (2, 4, "monomial:d=14"),
    (2, 3, "monomial:d=3"),
    (3, 2, "monomial:d=7"),
    (7, 1, "monomial:d=4"),
    (5, 1, "monomial:d=3"),
]


@pytest.mark.parametrize("p,n,fn", CASES)
def test_rows_match_definition(p, n, fn):
    f = make_field(p, n)
    F = parse_function(f, fn)
    block = dict(fbct_rows(F, range(f.q)))
    for a in range(f.q):
        drow = ddt_row_counts(F, a)
        frow = fbct_row_counts(F, a)
        for b in range(f.q):
            assert drow[b] == brute_ddt(F, a, b), (a, b)
            assert frow[b] == brute_fbct(F, a, b), (a, b)
            assert ddt_entry(F, a, b) == drow[b]
            assert fbct_entry(F, a, b) == frow[b]
        assert (block[a] == frow).all(), a


def test_random_table_function_rows_match_definition():
    rng = np.random.RandomState(5)
    for p, n in [(2, 3), (5, 1)]:
        f = make_field(p, n)
        F = TableFunction(f, [int(v) for v in rng.randint(0, f.q, f.q)])
        block = dict(fbct_rows(F, range(f.q)))
        for a in range(f.q):
            drow = ddt_row_counts(F, a)
            frow = fbct_row_counts(F, a)
            for b in range(f.q):
                assert drow[b] == brute_ddt(F, a, b)
                assert frow[b] == brute_fbct(F, a, b)
            assert (block[a] == frow).all(), (p, n, a)


def _count_kernel_rows(monkeypatch):
    """Patch the private pair, dense and transform kernels to count the rows each gets."""
    rows = {"pairs": 0, "dense": 0, "walsh": 0}
    for kind in rows:
        real = getattr(spectra, f"_fbct_{kind}")

        def counted(f, D, real=real, kind=kind):
            rows[kind] += D.shape[0]
            return real(f, D)

        monkeypatch.setattr(spectra, f"_fbct_{kind}", counted)
    return rows


def _dense_oracle(F, codes):
    return spectra._fbct_dense(F.field, spectra._derivs(F, list(codes)))


def _power_table(f, d):
    return TableFunction(f, [f.pow_code(x, d) for x in range(f.q)])


def _random_table(f, seed):
    return TableFunction(f, [int(v) for v in np.random.RandomState(seed).randint(0, f.q, f.q)])


def _random_permutation(f, seed):
    return TableFunction(f, [int(v) for v in np.random.RandomState(seed).permutation(f.q)])


def _half_permutation(f):
    """A permutation on the half x < q/2 of GF(2^n), zero on the other half."""
    perm = np.random.RandomState(4).permutation(f.q)[:f.q // 2]
    return TableFunction(f, [int(v) for v in perm] + [0] * (f.q // 2))


PAIR_ORACLE_CASES = [
    # (p, n, function, rows, the kernel every row must take)
    (2, 9, lambda f: Monomial(f, 15), range(1, 512), "pairs"),           # APN
    (2, 9, lambda f: _random_permutation(f, 11), range(1, 512), "pairs"),
    (3, 6, lambda f: Monomial(f, 5), range(1, 729), "pairs"),
    (11, 3, lambda f: Monomial(f, 887), range(1, 41), "pairs"),         # the T1 map
    (1327, 1, lambda f: _power_table(f, 884), range(1, 9), "dense"),    # one level set of 441
    # both sides of the row dtype's edge: a row holds q in its trivial
    # cells, so it is uint8 up to q = 255 and uint16 above
    (2, 7, lambda f: _random_table(f, 9), range(1, 128), "pairs"),
    (2, 8, lambda f: _random_table(f, 9), range(1, 256), "pairs"),
    (3, 5, lambda f: _random_permutation(f, 11), range(1, 243), "pairs"),
    (257, 1, lambda f: _random_permutation(f, 9), range(1, 257), "pairs"),
]


@pytest.mark.parametrize("p,n,build,rows,kernel", PAIR_ORACLE_CASES,
                         ids=["x15-GF2^9", "perm-GF2^9", "x5-GF3^6", "T1-GF11^3",
                              "x884-GF1327", "random-GF2^7", "random-GF2^8",
                              "perm-GF3^5", "perm-GF257"])
def test_fbct_rows_equal_the_dense_scan(monkeypatch, p, n, build, rows, kernel):
    F = build(make_field(p, n))
    want = _dense_oracle(F, rows)
    ran = _count_kernel_rows(monkeypatch)
    got = spectra._fbct_block(F, list(rows))
    assert np.array_equal(got, want)
    assert got.dtype == np.min_scalar_type(F.field.q)
    assert np.array_equal(got[-1], level_pair_row(F, rows[-1]))
    assert ran == {k: len(rows) if k == kernel else 0 for k in ran}
    rng = np.random.RandomState(3)
    for r, b in zip(rng.randint(0, len(rows), 6), rng.randint(0, F.field.q, 6)):
        assert got[r, b] == brute_fbct(F, rows[r], b), (rows[r], b)


DENSE_ORACLE_CASES = [
    # (p, n, function, the value of every cell or None, more than 256 ranks);
    # a constant makes each column q ones, which a plain uint8 sum wraps
    (2, 9, lambda f: TableFunction(f, [7] * f.q), 512, False),
    (257, 1, lambda f: TableFunction(f, [3] * f.q), 257, False),
    (2, 9, lambda f: _random_table(f, 6), None, True),                # uint16 ranks
    (3, 4, lambda f: TableFunction(f, [x % 9 for x in range(f.q)]), None, False),  # one run
]


@pytest.mark.parametrize("p,n,build,every,wide", DENSE_ORACLE_CASES,
                         ids=["const-GF2^9", "const-GF257", "random-GF2^9", "low9-GF3^4"])
def test_dense_scan_matches_definition(p, n, build, every, wide):
    f = make_field(p, n)
    F = build(f)
    rows = range(1, f.q)
    D = spectra._derivs(F, rows)
    assert (np.unique(D).size > 256) == wide
    got = spectra._fbct_dense(f, D)
    if every is not None:
        assert (got == every).all()
    assert np.array_equal(got, spectra._fbct_pairs(f, D))
    rng = np.random.RandomState(7)
    for r, b in zip(rng.randint(0, len(rows), 30), rng.randint(0, f.q, 30)):
        assert got[r, b] == brute_fbct(F, rows[r], b), (rows[r], b)


def _valued_table(f, k, seed=0):
    return TableFunction(f, [int(v) for v in np.random.RandomState(seed).randint(0, min(k, f.q), f.q)])


@pytest.mark.parametrize("cut", [False, True], ids=["whole", "cut-by-levels"])
@pytest.mark.parametrize("n", range(1, 12))
def test_transform_rows_equal_the_dense_scan_and_the_definition(monkeypatch, n, cut):
    """4-, 8- and 64-value tables on GF(2)..GF(2^11); with _ONE_HOT_CELLS
    patched to 3q every row is cut into arrays of at most three levels."""
    f = make_field(2, n)
    if cut:
        monkeypatch.setattr(walsh, "_ONE_HOT_CELLS", 3 * f.q)
    rng = np.random.RandomState(n)
    for k in (4, 8, 64):
        F = _valued_table(f, k, seed=k)
        rows = sorted(set(rng.randint(1, f.q, 24).tolist())) if f.q > 2 else [1]
        D = spectra._derivs(F, rows)
        got = spectra._fbct_walsh(f, D)
        assert got.dtype == np.min_scalar_type(f.q)
        assert np.array_equal(got, spectra._fbct_dense(f, D)), k
        for r, b in zip(rng.randint(0, len(rows), 3), rng.randint(0, f.q, 3)):
            assert got[r, b] == brute_fbct(F, rows[r], b), (k, rows[r], b)


@pytest.mark.parametrize("n,first", [(14, np.int16), (15, np.int32), (16, np.int32)])
def test_linear_map_transform_holds_q_in_its_first_dtype(monkeypatch, n, first):
    """x is linear, so d_a is the constant a: one level set, whose first
    transform is q at 0 (and 0 elsewhere) and every cell of the row is q.
    int16 holds W(0) = q = 2^14 and not 2^15 or 2^16, which take int32."""
    f = make_field(2, n)
    F = parse_function(f, "monomial:d=1")
    dtypes = []
    real = walsh.wht

    def wht(M):
        dtypes.append(M.dtype)
        real(M)

    monkeypatch.setattr(walsh, "wht", wht)
    ran = _count_kernel_rows(monkeypatch)
    row = fbct_row_counts(F, 3)
    assert ran == {"pairs": 0, "dense": 0, "walsh": 1}
    assert dtypes == [first, np.int64]
    assert row.dtype == np.min_scalar_type(f.q) and (row == f.q).all()
    assert all(row[b] == fbct_entry(F, 3, b) for b in (0, 1, f.q - 1))


@pytest.mark.parametrize("n,fn,band,kernel", [
    (9, lambda f: _valued_table(f, 20), (0.5, 1), "walsh"),
    (9, lambda f: _valued_table(f, 40), (1, 4), "pairs"),
    (6, lambda f: Monomial(f, 1), (0, 0.05), "walsh"),
    (5, lambda f: Monomial(f, 1), (0, 0.05), "pairs"),  # q <= 2^5: pairs, whatever the costs
], ids=["20-values-GF2^9", "40-values-GF2^9", "x-GF2^6", "x-GF2^5"])
def test_characteristic_2_rows_route_by_pairs_against_butterflies(monkeypatch, n, fn, band, kernel):
    """A row takes pairs when K * s_a <= (L_a + 1) q n, K = _PAIR_COST_WHT,
    that is when (L_a + 1) q n / (K s_a), which lies in ``band``, is >= 1."""
    f = make_field(2, n)
    F = fn(f)
    rows = range(1, min(41, f.q))
    s, L = spectra._level_mass(spectra._derivs(F, rows))
    ratio = (L + 1) * f.q * n / (spectra._PAIR_COST_WHT * s)
    assert ((ratio > band[0]) & (ratio < band[1])).all()
    want = _dense_oracle(F, rows)
    ran = _count_kernel_rows(monkeypatch)
    assert np.array_equal(spectra._fbct_block(F, list(rows)), want)
    assert ran == {k: len(rows) if k == kernel else 0 for k in ran}


def test_constant_function_rows_hold_q():
    """d_a = 0 for a constant on GF(2^5): every cell of every row is q.  A
    transform applied to a copy of its array (a reshape of a non-contiguous
    array copies) gave rows of zeros here."""
    f = make_field(2, 5)
    F = TableFunction(f, [7] * f.q)
    D = spectra._derivs(F, range(1, f.q))
    assert (spectra._fbct_walsh(f, D) == f.q).all()
    assert (spectra._fbct_walsh(f, np.asfortranarray(D)) == f.q).all()
    assert all((row == f.q).all() for _, row in fbct_rows(F))


def test_equal_pairs_yields_every_equal_pair_once():
    """The walk shared by FBCT rows and the vanishing-flat listing: unsorted
    keys in, every index pair i < j of equal keys out once, ending empty."""
    rng = np.random.RandomState(3)
    for keys in (rng.randint(0, 9, 200), np.zeros(6, dtype=np.int64), np.arange(7)[::-1]):
        steps = list(spectra._equal_pairs(keys, 9))
        assert steps[-1][0].size == 0
        seen = [(x, y) for i, j in steps for x, y in zip(i.tolist(), j.tolist())]
        assert sorted(seen) == [(x, y) for x in range(keys.size)
                                for y in range(x + 1, keys.size) if keys[x] == keys[y]]


def test_one_block_mixes_both_kernels(monkeypatch):
    """A permutation on the half x < 256 of GF(2^9), zero on the other half:
    a row a < 256 has the level set of 0 over the whole zero half (the
    transform), a row a >= 256 has level sets of size 2 (pairs)."""
    f = make_field(2, 9)
    F = _half_permutation(f)
    rows = range(1, f.q)
    want = _dense_oracle(F, rows)
    ran = _count_kernel_rows(monkeypatch)
    assert np.array_equal(spectra._fbct_block(F, list(rows)), want)
    assert ran == {"pairs": 256, "dense": 0, "walsh": 255}


@pytest.mark.parametrize("p,n,d", [(2, 16, 7), (3, 10, 5), (3, 11, 5)])
def test_one_row_above_uint16_holds_its_trivial_cells(p, n, d):
    """At q = 2^16 a trivial cell holds 65,536, one more than uint16 holds,
    so the row is uint32 while its codes stay uint16 (its pair keys and
    indices, which must hold q for the row offset, are uint32); GF(3^10)
    stays uint16 and GF(3^11) takes uint32 for both."""
    f = make_field(p, n)
    F = Monomial(f, d)
    row = fbct_row_counts(F, 1)
    assert row.dtype == np.min_scalar_type(f.q)
    assert spectra._derivs(F, [1]).dtype == np.min_scalar_type(f.q - 1)
    assert (row[spectra._trivial(f, 1)] == f.q).all()
    assert np.array_equal(row, level_pair_row(F, 1))
    for b in (2, 3, 255, f.q // 3, f.q - 1):
        assert row[b] == fbct_entry(F, 1, b), b


@pytest.mark.parametrize("times", [1, 3])
@pytest.mark.parametrize("p,n,build", [
    (2, 9, _half_permutation),
    (3, 5, lambda f: _random_permutation(f, 12)),
    (257, 1, lambda f: _random_permutation(f, 13)),
], ids=["half-perm-GF2^9", "perm-GF3^5", "perm-GF257"])
def test_pair_sub_blocks_of_one_and_of_three_rows(monkeypatch, p, n, build, times):
    """_PAIR_KEYS patched to q makes each row its own sub-block (row
    offset 0), and to 3q three rows a sub-block, the last one short; the
    rows equal the dense scan's, also in a block that mixes both kernels."""
    f = make_field(p, n)
    F = build(f)
    rows = list(range(1, f.q))
    want = _dense_oracle(F, rows)
    monkeypatch.setattr(spectra, "_PAIR_KEYS", times * f.q)
    ran = _count_kernel_rows(monkeypatch)
    assert np.array_equal(spectra._fbct_block(F, rows), want)
    assert ran["pairs"] % 3  # the last sub-block of three rows is short
    assert ran["walsh"] == (255 if p == 2 else 0) and ran["dense"] == 0


def test_derivs_hold_one_row_per_a():
    f = make_field(3, 4)
    F = Monomial(f, 5)
    codes = [1, 7, 80, 2]
    D = spectra._derivs(F, codes)
    assert D.shape == (len(codes), f.q) and D.flags.c_contiguous
    for d, a in zip(D, codes):
        assert np.array_equal(d, spectra.deriv_row(F, a)), a


def test_pair_rows_of_a_permutation_are_counted_in_place():
    """fbct_spectrum of a random permutation of GF(2^9), its orbits known
    (511 rows, all by pairs), traces 2.67 MiB at its peak (numpy 2.4): each
    sub-block is counted into its own output rows.  With derivatives held
    as columns and an int64 histogram per sub-block it traced 3.17 MiB."""
    F = _random_permutation(make_field(2, 9), 12)
    F.field.tables()
    F.table()
    orbit_rows(F)
    tracemalloc.start()
    try:
        fbct_spectrum(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.9 * 2 ** 20, peak


def test_orbit_rows_hold_few_q_vectors():
    """For x^7 on GF(2^16), proving the orbits traces 0.63 MiB above what
    it keeps (numpy 2.4, 1.0 on a process's first call): int32 L and one
    int32 target for every scaling probe, with G and the Frobenius check
    in int64 chunks.  With an int64 G kept through the probes, a rolled copy
    per probe and an int64 Frobenius arange it traced 2.06 MiB."""
    F = Monomial(make_field(2, 16), 7)
    F.field.tables()
    F.table()
    tracemalloc.start()
    try:
        assert orbit_rows(F) == [(1, F.field.q - 1)]
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak - kept < 1.5 * 2 ** 20, (peak, kept)


def test_one_row_on_gf_2_16_is_counted_in_narrow_arrays():
    """fbct_spectrum of x^7 on GF(2^16), its one orbit known, traces 3.6 MiB
    at its peak (numpy 2.4); with rows, codes, sort keys and pair indices in
    int64 it traced 5.8 MiB.  The bound leaves 0.9 MiB for another numpy's
    temporaries and still fails the int64 layer."""
    F = Monomial(make_field(2, 16), 7)
    F.field.tables()
    F.table()
    orbit_rows(F)
    tracemalloc.start()
    try:
        fbct_spectrum(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4.5 * 2 ** 20, peak


def test_kept_tables_are_held_in_the_row_dtype():
    for n, dtype in [(7, np.uint8), (8, np.uint16)]:
        F = _random_table(make_field(2, n), 3)
        for spectrum, row in ((ddt_spectrum, ddt_row_counts), (fbct_spectrum, fbct_row_counts)):
            table = spectrum(F, keep_table=True).table
            assert table.dtype == dtype
            assert table.tolist() == [row(F, a).tolist() for a in range(F.field.q)]


def _rows_in_band_stay_dense(monkeypatch, F, band, cells):
    """Rows 1..40 of F have q^2 / s_a inside ``band`` and take the dense scan."""
    f = F.field
    rows = range(1, 41)
    ratio = f.q ** 2 / spectra._level_mass(spectra._derivs(F, rows))[0]
    assert ((ratio > band[0]) & (ratio < band[1])).all()
    want = _dense_oracle(F, rows)
    ran = _count_kernel_rows(monkeypatch)
    got = spectra._fbct_block(F, list(rows))
    assert ran == {"pairs": 0, "dense": len(rows), "walsh": 0}
    assert np.array_equal(got, want)
    for r, b in zip(range(0, 40, 7), cells):
        assert got[r, b] == brute_fbct(F, rows[r], b), (rows[r], b)


def test_odd_extension_rows_between_the_two_costs_stay_dense(monkeypatch):
    """On GF(3^6) a pair costs about 116 dense cells, not 41: a row with
    q^2 / s_a between 41 and 108 takes the dense scan there."""
    f = make_field(3, 6)
    F = TableFunction(f, [int(v) for v in np.random.RandomState(5).randint(0, 50, f.q)])
    _rows_in_band_stay_dense(monkeypatch, F, (spectra._PAIR_COST, spectra._PAIR_COST_ODD),
                             (0, 1, 5, 300, 728, 404))


def test_prime_field_rows_between_the_old_and_new_costs_stay_dense(monkeypatch):
    """On GF(257) a pair costs 41-43 dense cells, not the 32 once used: a
    row with q^2 / s_a between 32 and 41 takes the dense scan."""
    f = make_field(257, 1)
    F = TableFunction(f, [int(v) for v in np.random.RandomState(2).randint(0, 28, f.q)])
    _rows_in_band_stay_dense(monkeypatch, F, (32, spectra._PAIR_COST), (0, 1, 5, 100, 256, 204))


def test_fbct_row_beyond_the_old_addition_table_limit(monkeypatch):
    # q = 6561 > 4096: odd-characteristic rows used to need a q x q table
    f = make_field(3, 8)
    F = Monomial(f, 5)
    a = 1234
    ran = _count_kernel_rows(monkeypatch)
    row = fbct_row_counts(F, a)
    assert ran == {"pairs": 1, "dense": 0, "walsh": 0}
    assert all(row[b] == fbct_entry(F, a, b) for b in range(f.q))
    # definition-level counts over values from scalar evaluation
    values = TableFunction(f, [F.eval_code(x) for x in range(f.q)])
    for b in (0, 1, 4321):
        assert row[b] == brute_fbct(values, a, b), b


def test_ddt_rows_sum_to_q():
    for p, n in [(2, 4), (3, 2), (7, 1)]:
        f = make_field(p, n)
        F = Monomial(f, f.q - 2)
        for a in range(f.q):
            assert int(ddt_row_counts(F, a).sum()) == f.q


def test_fbct_symmetry_and_trivial_cells():
    for p, n, d in [(2, 4, 7), (3, 2, 5), (5, 1, 3)]:
        f = make_field(p, n)
        F = Monomial(f, d)
        rows = np.stack([fbct_row_counts(F, a) for a in range(f.q)])
        assert (rows == rows.T).all()          # symmetric in (a, b)
        assert (rows[0] == f.q).all()          # a = 0 row is trivial
        assert (rows[:, 0] == f.q).all()       # b = 0 column is trivial
        if f.char2:
            assert (np.diag(rows) == f.q).all()  # a = b diagonal in char 2


def test_fbct_entries_even_in_char2_off_diagonal():
    f = make_field(2, 4)
    F = Monomial(f, 7)
    for a in range(1, f.q):
        row = fbct_row_counts(F, a)
        for b in range(1, f.q):
            if b != a:
                assert row[b] % 2 == 0


def test_spectrum_reports_and_uniformities():
    f = make_field(2, 4)
    F = Monomial(f, 14)
    rep = fbct_spectrum(F, keep_table=True)
    assert dict(rep.histogram) == {0: 180, 4: 30}
    assert rep.uniformity == 4 and rep.beta == 4
    assert rep.nontrivial_cells == 15 * 14
    assert rep.trivial_cells == 16 * 16 - 15 * 14
    assert rep.table.shape == (16, 16)
    assert dict(rep.trivial_histogram) == {16: 16 + 15 + 15}
    drep = ddt_spectrum(F)
    assert drep.uniformity == differential_uniformity(F) == 4
    assert sum(c for _, c in drep.histogram) == 16 * 15


def test_odd_characteristic_uniformity_includes_diagonal():
    f = make_field(7, 1)
    F = Monomial(f, 4)
    rep = fbct_spectrum(F)
    assert rep.beta is None
    assert rep.nontrivial_cells == 6 * 6
    grid_max = max(int(fbct_row_counts(F, a)[1:].max()) for a in range(1, 7))
    assert rep.uniformity == grid_max == 2


def test_spectrum_json_schema():
    f = make_field(2, 3)
    F = Monomial(f, 3)
    rep = fbct_spectrum(F, keep_table=True)
    obj = rep.to_json_obj()
    assert obj["full_table"] is rep.table  # written a row at a time by cli._emit
    assert set(obj) == {"field", "function", "kind", "histogram", "uniformity",
                        "beta", "trivial_histogram", "nontrivial_cells",
                        "trivial_cells", "full_table"}
    assert obj["kind"] == "fbct"
    assert obj["function"] == "monomial:d=3"
    assert obj["histogram"] == [{"value": 0, "count": 42}]
    obj2 = fbct_spectrum(F).to_json_obj()
    assert "full_table" not in obj2


def _full_path(monkeypatch):
    """Send every caller of `orbit_rows` down the full path: all rows, weight 1."""
    monkeypatch.setattr(spectra, "orbit_rows", lambda F: [(a, 1) for a in range(1, F.field.q)])


def test_power_map_histogram_from_row_one(monkeypatch):
    cases = [Monomial(make_field(p, n), d) for p, n, d in [(2, 5, 7), (3, 3, 5)]]
    got = []
    for F in cases:
        assert orbit_rows(F) == [(1, F.field.q - 1)]
        got.append(fbct_spectrum(F).histogram)
        assert got[-1] == fbct_spectrum(F, keep_table=True).histogram
    _full_path(monkeypatch)
    assert got == [fbct_spectrum(F).histogram for F in cases]


def test_power_map_rows_are_row_one_at_b_over_a():
    for p, n, d in [(2, 4, 14), (3, 2, 5)]:
        f = make_field(p, n)
        F = Monomial(f, d)
        X = np.arange(f.q, dtype=np.int64)
        row1 = fbct_row_counts(F, 1)
        table = fbct_spectrum(F, keep_table=True).table
        assert (table[0] == f.q).all()
        for a in range(1, f.q):
            row = fbct_row_counts(F, a)
            assert (row1[f.vmul(X, f.vinv(a))] == row).all(), a
            assert (table[a] == row).all(), a


@pytest.mark.parametrize("p,n,rows", [(2, 9, 128), (2, 14, 64), (2, 16, 16), (3, 7, 479)])
def test_block_rows_per_characteristic(monkeypatch, p, n, rows):
    """fbct_rows cuts blocks of 2^16 cells or 64 rows, whichever holds more,
    at most 2^20 cells, in characteristic 2, and of 2^20 cells elsewhere."""
    f = make_field(p, n)
    seen = []
    monkeypatch.setattr(spectra, "_fbct_block", lambda F, codes: seen.append(len(codes)) or
                        np.zeros((len(codes), f.q), dtype=np.uint8))
    assert len(list(fbct_rows(Monomial(f, 3), range(1, 2 * rows + 2)))) == 2 * rows + 1
    assert seen == [rows, rows, 1]


@pytest.mark.parametrize("cells", [1, 48])
def test_kept_table_fills_across_blocks(monkeypatch, cells):
    """Blocks of one and of three rows (q = 16) fill the kept table row by row."""
    F = _random_table(make_field(2, 4), 8)
    want = np.stack([fbct_row_counts(F, a) for a in range(16)])
    monkeypatch.setattr(spectra, "_BLOCK_CELLS", cells)
    assert np.array_equal(fbct_spectrum(F, keep_table=True).table, want)


def _gamma_trace_inverses(f):
    out = []
    for t in range(1, f.n):
        for g in range(1, f.q):
            try:
                out.append(GammaTraceInverse(f, t, f.from_code(g)))
            except FunctionError:
                pass
    return out


def _table_of(F):
    return TableFunction(F.field, [int(v) for v in F.table()])


def _table_by(p, n, values):
    """The table function of ``values(f, X)`` over GF(p^n), X every code."""
    f = make_field(p, n)
    return TableFunction(f, [int(v) for v in values(f, np.arange(f.q, dtype=np.int64))])


# (id, function, the largest orbit size the rows must show: 1 is every row)
FAMILIES = [
    ("x7-GF2^6", Monomial(make_field(2, 6), 7), 63),
    ("x0-GF2^5", Monomial(make_field(2, 5), 0), 31),
    ("x31-GF2^5", Monomial(make_field(2, 5), 31), 31),
    ("x5-GF3^3", Monomial(make_field(3, 3), 5), 26),
    ("x0-GF5^2", Monomial(make_field(5, 2), 0), 24),
    ("x24-GF5^2", Monomial(make_field(5, 2), 24), 24),
    ("x4-GF7^2", Monomial(make_field(7, 2), 4), 48),
    ("invtrace-GF2^6", InversePlusTrace(make_field(2, 6)), 6),
    ("invtrace-GF2^7", InversePlusTrace(make_field(2, 7)), 7),
    ("gamma-GF2^4-t1-g1", _gamma_trace_inverses(make_field(2, 4))[0], 4),
    ("gamma-GF2^4-t1-g6", GammaTraceInverse(make_field(2, 4), 1, make_field(2, 4).from_code(6)), 2),
    ("gamma-GF2^6-last", _gamma_trace_inverses(make_field(2, 6))[-1], None),
    ("table-x7-GF2^6", _table_of(Monomial(make_field(2, 6), 7)), 63),
    ("table-x5-GF3^3", _table_of(Monomial(make_field(3, 3), 5)), 26),
    ("table-x3-GF5^2", _table_of(Monomial(make_field(5, 2), 3)), 24),
    # c^21 = 1 scales x^3 + x^24: H has order 21, Frobenius joins cosets 1, 2
    ("table-x3+x24-GF2^6", _table_by(2, 6, lambda f, X: f.vadd(f.vpow(X, 3), f.vpow(X, 24))), 42),
    # c^9 = 1: H has index 7 = 63 / 3^2, Frobenius orbits {0}, {1, 2, 4}, {3, 5, 6}
    ("table-x+x10-GF2^6", _table_by(2, 6, lambda f, X: f.vadd(X, f.vpow(X, 10))), 27),
    ("table-x+x14-GF3^3", _table_by(3, 3, lambda f, X: f.vadd(X, f.vpow(X, 14))), 13),
    ("table-x+x4-GF7", _table_by(7, 1, lambda f, X: f.vadd(X, f.vpow(X, 4))), 3),
    ("table-5x7+9-GF2^6", _table_by(2, 6, lambda f, X: f.vadd(f.vmul(5, f.vpow(X, 7)), 9)), 63),
    ("table-2x5+4-GF3^3", _table_by(3, 3, lambda f, X: f.vadd(f.vmul(2, f.vpow(X, 5)), 4)), 26),
    ("table-invtrace-GF2^6", _table_of(InversePlusTrace(make_field(2, 6))), 6),
    ("table-random-GF2^6", _random_table(make_field(2, 6), 3), 1),
    ("table-random-GF3^3", _random_table(make_field(3, 3), 3), 1),
]


def vanishing_flats_count(F):
    return flats.vanishing_flats(F).vanishing_count


@pytest.mark.parametrize("F,largest", [(F, w) for _, F, w in FAMILIES],
                         ids=[i for i, _, _ in FAMILIES])
def test_orbit_rows_agree_with_every_row(monkeypatch, F, largest):
    f = F.field
    rows = orbit_rows(F)
    weights = [w for _, w in rows]
    assert sum(weights) == f.q - 1
    if largest is not None:
        assert max(weights) == largest
    # representatives come in ascending code order, the fixed point 1 first
    assert [a for a, _ in rows] == sorted(a for a, _ in rows)
    assert rows[0][0] == 1
    got = (ddt_spectrum(F).histogram, fbct_spectrum(F).histogram,
           differential_uniformity(F), classify(F),
           vanishing_flats_count(F) if f.char2 else None)
    _full_path(monkeypatch)
    assert spectra.orbit_rows(F) == [(a, 1) for a in range(1, f.q)]
    want = (ddt_spectrum(F).histogram, fbct_spectrum(F).histogram,
            differential_uniformity(F), classify(F),
            vanishing_flats_count(F) if f.char2 else None)
    assert got == want


def test_random_table_takes_every_row():
    for p, n in [(2, 8), (3, 4), (5, 2)]:
        F = _random_table(make_field(p, n), 17)
        assert orbit_rows(F) == [(a, 1) for a in range(1, F.field.q)]


def test_one_changed_entry_breaks_the_frobenius_symmetry():
    """Changing inv-plus-trace at any x whose Frobenius orbit is the whole
    of size n breaks F(x^(2^e)) = F(x)^(2^e) for every proper divisor e."""
    f = make_field(2, 6)
    FT = InversePlusTrace(f).table()
    frob = f.tables().frob
    assert max(w for _, w in orbit_rows(_table_of(InversePlusTrace(f)))) == 6
    for x in range(1, f.q):
        orbit = {x}
        y = x
        for _ in range(f.n):
            y = int(frob[y])
            orbit.add(y)
        if len(orbit) < f.n:
            continue
        values = [int(v) for v in FT]
        values[x] ^= 1
        assert orbit_rows(TableFunction(f, values)) == [(a, 1) for a in range(1, f.q)], x


def test_one_changed_entry_breaks_the_scaling_symmetry():
    """A table power map takes one row.  Changing it at any x != 0 leaves no
    c != 1 with G(cx) = lambda_c * G(x), so only Frobenius orbits remain."""
    for p, n, d in [(2, 6, 7), (3, 3, 5), (5, 2, 3)]:
        f = make_field(p, n)
        FT = Monomial(f, d).table()
        assert orbit_rows(_table_of(Monomial(f, d))) == [(1, f.q - 1)]
        for x in range(1, f.q):
            values = [int(v) for v in FT]
            values[x] = f.add_code(values[x], 1)
            F = TableFunction(f, values)
            assert spectra._scaling_index(f, F.table()) == f.q - 1, (p, n, x)
            assert max(w for _, w in orbit_rows(F)) <= n, (p, n, x)


def test_one_kernel_block_is_the_kernels_own_array(monkeypatch):
    f = make_field(2, 6)
    made = []
    real = spectra._fbct_pairs

    def kernel(f, D):
        made.append(real(f, D))
        return made[-1]

    monkeypatch.setattr(spectra, "_fbct_pairs", kernel)
    assert spectra._fbct_block(Monomial(f, 3), list(range(1, f.q))) is made[0]


def test_classify_flags():
    sq = classify(Monomial(make_field(3, 3), 2))
    assert sq.is_pn and sq.differential_uniformity == 1
    # the prime-subfield derivative of a quadratic map is constant, so the
    # at-most-p-solutions criterion fails at that constant
    assert sq.is_gapn is False
    cube = classify(Monomial(make_field(2, 5), 3))
    assert cube.is_apn and not cube.is_pn
    assert cube.is_gapn is True  # in characteristic 2 the two notions agree
    inv16 = classify(Monomial(make_field(2, 4), 14))
    assert inv16.differential_uniformity == 4
    assert inv16.is_locally_apn is True
    lin = classify(Monomial(make_field(2, 4), 2))
    assert lin.differential_uniformity == 16


def test_spectra_hold_no_histogram_while_a_row_is_counted():
    """x^7 on GF(2^16) is one orbit, so each spectrum traces what counting
    its one row traces: the histogram is made from that row's counts, not
    held beside them from the start (0.5 MiB more each when it was)."""
    F = Monomial(make_field(2, 16), 7)
    F.table()
    orbit_rows(F)
    peaks = []
    for count in (lambda: spectra._fbct_block(F, [1]), lambda: fbct_spectrum(F),
                  lambda: ddt_row_counts(F, 1), lambda: ddt_spectrum(F)):
        tracemalloc.start()
        try:
            count()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    slack = 1 << 16  # the histogram is 8 * (q + 1) bytes, 2^19
    assert peaks[1] <= peaks[0] + slack and peaks[3] <= peaks[2] + slack, peaks


def test_table_csv_lines_shape():
    f = make_field(2, 2)
    rep = fbct_spectrum(Monomial(f, 3), keep_table=True)
    lines = "\n".join(table_csv_lines(rep.table)).split("\n")
    assert len(list(table_csv_lines(rep.table))) == 1 + 4  # the header, then a text a row
    assert lines[0] == "a,b,value"
    assert len(lines) == 1 + 16
    assert lines[1] == "0,0,4"


@pytest.mark.parametrize("p,n", [(2, 13), (3, 8)])
def test_kept_table_above_q_4096_is_refused_before_any_row(monkeypatch, p, n):
    def no_rows(*args):
        raise AssertionError("a row was counted")

    for name in ("ddt_row_counts", "fbct_row_counts", "fbct_rows", "orbit_rows"):
        monkeypatch.setattr(spectra, name, no_rows)
    F = Monomial(make_field(p, n), 7)
    for spectrum in (ddt_spectrum, fbct_spectrum):
        with pytest.raises(ValueError, match=f"q <= 4096, got q={p ** n}"):
            spectrum(F, keep_table=True)
    spectra._check_keep_table(make_field(2, 12), True)  # q = 4096 is kept


def test_invariant_checks_survive_python_O():
    """Under ``python -O`` a corrupted trivial FBCT cell (entrywise and
    monomial paths), an odd characteristic-2 DDT entry, an FBCT row from any
    kernel that breaks the row mass, and a second Walsh-Hadamard transform
    with a cell not divisible by q still raise."""
    script = textwrap.dedent("""
        import sys
        from ffspectra import flats, spectra, walsh
        from ffspectra.field import InvariantError, make_field
        from ffspectra.functions import Monomial, TableFunction

        if not sys.flags.optimize:
            raise SystemExit("expected python -O")
        real_block, real_ddt = spectra._fbct_block, spectra.ddt_row_counts

        def corrupt_block(F, codes):
            rows = real_block(F, codes)
            rows[:, 0] -= 1
            return rows

        spectra._fbct_block = corrupt_block
        spectra.ddt_row_counts = lambda F, a: real_ddt(F, a) + 1
        def report(run):
            try:
                run()
                print("no error")
            except InvariantError as exc:
                print("InvariantError", exc)

        f = make_field(2, 4)
        for run in (lambda: spectra.fbct_spectrum(TableFunction(f, range(16))),
                    lambda: spectra.fbct_spectrum(Monomial(f, 7)),
                    lambda: flats.vanishing_flats(Monomial(f, 7))):
            report(run)

        # each kernel gains one pair at b = 1, so its row no longer sums to
        # sum_v delta(a, v)^2; x^3 on GF(2^6) takes pairs, a constant on
        # GF(3^3) the dense scan and a constant on GF(2^6) the transform
        def gain_one(real):
            def kernel(f, D):
                rows = real(f, D)
                rows[:, 1] += 1
                return rows
            return kernel

        for kind in ("pairs", "dense", "walsh"):
            setattr(spectra, f"_fbct_{kind}", gain_one(getattr(spectra, f"_fbct_{kind}")))
        f6 = make_field(2, 6)
        for run in (lambda: real_block(Monomial(f6, 3), [1]),
                    lambda: real_block(TableFunction(make_field(3, 3), [5] * 27), [1]),
                    lambda: real_block(TableFunction(f6, [5] * 64), [1])):
            report(run)

        # the second transform, the only one in int64, gains one at its first cell
        real_wht = walsh.wht
        def off_by_one(M):
            real_wht(M)
            M[0] += M.dtype == "int64"
        walsh.wht = off_by_one
        report(lambda: real_block(TableFunction(f6, [5] * 64), [1]))
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 7 and all(line.startswith("InvariantError") for line in lines), lines
    assert "trivial cell" in lines[0] and "trivial cell" in lines[1], lines
    assert all("not to sum_v delta(a, v)^2" in line for line in lines[3:6]), lines
    assert "not divisible by q" in lines[6], lines
