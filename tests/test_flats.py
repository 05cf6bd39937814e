"""Vanishing flats, the 24x mass identity, and sum-freedom."""

import itertools
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ffspectra import flats, spectra
from ffspectra.closed_forms import verify
from ffspectra.field import FieldError, make_field
from ffspectra.flats import (check_prop_identity, count_two_flats,
                             echelon_bases, flats_listing_lines,
                             gaussian_binomial, is_kth_sum_free,
                             vanishing_flats)
from ffspectra.functions import Monomial, TableFunction
from ffspectra.spectra import fbct_row_counts
from oracles import value


def brute_vanishing(F):
    f = F.field
    blocks = []
    for quad in itertools.combinations(range(f.q), 4):
        x1, x2, x3, x4 = quad
        if x1 ^ x2 ^ x3 ^ x4 == 0:
            if value(F, x1) ^ value(F, x2) ^ value(F, x3) ^ value(F, x4) == 0:
                blocks.append(quad)
    return blocks


def test_counts_match_brute_force():
    rng = np.random.RandomState(9)
    f8 = make_field(2, 3)
    f16 = make_field(2, 4)
    cases = [Monomial(f8, 3), Monomial(f8, 6), Monomial(f16, 14),
             Monomial(f16, 7),
             TableFunction(f8, [int(v) for v in rng.randint(0, 8, 8)]),
             TableFunction(f16, [int(v) for v in rng.randint(0, 16, 16)])]
    for F in cases:
        want = brute_vanishing(F)
        rep = vanishing_flats(F, list_blocks=True)
        assert rep.vanishing_count == len(want)
        assert sorted(_rows(rep.listing)) == want
        assert vanishing_flats(F).vanishing_count == len(want)


def _rows(listing):
    """A listing's blocks as code tuples, the oracles' form."""
    return list(map(tuple, listing.tolist()))


def triple_scan_listing(F):
    """The blocks by a scan over x1 < x2 < x3 with x4 = x1+x2+x3 forced above
    x3, so each block appears once, in lexicographic order."""
    q = F.field.q
    FT = F.table()
    X = np.arange(q, dtype=np.int64)
    blocks = []
    for x1 in range(q):
        for x2 in range(x1 + 1, q):
            x3s = X[x2 + 1:]
            x4s = x3s ^ (x1 ^ x2)
            ok = (x4s > x3s) & ((FT[x1] ^ FT[x2] ^ FT[x3s] ^ FT[x4s]) == 0)
            blocks.extend((x1, x2, int(x3), int(x1 ^ x2 ^ x3)) for x3 in x3s[ok])
    return blocks


def _oracle_functions(f):
    """Monomials, seeded random tables, and last x^3 with one entry changed,
    whose first violating flats sit far into the coset scan."""
    rng = np.random.RandomState(f.n)
    cube = Monomial(f, 3).table().tolist()
    cube[f.q - 3] ^= 1
    return [Monomial(f, d) for d in (1, 3, 7, f.q - 2) if 0 < d < f.q] + \
        [TableFunction(f, [int(v) for v in rng.randint(0, hi, f.q)]) for hi in (f.q, 4)] + \
        [TableFunction(f, cube)]


@pytest.mark.parametrize("n", range(2, 8))
def test_listing_matches_triple_scan(n, monkeypatch):
    """Same blocks in the same order, with whole s values taken one at a
    time, several at a time (the last chunk short) and by default."""
    f = make_field(2, n)
    half = f.q // 2
    real, widths = flats._bucket_blocks, set()

    def spy(FT, S):
        widths.add(S.size)
        return real(FT, S)

    monkeypatch.setattr(flats, "_bucket_blocks", spy)
    for F in _oracle_functions(f):
        want = triple_scan_listing(F)
        for keys in (1, 2 * half, 5 * half, flats._PAIR_KEYS):
            monkeypatch.setattr(flats, "_PAIR_KEYS", keys)
            assert _rows(flats._vanishing_listing(F)) == want, (F.text(), keys)
        listing = vanishing_flats(F, list_blocks=True).listing
        assert listing.dtype == np.min_scalar_type(f.q - 1) and listing.shape == (len(want), 4)
        assert _rows(listing) == want
    assert 1 in widths and max(widths) > 1, widths


def test_listing_count_invariant_survives_python_O():
    """Under ``python -O`` a listing one block short of the pair count raises."""
    script = textwrap.dedent("""
        import sys
        from ffspectra import flats
        from ffspectra.field import InvariantError, make_field
        from ffspectra.functions import Monomial

        if not sys.flags.optimize:
            raise SystemExit("expected python -O")
        real = flats._vanishing_listing
        flats._vanishing_listing = lambda F: real(F)[1:]
        try:
            flats.vanishing_flats(Monomial(make_field(2, 4), 14), list_blocks=True)
            print("no error")
        except InvariantError as exc:
            print("InvariantError", exc)
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines() == ["InvariantError 4 blocks listed, 5 counted"]


def test_total_two_flats_formula():
    for n in (2, 3, 4, 5):
        q = 2 ** n
        # every unordered 4-set summing to zero, counted directly
        total = sum(1 for x1, x2, x3 in itertools.combinations(range(q), 3)
                    if (x1 ^ x2 ^ x3) > x3)
        assert count_two_flats(n) == total
        assert vanishing_flats(Monomial(make_field(2, n), 1)).total_two_flats \
            == total
        # the identity map makes every two-flat vanish
        assert vanishing_flats(Monomial(make_field(2, n), 1)).vanishing_count \
            == total


def test_apn_functions_have_no_vanishing_flats():
    for n, d in [(3, 3), (4, 3), (5, 3), (5, 30)]:
        F = Monomial(make_field(2, n), d)
        assert vanishing_flats(F).vanishing_count == 0


def test_listing_blocks_are_canonical(monkeypatch):
    f = make_field(2, 4)
    F = Monomial(f, 14)
    rep = vanishing_flats(F, list_blocks=True)
    assert rep.vanishing_count == len(rep.listing) == 5
    for x1, x2, x3, x4 in rep.listing:
        assert x1 < x2 < x3 < x4
        assert x1 ^ x2 ^ x3 ^ x4 == 0
    lines = "\n".join(flats_listing_lines(rep, f)).split("\n")
    assert len(lines) == 5 and all(line.count("|") == 3 for line in lines)
    assert lines == ["|".join(f.from_code(c).text for c in block) for block in _rows(rep.listing)]
    monkeypatch.setattr(flats, "_CHUNK", 2)  # lines come _CHUNK to a text
    assert list(flats_listing_lines(rep, f)) == ["\n".join(lines[s:s + 2]) for s in (0, 2, 4)]
    with pytest.raises(ValueError):
        flats_listing_lines(vanishing_flats(F), f)


def test_oversized_listing_is_refused_before_any_block(monkeypatch):
    limit = flats._LIST_LIMIT
    F = Monomial(make_field(2, 4), 14)  # 5 vanishing blocks
    monkeypatch.setattr(flats, "_LIST_LIMIT", 5)
    assert len(vanishing_flats(F, list_blocks=True).listing) == 5

    def no_listing(F):
        raise AssertionError("a block was listed")

    monkeypatch.setattr(flats, "_vanishing_listing", no_listing)
    monkeypatch.setattr(flats, "_LIST_LIMIT", 4)
    with pytest.raises(ValueError, match="needs at most 4 vanishing blocks, got 5"):
        vanishing_flats(F, list_blocks=True)
    # every 2-flat of GF(2^9) vanishes under x: 5,559,680 blocks
    monkeypatch.setattr(flats, "_LIST_LIMIT", limit)
    G = Monomial(make_field(2, 9), 1)
    with pytest.raises(ValueError, match=f"needs at most {limit} vanishing blocks, got 5559680"):
        vanishing_flats(G, list_blocks=True)
    assert vanishing_flats(G).vanishing_count == 5559680


def test_mass_identity_on_samples():
    f = make_field(2, 4)
    rng = np.random.RandomState(4)
    fns = [Monomial(f, d) for d in (3, 5, 7, 14)] + \
        [TableFunction(f, [int(v) for v in rng.randint(0, 16, 16)])
         for _ in range(5)]
    for F in fns:
        chk = check_prop_identity(F)
        assert chk.holds
        assert chk.fbct_sum == 24 * chk.vanishing_count == chk.rhs_24x
        # the mass is exactly the off-trivial sum of the table
        direct = sum(int(fbct_row_counts(F, a)[1:].sum())
                     - int(fbct_row_counts(F, a)[a]) for a in range(1, f.q))
        assert chk.fbct_sum == direct


def test_prop_identity_can_fail(monkeypatch):
    """The right side is the blocks listed one by one, so a walk one block
    short breaks the identity, in the check and in PROP_VB's verdict."""
    real = flats._blocks

    def short(F):
        blocks = [(x, y, i, j) for x, y, i, j in real(F) if i.size]
        x, y, i, j = blocks[0]
        return iter([(x, y, i[1:], j[1:])] + blocks[1:])

    monkeypatch.setattr(flats, "_blocks", short)
    chk = check_prop_identity(Monomial(make_field(2, 4), 7))
    assert not chk.holds and chk.fbct_sum == chk.rhs_24x + 24
    v = verify("PROP_VB", n=3, num_random_tables=0)
    assert v.status == "failed" and v.first_mismatch["a"] == "monomial d=1"


def test_mass_identity_requires_char2():
    with pytest.raises(FieldError):
        check_prop_identity(Monomial(make_field(3, 2), 2))
    with pytest.raises(FieldError):
        vanishing_flats(Monomial(make_field(3, 2), 2))


def test_gaussian_binomial_values():
    assert gaussian_binomial(4, 2) == 35
    assert gaussian_binomial(3, 2) == 7
    assert gaussian_binomial(5, 2) == 155
    assert gaussian_binomial(4, 0) == 1
    assert gaussian_binomial(4, 4) == 1
    assert gaussian_binomial(3, 5) == 0


def test_echelon_bases_enumerate_all_subspaces():
    for n, k in [(3, 2), (4, 2), (4, 3)]:
        spans = set()
        for basis in echelon_bases(n, k):
            assert len(basis) == k
            span = set()
            for bits in itertools.product((0, 1), repeat=k):
                v = 0
                for b, take in zip(basis, bits):
                    if take:
                        v ^= b
                span.add(v)
            assert len(span) == 2 ** k
            spans.add(frozenset(span))
        assert len(spans) == gaussian_binomial(n, k)


def brute_sum_free(F, k):
    f = F.field
    n = f.n
    all_vecs = list(range(f.q))
    bad = []
    seen = set()
    for basis in itertools.combinations(range(1, f.q), k):
        span = {0}
        for b in basis:
            span |= {x ^ b for x in span}
        if len(span) != 2 ** k:
            continue
        key = frozenset(span)
        if key in seen:
            continue
        seen.add(key)
        for u in all_vecs:
            flat = frozenset(x ^ u for x in span)
            total = 0
            for x in flat:
                total ^= value(F, x)
            if total == 0:
                bad.append(tuple(sorted(flat)))
    return sorted(set(bad))


def ordered_coset_scan(F, k):
    """(first violating flat or None, cosets visited, place of its direction
    among the consecutive bases sharing all but the last vector): one reduce
    per coset, directions in `echelon_bases` order, cosets by free-bit sums of
    rising bit count in `itertools.combinations` order."""
    n = F.field.n
    FT = F.table()
    visited = place = 0
    head = None
    for basis in echelon_bases(n, k):
        place = place + 1 if basis[:-1] == head else 0
        head = basis[:-1]
        span = np.zeros(1, dtype=np.int64)
        for v in basis:
            span = np.concatenate([span, span ^ v])
        pivots = {v.bit_length() - 1 for v in basis}
        free = [1 << c for c in range(n) if c not in pivots]
        for r in range(len(free) + 1):
            for bits in itertools.combinations(free, r):
                visited += 1
                coset = span ^ sum(bits)
                if int(np.bitwise_xor.reduce(FT[coset])) == 0:
                    return tuple(sorted(int(x) for x in coset)), visited, place
    return None, visited, None


@pytest.mark.parametrize("n", range(2, 7))
def test_first_violating_flat_matches_ordered_scan(n, monkeypatch):
    """Same verdict and flat with one direction to a gather, with parts of
    three directions (the last part of a group short), and by default."""
    f = make_field(2, n)
    late = free = 0
    places = set()
    for F in _oracle_functions(f):
        for k in range(2, n + 1):
            flat, visited, place = ordered_coset_scan(F, k)
            for keys in (f.q, 3 * f.q, spectra._PAIR_KEYS):
                monkeypatch.setattr(flats, "_PAIR_KEYS", keys)
                rep = is_kth_sum_free(F, k)
                assert (rep.is_sum_free, rep.violating_flat) == (flat is None, flat), \
                    (F.text(), k, keys)
            free += flat is None
            late += flat is not None and visited > 2 ** (n - k)
            places.add(place)
    # sum-free verdicts, and violations past the first direction's cosets
    # (GF(4) is a single 2-flat)
    assert free and (late or n == 2), (free, late)
    # violations past the first direction of a group (n = 4), and past the
    # group's first part of three (n >= 5)
    places.discard(None)
    assert n < 4 or max(places) >= (1 if n == 4 else 3), places


def test_first_violating_flat_is_named_by_bit_count_then_ascending_bits():
    """On GF(2^6), k = 2, a seeded table made to vanish on the cosets 6 + E,
    7 + E and 9 + E of E = <32, 23>: its twelfth direction, whose eleven
    predecessors do not vanish.  The flat named is 9 + E: 6 = {1, 2} is
    numerically less than 9 = {0, 3}, and 7 + E holds the one-bit code 16,
    which has a pivot bit."""
    T = np.random.RandomState(18).randint(0, 64, 64)
    for u in (6, 7, 9):
        T[u ^ 55] = T[u] ^ T[u ^ 32] ^ T[u ^ 23]
    F = TableFunction(make_field(2, 6), [int(v) for v in T])
    assert list(echelon_bases(6, 2))[11] == [32, 23]
    assert ordered_coset_scan(F, 2) == ((9, 30, 41, 62), 11 * 16 + 8, 11)
    assert is_kth_sum_free(F, 2).violating_flat == (9, 30, 41, 62)


@pytest.mark.parametrize("d, k", [(7, 3), (3, 2), (126, 5), (-1, 2), (-1, 4)])
def test_first_violating_flat_matches_ordered_scan_n7(d, k):
    f = make_field(2, 7)
    F = _oracle_functions(f)[-1] if d < 0 else Monomial(f, d)
    flat, _, _ = ordered_coset_scan(F, k)
    rep = is_kth_sum_free(F, k)
    assert (rep.is_sum_free, rep.violating_flat) == (flat is None, flat)


@pytest.mark.parametrize("d", [3, 7, 14])
@pytest.mark.parametrize("k", [2, 3, 4])
def test_sum_freedom_matches_brute_force(d, k):
    f = make_field(2, 4)
    F = Monomial(f, d)
    want = brute_sum_free(F, k)
    rep = is_kth_sum_free(F, k)
    assert rep.is_sum_free == (not want)
    if want:
        assert rep.violating_flat in want


def test_second_order_sum_freedom_iff_no_vanishing_flats():
    rng = np.random.RandomState(21)
    f = make_field(2, 4)
    fns = [Monomial(f, d) for d in (1, 3, 14)] + \
        [TableFunction(f, [int(v) for v in rng.randint(0, 16, 16)])
         for _ in range(4)]
    for F in fns:
        assert is_kth_sum_free(F, 2).is_sum_free == \
            (vanishing_flats(F).vanishing_count == 0)


def test_sum_free_k_bounds():
    F = Monomial(make_field(2, 4), 3)
    with pytest.raises(ValueError):
        is_kth_sum_free(F, 1)
    with pytest.raises(ValueError):
        is_kth_sum_free(F, 5)
    with pytest.raises(FieldError):
        is_kth_sum_free(Monomial(make_field(3, 2), 2), 2)
