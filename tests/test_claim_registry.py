"""The claim registry: verdicts pinned across the refactor to one record per
id, and ``predict`` and ``verify`` agreeing on every claim's hypotheses."""

import hashlib
import importlib
import inspect
import itertools
import json

import pytest

from ffspectra.closed_forms import (CLAIMS, THEOREMS, HypothesisError, _arguments,
                                    _check, predict, verify)
from ffspectra.count_claims import s6_count_formula, vanishing_count_formula
from ffspectra.field import make_field

#: sha256 of each verdict's fixed-time JSON (sorted keys) on a small field
#: per id, plus every hypothesis-error case of test_closed_forms.  These were
#: recorded before claims became one record per id and must not move; only
#: T2 on GF(5^2) (its histogram note now leads every T2 verdict) and TABLE1
#: (the x^((p+1)/2) row now also checks GF(11) and GF(13)) were re-recorded.
#: T7 at n = 6 (71 admissible pairs) was recorded before T7 read its values
#: off fbct_spectrum, and T7 at n = 8 before orbit_rows found the scaling
#: symmetry of its 255 x^(-1) functions at t = 4.
PINNED = [
    ("L1", dict(p=2, n=4),
     "395811328d7927a0708c84bd1daf1944f3d18412dc3142b77619b45056d6c123"),
    ("L1", dict(n=4),
     "395811328d7927a0708c84bd1daf1944f3d18412dc3142b77619b45056d6c123"),
    ("L2", dict(p=2, n=5),
     "07a158d58b48616e7d009ac71d26282afcaa6bd970a6e49c0d89d9d8ec39d202"),
    ("T1", dict(p=11, n=1),
     "da3590453a78e69261d87b39839b4a5454941c923403d230ea8ba665ecf6b469"),
    ("T3", dict(p=5, n=2),
     "207982e059b59baf2a0199855f26fdfdcbd22578524eace5dda165bee6287d5e"),
    ("T4", dict(n=3),
     "e454b2ccc69f2ffa033b5986634d0c684fb86351220686a33b70b54cfc45245e"),
    ("THMT", dict(n=5, t=2),
     "da065e7c90a4d55f50d0fc9034eaa2b3dce8d05db9f9d8b7d9190a370b4a51d6"),
    ("THMT", dict(n=4, t=1),
     "a525caf5c98488978db725ca23d2831d46096cd77168c00e22d83a99ea917aaf"),
    ("C_F1", dict(n=6),
     "1f919db0123edfd9f9fbfb5ee2ef12cb3ccf1cde0849b195cea924e663b865e3"),
    ("C_F2", dict(n=7),
     "d1cafbd8134ecdc2a62f537b26c13dd406d7dac56ae6f39dfaec7173d354e6d9"),
    ("C_F3", dict(n=7),
     "d46e6b66f7b0e5a396bd250c893835c1c52d10f7f3ce23e296b045a62458b1b9"),
    ("C_F1_VB", dict(n=6),
     "66156f481f6a1d079a903ac068d41e9e0aefb249a2a11e993703019122294a66"),
    ("C_F2_VB", dict(n=7),
     "b379e36f7ce342a0d355a47cf616762316be71292105545e3378010a62fa0516"),
    ("C_F3_VB", dict(n=7),
     "7d5f981978cbbde5e9399b58fb745e175e4f2502a2ccdf7b7ae581bd2751990c"),
    ("T6", dict(n=4),
     "d27112c933df3881d4f0260f0ceb3cf498f85d07dc068454392a520cc6fcbc58"),
    ("T7", dict(n=4),
     "828cb711cd686270af91a88c5c7f7e4e842efe3882c485570608cd03ee70b8de"),
    ("T7", dict(n=4, t=2),
     "17c5c6bb058aecde48a87f729436b5b6ad62068ed34997ef4390d317c76bfe1b"),
    ("T7", dict(n=5),
     "e29232ff299c91023072b18cca75f10d2c942e22fe4373ab551b9d87415da77c"),
    ("PROP_VB", dict(n=3, num_random_tables=5),
     "5651362e3ddb8c09a771973c13cbfa9a2045fb63b05aa9d356dd0fb21d4eb9ba"),
    ("APN_IFF_FBCT0", dict(n=4),
     "107538de2d656ae3ceacdcf8e16e8593e51d3721aaafe8cbe513ee9bb92ee379"),
    ("TABLE1", dict(),
     "8699b5a77626a240f207d0ed660cfe40774f909bd64f4470c0aafa3b5e3b6954"),
    ("T2", dict(p=5, n=2),
     "1a379898480306311af4f263492694957f2842d644d94ee377794ffaf4742ec0"),
    ("T2", dict(p=11, n=1),
     "b60e2f14e72db89036ead10c804647cc70cdfada5c63cfd94d4d382fd5928ec4"),
    ("T1", dict(p=7, n=1),
     "aad6e55b15d13b2f72a853d83d1b164b357f73aefa52793476636ffa400c9bf8"),
    ("T1", dict(p=5),
     "2e89d99c5e101275bbbc6e77106b4c7d77877e2f1a935b3fa24f8faa4550916c"),
    ("T2", dict(p=3, n=2),
     "2d6b9017851d8dc7ff5ed87e206198c173dc8612e8baf46c998d182d53d16db6"),
    ("T2", dict(p=5, n=2, k=2),
     "77478ecff0e0c2a794fb8d3c6a7831b36581b60ae20db4885397b2e96b0af6ea"),
    ("T4", dict(n=2),
     "ad48334d02c99d8f57bfc42e704ec6416bb80136b0e0ca6de41d67e53e080fad"),
    ("THMT", dict(n=6),
     "97351cdbc6383aebcb3581a493de77819a8133bd9e451dbc315e70f1f12de46a"),
    ("THMT", dict(n=6, t=0),
     "05d7b1a7ca7c8dd1d13da347bb695d956389a11f7ce7995d9750b16e910bc87c"),
    ("THMT", dict(n=6, t=6),
     "d463728927f71c95e855b824d0044cd6e2efe435e7d3561b33210e6c021cbaca"),
    ("C_F1", dict(n=4),
     "04c916a97f8b51600f468057da04f9c00e79a63eab9f3cee31117dd745ae773c"),
    ("C_F2", dict(n=5),
     "a268c3a41ae36d473364004116e9a039050feff060b0cb68f33b7e3e76a7f4b5"),
    ("C_F3", dict(n=5),
     "7be47071f68129e2ab2e7bcfedd902ca5f39b1f46a9d7fb25490a4b2d65e9c9e"),
    ("L1", dict(p=2, n=5),
     "81467d87639f67e69206c91597860f8c0da1f334ee04391575fb24a191e1450e"),
    ("L2", dict(p=2, n=4),
     "b00b39dab79e38513b2daa74b8b1fa630e8ddeb7f011fdedec6ea187849aced2"),
    ("T7", dict(n=4, t=4),
     "818fa5729e240852998d379e23bf70b12dcf62b59c3fa2ad058f95acef7ab0eb"),
    ("PROP_VB", dict(p=3, n=2),
     "6844044cb323161be09148dcc4f1d4deccada90e037ecc070e7aa827c44fb761"),
    ("T7", dict(n=6),
     "8ccdb4342a76a4c648bffac69be8a523f78298541bee90fe91f864cabb4766d4"),
    ("T7", dict(n=8),
     "8859fe2810f20a66a91edb3589ff913520a6ba5149b98175a2aaf2a008fd6272"),
]


@pytest.mark.parametrize("tid,kwargs,digest", PINNED)
def test_verdict_hash_is_pinned(tid, kwargs, digest):
    obj = verify(tid, **kwargs).to_json_obj(fixed_time=True)
    text = json.dumps(obj, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest, text


#: The parameter names verify accepted for each id before the registry
#: derived them as params | ({modulus} if "n" in params).
ACCEPTED = {
    "L1": {"p", "n", "modulus"}, "L2": {"p", "n", "modulus"},
    "T1": {"p", "n", "modulus"}, "T2": {"p", "n", "k", "modulus"},
    "T3": {"p", "n", "modulus"}, "T4": {"p", "n", "modulus"},
    "THMT": {"p", "n", "t", "modulus"},
    "C_F1": {"p", "n", "modulus"}, "C_F2": {"p", "n", "modulus"},
    "C_F3": {"p", "n", "modulus"}, "C_F1_VB": {"p", "n", "modulus"},
    "C_F2_VB": {"p", "n", "modulus"}, "C_F3_VB": {"p", "n", "modulus"},
    "T6": {"p", "n", "modulus"}, "T7": {"p", "n", "t", "gamma", "modulus"},
    "TABLE1": set(),
    "PROP_VB": {"p", "n", "modulus"},
    "APN_IFF_FBCT0": {"p", "n", "modulus"},
}

#: One value per parameter, each given alone: every claim that takes it then
#: stops at a hypothesis check or finishes on a field of at most 3 elements.
PROBES = {"p": 2, "n": 1, "modulus": (1, 1), "t": 1, "k": 1, "gamma": "1"}


def test_accepted_parameters_are_unchanged():
    assert set(ACCEPTED) == set(THEOREMS)
    for tid, expected in ACCEPTED.items():
        accepted = set()
        for name, value in PROBES.items():
            try:
                verify(tid, **{name: value})
            except ValueError as exc:
                assert "is not used by theorem" in str(exc), (tid, name, exc)
                continue
            accepted.add(name)
        assert accepted == expected, tid


def _grid():
    """Every (id, p, n, t): p in {2, 3, 5, 7, 11}, q = p^n <= 128, and t in
    {None, 1..n} where the id takes t."""
    ids = ["L1", "L2", "T1", "T3", "T4", "THMT", "C_F1", "C_F2", "C_F3",
           "T6", "T7"]
    for tid in ids:
        for p in (2, 3, 5, 7, 11):
            n = 1
            while p ** n <= 128:
                ts = [None]
                if "t" in THEOREMS[tid]["params"]:
                    ts += list(range(1, n + 1))
                for t in ts:
                    yield tid, p, n, t
                n += 1


def test_predict_and_verify_agree_on_hypotheses():
    for tid, p, n, t in _grid():
        one = make_field(p, n).one
        kwargs = {"p": p, "n": n} if t is None else {"p": p, "n": n, "t": t}
        rejected = verify(tid, **kwargs).status == "hypothesis_error"
        try:
            predict(tid, one, one, t=t)
            refused = False
        except HypothesisError:
            refused = True
        assert refused == rejected, (tid, p, n, t)


#: The hypothesis grid: every claim at every (p, n, t, k, gamma) below, then
#: both count formulas at n = -1..13 for each C_F id (157,428 points).
GRID = dict(p=(None, 2, 3, 5, 7, 11, 13),
            n=(None, -1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12),
            t=(None, 0, 1, 2, 3, 4, 6, 8), k=(None, -1, 0, 1, 2, 3),
            gamma=(None, "1"))
CF_IDS = ("C_F1", "C_F2", "C_F3", "C_F1_VB", "C_F2_VB", "C_F3_VB")

#: sha256 of the sorted reprs of the accepted grid points, recorded while
#: each claim still stated its hypothesis as its own `_check_*` function,
#: less the 896 points at n <= 0 of claims with a field (L1 192, T2 320,
#: T4 192, T7 192), which `_check` now refuses before `make_field` would.
ACCEPTED_SHA256 = "345cb6ca7109bc4bfa72649c6b74ff2b62cededcfdf695b15ff31d9d9b99d99b"


def test_accepted_hypothesis_grid_is_pinned():
    accepted = []
    for tid, claim in CLAIMS.items():
        for point in itertools.product(*GRID.values()):
            try:
                _check(tid, claim, _arguments(claim, **dict(zip(GRID, point))))
            except HypothesisError:
                continue
            accepted.append((tid, *point))
    for formula in (vanishing_count_formula, s6_count_formula):
        for tid in CF_IDS:
            for n in range(-1, 14):
                try:
                    formula(tid, n)
                except ValueError:
                    continue
                accepted.append((f"{formula.__name__}:{tid}", None, n, None, None, None))
    text = "\n".join(sorted(map(repr, accepted)))
    assert len(accepted) == 27670
    assert hashlib.sha256(text.encode()).hexdigest() == ACCEPTED_SHA256


PRIMES = (2, 3, 5, 7, 11, 13)
#: One characteristic outside each declared rule on p.
OUTSIDE_P = {2: 3, 3: 5, "> 3": 3, "odd": 2}


@pytest.mark.parametrize("tid", [tid for tid, c in CLAIMS.items() if c.p is not None])
def test_declared_hypothesis_boundaries(tid):
    """Read off each claim's declared p and n: its least admissible field
    (t = 1 where the claim takes t) is not a hypothesis error; n = least - 1,
    the other parity and a p outside the rule are."""
    claim = CLAIMS[tid]
    extra = {"t": 1} if "t" in claim.params else {}

    def admissible(p, n):
        try:
            _check(tid, claim, _arguments(claim, p=p, n=n, **extra))
        except HypothesisError:
            return False
        return True

    p, n = next((p, n) for p in PRIMES for n in range(1, 16) if admissible(p, n))
    assert verify(tid, p=p, n=n, **extra).status != "hypothesis_error", (p, n)
    parity, least, *_ = claim.n
    rejected = [(OUTSIDE_P[claim.p], n)]
    if least is not None:
        rejected.append((p, least - 1))
    if parity is not None:
        rejected.append((p, n + 1))
    for p_bad, n_bad in rejected:
        v = verify(tid, p=p_bad, n=n_bad, **extra)
        assert v.status == "hypothesis_error", (p_bad, n_bad)
        assert v.notes[0].startswith(f"hypothesis not satisfied: {tid} "), v.notes


#: For each id, a test that drives its verdict to "failed" rather than to an
#: exception: by corrupting one input that the other side of the comparison
#: does not share, or (T2, TABLE1) on a field where the claim is false.
CAN_FAIL = {
    **{tid: "test_closed_forms::test_corrupted_row_one_fails_where_every_row_walk_does"
            f"[{tid}]"
       for tid in ("L1", "L2", "T1", "T3", "T4", "THMT", "C_F1", "C_F2", "C_F3", "T6")},
    "T2": "test_closed_forms::test_half_power_claim_fails_on_gf11",
    "T7": "test_closed_forms::test_t7_forced_failure_equals_every_pair_walk",
    "TABLE1": "test_closed_forms::test_catalogue_of_odd_char_power_maps",
    "PROP_VB": "test_flats::test_prop_identity_can_fail",
    "C_F1_VB": "test_closed_forms::test_vb_formula_can_fail_on_a_corrupted_enumeration",
    **{tid: "test_closed_forms::test_vb_formula_can_fail_on_a_corrupted_kloosterman_sum"
            f"[{tid}]" for tid in ("C_F2_VB", "C_F3_VB")},
    "APN_IFF_FBCT0":
        "test_closed_forms::test_apn_equivalence_can_fail_on_a_corrupted_uniformity",
}


def test_every_claim_has_a_can_fail_test():
    assert set(CAN_FAIL) == set(CLAIMS)
    for tid, node in CAN_FAIL.items():
        module, name = node.split("::")
        name, _, param = name.partition("[")
        test = getattr(importlib.import_module(module), name)
        assert '"failed"' in inspect.getsource(test), node
        if param:
            values = [value for mark in test.pytestmark if mark.name == "parametrize"
                      for value in mark.args[1]]
            assert param.rstrip("]") in values, node
