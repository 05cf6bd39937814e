"""Exact work counts of a workload, computed from its inputs.

Usage: python3 perfbench/counts.py PLAN_JSON

PLAN_JSON holds {"rows": [[p, n, fn], ...], "buckets": [...], "sumfree": [[n, fn, k], ...]}
with every `table:@path` already pointing at the generated file.  Prints one
JSON object of counts.  These describe the work the inputs demand, whatever
kernel the program uses, so they repeat exactly for a given seed:

  spectra.fbct_rows           FBCT rows computed (a = 1..q-1 per function)
  spectra.fbct_cells_scanned  sum over rows of q^2, the dense row scan's cells
  spectra.fbct_level_pairs    sum over rows of sum_v delta(a, v)^2, the pairs
                              a level-set pair kernel visits
  spectra.fbct_pair_yield     level_pairs / cells_scanned
  spectra.max_level_set       largest delta(a, v) over those rows
  flats.pair_buckets          nonempty (s, F(x)+F(y)) buckets of the pair count
  flats.cosets_checked        cosets visited by the sum-freedom check, up to and
                              including the first violation
"""

from __future__ import annotations

import itertools
import json
import sys

import numpy as np
from ffspectra.field import make_field
from ffspectra.flats import echelon_bases
from ffspectra.functions import parse_function
from ffspectra.spectra import ddt_row_counts


def function(p, n, fn):
    return parse_function(make_field(p, n), fn)


def fbct_counts(rows) -> dict:
    nrows = cells = pairs = max_level = 0
    for p, n, fn in rows:
        F = function(p, n, fn)
        q = F.field.q
        for a in range(1, q):
            c = ddt_row_counts(F, a)
            nrows += 1
            cells += q * q
            pairs += int((c * c).sum())
            max_level = max(max_level, int(c.max()))
    return {"spectra.fbct_rows": nrows, "spectra.fbct_cells_scanned": cells,
            "spectra.fbct_level_pairs": pairs,
            "spectra.fbct_pair_yield": pairs / cells if cells else 0.0,
            "spectra.max_level_set": max_level}


def pair_buckets(buckets) -> int:
    total = 0
    for p, n, fn in buckets:
        FT = function(p, n, fn).table()
        X = np.arange(FT.size, dtype=np.int64)
        for s in range(1, FT.size):
            total += int(np.count_nonzero(np.bincount(FT ^ FT[X ^ s])))
    return total


def cosets_checked(sumfree) -> int:
    """Cosets in the order flats.is_kth_sum_free visits them."""
    total = 0
    for n, fn, k in sumfree:
        FT = function(2, n, fn).table()
        for basis in echelon_bases(n, k):
            span = np.zeros(1, dtype=np.int64)
            for v in basis:
                span = np.concatenate([span, span ^ v])
            pivots = {v.bit_length() - 1 for v in basis}
            free = [1 << c for c in range(n) if c not in pivots]
            reps = np.array([sum(b) for r in range(len(free) + 1)
                             for b in itertools.combinations(free, r)], dtype=np.int64)
            sums = np.bitwise_xor.reduce(FT[span[None, :] ^ reps[:, None]], axis=1)
            zero = np.flatnonzero(sums == 0)
            if zero.size:
                total += int(zero[0]) + 1
                break
            total += reps.size
    return total


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        plan = json.load(fh)
    counts = fbct_counts(plan["rows"])
    counts["flats.pair_buckets"] = pair_buckets(plan["buckets"])
    counts["flats.cosets_checked"] = cosets_checked(plan["sumfree"])
    print(json.dumps(counts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
