"""FBCT rows by the Walsh-Hadamard transform, in characteristic 2.

Its own module, not part of spectra.py: the peak RSS of a short run grows
with the largest module it compiles (README "Cold start").
"""

from __future__ import annotations

import numpy as np

from .field import Field, InvariantError

_ONE_HOT_CELLS = 1 << 20


def wht(M: np.ndarray) -> None:
    """The unnormalised Walsh-Hadamard transform of the C-contiguous M over
    its first axis, in place: each stage takes whole slabs (a, b) to
    (a + b, a - b), with no intermediate beyond the final values' bound."""
    h, q = 1, len(M)
    while h < q:
        V = M.reshape(q // (2 * h), 2, -1)  # a view, as M is C-contiguous
        a, b = V[:, 0], V[:, 1]
        a += b
        b *= -2
        b += a
        h *= 2


def fbct_walsh(f: Field, D: np.ndarray) -> np.ndarray:
    """FBCT rows of the rows of D by the Walsh-Hadamard transform H, in
    characteristic 2, where x + b is x XOR b: row a sums the autocorrelations
    of the level sets {x : d_a(x) = v}, so it is H(sum_v W_v^2) / q with
    W_v = H 1_{d_a = v}: (L_a + 1) q log2(q) butterflies, L_a level sets.

    Rows go in order of L_a, as many at a time as put at most
    min(64 q, _ONE_HOT_CELLS) one-hot cells in one (q, rows, levels) array,
    transform axis first, so each butterfly works on contiguous slabs; a row
    with more is cut by levels.  |W_v| <= q fits int16 up to q = 2^14; the
    squares are summed in int64 (at most q^2), and the second transform (at
    most q^3) must leave every cell divisible by q."""
    R, q = D.shape
    seen = np.zeros((R, q), dtype=bool)
    seen[np.arange(R)[:, None], D] = True
    levels = np.count_nonzero(seen, axis=1)
    order = np.argsort(levels, kind="stable")
    counts = np.empty((R, q), dtype=np.min_scalar_type(q))
    cells = min(64 * q, _ONE_HOT_CELLS)
    X, nr = np.arange(q)[:, None], max(1, cells // (q * int(levels[order[-1]])))
    for g in range(0, R, nr):
        rows = order[g:g + nr]
        # 1 + the rank of d_a(x) among the values of its row
        rk = np.take_along_axis(np.cumsum(seen[rows], axis=1, dtype=counts.dtype), D[rows], axis=1)
        m, width = len(rows), int(levels[rows[-1]])
        step = max(1, cells // (q * m))
        S = np.zeros((q, m), dtype=np.int64)
        for k in range(0, width, step):
            M = np.zeros((q, m, min(step, width - k)), np.int16 if q <= 1 << 14 else np.int32)
            if step >= width:
                M[X, np.arange(m), rk.T - 1] = 1
            else:  # one row, cut by levels
                x = np.flatnonzero((rk[0] > k) & (rk[0] <= k + step))
                M[x, 0, rk[0, x] - k - 1] = 1
            wht(M)
            S += np.einsum("url,url->ur", M, M, dtype=np.int64)
        wht(S)
        if (S & (q - 1)).any():  # also under python -O
            raise InvariantError("a second Walsh-Hadamard transform left a cell not divisible by q")
        counts[rows] = (S >> f.n).T
    return counts
