"""Per-cell claims: the predicted FBCT rows of L1, L2, T1, T3, T4, THMT,
C_F1-C_F3 and T6, compared with brute-force rows by one run.  A claim's code
is the `Rows` record named by its id; `closed_forms` loads the module on use."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .closed_forms import _NONTRIVIAL, _maximum, _mismatch
from .field import Field, omega
from .functions import InversePlusTrace, Monomial
from .spectra import _checked_trivial, _trivial, differential_uniformity, fbct_rows, orbit_rows


@functools.cache
def _omega_codes(field: Field) -> tuple:
    """Codes of the two primitive cube roots of unity (n even, char 2)."""
    w = omega(field).code
    return w, int(field.vmul(w, w))


def _b_map(field: Field, t: int) -> tuple:
    """(B, count): B(c) = (c^(2^t) + c) / (c(c+1)) for every code c, 0 at
    c in {0, 1} since inv(0) = 0, and count[v] = #{c outside {0, 1} : B(c) = v}.
    Off {0, 1}, B(c) is the row-one derivative (c+1)^(2^t-1) + c^(2^t-1),
    which is 1 at c in {0, 1}; so delta(1, v) of x^(2^t-1) is count[v] for v > 1."""
    cs = np.arange(field.q, dtype=np.int64)
    B = field.vmul(field.vpow(cs, 2 ** t) ^ cs, field.vinv(field.vmul(cs, cs ^ 1)))
    return B, np.bincount(B[2:], minlength=field.q)


@functools.cache
def _s6_mask(field: Field, t: int) -> np.ndarray:
    """Boolean mask over codes b: B(b) outside {0,1} (so b is too), and the
    row-one differential count of x^(2^t-1) at B(b) equals 6."""
    B, count = _b_map(field, t)
    mask = (B > 1) & (count[B] == 6)
    mask.flags.writeable = False  # one array serves every caller of the cache
    return mask


# Row-one predictors of power maps: entry c is the claimed value at (1, c),
# and `_homogeneous` reads row a off it.  `Rows.predicted` sets the trivial
# cells, so their entries here are arbitrary.

def _homogeneous(row1: Callable) -> Callable:
    """A power map's predictor of row a: row one read at b/a, since
    nabla(ca, cb) = nabla(a, b) for x^d (monomial homogeneity)."""
    return lambda field, t, a: row1(field, t)[
        field.vmul(np.arange(field.q, dtype=np.int64), field.vinv(a))]


def _inverse_row1(field: Field, t) -> np.ndarray:
    """x^(q-2): 0 off the trivial cells, except 4 at the primitive cube
    roots of unity, which exist exactly when n is even."""
    row = np.zeros(field.q, dtype=np.int64)
    if field.n % 2 == 0:
        row[list(_omega_codes(field))] = 4
    return row


def _fourth_power_row1(field: Field, t) -> np.ndarray:
    """x^4: 1 + eta(-(1 + c^2)/3)."""
    cs = np.arange(field.q, dtype=np.int64)
    inv3 = field.vinv(3 % field.p)
    s = field.vneg(field.vadd(1, field.vmul(cs, cs)))
    return 1 + field.tables().eta[field.vmul(s, inv3)].astype(np.int64)


def _ternary_row1(field: Field, t) -> np.ndarray:
    """x^((3^n-1)/2+2): 1 where 1 + c^2 is a square, 3 where it is not."""
    cs = np.arange(field.q, dtype=np.int64)
    e = field.tables().eta[field.vadd(1, field.vmul(cs, cs))]
    return 2 - e.astype(np.int64)


def _thmt_row1(field: Field, t: int) -> np.ndarray:
    """x^(2^t-1) through B(c) and |ker L_B|, L_B(x) = x^(2^t) + x + B(x^2 + x):
    0 and 1 are roots, and x outside {0, 1} is one iff B(x) = B."""
    n = field.n
    B, count = _b_map(field, t)
    ker = 2 + count
    row = np.maximum(ker[B] - 4, 0)
    row[B == 0] = 2 ** math.gcd(t, n) - 4
    row[B == 1] = 2 ** math.gcd(t - 1, n)
    return row


def _cf1_row1(field: Field, m: int) -> np.ndarray:
    cs = np.arange(field.q, dtype=np.int64)
    row = np.where(field.vpow(cs, 2 ** m - 1) == 1, 2 ** m - 4, 0)
    if m % 2 == 1:
        row[field.vpow(cs, 2 ** m - 2) == 1] = 4
    return row.astype(np.int64)


def _s6_row1(field: Field, t: int, power: int, value: int, when: bool) -> np.ndarray:
    """C_F2 and C_F3: 4 on S_6; when ``when`` holds, ``value`` on the c
    with c^power = 1."""
    row = np.where(_s6_mask(field, t), 4, 0).astype(np.int64)
    if when:
        cs = np.arange(field.q, dtype=np.int64)
        row[field.vpow(cs, power) == 1] = value
    return row


def _t6_row(field: Field, t, a: int) -> np.ndarray:
    """Row a of x^(2^n-2) + Tr(x^2/(x+1)): explicit trace conditions on a and
    b; on the coset b in {aw, aw^2} the value depends on b alone."""
    tr = field.tables().tr
    vmul, vinv = field.vmul, field.vinv
    bs = np.arange(field.q, dtype=np.int64)
    ab = vmul(bs, a)
    apb = bs ^ a
    s = vmul(a, a) ^ ab ^ vmul(bs, bs)
    w1 = vmul(vinv(vmul(bs, apb)), a)
    w2v = vmul(bs, vinv(vmul(apb, a)))
    w3 = vmul(apb, vinv(ab))
    extra = vmul(vmul(ab, apb), vinv(s ^ 1))
    row = np.where((tr[w1] == 0) & (tr[w2v] == 0) & (tr[w3] == 0)
                   & (tr[extra] == 1), 4, 0).astype(np.int64)
    w, w2 = _omega_codes(field)
    coset = vmul(np.array([w, w2], dtype=np.int64), a)
    b3 = field.vpow(coset, 3)
    binv = vinv(coset)
    c1 = tr[vmul(b3, vinv(b3 ^ 1))] == 0
    c2 = ((tr[binv] == 0) & (tr[vmul(binv, w)] == 0)
          & (tr[vmul(binv, w2)] == 0) & (tr[b3] == 1))
    row[coset] = 4 * c1 + 4 * c2
    return row


#: Note labels of the observed maximum besides `_NONTRIVIAL` (text only).
_OFF_DIAGONAL = "observed off-diagonal maximum"
_BETA = "observed F-boomerang uniformity"


@dataclass(frozen=True)
class Rows:
    """The code of a per-cell claim: its predicted row a, ``row(field, t, a)``;
    the note label of its observed maximum; a check of that maximum; and how
    to build the function checked from its setting.  Calling it runs the claim."""

    row: Callable
    label: str = _NONTRIVIAL
    expect: Optional[Callable] = None
    build: Optional[Callable] = None   # None: the power map x^d of the setting

    def predicted(self, field: Field, t, a: int) -> np.ndarray:
        """Predicted row a, its trivial cells set to q."""
        row = self.row(field, t, a)
        row[_trivial(field, a)] = field.q
        return row

    def __call__(self, theorem_id: str, field: Field, setting: dict, kw: dict):
        """Compare brute-force rows with the prediction over the grid a, b != 0
        (the a = b diagonal included) up to the first mismatching cell, note
        the nontrivial maximum under the claim's label, then apply its
        expected-maximum check.  Only the `orbit_rows(F)` representatives are
        walked, in ascending order.  The predicted rows share the symmetry it
        proves on the observed ones (power maps by `_homogeneous`, T6 by
        Frobenius), so an orbit's rows match or fail together: the first
        offending row is the smallest of its orbit, the representative, and
        the first mismatch, `cells_checked` and the observed maximum are
        those of a walk over every row."""
        q = field.q
        F = self.build(field, setting) if self.build else Monomial(field, setting["d"])
        observed, cells, first = 0, (q - 1) * (q - 1), None
        for a, obs in fbct_rows(F, [a for a, _ in orbit_rows(F)]):
            pred = self.predicted(field, setting.get("t"), a)
            bad = np.nonzero(obs[1:] != pred[1:])[0]
            if bad.size:
                b = int(bad[0]) + 1
                cells = (a - 1) * (q - 1) + b
                first = _mismatch(field, a, b, int(pred[b]), int(obs[b]))
                break
            off = np.delete(obs, _checked_trivial(field, a, obs))
            observed = max(observed, int(off.max(initial=0)))
        notes = [f"{self.label} {observed}"]
        if self.expect is not None:
            first = self.expect(F, setting, observed, first, notes)
        return setting, cells, first, notes


def _below_differential_uniformity(F, setting, observed, first, notes):
    delta = differential_uniformity(F)
    notes.append(f"differential uniformity {delta}")
    if first is None and observed > delta:
        first = {"a": "F-boomerang uniformity", "b": "differential uniformity",
                 "predicted": delta, "observed": observed}
        notes.append("F-boomerang uniformity exceeds differential uniformity")
    return first


def _bound_attained(F, setting, observed, first, notes):
    if first is None and observed < 8:
        notes.append(f"bound not attained: maximum 8 claimed, observed "
                     f"{observed} on this field")
    return first


L1 = L2 = Rows(_homogeneous(_inverse_row1), _OFF_DIAGONAL)
T1 = Rows(_homogeneous(lambda f, t: np.ones(f.q, dtype=np.int64)))
T3 = Rows(_homogeneous(_fourth_power_row1),
          expect=_maximum("maximum over ab != 0", lambda s: 2))
T4 = Rows(_homogeneous(_ternary_row1),
          expect=_maximum("maximum over ab != 0", lambda s: 3))
THMT = Rows(_homogeneous(_thmt_row1), _BETA, _below_differential_uniformity)
C_F1 = Rows(_homogeneous(_cf1_row1), _BETA,
            _maximum("F-boomerang uniformity", lambda s: 2 ** s["m"] - 4))
C_F2 = Rows(_homogeneous(lambda f, m: _s6_row1(f, m, 2 ** m - 2, 8, m % 3 == 1)), _BETA,
            _maximum("F-boomerang uniformity", lambda s: 8 if s["m"] % 3 == 1 else 4))
C_F3 = Rows(_homogeneous(lambda f, t: _s6_row1(f, t, 2 ** t - 1, 4, f.n % 3 == 0)), _BETA,
            _maximum("F-boomerang uniformity", lambda s: 4))
T6 = Rows(_t6_row, _BETA, _bound_attained, lambda f, setting: InversePlusTrace(f))
