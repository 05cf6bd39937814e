"""Root counting helpers (cubics over odd characteristic, quartic
factorization patterns over GF(2^n), kernels of the linearized maps
x -> x^(2^t) + Bx^2 + (B+1)x) and the binary Kloosterman sum K(1).

Exhaustive scans over the field are the authoritative root finders at this
scale; closed-form classifications are asserted against them, never trusted
alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import (Field, FieldElement, FieldError, InvariantError, _gf2_solve,
                    make_field, quadratic_character, solve_quadratic, trace)


# ---------------------------------------------------------------------------
# cubics over odd characteristic
# ---------------------------------------------------------------------------

@dataclass
class CubicRootsReport:
    roots: tuple            # FieldElements, sorted by code
    discriminant: FieldElement
    eta_disc: int           # quadratic character of the discriminant (0 if it is 0)


def _poly_values(field: Field, coeffs_desc) -> np.ndarray:
    """Values of a monic polynomial (leading 1 implied) at every field element.

    coeffs_desc lists the lower coefficients by descending degree.
    """
    X = np.arange(field.q, dtype=np.int64)
    vals = np.ones(field.q, dtype=np.int64)
    for c in coeffs_desc:
        vals = field.vmul(vals, X)
        if c:
            vals = field.vadd(vals, c)
    return vals


def cubic_roots_odd(c2: FieldElement, c1: FieldElement, c0: FieldElement) -> CubicRootsReport:
    """All roots of X^3 + c2 X^2 + c1 X + c0 over an odd-characteristic field,
    with the quadratic character of the discriminant.

    When the discriminant is nonzero, the one-root criterion is asserted:
    exactly one root <=> eta(disc) = -1 (a zero discriminant means repeated
    roots, where the equivalence does not apply).
    """
    f = c2.field
    if f.char2:
        raise FieldError("cubic classification by discriminant needs odd characteristic")
    c2, c1, c0 = f.element(c2), f.element(c1), f.element(c0)

    vals = _poly_values(f, [c2.code, c1.code, c0.code])
    root_codes = np.nonzero(vals == 0)[0]
    roots = tuple(f.from_code(int(c)) for c in root_codes)

    # disc(x^3 + ax^2 + bx + c) = 18abc - 4a^3c + a^2b^2 - 4b^3 - 27c^2
    a, b, c = c2, c1, c0
    k18, k4, k27 = (f.from_coeffs([k]) for k in (18, 4, 27))  # prime-subfield constants
    disc = k18 * a * b * c - k4 * a * a * a * c + a * a * b * b - k4 * b * b * b - k27 * c * c
    eta = quadratic_character(disc)
    if disc.code != 0:
        if (len(roots) == 1) != (eta == -1):
            raise InvariantError(f"one-root criterion violated: {len(roots)} roots, "
                                 f"eta(disc) = {eta}")
        if eta == 1 and len(roots) not in (0, 3):
            raise InvariantError(f"{len(roots)} roots with eta(disc) = 1; expected 0 or 3")
    return CubicRootsReport(roots=roots, discriminant=disc, eta_disc=eta)


# ---------------------------------------------------------------------------
# quartic factorization patterns in characteristic 2
# ---------------------------------------------------------------------------

@dataclass
class QuarticAnalysis:
    a2: FieldElement
    a1: FieldElement
    a0: FieldElement
    cubic_roots: tuple      # roots of Y^3 + a2 Y + a1 in the field
    w_values: tuple         # a0 * r^2 / a1^2 per cubic root r
    pattern: tuple          # degree pattern of the factorization of f


def quartic_pattern_char2(a2: FieldElement, a1: FieldElement, a0: FieldElement) -> QuarticAnalysis:
    """Factorization pattern of f = X^4 + a2 X^2 + a1 X + a0 over GF(2^n),
    decided by the companion cubic g = Y^3 + a2 Y + a1 and the traces of
    w_i = a0 r_i^2 / a1^2:

      g has 3 roots: all Tr(w_i)=0 -> (1,1,1,1); exactly one 0 -> (2,2)
      g has 1 root:  Tr(w_1)=0 -> (1,1,2), else (4)
      g has 0 roots: (1,3)
    """
    f = a2.field
    if not f.char2:
        raise FieldError("quartic pattern analysis is for characteristic 2")
    a2, a1, a0 = f.element(a2), f.element(a1), f.element(a0)
    if a0.code == 0 or a1.code == 0:
        raise ValueError("need a0*a1 != 0")

    gvals = _poly_values(f, [0, a2.code, a1.code])
    roots = tuple(f.from_code(int(c)) for c in np.nonzero(gvals == 0)[0])
    inv_a1sq = (a1 * a1).inv()
    ws = tuple(a0 * r * r * inv_a1sq for r in roots)
    traces = [trace(w) for w in ws]

    if len(roots) == 3:
        zeros = traces.count(0)
        if zeros == 3:
            pattern = (1, 1, 1, 1)
        elif zeros == 1:
            pattern = (2, 2)
        else:
            raise RuntimeError(f"impossible trace combination {traces} for a split companion cubic")
    elif len(roots) == 1:
        pattern = (1, 1, 2) if traces[0] == 0 else (4,)
    elif len(roots) == 0:
        pattern = (1, 3)
    else:
        raise RuntimeError("a squarefree cubic cannot have exactly 2 roots")
    return QuarticAnalysis(a2=a2, a1=a1, a0=a0, cubic_roots=roots, w_values=ws, pattern=pattern)


def quartic_pattern_brute(a2: FieldElement, a1: FieldElement, a0: FieldElement) -> tuple:
    """Oracle: the same pattern from exhaustive root counting, with the
    0-root case split into (2,2) vs (4) by scanning all monic quadratic
    divisors.  The remainder of f by X^2+uX+v is
    (u^3 + a2 u + a1) X + (v^2 + u^2 v + a2 v + a0), so a divisor needs u to
    kill the X-coefficient and v to solve the constant one.
    """
    f = a2.field
    a2, a1, a0 = f.element(a2), f.element(a1), f.element(a0)
    if a0.code == 0 or a1.code == 0:
        raise ValueError("need a0*a1 != 0")
    fvals = _poly_values(f, [0, a2.code, a1.code, a0.code])
    nroots = int(np.count_nonzero(fvals == 0))
    if nroots == 4:
        return (1, 1, 1, 1)
    if nroots == 2:
        return (1, 1, 2)
    if nroots == 1:
        return (1, 3)
    if nroots != 0:
        raise InvariantError(f"{nroots} roots, but a squarefree quartic without an "
                             "X^3 term has 0, 1, 2 or 4")
    gvals = _poly_values(f, [0, a2.code, a1.code])
    for u in np.nonzero(gvals == 0)[0]:
        ue = f.from_code(int(u))
        if solve_quadratic(f.one, ue * ue + a2, a0):
            return (2, 2)
    return (4,)


def quartic_quadratic_divisor_scan(a2: FieldElement, a1: FieldElement, a0: FieldElement) -> bool:
    """Literal scan of all q^2 monic quadratics X^2+uX+v for one dividing f,
    via the explicit remainder coefficients; cross-checks the root-based
    shortcut at small sizes."""
    f = a2.field
    V = np.arange(f.q, dtype=np.int64)
    vsq = f.vmul(V, V)
    for u in range(f.q):
        ue = f.from_code(u)
        cx = (ue * ue * ue + a2 * ue + a1).code
        c0 = f.vadd(f.vadd(vsq, f.vmul((ue * ue + a2).code, V)), a0.code)
        if cx == 0 and (c0 == 0).any():
            return True
    return False


# ---------------------------------------------------------------------------
# linearized kernels over F_2
# ---------------------------------------------------------------------------

def linearized_kernel_dim(t: int, B: FieldElement) -> int:
    """dim over F_2 of the kernel of x -> x^(2^t) + B x^2 + (B+1) x."""
    f = B.field
    if not f.char2:
        raise FieldError("linearized kernel map lives in characteristic 2")
    if not 1 <= t < f.n:
        raise ValueError(f"t={t} out of range 1..{f.n - 1}")
    x = 1 << np.arange(f.n, dtype=np.int64)
    return _gf2_solve((f.vpow(x, 1 << t) ^ f.vmul(B.code, f.vmul(x, x))
                       ^ f.vmul(B.code ^ 1, x)).tolist())[0]


# ---------------------------------------------------------------------------
# Kloosterman sums
# ---------------------------------------------------------------------------

_CARLITZ_LIMIT = 4096  # the largest n ``carlitz`` accepts (its sum has O(n) big terms)


def kloosterman(n: int, method: str = "direct") -> int:
    """Kloosterman sum K(1) over GF(2^n).

    ``direct`` evaluates sum_x (-1)^Tr(x^(-1) + x) with the x = 0 term
    contributing +1 (the inverse of 0 is taken as 0), as q minus twice the
    number of x with trace 1, read off the narrow tables.  ``carlitz`` evaluates
    the closed form 1 + ((-1)^(n-1)/2^(n-1)) * sum_i (-1)^i C(n,2i) 7^i as an
    integer numerator over 2^(n-1); a remainder is a program fault, never an
    input condition.
    """
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if method == "direct":
        f = make_field(2, n)
        tb = f.tables()
        x = np.arange(f.q, dtype=tb.inv.dtype)
        return f.q - 2 * int(np.count_nonzero(tb.tr[tb.inv ^ x]))
    if method == "carlitz":
        if n > _CARLITZ_LIMIT:
            raise ValueError(f"n={n} exceeds the supported n <= {_CARLITZ_LIMIT} "
                             f"of the closed form")
        acc = sum((-1) ** i * math.comb(n, 2 * i) * 7 ** i
                  for i in range(n // 2 + 1))
        quo, rem = divmod((-1) ** (n - 1) * acc, 2 ** (n - 1))
        if rem:
            raise InvariantError(f"closed-form Kloosterman sum for n={n} is not an integer")
        return 1 + quo
    raise ValueError(f"unknown method {method!r}; use 'direct' or 'carlitz'")
