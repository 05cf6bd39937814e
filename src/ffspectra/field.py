"""Exact arithmetic in GF(p^n): field construction, element algebra, traces,
quadratic characters, and quadratic-equation solving.

Elements are stored as integer codes 0..q-1; the code of an element with
coefficient vector (c0, c1, ..., c_{n-1}) relative to the polynomial basis is
sum(c_i * p**i).  The polynomial-basis product (mul_code, pow_code) only
builds the tables: it finds the generator and fills exp, and every other
operation, scalar or vector, reads the tables through the v* routines.  So
the first arithmetic on a field builds its tables (about 0.5 s and 17 MiB
at q = 2**20).  Every field has q <= 2**20.  Tables are narrow, results
int64: each table is held in the narrowest dtype of its values, and the v*
routines widen where their arithmetic could overflow and return int64 codes.
"""

from __future__ import annotations

import threading
from functools import lru_cache
from types import SimpleNamespace

import numpy as np


class FieldError(ValueError):
    """Invalid field construction, bad element data, or mixed-field operands."""


class InvariantError(AssertionError):
    """An internal consistency check failed: a program fault, never bad input.
    Raised explicitly, so ``python -O`` keeps the check."""


# ---------------------------------------------------------------------------
# polynomial helpers over Z_p (little-endian coefficient lists)
# ---------------------------------------------------------------------------

def _digits(k: int, length: int, p: int) -> list[int]:
    out = []
    for _ in range(length):
        k, r = divmod(k, p)
        out.append(r)
    return out


def _poly_rem(num: list[int], den: list[int], p: int) -> list[int]:
    """Remainder of num modulo monic den, coefficients in Z_p."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    rem = [c % p for c in num[:dd]]
    return rem


def _is_irreducible(coeffs: tuple[int, ...], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg//2."""
    deg = len(coeffs) - 1
    if deg < 1 or coeffs[-1] % p != 1:
        return False
    if deg == 1:
        return True
    if coeffs[0] % p == 0:  # divisible by x
        return False
    for d in range(1, deg // 2 + 1):
        for k in range(p ** d):
            div = _digits(k, d, p) + [1]
            if not any(_poly_rem(coeffs, div, p)):
                return False
    return True


def _prime_factors(m: int) -> list[int]:
    """The distinct prime factors of m >= 1, ascending, by trial division."""
    out = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


@lru_cache(maxsize=None)
def _canonical_modulus(p: int, n: int) -> tuple[int, ...]:
    """First irreducible monic degree-n polynomial in ascending code order."""
    for k in range(p ** n):
        cand = tuple(_digits(k, n, p) + [1])
        if _is_irreducible(cand, p):
            return cand
    raise FieldError(f"no irreducible polynomial of degree {n} over GF({p})")


_TABLE_LIMIT = 1 << 20       # the largest q make_field accepts
_CHUNK = 1 << 12             # codes one step of a table build handles at once


class Field:
    """GF(p^n) with a fixed monic irreducible modulus.

    Construct through make_field(); instances are cached and immutable, so a
    given (p, n, modulus) triple always yields the same object.
    """

    def __init__(self, p: int, n: int, modulus: tuple[int, ...]):
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = tuple(c % p for c in modulus)
        self.char2 = p == 2
        self._mod_code = sum(c << i for i, c in enumerate(self.modulus)) if self.char2 else 0
        self._pows = tuple(p ** i for i in range(n))
        self._lock = threading.Lock()
        self._tab = None

    # -- identity / presentation ------------------------------------------------

    def __repr__(self):
        return f"GF({self.p}^{self.n}; {self.modulus_text()})"

    def __eq__(self, other):
        return (isinstance(other, Field)
                and (self.p, self.n, self.modulus) == (other.p, other.n, other.modulus))

    def __hash__(self):
        return hash((self.p, self.n, self.modulus))

    def modulus_text(self) -> str:
        return ",".join(str(c) for c in self.modulus)

    # -- element construction ----------------------------------------------------

    def element(self, value) -> "FieldElement":
        """Coerce an element code, coefficient sequence, text, or element."""
        if isinstance(value, FieldElement):
            if value.field != self:
                raise FieldError("element belongs to a different field")
            return value
        if isinstance(value, (int, np.integer)):
            return self.from_code(int(value))
        if isinstance(value, str):
            return self.from_text(value)
        return self.from_coeffs(value)

    def from_code(self, code: int) -> "FieldElement":
        if not 0 <= code < self.q:
            raise FieldError(f"element code {code} out of range for q={self.q}")
        return FieldElement(self, code)

    def from_coeffs(self, coeffs) -> "FieldElement":
        cs = [int(c) % self.p for c in coeffs]
        if len(cs) > self.n:
            raise FieldError(f"coefficient vector longer than n={self.n}")
        cs += [0] * (self.n - len(cs))
        return FieldElement(self, sum(c * w for c, w in zip(cs, self._pows)))

    def from_text(self, text: str) -> "FieldElement":
        try:
            coeffs = [int(t) for t in text.strip().split(",")]
        except ValueError as e:
            raise FieldError(f"bad element text {text!r}") from e
        return self.from_coeffs(coeffs)

    def coeffs_of(self, code: int) -> tuple[int, ...]:
        return tuple(_digits(code, self.n, self.p))

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1 % self.q)

    # -- polynomial-basis bootstrap of the tables ----------------------------------

    def mul_code(self, x: int, y: int) -> int:
        """Polynomial-basis product: with pow_code, the bootstrap that finds
        the generator and builds exp.  Nothing else calls either; every other
        operation reads the tables."""
        x, y = int(x), int(y)  # a numpy code would overflow at x <<= 1
        if self.char2:
            r = 0
            hi = 1 << self.n
            while y:
                if y & 1:
                    r ^= x
                y >>= 1
                x <<= 1
                if x & hi:
                    x ^= self._mod_code
            return r
        p, n = self.p, self.n
        xd, yd = self.coeffs_of(x), self.coeffs_of(y)
        prod = [0] * (2 * n - 1)
        for i, xi in enumerate(xd):
            if xi:
                for j, yj in enumerate(yd):
                    prod[i + j] = (prod[i + j] + xi * yj) % p
        rem = _poly_rem(prod, self.modulus, p) if len(prod) > n else prod + [0] * (n - len(prod))
        return sum(c * w for c, w in zip(rem, self._pows))

    def pow_code(self, x: int, e: int) -> int:
        """x^e by squaring with mul_code, e taken mod q - 1 (0^0 = 1); the
        generator search of the table bootstrap is its one caller."""
        x, e = int(x), int(e)
        if e == 0:
            return 1 % self.q
        if x == 0:
            return 0
        e %= self.q - 1
        if e == 0:
            return 1
        r = 1
        while e:
            if e & 1:
                r = self.mul_code(r, x)
            x = self.mul_code(x, x)
            e >>= 1
        return r

    # -- lazy acceleration tables -------------------------------------------------

    def tables(self) -> SimpleNamespace:
        """Build (once) and return numpy acceleration tables.

        Attributes: exp, log, inv, tr, gen, frob; odd characteristic adds
        dig (the n x q digit rows: dig[i][x] is digit i of code x), neg,
        eta.  All code-indexed, each built in the narrowest dtype of its
        values: exp, inv, frob, neg in np.min_scalar_type(q - 1), tr in that
        of p - 1, dig of 2(p - 1), eta int8, log int32 with log[0] = -1.  The
        temporaries are a few narrow q-length vectors: exp by doubling (see
        _powers); log and inv scattered through exp; frob through exp, with
        the exponent i*p in int64, _CHUNK at a time; tr by linearity from its
        values on the n basis codes (_linear_table); dig and neg one digit
        row at a time; eta from the parity of log.
        """
        t = self._tab
        if t is not None:
            return t
        with self._lock:
            if self._tab is None:
                self._tab = self._build_tables()
        return self._tab

    def _find_generator(self) -> int:
        if self.q == 2:
            return 1
        order = self.q - 1
        prim_factors = _prime_factors(order)
        for g in range(2, self.q):
            if all(self.pow_code(g, order // r) != 1 for r in prim_factors):
                return g
        raise InvariantError("no generator found")

    def _build_tables(self) -> SimpleNamespace:
        p, n, q = self.p, self.n, self.q
        code = np.min_scalar_type(q - 1)
        gen = self._find_generator()
        dig = None if self.char2 else self._digit_matrix()
        exp = self._powers(gen, dig, code)
        if self.mul_code(exp[-1], gen) != 1:
            raise InvariantError("generator order mismatch")
        log = np.full(q, -1, dtype=np.int32)
        log[exp] = np.arange(q - 1, dtype=np.int32)
        inv = np.zeros(q, dtype=code)
        inv[1] = 1
        inv[exp[1:]] = exp[:0:-1]  # (g^i)^-1 = g^(q-1-i)
        frob = np.zeros(q, dtype=code)
        for s in range(0, q - 1, _CHUNK):
            i = np.arange(s, min(s + _CHUNK, q - 1), dtype=np.int64)
            frob[exp[i]] = exp[i * p % (q - 1)]

        # t_i = Tr(x^i) (code p^i) is the sum of the n Frobenius images of
        # x^i.  The trace is GF(p)-linear (Lidl-Niederreiter, Thm 2.23), so
        # tr[c*p^i + r] = (c*t_i + tr[r]) mod p for r < p^i.
        orbit = [np.array(self._pows)]
        for _ in range(n - 1):
            orbit.append(frob[orbit[-1]])
        if self.char2:
            ts = np.bitwise_xor.reduce(orbit)
        else:
            ts = self._codes(row[np.array(orbit)].sum(axis=0, dtype=np.int64) % p
                             for row in dig[::-1])
        if ts.max() >= p:
            raise InvariantError("trace left the prime subfield")
        tr = self._linear_table(ts, np.min_scalar_type(p - 1))

        ns = SimpleNamespace(gen=gen, exp=exp, log=log, inv=inv, frob=frob, tr=tr,
                             dig=None, neg=None, eta=None)
        if not self.char2:
            ns.dig = dig
            ns.neg = self._codes(((p - row) % p for row in dig[::-1]), code)
            eta = np.where(log % 2 == 0, np.int8(1), np.int8(-1))
            eta[0] = 0
            ns.eta = eta
        return ns

    def _powers(self, gen: int, dig, dtype) -> np.ndarray:
        """exp[i] = gen^i for i < q - 1, in ``dtype``, filled by doubling:
        exp[m:2m] is exp[:m] times the constant c = gen^m.  y -> c*y is
        GF(p)-linear.  In characteristic 2 it is a lookup in its table, built
        by _linear_table from the n values c*2^i.  Otherwise it is the matrix
        M^m (column i: the digits of gen*p^i) times the digit rows of
        exp[:m], taken _CHUNK codes at a time."""
        p, n, q = self.p, self.n, self.q
        exp = np.zeros(q - 1, dtype=dtype)
        exp[0] = 1
        if self.char2:
            images = [self.mul_code(gen, w) for w in self._pows]
            m = 1
            while m < q - 1:
                times_c = self._linear_table(images, dtype)
                k = min(m, q - 1 - m)
                exp[m:m + k] = times_c[exp[:k]]
                images = times_c[images]        # c^2 * 2^i = c * (c * 2^i)
                m *= 2
            return exp
        m = 1
        step = np.array([_digits(self.mul_code(w, gen), n, p) for w in self._pows]).T
        while m < q - 1:
            end = min(2 * m, q - 1)
            for s in range(m, end, _CHUNK):
                src = dig[:, exp[s - m:min(s + _CHUNK, end) - m]].astype(np.int64)
                exp[s:s + src.shape[1]] = self._codes((step @ src % p)[::-1])
            step = step @ step % p
            m = end
        return exp

    def _linear_table(self, images, dtype) -> np.ndarray:
        """The GF(p)-linear map sending code p^i to images[i], at every code,
        in ``dtype``: L[c*p^i + r] = c*images[i] + L[r] for r < p^i.  The
        images are codes in characteristic 2 (the sum is XOR) or of the prime
        subfield (the sum is mod p, taken in the digit rows' dtype)."""
        p = self.p
        L = np.zeros(self.q, dtype=dtype)
        for w, b in zip(self._pows, images):
            if self.char2:
                np.bitwise_xor(L[:w], int(b), out=L[w:2 * w])
            else:
                cb = (np.arange(1, p) * int(b) % p).astype(np.min_scalar_type(2 * (p - 1)))
                L[w:p * w] = ((cb[:, None] + L[:w]) % p).ravel()
        return L

    def _codes(self, rows, dtype=np.int64) -> np.ndarray:
        """The codes, in ``dtype``, whose digit rows are given, most
        significant first: one Horner pass, the only way odd-characteristic
        digits become codes."""
        rows = iter(rows)
        code = np.array(next(rows), dtype=dtype)
        for row in rows:
            code *= self.p
            code += row
        return code

    def _digit_matrix(self) -> np.ndarray:
        """Row i holds digit i of every code, in the narrowest dtype that
        holds the sum of two digits.  Seen as a (p,)*n array, digit i of the
        code is axis n-1-i, so row i is arange(p) broadcast there."""
        p, n = self.p, self.n
        dig = np.empty((n, self.q), dtype=np.min_scalar_type(2 * (p - 1)))
        for i, row in enumerate(dig):
            row.reshape((p,) * n)[...] = np.arange(p, dtype=dig.dtype).reshape((p,) + (1,) * i)
        return dig

    # -- vectorized arithmetic on code arrays --------------------------------------

    def vadd(self, X, Y):
        """Elementwise sum of codes or code arrays: XOR in characteristic 2,
        otherwise the digit rows of X and Y added mod p, one row at a time."""
        if self.char2:
            return np.bitwise_xor(X, Y)
        return self._codes((row[X] + row[Y]) % self.p for row in self.tables().dig[::-1])

    def vneg(self, X):
        if self.char2:
            return X
        return self.tables().neg[X].astype(np.int64)

    def vsub(self, X, Y):
        return self.vadd(X, self.vneg(Y))

    def vmul(self, X, Y):
        X, Y = np.asarray(X), np.asarray(Y)  # a list compares to 0 as one False
        t = self.tables()
        out = t.exp[(t.log[X] + t.log[Y]) % (self.q - 1)].astype(np.int64)  # int32 holds 2q
        return np.where((X == 0) | (Y == 0), 0, out)

    def vinv(self, X):
        return self.tables().inv[X].astype(np.int64)

    def vpow(self, X, e: int):
        """X^e for codes X (0^0 = 1), or for every code when X is None, whose
        logs of 1..q-1 are then read as a view.  log * e mod (q - 1) is taken
        in place in the one int64 result, and exp is gathered back into it."""
        t = self.tables()
        every = X is None
        out = np.empty(self.q if every else np.shape(X), dtype=np.int64)
        body = out[1:] if every else out
        np.multiply(t.log[1:] if every else t.log[X], e % (self.q - 1), out=body,
                    dtype=np.int64)  # up to 2^40
        body %= self.q - 1
        body[...] = t.exp[body]
        out[0 if every else np.asarray(X) == 0] = e == 0
        return out


class FieldElement:
    """Immutable element of a Field; supports +, -, *, /, ** and equality."""

    __slots__ = ("field", "code")

    def __init__(self, field: Field, code: int):
        self.field = field
        self.code = code

    # -- presentation ------------------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.coeffs_of(self.code)

    @property
    def text(self) -> str:
        return ",".join(str(c) for c in self.coeffs)

    def __repr__(self):
        return f"<{self.text} in GF({self.field.p}^{self.field.n})>"

    def __eq__(self, other):
        return (isinstance(other, FieldElement)
                and self.field == other.field and self.code == other.code)

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.field.modulus, self.code))

    def __bool__(self):
        return self.code != 0

    # -- arithmetic ----------------------------------------------------------------

    def _peer(self, other) -> "FieldElement":
        if isinstance(other, FieldElement):
            if other.field != self.field:
                raise FieldError("operands come from different fields")
            return other
        raise TypeError(f"cannot combine FieldElement with {type(other).__name__}")

    def _made(self, code) -> "FieldElement":
        return FieldElement(self.field, int(code))

    def __add__(self, other):
        return self._made(self.field.vadd(self.code, self._peer(other).code))

    def __sub__(self, other):
        return self._made(self.field.vsub(self.code, self._peer(other).code))

    def __neg__(self):
        return self._made(self.field.vneg(self.code))

    def __mul__(self, other):
        return self._made(self.field.vmul(self.code, self._peer(other).code))

    def __truediv__(self, other):
        return self * self._peer(other).inv()

    def __pow__(self, e: int):
        if not isinstance(e, (int, np.integer)):
            raise TypeError("exponent must be an integer")
        return self._made(self.field.vpow(self.code, int(e)))

    def inv(self) -> "FieldElement":
        return self._made(self.field.vinv(self.code))


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

_FIELD_CACHE: dict[tuple, Field] = {}
_FIELD_CACHE_LOCK = threading.Lock()


def make_field(p: int, n: int, modulus=None) -> Field:
    """Construct (or fetch the cached) GF(p^n).

    modulus: optional length-(n+1) little-endian coefficient sequence of a
    monic irreducible polynomial; defaults to the first irreducible in
    ascending code order.
    """
    p = int(p)
    n = int(n)
    if n < 1:
        raise FieldError(f"n={n} must be a positive integer")
    # the size limit comes first; for p >= 2, n > 20 or p > 2^20 exceeds it
    # whatever the other is, so p ** n is formed only when both are small
    if n >= _TABLE_LIMIT.bit_length() or p > _TABLE_LIMIT or p ** n > _TABLE_LIMIT:
        raise FieldError(f"q=p^n exceeds the supported q <= 2^20 ({p}^{n})")
    if _prime_factors(p) != [p]:
        raise FieldError(f"p={p} is not prime")
    if modulus is None:
        mod = _canonical_modulus(p, n)
    else:
        mod = tuple(int(c) % p for c in modulus)
        if len(mod) != n + 1:
            raise FieldError(f"modulus must have n+1={n + 1} coefficients")
        if mod[-1] != 1:
            raise FieldError("modulus must be monic")
        if not _is_irreducible(mod, p):
            raise FieldError("modulus is reducible")
    key = (p, n, mod)
    with _FIELD_CACHE_LOCK:
        fld = _FIELD_CACHE.get(key)
        if fld is None:
            fld = Field(p, n, mod)
            _FIELD_CACHE[key] = fld
    return fld


def trace(x: FieldElement) -> int:
    """Absolute trace into Z_p, returned as an integer in [0, p)."""
    return int(x.field.tables().tr[x.code])


def quadratic_character(x: FieldElement) -> int:
    """eta(x) in {-1, 0, 1}; raises in characteristic 2."""
    if x.field.char2:
        raise FieldError("quadratic character is undefined in characteristic 2")
    return int(x.field.tables().eta[x.code])


def _gf2_solve(images, rhs: int = 0) -> tuple:
    """(kernel dimension, y or None) for the GF(2)-linear map L with
    L(2^j) = images[j]: y solves L(y) = rhs, None when rhs is outside the
    image.  Each row packs image << n | 1 << j, so the combination of basis
    vectors rides along the reduction; rhs << n is reduced last, and its low
    bits are then y."""
    n = len(images)
    pivots = []
    for cur in [img << n | 1 << j for j, img in enumerate(images)] + [rhs << n]:
        for pv in pivots:
            cur = min(cur, cur ^ pv)
        if cur >> n:
            pivots.append(cur)
            pivots.sort(reverse=True)
    if cur >> n:  # rhs added a pivot of its own
        return n - len(pivots) + 1, None
    return n - len(pivots), cur


def solve_quadratic(A: FieldElement, B: FieldElement, C: FieldElement) -> frozenset:
    """All roots X of A*X^2 + B*X + C = 0 in the common field (A != 0).

    Characteristic 2 solves Y^2 + Y = AC/B^2 by GF(2) elimination; odd
    characteristic reads the square root of the discriminant off the log
    table.  Like all arithmetic on a field, the first call builds its tables
    (about 0.4 s once on GF(3^12), in-process)."""
    field = A.field
    if B.field != field or C.field != field:
        raise FieldError("operands come from different fields")
    if A.code == 0:
        raise FieldError("leading coefficient A must be nonzero")
    a, b, c = A.code, B.code, C.code
    vmul = field.vmul
    if field.char2:
        inv_a = field.vinv(a)
        if b == 0:
            # X^2 = C/A has the unique root (C/A)^(2^(n-1))
            roots = field.vpow(vmul(c, inv_a), 2 ** (field.n - 1))
        else:
            # substitute X = (B/A) Y: reduces to Y^2 + Y = AC/B^2
            w = vmul(vmul(a, c), field.vinv(vmul(b, b)))
            basis = 1 << np.arange(field.n, dtype=np.int64)
            y0 = _gf2_solve((vmul(basis, basis) ^ basis).tolist(), int(w))[1]
            if y0 is None:
                return frozenset()
            roots = vmul(vmul(b, inv_a), [y0, y0 ^ 1])
    else:
        # X = (-B +- sqrt(disc)) / 2A, disc = B^2 - 4AC
        disc = int(field.vsub(vmul(b, b), vmul(vmul(4 % field.p, a), c)))
        # a nonzero square has an even discrete log, so sqrt(disc) = g^(log/2)
        t = field.tables()
        half, odd = divmod(int(t.log[disc]), 2)
        if disc and odd:
            return frozenset()
        s = int(t.exp[half]) if disc else 0
        roots = vmul(field.vsub(field.vneg(b), [s, field.vneg(s)]), field.vinv(vmul(2, a)))
    return frozenset(FieldElement(field, int(r)) for r in np.ravel(roots))


def omega(field: Field) -> FieldElement:
    """The least primitive cube root of unity (requires 3 | q-1)."""
    if (field.q - 1) % 3:
        raise FieldError("field has no primitive cube root of unity")
    third = (field.q - 1) // 3
    return FieldElement(field, int(field.tables().exp[[third, 2 * third]].min()))
