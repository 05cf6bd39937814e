"""Functions under analysis over GF(p^n).

Four variants: power maps X^d, the map X^(-1) + Tr(X^2/(X+1)), the map
1/(X + gamma*Tr(X^(2^t+1))), and explicit value tables.  All division follows
the global convention inv(0) = 0.
"""

from __future__ import annotations

import ast
import math
import re

import numpy as np

from .field import _CHUNK, Field, FieldElement, FieldError


class FunctionError(ValueError):
    """Invalid function parameters or unparseable function text."""


def canonical_exponent(q: int, d: int) -> int:
    """Reduce d to the canonical representative: 0, or a value in [1, q-1]."""
    if d == 0:
        return 0
    return (d - 1) % (q - 1) + 1


def gamma_conditions(field: Field, t: int, gamma):
    """The two conditions on gamma of GammaTraceInverse, for a code or an
    array of codes: (gamma^(2^(2t)) = gamma, Tr(gamma^(2^t+1)) = 0)."""
    return (field.vpow(gamma, 2 ** (2 * t)) == gamma,
            field.tables().tr[field.vpow(gamma, 2 ** t + 1)] == 0)


class FunctionUnderTest:
    """A fixed function F: GF(p^n) -> GF(p^n), defined by its value table."""

    field: Field

    def eval(self, x: FieldElement) -> FieldElement:
        """F(x), read off the value table (the first call builds it)."""
        return self.field.from_code(int(self.table()[x.code]))

    def __call__(self, x: FieldElement) -> FieldElement:
        return self.eval(x)

    def table(self) -> np.ndarray:
        """Value table FT[x] = code of F(x), built once by `_build_table`, kept read-only."""
        if getattr(self, "_ft", None) is None:
            self._ft = self._build_table()
            self._ft.flags.writeable = False
        return self._ft

    def text(self) -> str:
        raise NotImplementedError

    def __repr__(self):
        return f"<{self.text()} over GF({self.field.p}^{self.field.n})>"


class Monomial(FunctionUnderTest):
    """Power map F(X) = X^d with 0^d = 0 for d != 0 and 0^0 = 1."""

    def __init__(self, field: Field, d: int):
        self.field = field
        self.d = canonical_exponent(field.q, int(d))

    def _build_table(self) -> np.ndarray:
        return self.field.vpow(None, self.d)

    def text(self) -> str:
        return f"monomial:d={self.d}"


class InversePlusTrace(FunctionUnderTest):
    """F(X) = X^(-1) + Tr(X^2 / (X+1)) over GF(2^n); F(1) = 1 via inv(0) = 0."""

    def __init__(self, field: Field):
        if not field.char2:
            raise FunctionError("inv-plus-trace requires characteristic 2")
        self.field = field

    def _build_table(self) -> np.ndarray:
        f = self.field
        X = np.arange(f.q, dtype=np.int64)
        arg = f.vmul(f.vmul(X, X), f.vinv(X ^ 1))
        return f.vinv(X) ^ f.tables().tr[arg]

    def text(self) -> str:
        return "inv-plus-trace"


class GammaTraceInverse(FunctionUnderTest):
    """F(X) = 1 / (X + gamma * Tr(X^(2^t+1))) over GF(2^n).

    Requires 0 < t < n and gamma != 0 meeting both `gamma_conditions`, all
    checked at construction.
    """

    def __init__(self, field: Field, t: int, gamma: FieldElement):
        if not field.char2:
            raise FunctionError("gamma-trace-inverse requires characteristic 2")
        if not 0 < t < field.n:
            raise FunctionError(f"t={t} must satisfy 0 < t < n={field.n}")
        gamma = field.element(gamma)
        if gamma.code == 0:
            raise FunctionError("gamma must be nonzero")
        fixed, traceless = gamma_conditions(field, t, gamma.code)
        if not fixed:
            raise FunctionError("gamma must satisfy gamma^(2^(2t)) = gamma")
        if not traceless:
            raise FunctionError("gamma must satisfy trace(gamma^(2^t+1)) = 0")
        self.field = field
        self.t = t
        self.gamma = gamma

    def _build_table(self) -> np.ndarray:
        f = self.field
        X = np.arange(f.q, dtype=np.int64)
        trv = f.tables().tr[f.vpow(X, 2 ** self.t + 1)]
        den = X ^ np.where(trv == 1, self.gamma.code, 0)
        return f.vinv(den)

    def text(self) -> str:
        return f"gamma-trace-inverse:t={self.t},gamma={self.gamma.text}"


def _check_table(q: int, shape: tuple, parts) -> None:
    """Refuse a table of this shape unless it is (q,), then unless each array of
    ``parts`` holds integer codes in [0, q) only: a code of 2^64 or more gives an
    object array, and 1.5 or a negative code beside one of 2^63 a float one."""
    if shape != (q,):
        raise FunctionError(f"table needs exactly q={q} entries, got {math.prod(shape)}")
    if not all(c.dtype.kind in "iu" and c.min() >= 0 and c.max() < q for c in parts):
        raise FunctionError(f"table entries must be integer codes in [0, {q})")


class TableFunction(FunctionUnderTest):
    """Explicit value table: entry i is F(element with code i).  The integer
    codes, a sequence or an array, are checked in one pass and held in a copy."""

    def __init__(self, field: Field, values):
        ft = np.array(values)  # a copy: later edits to ``values`` leave F as it is
        _check_table(field.q, ft.shape, [ft])
        self.field = field
        self._ft = ft.astype(np.int64, copy=False)
        self._ft.flags.writeable = False

    def text(self) -> str:
        """The `table:` text, formed a _CHUNK of codes at a time."""
        return "table:" + ",".join([",".join(map(str, self._ft[s:s + _CHUNK].tolist()))
                                    for s in range(0, self._ft.size, _CHUNK)])


# ---------------------------------------------------------------------------
# exponent expressions and the function-text grammar
# ---------------------------------------------------------------------------

#: A power sure to have more bits than this is refused before it is computed.
_POWER_BITS = 1 << 16


def _div(a, b):
    """a / b as a Fraction: the one place an exponent formula leaves the ints, so
    only a formula with a division or a negative power loads `fractions`."""
    from fractions import Fraction
    return Fraction(a) / b


_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: _div,
    ast.Pow: lambda a, e: a ** e if e >= 0 else _div(1, a ** -e),
}


def eval_exponent_expr(text: str, field: Field, k: int | None = None,
                       t: int | None = None) -> int:
    """Exact integer evaluation of an exponent formula in p, n, q (and k, t).

    Supports + - * / ^ and parentheses; every division must be exact by the
    time the whole expression is evaluated (e.g. "(2*q-1)/3", "(p^k+1)/2",
    "(3^n-1)/2+2", "2^t-1").  Implicit products like "2q" are accepted.  Values
    are ints until a division or a negative power makes a Fraction.  A power
    b^e with |e| * floor(log2 max(|num b|, den b)) >= _POWER_BITS, which has
    more than _POWER_BITS bits, raises FunctionError before it is computed.
    """
    names = {"p": field.p, "n": field.n, "q": field.q}
    if k is not None:
        names["k"] = int(k)
    if t is not None:
        names["t"] = int(t)
    src = re.sub(r"(\d)([pnqkt])\b", r"\1*\2", text.replace("^", "**").strip())

    def ev(nd):
        if isinstance(nd, ast.BinOp):
            fn = _BINOPS.get(type(nd.op))
            if fn is None:
                raise FunctionError(f"unsupported operator in exponent expression {text!r}")
            a, b = ev(nd.left), ev(nd.right)
            if isinstance(nd.op, ast.Pow):
                if b.denominator != 1:
                    raise FunctionError(f"non-integer power in exponent expression {text!r}")
                b = int(b)
                size = max(abs(a.numerator), a.denominator)
                if abs(b) * (size.bit_length() - 1) >= _POWER_BITS:
                    raise FunctionError(f"power too large in exponent expression {text!r}")
            try:
                return fn(a, b)
            except ZeroDivisionError:
                raise FunctionError(f"division by zero in exponent expression {text!r}") from None
        if isinstance(nd, ast.UnaryOp) and isinstance(nd.op, (ast.USub, ast.UAdd)):
            v = ev(nd.operand)
            return -v if isinstance(nd.op, ast.USub) else v
        if isinstance(nd, ast.Constant) and isinstance(nd.value, int):
            return int(nd.value)
        if isinstance(nd, ast.Name):
            if nd.id in names:
                return names[nd.id]
            raise FunctionError(f"unknown name {nd.id!r} in exponent expression {text!r}")
        raise FunctionError(f"unsupported syntax in exponent expression {text!r}")

    try:
        node = ast.parse(src, mode="eval").body
    except SyntaxError as e:
        raise FunctionError(f"bad exponent expression {text!r}") from e
    val = ev(node)
    if val.denominator != 1:  # (got ...) only where Python's default limit can print it
        got = f" (got {val})" if max(abs(val.numerator), val.denominator) < 10 ** 4300 else ""
        raise FunctionError(f"exponent expression {text!r} is not an integer{got}; "
                            f"check the divisibility hypothesis")
    return int(val)


def parse_function(field: Field, text: str, k: int | None = None,
                   t: int | None = None) -> FunctionUnderTest:
    """Parse the CLI function grammar.

    monomial:d=<int or formula> | inv-plus-trace |
    gamma-trace-inverse:t=<int>,gamma=<coeffs> | table:@<path>
    """
    s = text.strip()
    if s == "inv-plus-trace":
        return InversePlusTrace(field)
    if s.startswith("monomial:"):
        body = s[len("monomial:"):]
        if not body.startswith("d="):
            raise FunctionError(f"monomial spec must look like monomial:d=..., got {text!r}")
        return Monomial(field, eval_exponent_expr(body[2:], field, k=k, t=t))
    if s.startswith("gamma-trace-inverse:"):
        body = s[len("gamma-trace-inverse:"):]
        m = re.fullmatch(r"t=(\d+),gamma=([0-9,\- ]+)", body)
        if not m:
            raise FunctionError(
                f"gamma-trace-inverse spec must look like gamma-trace-inverse:t=<int>,gamma=<coeffs>, got {text!r}")
        try:
            gamma = field.from_text(m.group(2))
        except FieldError as e:
            raise FunctionError(str(e)) from e
        return GammaTraceInverse(field, int(m.group(1)), gamma)
    if s.startswith("table:"):
        body = s[len("table:"):]
        if body.startswith("@"):
            path, limit = body[1:], 64 * field.q + (1 << 16)  # 64 characters a code
            try:
                with open(path, "r", encoding="utf-8") as fh:
                    body = fh.read(limit + 1)
            except OSError as e:
                raise FunctionError(f"cannot read table file {path!r}: {e}") from e
            if len(body) > limit:
                raise FunctionError(f"table file {path!r} has more than {limit} characters "
                                    f"(64 a code, plus 2^16)")
        return TableFunction(field, _table_codes(field.q, body))
    raise FunctionError(f"unparseable function text {text!r}")


#: A chunk of `table:` text: up to 2^16 characters, then the rest of the last token.
_TEXT_CHUNK = re.compile(r"(?s).{1,65536}[^\s,]*")


def _table_codes(q: int, text: str):
    """The codes of a `table:` text, split at commas and whitespace a chunk at a time: a
    list of ints if the text is one chunk, else an int64 array joined from an array a chunk,
    all checked before the join; refused as the whole list is: non-int, count, range."""
    parts, count = [], 0
    try:
        for m in _TEXT_CHUNK.finditer(text):
            codes = [int(tok) for tok in m[0].replace(",", " ").split()]
            if m.end() - m.start() == len(text):
                return codes
            count += len(codes)
            if codes and count <= q:
                parts.append(np.array(codes))
    except ValueError as e:
        raise FunctionError(f"table entries must be integer element codes: {e}") from e
    _check_table(q, (count,), parts)
    return np.concatenate(parts)
