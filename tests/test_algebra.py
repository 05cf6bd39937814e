"""Cubic/quartic root classification and linearized kernel dimensions."""

import itertools
import math
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from ffspectra.algebra import (cubic_roots_odd, linearized_kernel_dim,
                               quartic_pattern_brute, quartic_pattern_char2,
                               quartic_quadratic_divisor_scan)
from ffspectra.field import FieldError, make_field

import oracles as ref


def cubic_value(x, c2, c1, c0):
    return x * x * x + c2 * x * x + c1 * x + c0


def cubic_deriv_value(f, x, c2, c1):
    three_xx = f.from_code(ref.scalar_mul(f, 3, (x * x).code))
    two_c2x = f.from_code(ref.scalar_mul(f, 2, (c2 * x).code))
    return three_xx + two_c2x + c1


@pytest.mark.parametrize("p,n", [(5, 1), (7, 1), (3, 2)])
def test_cubic_roots_all_monic_cubics(p, n):
    f = make_field(p, n)
    elems = [f.from_code(c) for c in range(f.q)]
    for c2, c1, c0 in itertools.product(elems, repeat=3):
        rep = cubic_roots_odd(c2, c1, c0)
        want = [x for x in elems if cubic_value(x, c2, c1, c0).code == 0]
        assert [r.code for r in rep.roots] == [x.code for x in want]
        has_repeat = any(cubic_value(x, c2, c1, c0).code == 0
                         and cubic_deriv_value(f, x, c2, c1).code == 0
                         for x in elems)
        if rep.discriminant.code == 0:
            assert rep.eta_disc == 0
            assert has_repeat
        else:
            assert not has_repeat
            assert rep.eta_disc in (-1, 1)
            # one-root criterion for squarefree cubics
            assert (len(rep.roots) == 1) == (rep.eta_disc == -1)
            assert len(rep.roots) in ((1,) if rep.eta_disc == -1 else (0, 3))


def test_cubic_repeated_root_example():
    f = make_field(7, 1)
    # (X-1)^2 (X-2) = X^3 + 3X^2 + 5X + 5 over GF(7)
    rep = cubic_roots_odd(f.from_code(3), f.from_code(5), f.from_code(5))
    assert [r.code for r in rep.roots] == [1, 2]
    assert rep.discriminant.code == 0 and rep.eta_disc == 0


def test_cubic_requires_odd_characteristic():
    f = make_field(2, 3)
    with pytest.raises(FieldError):
        cubic_roots_odd(f.one, f.one, f.one)


def _all_quartic_triples(f):
    for a2 in range(f.q):
        for a1 in range(1, f.q):
            for a0 in range(1, f.q):
                yield (f.from_code(a2), f.from_code(a1), f.from_code(a0))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_quartic_pattern_exhaustive_small_fields(n):
    f = make_field(2, n)
    for a2, a1, a0 in _all_quartic_triples(f):
        got = quartic_pattern_char2(a2, a1, a0)
        want = quartic_pattern_brute(a2, a1, a0)
        assert got.pattern == want
        assert sum(got.pattern) == 4
        # a1 != 0 makes the quartic squarefree, so linear factors = roots
        nroots = sum(1 for x in range(f.q)
                     if f.pow_code(x, 4) ^ f.mul_code(a2.code, f.mul_code(x, x))
                     ^ f.mul_code(a1.code, x) ^ a0.code == 0)
        assert got.pattern.count(1) == nroots
        assert len(got.w_values) == len(got.cubic_roots)


@pytest.mark.parametrize("n,samples", [(6, 300), (8, 120)])
def test_quartic_pattern_random_larger_fields(n, samples):
    f = make_field(2, n)
    rng = np.random.RandomState(100 + n)
    for _ in range(samples):
        a2 = f.from_code(int(rng.randint(0, f.q)))
        a1 = f.from_code(int(rng.randint(1, f.q)))
        a0 = f.from_code(int(rng.randint(1, f.q)))
        assert quartic_pattern_char2(a2, a1, a0).pattern == \
            quartic_pattern_brute(a2, a1, a0)


@pytest.mark.parametrize("n", [2, 3])
def test_quadratic_divisor_scan_consistency(n):
    f = make_field(2, n)
    for a2, a1, a0 in _all_quartic_triples(f):
        pattern = quartic_pattern_char2(a2, a1, a0).pattern
        has_quad_divisor = quartic_quadratic_divisor_scan(a2, a1, a0)
        assert has_quad_divisor == (pattern not in ((1, 3), (4,)))


def test_quartic_rejects_degenerate_coefficients():
    f = make_field(2, 4)
    with pytest.raises(ValueError):
        quartic_pattern_char2(f.one, f.zero, f.one)
    with pytest.raises(ValueError):
        quartic_pattern_brute(f.one, f.one, f.zero)


def brute_kernel_count(f, t, Bcode):
    e = 1 << t
    cnt = 0
    for x in range(f.q):
        img = (f.pow_code(x, e)
               ^ f.mul_code(Bcode, f.mul_code(x, x))
               ^ f.mul_code(Bcode ^ 1, x))
        if img == 0:
            cnt += 1
    return cnt


def test_linearized_kernel_dims_match_point_counts():
    f = make_field(2, 6)
    for t in range(1, 6):
        for B in range(f.q):
            cnt = brute_kernel_count(f, t, B)
            assert cnt == (cnt & -cnt)  # power of two
            dim = linearized_kernel_dim(t, f.from_code(B))
            assert (1 << dim) == cnt
        assert linearized_kernel_dim(t, f.one) == math.gcd(t - 1, 6)
        assert linearized_kernel_dim(t, f.zero) == math.gcd(t, 6)


def test_linearized_kernel_validation():
    f = make_field(2, 6)
    with pytest.raises(ValueError):
        linearized_kernel_dim(0, f.one)
    with pytest.raises(ValueError):
        linearized_kernel_dim(6, f.one)
    with pytest.raises(FieldError):
        linearized_kernel_dim(1, make_field(3, 2).one)


def test_root_count_checks_survive_python_O():
    """Under ``python -O`` a corrupted root count still raises: the one-root
    criterion and the 0-or-3 count of a cubic, and the quartic brute count."""
    script = textwrap.dedent("""
        import sys
        import numpy as np
        from ffspectra import algebra
        from ffspectra.field import InvariantError, make_field

        if not sys.flags.optimize:
            raise SystemExit("expected python -O")

        def with_roots(k):
            def values(field, coeffs_desc):
                vals = np.ones(field.q, dtype=np.int64)
                vals[:k] = 0
                return vals
            return values

        f7, f16 = make_field(7, 1), make_field(2, 4)
        cases = [  # X^3 + 3X + 1: eta(disc) = -1;  X^3 + X + 1: eta(disc) = 1
            (2, lambda: algebra.cubic_roots_odd(f7.zero, f7.from_code(3), f7.one)),
            (2, lambda: algebra.cubic_roots_odd(f7.zero, f7.one, f7.one)),
            (3, lambda: algebra.quartic_pattern_brute(f16.one, f16.one, f16.one)),
        ]
        for k, run in cases:
            algebra._poly_values = with_roots(k)
            try:
                run()
                print("no error")
            except InvariantError as exc:
                print("InvariantError", exc)
    """)
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert len(lines) == 3 and all(line.startswith("InvariantError") for line in lines), lines
    assert "one-root criterion" in lines[0]
    assert "eta(disc) = 1" in lines[1]
    assert "squarefree quartic" in lines[2]
