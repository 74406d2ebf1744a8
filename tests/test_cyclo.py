import cmath
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab.cyclo import (
    Cyclotomic,
    as_integer,
    as_rational,
    bit_size,
    cyclotomic_polynomial,
    decode_scalar,
    encode_scalar,
    scalar_key,
    totient,
    zeta,
)
from syzlab.errors import InvalidInput, LimitExceeded


def test_cyclotomic_polynomial_small_cases():
    assert cyclotomic_polynomial(1) == [-1, 1]
    assert cyclotomic_polynomial(2) == [1, 1]
    assert cyclotomic_polynomial(4) == [1, 0, 1]
    # x^6 - 1 divided by Phi_1 * Phi_2 * Phi_3
    assert cyclotomic_polynomial(6) == [1, -1, 1]
    assert cyclotomic_polynomial(12) == [1, 0, -1, 0, 1]


def test_cyclotomic_polynomial_degree_and_divisibility():
    for n in range(1, 31):
        phi = cyclotomic_polynomial(n)
        assert len(phi) - 1 == totient(n)
        # product of Phi_d over d | n reconstructs x^n - 1
        prod = [1]
        for d in range(1, n + 1):
            if n % d == 0:
                q = cyclotomic_polynomial(d)
                new = [0] * (len(prod) + len(q) - 1)
                for i, a in enumerate(prod):
                    for j, b in enumerate(q):
                        new[i + j] += a * b
                prod = new
        assert prod == [-1] + [0] * (n - 1) + [1]


def test_conductor_limit():
    with pytest.raises(LimitExceeded):
        cyclotomic_polynomial(65)
    with pytest.raises(InvalidInput):
        cyclotomic_polynomial(0)


def test_zeta_powers():
    z4 = zeta(4)
    assert z4 * z4 == Fraction(-1)
    assert z4**4 == 1
    z3 = zeta(3)
    # x^2 reduced mod x^2 + x + 1
    assert z3 * z3 == -1 - z3
    assert z3**3 == 1
    a = 2 + 3 * zeta(5)
    assert a * 1 == a


def test_as_rational():
    z4 = zeta(4)
    assert as_rational(z4 * z4 + 1) == 0
    assert as_rational(zeta(3)) is None
    z6 = zeta(6)
    assert as_rational(z6 + z6**-1) == 1
    assert as_integer(z6 * z6**-1) == 1
    assert as_integer(Fraction(1, 2)) is None


def test_mixed_conductor_arithmetic():
    z3, z4 = zeta(3), zeta(4)
    x = z3 + z4
    assert isinstance(x, Cyclotomic)
    assert x.conductor == 12
    assert x - z4 == z3
    assert (z3 * z4) ** 12 == 1


def test_rational_demotion():
    z5 = zeta(5)
    s = z5 + z5**2 + z5**3 + z5**4
    assert type(s) is int
    assert s == -1
    half = (z5 + 1) / 2 - z5 / 2
    assert type(half) is Fraction
    assert half == Fraction(1, 2)
    assert not (z5 - z5)


def test_division_and_inverse():
    z7 = zeta(7)
    a = 2 - 3 * z7 + z7**4
    assert a * (1 / a) == 1
    assert (a / a) == 1
    b = a / 2
    assert b + b == a


def test_inverse_of_zero_raises():
    zero = Cyclotomic(3, [0, 0])
    with pytest.raises(ZeroDivisionError):
        zero.inverse()
    with pytest.raises(ZeroDivisionError):
        1 / zero
    with pytest.raises(ZeroDivisionError):
        zeta(3) / zero


def test_inverse_of_zero_raises_under_optimize():
    """The check is no assert, so python -O keeps it."""
    code = (
        "from syzlab.cyclo import Cyclotomic\n"
        "try:\n"
        "    print(1 / Cyclotomic(3, [0, 0]))\n"
        "except ZeroDivisionError:\n"
        "    print('ZeroDivisionError')\n"
    )
    paths = [str(Path(__file__).resolve().parent.parent / "src")]
    paths += [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(paths))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "ZeroDivisionError\n"


def test_wire_encoding_roundtrip():
    vals = [Fraction(3, 7), Fraction(-2), zeta(5), 1 + zeta(8) / 3, zeta(3) - zeta(4)]
    for v in vals:
        assert decode_scalar(encode_scalar(v)) == v
    assert decode_scalar([3, 4]) == Fraction(3, 4)
    assert decode_scalar(5) == Fraction(5)
    with pytest.raises(InvalidInput):
        decode_scalar([1, 0])
    with pytest.raises(InvalidInput):
        decode_scalar({"conductor": 4, "coeffs": [[1, 1]]})
    with pytest.raises(InvalidInput):
        decode_scalar("x")
    # a coefficient is a rational, never another cyclotomic number
    nested = {"conductor": 3, "coeffs": [encode_scalar(zeta(3)), [0, 1]]}
    with pytest.raises(InvalidInput):
        decode_scalar(nested)


def test_scalar_key_identifies_equal_values():
    assert scalar_key(zeta(4) ** 2) == scalar_key(Fraction(-1))
    assert scalar_key(zeta(3)) != scalar_key(zeta(3) ** 2)


def test_bit_size():
    assert bit_size(Fraction(0)) == 1
    assert bit_size(zeta(3)) > 0


small_scalars = st.builds(
    lambda n, c, num, den: Fraction(num, den) if c == 1 else sum(
        (Fraction((num * (i + 1)) % 5 - 2, den) * zeta(n) ** i for i in range(totient(n))),
        Fraction(0),
    ),
    st.sampled_from([3, 4, 5, 6, 8, 12]),
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=-6, max_value=6),
    st.integers(min_value=1, max_value=4),
)


@settings(max_examples=60, deadline=None)
@given(small_scalars, small_scalars, small_scalars)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if a != 0:
        assert a * (1 / a) == 1


# -- integral coefficients ---------------------------------------------------------


@st.composite
def integral_elements(draw):
    """(conductor, int coefficients) of an element of Z[zeta_N]."""
    n = draw(st.sampled_from([3, 4, 5, 8, 12]))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=totient(n), max_size=totient(n)))
    return n, coeffs


def _embed(x):
    """x as a complex number, zeta_N taken as exp(2 pi i / N)."""
    if isinstance(x, Cyclotomic):
        z = cmath.exp(2j * cmath.pi / x.conductor)
        return sum(float(c) * z**i for i, c in enumerate(x.coeffs))
    return complex(float(x))


def _int_coefficients(x):
    if isinstance(x, Cyclotomic):
        return all(type(c) is int for c in x.coeffs)
    return type(x) is int


@settings(max_examples=80, deadline=None)
@given(integral_elements(), integral_elements())
def test_integral_operands_keep_int_coefficients(p, q):
    (n, a), (m, b) = p, q
    x, y = Cyclotomic(n, a), Cyclotomic(m, b)
    xf = Cyclotomic(n, [Fraction(c) for c in a])
    yf = Cyclotomic(m, [Fraction(c) for c in b])
    for op in (
        lambda u, v: u + v,
        lambda u, v: u - v,
        lambda u, v: u * v,
        lambda u, v: u * 3 - v,
    ):
        r = op(x, y)
        assert _int_coefficients(r)
        assert r == op(xf, yf)
        assert encode_scalar(r) == encode_scalar(op(xf, yf))
        assert abs(_embed(r) - op(_embed(x), _embed(y))) < 1e-6


@st.composite
def same_conductor_pairs(draw):
    """Two elements of one Q(zeta_N), their coefficients all ints or all
    Fractions."""
    n = draw(st.sampled_from([3, 4, 5, 8, 12]))
    den = draw(st.sampled_from([None, 2, 3, 6]))
    coeffs = st.lists(st.integers(-9, 9), min_size=totient(n), max_size=totient(n))

    def element(cs):
        return Cyclotomic(n, cs if den is None else [Fraction(c, den) for c in cs])

    return element(draw(coeffs)), element(draw(coeffs))


@settings(max_examples=120, deadline=None)
@given(same_conductor_pairs())
def test_same_conductor_kernel_matches_the_lifted_one(pair):
    """Same-conductor products, sums and differences run on the stored
    coefficients through the conductor's power table; lifted to 2N they
    take the table of 2N. Both must agree, and agree with C."""
    x, y = pair
    n = x.conductor
    lx, ly = (Cyclotomic._normalized(2 * n, v.lift(2 * n)) for v in (x, y))
    for op in (lambda u, v: u * v, lambda u, v: u + v, lambda u, v: u - v):
        r = op(x, y)
        lifted = op(lx, ly)
        assert r == lifted
        if isinstance(r, Cyclotomic):
            assert r.conductor == n
            assert all(type(c) is int or c.denominator != 1 for c in r.coeffs)
        assert abs(_embed(r) - op(_embed(x), _embed(y))) < 1e-6
        assert abs(_embed(lifted) - _embed(r)) < 1e-6


@settings(max_examples=80, deadline=None)
@given(integral_elements())
def test_int_and_fraction_coefficients_encode_alike(p):
    n, a = p
    x, xf = Cyclotomic(n, a), Cyclotomic(n, [Fraction(c) for c in a])
    assert all(type(c) is int for c in x.coeffs)
    assert scalar_key(x) == scalar_key(xf)
    assert encode_scalar(x) == encode_scalar(xf)
    assert bit_size(x) == bit_size(xf)
    # the sizes and encodings of the Fraction coefficients themselves
    fracs = [Fraction(c) for c in a]
    assert bit_size(x) == sum(
        c.numerator.bit_length() + c.denominator.bit_length() for c in fracs
    )
    if any(a[1:]):
        assert scalar_key(x) == (n, tuple((c, 1) for c in a))
        assert encode_scalar(x) == {"conductor": n, "coeffs": [[c, 1] for c in a]}


@settings(max_examples=40, deadline=None)
@given(integral_elements(), st.integers(-9, 9))
def test_rational_values_are_demoted(p, k):
    """A rational result is an int when integral and a Fraction otherwise,
    as is the rational value of a hand-built rational instance."""
    n, a = p
    hand_built = Cyclotomic(n, [k] + [0] * (totient(n) - 1))
    assert type(as_rational(hand_built)) is int
    assert as_rational(hand_built) == k
    halves = Cyclotomic(n, [Fraction(k, 2)] + [0] * (totient(n) - 1))
    assert type(as_rational(halves)) is (int if k % 2 == 0 else Fraction)
    x = Cyclotomic(n, a)
    for r in (x - x, x * 0, (x + 1) - x):
        assert type(r) is int
        assert type(as_rational(r)) is int
    r = (x + Fraction(1, 3)) - x
    assert type(r) is Fraction and type(as_rational(r)) is Fraction


def test_mixed_int_and_fraction_coefficients():
    x = Cyclotomic(5, [Fraction(1, 2), 2, Fraction(4, 2), 0])
    assert [type(c) for c in x.coeffs] == [Fraction, int, int, int]
    y = x + x
    assert all(type(c) is int for c in y.coeffs)
    assert y == Cyclotomic(5, [1, 4, 4, 0])
    assert encode_scalar(x)["coeffs"] == [[1, 2], [2, 1], [2, 1], [0, 1]]


# -- the scalar convention on the wire ---------------------------------------------


@settings(max_examples=200, deadline=None)
@given(st.integers(-60, 60), st.integers(1, 12))
def test_decoded_rationals_are_ints_exactly_when_integral(num, den):
    q = Fraction(num, den)
    for enc in ([num, den], num):
        x = decode_scalar(enc)
        want = q if isinstance(enc, list) else Fraction(num)
        assert x == want
        assert type(x) is (int if want.denominator == 1 else Fraction)
        # the keys and bytes of the Fraction the wire used to decode to
        assert scalar_key(x) == (want.numerator, want.denominator)
        assert encode_scalar(x) == [want.numerator, want.denominator]


@settings(max_examples=80, deadline=None)
@given(integral_elements(), st.integers(1, 4))
def test_decoded_cyclotomic_coefficients_follow_the_convention(p, den):
    n, a = p
    want = [Fraction(c, den) for c in a]
    x = decode_scalar({"conductor": n, "coeffs": [[c, den] for c in a]})
    if any(want[1:]):
        assert type(x) is Cyclotomic and x.conductor == n
        assert [type(c) for c in x.coeffs] == [
            int if w.denominator == 1 else Fraction for w in want
        ]
        assert list(x.coeffs) == want
        assert encode_scalar(x) == {
            "conductor": n,
            "coeffs": [[w.numerator, w.denominator] for w in want],
        }
    else:
        assert type(x) is (int if want[0].denominator == 1 else Fraction)
        assert x == want[0]
        assert encode_scalar(x) == [want[0].numerator, want[0].denominator]


def test_roots_of_unity_of_order_one_and_two_are_ints():
    assert type(zeta(1)) is int and zeta(1) == 1
    assert type(zeta(2)) is int and zeta(2) == -1
    z4 = zeta(4)
    assert type(z4**4) is int and type(z4**2) is int and z4**2 == -1
    assert type(z4 * 0) is int
