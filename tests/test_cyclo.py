from fractions import Fraction

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
    assert isinstance(s, Fraction)
    assert s == -1
    assert not (z5 - z5)


def test_division_and_inverse():
    z7 = zeta(7)
    a = 2 - 3 * z7 + z7**4
    assert a * (1 / a) == 1
    assert (a / a) == 1
    b = a / 2
    assert b + b == a


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
