"""Packed monomial keys against exponent tuples."""

from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab.monomials import pack, poly_mul, unpack

from oracles import tuple_poly_mul

FIELD = 1 << 16  # one exponent field holds 0..FIELD-1


def exponent_tuples(nvars, top):
    return st.tuples(*[st.integers(0, top)] * nvars)


def polys(nvars):
    """Polynomials with exponents below FIELD / 2, so that no exponent of a
    product overflows; small exponents make terms collide and cancel."""
    exponents = st.one_of(st.integers(0, 2), st.integers(0, FIELD // 2 - 1))
    coeffs = st.one_of(st.integers(-2, 2), st.fractions(-2, 2, max_denominator=3)).filter(bool)
    return st.dictionaries(st.tuples(*[exponents] * nvars), coeffs, min_size=1, max_size=5)


@given(st.integers(0, 6).flatmap(lambda n: exponent_tuples(n, FIELD - 1)))
def test_pack_round_trips(mono):
    assert unpack(pack(mono), len(mono)) == mono


@given(st.integers(1, 6).flatmap(lambda n: st.tuples(*[exponent_tuples(n, FIELD - 1)] * 2)))
def test_packed_order_is_lex_order(pair):
    a, b = pair
    assert (pack(a) < pack(b)) == (a < b)
    assert (pack(a) == pack(b)) == (a == b)


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(st.just(n), polys(n), polys(n))))
def test_packed_product_matches_tuple_oracle(case):
    n, p, q = case
    product = poly_mul({pack(m): c for m, c in p.items()}, {pack(m): c for m, c in q.items()})
    assert {unpack(m, n): c for m, c in product.items()} == tuple_poly_mul(p, q)
