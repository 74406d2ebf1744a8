"""Monomials, the packed monomial key and sparse polynomial arithmetic.

Monomials are enumerated as exponent tuples, each degree in descending lex
order; the graded order is (degree, position in that list). Polynomials
are dicts packed key -> scalar with no explicit zeros. A packed key holds
exponent j in a field of _EXP_BITS bits, variable 0 most significant: a
product of monomials is the sum of their keys, and descending key order is
descending lex order. Callers refuse degrees of _DEGREE_LIMIT and up, whose
exponents can overflow a field, before they multiply.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from itertools import accumulate
from math import comb

_EXP_BITS = 16  # the struct format "H": one unsigned 16-bit field
_DEGREE_LIMIT = 1 << _EXP_BITS


@lru_cache(maxsize=None)
def monomials(nvars: int, degree: int):
    """All exponent tuples of the given total degree, descending lex."""
    if nvars == 0:
        return ((),) if degree == 0 else ()
    if nvars == 1:
        return ((degree,),)
    out = []
    for e in range(degree, -1, -1):
        for rest in monomials(nvars - 1, degree - e):
            out.append((e,) + rest)
    return tuple(out)


def monomial_count(nvars: int, degree: int) -> int:
    if nvars == 0:
        return 1 if degree == 0 else 0
    return comb(nvars + degree - 1, degree)


def subsets_of_degree(degrees: list, n: int, total: int):
    """The n-subsets of positions into the nondecreasing `degrees` of degree
    sum `total`: increasing position tuples in lex order, generated lazily."""
    prefix = [0, *accumulate(degrees)]
    size = len(degrees)

    def subsets(i: int, k: int, rest: int):
        if not k:
            if not rest:
                yield ()
            return
        if prefix[size] - prefix[size - k] < rest:
            return  # even the k largest degrees fall short
        for j in range(i, size - k + 1):
            if prefix[j + k] - prefix[j] > rest:
                return  # the k smallest from j on already exceed it
            for tail in subsets(j + 1, k - 1, rest - degrees[j]):
                yield (j,) + tail

    if n <= size:
        yield from subsets(0, n, total)


@lru_cache(maxsize=None)
def _layout(nvars: int) -> struct.Struct:
    return struct.Struct(f">{nvars}H")


def pack(mono: tuple) -> int:
    """The packed key of an exponent tuple; each exponent below 2^_EXP_BITS."""
    return int.from_bytes(_layout(len(mono)).pack(*mono), "big")


def unpack(key: int, nvars: int) -> tuple:
    """The exponent tuple of a packed key over `nvars` variables."""
    return _layout(nvars).unpack(key.to_bytes(nvars * _EXP_BITS // 8, "big"))


def poly_mul(p: dict, q: dict) -> dict:
    if len(q) == 1:
        # times a term: distinct keys stay distinct and no product vanishes
        ((mb, cb),) = q.items()
        return {ma + mb: ca * cb for ma, ca in p.items()}
    out: dict = {}
    get = out.get
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = ma + mb
            c = get(m, 0) + ca * cb
            if c:
                out[m] = c
            else:
                out.pop(m, None)
    return out


def poly_add_into(acc: dict, p: dict, coeff=1) -> None:
    for m, c in p.items():
        v = acc.get(m, 0) + coeff * c
        if v:
            acc[m] = v
        else:
            acc.pop(m, None)
