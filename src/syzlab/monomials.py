"""Monomial bases and sparse polynomial arithmetic.

Monomials are exponent tuples. Within a fixed degree the canonical order is
descending lexicographic on the exponent tuple, so the global graded
lexicographic order is (degree, then position in that list). Polynomials
are dicts exponent-tuple -> scalar with no explicit zeros.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb
from operator import add


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


def mono_mul(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            m = mono_mul(ma, mb)
            c = out.get(m, 0) + ca * cb
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


def matrix_columns_sparse(mat):
    """Per-column sparse view [(row, scalar), ...] of a linalg.Matrix."""
    cols = []
    for j in range(mat.cols):
        col = [(i, mat.at(i, j)) for i in range(mat.rows) if mat.at(i, j)]
        cols.append(col)
    return cols
