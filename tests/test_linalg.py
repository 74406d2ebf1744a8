import random
from fractions import Fraction

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab.linalg import Matrix, _forward, pivot_columns, rank, reduced_rows
from syzlab.cyclo import Cyclotomic, zeta

from oracles import mat_mul, row_reduce, row_reduce_rank


def M(rows):
    return Matrix.from_rows([[Fraction(x) for x in r] for r in rows])


def transpose(m: Matrix) -> Matrix:
    return Matrix(m.cols, m.rows, list(zip(*m.data)) if m.data else [[] for _ in range(m.cols)])


def rref(m: Matrix):
    """(R, pivot columns, rank): the dense reduced row echelon form rebuilt
    from the kernel's sparse reduced rows, zero rows below."""
    echelon = reduced_rows([dict(r) for r in m.entries], m.cols)
    data = [[0] * m.cols for _ in range(m.rows)]
    for out, (_, row) in zip(data, echelon):
        for k, v in row.items():
            out[k] = v
    return Matrix(m.rows, m.cols, data), tuple(c for c, _ in echelon), len(echelon)


def column_echelon_basis(m: Matrix) -> Matrix:
    """Canonical basis of the column space (reduced echelon by rows)."""
    echelon = reduced_rows([dict(r) for r in transpose(m).entries], m.rows)
    return Matrix(m.rows, len(echelon), [[row.get(i, 0) for _, row in echelon] for i in range(m.rows)])


def kernel_basis(m: Matrix) -> Matrix:
    """Null-space basis as columns, read off the reduced row echelon form."""
    red, pivots, _ = rref(m)
    free = [c for c in range(m.cols) if c not in pivots]
    rows = [[Fraction(0)] * len(free) for _ in range(m.cols)]
    for k, f in enumerate(free):
        rows[f][k] = Fraction(1)
        for t, c in enumerate(pivots):
            rows[c][k] = -red.at(t, f)
    return Matrix(m.cols, len(free), rows)


def test_rref_rank_one():
    red, pivots, rk = rref(M([[1, 2], [2, 4]]))
    assert rk == 1
    assert pivots == (0,)
    assert red == M([[1, 2], [0, 0]])


def test_rref_identity_fixed():
    i3 = Matrix.identity(3)
    red, pivots, rk = rref(i3)
    assert red == i3 and rk == 3 and pivots == (0, 1, 2)


def test_rref_swap():
    red, pivots, rk = rref(M([[0, 1], [1, 0]]))
    assert red == Matrix.identity(2)
    assert rk == 2


def test_rref_idempotent():
    m = M([[2, 4, 1], [3, 1, 0], [5, 5, 1]])
    red, _, _ = rref(m)
    red2, _, _ = rref(red)
    assert red == red2


def test_kernel_basis_examples():
    k = kernel_basis(M([[1, 2], [2, 4]]))
    assert k.cols == 1
    # proportional to (-2, 1)
    assert k.at(0, 0) * 1 == -2 * k.at(1, 0)
    assert kernel_basis(Matrix.identity(4)).cols == 0
    assert kernel_basis(M([[0] * 3] * 2)).cols == 3


def test_kernel_is_annihilated():
    m = M([[1, 2, 3], [4, 5, 6]])
    k = kernel_basis(m)
    assert (m @ k).is_zero()
    assert m.cols == rank(m) + k.cols


def test_image_dim():
    assert rank(M([[1, 2], [2, 4]])) == 1
    assert rank(M([[0] * 3] * 3)) == 0


def test_column_echelon_basis_canonical():
    m = M([[2, 4], [4, 8], [2, 5]])
    b = column_echelon_basis(m)
    assert b.cols == 2
    # same column space regardless of generating columns
    b2 = column_echelon_basis(M([[2, 6], [4, 12], [3, 7]]))
    assert b == b2


def test_cyclotomic_entries():
    z = zeta(4)
    m = Matrix.from_rows([[z, 1], [1, -z]])
    # second row is -z times the first
    assert rank(m) == 1
    k = kernel_basis(m)
    assert k.cols == 1
    assert (m @ k).is_zero()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=8),
    st.data(),
)
def test_rank_equals_transpose_rank(r, c, data):
    rows = [
        [Fraction(data.draw(st.integers(-3, 3)), data.draw(st.integers(1, 3))) for _ in range(c)]
        for _ in range(r)
    ]
    m = Matrix.from_rows(rows)
    assert rank(m) == rank(transpose(m))
    k = kernel_basis(m)
    assert m.cols == rank(m) + k.cols
    assert (m @ k).is_zero()


# -- the elimination kernel against the textbook oracle -----------------------

Z3, Z4 = zeta(3), zeta(4)

ints = st.integers(-4, 4)
fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(2, 5))
rationals = st.one_of(ints, fractions)
q_zeta3 = st.builds(lambda a, b: a + b * Z3, rationals, rationals)
q_zeta4 = st.builds(lambda a, b: a + b * Z4, rationals, rationals)
FIELDS = {
    "int": ints,
    "fraction": fractions,
    "zeta3": q_zeta3,
    "zeta4": q_zeta4,
    "mixed": st.one_of(ints, fractions, q_zeta3, q_zeta4),
}


@st.composite
def sparse_matrices(draw, max_rows=6, max_cols=6):
    """Random sparse matrices, empty shapes included, over one field."""
    entries = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    r = draw(st.integers(0, max_rows))
    c = draw(st.integers(0, max_cols))
    zero = st.just(0)
    cell = st.one_of(zero, zero, entries)
    return Matrix(r, c, [[draw(cell) for _ in range(c)] for _ in range(r)])


@st.composite
def product_pairs(draw, max_dim=5):
    """(A, B) with A.cols == B.rows over one field, sparse (stored zeros,
    int and Fraction) or dense, empty shapes included."""
    entries = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    sparse = st.one_of(st.just(0), st.just(Fraction(0)), entries)
    cell = draw(st.sampled_from((sparse, entries)))
    r, k, c = (draw(st.integers(0, max_dim)) for _ in range(3))
    a = Matrix(r, k, [[draw(cell) for _ in range(k)] for _ in range(r)])
    b = Matrix(k, c, [[draw(cell) for _ in range(c)] for _ in range(k)])
    return a, b


def assert_stored_form(m: Matrix):
    """The one matrix format: a {column: nonzero} dict per row, columns
    increasing and in range, no zero stored and integral values as int."""
    assert len(m.entries) == m.rows
    for row in m.entries:
        assert list(row) == sorted(row) and all(0 <= j < m.cols for j in row)
        assert all(x and not (type(x) is Fraction and x.denominator == 1) for x in row.values())


@settings(max_examples=200, deadline=None)
@given(product_pairs())
def test_product_matches_oracle(pair):
    """The product keeps the stored form, whose dense view `data` matches
    the oracle's product of the factors' views."""
    a, b = pair
    prod = a @ b
    for m in (a, b, prod):
        assert_stored_form(m)
    want = mat_mul([list(r) for r in a.data], [list(r) for r in b.data], b.cols)
    assert (prod.rows, prod.cols) == (a.rows, b.cols) and len(want) == a.rows
    for row, want_row in zip(prod.data, want):
        for x, y in zip(row, want_row, strict=True):
            assert x == y
            # the scalar convention: an int when integral, a Fraction for
            # another rational, a Cyclotomic when irrational
            if isinstance(y, Cyclotomic):
                assert type(x) is Cyclotomic
            else:
                assert type(x) is (int if y == int(y) else Fraction)


def oracle_rank(m: Matrix) -> int:
    return row_reduce_rank(m.data)


def assert_reduced_echelon(red: Matrix, pivots, rk):
    assert all(type(x) in (int, Fraction, Cyclotomic) for r in red.data for x in r)
    assert len(pivots) == rk and list(pivots) == sorted(set(pivots))
    for t, c in enumerate(pivots):
        assert red.at(t, c) == 1
        assert not any(red.at(t, j) for j in range(c))
        assert not any(red.at(i, c) for i in range(red.rows) if i != t)
    assert not any(x for r in red.data[rk:] for x in r)


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_kernel_matches_oracle(m):
    rk = rank(m)
    assert rk == oracle_rank(m)
    red, pivots, rk2 = rref(m)
    assert rk2 == rk
    assert pivot_columns([dict(r) for r in m.entries], m.cols) == pivots
    assert (red.rows, red.cols) == (m.rows, m.cols)
    assert_reduced_echelon(red, pivots, rk)
    assert rref(red) == (red, pivots, rk)
    k = kernel_basis(m)
    assert k.cols == m.cols - rk
    assert (m @ k).is_zero()
    if all(type(x) is int for r in m.data for x in r):
        echelon = _forward([dict(r) for r in m.entries], m.cols)
        assert all(type(v) is int for _, row in echelon for v in row.values())


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(max_rows=4, max_cols=5), st.data())
def test_rref_is_canonical(m, data):
    """Two generating sets of one row space give the same R and pivots."""
    entries = FIELDS["mixed"]
    nonzero = entries.filter(bool)
    gens = []
    for r in data.draw(st.permutations(m.data)):
        scale = data.draw(nonzero)
        gens.append([scale * x for x in r])
    for _ in range(data.draw(st.integers(0, 3))):
        coeffs = [data.draw(entries) for _ in m.data]
        gens.append([sum((a * r[j] for a, r in zip(coeffs, m.data)), Fraction(0)) for j in range(m.cols)])
    gens.append([0] * m.cols)
    red, pivots, rk = rref(m)
    red2, pivots2, rk2 = rref(Matrix(len(gens), m.cols, gens))
    assert (pivots2, rk2) == (pivots, rk)
    assert red2.data[:rk] == red.data[:rk]


def test_forward_pivot_prefers_shorter_row():
    # both candidates have bit-size 1; the shorter row limits fill-in
    echelon = _forward([{0: 1, 1: 1, 2: 1, 3: 1}, {0: 1, 3: 2}], 4)
    assert echelon[0] == (0, {0: 1, 3: 2})


def test_forward_is_fraction_free():
    # the pivot 2 is not scaled; 2*row - 3*pivot_row = {1: -2} is divided
    # by its content
    echelon = _forward([{0: 2, 1: 4}, {0: 3, 1: 5}], 2)
    assert echelon == [(0, {0: 2, 1: 4}), (1, {1: -1})]
    assert all(type(v) is int for _, row in echelon for v in row.values())


def banded(pivots, cols, step, seed):
    """A sparse banded integer matrix: row i has pivots[i] in column i and
    step(i, c) at offsets 1, 3 and 17 from it; each tenth row also adds
    the row before, so the forward pass eliminates as well."""
    rng = random.Random(seed)
    rows = []
    for i, p in enumerate(pivots):
        row = [0] * cols
        row[i] = p
        for j in (i + 1, i + 3, i + 17):
            if j < cols:
                row[j] = step(p, rng.randint(-3, 3))
        if i % 10 == 9:
            row = [a + b for a, b in zip(row, rows[-1])]
        rows.append(row)
    return Matrix(len(rows), cols, rows)


@pytest.mark.parametrize(
    "cycle, step, all_int",
    [((1, -2, 2), lambda p, r: p * r, True), ((1, -1, 2, 3, -3), lambda p, r: r, False)],
    ids=["pivot-divides-row", "fractions"],
)
def test_reduced_rows_of_banded_integer_matrix(cycle, step, all_int):
    """Back-substitution clears only the pivot columns each row holds; the
    result is still the oracle's, and integral entries stay int."""
    m = banded([cycle[i % len(cycle)] for i in range(60)], 90, step, seed=11)
    red, pivots, rk = rref(m)
    want, want_rk = row_reduce(m.data)
    assert rk == want_rk >= 50 and len(pivots) == rk
    assert red.data[:rk] == tuple(tuple(r) for r in want[:rk])
    entries = [x for r in red.data[:rk] for x in r]
    assert all(type(x) is (int if Fraction(x).denominator == 1 else Fraction) for x in entries)
    assert all(type(x) is int for x in entries) is all_int


def test_empty_shapes():
    for m in (Matrix(0, 4, []), Matrix(3, 0, [[]] * 3), Matrix(0, 0, []), M([[0] * 5] * 2)):
        assert rank(m) == 0
        assert rref(m) == (m, (), 0)
        assert kernel_basis(m).cols == m.cols


def test_irrational_pivot_candidates_only():
    # every candidate in column 0 is irrational: zeta3, zeta3^2, 1 + zeta3
    m = Matrix.from_rows([[Z3, 1, 0], [Z3 * Z3, Z3, 1], [1 + Z3, 0, Z4]])
    assert rank(m) == oracle_rank(m) == 3
    red, pivots, rk = rref(m)
    assert red == Matrix.identity(3) and pivots == (0, 1, 2)
    singular = Matrix.from_rows([[Z3, Z3 * Z4], [Z3 * Z3, Z3 * Z3 * Z4], [1 + Z3, 0]])
    assert rank(singular) == oracle_rank(singular) == 2
    k = kernel_basis(transpose(singular))
    assert k.cols == 1 and (transpose(singular) @ k).is_zero()


@pytest.mark.parametrize(
    "a, b",
    [
        ([[1, -1]], [[1], [1]]),  # cancels to zero, as d_p d_(p+1) does
        ([[2, 0, 3], [0, 0, 0], [1, -1, 0]], [[1, -1], [4, 0], [0, 5]]),
    ],
    ids=["cancelling", "nonzero"],
)
def test_integer_product_entries_are_ints(a, b):
    """Int factors accumulate in int; every entry of the product, zero or
    not, is an int with the oracle's value."""
    prod = Matrix.from_rows(a) @ Matrix.from_rows(b)
    want = mat_mul(a, b, len(b[0]))
    assert [list(r) for r in prod.data] == want
    assert all(type(x) is int for r in prod.data for x in r)
