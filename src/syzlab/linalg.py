"""Exact linear algebra over the scalar field.

Entries follow the scalar convention of `cyclo`: ints when integral,
Fractions for other rationals, Cyclotomics for irrational values; any
mix works because the scalars coerce through their operators. There is
one matrix format, the elimination kernel's: a `Matrix` holds its rows
as {column: nonzero} dicts with integral values as int, so it costs its
nonzeros, and `data`, the dense view, is built only when read. The
product walks the nonzeros of both factors and keeps the convention, so
a product of integer matrices is computed and stored in ints. In the one
elimination kernel, over such rows, each column's pivot is the candidate
of smallest (bit-size of its entry, row length): the entry size controls
growth and the length limits fill-in. Pivots are not scaled, and only
the rows holding a nonzero in the pivot column are updated, by
row := a*row - b*pivot_row. For two int entries a and b are coprime
integers and an all-int result is divided by its content, so integer
rows stay integer and primitive (fraction-free); otherwise a = 1 and b
uses the pivot's inverse, computed once per pivot. `rank` eliminates a copy of
its `Matrix`'s rows, and `pivot_columns` takes sparse rows; both stop
after that forward pass: the pivot columns are the positions at which
some vector of the row space has its first nonzero entry. `reduced_rows`
takes sparse rows too and finishes the echelon rows last pivot first:
each is scaled to a unit pivot and cleared only in the pivot columns it
holds, against rows already finished, so no row is visited for a pivot
it does not hold. That gives the reduced row echelon form. It is
canonical, so the pivot choice affects cost, never results.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .cyclo import _int_if_integral, bit_size
from .errors import InvalidInput


class Matrix:
    """Immutable matrix of sparse rows: `entries[i]` is row i as a
    {column: nonzero} dict, columns increasing, integral values as int and
    no zero stored. The constructor takes dense row-major data,
    `from_entries` rows already in that form; no one mutates them."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, data):
        self.rows, self.cols = rows, cols
        if len(data) != rows or any(len(r) != cols for r in data):
            raise InvalidInput("matrix shape does not match data")
        self.entries = [{j: _int_if_integral(x) for j, x in enumerate(r) if x} for r in data]

    @staticmethod
    def from_entries(rows: int, cols: int, entries) -> "Matrix":
        m = Matrix.__new__(Matrix)
        m.rows, m.cols, m.entries = rows, cols, entries
        return m

    @staticmethod
    def from_rows(rows) -> "Matrix":
        data = [list(r) for r in rows]
        return Matrix(len(data), len(data[0]) if data else 0, data)

    @staticmethod
    def identity(n: int) -> "Matrix":
        return Matrix.from_entries(n, n, [{i: 1} for i in range(n)])

    @property
    def data(self) -> tuple:
        """The dense row-major view, built on each read."""
        cols = range(self.cols)
        return tuple(tuple(row.get(j, 0) for j in cols) for row in self.entries)

    def at(self, i: int, j: int):
        return self.entries[i].get(j, 0)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise InvalidInput("matmul dimension mismatch")
        # each entry starts at int 0 and takes its terms in increasing k; a
        # Fraction sum that ends integral is demoted to int
        right = other.entries
        out = []
        for r in self.entries:
            acc: dict = {}
            get = acc.get
            for k, a in r.items():
                for j, b in right[k].items():
                    acc[j] = get(j, 0) + a * b
            out.append({j: _int_if_integral(x) for j in sorted(acc) if (x := acc[j])})
        return Matrix.from_entries(self.rows, other.cols, out)

    def scale(self, c) -> "Matrix":
        out = [{j: _int_if_integral(x) for j, v in r.items() if (x := c * v)} for r in self.entries]
        return Matrix.from_entries(self.rows, self.cols, out)

    def is_zero(self) -> bool:
        return not any(self.entries)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows, self.cols) == (other.rows, other.cols) and self.entries == other.entries

    __hash__ = None

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols})"


def _clear(row: dict, pivot_row: dict, c: int, inv) -> None:
    """row := a*row - b*pivot_row in place, which removes row[c]; `inv` is
    1 / pivot_row[c]. When row[c] and the pivot are both ints, a and b are
    the coprime integers pivot/g and row[c]/g (g their gcd), and a row left
    with int entries only is divided by their gcd; otherwise a = 1 and
    b = row[c] * inv."""
    f, piv = row[c], pivot_row[c]
    integral = type(f) is int and type(piv) is int
    if integral:
        g = gcd(piv, f)
        a, b = piv // g, f // g
        if a != 1:
            for k, v in row.items():
                row[k] = a * v if type(v) is int else _int_if_integral(a * v)
    else:
        b = f * inv
    get = row.get
    for k, v in pivot_row.items():
        x = get(k, 0) - b * v
        if x:
            row[k] = x if type(x) is int else _int_if_integral(x)
        else:
            del row[k]
    if integral and row:
        try:
            g = gcd(*row.values())
        except TypeError:  # math.gcd takes ints only: the row holds another scalar
            return
        if g != 1:
            for k, v in row.items():
                row[k] = v // g


def _inverse(piv):
    return Fraction(1, piv) if type(piv) is int else 1 / piv


def _forward(rows, ncols: int):
    """Row echelon form by fraction-free sparse elimination: [(pivot
    column, row)] in increasing column order, each row a {column: nonzero}
    dict with no entry left of its pivot, which is not scaled. The input
    rows are updated in place."""
    # rows waiting for a pivot, bucketed by their leading column; every
    # such row has a nonzero there and none before it
    waiting: dict = {}
    for row in rows:
        if row:
            waiting.setdefault(min(row), []).append(row)
    echelon = []
    for c in range(ncols):
        bucket = waiting.pop(c, None)
        if bucket is None:
            continue
        if len(bucket) == 1:
            pivot_row = bucket[0]
        else:
            best = min(range(len(bucket)), key=lambda i: (bit_size(bucket[i][c]), len(bucket[i])))
            pivot_row = bucket.pop(best)
            inv = _inverse(pivot_row[c])
            for row in bucket:
                _clear(row, pivot_row, c, inv)
                if row:
                    waiting.setdefault(min(row), []).append(row)
        echelon.append((c, pivot_row))
    return echelon


def reduced_rows(rows, ncols: int) -> list:
    """Reduced row echelon form of sparse rows over columns 0..ncols-1.

    `rows` are {column: nonzero} dicts with integral values as int; they
    are consumed. Returns the nonzero rows of the canonical form as
    [(pivot column, row dict)], pivots increasing and each pivot entry 1.
    Echelon rows are finished last pivot first: each is scaled to a unit
    pivot (by exact division when its int pivot divides every entry),
    then only the pivot columns it holds are cleared against the rows
    already finished, which hold no other pivot column.
    """
    echelon = _forward(rows, ncols)
    done: dict = {}  # pivot column -> finished row
    for t in range(len(echelon) - 1, -1, -1):
        c, row = echelon[t]
        piv = row[c]
        if piv != 1:
            if type(piv) is int and all(type(v) is int and not v % piv for v in row.values()):
                row = {k: v // piv for k, v in row.items()}
            else:
                inv = _inverse(piv)
                row = {k: _int_if_integral(v * inv) for k, v in row.items()}
        get = row.get
        for k in sorted((k for k in row if k in done), reverse=True):
            f = row[k]
            for j, v in done[k].items():
                x = get(j, 0) - f * v
                if x:
                    row[j] = x if type(x) is int else _int_if_integral(x)
                else:
                    del row[j]
        done[c] = row
        echelon[t] = (c, row)
    return echelon


def rank(m: Matrix) -> int:
    return len(_forward([dict(r) for r in m.entries], m.cols))


def pivot_columns(rows, ncols: int) -> tuple:
    """Pivot columns of the row echelon form of sparse rows over columns
    0..ncols-1, increasing. The rows are {column: nonzero} dicts with
    integral values as int; they are consumed."""
    return tuple(c for c, _ in _forward(rows, ncols))
