"""Independent brute-force oracles for the test suite.

Deliberately shares no code with the library: its own monomial enumeration
(via combinations_with_replacement), its own textbook Gaussian elimination
over Fractions, a dense Reynolds operator on symmetric powers built from
plain lists, a greedy generator selection in polynomial space, direct
construction of the Koszul complex for Veronese invariant rings, where
invariance is just a degree-divisibility condition, Koszul chain bases
listed subset by subset from a ring's whole-degree blocks (the ring's
`blocks` is their only input from the library), and a Molien series
computed from power sums with Fractions only. Semistandard (skew) tableaux
are counted by trying every filling of the cells, and dominance is read off
partial sums.
"""

import importlib.util
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, combinations_with_replacement, product
from math import gcd, lcm
from pathlib import Path


def benchmark_workloads():
    """The benchmark's workload module, loaded from its file: its problem
    documents are test inputs too."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def monos(nvars, d):
    out = set()
    for combo in combinations_with_replacement(range(nvars), d):
        e = [0] * nvars
        for i in combo:
            e[i] += 1
        out.add(tuple(e))
    return sorted(out)


def tuple_poly_mul(p, q):
    """Product of two polynomials keyed by exponent tuples, term by term,
    vanishing coefficients dropped."""
    prod = {}
    for mx, cx in p.items():
        for my, cy in q.items():
            m = tuple(i + j for i, j in zip(mx, my))
            prod[m] = prod.get(m, 0) + cx * cy
    return {m: c for m, c in prod.items() if c}


def mat_mul(a, b, cols):
    """Product of an r x k and a k x cols matrix given as lists of rows, by
    the textbook triple loop over every index."""
    return [
        [sum((row[k] * b[k][j] for k in range(len(row))), 0) for j in range(cols)]
        for row in a
    ]


def row_reduce(rows):
    """(reduced row echelon form, rank) by textbook Gauss-Jordan. Int
    entries and pivots become Fractions, so every division is exact: a
    cyclotomic difference with a rational integer value is an int."""
    rows = [[Fraction(x) if type(x) is int else x for x in r] for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for c in range(ncols):
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        pv = rows[rank][c]
        if type(pv) is int:
            pv = Fraction(pv)
        rows[rank] = [x / pv for x in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        rank += 1
    return rows, rank


def row_reduce_rank(rows):
    return row_reduce(rows)[1]


def column_echelon_basis(matrix):
    """Canonical basis of the column space of a square matrix (list of
    rows): the nonzero rows of the reduced echelon form of its transpose."""
    red, rank = row_reduce([list(c) for c in zip(*matrix)])
    return red[:rank]


def sym_power_basis(nvars, d):
    """The monomial order of sym_power_action: descending lexicographic."""
    return monos(nvars, d)[::-1]


def sym_power_action(images, d):
    """Matrices (lists of rows) of the degree-d symmetric power of each
    square matrix in `images` on sym_power_basis; variable j maps to the
    linear form given by column j."""
    out = []
    for a in images:
        n = len(a)
        basis = sym_power_basis(n, d)
        index = {m: i for i, m in enumerate(basis)}
        mat = [[Fraction(0)] * len(basis) for _ in basis]
        for col, mono in enumerate(basis):
            poly = {(0,) * n: Fraction(1)}
            for j, e in enumerate(mono):
                for _ in range(e):
                    prod = {}
                    for m, c in poly.items():
                        for i in range(n):
                            if a[i][j] != 0:
                                key = m[:i] + (m[i] + 1,) + m[i + 1 :]
                                prod[key] = prod.get(key, 0) + c * a[i][j]
                    poly = prod
            for m, c in poly.items():
                mat[index[m]][col] = c
        out.append(mat)
    return out


def reynolds_matrix(action):
    """The group average (1/g) * sum of the action matrices."""
    g = len(action)
    size = len(action[0])
    return [
        [sum((m[i][j] for m in action), Fraction(0)) / g for j in range(size)]
        for i in range(size)
    ]


def greedy_generators(bases, stop, reverse=False):
    """Greedy minimal generators from bases[d], the polynomials (dicts
    exponent tuple -> scalar) spanning R_d, for d = 1..stop.

    In each degree, start from the span of all products x*y with x, y in
    lower degrees, then scan bases[d] (backwards when `reverse`) and keep
    each polynomial that enlarges the span. Vectors are reduced against
    rows keyed by their largest monomial. Returns the kept (d, index)
    pairs in scan order.
    """
    chosen = []
    for d in range(1, stop + 1):
        rows = {}

        def grows(vec):
            v = {m: c for m, c in vec.items() if c}
            while v:
                top = max(v)
                row = rows.get(top)
                if row is None:
                    rows[top] = {m: c / v[top] for m, c in v.items()}
                    return True
                f = v[top]
                for m, c in row.items():
                    x = v.get(m, 0) - f * c
                    if x:
                        v[m] = x
                    else:
                        v.pop(m, None)
            return False

        for a in range(1, d // 2 + 1):
            for x in bases[a]:
                for y in bases[d - a]:
                    grows(tuple_poly_mul(x, y))
        order = range(len(bases[d]))
        for i in reversed(order) if reverse else order:
            if grows(bases[d][i]):
                chosen.append((d, i))
    return chosen


def veronese_tor(modulus, p, d, nvars=2):
    """dim Tor_p(R, C)_d for R = span of monomials with degree divisible by
    `modulus` in `nvars` variables, presented on all degree-`modulus`
    monomials (its minimal generators)."""
    gens = monos(nvars, modulus)

    def ring_monos(deg):
        if deg < 0 or deg % modulus:
            return []
        return monos(nvars, deg)

    def chain(q):
        if q < 0:
            return []
        r_deg = d - modulus * q
        return [
            (m, s)
            for s in combinations(range(len(gens)), q)
            for m in ring_monos(r_deg)
        ]

    def diff_rank(q):
        src = chain(q)
        tgt = chain(q - 1)
        if not src or not tgt:
            return 0
        tindex = {t: i for i, t in enumerate(tgt)}
        cols = []
        for m, s in src:
            col = [Fraction(0)] * len(tgt)
            for j, gidx in enumerate(s):
                prod = tuple(a + b for a, b in zip(m, gens[gidx]))
                s2 = s[:j] + s[j + 1 :]
                sign = Fraction(1) if j % 2 == 0 else Fraction(-1)
                col[tindex[(prod, s2)]] += sign
            cols.append(col)
        return row_reduce_rank([list(r) for r in zip(*cols)])

    n_p = len(chain(p))
    if n_p == 0:
        return 0
    rank_p = diff_rank(p) if p >= 1 else 0
    rank_next = diff_rank(p + 1)
    return n_p - rank_p - rank_next


def koszul_chain_blocks(ring, elements, p, d):
    """Weight -> chain basis [(subset, R weight, R index)] of K(E; ring) at
    homological degree p and internal degree d, E the generators
    `elements` (each with .degree and .weight), nondecreasing in degree.
    Every p-subset is listed; for each, every nonempty block of
    `ring.blocks` in the remaining degree gives a run of R indices. Within a
    weight the runs come by subset degree, then lex; weights descend."""
    blocks = {}
    subsets = sorted(
        combinations(range(len(elements)), p),
        key=lambda s: (sum(elements[t].degree for t in s), s),
    )
    for s in subsets:
        rdeg = d - sum(elements[t].degree for t in s)
        if rdeg < 0:
            continue
        sw = [0] * ring.grading.coords
        for t in s:
            sw = [a + b for a, b in zip(sw, elements[t].weight)]
        for rw, basis in ring.blocks(rdeg).items():
            w = tuple(a + b for a, b in zip(sw, rw))
            blocks.setdefault(w, []).extend((s, rw, i) for i in range(len(basis)))
    return {w: blocks[w] for w in sorted(blocks, reverse=True)}


def davenport_constant(moduli):
    """Maximal length of a minimal zero-sum sequence over Z/m1 x ... x Z/mk,
    via exhaustive search for the longest zero-sum-free multiset."""
    elements = [t for t in product(*[range(m) for m in moduli]) if any(t)]
    zero = tuple(0 for _ in moduli)

    def add(a, b):
        return tuple((x + y) % m for x, y, m in zip(a, b, moduli))

    best = 0

    def extend(start, sums, length):
        nonlocal best
        best = max(best, length)
        for i in range(start, len(elements)):
            e = elements[i]
            new = set(sums)
            new.add(e)
            new.update(add(s, e) for s in sums)
            if zero in new:
                continue
            extend(i, new, length + 1)

    extend(0, set(), 0)
    return best + 1


def _moebius(n):
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def _phi(n):
    return sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def molien_oracle(images, max_degree):
    """dim Sym^d(V)^G for d = 0..max_degree as the Fractions
    (1/|G|) sum_g h_d(g), where h_d(g) = tr Sym^d(g) follows from the power
    sums p_i = tr(g^i) by Newton's identity d h_d = sum_i p_i h_(d-i).

    `images` holds one square matrix (list of rows) per group element. An
    entry is a rational or has `conductor` and `coeffs`: the value
    sum_i coeffs[i] zeta_N^i. Scalars are vectors of m Fractions in
    Q[x]/(x^m - 1), m the lcm of the conductors, x standing for zeta_m and
    zeta_N for x^(m/N). Mapping x to zeta_m is a ring map, and the total is
    rational, so it is read back through the trace of Q(zeta_m): the trace
    of zeta_m^k is the Ramanujan sum mu(m/g) phi(m)/phi(m/g), g = gcd(k, m),
    and that of a rational r is phi(m) r.
    """
    m = 1
    for a in images:
        for row in a:
            for x in row:
                m = lcm(m, getattr(x, "conductor", 1))

    def lift(x):
        v = [Fraction(0)] * m
        if hasattr(x, "conductor"):
            step = m // x.conductor
            for i, c in enumerate(x.coeffs):
                v[i * step] = Fraction(c)
        else:
            v[0] = Fraction(x)
        return v

    def add(u, v):
        return [a + b for a, b in zip(u, v)]

    def mul(u, v):
        w = [Fraction(0)] * m
        for i, a in enumerate(u):
            if a:
                for j, b in enumerate(v):
                    if b:
                        w[(i + j) % m] += a * b
        return w

    def matmul(a, b):
        n = len(a)
        out = [[[Fraction(0)] * m for _ in range(n)] for _ in range(n)]
        for i in range(n):
            for k in range(n):
                if any(a[i][k]):
                    for j in range(n):
                        if any(b[k][j]):
                            out[i][j] = add(out[i][j], mul(a[i][k], b[k][j]))
        return out

    one = [Fraction(1)] + [Fraction(0)] * (m - 1)
    totals = [[Fraction(0)] * m for _ in range(max_degree + 1)]
    for image in images:
        a = [[lift(x) for x in row] for row in image]
        sums, power = [], a
        for i in range(max_degree):
            trace = [Fraction(0)] * m
            for j in range(len(a)):
                trace = add(trace, power[j][j])
            sums.append(trace)
            if i + 1 < max_degree:
                power = matmul(power, a)
        h = [one]
        for d in range(1, max_degree + 1):
            acc = [Fraction(0)] * m
            for i in range(1, d + 1):
                acc = add(acc, mul(sums[i - 1], h[d - i]))
            h.append([c / d for c in acc])
        totals = [add(t, hd) for t, hd in zip(totals, h)]
    ramanujan = [
        _moebius(m // gcd(k, m)) * Fraction(_phi(m), _phi(m // gcd(k, m))) for k in range(m)
    ]
    return [
        sum((c * r for c, r in zip(t, ramanujan)), Fraction(0)) / (_phi(m) * len(images))
        for t in totals
    ]


def dominates(lam, mu):
    """lam dominates mu: equal sizes, and every partial sum of lam is at
    least the matching partial sum of mu."""
    n = max(len(lam), len(mu))
    lam = list(lam) + [0] * (n - len(lam))
    mu = list(mu) + [0] * (n - len(mu))
    return sum(lam) == sum(mu) and all(sum(lam[:i]) >= sum(mu[:i]) for i in range(n))


def _is_lattice(word):
    """Every prefix of the word holds at least as many v as v + 1."""
    seen = Counter()
    for v in word:
        seen[v] += 1
        if v > 1 and seen[v] > seen[v - 1]:
            return False
    return True


@lru_cache(maxsize=None)
def _tableau_contents(outer, inner, nvals, lattice):
    """Counter of the contents (length nvals) of every semistandard filling
    of outer/inner with entries 1..nvals, lattice reading words only if
    asked: every filling is tried, and each condition is checked on the
    whole tableau."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    cells = [(r, c) for r in range(len(outer)) for c in range(inner[r], outer[r])]
    found = Counter()
    for values in product(range(1, nvals + 1), repeat=len(cells)):
        t = dict(zip(cells, values))
        if any((r, c + 1) in t and t[r, c] > t[r, c + 1] for r, c in cells):
            continue
        if any((r + 1, c) in t and t[r, c] >= t[r + 1, c] for r, c in cells):
            continue
        if lattice:
            # reading word: rows top to bottom, each read right to left
            word = [t[r, c] for r in range(len(outer)) for c in reversed(range(inner[r], outer[r]))]
            if not _is_lattice(word):
                continue
        found[tuple(values.count(v) for v in range(1, nvals + 1))] += 1
    return found


def count_tableaux(outer, inner, content, lattice=False):
    """Semistandard fillings of the skew shape outer/inner whose entry i + 1
    occurs content[i] times; with `lattice`, only those whose reading word
    is a lattice word (Littlewood-Richardson tableaux)."""
    return _tableau_contents(tuple(outer), tuple(inner), len(content), lattice)[tuple(content)]
