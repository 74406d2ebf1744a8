"""The graded invariant ring R = Sym(V)^G.

Bases of each graded piece are computed per weight block (the diagonal
torus multigrading when the representation is assembled from irreducible
factors tensored with multiplicity spaces; a single block otherwise), as
canonical reduced-echelon column bases of the Reynolds image. Every
representation takes one route: the image is the column space of sum_g g,
which equals the Reynolds operator's, so it needs no division by |G|.
Each column sum_g g . m is built as a sparse vector and the columns go
straight to the elimination kernel as rows, whose reduced form is the
basis; a column that is a multiple of an earlier one, or zero because
some g scales its monomial by c != 1, is left out. A full
degree is one elimination over all of its monomials: blocks have disjoint
supports, so the reduced rows fall apart into the blocks' bases.
Polynomials, the images g . m and the published bases alike are keyed by
packed monomials (see `monomials`), where multiplying monomials
is adding ints; exponent tuples appear only where monomials are
enumerated and in the cache payloads. Dimensions are cross-checked against
the Molien series on every full-degree computation and on every degree
read back from the cache: two independent routes that must agree exactly.
A cached basis must also be fixed by each generator. A ring given a cache
keys its entries itself, by the content hashes of its group and its
representation, the degree and the grading.

Each basis element carries its integral multiple, the element times the
int lcm of its denominators. Products of elements are taken of these, and
`coords_in_basis` checks against them, so products compute in Z or
Z[zeta_N].
Coordinates in a block basis are sparse: the nonzero (index, coefficient)
pairs. Minimal generators are selected in block coordinates, where the
greedy scan becomes a pivot computation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import inf, lcm
from operator import add, sub

from .cache import content_hash
from .cyclo import Cyclotomic, as_integer, decode_scalar, encode_scalar, quotient
from .errors import InternalInconsistency, InvalidInput, LimitExceeded
from .groups import (
    FiniteGroup,
    IrrepCatalog,
    Representation,
    regular_representation,
    specialization,
)
from .limits import DEFAULT_BUDGET, Budget
from .linalg import Matrix, _int_if_integral, pivot_columns, reduced_rows
from .monomials import (
    _DEGREE_LIMIT,
    monomial_count,
    monomials,
    pack,
    poly_add_into,
    poly_mul,
    subsets_of_degree,
    unpack,
)


class Grading:
    """Multigrading by contiguous variable groups, one weight coordinate each.

    `group_sizes = ()` is the trivial grading: every monomial has weight ().
    """

    __slots__ = ("group_sizes", "coords", "_slices")

    def __init__(self, group_sizes=()):
        self.group_sizes = tuple(group_sizes)
        self.coords = len(self.group_sizes)
        slices, pos = [], 0
        for s in self.group_sizes:
            slices.append(slice(pos, pos + s))
            pos += s
        self._slices = tuple(slices)

    @property
    def trivial(self) -> bool:
        return self.coords == 0

    def nvars(self) -> int:
        return sum(self.group_sizes)

    def weight(self, mono: tuple) -> tuple:
        if self.trivial:
            return ()
        return tuple([sum(mono[sl]) for sl in self._slices])

    def all_weights(self, degree: int):
        if self.trivial:
            return ((),)
        return monomials(self.coords, degree)

    def block_monomials(self, nvars: int, degree: int, w: tuple):
        """Monomials of the block, in descending lex (matches the global order)."""
        if self.trivial:
            return monomials(nvars, degree)
        if sum(w) != degree:
            return ()
        parts = [monomials(s, wc) for s, wc in zip(self.group_sizes, w)]
        out = [()]
        for p in parts:
            if not p:
                return ()
            out = [a + b for a in out for b in p]
        return tuple(out)


TRIVIAL_GRADING = Grading()


def _scale(poly: dict) -> int:
    """The lcm of every denominator poly's coefficients hold, those of a
    Cyclotomic's power-basis coefficients included."""
    den = 1
    for c in poly.values():
        if type(c) is Fraction:
            den = lcm(den, c.denominator)
        elif type(c) is Cyclotomic:
            den = lcm(den, *(x.denominator for x in c.coeffs))
    return den


class InvElem:
    """A homogeneous invariant: sparse polynomial with its echelon pivot,
    and its integral multiple `scale` * poly (poly itself at scale 1)."""

    __slots__ = ("degree", "weight", "poly", "pivot", "scale", "multiple")

    def __init__(self, degree: int, weight: tuple, poly: dict):
        self.degree = degree
        self.weight = weight
        self.poly = poly
        self.pivot = max(poly)
        self.scale = s = _scale(poly)
        self.multiple = poly if s == 1 else {m: _int_if_integral(c * s) for m, c in poly.items()}

    def __repr__(self):
        return f"InvElem(deg={self.degree}, weight={self.weight}, terms={len(self.poly)})"


class InvariantRing:
    """Graded pieces of Sym(V)^G with per-weight-block canonical bases."""

    # the least degree from which the ring is certified zero: never for R
    zero_from = inf

    def __init__(
        self,
        rep: Representation,
        grading: Grading | None = None,
        budget: Budget = DEFAULT_BUDGET,
        cache=None,
    ):
        self.rep = rep
        self.nvars = rep.degree
        self.grading = grading if grading is not None else TRIVIAL_GRADING
        if not self.grading.trivial and self.grading.nvars() != self.nvars:
            raise InvalidInput("grading does not cover the representation's variables")
        self.budget = budget
        self.cache = cache
        # what every cache key of this ring starts with: its group and
        # representation, each by content
        self._key = None if cache is None else {
            "group": content_hash(rep.group.canonical_form()),
            "rep": content_hash(rep.canonical_form()),
        }
        self._block_cache: dict = {}
        self._degree_blocks: dict = {}
        self._molien: list[int] = []
        self._dets: list = []  # det(I - t*M) per class, for every later series
        # per element, per variable j: the nonzero (i, entry) of column j
        self._cols_sparse = [
            [[(i, r[j]) for i, r in enumerate(m.entries) if j in r] for j in range(m.cols)]
            for m in rep.images
        ]
        # the Reynolds sums take element 0's images as the monomials themselves
        if self._cols_sparse[0] != [[(j, 1)] for j in range(self.nvars)]:
            raise InternalInconsistency("group element 0 does not act as the identity")
        # (element, variable) -> [(g . x_j)^1, (g . x_j)^2, ...]
        self._powers: dict = {}

    # -- Molien series ----------------------------------------------------------

    def molien(self, max_degree: int):
        if len(self._molien) <= max_degree:
            self._molien = molien_series(self.rep, max_degree, self._dets)
        return self._molien

    # -- block computation -------------------------------------------------------

    def _block_size(self, d: int, w: tuple) -> int:
        if self.grading.trivial:
            return monomial_count(self.nvars, d)
        if sum(w) != d:
            return 0
        size = 1
        for s, wc in zip(self.grading.group_sizes, w):
            size *= monomial_count(s, wc)
        return size

    def block_basis(self, d: int, w: tuple):
        """The basis of the weight-w block of degree d: the published list
        once the degree is computed (empty for a weight it does not have),
        else the block eliminated on its own."""
        blocks = self._degree_blocks.get(d)
        if blocks is not None:
            return blocks.get(w, [])
        key = (d, w)
        hit = self._block_cache.get(key)
        if hit is not None:
            return hit
        if d >= _DEGREE_LIMIT or self._block_size(d, w) > self.budget.monomial_limit:
            raise LimitExceeded("degree too large")
        monos = self.grading.block_monomials(self.nvars, d, w)
        basis = self._block_basis_generic(d, w, monos) if monos else []
        self._block_cache[key] = basis
        return basis

    def _power(self, k: int, j: int, e: int) -> dict:
        """(g_k . x_j)^e, each power built from the one before and kept."""
        pows = self._powers.get((k, j))
        if pows is None:
            xs = monomials(self.nvars, 1)  # x_0, x_1, ...
            linear = {pack(xs[i]): _int_if_integral(c) for i, c in self._cols_sparse[k][j]}
            pows = self._powers[(k, j)] = [linear]
        while len(pows) < e:
            pows.append(poly_mul(pows[-1], pows[0]))
        return pows[e - 1]

    def _images(self, k: int, monos):
        """g_k . m for each exponent tuple m in `monos`: the product of the
        memoized powers (g_k . x_j)^e_j, so the integral coefficients of an
        integer representation stay ints. A monomial whose first exponents
        equal those of the one before starts from that one's partial
        product over them. Callers must not change the images."""
        n = self.nvars
        partial = [None] * (n + 1)  # partial[j]: product over variables < j
        prev = None
        for m in monos:
            j = 0
            if prev is not None:
                while j < n and m[j] == prev[j]:
                    j += 1
            for t in range(j, n):
                img = partial[t]
                if m[t]:
                    p = self._power(k, t, m[t])
                    img = p if img is None else poly_mul(img, p)
                partial[t + 1] = img
            prev = m
            yield {0: 1} if partial[n] is None else partial[n]

    def _block_basis_generic(self, d, w, monos):
        """Column echelon basis of the image of sum_g g on the monomials
        `monos` of degree d: the reduced rows of the columns sum_g g . m,
        read in pivot order. `monos` is the block of weight w, or all of
        degree d when w is None: blocks have disjoint supports and the
        elimination only updates rows with an entry in the pivot column, so
        one elimination gives every block's basis, each element with its
        block's weight. Every term of every image computed must have the
        weight of its source monomial. When g . m = c . m' with m' != m, the
        column of m' is c^-1 times that of m, so the later of the two takes
        no further pass and gives no row; the reduced form is unchanged, and
        its images are multiples of checked ones. When g . m = c . m with
        c != 1, the column of m is c times itself, so zero: m takes no
        further pass and gives no row either. A permutation representation
        gives one row per orbit, dim R_d in all."""
        if w is None:
            ids: dict = {}
            wid = [ids.setdefault(self.grading.weight(m), len(ids)) for m in monos]
            weights = list(ids)
        else:
            wid, weights = [0] * len(monos), [w]
        keys = [pack(m) for m in monos]
        index = {m: i for i, m in enumerate(keys)}
        # element 0 is the identity (checked in __init__): g . m = m
        sums: list = [{i: 1} for i in range(len(monos))]
        # both filtered iterators read keep[i] before the body clears any
        # flag at i or later, so they stay in step
        keep = bytearray(b"\1") * len(monos)
        for k in range(1, len(self._cols_sparse)):
            kept = compress(range(len(monos)), keep)
            for i, img in zip(kept, self._images(k, compress(monos, keep))):
                col, w0 = sums[i], wid[i]
                for m, c in img.items():
                    pos = index.get(m)
                    if pos is None or wid[pos] != w0:
                        raise InternalInconsistency("group action does not preserve weights")
                    col[pos] = col.get(pos, 0) + c
                if len(img) == 1 and (pos != i or c != 1):
                    keep[max(i, pos)] = 0
        cols = [{j: _int_if_integral(c) for j, c in col.items() if c} for col in compress(sums, keep)]
        return [
            InvElem(d, weights[wid[c]], {keys[i]: row[i] for i in sorted(row)})
            for c, row in reduced_rows(cols, len(monos))
        ]

    # -- full-degree views ---------------------------------------------------------

    def _compute_degree_blocks(self, d: int):
        """Nonempty blocks of degree d, in weight order, from one elimination."""
        basis = self._block_basis_generic(d, None, monomials(self.nvars, d))
        if len(basis) != self.molien(d)[d]:
            raise InternalInconsistency(
                f"Reynolds rank {len(basis)} disagrees with Molien coefficient "
                f"{self.molien(d)[d]} in degree {d}"
            )
        grouped: dict = {}
        for el in basis:
            grouped.setdefault(el.weight, []).append(el)
        return {w: grouped[w] for w in self.grading.all_weights(d) if w in grouped}

    def refuse_over_budget(self, d: int):
        """A degree the packed keys cannot hold, or whose monomials exceed
        the budget, is refused whether or not the cache holds it."""
        if d >= _DEGREE_LIMIT or monomial_count(self.nvars, d) > self.budget.monomial_limit:
            raise LimitExceeded("degree too large")

    def blocks(self, d: int) -> dict:
        hit = self._degree_blocks.get(d)
        if hit is not None:
            return hit
        self.refuse_over_budget(d)
        payload = self._cache_get(d)
        blocks = None if payload is None else self._load_blocks(d, payload)
        if blocks is None:
            blocks = self._compute_degree_blocks(d)
            self._cache_put(d, blocks)
        # coordinates are taken in the basis the ring publishes; a block
        # computed on its own before keeps its list, which equals this one
        for w in blocks:
            b = self._block_cache.get((d, w))
            if b:
                blocks[w] = b
        self._degree_blocks[d] = blocks
        return blocks

    def basis(self, d: int):
        return [el for b in self.blocks(d).values() for el in b]

    def dim(self, d: int) -> int:
        return sum(len(b) for b in self.blocks(d).values())

    def weight_dims(self, d: int) -> dict:
        return {w: len(b) for w, b in self.blocks(d).items()}

    def precompute(self, degrees: range):
        """Blocks of every degree of the range, after one Molien fetch up to
        the top one. A top degree that `blocks` would refuse is refused
        before any degree is listed; the monomial count grows with the
        degree, so no lower one is refused later."""
        if degrees:
            self.refuse_over_budget(degrees[-1])
        degrees = [d for d in degrees if d not in self._degree_blocks]
        if degrees:
            self.molien(max(degrees))
        for d in degrees:
            self.blocks(d)

    def coords_in_basis(self, poly: dict, d: int, w: tuple) -> tuple:
        """Nonzero coordinates of an invariant in the block basis, read off
        the unit pivots: ((index, coefficient), ...), indices increasing,
        integral values as int. The check runs on integral multiples: L .
        poly - sum c_i . (L / s_i) . (s_i . B_i) must vanish, L the lcm of
        the scales s_i used."""
        basis = self.block_basis(d, w)  # refuses a degree the keys cannot hold
        coords = tuple(
            (i, _int_if_integral(c)) for i, el in enumerate(basis) if (c := poly.get(el.pivot))
        )
        scale = 1
        for i, _ in coords:
            scale = lcm(scale, basis[i].scale)
        check = dict(poly) if scale == 1 else {m: c * scale for m, c in poly.items()}
        for i, c in coords:
            el = basis[i]
            poly_add_into(check, el.multiple, -c if el.scale == scale else -c * (scale // el.scale))
        if check:
            raise InternalInconsistency(
                "polynomial does not lie in the computed invariant block"
            )
        return coords

    # -- cache -----------------------------------------------------------------------

    def _cache_key(self, d: int):
        if self.cache is None:
            return None
        return {
            **self._key,
            "computation": "invariant-basis",
            "degree": d,
            "grading": list(self.grading.group_sizes),
        }

    def _cache_get(self, d: int):
        key = self._cache_key(d)
        if key is None:
            return None
        return self.cache.get(key)

    def _cache_put(self, d: int, blocks: dict):
        key = self._cache_key(d)
        if key is None:
            return
        n = self.nvars
        payload = {
            "blocks": [
                {
                    "weight": list(w),
                    "polys": [
                        [
                            [list(unpack(m, n)), encode_scalar(c)]
                            for m, c in sorted(el.poly.items(), reverse=True)
                        ]
                        for el in b
                    ],
                }
                for w, b in blocks.items()
            ]
        }
        self.cache.put(key, payload)

    def _load_blocks(self, d: int, payload):
        """Blocks of degree d read back from a cache payload, in the order
        computed blocks have; None unless the payload is a reduced echelon
        basis (unit pivots, strictly descending) of monomials of degree d
        in each block's weight, with the Molien dimension, and every element
        is fixed by each generator of the group. Such a basis spans each
        invariant block, so it is the canonical one."""
        weights = {w: w for w in self.grading.all_weights(d)}
        found = {}
        try:
            for entry in payload["blocks"]:
                w = weights.get(tuple(entry["weight"]))
                if w is None or w in found:
                    return None
                els = [self._load_element(d, w, enc) for enc in entry["polys"]]
                if not els or None in els:
                    return None
                for a, b in zip(els, els[1:]):
                    if a.pivot <= b.pivot:
                        return None
                pivots = {el.pivot for el in els}
                if any(el.poly.get(q) for el in els for q in pivots if q != el.pivot):
                    return None
                found[w] = els
        except (KeyError, TypeError, ValueError, InvalidInput, LimitExceeded):
            return None
        if sum(len(els) for els in found.values()) != self.molien(d)[d]:
            return None
        if not all(self._fixed_by_generators(el.multiple) for els in found.values() for el in els):
            return None
        return {w: found[w] for w in weights if w in found}

    def _fixed_by_generators(self, poly: dict) -> bool:
        """g . poly == poly for every generator g, hence for all of G.
        Callers pass an element's integral multiple, which leaves the test
        unchanged and keeps integer arithmetic integer."""
        monos = [unpack(m, self.nvars) for m in poly]
        for k in self.rep.group.generator_elements():
            moved: dict = {}
            for c, img in zip(poly.values(), self._images(k, monos)):
                poly_add_into(moved, img, c)
            poly_add_into(moved, poly, -1)
            if moved:
                return False
        return True

    def _load_element(self, d: int, w: tuple, enc):
        """One cached basis element, or None when it is malformed. Its
        exponent tuples are checked before they are packed."""
        poly = {}
        for m, c in enc:
            m = tuple(m)
            if (
                len(m) != self.nvars
                or not all(type(e) is int and e >= 0 for e in m)
                or sum(m) != d
                or self.grading.weight(m) != w
            ):
                return None
            key = pack(m)
            c = decode_scalar(c, self.budget.conductor_limit)
            if not c or key in poly:
                return None
            poly[key] = c
        if not poly:
            return None
        el = InvElem(d, w, poly)
        return el if poly[el.pivot] == 1 else None


class ArtinianReduction:
    """R/θR for a homogeneous system of parameters θ of R, θ_i in R's bases
    (`parameter_system` finds one), with the block interface `KoszulComplex`
    reads from `InvariantRing`.

    A block of R/θR is the R block modulo the reduced rows of the products
    θ_i . b (b running over the R blocks they come from), written in R's
    block coordinates. Its basis is the R elements at the non-pivot
    columns, and `coords_in_basis` reduces R coordinates modulo those rows.
    Single blocks are computed on demand and full degrees in `precompute`.

    θ is a regular sequence on R, so R/θR has the Hilbert series
    Q(t) = H_R(t) . prod_i (1 - t^(deg θ_i)), H_R the Molien series: a
    polynomial with nonnegative coefficients, zero above the top degree
    sum_i (deg θ_i - 1) of S/θS. The constructor reads Q off the Molien
    series up to that top degree plus sum_i deg θ_i, where a wrong Molien
    coefficient at or below the top degree shows as a nonzero one above
    it, and checks it there. `zero_from`, the degree after Q's last nonzero
    coefficient, is where R/θR ends: no block at or above it is computed,
    and R is read below it only. Every full degree below it must have the
    dimension Q gives. `refuse_over_budget` refuses no degree above
    sum_i (deg θ_i - 1) + beta.
    """

    def __init__(self, ring: InvariantRing, theta, beta: int):
        self.ring = ring
        self.rep = ring.rep
        self.nvars = ring.nvars
        self.grading = ring.grading
        self.theta = tuple(theta)
        self.beta = beta
        self._socle = sum(t.degree - 1 for t in self.theta)
        top = self._socle + sum(t.degree for t in self.theta)
        series = list(ring.molien(top)[: top + 1])
        for t in self.theta:
            for d in range(top, t.degree - 1, -1):
                series[d] -= series[d - t.degree]
        if min(series) < 0 or any(series[self._socle + 1 :]):
            raise InternalInconsistency(
                f"the Molien series times prod_i (1 - t^(deg theta_i)) is not a "
                f"nonnegative polynomial of degree at most {self._socle}"
            )
        self._series = series
        # the least degree from which R/θR is zero
        self.zero_from = max(d for d, c in enumerate(series) if c) + 1
        # (d, w) -> (basis, reduced rows of the θ products, R index -> basis index)
        self._blocks: dict = {}
        self._degree_blocks: dict = {}

    def _theta_rows(self, d: int, w: tuple) -> list:
        """R coordinates of the products θ_i . b in the block (d, w), b
        running over the R blocks they come from."""
        ring = self.ring
        rows = []
        for t in self.theta:
            lw = tuple(map(sub, w, t.weight))
            if d < t.degree or min(lw, default=0) < 0:
                continue
            for b in ring.block_basis(d - t.degree, lw):
                rows.append(dict(ring.coords_in_basis(poly_mul(t.multiple, b.multiple), d, w)))
        return rows

    def _block(self, d: int, w: tuple):
        key = (d, w)
        hit = self._blocks.get(key)
        if hit is None:
            basis = self.ring.block_basis(d, w)
            reduced = reduced_rows(self._theta_rows(d, w), len(basis))
            pivots = {c for c, _ in reduced}
            kept = [i for i in range(len(basis)) if i not in pivots]
            hit = self._blocks[key] = (
                [basis[i] for i in kept],
                reduced,
                {i: q for q, i in enumerate(kept)},
            )
        return hit

    def block_basis(self, d: int, w: tuple):
        blocks = self._degree_blocks.get(d)
        if blocks is not None:
            return blocks.get(w, [])
        if d >= self.zero_from:
            return []
        return self._block(d, w)[0]

    def refuse_over_budget(self, d: int):
        self.ring.refuse_over_budget(min(d, self._socle + self.beta))

    def blocks(self, d: int) -> dict:
        hit = self._degree_blocks.get(d)
        if hit is not None:
            return hit
        hit = {}
        if d < self.zero_from:
            for w in self.ring.blocks(d):
                basis = self._block(d, w)[0]
                if basis:
                    hit[w] = basis
            dim = sum(len(b) for b in hit.values())
            if dim != self._series[d]:
                raise InternalInconsistency(
                    f"R/(theta) has dimension {dim} in degree {d}, its Molien series "
                    f"predicts {self._series[d]}"
                )
        self._degree_blocks[d] = hit
        return hit

    def precompute(self, degrees: range):
        """Every degree of the range below `zero_from`, in increasing order."""
        if not degrees:
            return
        self.refuse_over_budget(degrees[-1])
        for d in degrees:
            if d < self.zero_from:
                self.blocks(d)

    def coords_in_basis(self, poly: dict, d: int, w: tuple) -> tuple:
        """Coordinates of the class of an invariant in the block basis: its
        R coordinates, checked there, reduced modulo the block's rows. A
        degree from `zero_from` on has no coordinates."""
        if d >= self.zero_from:
            return ()
        _, rows, position = self._block(d, w)
        coords = dict(self.ring.coords_in_basis(poly, d, w))
        for c, row in rows:
            f = coords.get(c)
            if f:
                poly_add_into(coords, row, -f)
        return tuple((position[i], _int_if_integral(c)) for i, c in sorted(coords.items()))


# -- Molien series --------------------------------------------------------------------


def _char_poly_det(m: Matrix):
    """Coefficients of det(I - t*M), ascending in t, via trace Newton
    identities; each division by k is exact, so an integer matrix keeps
    int coefficients throughout."""
    n = m.rows
    traces = []
    power = m
    for _ in range(n):
        traces.append(sum(power.at(i, i) for i in range(n)))
        power = power @ m
    elem = [1]
    for k in range(1, n + 1):
        acc = 0
        for j in range(1, k + 1):
            term = elem[k - j] * traces[j - 1]
            acc = acc + (term if j % 2 == 1 else -term)
        elem.append(quotient(acc, k))
    return [elem[k] if k % 2 == 0 else -elem[k] for k in range(n + 1)]


def _series_inverse(q, max_degree: int):
    if q[0] != 1:
        raise InternalInconsistency(f"det(I - t*M) has constant term {q[0]}, not 1")
    out = [1]
    for d in range(1, max_degree + 1):
        acc = 0
        for i in range(1, min(d, len(q) - 1) + 1):
            acc = acc + q[i] * out[d - i]
        out.append(-acc)
    return out


def molien_series(rep: Representation, max_degree: int, dets: list | None = None):
    """dim R_d for d = 0..max_degree from the generating function.

    Independent of the Reynolds route: only traces, determinants and series
    arithmetic. Each coefficient is asserted to be a nonnegative rational
    integer, a nontrivial cancellation check over the cyclotomic field.
    `dets`, a list kept per representation, holds det(I - t*M) per class:
    filled when empty, read after, so a longer series redoes only inversions.
    """
    group = rep.group
    dets = [] if dets is None else dets
    dets[:] = dets or [_char_poly_det(rep.images[r]) for r in group.class_reps]
    totals = [0] * (max_degree + 1)
    for q, size in zip(dets, group.class_sizes):
        inv = _series_inverse(q, max_degree)
        for d in range(max_degree + 1):
            totals[d] = totals[d] + size * inv[d]
    out = []
    for d, v in enumerate(totals):
        n = as_integer(quotient(v, group.order))
        if n is None or n < 0:
            raise InternalInconsistency(
                f"internal arithmetic inconsistency: Molien coefficient at degree {d} "
                f"is not a nonnegative integer"
            )
        out.append(n)
    return out


# -- generators -----------------------------------------------------------------------


class NoetherResult:
    """The group's generator-degree ceiling; exact when computed from the
    regular representation, else the group-order fallback."""

    __slots__ = ("value", "exact")

    def __init__(self, value: int, exact: bool):
        self.value = value
        self.exact = exact


class GeneratorSet:
    __slots__ = ("mode", "elements", "beta_V")

    def __init__(self, mode: str, elements: tuple, beta_V: int | None):
        self.mode = mode  # "minimal" | "full"
        self.elements = elements
        self.beta_V = beta_V  # the largest minimal generator degree; None for "full"

    def degrees(self):
        return [el.degree for el in self.elements]


def minimal_generators(ring: InvariantRing, stop: int) -> GeneratorSet:
    """Greedy complement of (R+ . R+)_d inside R_d for each d <= stop.

    The scan visits the basis of R_d in order, blocks and elements within a
    block alike, and keeps an element when it is not in the span of the
    products and the elements visited before it. Any minimal complement
    spans the same space modulo R+^2 (graded Nakayama), so the syzygy
    degrees downstream do not depend on this choice; the test suite checks
    that against an oracle's reversed complement. Blocks are independent,
    so each block is done in its own coordinates: every product x*y lies in
    the block (d, wx + wy), where `coords_in_basis` writes it (and checks
    that it is invariant). An element is kept exactly when no vector in the
    span of the products has its last nonzero coordinate at that element;
    with the columns in reverse order those positions are the pivot columns
    of the products' coordinate rows. The products are taken of the
    elements' integral multiples (`InvElem.multiple`): that scales each
    coordinate row by a nonzero constant, which moves no pivot. A `stop`
    below the group's ceiling may miss generators; warning about that is
    the caller's business.
    """
    ring.precompute(range(1, stop + 1))
    # per degree below stop: (weight, integral multiple) of each element
    multiples = [()] + [[(x.weight, x.multiple) for x in ring.basis(a)] for a in range(1, stop)]
    chosen = []
    for d in range(1, stop + 1):
        products: dict = {}  # weight -> the products' coordinates
        for a in range(1, d // 2 + 1):
            for wx, x in multiples[a]:
                for wy, y in multiples[d - a]:
                    w = tuple(map(add, wx, wy))
                    coords = ring.coords_in_basis(poly_mul(x, y), d, w)
                    products.setdefault(w, []).append(coords)
        for w, block in ring.blocks(d).items():
            last = len(block) - 1
            rows = [{last - i: c for i, c in cs} for cs in products.get(w, ())]
            pivots = set(pivot_columns(rows, len(block)))
            chosen.extend(el for s, el in enumerate(block) if last - s not in pivots)
    return GeneratorSet(
        mode="minimal",
        elements=tuple(chosen),
        beta_V=max((el.degree for el in chosen), default=0),
    )


def specialization_ring(catalog: IrrepCatalog, multiplicities, budget: Budget) -> InvariantRing:
    """The specialization's invariant ring, graded by one weight coordinate
    per copy of an irreducible."""
    rep = specialization(catalog, multiplicities)
    sizes = tuple(u.degree for u, k in zip(catalog.irreps, multiplicities) for _ in range(k))
    return InvariantRing(rep, grading=Grading(sizes), budget=budget)


def noether_number(
    source: FiniteGroup | IrrepCatalog,
    exact_limit: int | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> NoetherResult:
    """The generator-degree ceiling beta(G) over all representations, of a
    group or of an irreducible catalog's group.

    beta(G) is attained on the regular representation, the sum of the
    irreducibles U_i, each dim U_i times (Schmid), so a group of order at
    most `exact_limit` is scanned there; above it the group order is a
    valid ceiling. The scan stops at |G| for a cyclic group and at
    floor(3|G|/4) otherwise, since beta(G) <= 3|G|/4 for every non-cyclic G
    (Domokos-Hegedus, Arch. Math. 74 (2000)). Given a catalog, the scan
    runs on `specialization_ring` of those multiplicities, but with
    none on the trivial irreducible: for V = V' + C, C[V]^G = C[V']^G[y],
    so beta(G) = max(beta(V'), 1). Given a bare group, it runs on
    `regular_representation`, the permutation form.
    """
    catalog = source if isinstance(source, IrrepCatalog) else None
    group = source if catalog is None else catalog.group
    if exact_limit is None:
        exact_limit = budget.noether_exact_limit
    if group.order > exact_limit:
        return NoetherResult(value=group.order, exact=False)
    if catalog is None:
        ring = InvariantRing(regular_representation(group), budget=budget)
    else:
        trivial = (1,) * group.class_count
        mults = [0 if chi == trivial else d for chi, d in zip(catalog.characters, catalog.degrees)]
        ring = specialization_ring(catalog, mults, budget)
    g = group.order
    cyclic = any(group.element_order(a) == g for a in range(g))
    beta = minimal_generators(ring, stop=g if cyclic else 3 * g // 4).beta_V
    return NoetherResult(value=max(beta, 1), exact=True)


def build_E(ring: InvariantRing, mode: str, noether: NoetherResult) -> GeneratorSet:
    """The generator space: all of R_1..R_beta (full), or the minimal
    complement that `minimal_generators` scans up to beta, the ceiling
    `noether` certifies."""
    beta = noether.value
    if mode == "full":
        ring.precompute(range(1, beta + 1))
        elements = []
        for d in range(1, beta + 1):
            elements.extend(ring.basis(d))
        return GeneratorSet(mode="full", elements=tuple(elements), beta_V=None)
    if mode == "minimal":
        gens = minimal_generators(ring, stop=beta)
        if gens.beta_V > beta:
            raise InternalInconsistency(
                f"minimal generator of degree {gens.beta_V} exceeds the ceiling {beta}"
            )
        return gens
    raise InvalidInput(f"unknown generator mode {mode!r}")


def _pure_powers(ring: InvariantRing, gens: GeneratorSet):
    """The pure powers x_c^(k_c), k_c the order of the character on x_c,
    as elements of `gens`; None unless every image of the representation is
    diagonal and `gens` holds each of them. They are then a system of
    parameters of R."""
    rep, n = ring.rep, ring.nvars
    if any(j != i for m in rep.images for i, row in enumerate(m.entries) for j in row):
        return None
    images = [rep.images[a] for a in rep.group.generator_elements()]
    monomial = {el.pivot: el for el in gens.elements if len(el.poly) == 1}
    theta = []
    for c in range(n):
        entries = [m.at(c, c) for m in images]
        k = 1
        while any(z**k != 1 for z in entries):
            k += 1
        el = monomial.get(pack(tuple(k if i == c else 0 for i in range(n))))
        if el is None:
            return None
        theta.append(el)
    return tuple(theta)


def _by_degree_sum(degrees: list, n: int):
    """`subsets_of_degree` for each degree sum in turn, the least first."""
    for total in range(sum(degrees[:n]), sum(degrees[max(len(degrees) - n, 0) :]) + 1):
        yield from subsets_of_degree(degrees, n, total)


def _zero_on_an_axis(theta, nvars: int) -> bool:
    """Whether every θ_i vanishes at one basis vector e_j, a common zero
    other than 0: θ_i(e_j) is the coefficient of x_j^(deg θ_i). Such a θ
    is no system of parameters, and this costs no elimination."""
    units = map(pack, monomials(nvars, 1))  # x_j; the key of x_j^k is k times it
    return any(not any(t.poly.get(u * t.degree) for t in theta) for u in units)


def spans_top_degree(theta, nvars: int) -> bool:
    """Whether S = C[x_1..x_nvars] is spanned in degree D = sum_i (deg θ_i
    - 1) + 1 by the products θ_i . m, m running over the monomials of
    degree D - deg θ_i: one sparse rank over the monomials of degree D.
    S/θS is generated in degree 0, so it then vanishes from degree D on.
    For nvars homogeneous θ_i that happens exactly when they are a system
    of parameters of S, whose quotient then has top degree D - 1."""
    top = sum(t.degree - 1 for t in theta) + 1
    column = {pack(m): j for j, m in enumerate(monomials(nvars, top))}
    rows = [
        {column[k + shift]: c for k, c in t.multiple.items()}
        for t in theta
        for shift in map(pack, monomials(nvars, top - t.degree))
    ]
    return len(rows) >= len(column) and len(pivot_columns(rows, len(column))) == len(column)


def parameter_system(ring: InvariantRing, gens: GeneratorSet):
    """dim V elements θ of `gens` that form a homogeneous system of
    parameters of R, or None where none is found within the budget.

    Where every image is diagonal, the pure powers x_c^(k_c) are one (see
    `_pure_powers`). Otherwise the dim V-subsets of R's minimal generators
    are tried in increasing degree sum; in full mode those are elements of
    `gens` (`minimal_generators` keeps elements of R's bases), and in
    either mode each is a weight vector. A subset is a system of
    parameters of S = Sym(V*) exactly when `spans_top_degree` holds, and
    then of R too, since S is finite over R. R is Cohen-Macaulay
    (Hochster-Roberts), so θ is a regular sequence on R. A subset that
    vanishes on a coordinate axis (`_zero_on_an_axis`) is rejected before
    that test. Each subset tried counts the monomials of S the test
    eliminates over, and the search gives up before the total would pass
    the budget's monomial limit."""
    theta = _pure_powers(ring, gens)
    if theta is not None:
        return theta
    if gens.mode == "minimal":
        candidates = gens.elements
    else:
        candidates = minimal_generators(ring, stop=max(gens.degrees(), default=0)).elements
    candidates = sorted(candidates, key=lambda el: el.degree)
    n, spent = ring.nvars, 0
    for positions in _by_degree_sum([el.degree for el in candidates], n):
        theta = tuple(candidates[i] for i in positions)
        spent += monomial_count(n, sum(t.degree - 1 for t in theta) + 1)
        if spent > ring.budget.monomial_limit:
            return None  # every later subset costs at least as much
        if not _zero_on_an_axis(theta, n) and spans_top_degree(theta, n):
            return theta
    return None
