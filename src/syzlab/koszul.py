"""Graded Tor via Koszul homology.

Tor over S = Sym(E) is computed by tensoring the Koszul resolution of the
ground field with R, never materializing S itself: the complex in
homological degree p and internal degree d is (R (x) Wedge^p E)_d with the
standard differential. Every computation is split by the weight grading
(one block in the ungraded case), and a complex reads its chains through
its selection of weights per degree: all of them by default, the dominant
ones on the Schur routes. Each product of an R basis element with a
generator is written in its block basis once, reused by every subset and
p and shared with the complexes `restricted` derives on other selections;
writing it there asserts that the differentials preserve weights.
A scan first computes, whole and checked, every ring degree it reads; only
the stabilization check's `tor_data` reads single weight blocks.
`tor_table` returns its table as the JSON-ready dict the report prints, so
the table has one spelling.

The ring is R or `invariants.ArtinianReduction`, R/θR with the same block
interface: for a regular sequence θ in E, the complex of R/θR on E - θ has
the homology of the complex of R on E, weight by weight. `tor_complex`
builds that finite complex wherever `parameter_system` certifies θ, and the
complex over R otherwise. A block of R/θR can be empty where R's is not,
and the differential checks that nothing lands there; the degrees from
`zero_from` on, where R/θR ends, are not probed at all.
"""

from __future__ import annotations

from itertools import repeat
from operator import add, sub

from .cyclo import quotient
from .errors import InternalInconsistency, InvalidInput
from .invariants import ArtinianReduction, GeneratorSet, InvariantRing, parameter_system
from .linalg import Matrix, rank
from .monomials import poly_mul, subsets_of_degree


def scan_ceiling(beta: int, dim_v: int, p: int) -> int:
    """Degree ceiling (beta-1)*dim(V) + beta*p for the degree-p syzygies."""
    return (beta - 1) * dim_v + beta * p


def _divided(coords: tuple, s: int) -> tuple:
    """Coordinates divided by the int s, each under the scalar convention."""
    return coords if s == 1 else tuple((i, quotient(c, s)) for i, c in coords)


class _WeightIndex:
    """The allowed weights of one degree, indexed for the query "every w
    with w >= lower componentwise": one bitmask over the weights per
    (coordinate, threshold), ANDed over lower's nonzero coordinates. A
    weight with a negative coordinate is at least no subset weight and is
    dropped. A complex `restricted` from another indexes its own weights
    but shares the other's products, as the Schur probes share the scan's."""

    __slots__ = ("weights", "masks")

    def __init__(self, weights):
        self.weights = [w for w in dict.fromkeys(weights) if min(w, default=0) >= 0]
        self.masks = []  # per coordinate: threshold -> weights at least it
        for c in range(len(self.weights[0]) if self.weights else 0):
            by_value: dict = {}
            for i, w in enumerate(self.weights):
                by_value[w[c]] = by_value.get(w[c], 0) | 1 << i
            masks = [0] * (max(by_value) + 1)
            acc = 0
            for v in range(len(masks) - 1, -1, -1):
                acc |= by_value.get(v, 0)
                masks[v] = acc
            self.masks.append(masks)

    def at_least(self, lower: tuple):
        mask = (1 << len(self.weights)) - 1
        for masks, v in zip(self.masks, lower):
            if v:
                mask &= masks[v] if v < len(masks) else 0
        weights = self.weights
        while mask:
            low = mask & -mask
            yield weights[low.bit_length() - 1]
            mask ^= low


class KoszulComplex:
    """The complex (R (x) Wedge^p E) in a fixed internal degree, R an
    `InvariantRing` or an `ArtinianReduction`.

    `weights_for_degree(d)` selects the total weights materialized in
    degree d (e.g. dominant weights only), by default every weight of the
    ring's grading: the single weight () on a trivially graded ring.
    `restricted` gives the same complex on another selection.
    """

    def __init__(
        self,
        ring: InvariantRing,
        gens: GeneratorSet,
        beta: int,
        weights_for_degree=None,
    ):
        if beta < 1:
            raise InvalidInput("generator-degree ceiling must be at least 1")
        self.ring = ring
        self.gens = gens
        self.beta = beta
        self.guard = beta
        self.weights_for_degree = weights_for_degree or ring.grading.all_weights
        self.E = sorted(gens.elements, key=lambda el: el.degree)
        self._degrees = [el.degree for el in self.E]
        self._subsets_cache: dict = {}
        self._chains: dict = {}
        self._allowed: dict = {}  # d -> _WeightIndex of the allowed weights
        self._diffs: dict = {}
        # (R degree, R weight, t) -> for each R index, the nonzero
        # (index, coefficient) pairs of r . e_t in the block basis of
        # (R degree + deg e_t, R weight + wt e_t)
        self._products: dict = {}
        self._ranks: dict = {}
        self._tor: dict = {}

    def restricted(self, weights_for_degree) -> KoszulComplex:
        """This complex on the selection `weights_for_degree`, sharing the
        subset lists and the products r . e_t, which do not depend on it."""
        cx = KoszulComplex(self.ring, self.gens, self.beta, weights_for_degree)
        cx._subsets_cache, cx._products = self._subsets_cache, self._products
        return cx

    # -- chain spaces -------------------------------------------------------------

    def _subsets(self, p: int, sdeg: int) -> list:
        """(subset, weight sum) for the p-subsets of E of degree sum sdeg, in
        lex order (E is sorted by degree, as `subsets_of_degree` needs), so
        a weight block of `chain_blocks` runs by subset degree, then lex."""
        hit = self._subsets_cache.get((p, sdeg))
        if hit is None:
            coords = range(self.ring.grading.coords)
            hit = self._subsets_cache[p, sdeg] = [
                (s, tuple(sum(self.E[t].weight[c] for t in s) for c in coords))
                for s in subsets_of_degree(self._degrees, p, sdeg)
            ]
        return hit

    def chain_blocks(self, p: int, d: int) -> dict:
        """Weight -> ordered chain basis [(subset, r_weight, r_index)] at (p, d).

        The elements of one (subset, R weight) pair form a contiguous run
        with R indices 0..n-1; within a weight, runs come in increasing
        subset degree, then in lex order. Only the subset degrees that
        leave R a degree below `zero_from` are read, and the allowed
        weights of d are indexed once a subset fits."""
        key = (p, d)
        hit = self._chains.get(key)
        if hit is not None:
            return hit
        blocks: dict = {}
        # (R degree, subset weight) -> [(R weight, R block size, chain block)]
        # over the nonempty R blocks; many subsets share one key
        fits: dict = {}
        degrees = self._degrees
        first = max(sum(degrees[:p]), d - self.ring.zero_from + 1)
        last = min(d, sum(degrees[max(len(degrees) - p, 0) :]))
        for sdeg in range(first, last + 1):
            rdeg = d - sdeg
            for s, sw in self._subsets(p, sdeg):
                found = fits.get((rdeg, sw))
                if found is None:
                    allowed = self._allowed.get(d)
                    if allowed is None:
                        allowed = self._allowed[d] = _WeightIndex(self.weights_for_degree(d))
                    sizes = []
                    for w in allowed.at_least(sw):
                        rw = tuple(map(sub, w, sw))
                        n = len(self.ring.block_basis(rdeg, rw))
                        if n:
                            sizes.append((w, rw, n))
                    found = fits[(rdeg, sw)] = [
                        (rw, n, blocks.setdefault(w, [])) for w, rw, n in sizes
                    ]
                for rw, n, els in found:
                    els.extend(zip(repeat(s), repeat(rw), range(n)))
        ordered = {w: blocks[w] for w in sorted(blocks, reverse=True)}
        self._chains[key] = ordered
        return ordered

    def chain_dim(self, p: int, d: int) -> int:
        return sum(len(v) for v in self.chain_blocks(p, d).values())

    # -- differential ----------------------------------------------------------------

    def differential(self, p: int, d: int) -> dict:
        """Weight -> matrix of d_p : C_p -> C_(p-1) in internal degree d.

        Works run by run. A subset meets a weight block in at most one run,
        so face j of a source run (s, rw) lands in the target run of s
        without its j-th generator, and an entry's row is that run's first
        position plus the R index of the product's coordinate. That run is
        missing only where its ring block is empty, as a block of a
        quotient ring can be: every product of such a face must then
        vanish, and the face is skipped. The faces of one column remove
        distinct generators and so meet distinct target runs: every entry
        receives at most one term."""
        if p < 1:
            raise InvalidInput("the differential is defined for p >= 1")
        key = (p, d)
        hit = self._diffs.get(key)
        if hit is not None:
            return hit
        src = self.chain_blocks(p, d)
        tgt = self.chain_blocks(p - 1, d)
        mats = {}
        for w, els in src.items():
            tgt_els = tgt.get(w, ())
            starts = {s: i for i, (s, _, ri) in enumerate(tgt_els) if not ri}
            data = [[0] * len(els) for _ in tgt_els]
            for col, (s, rw, ri) in enumerate(els):
                if not ri:  # a run starts: (first target row, sign, products) per face
                    rdeg = d - sum(self.E[t].degree for t in s)
                    faces = []
                    for j, t in enumerate(s):
                        products = self._times_generator(rdeg, rw, t)
                        row0 = starts.get(s[:j] + s[j + 1 :])
                        if row0 is not None:
                            faces.append((row0, j % 2 == 1, products))
                        elif any(products):
                            raise InternalInconsistency(
                                f"a product lands in an empty ring block at (p={p}, d={d})"
                            )
                for row0, negate, products in faces:
                    for ri2, c in products[ri]:
                        data[row0 + ri2][col] = -c if negate else c
            mats[w] = Matrix(len(tgt_els), len(els), data)
        self._diffs[key] = mats
        return mats

    def _times_generator(self, rdeg: int, rw: tuple, t: int) -> list:
        """For each basis element r of the R block (rdeg, rw), in order, the
        nonzero coordinates of r . e_t; computed once per complex, for every
        p. The product is taken of the integral multiples s_r . r and
        s_e . e_t, and its coordinates are divided by s_r . s_e."""
        key = (rdeg, rw, t)
        hit = self._products.get(key)
        if hit is None:
            e = self.E[t]
            tdeg, tw = rdeg + e.degree, tuple(map(add, rw, e.weight))
            hit = self._products[key] = [
                _divided(
                    self.ring.coords_in_basis(poly_mul(r_el.multiple, e.multiple), tdeg, tw),
                    r_el.scale * e.scale,
                )
                for r_el in self.ring.block_basis(rdeg, rw)
            ]
        return hit

    def _rank(self, p: int, d: int, w: tuple) -> int:
        """Rank of the weight-w block of d_p in degree d, kept per (p, d):
        tor_data(p, d) and tor_data(p - 1, d) both need it."""
        ranks = self._ranks.setdefault((p, d), {})
        rk = ranks.get(w)
        if rk is None:
            rk = ranks[w] = rank(self.differential(p, d)[w])
        return rk

    # -- homology ----------------------------------------------------------------------

    def tor_data(self, p: int, d: int):
        """(dim Tor_p in degree d, weight -> block dimension)."""
        key = (p, d)
        hit = self._tor.get(key)
        if hit is not None:
            return hit
        src = self.chain_blocks(p, d)
        d_p = self.differential(p, d) if p >= 1 else None
        d_next = self.differential(p + 1, d)
        if d_p is not None:
            for w, mat_next in d_next.items():
                if w in d_p and mat_next.cols and d_p[w].rows:
                    if not (d_p[w] @ mat_next).is_zero():
                        raise InternalInconsistency(
                            f"differential does not square to zero at (p={p}, d={d})"
                        )
        weight_dims = {}
        total = 0
        for w, els in src.items():
            n = len(els)
            rk_p = self._rank(p, d, w) if d_p is not None else 0
            rk_next = self._rank(p + 1, d, w) if w in d_next else 0
            dim_w = n - rk_p - rk_next
            if dim_w < 0:
                raise InternalInconsistency(
                    f"negative homology dimension at (p={p}, d={d}, weight={w})"
                )
            if dim_w:
                weight_dims[w] = dim_w
            total += dim_w
        result = (total, weight_dims)
        self._tor[key] = result
        return result

    def tor_dimension(self, p: int, d: int) -> int:
        return self.tor_data(p, d)[0]

    def min_subset_degree(self, p: int) -> int:
        return sum(self._degrees[:p]) if p <= len(self._degrees) else None

    def ceiling(self, p: int) -> int:
        return scan_ceiling(self.beta, self.ring.rep.degree, p)

    def precompute(self, p: int):
        """Blocks of the ring in every degree the scans of Tor_0..Tor_p
        read: Tor_q reads up to ceiling(q) + guard minus the least degree
        of a (q-1)-subset of E. The scan of Tor_p walks up to ceiling(p) +
        guard, so that degree is refused first if over budget. A ring that
        ends below some of these degrees (`zero_from`) computes none of
        them. `scan` calls it first; a repeat call costs dict hits."""
        self.ring.refuse_over_budget(self.ceiling(p) + self.guard)
        read = self.ceiling(0)
        for q in range(1, min(p, len(self.E) + 1) + 1):
            read = max(read, self.ceiling(q) - self.min_subset_degree(q - 1))
        self.ring.precompute(range(read + self.guard + 1))

    def scan(self, p: int) -> dict:
        """d -> tor_data(p, d) for d = 0..ceiling(p), in increasing order.

        The guard degrees above the ceiling are computed too and must have
        no Tor_p: homology there would mean the ceiling is wrong, which is a
        bug, never a finding.
        """
        self.precompute(p)
        ceiling = self.ceiling(p)
        scanned = {d: self.tor_data(p, d) for d in range(ceiling + 1)}
        for d in range(ceiling + 1, ceiling + self.guard + 1):
            if self.tor_data(p, d)[0]:
                raise InternalInconsistency(
                    "ceiling violated — implementation bug or misread bound"
                )
        return scanned


def tor_complex(ring: InvariantRing, gens: GeneratorSet, beta: int, weights_for_degree=None):
    """A complex whose homology is Tor^S(R, C), S = Sym(E): K(Ē; R/θR) with
    Ē = E - θ where `parameter_system` finds θ in E, K(E; R) where it does
    not. θ is then a regular sequence on R of weight vectors, so the two
    have the same homology weight by weight (Bruns-Herzog, Cohen-Macaulay
    Rings, 1.6), and the quotient checks its own Hilbert series."""
    theta = parameter_system(ring, gens)
    if theta is not None:
        ring = ArtinianReduction(ring, theta, beta)
        rest = tuple(el for el in gens.elements if el not in theta)
        gens = GeneratorSet(mode=gens.mode, elements=rest, beta_V=gens.beta_V)
    return KoszulComplex(ring, gens, beta, weights_for_degree=weights_for_degree)


def syzygy_degree(cx: KoszulComplex, p: int) -> int | None:
    """Top internal degree of Tor_p in the scan; None where Tor_p vanishes
    throughout it."""
    if p < 1:
        raise InvalidInput("syzygy degrees are defined for p >= 1")
    return max((d for d, (dim, _) in cx.scan(p).items() if dim), default=None)


def tor_table(cx: KoszulComplex, p_max: int) -> dict:
    """Full table for 0 <= p <= p_max up to the per-p ceiling, as the
    report prints it: the generator mode, the ceiling of each p and the
    nonzero cells as [p, d, dim] rows in increasing (p, d).

    Includes the generation check in homological degree zero and, where the
    scanned range covers every nonvanishing chain space of an internal
    degree, the Euler-characteristic check, which holds weight by weight and
    so on any selection.
    """
    if p_max < 0:
        raise InvalidInput("p_max must be nonnegative")
    entries = {}
    ceilings = {}
    for p in range(p_max + 1):
        ceilings[p] = cx.ceiling(p)
        entries.update(((p, d), dim) for d, (dim, _) in cx.scan(p).items())
    if entries.get((0, 0)) != 1:
        raise InternalInconsistency("Tor_0 in degree 0 must be the ground field")
    for (p, d), dim in entries.items():
        if p == 0 and d > 0 and dim:
            raise InternalInconsistency(
                f"generator set does not generate: Tor_0 is nonzero in degree {d}"
            )
    min_beyond = cx.min_subset_degree(p_max + 1)
    for d in range(ceilings[0] + 1):
        if min_beyond is not None and min_beyond <= d:
            continue  # chains extend beyond the table; skip this degree
        chain_sum = sum((-1) ** p * cx.chain_dim(p, d) for p in range(p_max + 1))
        tor_sum = sum((-1) ** p * entries[(p, d)] for p in range(p_max + 1))
        if chain_sum != tor_sum:
            raise InternalInconsistency(
                f"Euler characteristic mismatch in degree {d}: "
                f"chains {chain_sum} vs homology {tor_sum}"
            )
    return {
        "mode": cx.gens.mode,
        "ceilings": {str(p): c for p, c in ceilings.items()},
        "rows": [[p, d, dim] for (p, d), dim in sorted(entries.items()) if dim],
    }
