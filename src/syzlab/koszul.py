"""Graded Tor via Koszul homology.

Tor over S = Sym(E) is computed by tensoring the Koszul resolution of the
ground field with R, never materializing S itself: the complex in
homological degree p and internal degree d is (R (x) Wedge^p E)_d with the
standard differential. Every computation is split by the weight grading
(one block in the ungraded case). Each product of an R basis element with
a generator is written in its block basis once per complex and reused by
every subset and every p; writing it there asserts that the differentials
preserve weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, repeat
from operator import add, sub

from .cyclo import quotient
from .errors import InternalInconsistency, InvalidInput
from .invariants import GeneratorSet, InvariantRing
from .linalg import Matrix, rank
from .monomials import poly_mul


def scan_ceiling(beta: int, dim_v: int, p: int) -> int:
    """Degree ceiling (beta-1)*dim(V) + beta*p for the degree-p syzygies."""
    return (beta - 1) * dim_v + beta * p


def _wadd(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


def _divided(coords: tuple, s: int) -> tuple:
    """Coordinates divided by the int s, each under the scalar convention."""
    return coords if s == 1 else tuple((i, quotient(c, s)) for i, c in coords)


class _WeightIndex:
    """The allowed weights of one degree, indexed for the query "every w
    with w >= lower componentwise": one bitmask over the weights per
    (coordinate, threshold), ANDed over lower's nonzero coordinates. A
    weight with a negative coordinate is at least no subset weight and is
    dropped."""

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
    """The complex (R (x) Wedge^p E) in a fixed internal degree.

    `weights_for_degree(d)` optionally restricts which total weights are
    materialized (e.g. dominant weights only); None computes everything.
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
        self.weights_for_degree = weights_for_degree
        self.E = list(gens.elements)
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

    # -- chain spaces -------------------------------------------------------------

    def _subsets(self, p: int):
        hit = self._subsets_cache.get(p)
        if hit is None:
            hit = []
            for s in combinations(range(len(self.E)), p):
                deg = sum(self.E[t].degree for t in s)
                w = tuple(
                    sum(self.E[t].weight[c] for t in s)
                    for c in range(self.ring.grading.coords)
                )
                hit.append((s, deg, w))
            self._subsets_cache[p] = hit
        return hit

    def chain_blocks(self, p: int, d: int) -> dict:
        """Weight -> ordered chain basis [(subset, r_weight, r_index)] at (p, d).

        The elements of one (subset, R weight) pair form a contiguous run
        with R indices 0..n-1, in subset order within each weight."""
        key = (p, d)
        hit = self._chains.get(key)
        if hit is not None:
            return hit
        blocks: dict = {}
        allowed = None
        if self.weights_for_degree is not None:
            allowed = self._allowed.get(d)
            if allowed is None:
                allowed = self._allowed[d] = _WeightIndex(self.weights_for_degree(d))
        # (R degree, subset weight) -> [(R weight, R block size, chain block)]
        # over the nonempty R blocks; many subsets share one key
        fits: dict = {}
        block_basis = self.ring.block_basis
        for s, sdeg, sw in self._subsets(p):
            rdeg = d - sdeg
            if rdeg < 0:
                continue
            found = fits.get((rdeg, sw))
            if found is None:
                if allowed is None:
                    sizes = [
                        (_wadd(sw, rw), rw, len(basis))
                        for rw, basis in self.ring.blocks(rdeg).items()
                    ]
                else:
                    sizes = []
                    for w in allowed.at_least(sw):
                        rw = tuple(map(sub, w, sw))
                        n = len(block_basis(rdeg, rw))
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
        position plus the R index of the product's coordinate. The faces of
        one column remove distinct generators and so meet distinct target
        runs: every entry receives at most one term."""
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
                    faces = [
                        (starts[s[:j] + s[j + 1 :]], j % 2 == 1, self._times_generator(rdeg, rw, t))
                        for j, t in enumerate(s)
                    ]
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
            tdeg, tw = rdeg + e.degree, _wadd(rw, e.weight)
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
        degs = sorted(e.degree for e in self.E)
        if p > len(degs):
            return None
        return sum(degs[:p])

    def ceiling(self, p: int) -> int:
        return scan_ceiling(self.beta, self.ring.rep.degree, p)

    def precompute(self, p: int):
        """Blocks of R in every degree the scans of Tor_0..Tor_p read, after
        one Molien fetch: Tor_q reads up to ceiling(q) + guard minus the
        least degree of a (q-1)-subset of E. The scan of Tor_p walks up to
        ceiling(p) + guard, so that degree is refused first if over budget."""
        self.ring.refuse_over_budget(self.ceiling(p) + self.guard)
        top = self.ceiling(0)
        for q in range(1, min(p, len(self.E) + 1) + 1):
            top = max(top, self.ceiling(q) - self.min_subset_degree(q - 1))
        self.ring.precompute(range(top + self.guard + 1))

    def scan(self, p: int) -> dict:
        """d -> tor_data(p, d) for d = 0..ceiling(p), in increasing order.

        The guard degrees above the ceiling are computed too and must have
        no Tor_p: homology there would mean the ceiling is wrong, which is a
        bug, never a finding.
        """
        ceiling = self.ceiling(p)
        scanned = {d: self.tor_data(p, d) for d in range(ceiling + 1)}
        for d in range(ceiling + 1, ceiling + self.guard + 1):
            if self.tor_data(p, d)[0]:
                raise InternalInconsistency(
                    "ceiling violated — implementation bug or misread bound"
                )
        return scanned


def syzygy_degree(cx: KoszulComplex, p: int) -> int | None:
    """Top internal degree of Tor_p in the scan; None where Tor_p vanishes
    throughout it."""
    if p < 1:
        raise InvalidInput("syzygy degrees are defined for p >= 1")
    return max((d for d, (dim, _) in cx.scan(p).items() if dim), default=None)


@dataclass(frozen=True)
class TorTable:
    entries: dict  # (p, d) -> dimension, all scanned cells
    ceilings: dict  # p -> scan ceiling used
    mode: str

    def nonzero_rows(self):
        return [
            (p, d, dim)
            for (p, d), dim in sorted(self.entries.items())
            if dim
        ]

    def as_json(self):
        return {
            "mode": self.mode,
            "ceilings": {str(p): c for p, c in sorted(self.ceilings.items())},
            "rows": [list(r) for r in self.nonzero_rows()],
        }


def tor_table(cx: KoszulComplex, p_max: int) -> TorTable:
    """Full table for 0 <= p <= p_max up to the per-p ceiling.

    Includes the generation check in homological degree zero and, where the
    scanned range covers every nonvanishing chain space of an internal
    degree, the Euler-characteristic consistency check.
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
    if cx.weights_for_degree is None:
        min_beyond = cx.min_subset_degree(p_max + 1)
        for d in range(ceilings[0] + 1):
            if min_beyond is not None and min_beyond <= d:
                continue  # chains extend beyond the table; skip this degree
            chain_sum = 0
            tor_sum = 0
            for p in range(p_max + 1):
                sign = 1 if p % 2 == 0 else -1
                chain_sum += sign * cx.chain_dim(p, d)
                tor_sum += sign * entries[(p, d)]
            if chain_sum != tor_sum:
                raise InternalInconsistency(
                    f"Euler characteristic mismatch in degree {d}: "
                    f"chains {chain_sum} vs homology {tor_sum}"
                )
    return TorTable(entries=entries, ceilings=ceilings, mode=cx.gens.mode)
