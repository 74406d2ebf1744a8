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
from itertools import combinations
from operator import add, ge, sub

from .errors import InternalInconsistency, InvalidInput
from .invariants import GeneratorSet, InvariantRing
from .linalg import Matrix, _int_if_integral, rank
from .monomials import poly_mul


def scan_ceiling(beta: int, dim_v: int, p: int) -> int:
    """Degree ceiling (beta-1)*dim(V) + beta*p for the degree-p syzygies."""
    return (beta - 1) * dim_v + beta * p


def _wadd(a: tuple, b: tuple) -> tuple:
    return tuple(map(add, a, b))


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
        self._diffs: dict = {}
        # (R degree, R weight, R index, t) -> nonzero [(index, coefficient)]
        # of r . e_t in the block basis of (R degree + deg e_t, R weight + wt e_t)
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
        """Weight -> ordered chain basis [(subset, r_weight, r_index)] at (p, d)."""
        key = (p, d)
        hit = self._chains.get(key)
        if hit is not None:
            return hit
        blocks: dict = {}
        allowed = (
            None if self.weights_for_degree is None else set(self.weights_for_degree(d))
        )
        # (R degree, subset weight) -> [(total weight, R weight, R block size)]
        # over the nonempty R blocks; many subsets share one key
        fits: dict = {}
        for s, sdeg, sw in self._subsets(p):
            rdeg = d - sdeg
            if rdeg < 0:
                continue
            found = fits.get((rdeg, sw))
            if found is None:
                if allowed is None:
                    found = [
                        (_wadd(sw, rw), rw, len(basis))
                        for rw, basis in self.ring.blocks(rdeg).items()
                    ]
                else:
                    found = []
                    for w in allowed:
                        if all(map(ge, w, sw)):
                            rw = tuple(map(sub, w, sw))
                            n = len(self.ring.block_basis(rdeg, rw))
                            if n:
                                found.append((w, rw, n))
                fits[(rdeg, sw)] = found
            for w, rw, n in found:
                blocks.setdefault(w, []).extend((s, rw, ri) for ri in range(n))
        ordered = {w: blocks[w] for w in sorted(blocks, reverse=True)}
        self._chains[key] = ordered
        return ordered

    def chain_dim(self, p: int, d: int) -> int:
        return sum(len(v) for v in self.chain_blocks(p, d).values())

    # -- differential ----------------------------------------------------------------

    def differential(self, p: int, d: int) -> dict:
        """Weight -> matrix of d_p : C_p -> C_(p-1) in internal degree d."""
        if p < 1:
            raise InvalidInput("the differential is defined for p >= 1")
        key = (p, d)
        hit = self._diffs.get(key)
        if hit is not None:
            return hit
        src = self.chain_blocks(p, d)
        tgt = self.chain_blocks(p - 1, d)
        tgt_pos = {
            w: {elem: i for i, elem in enumerate(els)} for w, els in tgt.items()
        }
        mats = {}
        for w, els in src.items():
            nrows = len(tgt.get(w, ()))
            data = [[0] * len(els) for _ in range(nrows)]
            pos = tgt_pos.get(w, {})
            for col, (s, rw, ri) in enumerate(els):
                rdeg = d - sum(self.E[t].degree for t in s)
                for j, t in enumerate(s):
                    s2 = s[:j] + s[j + 1 :]
                    rw2 = _wadd(rw, self.E[t].weight)
                    negate = j % 2 == 1
                    for ri2, c in self._times_generator(rdeg, rw, ri, t):
                        row = pos[(s2, rw2, ri2)]
                        data[row][col] = data[row][col] + (-c if negate else c)
            mats[w] = Matrix(nrows, len(els), data)
        self._diffs[key] = mats
        return mats

    def _times_generator(self, rdeg: int, rw: tuple, ri: int, t: int) -> tuple:
        """Nonzero coordinates of r . e_t, r the ri-th basis element of the
        R block (rdeg, rw); computed once per complex, for every p."""
        key = (rdeg, rw, ri, t)
        hit = self._products.get(key)
        if hit is None:
            r_el = self.ring.block_basis(rdeg, rw)[ri]
            e = self.E[t]
            coords = self.ring.coords_in_basis(
                poly_mul(r_el.poly, e.poly), rdeg + e.degree, _wadd(rw, e.weight)
            )
            hit = self._products[key] = tuple(
                (i, _int_if_integral(c)) for i, c in enumerate(coords) if c
            )
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


@dataclass(frozen=True)
class SyzygyResult:
    p: int
    degree: int | None  # None: Tor_p vanishes entirely in the scan window
    mode: str

    def as_json(self):
        return {"p": self.p, "degree": self.degree if self.degree is not None else "none", "mode": self.mode}


def syzygy_degree(cx: KoszulComplex, p: int) -> SyzygyResult:
    """Top internal degree of Tor_p, scanned to the ceiling plus a guard band.

    Nonzero homology inside the guard band would mean the scan ceiling is
    wrong, which is a bug, never a finding.
    """
    if p < 1:
        raise InvalidInput("syzygy degrees are defined for p >= 1")
    ceiling = scan_ceiling(cx.beta, cx.ring.rep.degree, p)
    best = None
    for d in range(0, ceiling + cx.guard + 1):
        if cx.tor_dimension(p, d) > 0:
            if d > ceiling:
                raise InternalInconsistency(
                    "ceiling violated — implementation bug or misread bound"
                )
            best = d
    return SyzygyResult(p=p, degree=best, mode=cx.gens.mode)


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
    dim_v = cx.ring.rep.degree
    entries = {}
    ceilings = {}
    for p in range(p_max + 1):
        ceiling = scan_ceiling(cx.beta, dim_v, p)
        ceilings[p] = ceiling
        for d in range(ceiling + cx.guard + 1):
            dim = cx.tor_dimension(p, d)
            if d <= ceiling:
                entries[(p, d)] = dim
            elif dim:
                raise InternalInconsistency(
                    "ceiling violated — implementation bug or misread bound"
                )
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
