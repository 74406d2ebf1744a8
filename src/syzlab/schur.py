"""Partition combinatorics and the weight-to-Schur-multiplicity machinery.

Partitions are tuples of weakly decreasing positive integers. One counter of
semistandard skew tableaux, `_fillings`, gives both the Kostka numbers (a
straight shape) and the Littlewood-Richardson coefficients (a skew shape,
lattice words only). Multiplicities are read off torus-weight dimensions by
back-substitution in integer arithmetic: the dominant weights are visited in
decreasing lex order, a linear extension of dominance, and each one's
dimension less the Kostka prediction of the decomposition found so far is
the multiplicity of its partition tuple. The same weight blocks that
organize the homology engine feed these checks, including the row-bound
certifications on R and on Tor and the comparison against the universal
representation; on R and on Tor alike, a few non-dominant blocks must meet
the decomposition's Kostka prediction.
"""

from __future__ import annotations

from functools import cache
from itertools import islice, product
from math import prod

from .errors import InternalInconsistency, InvalidInput
from .groups import IrrepCatalog, Representation
from .invariants import Grading, InvariantRing, NoetherResult, build_E
from .koszul import KoszulComplex, tor_complex
from .limits import DEFAULT_BUDGET, Budget
from .linalg import Matrix
from .monomials import monomial_count, monomials


# -- partitions ------------------------------------------------------------------


def partitions_of(size: int, max_rows: int | None = None):
    """All partitions of `size` (row-limited if asked), largest-first order."""
    if size < 0:
        raise InvalidInput("partition size must be nonnegative")
    rows = size if max_rows is None else max_rows

    def gen(k, max_part, budget):
        if k == 0:
            yield ()
            return
        if budget == 0 or max_part == 0:
            return
        for m in range(min(k, max_part), 0, -1):
            for rest in gen(k - m, m, budget - 1):
                yield (m,) + rest

    return list(gen(size, size, rows))


def _fillings(outer: tuple, inner: tuple, content: tuple, lattice: bool) -> int:
    """Semistandard fillings of the skew shape outer/inner with `content`
    (the number of entries i + 1 is content[i]), and, if `lattice`, with a
    lattice reading word. Cells are filled in reverse reading order: rows top
    to bottom, each right to left. So a cell's right and upper neighbours are
    filled first, and every prefix of the reading word is checked as it
    grows. The caller checks that the sizes agree."""
    inner = tuple(inner) + (0,) * (len(outer) - len(inner))
    tableau = [[0] * part for part in outer]
    counts = [0] * len(content)
    cells = [(r, c) for r, part in enumerate(outer) for c in range(part - 1, inner[r] - 1, -1)]

    def fill(pos):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        # rows weakly increase, columns strictly increase
        hi = tableau[r][c + 1] if c + 1 < outer[r] else len(content)
        lo = tableau[r - 1][c] + 1 if r and c >= inner[r - 1] else 1
        total = 0
        for v in range(lo, hi + 1):
            if counts[v - 1] == content[v - 1]:
                continue
            if lattice and v > 1 and counts[v - 2] == counts[v - 1]:
                continue
            tableau[r][c] = v
            counts[v - 1] += 1
            total += fill(pos + 1)
            counts[v - 1] -= 1
        return total

    return fill(0)


def kostka_number(lam: tuple, mu) -> int:
    """Semistandard tableaux of shape lam and content mu, a composition."""
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise InvalidInput("shape and content must have equal size")
    return _fillings(lam, (), mu, lattice=False)


def lr_coefficient(lam: tuple, mu: tuple, nu: tuple) -> int:
    """Littlewood-Richardson coefficient: lattice skew tableaux of shape
    lam/mu and content nu; zero on size mismatch or when mu is not inside lam."""
    if sum(lam) != sum(mu) + sum(nu) or len(mu) > len(lam):
        return 0
    if any(m > l for m, l in zip(mu, lam)):
        return 0
    return _fillings(lam, mu, nu, lattice=True)


def schur_dim(lam: tuple, k: int) -> int:
    """dim S_lam(C^k) by the hook-content formula; zero above k rows."""
    if len(lam) > k:
        return 0
    if not lam:
        return 1
    conj = [0] * lam[0]
    for part in lam:
        for j in range(part):
            conj[j] += 1
    contents = hooks = 1
    for i, part in enumerate(lam):
        for j in range(part):
            contents *= k + j - i
            hooks *= part - j + conj[j] - i - 1
    dim, rem = divmod(contents, hooks)
    if rem:
        raise InternalInconsistency(
            f"hook-content formula gave dim S_{lam}(C^{k}) = {contents}/{hooks}"
        )
    return dim


# -- universal specializations -----------------------------------------------------


def specialization(catalog: IrrepCatalog, multiplicities) -> Representation:
    """The block-diagonal sum of k_i copies of U_i, copies in catalog order."""
    mults = tuple(multiplicities)
    if len(mults) != len(catalog.irreps):
        raise InvalidInput(
            f"need {len(catalog.irreps)} multiplicities, got {len(mults)}"
        )
    if any(k < 0 for k in mults):
        raise InvalidInput("multiplicities must be nonnegative")
    copies = [irrep for irrep, k in zip(catalog.irreps, mults) for _ in range(k)]
    dim = sum(irrep.degree for irrep in copies)
    images = []
    for a in range(catalog.group.order):
        data = [[0] * dim for _ in range(dim)]
        pos = 0
        for irrep in copies:
            m = irrep.images[a]
            for i, row in enumerate(m.data):
                data[pos + i][pos : pos + m.cols] = row
            pos += m.rows
        images.append(Matrix(dim, dim, data))
    return Representation(catalog.group, images, check=False)


def specialization_ring(catalog: IrrepCatalog, multiplicities, budget: Budget) -> InvariantRing:
    """The specialization's invariant ring, graded by one weight coordinate
    per copy of an irreducible."""
    mults = tuple(multiplicities)
    rep = specialization(catalog, mults)
    sizes = [irrep.degree for irrep, k in zip(catalog.irreps, mults) for _ in range(k)]
    return InvariantRing(rep, grading=Grading(tuple(sizes)), budget=budget)


def universal_multiplicities(catalog: IrrepCatalog, noether: NoetherResult, p: int) -> tuple:
    """The dominating specialization's multiplicity beta*p + d_i on factor i."""
    if p < 1:
        raise InvalidInput("homological degree must be at least 1")
    return tuple(noether.value * p + d for d in catalog.degrees)


def split_weight(flat: tuple, multiplicities) -> tuple:
    """Flat weight -> per-factor tuples of coordinate weights."""
    out = []
    pos = 0
    for k in multiplicities:
        out.append(tuple(flat[pos : pos + k]))
        pos += k
    return tuple(out)


def _is_dominant(per_factor) -> bool:
    """Weakly decreasing within every factor."""
    return all(all(a >= b for a, b in zip(t, t[1:])) for t in per_factor)


@cache
def dominant_weights(total: int, multiplicities: tuple) -> tuple:
    """Flat weights of degree `total` that are weakly decreasing within each
    factor, listed once per (total, multiplicities)."""
    out = []
    for split in monomials(len(multiplicities), total):
        per_factor = [
            [lam + (0,) * (k - len(lam)) for lam in partitions_of(t, max_rows=k)]
            for t, k in zip(split, multiplicities)
        ]
        out.extend(sum(c, ()) for c in product(*per_factor))
    return tuple(out)


# -- Schur decompositions from weight data -------------------------------------------


class SchurDecomposition:
    """Multiplicities of tensor products of Schur functors, keyed by tuples
    of partitions (one per factor)."""

    __slots__ = ("multiplicities", "factor_dims")

    def __init__(self, multiplicities: dict, factor_dims: tuple):
        self.multiplicities = multiplicities
        self.factor_dims = factor_dims

    def total_dim(self) -> int:
        return sum(
            m * prod(schur_dim(lam, k) for lam, k in zip(lams, self.factor_dims))
            for lams, m in self.multiplicities.items()
        )

    def weight_dim(self, per_factor_weight) -> int:
        """Expected dimension of any weight block, via Kostka numbers."""
        total = 0
        for lams, m in self.multiplicities.items():
            term = m
            for lam, w in zip(lams, per_factor_weight):
                if term == 0:
                    break
                if sum(lam) != sum(w):
                    term = 0
                    break
                term *= kostka_number(lam, sorted(w, reverse=True))
            total += term
        return total

    def support(self):
        return sorted(self.multiplicities, reverse=True)


def schur_multiplicities(
    weight_dims: dict,
    multiplicities,
    ambient_dim: int | None = None,
) -> SchurDecomposition:
    """Invert weight-block dimensions to Schur multiplicities.

    `weight_dims` maps flat weights to exact dimensions; it may contain only
    the dominant weights, and only the nonzero ones. The inversion visits
    every dominant weight of each degree the data has, reading 0 where it
    has no entry, so an empty dominant block that the decomposition
    predicts nonzero is an inconsistency. When `ambient_dim` is given the
    decomposition must reconstruct it exactly.
    """
    mults = tuple(multiplicities)
    dominant = {}
    for total in {sum(w) for w in weight_dims}:
        for w in dominant_weights(total, mults):
            dominant[split_weight(w, mults)] = weight_dims.get(w, 0)
    decomp = SchurDecomposition(multiplicities={}, factor_dims=mults)
    # a tuple strictly dominating mu_t is lex-larger, so it is found before
    # mu_t is reached, and the decomposition so far predicts mu_t's block
    # less the copies of S_(mu_t) itself
    for mu_t in sorted(dominant, reverse=True):
        value = dominant[mu_t] - decomp.weight_dim(mu_t)
        if value < 0:
            raise InternalInconsistency(
                "weight data inconsistent: negative Schur multiplicity"
            )
        if value:
            decomp.multiplicities[tuple(tuple(x for x in t if x) for t in mu_t)] = value
    if ambient_dim is not None and decomp.total_dim() != ambient_dim:
        raise InternalInconsistency(
            f"weight data inconsistent: Schur dimensions total {decomp.total_dim()}, "
            f"ambient space has {ambient_dim}"
        )
    return decomp


def row_bound_check(decomp: SchurDecomposition, bounds) -> dict:
    """Pass iff every supported partition tuple respects the per-factor row
    bounds; requires each factor dimension > bound, else a violation could
    sit invisibly above the truncation. Returns the report's
    {passed, bounds, witnesses}, each witness a list of partitions."""
    bounds = tuple(bounds)
    for k, b in zip(decomp.factor_dims, bounds):
        if k < b + 1:
            raise InvalidInput("factor dimension too small to certify bound")
    witnesses = [
        lams
        for lams in decomp.support()
        if any(len(lam) > b for lam, b in zip(lams, bounds))
    ]
    return {
        "passed": not witnesses,
        "bounds": list(bounds),
        "witnesses": [[list(lam) for lam in w] for w in witnesses],
    }


def cauchy_check(catalog: IrrepCatalog, i: int, k: int, d: int) -> dict:
    """Compare dim Sym^d(C^(d_i) (x) C^k) against its Schur-pair expansion."""
    di = catalog.degrees[i]
    lhs = monomial_count(di * k, d)
    rhs = 0
    for lam in partitions_of(d, max_rows=min(di, k)):
        rhs += schur_dim(lam, di) * schur_dim(lam, k)
    return {"passed": lhs == rhs, "lhs": lhs, "rhs": rhs}


# -- engine-facing checks --------------------------------------------------------------


def _dominant_complex(
    catalog: IrrepCatalog, mults, noether: NoetherResult, budget: Budget
) -> KoszulComplex | None:
    """The full-generator complex of a specialization on its dominant weight
    blocks only, or None when the specialization is zero-dimensional and so
    has no Tor_p for p >= 1. Tor_p is a polynomial GL(U_1) x ... x
    GL(U_n)-module, so a Tor cell is nonzero exactly when one of its
    dominant blocks is, and the Schur inversion reads nothing else.

    `tor_complex` picks the complex: the finite K(Ē; R/θR) wherever it
    certifies a system of parameters θ in E (the pure powers x_c^(k_c) of a
    diagonal specialization), else the complex over R."""
    ring = specialization_ring(catalog, mults, budget)
    if not ring.nvars:
        return None
    return tor_complex(
        ring,
        build_E(ring, "full", noether),
        noether.value,
        weights_for_degree=lambda d: dominant_weights(d, mults),
    )


def _decompositions(cx: KoszulComplex, mults, p: int):
    """(d, dim Tor_(p,d) on dominant blocks, its Schur decomposition) for
    every degree of the scan with nonzero Tor_p, each decomposition's
    non-dominant blocks spot-checked against their Kostka prediction."""
    for d, (total, wd) in cx.scan(p).items():
        if total:
            decomp = schur_multiplicities(wd, mults)
            _cross_check_nondominant(cx, mults, decomp, p, d)
            yield d, total, decomp


def ring_row_bounds(
    catalog: IrrepCatalog,
    max_degree: int,
    budget: Budget = DEFAULT_BUDGET,
) -> dict:
    """Certify the per-factor row bound d_i on R_d for all d <= max_degree,
    at the certifying truncation dim U_i = d_i + 1."""
    bounds = tuple(catalog.degrees)
    mults = tuple(d + 1 for d in catalog.degrees)
    ring = specialization_ring(catalog, mults, budget)
    per_degree = []
    for d in range(max_degree + 1):
        wd = ring.weight_dims(d)
        decomp = schur_multiplicities(wd, mults, ambient_dim=ring.dim(d))
        nondominant = (
            (w, dim) for w, dim in sorted(wd.items(), reverse=True)
            if not _is_dominant(split_weight(w, mults))
        )
        _check_kostka_prediction(decomp, mults, islice(nondominant, 3))
        per_degree.append(
            {
                "degree": d,
                "report": row_bound_check(decomp, bounds),
                "support": [[list(l) for l in lams] for lams in decomp.support()],
            }
        )
    return {
        "passed": all(row["report"]["passed"] for row in per_degree),
        "bounds": list(bounds),
        "per_degree": per_degree,
    }


def _check_kostka_prediction(decomp: SchurDecomposition, mults, blocks):
    """Each (flat weight, dimension) of `blocks`, non-dominant weight blocks
    of R or of Tor, must have the dimension the decomposition of the
    dominant ones predicts: a polynomial GL-module's weight multiplicities
    are its Kostka sums, whatever the order of the coordinates."""
    for w, dim in blocks:
        if dim != decomp.weight_dim(split_weight(w, mults)):
            raise InternalInconsistency(
                "a non-dominant weight block disagrees with the Kostka prediction "
                "of the dominant-weight decomposition"
            )


def tor_row_bounds(
    catalog: IrrepCatalog,
    noether: NoetherResult,
    p: int,
    budget: Budget = DEFAULT_BUDGET,
) -> dict:
    """Certify the row bound beta*p + d_i on Tor_p at the certifying
    truncation, computing dominant weight blocks only (the inversion needs
    nothing else; a few non-dominant blocks are cross-checked)."""
    if not budget.allows_tor_row_bounds(catalog.group.order, p):
        return _outside_budget(catalog, p)
    bounds = universal_multiplicities(catalog, noether, p)
    mults = tuple(b + 1 for b in bounds)
    cx = _dominant_complex(catalog, mults, noether, budget)
    per_degree = [
        {
            "degree": d,
            "tor_dim_dominant": total,
            "report": row_bound_check(decomp, bounds),
            "support": [[list(l) for l in lams] for lams in decomp.support()],
        }
        for d, total, decomp in _decompositions(cx, mults, p)
    ]
    return {
        "skipped": False,
        "passed": all(row["report"]["passed"] for row in per_degree),
        "bounds": list(bounds),
        "multiplicities": list(mults),
        "per_degree": per_degree,
    }


def _outside_budget(catalog: IrrepCatalog, p: int) -> dict:
    """The report of a Tor check the budget does not allow."""
    return {
        "skipped": True,
        "reason": f"outside budget (order {catalog.group.order}, p {p}); "
        "raise --budget-level to run",
    }


def _cross_check_nondominant(cx, mults, decomp, p, d):
    """Compute two non-dominant Tor blocks on the scan's complex restricted
    to them, which shares its subset lists and products r . e_t, and compare
    them with the Kostka prediction of the dominant-only decomposition."""
    targets = []
    for lams in decomp.support():
        # each factor's partition reversed: weakly increasing, not dominant
        flat = sum(((0,) * (k - len(lam)) + lam[::-1] for lam, k in zip(lams, mults)), ())
        if _is_dominant(split_weight(flat, mults)):
            continue  # permutation happened to stay dominant
        targets.append(flat)
        if len(targets) == 2:
            break
    if targets:
        _, wd = cx.restricted(lambda _d: targets).tor_data(p, d)
        _check_kostka_prediction(decomp, mults, [(flat, wd.get(flat, 0)) for flat in targets])


def stabilization_check(
    catalog: IrrepCatalog,
    noether: NoetherResult,
    p: int,
    d: int,
    budget: Budget = DEFAULT_BUDGET,
    base_multiplicities=None,
) -> dict:
    """Vanishing of Tor_(p,d) must agree between the reference truncation
    (beta*p + d_i by default) and the one-larger truncation. Both complexes
    are built before either computes Tor, so a truncation the budget
    refuses is refused first."""
    if base_multiplicities is None:
        base = universal_multiplicities(catalog, noether, p)
    else:
        base = tuple(base_multiplicities)
    bigger = tuple(k + 1 for k in base)
    complexes = [_dominant_complex(catalog, mults, noether, budget) for mults in (base, bigger)]
    nonzero = [cx is not None and cx.tor_dimension(p, d) > 0 for cx in complexes]
    return {
        "passed": nonzero[0] == nonzero[1],
        "base_multiplicities": list(base),
        "nonzero_at_base": nonzero[0],
        "nonzero_at_enlarged": nonzero[1],
    }


def _checked_syzygy_degree(cx: KoszulComplex | None, mults, p: int):
    """s'_p of a specialization from its dominant weight blocks, None where
    Tor_p vanishes.

    The scan computes every full degree its chains reach, so the Reynolds
    dimensions meet the Molien series there (on R/θR, the Hilbert
    series H_R(t) prod_i (1 - t^(deg θ_i))); each degree with nonzero Tor_p
    has its non-dominant blocks spot-checked against the Schur
    decomposition of the dominant ones.
    """
    if cx is None:
        return None
    return max((d for d, _, _ in _decompositions(cx, mults, p)), default=None)


def domination_check(
    catalog: IrrepCatalog,
    noether: NoetherResult,
    p: int,
    samples,
    budget: Budget = DEFAULT_BUDGET,
) -> dict:
    """s'_p of every sample must be at most s'_p of the universal
    specialization. Both sides use the full generator space and compute
    dominant weight blocks only; the checks of the all-weights scan stay:
    Reynolds against Molien on every full degree the scan reaches, the
    non-dominant Tor blocks against the Kostka prediction, and d^2 = 0 and
    the empty guard band on every block computed. A sample equal to the
    universal multiplicities reads s'_p off the universal side. Outside the
    budget's Tor gate the check is skipped, as `tor_row_bounds` is."""
    if not budget.allows_tor_row_bounds(catalog.group.order, p):
        return _outside_budget(catalog, p)
    w_mults = universal_multiplicities(catalog, noether, p)
    w_cx = _dominant_complex(catalog, w_mults, noether, budget)
    dimension = w_cx.ring.nvars
    if dimension != noether.value * catalog.m * p + catalog.group.order:
        raise InternalInconsistency(
            "universal specialization dimension disagrees with beta*m*p + g"
        )
    s_w = _checked_syzygy_degree(w_cx, w_mults, p)
    rows = []
    for mults in map(tuple, samples):
        if mults == w_mults:
            s_v = s_w
        else:
            s_v = _checked_syzygy_degree(_dominant_complex(catalog, mults, noether, budget), mults, p)
        rows.append(
            {
                "multiplicities": list(mults),
                "s_prime": s_v if s_v is not None else "none",
                "dominated": s_v is None or (s_w is not None and s_v <= s_w),
            }
        )
    return {
        "passed": all(row["dominated"] for row in rows),
        "p": p,
        "universal_multiplicities": list(w_mults),
        "universal_dimension": dimension,
        "s_prime_universal": s_w if s_w is not None else "none",
        "samples": rows,
    }
