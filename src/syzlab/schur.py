"""Partition combinatorics and the weight-to-Schur-multiplicity machinery.

Partitions are tuples of weakly decreasing positive integers. Multiplicity
extraction from torus-weight dimensions goes through dominance-ordered
Kostka back-substitution, factor by factor, staying in integer arithmetic
throughout. The same weight blocks that organize the homology engine feed
these checks, including the row-bound certifications on R and on Tor and
the comparison against the universal representation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .errors import InternalInconsistency, InvalidInput
from .groups import IrrepCatalog, Representation
from .invariants import Grading, InvariantRing, NoetherResult, build_E
from .koszul import KoszulComplex
from .limits import DEFAULT_BUDGET, Budget
from .linalg import Matrix
from .monomials import monomials


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


def dominates(lam: tuple, mu: tuple) -> bool:
    """Dominance order on partitions/weights of equal size."""
    acc_l = acc_m = 0
    for i in range(max(len(lam), len(mu))):
        acc_l += lam[i] if i < len(lam) else 0
        acc_m += mu[i] if i < len(mu) else 0
        if acc_l < acc_m:
            return False
    return acc_l == acc_m


def _strip_zeros(w: tuple) -> tuple:
    out = list(w)
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def kostka_number(lam: tuple, mu) -> int:
    """Semistandard tableaux of shape lam and content mu, by enumeration."""
    mu = tuple(mu)
    if sum(lam) != sum(mu):
        raise InvalidInput("shape and content must have equal size")
    if not lam:
        return 1
    nvals = len(mu)
    rows = len(lam)
    tableau = [[0] * lam[r] for r in range(rows)]
    counts = [0] * nvals
    cells = [(r, c) for r in range(rows) for c in range(lam[r])]

    def fill(pos):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        lo = tableau[r][c - 1] if c > 0 else 1
        above = tableau[r - 1][c] if r > 0 and c < lam[r - 1] else 0
        lo = max(lo, above + 1)
        total = 0
        for v in range(lo, nvals + 1):
            if counts[v - 1] < mu[v - 1]:
                tableau[r][c] = v
                counts[v - 1] += 1
                total += fill(pos + 1)
                counts[v - 1] -= 1
                tableau[r][c] = 0
        return total

    return fill(0)


def lr_coefficient(lam: tuple, mu: tuple, nu: tuple) -> int:
    """Littlewood-Richardson coefficient via lattice skew tableaux of shape
    lam/mu and content nu; zero on size mismatch or when mu is not inside lam."""
    if sum(lam) != sum(mu) + sum(nu):
        return 0
    if len(mu) > len(lam):
        return 0
    if any(mu[i] > lam[i] for i in range(len(mu))):
        return 0
    if not nu:
        return 1 if lam == mu else 0
    rows = len(lam)
    inner = tuple(mu) + (0,) * (rows - len(mu))
    nvals = len(nu)
    tableau = [[0] * lam[r] for r in range(rows)]
    counts = [0] * nvals
    # reverse reading order: each row right-to-left, rows top-to-bottom,
    # so the lattice condition can be enforced as cells are placed
    cells = [
        (r, c) for r in range(rows) for c in range(lam[r] - 1, inner[r] - 1, -1)
    ]

    def fill(pos):
        if pos == len(cells):
            return 1
        r, c = cells[pos]
        total = 0
        for v in range(1, nvals + 1):
            if counts[v - 1] >= nu[v - 1]:
                continue
            if v > 1 and counts[v - 2] <= counts[v - 1]:
                continue  # lattice word would break
            if c + 1 < lam[r] and tableau[r][c + 1] < v:
                continue  # row must stay weakly increasing
            if r > 0 and c >= inner[r - 1] and c < lam[r - 1] and tableau[r - 1][c] >= v:
                continue  # column must stay strictly increasing
            tableau[r][c] = v
            counts[v - 1] += 1
            total += fill(pos + 1)
            counts[v - 1] -= 1
            tableau[r][c] = 0
        return total

    return fill(0)


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


@dataclass(frozen=True)
class UniversalSpec:
    """A chosen multiplicity vector (dim U_1..dim U_n) with its assembled
    representation carrying the per-copy weight grading."""

    catalog: IrrepCatalog
    multiplicities: tuple
    rep: Representation
    grading: Grading

    @property
    def dimension(self) -> int:
        return self.rep.degree


def spec_from_multiplicities(catalog: IrrepCatalog, multiplicities) -> UniversalSpec:
    mults = tuple(multiplicities)
    if len(mults) != len(catalog.irreps):
        raise InvalidInput(
            f"need {len(catalog.irreps)} multiplicities, got {len(mults)}"
        )
    if any(k < 0 for k in mults):
        raise InvalidInput("multiplicities must be nonnegative")
    group = catalog.group
    group_sizes = []
    for irrep, k in zip(catalog.irreps, mults):
        group_sizes.extend([irrep.degree] * k)
    dim = sum(group_sizes)
    images = []
    for a in range(group.order):
        data = [[0] * dim for _ in range(dim)]
        pos = 0
        for irrep, k in zip(catalog.irreps, mults):
            m = irrep.images[a]
            for _ in range(k):
                for i in range(m.rows):
                    for j in range(m.cols):
                        data[pos + i][pos + j] = m.at(i, j)
                pos += m.rows
        images.append(Matrix(dim, dim, data))
    rep = Representation(group, images, check=False)
    return UniversalSpec(
        catalog=catalog,
        multiplicities=mults,
        rep=rep,
        grading=Grading(tuple(group_sizes)),
    )


def build_universal_rep(catalog: IrrepCatalog, noether: NoetherResult, p: int) -> UniversalSpec:
    """The dominating specialization: multiplicity beta*p + d_i on factor i."""
    if p < 1:
        raise InvalidInput("homological degree must be at least 1")
    beta = noether.value
    mults = [beta * p + d for d in catalog.degrees]
    spec = spec_from_multiplicities(catalog, mults)
    g = catalog.group.order
    m = catalog.m
    if spec.dimension != beta * m * p + g:
        raise InternalInconsistency(
            "universal specialization dimension disagrees with beta*m*p + g"
        )
    return spec


def split_weight(flat: tuple, multiplicities) -> tuple:
    """Flat weight -> per-factor tuples of coordinate weights."""
    out = []
    pos = 0
    for k in multiplicities:
        out.append(tuple(flat[pos : pos + k]))
        pos += k
    return tuple(out)


def dominant_weights(total: int, multiplicities):
    """Flat weights that are weakly decreasing within each factor."""
    mults = tuple(multiplicities)
    out = []
    for split in monomials(len(mults), total):
        per_factor = []
        for t, k in zip(split, mults):
            opts = [
                lam + (0,) * (k - len(lam)) for lam in partitions_of(t, max_rows=k)
            ]
            per_factor.append(opts)
        combos = [()]
        for opts in per_factor:
            if not opts:
                combos = []
                break
            combos = [c + o for c in combos for o in opts]
        out.extend(combos)
    return out


# -- Schur decompositions from weight data -------------------------------------------


@dataclass(frozen=True)
class SchurDecomposition:
    """Multiplicities of tensor products of Schur functors, keyed by tuples
    of partitions (one per factor)."""

    multiplicities: dict
    factor_dims: tuple

    def total_dim(self) -> int:
        return sum(
            m * self._tuple_dim(lams) for lams, m in self.multiplicities.items()
        )

    def _tuple_dim(self, lams) -> int:
        out = 1
        for lam, k in zip(lams, self.factor_dims):
            out *= schur_dim(lam, k)
        return out

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
                term *= kostka_number(lam, _strip_zeros(tuple(sorted(w, reverse=True))))
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
    the dominant weights (that is all the inversion reads). When
    `ambient_dim` is given the decomposition must reconstruct it exactly.
    """
    mults = tuple(multiplicities)
    dominant = {}
    for w, dim in weight_dims.items():
        per = split_weight(w, mults)
        if all(all(t[i] >= t[i + 1] for i in range(len(t) - 1)) for t in per):
            if dim:
                dominant[per] = dim
    result: dict = {}
    for mu_t in sorted(dominant, reverse=True):
        expected = 0
        sizes = [sum(t) for t in mu_t]
        options = [
            [
                lam
                for lam in partitions_of(size, max_rows=k)
                if dominates(lam, _strip_zeros(mu))
            ]
            for size, k, mu in zip(sizes, mults, mu_t)
        ]
        combos = [()]
        for opts in options:
            combos = [c + (o,) for c in combos for o in opts]
        mu_key = tuple(_strip_zeros(t) for t in mu_t)
        for lam_t in combos:
            if lam_t == mu_key:
                continue
            m = result.get(lam_t)
            if not m:
                continue
            term = m
            for lam, mu in zip(lam_t, mu_key):
                term *= kostka_number(lam, mu)
            expected += term
        value = dominant[mu_t] - expected
        if value < 0:
            raise InternalInconsistency(
                "weight data inconsistent: negative Schur multiplicity"
            )
        if value:
            result[mu_key] = value
    decomp = SchurDecomposition(multiplicities=dict(result), factor_dims=mults)
    if ambient_dim is not None and decomp.total_dim() != ambient_dim:
        raise InternalInconsistency(
            f"weight data inconsistent: Schur dimensions total {decomp.total_dim()}, "
            f"ambient space has {ambient_dim}"
        )
    return decomp


@dataclass(frozen=True)
class RowBoundReport:
    passed: bool
    bounds: tuple
    witnesses: tuple

    def as_json(self):
        return {
            "passed": self.passed,
            "bounds": list(self.bounds),
            "witnesses": [[list(lam) for lam in w] for w in self.witnesses],
        }


def row_bound_check(decomp: SchurDecomposition, bounds) -> RowBoundReport:
    """Pass iff every supported partition tuple respects the per-factor row
    bounds; requires each factor dimension > bound, else a violation could
    sit invisibly above the truncation."""
    bounds = tuple(bounds)
    for k, b in zip(decomp.factor_dims, bounds):
        if k < b + 1:
            raise InvalidInput("factor dimension too small to certify bound")
    witnesses = [
        lams
        for lams in decomp.support()
        if any(len(lam) > b for lam, b in zip(lams, bounds))
    ]
    return RowBoundReport(passed=not witnesses, bounds=bounds, witnesses=tuple(witnesses))


def cauchy_check(catalog: IrrepCatalog, i: int, k: int, d: int) -> dict:
    """Compare dim Sym^d(C^(d_i) (x) C^k) against its Schur-pair expansion."""
    di = catalog.degrees[i]
    if d == 0:
        lhs = 1
    else:
        lhs = comb(di * k + d - 1, d) if di * k > 0 else 0
    rhs = 0
    for lam in partitions_of(d, max_rows=min(di, k)):
        rhs += schur_dim(lam, di) * schur_dim(lam, k)
    return {"passed": lhs == rhs, "lhs": lhs, "rhs": rhs}


# -- engine-facing checks --------------------------------------------------------------


def _spec_complex(
    spec: UniversalSpec, noether: NoetherResult, budget: Budget
) -> KoszulComplex:
    """The full-generator complex of a specialization on its dominant weight
    blocks only. Tor_p is a polynomial GL(U_1) x ... x GL(U_n)-module, so a
    Tor cell is nonzero exactly when one of its dominant blocks is, and the
    Schur inversion reads nothing else."""
    ring = InvariantRing(spec.rep, grading=spec.grading, budget=budget)
    gens = build_E(ring, "full", noether)
    mults = spec.multiplicities
    return KoszulComplex(
        ring,
        gens,
        noether.value,
        weights_for_degree=lambda d: dominant_weights(d, mults),
    )


def ring_row_bounds(
    catalog: IrrepCatalog,
    max_degree: int,
    budget: Budget = DEFAULT_BUDGET,
) -> dict:
    """Certify the per-factor row bound d_i on R_d for all d <= max_degree,
    at the certifying truncation dim U_i = d_i + 1."""
    bounds = tuple(catalog.degrees)
    mults = tuple(d + 1 for d in catalog.degrees)
    spec = spec_from_multiplicities(catalog, mults)
    ring = InvariantRing(spec.rep, grading=spec.grading, budget=budget)
    per_degree = []
    passed = True
    for d in range(max_degree + 1):
        wd = ring.weight_dims(d)
        _assert_weight_symmetry(wd, mults)
        decomp = schur_multiplicities(wd, mults, ambient_dim=ring.dim(d))
        report = row_bound_check(decomp, bounds)
        passed = passed and report.passed
        per_degree.append(
            {
                "degree": d,
                "report": report.as_json(),
                "support": [[list(l) for l in lams] for lams in decomp.support()],
            }
        )
    return {"passed": passed, "bounds": list(bounds), "per_degree": per_degree}


def _assert_weight_symmetry(weight_dims: dict, mults):
    """Weight multiplicities must not change under coordinate permutations
    within a factor; spot-checked on the first three non-dominant weights."""
    checked = 0
    for w, dim in sorted(weight_dims.items(), reverse=True):
        per = split_weight(w, mults)
        sorted_per = tuple(tuple(sorted(t, reverse=True)) for t in per)
        if per == sorted_per:
            continue
        flat = tuple(x for t in sorted_per for x in t)
        if weight_dims.get(flat, 0) != dim:
            raise InternalInconsistency(
                "weight multiplicities are not symmetric under coordinate permutations"
            )
        checked += 1
        if checked == 3:
            break


def tor_row_bounds(
    catalog: IrrepCatalog,
    noether: NoetherResult,
    p: int,
    budget: Budget = DEFAULT_BUDGET,
) -> dict:
    """Certify the row bound beta*p + d_i on Tor_p at the certifying
    truncation, computing dominant weight blocks only (the inversion needs
    nothing else; a few non-dominant blocks are cross-checked)."""
    group = catalog.group
    if group.order > budget.tor_row_bound_max_order or p > budget.tor_row_bound_max_p:
        return {
            "skipped": True,
            "reason": f"outside budget (order {group.order}, p {p}); "
            "raise --budget-level to run",
        }
    beta = noether.value
    bounds = tuple(beta * p + d for d in catalog.degrees)
    mults = tuple(b + 1 for b in bounds)
    spec = spec_from_multiplicities(catalog, mults)
    cx = _spec_complex(spec, noether, budget)
    per_degree = []
    passed = True
    for d, (total, wd) in cx.scan(p).items():
        if not total:
            continue
        decomp = schur_multiplicities(wd, mults)
        _cross_check_nondominant(cx, spec, decomp, p, d)
        report = row_bound_check(decomp, bounds)
        passed = passed and report.passed
        per_degree.append(
            {
                "degree": d,
                "tor_dim_dominant": total,
                "report": report.as_json(),
                "support": [[list(l) for l in lams] for lams in decomp.support()],
            }
        )
    return {
        "skipped": False,
        "passed": passed,
        "bounds": list(bounds),
        "multiplicities": list(mults),
        "per_degree": per_degree,
    }


def _cross_check_nondominant(cx, spec, decomp, p, d):
    """Recompute two non-dominant Tor blocks and compare with the Kostka
    prediction from the dominant-only decomposition."""
    mults = spec.multiplicities
    targets = []
    for lams in decomp.support():
        flat = []
        for lam, k in zip(lams, mults):
            padded = list(lam) + [0] * (k - len(lam))
            flat.extend(reversed(padded))  # weakly increasing: not dominant
        flat = tuple(flat)
        per = split_weight(flat, mults)
        if all(tuple(t) == tuple(sorted(t, reverse=True)) for t in per):
            continue  # permutation happened to stay dominant
        targets.append(flat)
        if len(targets) == 2:
            break
    if not targets:
        return
    probe = KoszulComplex(
        cx.ring, cx.gens, cx.beta, weights_for_degree=lambda _d: list(targets)
    )
    _, wd = probe.tor_data(p, d)
    for flat in targets:
        got = wd.get(flat, 0)
        want = decomp.weight_dim(split_weight(flat, mults))
        if got != want:
            raise InternalInconsistency(
                "non-dominant Tor block disagrees with the dominant-weight decomposition"
            )


def stabilization_check(
    catalog: IrrepCatalog,
    noether: NoetherResult,
    p: int,
    d: int,
    budget: Budget = DEFAULT_BUDGET,
    base_multiplicities=None,
) -> dict:
    """Vanishing of Tor_(p,d) must agree between the reference truncation
    (beta*p + d_i by default) and the one-larger truncation."""
    beta = noether.value
    if base_multiplicities is None:
        base = tuple(beta * p + di for di in catalog.degrees)
    else:
        base = tuple(base_multiplicities)
    bigger = tuple(k + 1 for k in base)
    nonzero = []
    for mults in (base, bigger):
        spec = spec_from_multiplicities(catalog, mults)
        if spec.dimension == 0:
            nonzero.append(False)
            continue
        cx = _spec_complex(spec, noether, budget)
        nonzero.append(cx.tor_dimension(p, d) > 0)
    return {
        "passed": nonzero[0] == nonzero[1],
        "base_multiplicities": list(base),
        "nonzero_at_base": nonzero[0],
        "nonzero_at_enlarged": nonzero[1],
    }


def _checked_syzygy_degree(
    spec: UniversalSpec, noether: NoetherResult, p: int, budget: Budget
):
    """s'_p of a specialization from its dominant weight blocks.

    Every full degree the scan's chains reach is computed first, so the
    Reynolds dimensions meet the Molien series there; each degree with
    nonzero Tor_p has its non-dominant blocks spot-checked against the
    Schur decomposition of the dominant ones.
    """
    cx = _spec_complex(spec, noether, budget)
    cx.ring.precompute(range(cx.ceiling(p) + cx.guard + 1))
    s = None
    for d, (total, wd) in cx.scan(p).items():
        if total:
            s = d
            decomp = schur_multiplicities(wd, spec.multiplicities)
            _cross_check_nondominant(cx, spec, decomp, p, d)
    return s


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
    the empty guard band on every block computed."""
    w_spec = build_universal_rep(catalog, noether, p)
    s_w = _checked_syzygy_degree(w_spec, noether, p, budget)
    rows = []
    passed = True
    for mults in samples:
        spec = spec_from_multiplicities(catalog, mults)
        if spec.dimension == 0:
            s_v = None
        else:
            s_v = _checked_syzygy_degree(spec, noether, p, budget)
        ok = (s_v is None) or (s_w is not None and s_v <= s_w)
        passed = passed and ok
        rows.append(
            {
                "multiplicities": list(mults),
                "s_prime": s_v if s_v is not None else "none",
                "dominated": ok,
            }
        )
    return {
        "passed": passed,
        "p": p,
        "universal_multiplicities": list(w_spec.multiplicities),
        "universal_dimension": w_spec.dimension,
        "s_prime_universal": s_w if s_w is not None else "none",
        "samples": rows,
    }
