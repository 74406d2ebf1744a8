from itertools import combinations

import pytest

from syzlab import schur
from syzlab.errors import InternalInconsistency, InvalidInput, LimitExceeded
from syzlab.groups import builtin_group
from syzlab.invariants import ArtinianReduction, InvariantRing, build_E, noether_number
from syzlab.koszul import KoszulComplex, syzygy_degree
from syzlab.limits import DEFAULT_BUDGET
from syzlab.monomials import monomials
from syzlab.schur import (
    SchurDecomposition,
    cauchy_check,
    dominant_weights,
    domination_check,
    kostka_number,
    lr_coefficient,
    partitions_of,
    ring_row_bounds,
    row_bound_check,
    schur_dim,
    schur_multiplicities,
    specialization,
    specialization_ring,
    split_weight,
    stabilization_check,
    tor_row_bounds,
    universal_multiplicities,
)

from oracles import count_tableaux, dominates


def test_partitions_of():
    assert partitions_of(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    assert partitions_of(4, max_rows=2) == [(4,), (3, 1), (2, 2)]
    assert partitions_of(0) == [()]
    assert len(partitions_of(6)) == 11


def test_kostka_examples():
    assert kostka_number((2, 1), (1, 1, 1)) == 2
    assert kostka_number((1, 1), (2,)) == 0
    assert kostka_number((3, 1), (2, 1, 1)) == 2
    with pytest.raises(InvalidInput):
        kostka_number((2, 1), (1, 1))


def test_kostka_unitriangularity_up_to_six():
    for n in range(0, 7):
        parts = partitions_of(n)
        for lam in parts:
            assert kostka_number(lam, lam) == 1
            for mu in parts:
                if not dominates(lam, mu):
                    assert kostka_number(lam, mu) == 0, (lam, mu)


def test_kostka_matches_the_tableau_oracle():
    """Every shape of size at most 6 against every composition of its size
    into at most 4 parts, zeros allowed, counted by trying every filling."""
    for n in range(7):
        for lam in partitions_of(n):
            for parts in range(1, 5):
                for mu in monomials(parts, n):
                    assert kostka_number(lam, mu) == count_tableaux(lam, (), mu), (lam, mu)


def test_lr_matches_the_tableau_oracle():
    """Every lam of size at most 6, every mu inside lam and every partition
    nu of the remaining size, counted by trying every filling of lam/mu."""
    for n in range(7):
        for lam in partitions_of(n):
            for a in range(n + 1):
                for mu in partitions_of(a):
                    if len(mu) > len(lam) or any(m > l for m, l in zip(mu, lam)):
                        continue
                    for nu in partitions_of(n - a):
                        want = count_tableaux(lam, mu, nu, lattice=True)
                        assert lr_coefficient(lam, mu, nu) == want, (lam, mu, nu)


def test_lr_examples():
    assert lr_coefficient((3, 1), (1,), (1, 1)) == 0  # size mismatch
    assert lr_coefficient((2, 1), (1,), (1, 1)) == 1
    assert lr_coefficient((2, 2), (2, 1), (1,)) == 1
    assert lr_coefficient((2, 1), (1,), (2,)) == 1
    assert lr_coefficient((4,), (2,), (1, 1)) == 0  # vertical strip in one row
    # S_(1) . S_(1) = S_(2) + S_(1,1)
    assert lr_coefficient((2,), (1,), (1,)) == 1
    assert lr_coefficient((1, 1), (1,), (1,)) == 1
    assert lr_coefficient((4, 2), (2, 1), (2, 1)) == 1
    assert lr_coefficient((3, 2, 1), (2, 1), (2, 1)) == 2


def test_lr_symmetry_up_to_six():
    for n in range(0, 7):
        lams = partitions_of(n)
        for lam in lams:
            for a in range(0, n + 1):
                for mu in partitions_of(a):
                    for nu in partitions_of(n - a):
                        assert lr_coefficient(lam, mu, nu) == lr_coefficient(
                            lam, nu, mu
                        ), (lam, mu, nu)


def test_lr_tensor_dimension_consistency():
    for k in (1, 2, 3):
        for total in range(0, 6):
            for a in range(0, total + 1):
                for mu in partitions_of(a):
                    for nu in partitions_of(total - a):
                        lhs = schur_dim(mu, k) * schur_dim(nu, k)
                        rhs = sum(
                            lr_coefficient(lam, mu, nu) * schur_dim(lam, k)
                            for lam in partitions_of(total, max_rows=k)
                        )
                        assert lhs == rhs, (k, mu, nu)


def test_schur_dims():
    assert schur_dim((1, 1), 2) == 1
    assert schur_dim((2,), 2) == 3
    assert schur_dim((1, 1, 1), 2) == 0
    assert schur_dim((), 5) == 1
    assert schur_dim((2, 1), 3) == 8
    assert schur_dim((3, 1), 4) == 45


def test_cauchy_check():
    _, catalog = builtin_group("builtin:sym:3")
    # one-dimensional factor: single-row partitions only
    for d in range(5):
        assert cauchy_check(catalog, 0, 3, d)["passed"]
    # two-dimensional factor at k=2, d=2: 10 = 9 + 1
    res = cauchy_check(catalog, 2, 2, 2)
    assert res == {"passed": True, "lhs": 10, "rhs": 10}
    assert cauchy_check(catalog, 2, 3, 4)["passed"]
    assert cauchy_check(catalog, 2, 2, 0) == {"passed": True, "lhs": 1, "rhs": 1}


def test_universal_spec_dimensions():
    for name, expected_mults, expected_dim in [
        ("builtin:cyclic:2", (3, 3), 6),
        ("builtin:cyclic:3", (4, 4, 4), 12),
    ]:
        group, catalog = builtin_group(name)
        noe = noether_number(group)
        mults = universal_multiplicities(catalog, noe, 1)
        assert mults == expected_mults
        rep = specialization(catalog, mults)
        assert rep.degree == expected_dim
        beta, m, g = noe.value, catalog.m, group.order
        assert rep.degree == beta * m * 1 + g


def test_universal_dimension_identity_all_builtins():
    # sum d_i (beta p + d_i) = beta m p + g holds for any degrees
    for name in ("builtin:sym:3", "builtin:quaternion:8", "builtin:dihedral:4"):
        group, catalog = builtin_group(name)
        g = group.order
        m = catalog.m
        for beta in (2, 4):
            for p in (1, 2, 3):
                total = sum(d * (beta * p + d) for d in catalog.degrees)
                assert total == beta * m * p + g


def test_weight_decomposition_sym2_c2():
    group, catalog = builtin_group("builtin:cyclic:1")
    ring = specialization_ring(catalog, (2,), DEFAULT_BUDGET)
    wd = ring.weight_dims(2)
    assert wd == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    decomp = schur_multiplicities(wd, (2,), ambient_dim=3)
    assert decomp.multiplicities == {((2,),): 1}


def test_weight_decomposition_z2_r2():
    group, catalog = builtin_group("builtin:cyclic:2")
    ring = specialization_ring(catalog, (1, 1), DEFAULT_BUDGET)
    assert ring.weight_dims(2) == {(2, 0): 1, (0, 2): 1}


def test_schur_multiplicities_tensor_square():
    # weights of C^2 (x) C^2 as a functor of one U = C^2... use the known
    # weight table: (2,0) -> 1, (1,1) -> 2, (0,2) -> 1
    wd = {(2, 0): 1, (1, 1): 2, (0, 2): 1}
    decomp = schur_multiplicities(wd, (2,), ambient_dim=4)
    assert decomp.multiplicities == {((2,),): 1, ((1, 1),): 1}


def test_schur_multiplicities_empty():
    decomp = schur_multiplicities({}, (2, 2))
    assert decomp.multiplicities == {}
    assert decomp.total_dim() == 0


def test_schur_multiplicities_rejects_bad_data():
    # the (2,0) block forces one copy of S_(2), which already needs
    # dimension 1 at weight (1,1): a smaller value cannot be decomposed
    with pytest.raises(InternalInconsistency):
        schur_multiplicities({(2, 0): 2, (1, 1): 1}, (2,))
    with pytest.raises(InternalInconsistency):
        schur_multiplicities({(2, 0): 1, (1, 1): 1}, (2,), ambient_dim=5)


def test_schur_multiplicities_reads_an_empty_dominant_block():
    """A dominant weight with no entry, or an entry of 0, is a block of
    dimension 0: the S_(2) that the (2, 0) block forces needs dimension 1
    at (1, 1), so an empty (1, 1) block is inconsistent whether the data
    lists it or leaves it out."""
    with pytest.raises(InternalInconsistency):
        schur_multiplicities({(2, 0): 1, (1, 1): 0}, (2,))
    with pytest.raises(InternalInconsistency):
        schur_multiplicities({(2, 0): 1}, (2,))
    decomp = schur_multiplicities({(1, 1): 1}, (2,))
    assert decomp.multiplicities == {((1, 1),): 1}


def test_row_bound_check_z2_r2():
    group, catalog = builtin_group("builtin:cyclic:2")
    ring = specialization_ring(catalog, (2, 2), DEFAULT_BUDGET)
    wd = ring.weight_dims(2)
    decomp = schur_multiplicities(wd, (2, 2), ambient_dim=ring.dim(2))
    assert decomp.multiplicities == {((2,), ()): 1, ((), (2,)): 1}
    assert row_bound_check(decomp, (1, 1)) == {"passed": True, "bounds": [1, 1], "witnesses": []}
    report0 = row_bound_check(
        SchurDecomposition({((2,), ()): 1}, (2, 2)), (0, 1)
    )
    assert not report0["passed"]
    assert report0["witnesses"] == [[[2], []]]


def test_row_bound_check_requires_certifying_dims():
    decomp = SchurDecomposition({}, (1, 1))
    with pytest.raises(InvalidInput):
        row_bound_check(decomp, (1, 1))
    assert row_bound_check(decomp, (0, 0))["passed"]


def test_dominant_weights():
    out = dominant_weights(2, (2,))
    assert set(out) == {(2, 0), (1, 1)}
    out2 = dominant_weights(1, (1, 1))
    assert set(out2) == {(1, 0), (0, 1)}
    assert split_weight((1, 0, 2), (2, 1)) == ((1, 0), (2,))


def test_exterior_weight_dims_box_budget():
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    ring = specialization_ring(catalog, (2, 2), DEFAULT_BUDGET)
    gens = build_E(ring, "full", noe)
    p = 1
    seen = 0
    for e in range(1, noe.value * p + 1):
        # weight -> dimension of (Wedge^p E) in internal degree e
        wd = {}
        for s in combinations(gens.elements, p):
            if sum(el.degree for el in s) == e:
                w = tuple(map(sum, zip(*(el.weight for el in s))))
                wd[w] = wd.get(w, 0) + 1
        seen += sum(wd.values())
        # every supported partition in every factor fits in beta*p boxes,
        # hence at most beta*p rows
        decomp = schur_multiplicities(wd, (2, 2))
        for lams in decomp.support():
            assert sum(sum(l) for l in lams) == e <= noe.value * p
    assert seen == len(gens.elements)


def test_ring_row_bounds_z2():
    _, catalog = builtin_group("builtin:cyclic:2")
    res = ring_row_bounds(catalog, max_degree=4)
    assert res["passed"]


def test_ring_row_bounds_z3():
    _, catalog = builtin_group("builtin:cyclic:3")
    res = ring_row_bounds(catalog, max_degree=4)
    assert res["passed"]


def test_stabilization_z2():
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    res4 = stabilization_check(catalog, noe, p=1, d=4)
    assert res4["passed"] and res4["nonzero_at_base"] and res4["nonzero_at_enlarged"]
    res3 = stabilization_check(catalog, noe, p=1, d=3)
    assert res3["passed"] and not res3["nonzero_at_base"]


def test_stabilization_refuses_before_it_computes(monkeypatch):
    """S3 at p = 1, degree 3: the enlarged specialization is over the
    default budget, and both complexes are built before either computes
    Tor, so the run is refused without a Tor block of the base one."""
    group, catalog = builtin_group("builtin:sym:3")
    noe = noether_number(group)

    def no_tor(self, p, d):
        raise AssertionError("Tor computed before the enlarged complex was built")

    monkeypatch.setattr(KoszulComplex, "tor_data", no_tor)
    with pytest.raises(LimitExceeded):
        stabilization_check(catalog, noe, p=1, d=3)


def test_stabilization_degenerate_spec():
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    res = stabilization_check(
        catalog, noe, p=1, d=2, base_multiplicities=(0, 0)
    )
    # the zero-dimensional specialization has no syzygies. The enlarged one,
    # (1, 1), has R = C[x, y^2], but the full E holds x and x^2 both: x^2 in
    # E is redundant, so Tor_1 of the (1, 1) specialization is nonzero in
    # degree 2, and the two truncations disagree
    assert res == {
        "passed": False,
        "base_multiplicities": [0, 0],
        "nonzero_at_base": False,
        "nonzero_at_enlarged": True,
    }


def _count_cross_checks(monkeypatch) -> list:
    """Record (multiplicities, degree) of every non-dominant cross-check."""
    cross_checked = []
    real_cross_check = schur._cross_check_nondominant

    def counting_cross_check(cx, mults, decomp, p, d):
        cross_checked.append((tuple(mults), d))
        return real_cross_check(cx, mults, decomp, p, d)

    monkeypatch.setattr(schur, "_cross_check_nondominant", counting_cross_check)
    return cross_checked


def test_domination_check_z2_p1(monkeypatch):
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    cross_checked = _count_cross_checks(monkeypatch)
    res = domination_check(
        catalog, noe, p=1, samples=[(0, 1), (0, 2), (1, 1), (3, 3), (0, 0)]
    )
    # the universal side, (3, 3), cross-checks every degree with Tor_1 != 0
    assert ((3, 3), 2) in cross_checked and ((3, 3), 4) in cross_checked
    assert res["passed"]
    assert res["universal_dimension"] == 6
    assert res["s_prime_universal"] == 4
    by_mult = {tuple(r["multiplicities"]): r["s_prime"] for r in res["samples"]}
    assert by_mult[(0, 1)] == "none"
    assert by_mult[(0, 2)] == 4
    assert by_mult[(1, 1)] == 2
    assert by_mult[(3, 3)] == 4  # the universal spec itself: equality
    # zero-dimensional: no complex, so no Tor_p for p >= 1
    assert res["samples"][-1] == {"multiplicities": [0, 0], "s_prime": "none", "dominated": True}


def test_tor_row_bounds_cross_checks_every_degree_with_tor(monkeypatch):
    """The row bounds on Tor read the same checked decompositions as the
    domination check: one non-dominant cross-check per degree it reports."""
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    cross_checked = _count_cross_checks(monkeypatch)
    res = tor_row_bounds(catalog, noe, p=1)
    assert [row["degree"] for row in res["per_degree"]] == [2, 4]
    assert cross_checked == [((4, 4), row["degree"]) for row in res["per_degree"]]


def test_domination_matches_all_weights_scan():
    """The dominant-only route of domination_check against complexes that
    materialize every weight block."""
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    samples = [(0, 2), (1, 1), (2, 2)]
    res = domination_check(catalog, noe, p=1, samples=samples)
    for mults, row in zip(samples, res["samples"]):
        ring = specialization_ring(catalog, mults, DEFAULT_BUDGET)
        cx = KoszulComplex(
            ring, build_E(ring, "full", noe), noe.value, weights_for_degree=None
        )
        assert row["s_prime"] == syzygy_degree(cx, 1)


def test_domination_check_runs_molien_check(monkeypatch):
    """Degree 5 is above every degree the generators need, and at or below
    the top degree 6 of S/θS for the universal specialization's θ = (x_c^2):
    the off coefficient leaves the Hilbert series of R/θR nonzero above
    that top degree, which the quotient's constructor refuses."""
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    real_molien = InvariantRing.molien

    def wrong_molien(self, max_degree):
        series = list(real_molien(self, max_degree))
        if len(series) > 5:
            series[5] += 1
        return series

    monkeypatch.setattr(InvariantRing, "molien", wrong_molien)
    with pytest.raises(InternalInconsistency, match="Molien"):
        domination_check(catalog, noe, p=1, samples=[])


def test_ring_blocks_must_meet_the_kostka_prediction(monkeypatch):
    """A non-dominant block of R off its Kostka prediction is an engine bug."""
    _, catalog = builtin_group("builtin:cyclic:2")
    real_weight_dims = InvariantRing.weight_dims

    def skewed_weight_dims(self, d):
        wd = dict(real_weight_dims(self, d))
        nondominant = [w for w in wd if not schur._is_dominant(split_weight(w, (2, 2)))]
        if nondominant:
            wd[max(nondominant)] += 1
        return wd

    assert ring_row_bounds(catalog, max_degree=2)["passed"]
    monkeypatch.setattr(InvariantRing, "weight_dims", skewed_weight_dims)
    with pytest.raises(InternalInconsistency, match="Kostka prediction"):
        ring_row_bounds(catalog, max_degree=2)


def test_tor_blocks_must_meet_the_kostka_prediction(monkeypatch):
    """A probed non-dominant Tor block off its Kostka prediction is an
    engine bug; the dominant blocks the scan reads stay as they are."""
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    real_tor_data = KoszulComplex.tor_data

    def skewed_tor_data(self, p, d):
        total, wd = real_tor_data(self, p, d)
        return total, {
            w: n + (not schur._is_dominant(split_weight(w, (4, 4)))) for w, n in wd.items()
        }

    monkeypatch.setattr(KoszulComplex, "tor_data", skewed_tor_data)
    with pytest.raises(InternalInconsistency, match="Kostka prediction"):
        tor_row_bounds(catalog, noe, p=1)


def test_tor_row_bounds_budget_gate():
    group, catalog = builtin_group("builtin:sym:3")
    noe = noether_number(group, exact_limit=2)
    res = tor_row_bounds(catalog, noe, p=1)
    assert res["skipped"]


def test_tor_row_bounds_z2():
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    res = tor_row_bounds(catalog, noe, p=1)
    assert not res["skipped"]
    assert res["passed"]
    assert res["multiplicities"] == [4, 4]
    degrees = [row["degree"] for row in res["per_degree"]]
    assert 4 in degrees


def test_domination_check_reuses_the_universal_side(monkeypatch):
    """A sample equal to the universal multiplicities builds no second
    complex: its s'_p is the universal one."""
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    built = []
    real_dominant_complex = schur._dominant_complex

    def counting_dominant_complex(catalog, mults, noether, budget):
        built.append(tuple(mults))
        return real_dominant_complex(catalog, mults, noether, budget)

    monkeypatch.setattr(schur, "_dominant_complex", counting_dominant_complex)
    res = domination_check(catalog, noe, p=1, samples=[(3, 3)])
    assert built == [(3, 3)]
    assert res["samples"] == [{"multiplicities": [3, 3], "s_prime": 4, "dominated": True}]


def test_domination_check_outside_the_budget_is_skipped():
    """One budget answer for the Tor checks: domination on an order-3 group
    at the default budget is skipped as row-bounds-tor is, in its shape."""
    group, catalog = builtin_group("builtin:cyclic:3")
    noe = noether_number(group)
    skipped = {
        "skipped": True,
        "reason": "outside budget (order 3, p 1); raise --budget-level to run",
    }
    assert domination_check(catalog, noe, p=1, samples=[(1, 0, 0)]) == skipped
    assert tor_row_bounds(catalog, noe, p=1) == skipped


@pytest.mark.parametrize(
    "name, mults, diagonal",
    [
        ("builtin:cyclic:2", (3, 3), True),
        ("builtin:klein:4", (1, 1, 0, 1), True),
        ("builtin:sym:3", (0, 1, 1), False),
        ("builtin:quaternion:8", (0, 0, 0, 0, 1), False),
    ],
)
def test_dominant_complex_reduces_diagonal_specializations(name, mults, diagonal):
    """The dominant complex runs over R/θR, and E loses the n elements of
    θ: the pure powers where every image is diagonal, a subset of R's
    minimal generators that is not all monomials otherwise."""
    group, catalog = builtin_group(name)
    noe = noether_number(group, exact_limit=2)
    cx = schur._dominant_complex(catalog, mults, noe, DEFAULT_BUDGET)
    assert isinstance(cx.ring, ArtinianReduction)
    assert all(len(t.poly) == 1 for t in cx.ring.theta) == diagonal
    ring = specialization_ring(catalog, mults, DEFAULT_BUDGET)
    full = build_E(ring, "full", noe)
    assert len(cx.E) == len(full.elements) - ring.nvars
