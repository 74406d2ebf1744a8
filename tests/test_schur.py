from itertools import combinations

import pytest

from syzlab import schur
from syzlab.errors import InternalInconsistency, InvalidInput
from syzlab.groups import builtin_group
from syzlab.invariants import InvariantRing, build_E, noether_number
from syzlab.koszul import KoszulComplex, syzygy_degree
from syzlab.schur import (
    SchurDecomposition,
    build_universal_rep,
    cauchy_check,
    dominant_weights,
    dominates,
    domination_check,
    kostka_number,
    lr_coefficient,
    partitions_of,
    ring_row_bounds,
    row_bound_check,
    schur_dim,
    schur_multiplicities,
    spec_from_multiplicities,
    split_weight,
    stabilization_check,
    tor_row_bounds,
)


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
        spec = build_universal_rep(catalog, noe, 1)
        assert spec.multiplicities == expected_mults
        assert spec.dimension == expected_dim
        beta, m, g = noe.value, catalog.m, group.order
        assert spec.dimension == beta * m * 1 + g


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
    spec = spec_from_multiplicities(catalog, (2,))
    ring = InvariantRing(spec.rep, grading=spec.grading)
    wd = ring.weight_dims(2)
    assert wd == {(2, 0): 1, (1, 1): 1, (0, 2): 1}
    decomp = schur_multiplicities(wd, spec.multiplicities, ambient_dim=3)
    assert decomp.multiplicities == {((2,),): 1}


def test_weight_decomposition_z2_r2():
    group, catalog = builtin_group("builtin:cyclic:2")
    spec = spec_from_multiplicities(catalog, (1, 1))
    ring = InvariantRing(spec.rep, grading=spec.grading)
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


def test_row_bound_check_z2_r2():
    group, catalog = builtin_group("builtin:cyclic:2")
    spec = spec_from_multiplicities(catalog, (2, 2))
    ring = InvariantRing(spec.rep, grading=spec.grading)
    wd = ring.weight_dims(2)
    decomp = schur_multiplicities(wd, spec.multiplicities, ambient_dim=ring.dim(2))
    assert decomp.multiplicities == {((2,), ()): 1, ((), (2,)): 1}
    report = row_bound_check(decomp, (1, 1))
    assert report.passed
    report0 = row_bound_check(
        SchurDecomposition({((2,), ()): 1}, (2, 2)), (0, 1)
    )
    assert not report0.passed
    assert report0.witnesses


def test_row_bound_check_requires_certifying_dims():
    decomp = SchurDecomposition({}, (1, 1))
    with pytest.raises(InvalidInput):
        row_bound_check(decomp, (1, 1))
    assert row_bound_check(decomp, (0, 0)).passed


def test_dominant_weights():
    out = dominant_weights(2, (2,))
    assert set(out) == {(2, 0), (1, 1)}
    out2 = dominant_weights(1, (1, 1))
    assert set(out2) == {(1, 0), (0, 1)}
    assert split_weight((1, 0, 2), (2, 1)) == ((1, 0), (2,))


def test_exterior_weight_dims_box_budget():
    from syzlab.invariants import InvariantRing, build_E, noether_number

    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    spec = spec_from_multiplicities(catalog, (2, 2))
    ring = InvariantRing(spec.rep, grading=spec.grading)
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
        decomp = schur_multiplicities(wd, spec.multiplicities)
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


def test_stabilization_degenerate_spec():
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    res = stabilization_check(
        catalog, noe, p=1, d=2, base_multiplicities=(0, 0)
    )
    # zero-dimensional spec has no syzygies; the enlarged one (1,1) has none
    # in degree 2 either (free polynomial ring on x, y^2 presented minimally
    # plus the redundant x^2... full E makes Tor_1 nonzero in degree 2)
    assert res["nonzero_at_base"] is False


def test_domination_check_z2_p1(monkeypatch):
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    cross_checked = []
    real_cross_check = schur._cross_check_nondominant

    def counting_cross_check(cx, spec, decomp, p, d):
        cross_checked.append((spec.multiplicities, d))
        return real_cross_check(cx, spec, decomp, p, d)

    monkeypatch.setattr(schur, "_cross_check_nondominant", counting_cross_check)
    res = domination_check(
        catalog, noe, p=1, samples=[(0, 1), (0, 2), (1, 1), (3, 3)]
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


def test_domination_matches_all_weights_scan():
    """The dominant-only route of domination_check against complexes that
    materialize every weight block."""
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    samples = [(0, 2), (1, 1), (2, 2)]
    res = domination_check(catalog, noe, p=1, samples=samples)
    for mults, row in zip(samples, res["samples"]):
        spec = spec_from_multiplicities(catalog, mults)
        ring = InvariantRing(spec.rep, grading=spec.grading)
        cx = KoszulComplex(
            ring, build_E(ring, "full", noe), noe.value, weights_for_degree=None
        )
        assert row["s_prime"] == syzygy_degree(cx, 1)


def test_domination_check_runs_molien_check(monkeypatch):
    """Degree 5 is above every degree the generators need, so only the scan's
    full-degree pass compares it with the Molien series."""
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
