from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab.bounds import audit, compute_bounds, inequality_chain_check, m_bound_check
from syzlab.cyclo import zeta
from syzlab.groups import Representation, builtin_group
from syzlab.invariants import InvariantRing, NoetherResult, build_E, noether_number
from syzlab.koszul import KoszulComplex
from syzlab.linalg import Matrix


def diag_rep(name, diag):
    group, _ = builtin_group(name)
    m = Matrix.from_rows(
        [[d if i == j else Fraction(0) for j in range(len(diag))] for i, d in enumerate(diag)]
    )
    return Representation.from_generator_images(group, [m])


def make_cx(rep, mode, noe):
    ring = InvariantRing(rep)
    return KoszulComplex(ring, build_E(ring, mode, noe), noe.value)


def audit_on(catalog, cx, p_values, noe):
    """`audit` on a complex over R itself: its ring and generators are R and E."""
    return audit(catalog, cx.ring, cx.gens, cx, p_values, noe)


def test_compute_bounds_z2():
    b = compute_bounds(g=2, n=2, m=2, beta=2, dim_v=2, p=1)
    assert b == {
        "delta_p": 0,
        "universal_bound": 8,
        "cubic_bound": 8,
        "derksen_bound": 4,
        "scan_ceiling": 4,
    }


def test_compute_bounds_z3():
    b = compute_bounds(g=3, n=3, m=3, beta=3, dim_v=2, p=1)
    assert b["delta_p"] == 0
    assert b["universal_bound"] == 27
    assert b["cubic_bound"] == 27
    assert b["derksen_bound"] == 6


def test_compute_bounds_trivial_group():
    for p in (1, 2, 5):
        b = compute_bounds(g=1, n=1, m=1, beta=1, dim_v=3, p=p)
        assert b["delta_p"] == 0
        assert b["universal_bound"] == p
        assert b["cubic_bound"] == p
        assert b["derksen_bound"] == p + 1


@settings(max_examples=80, deadline=None)
@given(
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=1, max_value=20),
)
def test_delta_identity_random(beta, m, g, p):
    delta_p = (beta - 1) * g - (m - 1) * beta * p
    assert (beta - 1) * (beta * m * p + g) + beta * p == beta * beta * m * p + delta_p


def test_inequality_chain_exhaustive():
    res = inequality_chain_check(g_max=12, p_max=12)
    assert res["passed"]
    assert res["tuples_checked"] == sum(g * g for g in range(1, 13)) * 12


def test_inequality_chain_edge_equality():
    # g = p = 1 makes p + g = p*g + 1 an equality
    assert inequality_chain_check(g_max=1, p_max=1)["passed"]


def test_m_bound_check_cases():
    g, catalog = builtin_group("builtin:sym:3")
    assert m_bound_check(g.class_count, g.order, catalog.m) == {
        "passed": True,
        "m_squared": 16,
        "ng": 18,
    }
    for k in (2, 3, 4, 5):
        grp, cat = builtin_group(f"builtin:cyclic:{k}")
        res = m_bound_check(grp.class_count, grp.order, cat.m)
        assert res["passed"] and res["m_squared"] == res["ng"]
    q8, cat8 = builtin_group("builtin:quaternion:8")
    assert m_bound_check(q8.class_count, q8.order, cat8.m) == {
        "passed": True,
        "m_squared": 36,
        "ng": 40,
    }


def test_audit_veronese_z2():
    group, catalog = builtin_group("builtin:cyclic:2")
    rep = diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)])
    noe = noether_number(group)
    reports, findings = audit_on(catalog, make_cx(rep, "minimal", noe), [1, 2], noe)
    assert not findings
    r1, r2 = reports
    assert r1["s_value"] == 4
    assert r1["bounds"]["derksen_bound"] == 4  # tight
    assert r1["verdicts"]["derksen_bound"] == "satisfied"
    assert r1["verdicts"]["universal_bound"] == "satisfied"
    assert r1["verdicts"]["cubic_bound"] == "satisfied"
    assert r2["s_value"] == "none"
    assert all(v == "vacuous" for v in r2["verdicts"].values())
    assert r1["beta_V"] == 2


def test_audit_veronese_z3():
    group, catalog = builtin_group("builtin:cyclic:3")
    rep = diag_rep("builtin:cyclic:3", [zeta(3), zeta(3)])
    noe = noether_number(group)
    reports, findings = audit_on(catalog, make_cx(rep, "minimal", noe), [1], noe)
    assert not findings
    (r1,) = reports
    assert r1["s_value"] == 6
    assert r1["bounds"]["derksen_bound"] == 6
    assert r1["bounds"]["universal_bound"] == 27
    assert r1["bounds"]["cubic_bound"] == 27
    assert all(v == "satisfied" for v in r1["verdicts"].values())


def test_audit_fallback_beta_labels_verdicts():
    group, catalog = builtin_group("builtin:cyclic:2")
    rep = diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)])
    fallback = NoetherResult(value=group.order, exact=False)
    reports, findings = audit_on(catalog, make_cx(rep, "minimal", fallback), [1], fallback)
    (r1,) = reports
    assert "not a certified check" in r1["verdicts"]["universal_bound"]


def test_audit_fallback_beta_labels_a_violated_universal_bound(monkeypatch):
    """Under the order fallback an s_p above the universal bound is no
    proven violation: the verdict says so and nothing is raised."""
    import syzlab.bounds

    real = syzlab.bounds.compute_bounds
    monkeypatch.setattr(
        syzlab.bounds, "compute_bounds", lambda *args: {**real(*args), "universal_bound": 3}
    )
    group, catalog = builtin_group("builtin:cyclic:2")
    rep = diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)])
    fallback = NoetherResult(value=2, exact=False)
    (r1,), findings = audit_on(catalog, make_cx(rep, "minimal", fallback), [1], fallback)
    assert r1["s_value"] == 4
    assert r1["verdicts"]["universal_bound"] == (
        "violated under fallback beta (not a certified check)"
    )
    assert not findings


def test_audit_full_mode_triv_sign():
    group, catalog = builtin_group("builtin:cyclic:2")
    rep = diag_rep("builtin:cyclic:2", [Fraction(1), Fraction(-1)])
    noe = noether_number(group)
    reports, findings = audit_on(catalog, make_cx(rep, "full", noe), [1], noe)
    (r1,) = reports
    assert r1["s_value"] == 2
    assert r1["mode"] == "full"
    assert not findings


def test_audit_minimal_mode_selects_generators_once(monkeypatch):
    import syzlab.bounds
    import syzlab.invariants

    group, catalog = builtin_group("builtin:cyclic:2")
    rep = diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)])
    noe = noether_number(group)
    original = syzlab.invariants.minimal_generators
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(syzlab.invariants, "minimal_generators", counting)
    monkeypatch.setattr(syzlab.bounds, "minimal_generators", counting)
    (r1,), _ = audit_on(catalog, make_cx(rep, "minimal", noe), [1], noe)
    assert len(calls) == 1
    assert r1["beta_V"] == 2
