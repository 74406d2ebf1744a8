import json
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syzlab import invariants
from syzlab.cache import Cache
from syzlab.errors import InternalInconsistency, LimitExceeded
from syzlab.cli import main, parse_problem
from syzlab.groups import Representation, builtin_group, regular_representation
from syzlab.invariants import (
    _DEGREE_LIMIT,
    Grading,
    InvariantRing,
    build_E,
    minimal_generators,
    molien_series,
    noether_number,
    specialization_ring,
)
from syzlab.limits import DEFAULT_BUDGET, Budget
from syzlab.linalg import Matrix
from syzlab.monomials import monomial_count, monomials, pack, poly_mul, unpack

from oracles import (
    BUILTIN_NAMES,
    benchmark_workloads,
    column_echelon_basis,
    greedy_generators,
    molien_oracle,
    reynolds_matrix,
    row_reduce,
    sym_power_action,
    sym_power_basis,
)


def exponents(poly, nvars):
    """A polynomial keyed by exponent tuples instead of packed keys."""
    return {unpack(m, nvars): c for m, c in poly.items()}


def rep_from_diag(name, diag):
    group, _ = builtin_group(name)
    m = Matrix.from_rows(
        [[d if i == j else Fraction(0) for j in range(len(diag))] for i, d in enumerate(diag)]
    )
    return Representation.from_generator_images(group, [m])


def antipodal_c2():
    return rep_from_diag("builtin:cyclic:2", [Fraction(-1), Fraction(-1)])


def triv_plus_sign():
    return rep_from_diag("builtin:cyclic:2", [Fraction(1), Fraction(-1)])


def z3_omega_omega():
    from syzlab.cyclo import zeta

    w = zeta(3)
    return rep_from_diag("builtin:cyclic:3", [w, w])


# S3 on sign + standard: images of the builtin generators (0 1), (0 1 2)
S3_SIGN_STANDARD = (
    ((-1, 0, 0), (0, -1, 1), (0, 0, 1)),
    ((1, 0, 0), (0, 0, -1), (0, 1, -1)),
)


def s3_sign_standard(diag=(1, 1, 1)):
    """The representation conjugated by D = diag(diag): D M D^-1."""
    group, _ = builtin_group("builtin:sym:3")
    diag = [Fraction(x) for x in diag]
    images = [
        Matrix.from_rows(
            [[Fraction(m[i][j]) * diag[i] / diag[j] for j in range(3)] for i in range(3)]
        )
        for m in S3_SIGN_STANDARD
    ]
    return Representation.from_generator_images(group, images)


def z3_cyclotomic():
    """Z3 acting by P diag(zeta, zeta, zeta^2) P^-1, P = I + superdiagonal ones."""
    from syzlab.cyclo import zeta

    w = zeta(3)
    group, _ = builtin_group("builtin:cyclic:3")
    image = Matrix.from_rows([[w, 0, 0], [0, w, -1 - 2 * w], [0, 0, -1 - w]])
    return Representation.from_generator_images(group, [image])


def test_molien_trivial_group_c2():
    group, _ = builtin_group("builtin:cyclic:1")
    rep = Representation(group, [Matrix.identity(2)])
    assert molien_series(rep, 3) == [1, 2, 3, 4]


def test_molien_antipodal():
    assert molien_series(antipodal_c2(), 4) == [1, 0, 3, 0, 5]


def test_molien_z3_veronese():
    assert molien_series(z3_omega_omega(), 6) == [1, 0, 0, 4, 0, 0, 7]


def test_molien_s3_standard():
    group, catalog = builtin_group("builtin:sym:3")
    # invariants of the standard reflection rep: free on degrees 2 and 3
    assert molien_series(catalog.irreps[2], 6) == [1, 0, 1, 1, 1, 1, 2]


def test_invariant_basis_dimensions():
    ring = InvariantRing(antipodal_c2())
    assert ring.dim(1) == 0
    assert ring.dim(2) == 3
    assert ring.dim(0) == 1
    basis = ring.basis(2)
    assert sorted(unpack(el.pivot, 2) for el in basis) == [(0, 2), (1, 1), (2, 0)]


def test_invariant_basis_matrix_op():
    ring = InvariantRing(antipodal_c2())
    # x^2, xy, y^2 all survive, each as a bare monomial
    assert [exponents(el.poly, 2) for el in ring.basis(2)] == [{(2, 0): 1}, {(1, 1): 1}, {(0, 2): 1}]
    assert ring.basis(1) == []
    assert [exponents(el.poly, 2) for el in ring.basis(0)] == [{(0, 0): 1}]


def test_invariant_basis_elements_are_fixed():
    ring = InvariantRing(triv_plus_sign())
    for d in (1, 2, 3, 4):
        p = Matrix.from_rows(reynolds_matrix(sym_power_action([m.data for m in ring.rep.images], d)))
        idx = {m: i for i, m in enumerate(sym_power_basis(2, d))}
        for el in ring.basis(d):
            col = [Fraction(0)] * len(idx)
            for m, c in el.poly.items():
                col[idx[unpack(m, 2)]] = c
            v = Matrix.from_rows([[x] for x in col])
            assert (p @ v) == v


def test_block_basis_monomial_limit():
    _, catalog = builtin_group("builtin:sym:4")
    ring = InvariantRing(catalog.irreps[3])
    # Sym^200 of C^3 has 20301 monomials, above the default 20000
    with pytest.raises(LimitExceeded):
        ring.basis(200)
    with pytest.raises(LimitExceeded):
        ring.block_basis(200, ())


def graded_ring(group, mults, cache=None):
    """The ring of a universal specialization, graded per factor copy, on
    `cache` when one is given."""
    ring = specialization_ring(builtin_group(group)[1], mults, DEFAULT_BUDGET)
    if cache is None:
        return ring
    return InvariantRing(ring.rep, grading=ring.grading, cache=cache)


def described(block):
    return [(el.degree, el.weight, el.pivot, list(el.poly.items())) for el in block]


@pytest.mark.parametrize(
    "group, mults, top",
    [("builtin:cyclic:2", (3, 3), 8), ("builtin:sym:3", (0, 2, 1), 6)],
    ids=["z2-universal", "s3-sign-standard"],
)
def test_degree_elimination_matches_single_blocks(group, mults, top):
    """One elimination over a whole degree gives each weight block the
    basis that eliminating the block alone gives, in weight order."""
    whole, single = graded_ring(group, mults), graded_ring(group, mults)
    for d in range(top + 1):
        blocks = whole.blocks(d)
        weights = whole.grading.all_weights(d)
        assert list(blocks) == [w for w in weights if single.block_basis(d, w)]
        for w in weights:
            assert described(blocks.get(w, [])) == described(single.block_basis(d, w))


@pytest.mark.parametrize("cached", [False, True], ids=["computed", "cache-hot"])
def test_block_basis_is_the_published_block(tmp_path, monkeypatch, cached):
    """Koszul keeps indices into block_basis lists, so after precompute each
    is the very list blocks() publishes, computed or read from the cache,
    and a block computed on its own before keeps its list."""
    early_w = next(iter(graded_ring("builtin:sym:3", (0, 2, 1)).blocks(4)))
    kw = {"cache": Cache(str(tmp_path))} if cached else {}
    if cached:
        graded_ring("builtin:sym:3", (0, 2, 1), **kw).precompute(range(6))
        monkeypatch.setattr(
            InvariantRing, "_compute_degree_blocks", lambda self, d: pytest.fail("not cache-hot")
        )
    ring = graded_ring("builtin:sym:3", (0, 2, 1), **kw)
    early = ring.block_basis(4, early_w)
    ring.precompute(range(6))
    assert ring.blocks(4)[early_w] is early
    # a computed degree answers its weights itself: no per-weight entries
    assert list(ring._block_cache) == [(4, early_w)]
    for d in range(6):
        blocks = ring.blocks(d)
        for w in ring.grading.all_weights(d):
            if w in blocks:
                assert ring.block_basis(d, w) is blocks[w]
            else:
                assert ring.block_basis(d, w) == []


def test_weight_breaking_action_is_an_inconsistency():
    """A swap of two variables graded (1, 1) moves x to y: every image term
    is checked against its source monomial's weight, on both routes."""
    group, _ = builtin_group("builtin:cyclic:2")
    swap = Representation.from_generator_images(
        group, [Matrix.from_rows([[Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)]])]
    )
    for d, w in ((1, (1, 0)), (2, (2, 0))):
        with pytest.raises(InternalInconsistency, match="preserve weights"):
            InvariantRing(swap, grading=Grading((1, 1))).blocks(d)
        with pytest.raises(InternalInconsistency, match="preserve weights"):
            InvariantRing(swap, grading=Grading((1, 1))).block_basis(d, w)


def test_packed_exponent_guard():
    """Exponents are packed in fixed-width fields; a degree they cannot
    hold is refused before any monomial work. One variable keeps the
    monomial limit from firing first."""
    ring = InvariantRing(rep_from_diag("builtin:cyclic:2", [Fraction(-1)]))
    assert monomial_count(1, _DEGREE_LIMIT) <= ring.budget.monomial_limit
    with pytest.raises(LimitExceeded):
        ring.blocks(_DEGREE_LIMIT)
    with pytest.raises(LimitExceeded):
        ring.block_basis(_DEGREE_LIMIT, ())
    assert ring._powers == {} and ring._molien == []
    assert ring.dim(4) == 1 and ring.basis(4)[0].poly == {pack((4,)): 1}
    # y^(2^15) squared has degree 2^16 and carries into x's field, so its
    # key is that of x. Its block holds one monomial, so only the degree
    # guard can refuse it, and it must before the product's key is read.
    graded = InvariantRing(triv_plus_sign(), grading=Grading((1, 1)))
    half = {pack((0, _DEGREE_LIMIT // 2)): 1}
    prod = poly_mul(half, half)
    assert prod == {pack((1, 0)): 1}
    assert graded.coords_in_basis(prod, 1, (1, 0)) == ((0, 1),)  # the alias
    with pytest.raises(LimitExceeded):
        graded.coords_in_basis(prod, _DEGREE_LIMIT, (0, _DEGREE_LIMIT))


def test_minimal_generators_antipodal():
    ring = InvariantRing(antipodal_c2())
    gens = minimal_generators(ring, stop=4)
    assert gens.degrees() == [2, 2, 2]
    assert gens.beta_V == 2


def test_minimal_generators_trivial_group():
    group, _ = builtin_group("builtin:cyclic:1")
    rep = Representation(group, [Matrix.identity(3)])
    ring = InvariantRing(rep)
    gens = minimal_generators(ring, stop=2)
    assert gens.degrees() == [1, 1, 1]
    assert gens.beta_V == 1


def test_minimal_generators_triv_plus_sign():
    ring = InvariantRing(triv_plus_sign())
    gens = minimal_generators(ring, stop=3)
    assert gens.degrees() == [1, 2]
    assert gens.beta_V == 2
    polys = [exponents(el.poly, 2) for el in gens.elements]
    assert {(1, 0): Fraction(1)} in polys
    assert {(0, 2): Fraction(1)} in polys


def test_noether_small_groups():
    """beta(G) on the catalog route (Cziszter-Domokos-Szollosi's table)."""
    for name, expected in [
        ("builtin:cyclic:2", 2),
        ("builtin:cyclic:3", 3),
        ("builtin:klein:4", 3),
        ("builtin:cyclic:4", 4),
        ("builtin:sym:3", 4),
        ("builtin:dihedral:4", 5),
        ("builtin:quaternion:8", 6),
        ("builtin:cyclic:8", 8),
    ]:
        _, catalog = builtin_group(name)
        res = noether_number(catalog)
        assert res.exact
        assert res.value == expected, name


# sym:3 and dihedral:3 both: two presentations of one group of order 6
SMALL_BUILTINS = [n for n in BUILTIN_NAMES if builtin_group(n)[0].order <= 6]


@pytest.mark.parametrize("name", SMALL_BUILTINS)
def test_noether_routes_agree(name):
    """The catalog route (isotypic, no trivial copy), the isotypic regular
    representation with its trivial copy and the permutation form give
    the same beta."""
    group, catalog = builtin_group(name)
    beta = noether_number(catalog).value
    assert noether_number(group).value == beta
    with_trivial = specialization_ring(catalog, catalog.degrees, DEFAULT_BUDGET)
    assert minimal_generators(with_trivial, stop=group.order).beta_V == beta


NON_CYCLIC_UP_TO_8 = ["builtin:klein:4", "builtin:sym:3", "builtin:dihedral:3",
                      "builtin:dihedral:4", "builtin:quaternion:8"]


@pytest.mark.parametrize("name", NON_CYCLIC_UP_TO_8)
def test_noether_ceiling_misses_no_generator(name):
    """Domokos-Hegedus: beta(G) <= 3|G|/4 off the cyclic groups. A scan of
    the same catalog ring to |G| finds the same beta and nothing above the
    ceiling."""
    group, catalog = builtin_group(name)
    trivial = (1,) * group.class_count
    mults = [0 if chi == trivial else d for chi, d in zip(catalog.characters, catalog.degrees)]
    ring = specialization_ring(catalog, mults, DEFAULT_BUDGET)
    full = minimal_generators(ring, stop=group.order)
    assert max(full.beta_V, 1) == noether_number(catalog).value
    assert full.beta_V <= 3 * group.order // 4


@pytest.mark.parametrize("name, stop", [
    *((f"builtin:cyclic:{n}", n) for n in range(1, 9)),
    ("builtin:klein:4", 3),
    ("builtin:sym:3", 4),
    ("builtin:dihedral:3", 4),
    ("builtin:dihedral:4", 6),
    ("builtin:quaternion:8", 6),
])
def test_noether_scan_stops_at_the_ceiling(monkeypatch, name, stop):
    """Both routes scan to |G| on cyclic groups and to floor(3|G|/4) on the
    rest, and compute no degree above it."""
    scans = []

    def recording(ring, stop):
        gens = minimal_generators(ring, stop)
        scans.append((stop, max(ring._degree_blocks)))
        return gens

    monkeypatch.setattr(invariants, "minimal_generators", recording)
    group, catalog = builtin_group(name)
    noether_number(catalog)
    if group.order <= 6:
        noether_number(group)
    assert scans == [(stop, stop)] * (2 if group.order <= 6 else 1)


def test_noether_fallback():
    group, _ = builtin_group("builtin:sym:4")
    res = noether_number(group)
    assert not res.exact
    assert res.value == 24


def test_beta_v_at_most_noether_value():
    for name, rep_builder in [
        ("builtin:cyclic:2", antipodal_c2),
        ("builtin:cyclic:2", triv_plus_sign),
        ("builtin:cyclic:3", z3_omega_omega),
    ]:
        group, _ = builtin_group(name)
        noether = noether_number(group)
        ring = InvariantRing(rep_builder())
        assert minimal_generators(ring, stop=group.order).beta_V <= noether.value <= group.order


def test_build_E_full_antipodal():
    group, _ = builtin_group("builtin:cyclic:2")
    noether = noether_number(group)
    ring = InvariantRing(antipodal_c2())
    full = build_E(ring, "full", noether)
    assert full.degrees() == [2, 2, 2]


def test_build_E_modes_triv_plus_sign():
    group, _ = builtin_group("builtin:cyclic:2")
    noether = noether_number(group)
    ring = InvariantRing(triv_plus_sign())
    full = build_E(ring, "full", noether)
    assert full.degrees() == [1, 2, 2]
    minimal = build_E(ring, "minimal", noether)
    assert minimal.degrees() == [1, 2]
    # minimal elements live inside the full span (they are basis columns)
    full_ids = {id(el) for el in full.elements}
    pivots_full = {(el.degree, el.pivot) for el in full.elements}
    assert all((el.degree, el.pivot) in pivots_full for el in minimal.elements)


def test_build_E_trivial_group_minimal():
    group, _ = builtin_group("builtin:cyclic:1")
    rep = Representation(group, [Matrix.identity(1)])
    ring = InvariantRing(rep)
    noether = noether_number(group)
    assert noether.value == 1
    assert noether_number(builtin_group("builtin:cyclic:1")[1]).value == 1
    gens = build_E(ring, "minimal", noether)
    assert gens.degrees() == [1]


def test_products_of_invariants_stay_invariant():
    ring = InvariantRing(z3_omega_omega())
    basis3 = ring.basis(3)
    for x in basis3:
        for y in basis3:
            prod = poly_mul(x.poly, y.poly)
            # membership in R_6 must succeed, which also asserts exactness
            coords = ring.coords_in_basis(prod, 6, ())
            assert coords and all(c for _, c in coords)


def test_reynolds_molien_agreement_suite():
    group_s3, catalog_s3 = builtin_group("builtin:sym:3")
    instances = [
        antipodal_c2(),
        triv_plus_sign(),
        z3_omega_omega(),
        catalog_s3.irreps[2],
        regular_representation(builtin_group("builtin:klein:4")[0]),
    ]
    for rep in instances:
        ring = InvariantRing(rep)
        top = min(2 * rep.group.order, 6)
        mol = molien_series(rep, top)
        for d in range(top + 1):
            assert ring.dim(d) == mol[d]


def test_blocked_grading_matches_trivial_dims():
    # triv + sign as a graded spec: two groups of one variable each
    rep = triv_plus_sign()
    plain = InvariantRing(rep)
    graded = InvariantRing(rep, grading=Grading((1, 1)))
    for d in range(5):
        assert plain.dim(d) == graded.dim(d)
    wd = graded.weight_dims(2)
    assert wd == {(2, 0): 1, (0, 2): 1}


@pytest.mark.parametrize(
    "make, top",
    [
        (lambda: s3_sign_standard(), 6),
        (lambda: s3_sign_standard((1, 2, Fraction(1, 3))), 6),
        (lambda: regular_representation(builtin_group("builtin:sym:3")[0]), 4),
        (triv_plus_sign, 6),
        (z3_omega_omega, 6),
    ],
    ids=["integer", "rational", "s3-regular", "triv-sign", "z3-omega-omega"],
)
def test_generic_blocks_match_reynolds_oracle(make, top):
    """Non-monomial and monomial representations alike take the one route."""
    rep = make()
    ring = InvariantRing(rep)
    images = [m.data for m in rep.images]
    for d in range(top + 1):
        basis = sym_power_basis(rep.degree, d)
        expected = [
            {basis[i]: c for i, c in enumerate(vec) if c}
            for vec in column_echelon_basis(reynolds_matrix(sym_power_action(images, d)))
        ]
        assert [exponents(el.poly, rep.degree) for el in ring.basis(d)] == expected, d


@pytest.mark.parametrize(
    "name", [n for n in BUILTIN_NAMES if builtin_group(n)[0].order <= 6]
)
def test_regular_ring_eliminates_one_row_per_orbit(monkeypatch, name):
    """On a permutation representation every image g . m is one monomial,
    so the Reynolds columns of an orbit are equal and one row per orbit,
    dim R_d rows in all, reaches the elimination. The bases are the
    oracle's canonical ones."""
    import syzlab.invariants as invariants

    received = []
    reduce = invariants.reduced_rows

    def counting(rows, ncols):
        received.append(len(rows))
        return reduce(rows, ncols)

    monkeypatch.setattr(invariants, "reduced_rows", counting)
    rep = regular_representation(builtin_group(name)[0])
    ring = InvariantRing(rep)
    images = [m.data for m in rep.images]
    for d in range(1, 5):
        received.clear()
        basis = ring.basis(d)
        assert received == [len(basis)] == [ring.molien(d)[d]]
        if d <= 3:
            monos = sym_power_basis(rep.degree, d)
            expected = [
                {monos[i]: c for i, c in enumerate(vec) if c}
                for vec in column_echelon_basis(reynolds_matrix(sym_power_action(images, d)))
            ]
            assert [exponents(el.poly, rep.degree) for el in basis] == expected, d


def test_power_memo_is_bounded():
    rep = s3_sign_standard()
    ring = InvariantRing(rep)
    top = 8
    ring.precompute(range(top + 1))
    entries = sum(len(pows) for pows in ring._powers.values())
    assert 0 < entries <= rep.group.order * rep.degree * top


@pytest.mark.parametrize(
    "make, stop",
    [
        (lambda: InvariantRing(regular_representation(builtin_group("builtin:sym:3")[0])), 4),
        (lambda: InvariantRing(s3_sign_standard()), 6),
        (lambda: InvariantRing(s3_sign_standard((-1, 1, -1))), 6),
        (lambda: InvariantRing(s3_sign_standard(), grading=Grading((1, 2))), 6),
        (lambda: InvariantRing(z3_cyclotomic()), 3),
        (lambda: InvariantRing(triv_plus_sign()), 2),
        (lambda: InvariantRing(triv_plus_sign(), grading=Grading((1, 1))), 2),
    ],
    ids=[
        "s3-regular",
        "s3-sign-standard",
        "s3-sign-conjugated",
        "s3-sign-standard-graded",
        "z3-cyclotomic",
        "triv-sign",
        "triv-sign-graded",
    ],
)
@pytest.mark.parametrize("selection", ["forward", "reverse"])
def test_minimal_generators_match_greedy_oracle(make, stop, selection):
    assert_matches_greedy_oracle(make(), stop, selection)


def assert_matches_greedy_oracle(ring, stop, selection):
    """The engine's scan against the oracle's greedy complement, scanned in
    the order `selection` names. Scanned forward it picks the very same
    elements; scanned backwards it picks another minimal complement, which
    has as many elements in each (degree, weight) block (graded Nakayama)."""
    gens = minimal_generators(ring, stop=stop)
    bases = [ring.basis(d) for d in range(stop + 1)]
    picked = [
        bases[d][i]
        for d, i in greedy_generators(
            [[exponents(el.poly, ring.nvars) for el in b] for b in bases],
            stop,
            reverse=selection == "reverse",
        )
    ]
    if selection == "forward":
        assert [id(el) for el in gens.elements] == [id(el) for el in picked]
    else:
        def blocks(els):
            return Counter((el.degree, el.weight) for el in els)

        assert blocks(gens.elements) == blocks(picked)


def test_element_zero_must_act_as_the_identity():
    """The Reynolds sums take element 0's image of a monomial to be the
    monomial itself, so a representation whose element 0 acts otherwise is
    refused before any block is computed."""
    group, _ = builtin_group("builtin:cyclic:2")
    swapped = Representation(
        group, [Matrix.from_rows([[Fraction(-1)]]), Matrix.identity(1)], check=False
    )
    with pytest.raises(InternalInconsistency, match="element 0"):
        InvariantRing(swapped)


def _images(rep):
    return [[list(row) for row in m.data] for m in rep.images]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_molien_matches_fraction_oracle_on_builtins(name):
    """The library's integral Newton route against power sums in Fractions,
    on every irreducible and on the regular representation."""
    group, catalog = builtin_group(name)
    for rep in catalog.irreps:
        assert molien_series(rep, 8) == molien_oracle(_images(rep), 8)
    regular = regular_representation(group)
    assert molien_series(regular, 5) == molien_oracle(_images(regular), 5)


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("workload", ["generic", "cyclotomic"])
def test_molien_matches_fraction_oracle_on_benchmark_documents(workload, seed):
    doc = getattr(benchmark_workloads(), f"{workload}_doc")(seed)
    rep = parse_problem(doc, "syzygies", Budget.preset("default")).rep
    assert molien_series(rep, 10) == molien_oracle(_images(rep), 10)


@pytest.mark.parametrize("workload, dets", [("universal", 4), ("generic", 6), ("cyclotomic", 6)])
def test_molien_determinants_once_per_representation(
    monkeypatch, tmp_path, capsys, workload, dets
):
    """Each run builds two rings, of 2 classes (Z2, `universal` at p 1) or
    3 (S3 and Z3, seed 0), and asks one of them for a longer series: each
    ring takes det(I - t*M) once per class, and every series still comes
    from `molien_series`, the function the benchmark's tracer counts."""
    module = benchmark_workloads()
    if workload == "universal":
        doc = module.load_problem(Path(__file__).resolve().parent.parent, "z2_universal")
    else:
        doc = getattr(module, f"{workload}_doc")(0)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    calls = Counter()

    def counted(name):
        real = getattr(invariants, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(invariants, name, call)

    counted("_char_poly_det")
    counted("molien_series")
    assert main([doc["task"], "--input", str(path), "--no-cache"]) == 0
    assert module.check_heavy(workload, json.loads(capsys.readouterr().out)["results"]) is None
    assert calls == {"_char_poly_det": dets, "molien_series": 3}


@pytest.mark.parametrize("selection", ["forward", "reverse"])
def test_minimal_generators_scan_integral_multiples(selection):
    """S3 on sign + standard to degree 12: basis elements with Fraction
    coefficients enter the product scan as integral multiples, and the
    selection is still the greedy one in polynomial space."""
    stop = 12
    ring = InvariantRing(s3_sign_standard())
    assert_matches_greedy_oracle(ring, stop, selection)
    bases = [ring.basis(d) for d in range(stop + 1)]
    assert any(type(c) is Fraction for b in bases for el in b for c in el.poly.values())


# -- block coordinates against a rational reference --------------------------------

_PRODUCT_RINGS = {
    "z3-cyclotomic": z3_cyclotomic,
    "s3-sign-standard": s3_sign_standard,
    "z3-omega-omega": z3_omega_omega,
}


@pytest.fixture(scope="module")
def product_rings():
    """name -> (ring, its basis elements of degrees 1-3)."""
    out = {}
    for name, make in _PRODUCT_RINGS.items():
        ring = InvariantRing(make())
        out[name] = ring, [el for d in range(1, 4) for el in ring.basis(d)]
    return out


def _reference_coords(basis, poly):
    """{index: coefficient} of poly in the basis, by Gauss-Jordan on the
    system [B | poly] of the basis polynomials themselves; None when poly
    is not in their span."""
    support = sorted({m for el in basis for m in el.poly} | set(poly))
    rows = [[el.poly.get(m, 0) for el in basis] + [poly.get(m, 0)] for m in support]
    reduced, rank = row_reduce(rows)
    coords = {}
    for row in reduced[:rank]:
        lead = next(j for j, x in enumerate(row) if x != 0)
        if lead == len(basis):
            return None
        if row[-1] != 0:
            coords[lead] = row[-1]
    return coords


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_PRODUCT_RINGS)), st.data())
def test_coords_in_basis_match_a_rational_reference(product_rings, name, data):
    """A product of two basis elements, or of their integral multiples,
    times a rational, has the coordinates exact Gauss-Jordan finds on the
    basis polynomials, which knows no integral multiple. Moving one
    coefficient off the pivots by 1 puts it outside the block, where there
    is an outside, and the check must refuse it."""
    ring, elements = product_rings[name]
    x, y = data.draw(st.sampled_from(elements)), data.draw(st.sampled_from(elements))
    k = data.draw(st.sampled_from([1, -2, Fraction(1, 3), Fraction(-5, 6)]))
    factors = (x.multiple, y.multiple) if data.draw(st.booleans()) else (x.poly, y.poly)
    d = x.degree + y.degree
    prod = {m: c * k for m, c in poly_mul(*factors).items()}
    basis = ring.block_basis(d, ())
    coords = ring.coords_in_basis(prod, d, ())
    assert dict(coords) == _reference_coords(basis, prod)
    assert [i for i, _ in coords] == sorted(dict(coords))
    assert not any(type(c) is Fraction and c.denominator == 1 for _, c in coords)
    pivots = {el.pivot for el in basis}
    outside = [pack(e) for e in monomials(ring.nvars, d) if pack(e) not in pivots]
    if not outside:  # the block is all of Sym^d, as for Z3 on omega + omega
        return
    m = data.draw(st.sampled_from(outside))
    moved = dict(prod)
    moved[m] = moved.get(m, 0) + 1
    if not moved[m]:
        del moved[m]
    with pytest.raises(InternalInconsistency, match="does not lie"):
        ring.coords_in_basis(moved, d, ())


def test_coords_in_basis_ignore_the_support_order(product_rings):
    """The coordinates come in increasing index order whatever order the
    polynomial's support is listed in."""
    for ring, elements in product_rings.values():
        for x in elements:
            for y in elements:
                d = x.degree + y.degree
                prod = poly_mul(x.multiple, y.multiple)
                coords = ring.coords_in_basis(prod, d, ())
                assert [i for i, _ in coords] == sorted(i for i, _ in coords)
                reordered = dict(reversed(prod.items()))  # the same polynomial
                assert ring.coords_in_basis(reordered, d, ()) == coords
