import json
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest

from syzlab import invariants, koszul
from syzlab.cli import main
from syzlab.cyclo import Cyclotomic, zeta
from syzlab.errors import InternalInconsistency, InvalidInput
from syzlab.groups import Representation, builtin_group
from syzlab.invariants import (
    ArtinianReduction,
    GeneratorSet,
    InvariantRing,
    InvElem,
    build_E,
    noether_number,
    parameter_system,
)
from syzlab.koszul import KoszulComplex, scan_ceiling, syzygy_degree, tor_table
from syzlab.limits import DEFAULT_BUDGET, Budget
from syzlab.linalg import Matrix, rank
from syzlab.monomials import pack, poly_add_into, poly_mul, unpack
from syzlab.schur import (
    _decompositions,
    _dominant_complex,
    domination_check,
    dominant_weights,
    specialization,
    specialization_ring,
    tor_row_bounds,
    universal_multiplicities,
)

from oracles import (
    davenport_constant,
    greedy_generators,
    koszul_chain_blocks,
    row_reduce_rank,
    veronese_tor,
)


def diag_rep(name, diag):
    group, _ = builtin_group(name)
    m = Matrix.from_rows(
        [[d if i == j else Fraction(0) for j in range(len(diag))] for i, d in enumerate(diag)]
    )
    return Representation.from_generator_images(group, [m])


def make_cx(rep, mode):
    noe = noether_number(rep.group)
    ring = InvariantRing(rep)
    return KoszulComplex(ring, build_E(ring, mode, noe), noe.value)


def oracle_reversed_cx(rep):
    """The complex on the minimal complement that the independent greedy
    oracle picks when it scans each degree's basis backwards."""
    noe = noether_number(rep.group)
    ring = InvariantRing(rep)
    bases = [ring.basis(d) for d in range(noe.value + 1)]
    picked = greedy_generators(
        [[{unpack(m, ring.nvars): c for m, c in el.poly.items()} for el in b] for b in bases],
        noe.value,
        reverse=True,
    )
    elements = tuple(bases[d][i] for d, i in picked)
    gens = GeneratorSet("minimal", elements, max((el.degree for el in elements), default=0))
    return KoszulComplex(ring, gens, noe.value)


def z2_rep():
    return diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)])


def z3_cyclotomic_rep():
    """Z3 on C^2 by P diag(zeta, zeta^2) P^-1 with P = [[1, zeta], [0, 1]]:
    the invariants, and so the differentials, have entries in Q(zeta_3)."""
    group, _ = builtin_group("builtin:cyclic:3")
    w = zeta(3)
    return Representation.from_generator_images(
        group, [Matrix.from_rows([[w, 2 + w], [0, w * w]])]
    )


@pytest.fixture(scope="module")
def z2_min():
    return make_cx(z2_rep(), "minimal")


@pytest.fixture(scope="module")
def z3_min():
    w = zeta(3)
    return make_cx(diag_rep("builtin:cyclic:3", [w, w]), "minimal")


def test_chain_dimensions(z2_min):
    # E has 3 quadratic elements; (R (x) E)_4 = R_2 (x) E
    assert z2_min.chain_dim(1, 4) == 9
    for d in (0, 2, 4, 6):
        assert z2_min.chain_dim(0, d) == z2_min.ring.dim(d)
    assert z2_min.chain_dim(4, 12) == 0  # p exceeds |E|


def test_differential_ranks_at_degree_four(z2_min):
    d1 = z2_min.differential(1, 4)[()]
    assert (d1.rows, d1.cols) == (5, 9)
    assert rank(d1) == 5
    d2 = z2_min.differential(2, 4)[()]
    assert rank(d2) == 3
    # the full degree-4 strand has total rank 8, leaving a single class
    assert z2_min.tor_dimension(1, 4) == 1


def test_differential_squares_to_zero(z2_min):
    d2 = z2_min.differential(2, 6)[()]
    d1 = z2_min.differential(1, 6)[()]
    assert (d1 @ d2).is_zero()


def test_tor_dimension_examples(z2_min):
    assert z2_min.tor_dimension(1, 4) == 1
    assert z2_min.tor_dimension(1, 3) == 0
    ceiling = scan_ceiling(2, 2, 2)
    for d in range(ceiling + 1):
        assert z2_min.tor_dimension(2, d) == 0


def test_syzygy_degree_veronese_z2(z2_min):
    assert syzygy_degree(z2_min, 1) == 4
    assert syzygy_degree(z2_min, 2) is None


def test_syzygy_degree_veronese_z3(z3_min):
    assert syzygy_degree(z3_min, 1) == 6
    assert syzygy_degree(z3_min, 2) == 9


def test_tor_table_trivial_group():
    group, _ = builtin_group("builtin:cyclic:1")
    rep = Representation(group, [Matrix.identity(1)])
    cx = make_cx(rep, "minimal")
    table = tor_table(cx, p_max=2)
    assert table["rows"] == [[0, 0, 1]]


def test_tor_table_veronese_z2(z2_min):
    table = tor_table(z2_min, p_max=2)
    assert table["rows"] == [[0, 0, 1], [1, 4, 1]]
    assert table["ceilings"] == {"0": 2, "1": 4, "2": 6}


def test_tor_table_ranks_each_block_once(monkeypatch):
    import syzlab.koszul

    ranked = []

    def counting_rank(m):
        ranked.append(m)
        return rank(m)

    monkeypatch.setattr(syzlab.koszul, "rank", counting_rank)
    cx = make_cx(diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)]), "minimal")
    table = tor_table(cx, p_max=2)
    assert table["rows"] == [[0, 0, 1], [1, 4, 1]]
    assert ranked and len({id(m) for m in ranked}) == len(ranked)


def test_cyclotomic_tor_table_matches_oracle_and_diagonal_conjugate(monkeypatch):
    """The non-diagonal Z3 representation ranks Koszul blocks over
    Q(zeta_3); each rank agrees with textbook Gauss-Jordan, and the table
    agrees with that of the conjugate diagonal representation."""
    import syzlab.koszul

    ranked = []

    def recording_rank(m):
        ranked.append((m, rank(m)))
        return ranked[-1][1]

    monkeypatch.setattr(syzlab.koszul, "rank", recording_rank)
    table = tor_table(make_cx(z3_cyclotomic_rep(), "minimal"), p_max=2)
    assert any(type(x) is Cyclotomic for m, _ in ranked for r in m.data for x in r)
    for m, engine in ranked:
        assert engine == row_reduce_rank(m.data)
    w = zeta(3)
    diagonal = make_cx(diag_rep("builtin:cyclic:3", [w, w**2]), "minimal")
    assert table == tor_table(diagonal, p_max=2)


def _corrupt_one_entry(cx, p, d):
    """Add 1 to one entry of the memoized weight block of d_(p+1) in degree
    d, in a row whose column of d_p is nonzero, so d_p d_(p+1) != 0.
    Returns the corrupted block."""
    d_p, d_next = cx.differential(p, d), cx.differential(p + 1, d)
    for w, m in d_next.items():
        if w not in d_p or not m.cols:
            continue
        left = d_p[w]
        for i in range(left.cols):
            if any(left.at(r, i) for r in range(left.rows)):
                data = [list(r) for r in m.data]
                data[i][0] += 1
                d_next[w] = Matrix(m.rows, m.cols, data)
                return d_next[w]
    raise AssertionError("no block of d_(p+1) meets a nonzero column of d_p")


@pytest.mark.parametrize(
    "make_rep, p, d", [(z2_rep, 1, 6), (z3_cyclotomic_rep, 1, 8)], ids=["z2", "z3-cyclotomic"]
)
def test_d_squared_check_fires(make_rep, p, d):
    cx = make_cx(make_rep(), "minimal")
    bad = _corrupt_one_entry(cx, p, d)
    if make_rep is z3_cyclotomic_rep:
        assert any(type(x) is Cyclotomic for r in bad.data for x in r)
    with pytest.raises(InternalInconsistency, match="does not square to zero"):
        cx.tor_data(p, d)


def test_nonzero_guard_band_is_an_inconsistency(monkeypatch, capsys):
    """Tor_p reported one degree above the ceiling stops every scan with exit
    3: the syzygy degree, the table, both Schur checks and the CLI."""
    real_tor_data = KoszulComplex.tor_data

    def tor_data_above_ceiling(self, p, d):
        total, weight_dims = real_tor_data(self, p, d)
        if p >= 1 and d == self.ceiling(p) + 1:
            return total + 1, weight_dims
        return total, weight_dims

    monkeypatch.setattr(KoszulComplex, "tor_data", tor_data_above_ceiling)
    with pytest.raises(InternalInconsistency, match="ceiling violated"):
        syzygy_degree(make_cx(z2_rep(), "minimal"), 1)
    with pytest.raises(InternalInconsistency, match="ceiling violated"):
        tor_table(make_cx(z2_rep(), "minimal"), p_max=2)
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    with pytest.raises(InternalInconsistency, match="ceiling violated"):
        tor_row_bounds(catalog, noe, p=1)
    with pytest.raises(InternalInconsistency, match="ceiling violated"):
        domination_check(catalog, noe, p=1, samples=[])
    problem = Path(__file__).resolve().parent.parent / "problems" / "z2_antipodal_syzygies.json"
    code = main(["syzygies", "--input", str(problem), "--no-cache"])
    out, err = capsys.readouterr()
    assert code == 3
    assert out == ""
    assert err.splitlines() == [
        "syzlab: internal inconsistency: ceiling violated — implementation bug or misread bound"
    ]


@pytest.mark.parametrize("make_rep", [z2_rep, z3_cyclotomic_rep], ids=["z2", "z3-cyclotomic"])
def test_tor_table_multiplies_each_pair_once(monkeypatch, make_rep):
    """Each (R basis element, generator) product is formed and written in
    the block basis once per complex, however many subsets and p use it."""
    import syzlab.koszul

    cx = make_cx(make_rep(), "minimal")
    pairs = []
    coords = []
    coords_in_basis = InvariantRing.coords_in_basis

    def counting_mul(p, q):
        pairs.append((id(p), id(q)))
        return poly_mul(p, q)

    def counting_coords(self, poly, d, w):
        coords.append((d, w))
        return coords_in_basis(self, poly, d, w)

    monkeypatch.setattr(syzlab.koszul, "poly_mul", counting_mul)
    monkeypatch.setattr(InvariantRing, "coords_in_basis", counting_coords)
    table = tor_table(cx, p_max=2)
    assert table["rows"][0] == [0, 0, 1]
    assert pairs and len(pairs) == len(set(pairs))
    assert len(coords) <= len(pairs)


def test_a_scan_reads_only_whole_degrees(monkeypatch):
    """`tor_table` on a complex no route has touched (Z2 acting by -1 on
    C^2) reads R only in degrees computed whole, each checked against the
    Molien series, and eliminates no single weight block: the scan does
    not leave computing its degrees to its caller."""
    cx = make_cx(z2_rep(), "minimal")
    read = set()
    block_basis = InvariantRing.block_basis

    def recording(self, d, w):
        read.add(d)
        return block_basis(self, d, w)

    monkeypatch.setattr(InvariantRing, "block_basis", recording)
    tor_table(cx, 2)
    assert cx.ring._block_cache == {}
    assert read and read <= set(cx.ring._degree_blocks)


@pytest.mark.parametrize("p, level", [(1, "default"), (2, "large")])
def test_probes_multiply_no_pair_the_scan_did(monkeypatch, p, level):
    """On the dominant complex of Z2's universal specialization
    (`problems/z2_universal.json`: multiplicities (3, 3) at p = 1, (5, 5)
    at p = 2 under `large`), no (R basis element, generator) pair is
    multiplied twice across the scan and the non-dominant probes of
    `_decompositions`: a probe is the scan's complex `restricted` to two
    weights, which shares the products. At p = 2 a probe built afresh
    multiplies one of the scan's pairs again. A probe has the chain bases
    and differentials of a complex built afresh on its selection."""
    import syzlab.koszul

    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    mults = universal_multiplicities(catalog, noe, p)
    assert mults == (2 * p + 1,) * 2
    cx = _dominant_complex(catalog, mults, noe, Budget.preset(level))
    pairs = []
    probes = []
    tor_data = KoszulComplex.tor_data

    def counting_mul(a, b):
        pairs.append((id(a), id(b)))
        return poly_mul(a, b)

    def recording(self, q, d):
        if self is not cx and self not in probes:
            probes.append(self)
        return tor_data(self, q, d)

    monkeypatch.setattr(syzlab.koszul, "poly_mul", counting_mul)
    monkeypatch.setattr(KoszulComplex, "tor_data", recording)
    assert list(_decompositions(cx, mults, p))
    assert len(probes) == 2 and pairs
    assert len(pairs) == len(set(pairs))
    for probe in probes:
        fresh = KoszulComplex(cx.ring, cx.gens, cx.beta, probe.weights_for_degree)
        for q in range(p + 2):
            for d in range(cx.ceiling(p) + cx.guard + 1):
                assert list(probe.chain_blocks(q, d).items()) == list(
                    fresh.chain_blocks(q, d).items()
                )
                if q:
                    assert probe.differential(q, d) == fresh.differential(q, d)


def test_tor_table_refuses_a_set_that_does_not_generate():
    """Z2 on C^2 by -1 without xy among its generators: x^2 and y^2 are a
    system of parameters, and xy survives in R/θR, so Tor_0 is nonzero in
    degree 2."""
    rep = z2_rep()
    noe = noether_number(rep.group)
    ring = InvariantRing(rep)
    gens = build_E(ring, "minimal", noe)
    xy = pack((1, 1))
    rest = tuple(el for el in gens.elements if xy not in el.poly)
    assert len(rest) == len(gens.elements) - 1 == 2
    cx = koszul.tor_complex(ring, GeneratorSet("minimal", rest, 2), noe.value)
    with pytest.raises(InternalInconsistency) as err:
        tor_table(cx, 1)
    assert str(err.value) == "generator set does not generate: Tor_0 is nonzero in degree 2"


@pytest.mark.parametrize(
    "name, task",
    [
        ("z2_antipodal_syzygies", "syzygies"),
        ("z2_antipodal_bounds", "bounds"),
        ("z3_veronese_bounds", "bounds"),
        ("triv_sign_full_syzygies", "syzygies"),
    ],
)
def test_precompute_covers_the_degrees_the_scans_read(monkeypatch, capsys, name, task):
    """`KoszulComplex.scan(p)` calls `precompute(p)`, which computes the
    ring in every degree that scan then reads: after each scan, and at the
    end of the run, the complex the run scans holds no degree, of R/θR or
    of R, that the precompute of that scan did not compute. Over R (the θ
    finder made to fail) those are exactly the degrees the same run reads
    with the precompute left out (left out over R/θR, the quotient is not
    known to vanish anywhere, so it reads R higher up). The report is the
    same in all four runs."""
    problem = Path(__file__).resolve().parent.parent / "problems" / f"{name}.json"
    argv = [task, "--input", str(problem), "--no-cache"]

    def degrees(ring):
        if isinstance(ring, ArtinianReduction):
            return set(ring._degree_blocks) | {d for d, _ in ring._blocks}, degrees(ring.ring)[0]
        return set(ring._degree_blocks) | {d for d, _ in ring._block_cache}, None

    precompute, scan = KoszulComplex.precompute, KoszulComplex.scan

    def run(eager):
        complexes, computed = [], []

        def recorded(self, p):
            complexes.append(self)
            if eager:
                precompute(self, p)
            computed.append(degrees(self.ring))

        def checked(self, p):
            scanned = scan(self, p)
            if eager:
                assert degrees(self.ring) == computed[-1]
            return scanned

        monkeypatch.setattr(KoszulComplex, "precompute", recorded)
        monkeypatch.setattr(KoszulComplex, "scan", checked)
        assert main(argv) == 0
        cx = complexes[0]
        assert all(c is cx for c in complexes)
        if eager:
            assert degrees(cx.ring) == computed[-1]
        return capsys.readouterr(), cx.ring, degrees(cx.ring)

    report, quotient, _ = run(eager=True)
    assert isinstance(quotient, ArtinianReduction)
    assert run(eager=False)[0] == report
    monkeypatch.setattr(koszul, "parameter_system", lambda ring, gens: None)
    out, ring, eager = run(eager=True)
    assert out == report and isinstance(ring, InvariantRing)
    out, _, lazy = run(eager=False)
    assert out == report and lazy == eager


def test_tor_table_full_mode_triv_sign():
    cx = make_cx(diag_rep("builtin:cyclic:2", [Fraction(1), Fraction(-1)]), "full")
    table = tor_table(cx, p_max=1)
    assert table["rows"] == [[0, 0, 1], [1, 2, 1]]
    assert syzygy_degree(cx, 1) == 2


def test_oracle_agreement_veronese_z2(z2_min):
    for p in range(0, 4):
        ceiling = scan_ceiling(2, 2, p)
        for d in range(ceiling + 3):
            engine = z2_min.tor_dimension(p, d)
            oracle = veronese_tor(2, p, d)
            assert engine == oracle, (p, d, engine, oracle)


def test_oracle_agreement_veronese_z3(z3_min):
    for p in range(0, 4):
        ceiling = scan_ceiling(3, 2, p)
        for d in range(ceiling + 4):
            engine = z3_min.tor_dimension(p, d)
            oracle = veronese_tor(3, p, d)
            assert engine == oracle, (p, d, engine, oracle)


def test_monotonicity_minimal_vs_full():
    reps = [
        diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)]),
        diag_rep("builtin:cyclic:2", [Fraction(1), Fraction(-1)]),
        diag_rep("builtin:cyclic:3", [zeta(3), zeta(3)]),
    ]
    for rep in reps:
        cx_min = make_cx(rep, "minimal")
        cx_full = make_cx(rep, "full")
        for p in (1, 2):
            s_min = syzygy_degree(cx_min, p)
            s_full = syzygy_degree(cx_full, p)
            lo = -1 if s_min is None else s_min
            hi = -1 if s_full is None else s_full
            assert lo <= hi, (rep, p, s_min, s_full)


def test_minimal_choice_independence():
    reps = [
        diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)]),
        diag_rep("builtin:cyclic:2", [Fraction(1), Fraction(-1)]),
        diag_rep("builtin:cyclic:3", [zeta(3), zeta(3)]),
    ]
    for rep in reps:
        fwd = make_cx(rep, "minimal")
        rev = oracle_reversed_cx(rep)
        for p in (1, 2):
            assert syzygy_degree(fwd, p) == syzygy_degree(rev, p)


def test_choice_independence_on_a_different_complement():
    """S3 on sign + standard with its degree-4 generator g replaced by
    g + x*y, x and y its degree-2 generators: the same class modulo R+^2,
    so the set is still minimal, but its degree-4 complement is another
    line. The Tor table and s_1 = 8 stay."""
    group, catalog = builtin_group("builtin:sym:3")
    ring = InvariantRing(specialization(catalog, [0, 1, 1]))
    noe = noether_number(group)
    gens = build_E(ring, "minimal", noe)
    assert gens.degrees() == [2, 2, 3, 4]
    x, y, z, g = gens.elements
    poly = dict(g.poly)
    poly_add_into(poly, poly_mul(x.poly, y.poly), 1)
    other = GeneratorSet("minimal", (x, y, z, InvElem(4, g.weight, poly)), gens.beta_V)
    cx = KoszulComplex(ring, gens, noe.value)
    cx_other = KoszulComplex(ring, other, noe.value)
    assert tor_table(cx_other, p_max=2) == tor_table(cx, p_max=2)
    assert syzygy_degree(cx_other, 1) == syzygy_degree(cx, 1) == 8


def test_generators_out_of_degree_order_give_the_same_table():
    """The complex sorts E by degree, which the enumeration of subsets by
    degree sum needs: S3 on sign + standard with its minimal generators
    listed highest degree first gives the Tor table of the sorted list."""
    group, catalog = builtin_group("builtin:sym:3")
    ring = InvariantRing(specialization(catalog, [0, 1, 1]))
    noe = noether_number(group)
    gens = build_E(ring, "minimal", noe)
    backwards = GeneratorSet("minimal", gens.elements[::-1], gens.beta_V)
    assert backwards.degrees() == [4, 3, 2, 2]
    table = tor_table(KoszulComplex(ring, gens, noe.value), p_max=2)
    assert tor_table(KoszulComplex(ring, backwards, noe.value), p_max=2) == table


def test_chains_list_no_subset_above_the_degree(monkeypatch):
    """The dominant complex of S3 at multiplicities (5, 5, 6) is over R
    (no θ within the default budget), with 2,563 generators and so 3.3
    million 2-subsets. Tor_1 in degree 3 lists only the subsets of at most
    two generators of degree sum at most 3."""
    listed = []
    real = koszul.subsets_of_degree

    def recording(degrees, n, total):
        for s in real(degrees, n, total):
            listed.append(sum(degrees[i] for i in s))
            yield s

    monkeypatch.setattr(koszul, "subsets_of_degree", recording)
    group, catalog = builtin_group("builtin:sym:3")
    cx = _dominant_complex(catalog, (5, 5, 6), noether_number(group), DEFAULT_BUDGET)
    assert type(cx.ring) is InvariantRing and len(cx.E) == 2563
    assert cx.tor_dimension(1, 3) == 7
    low = [el.degree for el in cx.E if el.degree <= 3]
    want = [sum(s) for p in range(3) for s in combinations(low, p) if sum(s) <= 3]
    assert max(listed) == 3 and sorted(listed) == sorted(want)


def test_zero_dimensional_rep():
    group, _ = builtin_group("builtin:cyclic:2")
    rep = Representation(group, [Matrix(0, 0, [])] * group.order)
    cx = make_cx(rep, "minimal")
    assert syzygy_degree(cx, 1) is None
    assert tor_table(cx, p_max=1)["rows"] == [[0, 0, 1]]


def test_davenport_oracle_values():
    assert davenport_constant([2]) == 2
    assert davenport_constant([3]) == 3
    assert davenport_constant([2, 2]) == 3
    assert davenport_constant([4]) == 4
    assert davenport_constant([6]) == 6


def test_noether_matches_davenport():
    """beta(G) = D(G) for abelian G, on the catalog route up to order 8
    (`test_noether_routes_agree` compares the routes up to order 6)."""
    for name, moduli in [(f"builtin:cyclic:{n}", [n]) for n in range(1, 9)] + [
        ("builtin:klein:4", [2, 2])
    ]:
        _, catalog = builtin_group(name)
        assert noether_number(catalog).value == davenport_constant(moduli), name


def test_syzygy_degree_requires_positive_p(z2_min):
    with pytest.raises(InvalidInput):
        syzygy_degree(z2_min, 0)


# Non-dominant weights of the S3 specialization (0, 2, 1): increasing in its
# two sign copies. They are offered in every degree, as the non-dominant
# probes of the Schur cross-check are, so most do not match the degree.
S3_NONDOMINANT = (
    (0, 1, 0), (0, 2, 0), (1, 3, 0), (0, 2, 2), (0, 1, 3), (0, 2, 3),
    (2, 3, 1), (1, 3, 2), (0, 3, 3), (1, 3, 3), (0, 2, 5),
)


@pytest.mark.parametrize(
    "group, mults, top, allowed",
    [
        ("builtin:cyclic:2", (3, 3), 10, "dominant"),
        ("builtin:sym:3", (0, 2, 1), 7, "dominant"),
        ("builtin:sym:3", (0, 2, 1), 7, "nondominant"),
    ],
    ids=["z2-universal", "s3-dominant", "s3-nondominant"],
)
def test_restricted_chains_are_those_of_all_weights(group, mults, top, allowed):
    """A complex restricted to some weights has, block for block, the chain
    bases of the reference enumeration over every weight, and the
    differentials of the all-weights complex on the same ring: the same
    elements in the same order, the same matrices. The all-weights complex
    has the reference's chain bases."""
    ring = specialization_ring(builtin_group(group)[1], mults, DEFAULT_BUDGET)
    noe = noether_number(ring.rep.group)
    gens = build_E(ring, "full", noe)
    if allowed == "dominant":
        weights = lambda d: dominant_weights(d, mults)
    else:
        weights = lambda d: list(S3_NONDOMINANT)
    restricted = KoszulComplex(ring, gens, noe.value, weights_for_degree=weights)
    everything = KoszulComplex(ring, gens, noe.value)
    nonempty = 0
    for p in range(3):
        for d in range(top + 1):
            keep = set(weights(d))
            reference = koszul_chain_blocks(ring, everything.E, p, d)
            assert list(everything.chain_blocks(p, d).items()) == list(reference.items())
            chains = restricted.chain_blocks(p, d)
            want = [(w, els) for w, els in reference.items() if w in keep]
            assert list(chains.items()) == want
            nonempty += bool(want)
            if p:
                mats = restricted.differential(p, d)
                full = everything.differential(p, d)
                assert list(mats) == [w for w, _ in want]
                for w, m in mats.items():
                    assert m == full[w]
    assert nonempty >= top


@pytest.mark.parametrize("over", ["quotient", "ring"])
@pytest.mark.parametrize("name", ["z2_antipodal_syzygies", "z3_veronese_bounds"])
def test_chains_of_trivially_graded_rings_are_the_reference(monkeypatch, capsys, name, over):
    """On the trivially graded rings of the syzygies and bounds routes,
    over R/θR and over R (the θ finder made to fail), the complex the run
    scans has the reference enumeration's chain bases in every degree the
    scans read."""
    problem = Path(__file__).resolve().parent.parent / "problems" / f"{name}.json"
    doc = json.loads(problem.read_text(encoding="utf-8"))
    if over == "ring":
        monkeypatch.setattr(koszul, "parameter_system", lambda ring, gens: None)
    complexes = []
    precompute = KoszulComplex.precompute

    def recorded(self, p):
        complexes.append(self)
        precompute(self, p)

    monkeypatch.setattr(KoszulComplex, "precompute", recorded)
    assert main([doc["task"], "--input", str(problem), "--no-cache"]) == 0
    capsys.readouterr()
    cx = complexes[0]
    assert all(c is cx for c in complexes)
    assert cx.ring.grading.trivial
    assert isinstance(cx.ring, ArtinianReduction) == (over == "quotient")
    top = cx.ceiling(doc["p_max"]) + cx.guard
    for p in range(doc["p_max"] + 2):
        for d in range(top + 1):
            reference = koszul_chain_blocks(cx.ring, cx.E, p, d)
            assert list(cx.chain_blocks(p, d).items()) == list(reference.items())


# -- the Artinian reduction K(Ē; R/θR) against the scan over R ----------------------


def reduction_of(ring, gens, beta, weights_for_degree=None):
    """The complex over R/θR with Ē = E - θ, θ the pure powers."""
    theta = parameter_system(ring, gens)
    assert theta is not None
    rest = tuple(el for el in gens.elements if el not in theta)
    return KoszulComplex(
        ArtinianReduction(ring, theta, beta),
        GeneratorSet("full", rest, None),
        beta,
        weights_for_degree=weights_for_degree,
    )


def _multiplicity_vectors(n, top):
    return [v for v in product(range(top + 1), repeat=n) if 0 < sum(v) <= top]


@pytest.mark.parametrize(
    "name, top",
    [
        ("builtin:cyclic:1", 4),
        ("builtin:cyclic:2", 4),
        ("builtin:cyclic:3", 3),
        ("builtin:cyclic:4", 2),
        ("builtin:klein:4", 2),
    ],
)
def test_reduction_matches_the_scan_over_R(name, top):
    """On every diagonal specialization of total dimension <= top, p = 1
    and p = 2 (p = 2 only where E has at most 12 elements, the scan over R
    being cubic in |E| there), the complex over R/θR gives the tor_data of
    today's complex over R in every degree up to ceiling + guard, total and
    weight by weight: on all weights, and on the dominant ones through the
    block-by-block route the Schur checks take."""
    group, catalog = builtin_group(name)
    noe = noether_number(group)
    compared = 0
    for mults in _multiplicity_vectors(len(catalog.irreps), top):
        ring = specialization_ring(catalog, mults, DEFAULT_BUDGET)
        gens = build_E(ring, "full", noe)
        full = KoszulComplex(ring, gens, noe.value)
        reduced = reduction_of(ring, gens, noe.value)
        dominant = reduction_of(
            ring, gens, noe.value, weights_for_degree=lambda d: dominant_weights(d, mults)
        )
        for p in (1, 2) if len(gens.elements) <= 12 else (1,):
            for cx in (full, reduced, dominant):
                cx.precompute(p)
            for d in range(full.ceiling(p) + full.guard + 1):
                total, weight_dims = full.tor_data(p, d)
                assert reduced.tor_data(p, d) == (total, weight_dims), (mults, p, d)
                keep = set(dominant_weights(d, mults))
                dom = {w: n for w, n in weight_dims.items() if w in keep}
                assert dominant.tor_data(p, d) == (sum(dom.values()), dom), (mults, p, d)
                compared += 1
    assert compared


@pytest.mark.parametrize("g", range(2, 7))
def test_scalar_action_gives_the_eagon_northcott_table(g):
    """Z_g acting by a scalar on C^2 has the g-th Veronese of P^1, the
    rational normal curve, as its invariant ring: Tor_p has dimension
    p * C(g, p+1), all in degree (p+1)g, for 1 <= p <= g - 1."""
    group, catalog = builtin_group(f"builtin:cyclic:{g}")
    noe = noether_number(group)
    mults = tuple(2 if i == 1 else 0 for i in range(len(catalog.irreps)))
    ring = specialization_ring(catalog, mults, DEFAULT_BUDGET)
    cx = reduction_of(ring, build_E(ring, "full", noe), noe.value)
    for p in range(1, g):
        nonzero = {d: total for d, (total, _) in cx.scan(p).items() if total}
        assert nonzero == {(p + 1) * g: p * comb(g, p + 1)}


def test_reduction_checks_its_dimensions_against_molien(monkeypatch):
    """A θ product left out of a block's elimination leaves R/θR one
    dimension too large in that degree, which the Molien prediction sees."""
    _, catalog = builtin_group("builtin:cyclic:2")
    ring = specialization_ring(catalog, (3, 3), DEFAULT_BUDGET)
    noe = noether_number(ring.rep.group)
    cx = reduction_of(ring, build_E(ring, "full", noe), noe.value)
    real_reduced_rows = invariants.reduced_rows

    def one_row_short(rows, ncols):
        return real_reduced_rows(rows[1:], ncols)

    monkeypatch.setattr(invariants, "reduced_rows", one_row_short)
    with pytest.raises(InternalInconsistency, match="Molien"):
        cx.precompute(1)


def test_face_into_an_empty_block_must_vanish(monkeypatch):
    """A face whose target block is empty is skipped only when its products
    vanish; a nonzero product there is an inconsistency, not a lookup
    failure. Dropping the degree-2 blocks of R/θR of the Z2 universal
    specialization leaves the faces y_i y_j . 1 of Tor_1 in degree 4 with
    no target."""
    _, catalog = builtin_group("builtin:cyclic:2")
    mults = (3, 3)
    ring = specialization_ring(catalog, mults, DEFAULT_BUDGET)
    noe = noether_number(ring.rep.group)
    gens = build_E(ring, "full", noe)

    def dominant_cx():
        cx = reduction_of(ring, gens, noe.value, lambda d: dominant_weights(d, mults))
        cx.precompute(1)
        return cx

    assert dominant_cx().tor_data(1, 4)[0]
    real_block_basis = ArtinianReduction.block_basis

    def without_degree_two(self, d, w):
        return [] if d == 2 else real_block_basis(self, d, w)

    monkeypatch.setattr(ArtinianReduction, "block_basis", without_degree_two)
    with pytest.raises(InternalInconsistency, match="empty ring block"):
        dominant_cx().tor_data(1, 4)
