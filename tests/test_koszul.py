from fractions import Fraction
from pathlib import Path

import pytest

from syzlab.cli import main
from syzlab.cyclo import Cyclotomic, zeta
from syzlab.errors import InternalInconsistency, InvalidInput
from syzlab.groups import Representation, builtin_group
from syzlab.invariants import GeneratorSet, InvariantRing, InvElem, build_E, noether_number
from syzlab.koszul import KoszulComplex, scan_ceiling, syzygy_degree, tor_table
from syzlab.linalg import Matrix, rank
from syzlab.monomials import poly_add_into, poly_mul, unpack
from syzlab.schur import (
    domination_check,
    dominant_weights,
    spec_from_multiplicities,
    tor_row_bounds,
)

from oracles import davenport_constant, greedy_generators, row_reduce_rank, veronese_tor


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
    assert table.nonzero_rows() == [(0, 0, 1)]


def test_tor_table_veronese_z2(z2_min):
    table = tor_table(z2_min, p_max=2)
    assert table.nonzero_rows() == [(0, 0, 1), (1, 4, 1)]
    assert table.ceilings == {0: 2, 1: 4, 2: 6}


def test_tor_table_ranks_each_block_once(monkeypatch):
    import syzlab.koszul

    ranked = []

    def counting_rank(m):
        ranked.append(m)
        return rank(m)

    monkeypatch.setattr(syzlab.koszul, "rank", counting_rank)
    cx = make_cx(diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)]), "minimal")
    table = tor_table(cx, p_max=2)
    assert table.nonzero_rows() == [(0, 0, 1), (1, 4, 1)]
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
    assert table.nonzero_rows()[0] == (0, 0, 1)
    assert pairs and len(pairs) == len(set(pairs))
    assert len(coords) <= len(pairs)


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
    """`KoszulComplex.precompute(p)` computes R in exactly the degrees that
    the same run reads with the precompute left out, and the report is the
    same either way."""
    problem = Path(__file__).resolve().parent.parent / "problems" / f"{name}.json"
    argv = [task, "--input", str(problem), "--no-cache"]
    rings = []
    precompute = KoszulComplex.precompute

    def recorded(self, p):
        rings.append(self.ring)
        precompute(self, p)

    monkeypatch.setattr(KoszulComplex, "precompute", recorded)
    assert main(argv) == 0
    report = capsys.readouterr()
    monkeypatch.setattr(KoszulComplex, "precompute", lambda self, p: rings.append(self.ring))
    assert main(argv) == 0
    assert capsys.readouterr() == report
    eager, lazy = rings
    read = set(lazy._degree_blocks) | {d for d, _ in lazy._block_cache}
    assert set(eager._degree_blocks) == read
    assert {d for d, _ in eager._block_cache} <= read


def test_tor_table_full_mode_triv_sign():
    cx = make_cx(diag_rep("builtin:cyclic:2", [Fraction(1), Fraction(-1)]), "full")
    table = tor_table(cx, p_max=1)
    assert table.nonzero_rows() == [(0, 0, 1), (1, 2, 1)]
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
    ring = InvariantRing(spec_from_multiplicities(catalog, [0, 1, 1]).rep)
    noe = noether_number(group)
    gens = build_E(ring, "minimal", noe)
    assert gens.degrees() == [2, 2, 3, 4]
    x, y, z, g = gens.elements
    poly = dict(g.poly)
    poly_add_into(poly, poly_mul(x.poly, y.poly), 1)
    other = GeneratorSet("minimal", (x, y, z, InvElem(4, g.weight, poly)), gens.beta_V)
    cx = KoszulComplex(ring, gens, noe.value)
    cx_other = KoszulComplex(ring, other, noe.value)
    assert tor_table(cx_other, p_max=2).as_json() == tor_table(cx, p_max=2).as_json()
    assert syzygy_degree(cx_other, 1) == syzygy_degree(cx, 1) == 8


def test_zero_dimensional_rep():
    group, _ = builtin_group("builtin:cyclic:2")
    rep = Representation(group, [Matrix(0, 0, [])] * group.order)
    cx = make_cx(rep, "minimal")
    assert syzygy_degree(cx, 1) is None
    assert tor_table(cx, p_max=1).nonzero_rows() == [(0, 0, 1)]


def test_davenport_oracle_values():
    assert davenport_constant([2]) == 2
    assert davenport_constant([3]) == 3
    assert davenport_constant([2, 2]) == 3
    assert davenport_constant([4]) == 4
    assert davenport_constant([6]) == 6


def test_noether_matches_davenport():
    for name, moduli in [
        ("builtin:cyclic:2", [2]),
        ("builtin:cyclic:3", [3]),
        ("builtin:klein:4", [2, 2]),
        ("builtin:cyclic:4", [4]),
    ]:
        group, _ = builtin_group(name)
        assert noether_number(group).value == davenport_constant(moduli)


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
    bases and differentials of the all-weights complex on the same ring:
    the same elements in the same order, the same matrices."""
    spec = spec_from_multiplicities(builtin_group(group)[1], mults)
    ring = InvariantRing(spec.rep, grading=spec.grading)
    noe = noether_number(spec.rep.group)
    gens = build_E(ring, "full", noe)
    if allowed == "dominant":
        weights = lambda d: dominant_weights(d, spec.multiplicities)
    else:
        weights = lambda d: list(S3_NONDOMINANT)
    restricted = KoszulComplex(ring, gens, noe.value, weights_for_degree=weights)
    everything = KoszulComplex(ring, gens, noe.value)
    nonempty = 0
    for p in range(3):
        for d in range(top + 1):
            keep = set(weights(d))
            chains = restricted.chain_blocks(p, d)
            want = [(w, els) for w, els in everything.chain_blocks(p, d).items() if w in keep]
            assert list(chains.items()) == want
            nonempty += bool(want)
            if p:
                mats = restricted.differential(p, d)
                full = everything.differential(p, d)
                assert list(mats) == [w for w, _ in want]
                for w, m in mats.items():
                    assert m == full[w]
    assert nonempty >= top
