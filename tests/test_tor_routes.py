"""The two Tor routes: K(E; R) scanned over R, and the finite K(Ē; R/θR)
that `koszul.tor_complex` builds wherever `invariants.parameter_system`
certifies a system of parameters θ in E. Reports must not depend on the
route, a θ finder must reject what is not a system of parameters, and a
quotient that is wrong must exit 3."""

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations
from pathlib import Path

import pytest

from syzlab import cli, koszul
from syzlab.cli import main, parse_problem
from syzlab.groups import builtin_group
from syzlab.invariants import (
    ArtinianReduction,
    InvariantRing,
    _by_degree_sum,
    _zero_on_an_axis,
    build_E,
    noether_number,
    parameter_system,
    spans_top_degree,
)
from syzlab.koszul import KoszulComplex
from syzlab.limits import Budget
from syzlab.monomials import pack, subsets_of_degree
from syzlab.schur import (
    _dominant_complex,
    dominant_weights,
    specialization_ring,
    universal_multiplicities,
)

from oracles import benchmark_workloads, molien_oracle

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def run_cli(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _cross_route_documents():
    """(id, task, document): every syzygies and bounds corpus document, the
    benchmark's generic and cyclotomic documents at seeds 0-3, and five
    representations at p_max 2."""
    docs = []
    for path in sorted(PROBLEMS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        if doc["task"] in ("syzygies", "bounds"):
            docs.append((path.stem, doc["task"], doc))
    workloads = benchmark_workloads()
    for name in ("generic", "cyclotomic"):
        for seed in range(4):
            docs.append((f"{name}-{seed}", "syzygies", getattr(workloads, f"{name}_doc")(seed)))
    for group, mults in [
        ("sym:3", [0, 1, 1]),
        ("sym:3", [1, 0, 1]),
        ("dihedral:3", [0, 1, 1]),
        ("klein:4", [0, 1, 1, 1]),
        ("cyclic:3", [0, 1, 2]),
    ]:
        doc = {"group": f"builtin:{group}", "rep": {"multiplicities": mults}, "p_max": 2}
        docs.append((f"{group}-{''.join(map(str, mults))}", "syzygies", doc))
    return docs


CROSS_ROUTE = _cross_route_documents()


def _routes(monkeypatch, tmp_path, task, doc) -> tuple:
    """(rings of the complexes built, CLI result) with the θ finder, then
    the same with every complex built by the fallback constructor, the
    complex over R."""
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = [task, "--input", str(path), "--no-cache"]
    results = []
    for build in (koszul.tor_complex, lambda ring, gens, beta: KoszulComplex(ring, gens, beta)):
        rings = []

        def recording(ring, gens, beta, build=build):
            cx = build(ring, gens, beta)
            rings.append(cx.ring)
            return cx

        monkeypatch.setattr(cli, "tor_complex", recording)
        results.append((rings, run_cli(argv)))
    return results


@pytest.mark.parametrize("name, task, doc", CROSS_ROUTE, ids=[d[0] for d in CROSS_ROUTE])
def test_both_routes_print_the_same_report(monkeypatch, tmp_path, name, task, doc):
    """The complete report, its exit code and its stderr are the same over
    R/θR and over R; every one of these documents takes the quotient."""
    (quotient, found), (plain, fallback) = _routes(monkeypatch, tmp_path, task, doc)
    assert [type(r) for r in quotient] == [ArtinianReduction]
    assert [type(r) for r in plain] == [InvariantRing]
    assert found[0] == 0
    assert found == fallback


def test_a_finder_that_returns_none_gives_the_same_bytes(monkeypatch, tmp_path):
    """Where the finder finds nothing, `tor_complex` builds the complex over
    R, and the report is byte for byte the one the quotient gives."""
    doc = benchmark_workloads().cyclotomic_doc(1)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    argv = ["syzygies", "--input", str(path), "--no-cache"]
    built = []
    real = KoszulComplex.__init__

    def recording(self, ring, *args, **kwargs):
        built.append(type(ring))
        real(self, ring, *args, **kwargs)

    monkeypatch.setattr(KoszulComplex, "__init__", recording)
    found = run_cli(argv)
    monkeypatch.setattr(koszul, "parameter_system", lambda ring, gens: None)
    assert run_cli(argv) == found
    assert built == [ArtinianReduction, InvariantRing]


def test_a_quotient_that_drops_a_theta_row_exits_three(monkeypatch):
    """Leaving the first product θ_i . b of every block out of the
    elimination leaves R/θR too large in degree 2, which its Hilbert
    series sees."""
    real = ArtinianReduction._theta_rows
    monkeypatch.setattr(ArtinianReduction, "_theta_rows", lambda self, d, w: real(self, d, w)[1:])
    argv = ["syzygies", "--input", str(PROBLEMS / "z2_antipodal_syzygies.json"), "--no-cache"]
    code, out, err = run_cli(argv)
    assert (code, out) == (3, "")
    assert err == (
        "syzlab: internal inconsistency: R/(theta) has dimension 2 in degree 2, "
        "its Molien series predicts 1\n"
    )


# -- the θ finder --------------------------------------------------------------------


def _ring_and_gens(doc, mode="minimal", budget=Budget.preset("default")):
    problem = parse_problem(doc, "syzygies", budget)
    ring = InvariantRing(problem.rep, budget=budget)
    return ring, build_E(ring, mode, noether_number(problem.group))


def _element(ring, exponents):
    """The basis element of R that is the monomial with these exponents."""
    key = pack(exponents)
    (el,) = [el for el in ring.basis(sum(exponents)) if el.poly == {key: 1}]
    return el


def test_a_candidate_that_is_not_an_hsop_is_rejected():
    """Z3 on (0, 2, 1) in the diagonal basis: x1 x3, x2 x3 and x3^3 all
    vanish on the plane x3 = 0, so S/θS is nowhere finite, and they already
    vanish at the axis vector e_1; the pure cubes are a system of
    parameters. S3 on two copies of its standard representation: the three
    quadratic invariants and a cubic vanish at no axis vector, but on a
    plane of pairs of isotropic vectors, and only the rank test sees that;
    the search takes θ of degrees [2, 2, 3, 3]."""
    doc = {"group": "builtin:cyclic:3", "rep": {"multiplicities": [0, 2, 1]}}
    ring, gens = _ring_and_gens(doc)
    bad = [_element(ring, e) for e in [(1, 0, 1), (0, 1, 1), (0, 0, 3)]]
    cubes = [_element(ring, e) for e in [(3, 0, 0), (0, 3, 0), (0, 0, 3)]]
    assert _zero_on_an_axis(bad, 3) and not spans_top_degree(bad, 3)
    assert not _zero_on_an_axis(cubes, 3) and spans_top_degree(cubes, 3)
    assert {el.pivot for el in parameter_system(ring, gens)} == {el.pivot for el in cubes}
    doc = {"group": "builtin:sym:3", "rep": {"multiplicities": [0, 0, 2]}}
    ring, gens = _ring_and_gens(doc)
    assert gens.degrees() == [2, 2, 2, 3, 3, 3, 3]
    first = gens.elements[:4]
    assert not _zero_on_an_axis(first, 4) and not spans_top_degree(first, 4)
    assert sorted(t.degree for t in parameter_system(ring, gens)) == [2, 2, 3, 3]


@pytest.mark.parametrize("mode", ["minimal", "full"])
def test_the_finder_certifies_a_non_diagonal_system(mode):
    """On the cyclotomic benchmark document the search runs: θ has degrees
    [2, 3, 3], consists of elements of E, and passes the test it was
    picked by."""
    doc = benchmark_workloads().cyclotomic_doc(0)
    ring, gens = _ring_and_gens(doc, mode)
    theta = parameter_system(ring, gens)
    assert sorted(t.degree for t in theta) == [2, 3, 3]
    assert all(any(t is el for el in gens.elements) for t in theta)
    assert spans_top_degree(theta, ring.nvars)


def test_the_search_stays_within_the_monomial_limit():
    """Each candidate costs the monomials of S in the degree it tests. At a
    limit of 100 the cyclotomic search stops after four of the five subsets
    of degree sum 7 (21 monomials each), and no θ is found."""
    doc = benchmark_workloads().cyclotomic_doc(0)
    tight = Budget("tight", monomial_limit=100)
    assert parameter_system(*_ring_and_gens(doc, budget=tight)) is None
    assert parameter_system(*_ring_and_gens(doc)) is not None


def test_subsets_come_in_increasing_degree_sum():
    """The lazy enumeration is the stable sort of all n-subsets by degree
    sum: each once, lex order within one sum."""
    degrees = [1, 2, 2, 3, 3, 3, 5, 7]
    for n in range(len(degrees) + 2):
        want = sorted(combinations(range(len(degrees)), n), key=lambda s: sum(degrees[i] for i in s))
        assert list(_by_degree_sum(degrees, n)) == want


def test_subsets_of_one_degree_sum():
    """`subsets_of_degree` is the filter of all n-subsets by one degree sum:
    each once, in lex order; none where n exceeds the number of degrees or
    the sum is out of reach."""
    degrees = [1, 2, 2, 3, 3, 3, 5, 7]
    listed = 0
    for n in range(len(degrees) + 2):
        everything = list(combinations(range(len(degrees)), n))
        for total in range(-1, sum(degrees) + 2):
            want = [s for s in everything if sum(degrees[i] for i in s) == total]
            assert list(subsets_of_degree(degrees, n, total)) == want
            listed += len(want)
    assert listed == 2 ** len(degrees)
    assert list(subsets_of_degree(degrees, 9, sum(degrees))) == []
    assert list(subsets_of_degree(degrees, 3, 4)) == []  # below 1 + 2 + 2
    assert list(subsets_of_degree(degrees, 2, 13)) == []  # above 5 + 7
    assert list(subsets_of_degree([], 0, 0)) == [()]


# -- the quotient's certified zero degrees -------------------------------------------------


def test_chains_skip_the_degrees_certified_zero(monkeypatch):
    """The Z2 universal specialization at p = 1: the Hilbert series of R/θR
    ends in degree 2, so R/θR is zero from degree 3 on, and the chain
    spaces probe no block there. Left unskipped they probe up to the top
    degree 10 of the scan, for the same Tor."""
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    mults = (3, 3)

    def complex_():
        ring = specialization_ring(catalog, mults, Budget.preset("default"))
        return koszul.tor_complex(
            ring, build_E(ring, "full", noe), noe.value, lambda d: dominant_weights(d, mults)
        )

    probed = []
    real = ArtinianReduction.block_basis

    def recording(self, d, w):
        probed.append(d)
        return real(self, d, w)

    def scanned(skip):
        cx = complex_()
        cx.precompute(1)
        zero_from = cx.ring.zero_from
        if not skip:
            cx.ring.zero_from = float("inf")
        probed.clear()
        monkeypatch.setattr(ArtinianReduction, "block_basis", recording)
        table = {d: data for d, data in cx.scan(1).items() if data[0]}
        monkeypatch.setattr(ArtinianReduction, "block_basis", real)
        return zero_from, max(probed), table

    zero_from, top, table = scanned(skip=True)
    assert zero_from == 3 and top < zero_from
    assert scanned(skip=False) == (zero_from, 10, table)


def test_weights_are_indexed_only_where_a_subset_fits(monkeypatch):
    """On the dominant complex of `problems/z2_universal.json` (Z2 at
    multiplicities (3, 3), p = 1, over R/θR, which is zero from degree 3
    on), the allowed weights of a degree are asked for only where some
    subset of Ē the scan reads (p = 0, 1, 2) leaves R/θR a degree below
    `zero_from`: 7 of the 11 degrees up to ceiling + guard. With the two
    non-dominant probes, the whole run indexes 9 degrees."""
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    mults = universal_multiplicities(catalog, noe, 1)
    cx = _dominant_complex(catalog, mults, noe, Budget.preset("default"))
    asked = []
    weights = cx.weights_for_degree
    cx.weights_for_degree = lambda d: asked.append(d) or weights(d)
    cx.scan(1)
    zero_from = cx.ring.zero_from
    scanned = range(cx.ceiling(1) + cx.guard + 1)
    sums = {sum(s) for p in range(3) for s in combinations([el.degree for el in cx.E], p)}
    fits = [d for d in scanned if any(d - zero_from < k <= d for k in sums)]
    assert zero_from == 3 and len(scanned) == 11
    assert asked == fits and len(fits) == 7

    built = []

    class Counting(koszul._WeightIndex):
        def __init__(self, weights):
            built.append(weights)
            super().__init__(weights)

    monkeypatch.setattr(koszul, "_WeightIndex", Counting)
    assert run_cli(["universal", "--input", str(PROBLEMS / "z2_universal.json"), "--no-cache"])[0] == 0
    assert len(built) == 9


def _series_degree(ring, theta) -> int:
    """The last nonzero degree of H_R(t) prod_i (1 - t^(deg θ_i)), H_R from
    the Fraction oracle of the Molien series."""
    top = sum(2 * t.degree - 1 for t in theta)
    series = molien_oracle([[list(row) for row in m.data] for m in ring.rep.images], top)
    for t in theta:
        for d in range(top, t.degree - 1, -1):
            series[d] -= series[d - t.degree]
    return max(d for d, c in enumerate(series) if c)


@pytest.mark.parametrize("name", ["z2-33", "generic-0", "cyclotomic-0"])
def test_zero_from_is_set_when_the_quotient_is_built(name):
    """Before any degree is computed, `zero_from` is one above the degree
    of the Hilbert series of R/θR. Past it, the blocks of R/θR are zero on
    beta consecutive degrees, so R/θR is zero from there on: it is
    generated in degrees at most beta."""
    if name == "z2-33":
        group, catalog = builtin_group("builtin:cyclic:2")
        noe = noether_number(group)
        ring = specialization_ring(catalog, (3, 3), Budget.preset("default"))
        gens = build_E(ring, "full", noe)
    else:
        workload, seed = name.split("-")
        doc = getattr(benchmark_workloads(), f"{workload}_doc")(int(seed))
        ring, gens = _ring_and_gens(doc, mode="full")
        noe = noether_number(parse_problem(doc, "syzygies", Budget.preset("default")).group)
    theta = parameter_system(ring, gens)
    quotient = ArtinianReduction(ring, theta, noe.value)
    zero_from = quotient.zero_from
    assert zero_from == _series_degree(ring, theta) + 1
    quotient.zero_from = float("inf")
    dims = [
        sum(len(quotient.block_basis(d, w)) for w in ring.blocks(d))
        for d in range(zero_from - 1, zero_from + noe.value)
    ]
    assert dims[0] > 0 and not any(dims[1:])


def test_stabilization_builds_no_block_where_the_quotient_ends(monkeypatch):
    """The stabilization check never computes full degrees of R/θR, and its
    single blocks stop below `zero_from` all the same: no block is built
    above the degree of the Hilbert series of R/θR."""
    built = {}
    real = ArtinianReduction._block

    def recording(self, d, w):
        built.setdefault(self, set()).add(d)
        return real(self, d, w)

    monkeypatch.setattr(ArtinianReduction, "_block", recording)
    argv = ["schur", "--input", str(PROBLEMS / "z2_stabilization.json"), "--no-cache"]
    assert run_cli(argv)[0] == 0
    assert len(built) == 2
    for quotient, degrees in built.items():
        assert max(degrees) <= _series_degree(quotient.ring, quotient.theta)


def _single_block_runs():
    """(id, task, document, extra argv): every corpus document, the Schur
    Tor checks and `universal` at p = 2, and the benchmark's generic and
    cyclotomic documents at seeds 0 and 3."""
    runs = []
    for path in sorted(PROBLEMS.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        runs.append((path.stem, doc["task"], doc, []))
    large = ["--budget-level", "large"]
    universal = json.loads((PROBLEMS / "z2_universal.json").read_text(encoding="utf-8"))
    runs.append(("universal-p2", "universal", universal, ["--p", "2", *large]))
    schur = {"group": "builtin:cyclic:2", "task": "schur"}
    domination = {"check": "domination", "p": 2, "samples": [[1, 1], [2, 3]]}
    runs.append(("domination-p2", "schur", {**schur, "schur": domination}, large))
    tor_bounds = {"check": "row-bounds-tor", "p": 1}
    runs.append(("row-bounds-tor", "schur", {**schur, "schur": tor_bounds}, []))
    workloads = benchmark_workloads()
    for name in ("generic", "cyclotomic"):
        for seed in (0, 3):
            doc = getattr(workloads, f"{name}_doc")(seed)
            runs.append((f"{name}-{seed}", "syzygies", doc, []))
    return runs


SINGLE_BLOCK_RUNS = _single_block_runs()


@pytest.mark.parametrize(
    "name, task, doc, extra", SINGLE_BLOCK_RUNS, ids=[r[0] for r in SINGLE_BLOCK_RUNS]
)
def test_only_the_stabilization_check_reads_single_blocks(
    monkeypatch, tmp_path, name, task, doc, extra
):
    """Every scan computes the whole degrees it reads, so a run eliminates a
    single weight block of R only where it calls `tor_data` outside a scan:
    the stabilization check does, and no other route does."""
    singles = []
    real = InvariantRing._block_basis_generic

    def counting(self, d, w, monos):
        if w is not None:
            singles.append((d, w))
        return real(self, d, w, monos)

    monkeypatch.setattr(InvariantRing, "_block_basis_generic", counting)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli([task, "--input", str(path), "--no-cache", *extra])[0] == 0
    assert bool(singles) == (name == "z2_stabilization")


# -- tables only the quotient reaches -------------------------------------------------


def _tor_rows(tmp_path, mults, p_max) -> dict:
    path = tmp_path / "veronese.json"
    doc = {"group": "builtin:cyclic:2", "rep": {"multiplicities": mults}, "p_max": p_max}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["syzygies", "--input", str(path), "--no-cache"])
    assert (code, err) == (0, "")
    return {(p, d): dim for p, d, dim in json.loads(out)["results"]["tor_table"]["rows"]}


def test_quadratic_veronese_of_p2(tmp_path):
    """Z2 acting by -1 on C^3: Tor_1..Tor_3 of the quadratic Veronese of
    P^2 are 6, 8 and 3, in degrees 4, 6 and 8."""
    rows = _tor_rows(tmp_path, [0, 3], 4)
    assert rows == {(0, 0): 1, (1, 4): 6, (2, 6): 8, (3, 8): 3}


def test_quadratic_veronese_of_p3_is_gorenstein(tmp_path):
    """Z2 acting by -1 on C^4 (in SL(V)): Tor_1..Tor_6 of the quadratic
    Veronese of P^3 are 20, 64, 90, 64, 20 and 1 in degrees 4, 6, 8, 10, 12
    and 16, and the table is symmetric: dim Tor_(p,d) = dim
    Tor_(6-p, 16-d)."""
    rows = _tor_rows(tmp_path, [0, 4], 6)
    assert rows == {
        (0, 0): 1,
        (1, 4): 20,
        (2, 6): 64,
        (3, 8): 90,
        (4, 10): 64,
        (5, 12): 20,
        (6, 16): 1,
    }
    assert all(rows.get((6 - p, 16 - d)) == dim for (p, d), dim in rows.items())


def test_s3_on_two_standard_copies_at_p2(tmp_path):
    """S3 on two copies of its standard representation, p_max 2, from R/θR
    with θ of degrees [2, 2, 3, 3]: the table the scan over R prints too,
    after about 100 s on a 2-core Xeon."""
    path = tmp_path / "s3.json"
    doc = {"group": "builtin:sym:3", "rep": {"multiplicities": [0, 0, 2]}, "p_max": 2}
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = run_cli(["syzygies", "--input", str(path), "--no-cache"])
    assert (code, err) == (0, "")
    results = json.loads(out)["results"]
    assert results["generators"] == {"count": 7, "degrees": [2, 2, 2, 3, 3, 3, 3]}
    assert results["tor_table"]["rows"] == [[0, 0, 1], [1, 5, 2], [1, 6, 3], [2, 8, 3], [2, 9, 2]]
    assert results["s"] == {"1": 6, "2": 9}
