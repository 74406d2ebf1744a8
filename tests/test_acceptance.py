"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one pass/fail line (visible live: the line goes to the
unredirected stdout, so it shows under pytest's default capture too). All
comparisons are exact; runtimes are asserted against the stated wall-clock
budgets.
"""

import io
import json
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path


from syzlab.bounds import audit, compute_bounds, inequality_chain_check, m_bound_check
from syzlab.cli import main as cli_main
from syzlab.cyclo import zeta
from syzlab.groups import (
    BUILTIN_NAMES,
    Representation,
    builtin_group,
)
from syzlab.invariants import (
    GeneratorSet,
    InvariantRing,
    build_E,
    minimal_generators,
    molien_series,
    noether_number,
)
from syzlab.koszul import KoszulComplex, scan_ceiling, syzygy_degree, tor_table
from syzlab.limits import DEFAULT_BUDGET
from syzlab.linalg import Matrix
from syzlab.monomials import unpack
from syzlab.schur import (
    domination_check,
    kostka_number,
    lr_coefficient,
    partitions_of,
    ring_row_bounds,
    schur_multiplicities,
    specialization,
    specialization_ring,
    tor_row_bounds,
    universal_multiplicities,
)

from oracles import davenport_constant, dominates, greedy_generators, veronese_tor

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def _report(number: int, description: str, passed: bool, elapsed: float, budget: float):
    status = "pass" if passed else "FAIL"
    line = (
        f"ACCEPTANCE {number} [{status}] {description} "
        f"({elapsed:.1f}s / budget {budget:.0f}s)"
    )
    print(line, file=sys.__stdout__, flush=True)
    assert passed, line
    assert elapsed < budget, line


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


def test_criterion_1_veronese_z2():
    start = time.monotonic()
    rep = diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)])
    ring = InvariantRing(rep)
    ok = molien_series(rep, 6) == [1, 0, 3, 0, 5, 0, 7]
    ok = ok and [ring.dim(d) for d in range(7)] == [1, 0, 3, 0, 5, 0, 7]
    ok = ok and minimal_generators(ring, stop=4).beta_V == 2
    cx = make_cx(rep, "minimal")
    table = tor_table(cx, p_max=2)
    ok = ok and table["rows"] == [[0, 0, 1], [1, 4, 1]]
    s1 = syzygy_degree(cx, 1)
    s2 = syzygy_degree(cx, 2)
    ok = ok and s1 == 4 and s2 is None
    ok = ok and compute_bounds(2, 2, 2, 2, 2, 1)["derksen_bound"] == 4  # tight
    # independent oracle: brute-force homology of the 3-generator complex
    for p in range(0, 3):
        for d in range(scan_ceiling(2, 2, p) + 3):
            ok = ok and cx.tor_dimension(p, d) == veronese_tor(2, p, d)
    _report(1, "quadratic Veronese (order-2 antipodal action)", ok, time.monotonic() - start, 5)


def test_criterion_2_cubic_veronese_z3():
    start = time.monotonic()
    rep = diag_rep("builtin:cyclic:3", [zeta(3), zeta(3)])
    group, catalog = builtin_group("builtin:cyclic:3")
    noe = noether_number(group)
    cx = make_cx(rep, "minimal")
    reports, findings = audit(catalog, cx.ring, cx.gens, cx, [1], noe)
    (r1,) = reports
    ok = not findings
    ok = ok and r1["s_value"] == 6 == r1["bounds"]["derksen_bound"]
    ok = ok and r1["bounds"]["universal_bound"] == 27
    ok = ok and r1["bounds"]["cubic_bound"] == 27
    ok = ok and all(v == "satisfied" for v in r1["verdicts"].values())
    for p in range(0, 3):
        for d in range(scan_ceiling(3, 2, p) + 4):
            ok = ok and cx.tor_dimension(p, d) == veronese_tor(3, p, d)
    _report(2, "cubic Veronese (order-3 scalar action)", ok, time.monotonic() - start, 30)


def test_criterion_3_noether_numbers():
    start = time.monotonic()
    cases = [("builtin:cyclic:2", [2], 2), ("builtin:cyclic:3", [3], 3), ("builtin:klein:4", [2, 2], 3)]
    ok = True
    for name, moduli, expected in cases:
        group, _ = builtin_group(name)
        res = noether_number(group)
        ok = ok and res.exact and res.value == expected
        ok = ok and davenport_constant(moduli) == expected
    _report(3, "generator-degree ceilings via the regular representation", ok, time.monotonic() - start, 60)


def test_criterion_4_bound_formula_suite():
    start = time.monotonic()
    res = inequality_chain_check(g_max=12, p_max=12)
    ok = res["passed"] and res["tuples_checked"] == 12 * sum(g * g for g in range(1, 13))
    # spot values on top of the exhaustive identity checks
    ok = ok and compute_bounds(2, 2, 2, 2, 2, 1) == {
        "delta_p": 0,
        "universal_bound": 8,
        "cubic_bound": 8,
        "derksen_bound": 4,
        "scan_ceiling": 4,
    }
    b3 = compute_bounds(3, 3, 3, 3, 2, 1)
    ok = ok and (b3["delta_p"], b3["universal_bound"], b3["cubic_bound"], b3["derksen_bound"]) == (0, 27, 27, 6)
    _report(4, "bound formulas, identity and chain, exhaustive range", ok, time.monotonic() - start, 5)


def test_criterion_5_universal_domination_z2():
    start = time.monotonic()
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    w1 = universal_multiplicities(catalog, noe, 1)
    dimension = specialization(catalog, w1).degree
    ok = w1 == (3, 3) and dimension == 6
    ok = ok and dimension == noe.value * catalog.m * 1 + group.order
    res = domination_check(catalog, noe, 1, samples=[(0, 1), (0, 2), (1, 1)])
    ok = ok and res["passed"]
    by_mult = {tuple(r["multiplicities"]): r["s_prime"] for r in res["samples"]}
    ok = ok and by_mult == {(0, 1): "none", (0, 2): 4, (1, 1): 2}
    ok = ok and res["s_prime_universal"] == 4
    _report(5, "universal representation dominates sample syzygy degrees", ok, time.monotonic() - start, 600)


def test_criterion_6_row_bounds():
    start = time.monotonic()
    ok = True
    for name in ("builtin:cyclic:2", "builtin:cyclic:3", "builtin:sym:3"):
        group, catalog = builtin_group(name)
        res = ring_row_bounds(catalog, max_degree=6)
        ok = ok and res["passed"]
    group, catalog = builtin_group("builtin:cyclic:2")
    noe = noether_number(group)
    tres = tor_row_bounds(catalog, noe, p=1)
    ok = ok and not tres["skipped"] and tres["passed"]
    ok = ok and tres["multiplicities"] == [4, 4]
    _report(6, "row bounds on the invariant ring and on Tor", ok, time.monotonic() - start, 900)


def test_criterion_7_structural_suite():
    start = time.monotonic()
    ok = True
    reps = [
        diag_rep("builtin:cyclic:2", [Fraction(-1), Fraction(-1)]),
        diag_rep("builtin:cyclic:2", [Fraction(1), Fraction(-1)]),
        diag_rep("builtin:cyclic:3", [zeta(3), zeta(3)]),
    ]
    for rep in reps:
        # Molien/Reynolds agreement (InvariantRing asserts it internally too)
        ring = InvariantRing(rep)
        mol = molien_series(rep, 6)
        ok = ok and all(ring.dim(d) == mol[d] for d in range(7))
        # differentials square to zero, Euler characteristic, ceilings and
        # guard bands: tor_table raises on any violation
        for mode in ("minimal", "full"):
            cx = make_cx(rep, mode)
            tor_table(cx, p_max=3)
        # monotonicity minimal vs full
        cx_min, cx_full = make_cx(rep, "minimal"), make_cx(rep, "full")
        for p in (1, 2):
            lo = syzygy_degree(cx_min, p)
            hi = syzygy_degree(cx_full, p)
            ok = ok and ((-1 if lo is None else lo) <= (-1 if hi is None else hi))
        # choice independence: the oracle's reversed minimal complement
        rev = oracle_reversed_cx(rep)
        for p in (1, 2):
            ok = ok and syzygy_degree(cx_min, p) == syzygy_degree(rev, p)
        # explicit guard-band emptiness beyond the per-p ceiling
        for p in (1, 2):
            ceiling = scan_ceiling(cx_min.beta, rep.degree, p)
            for d in range(ceiling + 1, ceiling + cx_min.guard + 1):
                ok = ok and cx_min.tor_dimension(p, d) == 0
    # Kostka unitriangularity and LR symmetry, exhaustive for sizes <= 6
    for n in range(0, 7):
        parts = partitions_of(n)
        for lam in parts:
            ok = ok and kostka_number(lam, lam) == 1
            for mu in parts:
                if not dominates(lam, mu):
                    ok = ok and kostka_number(lam, mu) == 0
            for a in range(0, n + 1):
                for mu in partitions_of(a):
                    for nu in partitions_of(n - a):
                        ok = ok and lr_coefficient(lam, mu, nu) == lr_coefficient(lam, nu, mu)
    # Schur-decomposition dimension reconstruction on a graded instance
    group, catalog = builtin_group("builtin:cyclic:2")
    ring = specialization_ring(catalog, (2, 2), DEFAULT_BUDGET)
    for d in range(5):
        decomp = schur_multiplicities(ring.weight_dims(d), (2, 2), ambient_dim=ring.dim(d))
        ok = ok and decomp.total_dim() == ring.dim(d)
    _report(7, "structural invariants across all test instances", ok, time.monotonic() - start, 1800)


def test_criterion_8_m_bound_all_builtins():
    start = time.monotonic()
    ok = True
    for name in BUILTIN_NAMES:
        group, catalog = builtin_group(name)
        res = m_bound_check(group.class_count, group.order, catalog.m)
        ok = ok and res["passed"]
    q8, cat8 = builtin_group("builtin:quaternion:8")
    res = m_bound_check(q8.class_count, q8.order, cat8.m)
    ok = ok and res == {"passed": True, "m_squared": 36, "ng": 40}
    _report(8, "m^2 <= n*g for every shipped catalog", ok, time.monotonic() - start, 5)


def _cli_capture(argv):
    out = io.StringIO()
    err = io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    assert code == 0, (argv, err.getvalue())
    return out.getvalue()


def test_criterion_9_determinism_and_cache(tmp_path):
    start = time.monotonic()
    cache_dir = str(tmp_path / "cache")
    ok = True
    for problem in sorted(PROBLEMS.glob("*.json")):
        task = json.loads(problem.read_text())["task"]
        base = [task, "--input", str(problem)]
        cold = _cli_capture(base + ["--cache-dir", cache_dir])
        hot = _cli_capture(base + ["--cache-dir", cache_dir])
        plain = _cli_capture(base + ["--no-cache"])
        ok = ok and (cold == hot == plain)
    _report(9, "byte-identical reports, cache cold/hot/disabled, full corpus", ok, time.monotonic() - start, 1800)
