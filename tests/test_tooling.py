"""Checks on the source tree itself."""

import ast
import hashlib
import importlib
import json
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "syzlab"


def test_engine_has_no_assert_statements():
    """python -O strips asserts, and a failing one exits 4 where an engine
    inconsistency must exit 3: engine checks raise InternalInconsistency."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [
            f"{path.name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)
        ]
    assert list(PACKAGE.glob("*.py"))
    assert found == []


def test_only_monomials_imports_struct():
    """Packed monomial keys have one layout, owned by monomials.py: a
    second module building keys with struct would be a second format."""
    importers = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            if any(n.split(".")[0] == "struct" for n in names):
                importers.append(path.name)
    assert importers == ["monomials.py"]


def test_one_guard_band_check():
    """The scan to the ceiling and its empty guard band have one owner,
    KoszulComplex.scan: a second copy of the check is one the next scan can
    forget."""
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        sites += [
            (path.name, node.lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and "ceiling violated" in node.value
        ]
    koszul = ast.parse((PACKAGE / "koszul.py").read_text(encoding="utf-8"))
    (complex_class,) = [
        n for n in koszul.body if isinstance(n, ast.ClassDef) and n.name == "KoszulComplex"
    ]
    (scan,) = [
        n for n in complex_class.body if isinstance(n, ast.FunctionDef) and n.name == "scan"
    ]
    assert len(sites) == 1
    assert scan.lineno <= sites[0][1] <= scan.end_lineno
    assert sites[0][0] == "koszul.py"


def test_tor_row_budget_is_read_by_budget_only():
    """Whether a Tor row-bound run fits the budget is Budget's decision
    (`allows_tor_row_bounds`): a caller reading the two limits itself is a
    second copy of the gate."""
    readers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr.startswith("tor_row_bound_max_"):
                readers.add(path.name)
    assert readers == {"limits.py"}


def test_bounds_builds_no_ring_or_complex():
    """The bound audit reads the complex the syzygies pipeline built, so
    both tasks get the same Molien fetch, degree refusal and cache."""
    tree = ast.parse((PACKAGE / "bounds.py").read_text(encoding="utf-8"))
    called = {
        getattr(node.func, "id", getattr(node.func, "attr", None))
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
    }
    assert "compute_bounds" in called
    assert not called & {"InvariantRing", "KoszulComplex"}


def _trees():
    """(file name, parsed module) for every engine module."""
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    return [
        (path.name, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in paths
    ]


def test_catalogs_are_validated_by_groups_only():
    """An IrrepCatalog validates itself when it is built, so a catalog that
    exists has passed: a caller validating one again states the fact twice."""
    callers = {
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", getattr(node.func, "attr", None)) == "validate_irrep_catalog"
    }
    assert callers == {"groups.py"}


def _callers(is_target) -> set:
    """(file, innermost def or module-level assignment) of every call in the
    engine that `is_target` accepts."""
    found = set()

    def visit(node, owner, name):
        if isinstance(node, ast.FunctionDef):
            owner = node.name
        elif isinstance(node, ast.Assign) and owner is None:
            owner = ",".join(t.id for t in node.targets if isinstance(t, ast.Name))
        if isinstance(node, ast.Call) and is_target(node):
            found.add((name, owner))
        for child in ast.iter_child_nodes(node):
            visit(child, owner, name)

    for name, tree in _trees():
        visit(tree, None, name)
    return found


def _named(call) -> str:
    return getattr(call.func, "id", getattr(call.func, "attr", None))


def test_only_specialization_ring_grades_a_ring():
    """A weight grading has one source: the copies of irreducibles in a
    specialization. Only schur.specialization_ring builds a Grading from
    multiplicities or hands one to an InvariantRing; the trivial grading is
    the only other Grading."""
    assert _callers(lambda call: _named(call) == "Grading") == {
        ("invariants.py", "TRIVIAL_GRADING"),
        ("schur.py", "specialization_ring"),
    }
    graded = _callers(
        lambda call: _named(call) == "InvariantRing"
        and (len(call.args) > 1 or any(k.arg == "grading" for k in call.keywords))
    )
    assert graded == {("schur.py", "specialization_ring")}


def test_tor_gate_is_asked_by_schur_only():
    """The Tor checks answer the budget gate themselves and return a skipped
    result: a caller asking the gate first is a second reader of it."""
    askers = {
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and _named(node) == "allows_tor_row_bounds"
    }
    assert askers == {"schur.py"}


def _schur_functions() -> dict:
    """name -> FunctionDef of every module-level function in schur.py."""
    tree = ast.parse((PACKAGE / "schur.py").read_text(encoding="utf-8"))
    return {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}


def test_one_tableau_counter():
    """Kostka numbers and Littlewood-Richardson coefficients both count
    semistandard skew tableaux, through the one counter `_fillings`: a
    second backtracking `fill` is a second enumerator to keep right."""
    functions = _schur_functions()
    for name in ("kostka_number", "lr_coefficient"):
        calls = {_named(n) for n in ast.walk(functions[name]) if isinstance(n, ast.Call)}
        assert "_fillings" in calls, name
    fills = [
        name
        for name, fn in functions.items()
        for n in ast.walk(fn)
        if isinstance(n, ast.FunctionDef) and n is not fn and n.name == "fill"
    ]
    assert fills == ["_fillings"]


def test_one_subset_enumerator():
    """Subsets of generators are listed by degree sum through the one
    enumerator `subsets_of_degree`, for the Koszul chains and the θ search
    alike: `itertools.combinations` would be a second one, listing subsets
    that no degree reads."""
    combinations = [
        name
        for name, tree in _trees()
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr == "combinations")
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "itertools"
            and any(a.name == "combinations" for a in node.names)
        )
    ]
    assert combinations == []
    assert _callers(lambda call: _named(call) == "subsets_of_degree") == {
        ("koszul.py", "_subsets"),
        ("invariants.py", "_by_degree_sum"),
    }
    assert _callers(lambda call: _named(call) == "_by_degree_sum") == {
        ("invariants.py", "parameter_system")
    }


def test_one_kostka_prediction_check():
    """Non-dominant weight blocks of R and of Tor meet the Kostka prediction
    through one check, with one message."""
    sites = [
        (name, node.lineno)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and "non-dominant weight block disagrees" in node.value
    ]
    check = _schur_functions()["_check_kostka_prediction"]
    assert len(sites) == 1
    assert sites[0][0] == "schur.py"
    assert check.lineno <= sites[0][1] <= check.end_lineno


def test_no_cache_prefix_name():
    """InvariantRing derives its cache key from its own representation; no
    caller hands it a prefix."""
    names = set()
    for name, tree in _trees():
        for node in ast.walk(tree):
            for field in ("id", "arg", "attr"):
                if getattr(node, field, None) == "cache_prefix":
                    names.add(name)
    assert names == set()


def test_budget_is_the_only_class_with_as_json():
    """Engine results are the dicts the report prints; Budget keeps its
    as_json because the report spells its `name` as `level`."""
    owners = [
        (name, node.name)
        for name, tree in _trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        and any(isinstance(f, ast.FunctionDef) and f.name == "as_json" for f in node.body)
    ]
    assert owners == [("limits.py", "Budget")]


def test_invalid_shipped_catalog_exits_three(tmp_path, capsys, monkeypatch):
    """A builtin whose catalog fails validation is an engine bug: the run
    exits 3 with one line, not 1 as a user's catalog would."""
    import syzlab.groups
    from syzlab.cli import main
    from syzlab.linalg import Matrix

    def two_trivial_characters(name):
        return [(1, 0)], [[Matrix.from_rows([[1]])], [Matrix.from_rows([[1]])]]

    monkeypatch.setattr(syzlab.groups, "_builtin_spec", two_trivial_characters)
    syzlab.groups.builtin_group.cache_clear()
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"group": "builtin:cyclic:2", "task": "group"}))
    code = main(["group", "--input", str(path), "--no-cache"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "syzlab: internal inconsistency: shipped catalog for builtin:cyclic:2 "
        "failed validation: <chi_0, chi_1> = 1, expected 0\n"
    )


# Targets the tracer still names although the engine no longer has them; the
# tracer reports their layers as missing.
STALE_TRACER_TARGETS = {
    "linalg:column_echelon_basis",
    "linalg:Span.add",
    "invariants:InvariantRing._block_basis_monomial",
}


def test_tracer_targets_resolve():
    """Renaming a traced engine function must fail here rather than leave
    its layer reading 0 in the benchmark. LAYERS is read from the tracer's
    source, which is not imported."""
    tracer = PACKAGE.parent.parent / "perfbench" / "tracer.py"
    tree = ast.parse(tracer.read_text(encoding="utf-8"), filename=str(tracer))
    (layers,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets)
    ]
    unresolved = []
    for _, target, _ in layers:
        module_name, _, attr = target.partition(":")
        owner = importlib.import_module(f"syzlab.{module_name}")
        for name in attr.split("."):
            owner = getattr(owner, name, None)
        if owner is None:
            unresolved.append(target)
    assert len(layers) > len(STALE_TRACER_TARGETS)
    assert set(unresolved) <= STALE_TRACER_TARGETS


def test_cli_import_footprint():
    """Every instance is one process, so what `import syzlab.cli` loads is
    paid on every run: not OpenSSL through hashlib, nor dataclasses (which
    pulls in inspect), nor csv outside csv output. The built-in SHA-256 that
    replaces hashlib's gives the same digests, so cache file names hold."""
    from syzlab.cache import content_hash

    banned = ["hashlib", "_hashlib", "dataclasses", "inspect", "csv", "typing"]
    probe = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "import syzlab.cli\n"
        f"print(sorted(set({banned!r}) & set(sys.modules)))\n"
    )
    run = subprocess.run(
        [sys.executable, "-I", "-S", "-c", probe], capture_output=True, text=True, timeout=60
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout == "[]\n"
    for obj in ({}, {"b": [1, "2", None], "a": 0.5}, [{"z": "\u00e9"}, [], True], "x" * 1000):
        canon = json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")
        assert content_hash(obj) == hashlib.sha256(canon).hexdigest()


def test_traced_child_sees_the_koszul_layers(tmp_path):
    """A traced benchmark child still counts the d^2 = 0 products, the
    differentials and the nonzeros the ranks read, and misses only the
    layers of the stale targets: an engine change that took the d^2 product
    or the differentials out of the benchmark's sight fails here. The
    document is the quadratic Veronese of P^3: over R/θR, a d^2 product
    needs two generators of E - θ whose degrees sum to at most the top
    degree of R/θR. That top degree is 4 there, and on no `syzygies` or
    `bounds` corpus document do two such generators fit under it."""
    root = PACKAGE.parent.parent
    timing = tmp_path / "timing.json"
    doc = {"group": "builtin:cyclic:2", "rep": {"multiplicities": [0, 4]}, "task": "syzygies"}
    (tmp_path / "veronese.json").write_text(json.dumps(doc), encoding="utf-8")
    run = subprocess.run(
        [
            sys.executable,
            str(root / "perfbench" / "child.py"),
            str(timing),
            "1",
            "syzygies",
            "--input",
            str(tmp_path / "veronese.json"),
            "--no-cache",
        ],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    trace = json.loads(timing.read_text(encoding="utf-8"))["trace"]
    assert trace["layers"]["koszul.d2_check"][0] > 0
    assert trace["layers"]["koszul.differential"][0] > 0
    assert trace["counts"]["linalg.rank.nnz"] > 0
    assert set(trace["missing"]) == {
        "linalg.column_echelon_basis",
        "linalg.span_add",
        "invariants.block_basis_monomial",
    }


def _integral_fraction_literals(source: str, filename: str = "<source>") -> list:
    """Line numbers of Fraction(...) calls whose arguments are all int
    literals with an integral quotient, such as Fraction(0), Fraction(-1)
    or Fraction(4, 2)."""

    def literal(node):
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            node = node.operand
        return isinstance(node, ast.Constant) and type(node.value) is int

    found = []
    for node in ast.walk(ast.parse(source, filename=filename)):
        if not isinstance(node, ast.Call) or node.keywords or not node.args:
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name != "Fraction" or not all(literal(a) for a in node.args):
            continue
        values = [ast.literal_eval(a) for a in node.args]
        if len(values) == 1 or (values[1] and values[0] % values[1] == 0):
            found.append(node.lineno)
    return found


def test_no_integral_fraction_literals():
    """Integral values are ints, from the wire to every result (the scalar
    convention stated in cyclo.py): a Fraction built from integral int
    literals is a value the convention makes an int, and arithmetic that
    starts from it leaves ints behind."""
    assert _integral_fraction_literals(
        "x = Fraction(0)\ny = fractions.Fraction(-1)\nz = Fraction(4, 2)\n"
        "h = Fraction(1, 2)\nk = Fraction(n)\nq = Fraction(1, n)\n"
    ) == [1, 2, 3]
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        found += [
            f"{path.name}:{line}"
            for line in _integral_fraction_literals(path.read_text(encoding="utf-8"), str(path))
        ]
    assert list(PACKAGE.glob("*.py"))
    assert found == []
