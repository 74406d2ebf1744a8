"""Checks on the source tree itself."""

import ast
import importlib
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
