"""Checks on the source tree itself."""

import ast
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
