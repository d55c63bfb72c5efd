"""Every public function and class in ``src/isobath`` has a caller there.

Code that only the tests call belongs with the tests: the reference
oracles live in ``tests/reference.py``. A definition counts as used when
code outside it, anywhere in ``src/isobath``, names it; an import alone
does not. A definition used only by unused definitions is unused too, so
the check runs to a fixpoint and catches a chain of test-only helpers
whole.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "isobath"


def _references(node) -> set[str]:
    """Names and attribute names that a piece of code reads or calls."""
    refs = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            refs.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            refs.add(sub.attr)
    return refs


def _units():
    """(qualified name or None, name, references) per top-level statement.

    Module-level functions and classes are named units; every other
    top-level statement (constants, the ``__main__`` block) is always
    live and has no name.
    """
    units = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for stmt in tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                units.append((f"{path.stem}.{stmt.name}", stmt.name, _references(stmt)))
            elif not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                units.append((None, None, _references(stmt)))
    return units


def unused_definitions() -> list[str]:
    """Public definitions that no live ``src/`` code refers to."""
    live = _units()
    dead = []
    while True:
        drop = [
            unit
            for unit in live
            if unit[1] is not None
            and not any(unit[1] in other[2] for other in live if other is not unit)
        ]
        if not drop:
            break
        dead += drop
        live = [unit for unit in live if unit not in drop]
    return sorted(qual for qual, name, _ in dead if not name.startswith("_"))


def test_every_public_definition_has_a_src_caller():
    unused = unused_definitions()
    assert not unused, f"called only from outside src/isobath: {unused}"
