"""Every public function and class in ``src/isobath`` has a caller there,
and every member of a ``src/`` class is read there.

Code that only the tests call belongs with the tests: the reference
oracles live in ``tests/reference.py``. A definition counts as used when
code outside it, anywhere in ``src/isobath``, names it; an import alone
does not. A definition used only by unused definitions is unused too, so
the check runs to a fixpoint and catches a chain of test-only helpers
whole.

A class member (method, property, annotated field or ``self.x``
attribute) counts as read when some ``src/`` code reads an attribute of
that name. The check goes by name alone, so it misses a member whose
name another class's member shares, but it never flags a member that is
read.

A name a ``src/`` module imports but never uses is there only for the
benchmark's tracer (``perfbench/tracing.py``), which wraps it in that
module. Those names are listed here, each one of the tracer's targets,
so the list can only shrink unless a change names the import it adds.

Only ``motion`` turns an action index into an angle: no other module
reads an element of ``ACTION_SET``, though it may count them.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "isobath"
TRACING = SRC.parent.parent / "perfbench" / "tracing.py"


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


# Members no ``src/`` code reads that stay on purpose.
MEMBER_ALLOWLIST = {
    # Error detail for callers that catch a DecodeError.
    "DecodeError.offset",
    # Read only by the benchmark's tracer (perfbench/tracing.py,
    # ``_count_build``) to count the base-plan points of each build.
    "EpisodeEvaluator.base",
}


def _trees():
    return [ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))]


def _members(cls: ast.ClassDef) -> set[str]:
    """Methods, properties, annotated fields and ``self.x`` attributes."""
    names = set()
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(stmt.name)
            for sub in ast.walk(stmt):
                if (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.ctx, ast.Store)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                ):
                    names.add(sub.attr)
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return {name for name in names if not name.startswith("__")}


def unread_members() -> list[str]:
    """``Class.member`` for each member no ``src/`` attribute read names."""
    trees = _trees()
    read = {
        sub.attr
        for tree in trees
        for sub in ast.walk(tree)
        if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)
    }
    return sorted(
        f"{cls.name}.{name}"
        for tree in trees
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for name in _members(cls)
        if name not in read and f"{cls.name}.{name}" not in MEMBER_ALLOWLIST
    )


def test_every_class_member_is_read_in_src():
    unread = unread_members()
    assert not unread, f"members no src/isobath code reads: {unread}"


def trace_targets() -> set[str]:
    """The ``"isobath.<module>:<name>"`` strings of the tracer's ``TARGETS``,
    read from its source without importing it."""
    tree = ast.parse(TRACING.read_text(), filename=str(TRACING))
    targets = set()
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in stmt.targets
        ):
            for call in ast.walk(stmt.value):
                if isinstance(call, ast.Call) and call.args:
                    targets.add(ast.literal_eval(call.args[0]))
    return targets


def unused_imports() -> list[str]:
    """``module:name`` for each name a ``src/`` module imports and never uses."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        imported, used = set(), set()
        for stmt in tree.body:
            if isinstance(stmt, ast.ImportFrom) and stmt.module == "__future__":
                continue
            if isinstance(stmt, (ast.Import, ast.ImportFrom)):
                imported |= {
                    alias.asname or alias.name.split(".")[0] for alias in stmt.names
                }
            else:
                used |= _references(stmt)
        unused += [f"{path.stem}:{name}" for name in sorted(imported - used)]
    return unused


# ``module:name`` of the imports that only the tracer uses, in the order
# ``unused_imports`` reports them.
TRACER_ONLY_IMPORTS = [
    "coordination:lawnmower_path",
    "coordination:rollout",
    "coordination:sample_locations",
    "mission:step",
    "planner:bayes_risk_batch",
]


def test_tracer_only_imports_are_trace_targets():
    targets = trace_targets()
    assert "isobath.planner:EpisodeEvaluator.marginal" in targets
    assert unused_imports() == TRACER_ONLY_IMPORTS
    untraced = [name for name in TRACER_ONLY_IMPORTS if f"isobath.{name}" not in targets]
    assert not untraced, f"imported, unused, and wrapped by no tracer target: {untraced}"


def action_angle_reads() -> list[str]:
    """``module:line`` of each use of the action set outside ``motion``
    other than ``len(ACTION_SET)``; any other use reads an action's angle."""
    names = {"ACTION_SET", "ACTION_SET_DEG"}
    reads = []
    for path in sorted(SRC.glob("*.py")):
        if path.stem == "motion":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        counted = {
            id(call.args[0])
            for call in ast.walk(tree)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
            and call.func.id == "len" and len(call.args) == 1
        }
        reads += [
            f"{path.stem}:{node.lineno}"
            for node in ast.walk(tree)
            if (
                (isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.Attribute) and node.attr in names)
            )
            and id(node) not in counted
        ]
    return reads


def test_only_motion_reads_an_action_angle():
    reads = action_angle_reads()
    assert not reads, f"action set read outside motion: {reads}"
