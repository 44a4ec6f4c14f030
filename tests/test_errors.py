import ast
from pathlib import Path

import grasspack

SRC = Path(grasspack.__file__).resolve().parent
ROOT = SRC.parents[1]

# json.dumps requires its ``default`` hook to raise TypeError
EXEMPT = {("codebooks.py", "_json_safe")}


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _builtin_raises(path):
    """(function, line) of every ``raise ValueError``/``raise TypeError`` in a module."""
    found = []

    def visit(node, func):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                if isinstance(exc, ast.Name) and exc.id in ("ValueError", "TypeError"):
                    found.append((func, child.lineno))
            visit(child, func)

    visit(_tree(path), None)
    return found


def test_package_raises_only_its_own_errors():
    raw = [
        f"{path.name}:{line} in {func}"
        for path in sorted(SRC.glob("*.py"))
        for func, line in _builtin_raises(path)
        if (path.name, func) not in EXEMPT
    ]
    assert raw == []


def test_scan_sees_the_exempt_raise():
    assert [func for func, _ in _builtin_raises(SRC / "codebooks.py")] == ["_json_safe"]


def test_every_private_function_is_referenced():
    trees = {path.name: _tree(path) for path in sorted(SRC.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name)
    private = [
        (name, node.name)
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
    ]
    assert ("grassmann.py", "_closest_pair") in private  # the scan sees top-level helpers
    assert [f"{name}:{func}" for name, func in private if func not in used] == []


# public names kept although only unit tests use them, each with its reason
PUBLIC_WITHOUT_CALLER = {}


def _uses(node, strings=False):
    """Identifiers and attribute names read in ``node``, and its string constants if ``strings``."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif strings and isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            used.add(sub.value)
    return used


def test_every_public_name_has_a_caller():
    # a public top-level function or class must be used by the package, the
    # benchmark or the acceptance tests, not only by unit tests; a use inside
    # another public definition counts once that one is used, and imports,
    # ``__all__`` and the definition itself never count
    trees = [_tree(path) for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    public = {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }
    assert {"Codebook", "papr_experiment", "InvalidArgument"} <= public  # the scan sees them
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    live = public & set().union(*(_uses(_tree(path)) for path in outside))
    live |= public & _uses(_tree(ROOT / "perfbench" / "tracing.py"), strings=True)  # rebinds by name
    users = [
        (getattr(node, "name", None), _uses(node))
        for tree in trees
        for node in tree.body
        if not isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    grew = True
    while grew:
        grew = False
        for name, used in users:
            new = (public & used) - live - {name}
            if new and (name not in public or name in live):
                live |= new
                grew = True
    assert sorted(public - live - set(PUBLIC_WITHOUT_CALLER)) == []


def test_every_error_class_is_raised():
    raised = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
    classes = [node.name for node in _tree(SRC / "errors.py").body if isinstance(node, ast.ClassDef)]
    assert "InvalidArgument" in classes  # the scan sees the error classes
    assert [name for name in classes if name not in raised] == []
