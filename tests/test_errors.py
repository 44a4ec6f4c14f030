import ast
from pathlib import Path

import grasspack

SRC = Path(grasspack.__file__).resolve().parent

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
