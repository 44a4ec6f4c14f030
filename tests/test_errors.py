import ast
import importlib.metadata
import tomllib
from pathlib import Path

import numpy as np
import pytest

import grasspack
from grasspack import errors
from grasspack.audit import effective_gram, real_variable_count, storage_count
from grasspack.codebooks import (
    OptimizerConfig,
    build_expmap,
    build_general_sparse,
    build_sparse_2M,
    nr_codebook_4_2,
    optimize_manopt,
    optimize_phases_2M,
    save_codebook,
)
from grasspack.errors import DimensionMismatch, GrasspackError, InvalidArgument, NotStiefel
from grasspack.grassmann import Codebook, chordal_distance, projector_distance, validate_stiefel
from grasspack.linalg import random_stiefel
from grasspack.linksim import gain_cdf, rate_curve
from grasspack.rng import substream
from grasspack.schubert import SparsityPattern, enumerate_patterns, matching_patterns, pair_codeword, pattern_to_codeword
from grasspack.wavesim import WaveformConfig, ccdf, constellation_samples, modulate, papr_experiment, row_sparse_precoder

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


# (module, name) pairs that perfbench's tracer rebinds but the module no longer calls
STALE_SPANS = {
    # linksim opens its trials' generators through substreams; the span awaits the benchmark's next change
    ("linksim", "substream"),
}


def _called_names(module):
    return {
        node.func.id
        for node in ast.walk(_tree(SRC / f"{module}.py"))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_every_traced_binding_is_called():
    # perfbench's tracer rebinds each (module, name) of FUNCTION_SPANS by name,
    # so a binding the module only imports, and no longer calls, records nothing
    tree = _tree(ROOT / "perfbench" / "tracing.py")
    (spans,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["FUNCTION_SPANS"]
    ]
    bindings = {(module, name) for module, name, _ in spans}
    uncalled = {(module, name) for module, name in bindings if name not in _called_names(module)}
    assert uncalled == STALE_SPANS


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


def _defaulted(tree):
    """(function, parameter, position or None) of every parameter with a
    default; the position counts after ``self`` for a method and is None for
    a keyword-only parameter."""
    methods = {
        id(node)
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    }
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            pos = node.args.posonlyargs + node.args.args
            skip = 1 if id(node) in methods else 0
            first = len(pos) - len(node.args.defaults)
            found += [(node.name, arg.arg, i - skip) for i, arg in enumerate(pos) if i >= first]
            found += [
                (node.name, arg.arg, None)
                for arg, default in zip(node.args.kwonlyargs, node.args.kw_defaults)
                if default is not None
            ]
    return found


def _sets(call, param, position):
    """Whether ``call`` passes ``param``, by keyword, ``**``, position or ``*``."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    args = call.args
    return position is not None and (len(args) > position or any(isinstance(a, ast.Starred) for a in args))


def _defaults_and_calls():
    """Every defaulted parameter of the package as (module, function, parameter,
    position), and the calls in the package, the benchmark and the acceptance
    tests indexed by the name they call; calls are matched to functions by name."""
    defaulted = [(path.name, *item) for path in sorted(SRC.glob("*.py")) for item in _defaulted(_tree(path))]
    assert ("wavesim.py", "papr_experiment", "antenna_mean", 4) in defaulted  # the scan sees them
    outside = [ROOT / "tests" / "test_acceptance.py", *sorted((ROOT / "perfbench").glob("*.py"))]
    calls = {}
    for path in [*sorted(SRC.glob("*.py")), *outside]:
        for node in ast.walk(_tree(path)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.setdefault(name, []).append(node)
    return defaulted, calls


# "module:function.parameter" defaults kept although no such call sets them, each with its reason
DEFAULT_WITHOUT_CALLER = {}


def test_every_parameter_default_is_set_by_a_caller():
    # a default that no call in the package, the benchmark or the acceptance
    # tests overrides is a knob only unit tests turn
    defaulted, calls = _defaults_and_calls()
    unset = [
        f"{module}:{func}.{param}"
        for module, func, param, position in defaulted
        if not any(_sets(call, param, position) for call in calls.get(func, []))
    ]
    assert [name for name in unset if name not in DEFAULT_WITHOUT_CALLER] == []


# "module:function.parameter" defaults that every such call overrides, kept each for its reason
DEFAULT_ALWAYS_SET = {
    "linksim.py:_rates.best": "without it _rates returns the per-codeword rates, which the kernel "
    "tests take as their reference for the log-det formula",
}


def test_every_parameter_default_is_used_by_a_caller():
    # the mirror rule: a default that every call in the package, the benchmark
    # and the acceptance tests overrides is a value only unit tests rely on,
    # and the parameter should be required
    defaulted, calls = _defaults_and_calls()
    always_set = [
        f"{module}:{func}.{param}"
        for module, func, param, position in defaulted
        if all(_sets(call, param, position) for call in calls.get(func, []))
    ]
    assert set(DEFAULT_ALWAYS_SET) <= set(always_set)  # each exception is still needed
    assert [name for name in always_set if name not in DEFAULT_ALWAYS_SET] == []


NR = nr_codebook_4_2()
FAST = OptimizerConfig(restarts=1, max_iters=5)
PAIRS = SparsityPattern(4, 2, ((1, 2), (3, 4)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: rate_curve([NR], 2, [0.0], 2.5, seed=0),
        lambda: rate_curve([NR], True, [0.0], 3, seed=0),
        lambda: gain_cdf([NR], 2.5, [1.0], 3, seed=0),
        lambda: gain_cdf([NR], 2, [1.0], np.float64(3), seed=0),
        lambda: papr_experiment([np.eye(4)[:, :2]], WaveformConfig(4, 4), 2.5, seed=0),
        lambda: constellation_samples(np.eye(4)[:, :2], WaveformConfig(4, 4), True, seed=0),
        lambda: WaveformConfig(4.0, 4),
        lambda: WaveformConfig(4, 4, oversample=2.0),
        lambda: row_sparse_precoder(4, 2, 1.5),
        lambda: row_sparse_precoder(4.0, 2, 1),
        lambda: row_sparse_precoder(4, 2.5, 1),
        lambda: modulate(2.5, substream(0, 0)),
        lambda: gain_cdf([NR], 2, [1.0], 3, seed=2.9),
        lambda: rate_curve([NR], 2, [0.0], 3, seed=True),
        lambda: build_expmap(4, 2, 4, OptimizerConfig(seed=1.5)),
        lambda: OptimizerConfig(max_iters=2.5),
        lambda: OptimizerConfig(restarts=True),
        lambda: optimize_manopt(4, 2, 8.0, FAST),
        lambda: build_expmap(4.0, 2, 8, FAST),
        lambda: build_sparse_2M(2.0, 8, FAST),
        lambda: build_general_sparse(4, 2, 4.0, 8, FAST),
        lambda: optimize_phases_2M(2, 2.0, FAST),
        lambda: enumerate_patterns(4.0, 2, 4),
        lambda: matching_patterns(np.float64(2)),
        lambda: real_variable_count("manopt", 4.5, 2, 8),
        lambda: storage_count(4, 2, 8.0, sparse=True),
        lambda: NR.subset([2.9]),
        lambda: NR.subset([True]),
        lambda: SparsityPattern(4.5, 2, ((1,), (2,))),
        lambda: SparsityPattern(True, 1, ((1,),)),
        lambda: SparsityPattern(4, 2, (("1",), (2,))),
        lambda: SparsityPattern(4, 2, ((1.0,), (2,))),
        lambda: SparsityPattern(4, 2, 5),
        lambda: SparsityPattern(4, 2, ((1,), 2)),
        lambda: random_stiefel(4.0, 2, substream(0, 0)),
        lambda: Codebook(NR.stack(), 5),
    ],
    ids=[
        "rate_curve-trials-float",
        "rate_curve-n-bool",
        "gain_cdf-n-float",
        "gain_cdf-trials-numpy-float",
        "papr_experiment-trials-float",
        "constellation_samples-frames-bool",
        "WaveformConfig-n_used-float",
        "WaveformConfig-oversample-float",
        "row_sparse_precoder-ell-float",
        "row_sparse_precoder-t-float",
        "row_sparse_precoder-m-float",
        "modulate-count-float",
        "gain_cdf-seed-float",
        "rate_curve-seed-bool",
        "build_expmap-seed-float",
        "OptimizerConfig-max_iters-float",
        "OptimizerConfig-restarts-bool",
        "optimize_manopt-size-float",
        "build_expmap-t-float",
        "build_sparse_2M-m-float",
        "build_general_sparse-s-float",
        "optimize_phases_2M-ell-float",
        "enumerate_patterns-t-float",
        "matching_patterns-m-numpy-float",
        "real_variable_count-t-float",
        "storage_count-size-float",
        "Codebook.subset-index-float",
        "Codebook.subset-index-bool",
        "SparsityPattern-T-float",
        "SparsityPattern-T-bool",
        "SparsityPattern-row-str",
        "SparsityPattern-row-float",
        "SparsityPattern-supports-not-iterable",
        "SparsityPattern-support-not-iterable",
        "random_stiefel-t-float",
        "Codebook-meta-int",
    ],
)
def test_non_integer_counts_raise_package_errors(call):
    with pytest.raises(InvalidArgument):
        call()


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: OptimizerConfig(phase_grid=("a",)), "phase_grid"),
        (lambda: ccdf([1.5, 2.0], ["x"]), "thresholds_db"),
        (lambda: ccdf(["a"], [1.0]), "samples"),
        (lambda: row_sparse_precoder(4, 2, 1, thetas=["a"]), "thetas"),
        (lambda: rate_curve([NR], 2, ["a"], 3, seed=0), "snr_db"),
        (lambda: Codebook([["a", "b"], ["c", "d"]]), "codewords"),
        (lambda: Codebook(np.array([[["a"]]])), "codewords"),
        (lambda: chordal_distance("a", "b"), "wi"),
        (lambda: validate_stiefel([["a"], ["b"]]), "w"),
        (lambda: projector_distance(np.eye(4)[:, :2], [["a"]]), "wj"),
        (lambda: effective_gram([["a"]], np.eye(2)), "h"),
        (lambda: papr_experiment([[["a", "b"]] * 4], WaveformConfig(4, 4), 2, seed=0), "source"),
        (lambda: pattern_to_codeword(PAIRS, ["a", 0.0, 0.0, 0.0]), "phases"),
        (lambda: pattern_to_codeword(PAIRS, [0.0, np.nan, 0.0, 0.0]), "phases"),
        (lambda: pair_codeword(PAIRS, ["a", 0.0]), "thetas"),
        (lambda: pair_codeword(PAIRS, [np.inf, 0.0]), "phases"),
    ],
    ids=[
        "OptimizerConfig-phase_grid",
        "ccdf-thresholds",
        "ccdf-samples",
        "row_sparse_precoder-thetas",
        "rate_curve-snr",
        "Codebook-list",
        "Codebook-array",
        "chordal_distance",
        "validate_stiefel",
        "projector_distance",
        "effective_gram",
        "papr_experiment-matrix",
        "pattern_to_codeword-text",
        "pattern_to_codeword-nan",
        "pair_codeword-text",
        "pair_codeword-inf",
    ],
)
def test_non_numeric_arrays_raise_package_errors(call, name):
    with pytest.raises(InvalidArgument, match=rf"^{name} "):
        call()


@pytest.mark.parametrize("meta", [{"x": object()}, {(1, 2): 3}], ids=["object-value", "tuple-key"])
def test_unwritable_meta_raises_before_the_file_is_written(tmp_path, meta):
    path = tmp_path / "book.json"
    with pytest.raises(InvalidArgument, match="meta"):
        save_codebook(Codebook(NR.stack(), meta), path)
    assert not path.exists()


def test_python_floor_matches_numpy():
    # pip installs the package only on a Python that its numpy floor supports too
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    assert project["dependencies"] == ["numpy>=2.4"]
    assert project["requires-python"] == importlib.metadata.metadata("numpy")["Requires-Python"]


def test_numpy_integer_counts_are_accepted():
    sweep = rate_curve([NR], np.int64(2), [0.0], np.int32(3), seed=0)
    assert sweep.mean_rates.shape == (1, 1)
    assert papr_experiment([np.eye(4)[:, :2]], WaveformConfig(np.int64(4), 4), np.int64(2), seed=0)[0].size == 4


def test_error_hierarchy():
    classes = [obj for obj in vars(errors).values() if isinstance(obj, type) and obj.__module__ == errors.__name__]
    assert sorted(cls.__name__ for cls in classes) == [
        "DimensionMismatch",
        "GrasspackError",
        "InvalidArgument",
        "NotStiefel",
        "ParseError",
        "SizeLimit",
    ]
    assert all(issubclass(cls, GrasspackError) for cls in classes)
    assert all(issubclass(cls, ValueError) for cls in (InvalidArgument, DimensionMismatch, NotStiefel))
