import hashlib
import itertools
import json
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspack import codebooks
from grasspack.audit import real_variable_count
from grasspack.codebooks import (
    EPS_SCHEDULE,
    QUARTER_GRID,
    OptimizerConfig,
    _LBFGS_PAIRS,
    _descend,
    _general_layout,
    _manopt_grad,
    _phase_value_grad,
    _surrogate_egrad,
    build_expmap,
    build_general_sparse,
    build_sparse_2M,
    expmap_codeword,
    load_codebook,
    nr_codebook_4_2,
    optimize_manopt,
    optimize_phases_2M,
    proposed_codebook_4_2,
    save_codebook,
)
from grasspack.errors import (
    DimensionMismatch,
    GrasspackError,
    InvalidArgument,
    NotStiefel,
    ParseError,
    SizeLimit,
)
from grasspack.grassmann import (
    Codebook,
    chordal_distance,
    min_chordal_distance,
    projector_distance,
    validate_stiefel,
)
from grasspack.linalg import _qr_positive, random_stiefel
from grasspack.rng import substream
from grasspack.schubert import _fill, _layout, enumerate_patterns, matching_patterns, pair_codeword

FAST = OptimizerConfig(restarts=2, max_iters=120, seed=0)
FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = Path(__file__).resolve().parent.parent / "src"


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=12,
)
_ENTRY = st.lists(st.integers() | st.floats() | st.text(max_size=2), max_size=3)
_JSON_DOCS = _JSON | st.fixed_dictionaries(
    {
        "T": st.integers(-2, 5),
        "M": st.integers(-2, 3),
        "codewords": st.lists(st.lists(_ENTRY, max_size=9), max_size=3),
        "meta": _JSON,
    }
)


def phase_objective(a, b):
    return float(np.sum(np.sin((np.asarray(a) - np.asarray(b)) / 2.0) ** 2))


class TestSmoothObjective:
    # the surrogate value is log sum_{i<j} exp(-||W_i W_i^H - W_j W_j^H||_F / eps)
    def test_identical_pair_is_zero(self):
        w = np.eye(4)[:, :2]
        assert _surrogate_egrad(np.stack([w, w]), 0.5)[0] == pytest.approx(0.0, abs=1e-12)

    def test_single_pair_closed_form(self):
        a = np.eye(4)[:, :2]
        b = np.eye(4)[:, 2:4]
        delta = projector_distance(a, b)
        for eps in (1.0, 0.1):
            assert _surrogate_egrad(np.stack([a, b]), eps)[0] == pytest.approx(
                -delta / eps, rel=1e-12
            )

    def test_small_eps_dominated_by_closest_pair(self):
        rng = np.random.default_rng(3)
        words = [random_stiefel(4, 2, rng) for _ in range(4)]
        dmin = min(
            projector_distance(a, b) for a, b in itertools.combinations(words, 2)
        )
        eps = 1e-3
        assert _surrogate_egrad(np.stack(words), eps)[0] * eps == pytest.approx(-dmin, abs=1e-6)


def _einsum_surrogate(stack, eps):
    """Reference surrogate: value, Euclidean and Riemannian gradients and Gram
    norms, written as the plain einsums of the definitions."""
    k, _, m = stack.shape
    gram = np.einsum("itm,jtn->ijmn", stack.conj(), stack)
    s = np.sum(np.abs(gram) ** 2, axis=(-2, -1))
    d = np.sqrt(np.clip(2.0 * (m - s), 0.0, None))
    iu, ju = np.triu_indices(k, 1)
    z = -d[iu, ju] / eps
    value = z.max() + np.log(np.sum(np.exp(z - z.max())))
    weights = np.zeros((k, k))
    weights[iu, ju] = np.exp(z - z.max()) / np.sum(np.exp(z - z.max()))
    weights += weights.T
    coef = weights / (eps * np.maximum(d, 1e-12))
    np.fill_diagonal(coef, 0.0)
    term = np.einsum("kj,jtm,jkmn->ktn", coef, stack, gram)
    egrad = term - stack * coef.sum(axis=1)[:, None, None]
    inner = np.einsum("ktm,ktn->kmn", stack.conj(), egrad)
    rgrad = egrad - np.einsum("ktm,kmn->ktn", stack, inner)
    return value, egrad, rgrad, s


def _random_stack(k, t, m, seed):
    rng = np.random.default_rng(seed)
    return np.stack([random_stiefel(t, m, rng) for _ in range(k)])


def _sparse_general_stack(seed):
    layout = _layout(_general_layout(8, enumerate_patterns(6, 2, 4)))
    phases = np.random.default_rng(seed).uniform(-np.pi, np.pi, size=(8, 4)) * (layout[4] != np.arange(4))
    return _fill(layout, phases, 6, 2)


_KERNEL_STACKS = {
    "dense-22x4x2": lambda: _random_stack(22, 4, 2, 1),
    "dense-32x6x3": lambda: _random_stack(32, 6, 3, 2),
    "dense-5x3x1": lambda: _random_stack(5, 3, 1, 3),
    "sparse-general-8x6x2": lambda: _sparse_general_stack(4),
    "dense-4x64x2": lambda: _random_stack(4, 64, 2, 8),
}


class TestSurrogateKernel:
    @pytest.mark.parametrize("eps", [1.0, 0.01])
    @pytest.mark.parametrize("name", list(_KERNEL_STACKS))
    def test_matches_einsum_reference(self, name, eps):
        stack = _KERNEL_STACKS[name]()
        value, egrad, rgrad, s = _einsum_surrogate(stack, eps)
        got_value, finish = _surrogate_egrad(stack, eps)
        got_egrad, got_s = finish()
        assert got_value == pytest.approx(value, rel=1e-13)
        np.testing.assert_allclose(got_s, s, rtol=0, atol=1e-12)
        np.testing.assert_allclose(got_egrad, egrad, rtol=0, atol=1e-12)
        np.testing.assert_allclose(_manopt_grad(stack, eps)[1]()[0], rgrad, rtol=0, atol=1e-12)

    def test_gradient_forms_no_t_by_t_array(self):
        # the Gram blocks and W (W^H E) stay O(K M T); one 2000 x 2000 complex matrix is 64 MB
        stack = _random_stack(3, 2000, 2, 9)
        tracemalloc.start()
        try:
            _manopt_grad(stack, 0.1)[1]()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2000 * 2000 * np.dtype(np.complex128).itemsize

    @pytest.mark.parametrize("eps", [1.0, 0.1])
    def test_riemannian_gradient_is_the_directional_derivative(self, eps):
        stack = _random_stack(6, 4, 2, 5)
        rgrad, _ = _manopt_grad(stack, eps)[1]()
        assert np.max(np.abs(stack.conj().transpose(0, 2, 1) @ rgrad)) <= 1e-12
        rng = np.random.default_rng(6)
        raw = rng.standard_normal(stack.shape) + 1j * rng.standard_normal(stack.shape)
        delta = raw - stack @ (stack.conj().transpose(0, 2, 1) @ raw)  # tangent at the stack
        h = 1e-6
        plus = _surrogate_egrad(_qr_positive(stack + h * delta), eps)[0]
        minus = _surrogate_egrad(_qr_positive(stack - h * delta), eps)[0]
        slope = 2.0 * np.vdot(rgrad, delta).real
        assert (plus - minus) / (2 * h) == pytest.approx(slope, rel=1e-6)


_THREADED_BUILD = """
import hashlib
from grasspack.codebooks import OptimizerConfig, build_expmap, build_general_sparse, optimize_manopt
from grasspack.grassmann import min_chordal_distance
fast = OptimizerConfig(restarts=2, max_iters=120, seed=0)
books = (optimize_manopt(4, 2, 8, fast), optimize_manopt(64, 2, 8, fast), build_general_sparse(6, 2, 4, 8, fast))
for book in books:
    print(hashlib.sha256(book.stack().tobytes()).hexdigest())
print(repr(min_chordal_distance(build_expmap(6, 3, 32, fast))))
"""


def test_books_do_not_depend_on_blas_threads():
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
        run = subprocess.run(
            [sys.executable, "-c", _THREADED_BUILD], env=env, capture_output=True, text=True, check=True
        )
        digests.append(run.stdout.splitlines())
    assert len(digests[0]) == 4 and digests[0] == digests[1]


class TestOptimizeManopt:
    def test_antipodal_lines(self):
        book = optimize_manopt(2, 1, 2, FAST)
        assert min_chordal_distance(book)[0] >= 1.0 - 1e-3

    def test_three_points_reach_cross_pattern_bound(self):
        book = optimize_manopt(4, 2, 3, FAST)
        assert min_chordal_distance(book)[0] >= 1.0 - 1e-3

    def test_never_below_own_initialization(self):
        cfg = OptimizerConfig(restarts=3, max_iters=40, seed=9)
        book = optimize_manopt(5, 2, 6, cfg)
        final = min_chordal_distance(book)[0]
        for r in range(cfg.restarts):
            rng = substream(cfg.seed, 0xA11, r)
            g = rng.standard_normal((6, 5, 2)) + 1j * rng.standard_normal((6, 5, 2))
            init = Codebook(_qr_positive(g))
            assert final >= min_chordal_distance(init)[0] - 1e-12

    def test_outputs_stiefel_and_deterministic(self):
        b1 = optimize_manopt(4, 2, 5, FAST)
        b2 = optimize_manopt(4, 2, 5, FAST)
        for w in b1.codewords:
            assert validate_stiefel(w)
        assert np.array_equal(b1.stack(), b2.stack())

    @pytest.mark.parametrize(
        "t, m, size, want",
        [
            pytest.param(4, 2, 8, "fb1409cee62dc0ddd081b463c2ab56b2d119edc93766efb3acfb7a622a8ac7c3", id="4-2-8"),
            pytest.param(6, 3, 8, "f85743fbbb432e612051fc20538c65547031f23470ef32e323012a1a8ce9314c", id="6-3-8"),
        ],
    )
    def test_book_bits_are_pinned(self, t, m, size, want):
        # any change to the descent's arithmetic or to which iterate it keeps moves this digest
        digest = hashlib.sha256(optimize_manopt(t, m, size, FAST).stack().tobytes()).hexdigest()
        assert digest == want

    @pytest.mark.parametrize("t, m", [(4, 2), (6, 3)])
    def test_reported_mcd_is_the_books_mcd(self, t, m):
        book = optimize_manopt(t, m, 8, FAST)
        assert book.meta["mcd"] == min_chordal_distance(book)[0]

    def test_invalid_config(self):
        with pytest.raises(InvalidArgument):
            optimize_manopt(4, 2, 1, FAST)
        with pytest.raises(InvalidArgument):
            OptimizerConfig(max_iters=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"phase_grid": (0.0, np.nan)},
            {"phase_grid": (np.inf,)},
            {"phase_grid": (0.0, -np.inf)},
            # finite, but empty or repeated (pi and -pi wrap to one point)
            {"phase_grid": ()},
            {"phase_grid": (0.0, 1.0, 0.0)},
            {"phase_grid": (np.pi, -np.pi)},
        ],
        ids=repr,
    )
    def test_non_finite_config_rejected(self, kwargs):
        with pytest.raises(InvalidArgument):
            OptimizerConfig(**kwargs)


def _quadratic(x, eps):
    return float(np.sum(x**2)), lambda: (2.0 * x, -float(np.sum(x**2)))


def _finished(value_grad, start, cfg, retract=None):
    """The iterates one descent from ``start`` hands to ``finish``, in order:
    each stage start, which is the iterate seen last, and each accepted step."""
    seen = []

    def watched(x, eps):
        value, finish = value_grad(x, eps)

        def watched_finish():
            seen.append(x)
            return finish()

        return value, watched_finish

    _descend(watched, [start], cfg, retract)
    return seen


def _accepted(value_grad, start, cfg, retract=None):
    seen = _finished(value_grad, start, cfg, retract)
    return [x for last, x in zip(seen, seen[1:]) if x is not last]


def _accepted_steps(value_grad, cfg):
    return len(_accepted(value_grad, np.ones(3), cfg))


class TestDescend:
    def test_vanishing_gradient_stops_at_the_minimum(self):
        # step 1 overshoots to -x and is refused; step 1/2 lands on 0 exactly
        score, x = _descend(_quadratic, [np.ones(3)], FAST)
        assert np.array_equal(x, np.zeros(3)) and score == 0.0
        assert _accepted_steps(_quadratic, FAST) == 1

    def test_failed_line_search_keeps_the_iterate(self):
        def uphill(x, eps):  # the "gradient" points up, so no step lowers the value
            return float(np.sum(x)), lambda: (-np.ones_like(x), 0.0)

        assert np.array_equal(_descend(uphill, [np.ones(3)], FAST)[1], np.ones(3))
        assert _accepted_steps(uphill, FAST) == 0

    def test_max_iters_ends_a_stage(self):
        def slope(x, eps):  # every step lowers the value by 3 * step
            return float(np.sum(x)), lambda: (np.ones_like(x), 0.0)

        assert _accepted_steps(slope, OptimizerConfig(max_iters=7)) == 7 * len(EPS_SCHEDULE)

    def test_stall_ends_a_stage(self):
        def tiny(x, eps):  # linear, so y = 0, no pair is kept and every step is along -g
            return 1e-12 * float(np.sum(x)), lambda: (np.full_like(x, 1e-12), 0.0)

        # ||g||^2 = 3e-24 stays above the vanishing-gradient stop, and every
        # step lowers the value by 3e-24 * step, less than 1e-13
        assert _accepted_steps(tiny, OptimizerConfig(max_iters=7)) == 3 * len(EPS_SCHEDULE)

    def test_flat_surrogate_stalls_instead_of_running_to_max_iters(self):
        def flat(x, eps):  # 1e-4 * step * 3 rounds away against 1.0 once step < 2**-41
            return 1.0, lambda: (np.ones_like(x), 0.0)

        assert _accepted_steps(flat, OptimizerConfig()) == 3 * len(EPS_SCHEDULE)

    def test_gradient_runs_only_at_stage_starts_and_accepted_steps(self):
        evaluated = []

        def counted(x, eps):
            evaluated.append(x)
            return _manopt_grad(x, eps)

        stack = _random_stack(6, 4, 2, 7)
        finished = _finished(counted, stack, OptimizerConfig(max_iters=20), retract=_qr_positive)
        accepted = [x for last, x in zip(finished, finished[1:]) if x is not last]
        # the first stage starts from the initial stack, and each later one from
        # the iterate seen last, so finish ran once per stage and accepted step
        assert finished[0] is stack and len(finished) == len(EPS_SCHEDULE) + len(accepted)
        assert len(evaluated) > len(finished)  # some candidates were rejected
        assert all(any(x is y for y in evaluated) for x in accepted)

    def test_first_iterate_of_the_top_score_is_kept(self):
        seen = []

        def scripted(x, eps):  # every step is accepted; the score climbs to 3 and stays
            def finish():
                seen.append(x)
                return np.ones_like(x), float(min(len(seen) - 1, 3))

            return float(np.sum(x)), finish

        # the second start ties the top score at every iterate
        score, x = _descend(scripted, [np.zeros(2), np.ones(2)], OptimizerConfig(max_iters=7))
        assert len(seen) == 2 * len(EPS_SCHEDULE) * 8  # per start and stage, its start and seven steps
        assert score == 3.0 and x is seen[3]  # the third accepted step of the first stage

    def test_start_never_improved_on_is_returned_itself(self):
        starts = [np.ones(3), np.zeros(3)]

        def scripted(x, eps):  # every step descends, and only the starts score 1
            return float(np.sum(x)), lambda: (np.ones_like(x), float(any(x is s for s in starts)))

        score, x = _descend(scripted, starts, OptimizerConfig(max_iters=3))
        assert score == 1.0 and x is starts[0]

    def test_quasi_newton_directions_beat_steepest_descent_on_a_narrow_valley(self):
        scale = 1e6 * np.array([1.0, 100.0])  # condition number 100, values well above the stall floor

        def valley(x, eps):
            return float(x @ (scale * x)), lambda: (2.0 * scale * x, 0.0)

        def steps_to_1e_8(retract):
            steps = _accepted(valley, np.ones(2), OptimizerConfig(), retract)
            return next(i + 1 for i, x in enumerate(steps) if np.linalg.norm(x) < 1e-8)

        # an identity retraction takes the manifold path, which stays steepest descent
        assert steps_to_1e_8(lambda x: x) == 844
        assert steps_to_1e_8(None) <= 6

    def test_direction_is_the_dense_bfgs_inverse_hessian_product(self):
        # gradient field A x of a convex quadratic, so every pair has s^T y = s^T A s > 0;
        # the value falls by far more than any Armijo bound at every candidate,
        # so each step 1 along d is accepted
        rng = np.random.default_rng(3)
        q, _ = np.linalg.qr(rng.standard_normal((6, 6)))
        a = q @ np.diag(np.geomspace(1.0, 30.0, 6)) @ q.T
        evaluated = []

        def scripted(x, eps):
            evaluated.append(x)
            return -1e9 * len(evaluated), lambda: (a @ x, 0.0)

        _descend(scripted, [rng.standard_normal(6)], OptimizerConfig(max_iters=7))
        xs = evaluated[:8]  # the first stage: its start and 7 accepted steps
        for k in range(1, 7):
            h = np.eye(6)
            pairs = [(s, a @ s) for s in np.diff(xs[: k + 1], axis=0)][-_LBFGS_PAIRS:]
            s, y = pairs[-1]
            h *= (s @ y) / (y @ y)
            for s, y in pairs:  # H <- V^T H V + rho s s^T, V = I - rho y s^T
                rho = 1.0 / (s @ y)
                v = np.eye(6) - rho * np.outer(y, s)
                h = v.T @ h @ v + rho * np.outer(s, s)
            np.testing.assert_allclose(xs[k + 1], xs[k] - h @ (a @ xs[k]), rtol=1e-12, atol=0)
        assert k > _LBFGS_PAIRS  # the memory window was full and slid

    @pytest.mark.parametrize(
        "later, candidate",
        [
            ([[0.5, 1.0]], [-3.6, -0.8]),  # s^T y = 0.5: the pair is kept, and step 1 goes along -H g1
            ([[2.0, 1.0]], [-4.0, -1.5]),  # s^T y = -1: no pair, so -g1 at the grown step 1.5
            ([[1.0, 0.0]], [-2.5, 0.0]),  # y = 0: no pair, so -g1 at the grown step 1.5
            # the kept pair above, then s^T y = -0.5: only the first pair shapes H
            ([[0.5, 1.0], [1.0, 0.0]], [-7.2, -1.6]),
        ],
        ids=["pair-kept", "negative-curvature", "zero-curvature", "negative-after-kept"],
    )
    def test_pair_is_kept_only_with_positive_curvature(self, later, candidate):
        # with every kept pair of positive curvature H is positive definite, so
        # only rounding could make -H g uphill; the pair rule is what falls back
        grads, evaluated = [np.array([1.0, 0.0]), *map(np.array, later)], []

        def scripted(x, eps):  # every candidate is accepted, with the scripted gradients
            evaluated.append(x)
            return -float(len(evaluated)), lambda: (grads[min(len(evaluated), len(grads)) - 1], 0.0)

        _descend(scripted, [np.zeros(2)], OptimizerConfig(max_iters=len(grads)))
        # the first step, of 1 along -g0 with no pair yet, goes to (-1, 0)
        np.testing.assert_array_equal(evaluated[1], [-1.0, 0.0])
        np.testing.assert_allclose(evaluated[len(grads)], candidate, rtol=0, atol=1e-14)

    def test_phase_search_evaluation_count(self, monkeypatch):
        calls = []

        def counted(th, eps):
            calls.append(th)
            return _phase_value_grad(th, eps)

        monkeypatch.setattr("grasspack.codebooks._phase_value_grad", counted)
        book = build_sparse_2M(3, 32, OptimizerConfig(seed=0))
        # steepest descent took 2789 evaluations to the same sqrt(3/2), Polak-Ribiere+ CG 1072
        assert len(calls) <= 600
        assert min_chordal_distance(book)[0] == pytest.approx(np.sqrt(1.5), abs=1e-9)

    def test_general_sparse_evaluation_count(self, monkeypatch):
        calls = []

        def counted(value_grad, starts, cfg):
            def counted_value_grad(x, eps):
                calls.append(x)
                return value_grad(x, eps)

            return _descend(counted_value_grad, starts, cfg)

        monkeypatch.setattr("grasspack.codebooks._descend", counted)
        book = build_general_sparse(4, 2, 4, 22, OptimizerConfig(seed=0))
        # Polak-Ribiere+ CG took 3527 evaluations to an MCD of 0.942450765133; keeping
        # the best iterate seen, not the best final one, raised the MCD reached
        assert len(calls) <= 1800
        assert min_chordal_distance(book)[0] >= 0.9426945938


class TestOptimizePhases:
    def test_single_instance_is_zero(self):
        for m in (2, 3, 5):
            (only,) = optimize_phases_2M(m, 1, OptimizerConfig())
            assert only.tolist() == [0.0] * m
        quarter = OptimizerConfig(phase_grid=QUARTER_GRID)
        assert optimize_phases_2M(3, 1, quarter).tolist() == [[0.0] * 3]

    def test_single_instance_on_a_grid_without_zero(self):
        cfg = OptimizerConfig(phase_grid=(np.pi / 4, 3 * np.pi / 4))
        assert build_sparse_2M(2, 3, cfg).meta["phases"] == [[np.pi / 4, np.pi / 4]]
        assert optimize_phases_2M(2, 1, cfg).tolist() == [[np.pi / 4, np.pi / 4]]

    def test_first_instance(self):
        assert optimize_phases_2M(2, 3, FAST)[0].tolist() == [0.0, 0.0]
        cfg = OptimizerConfig(phase_grid=QUARTER_GRID, seed=0)
        got = optimize_phases_2M(2, 3, cfg)
        order = list(itertools.product(cfg.phase_grid, repeat=2))
        idx = [order.index(tuple(a)) for a in got]
        assert got[0].tolist() == [-np.pi / 2, -np.pi / 2] and idx[0] == min(idx)

    def test_two_instances_reach_two(self):
        got = optimize_phases_2M(2, 2, FAST)
        assert phase_objective(got[0], got[1]) == pytest.approx(2.0, abs=1e-6)

    def test_quarter_grid_eight_instances(self):
        cfg = OptimizerConfig(phase_grid=QUARTER_GRID, seed=0)
        got = optimize_phases_2M(2, 8, cfg)
        vals = [
            phase_objective(a, b) for a, b in itertools.combinations(got, 2)
        ]
        assert min(vals) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "grid, m, ell",
        [
            (QUARTER_GRID, 2, 3),
            ((0.0, 1.0, 2.5), 2, 4),  # not cyclic, so no instance is pinned
            ((0.0, np.pi), 3, 4),
            (QUARTER_GRID, 2, 8),
        ],
        ids=["quarter-M2-L3", "noncyclic-M2-L4", "binary-M3-L4", "quarter-M2-L8"],
    )
    def test_discrete_matches_exhaustive_oracle(self, grid, m, ell):
        cfg = OptimizerConfig(phase_grid=grid, seed=0)
        got = optimize_phases_2M(m, ell, cfg)
        achieved = min(
            phase_objective(a, b) for a, b in itertools.combinations(got, 2)
        )
        points = list(itertools.product(grid, repeat=m))
        f = np.array([[phase_objective(a, b) for b in points] for a in points])
        best = max(
            min(f[i, j] for i, j in itertools.combinations(combo, 2))
            for combo in itertools.combinations(range(len(points)), ell)
        )
        assert achieved == pytest.approx(best, abs=1e-12)

    # a shift by grid steps maps a cyclic product grid onto itself and keeps every
    # phase difference, so pinning the first point keeps the unpinned search's clique
    @pytest.mark.parametrize("grid", [QUARTER_GRID, (np.pi / 3, np.pi, -np.pi / 3)], ids=["quarter", "shifted-thirds"])
    def test_pinned_search_returns_the_unpinned_bytes(self, grid, monkeypatch):
        cfg = OptimizerConfig(phase_grid=grid)
        pinned = [optimize_phases_2M(3, ell, cfg).tobytes() for ell in range(2, 21)]
        monkeypatch.setattr("grasspack.codebooks._is_cyclic_grid", lambda grid: False)
        assert [optimize_phases_2M(3, ell, cfg).tobytes() for ell in range(2, 21)] == pinned

    def test_invalid(self):
        with pytest.raises(InvalidArgument):
            optimize_phases_2M(1, 2, OptimizerConfig())
        with pytest.raises(InvalidArgument):
            optimize_phases_2M(2, 0, OptimizerConfig())
        with pytest.raises(InvalidArgument, match="17 instances"):  # 16 points on the quarter grid at M = 2
            optimize_phases_2M(2, 17, OptimizerConfig(phase_grid=QUARTER_GRID))


class TestClosedFormDistances:
    def test_cross_pattern_constant(self):
        # distinct perfect-matching patterns: distance sqrt(M/2) for any phases
        rng = np.random.default_rng(1)
        for m in (2, 3, 4):
            pats = matching_patterns(m)
            for _ in range(20):
                pa, pb = rng.choice(len(pats), size=2, replace=False)
                wa = pair_codeword(pats[pa], rng.uniform(-np.pi, np.pi, m))
                wb = pair_codeword(pats[pb], rng.uniform(-np.pi, np.pi, m))
                assert chordal_distance(wa, wb) == pytest.approx(np.sqrt(m / 2), abs=1e-12)

    def test_same_pattern_phase_law(self):
        rng = np.random.default_rng(2)
        for m in (2, 3, 4):
            pat = matching_patterns(m)[0]
            for _ in range(20):
                ta = rng.uniform(-np.pi, np.pi, m)
                tb = rng.uniform(-np.pi, np.pi, m)
                expected = np.sqrt(phase_objective(ta, tb))
                got = chordal_distance(pair_codeword(pat, ta), pair_codeword(pat, tb))
                assert got == pytest.approx(expected, abs=1e-10)


class TestBuildSparse2M:
    def test_three_words_all_cross(self):
        book = build_sparse_2M(2, 3, FAST)
        assert min_chordal_distance(book)[0] == pytest.approx(1.0, abs=1e-12)

    def test_size_22_uses_eight_instances(self):
        book = build_sparse_2M(2, 22, FAST)
        assert book.meta["instances_per_pattern"] == 8
        assert len(book) == 22

    def test_m4_size_24(self):
        book = build_sparse_2M(4, 24, FAST)
        assert book.T == 8 and len(book) == 24
        assert book.meta["instances_per_pattern"] == 4
        # codewords are laid out pattern-major, 4 instances for the first patterns
        cross = chordal_distance(book[0], book[4])
        assert cross == pytest.approx(np.sqrt(2.0), abs=1e-12)

    def test_mcd_is_min_of_cross_and_intra(self):
        book = build_sparse_2M(2, 8, FAST)
        words = book.codewords
        dists = [
            chordal_distance(a, b) for a, b in itertools.combinations(words, 2)
        ]
        assert min_chordal_distance(book)[0] == pytest.approx(min(dists), abs=1e-12)
        assert min(dists) <= np.sqrt(1.0) + 1e-12  # cross-pattern cap sqrt(M/2)

    def test_deterministic(self):
        b1 = build_sparse_2M(3, 11, FAST)
        b2 = build_sparse_2M(3, 11, FAST)
        assert np.array_equal(b1.stack(), b2.stack())

    def test_invalid(self):
        with pytest.raises(InvalidArgument):
            build_sparse_2M(2, 0, FAST)
        with pytest.raises(InvalidArgument):
            build_sparse_2M(1, 4, FAST)


@pytest.mark.parametrize(
    "fixture, build",
    [
        ("sparse2m_3_11_fast.json", lambda: build_sparse_2M(3, 11, FAST)),
        ("sparse_general_6_2_4_8_fast.json", lambda: build_general_sparse(6, 2, 4, 8, FAST)),
    ],
    ids=["sparse2m", "sparse-general"],
)
def test_sparse_descents_match_golden_books(fixture, build):
    golden = load_codebook(FIXTURES / fixture)
    np.testing.assert_allclose(build().stack(), golden.stack(), rtol=0, atol=1e-9)


def test_repinned_sparse2m_golden_keeps_its_mcd():
    # the MCD of the sparse2m golden book pinned before the conjugate-gradient phase search
    golden = load_codebook(FIXTURES / "sparse2m_3_11_fast.json")
    assert abs(min_chordal_distance(golden)[0] - 1.2247448713915894) <= 1e-12


def test_repinned_sparse_general_golden_keeps_its_mcd():
    # the MCD of the sparse-general golden book pinned before the L-BFGS phase search
    golden = load_codebook(FIXTURES / "sparse_general_6_2_4_8_fast.json")
    assert abs(min_chordal_distance(golden)[0] - 1.0000000000000002) <= 1e-12


class TestBuildGeneralSparse:
    def test_structural_contract_624(self):
        book = build_general_sparse(6, 2, 4, 8, FAST)
        for w in book.codewords:
            assert np.count_nonzero(w) == 4
            assert list(np.count_nonzero(w, axis=0)) == [2, 2]
            assert validate_stiefel(w, tol=1e-12)

    def test_pair_patterns_reduce_to_cross_case(self):
        book = build_general_sparse(4, 2, 4, 3, FAST)
        assert min_chordal_distance(book)[0] == pytest.approx(1.0, abs=1e-12)

    def test_layout_takes_matchings_then_uneven_patterns_then_wraps(self):
        order = [p.supports for p in _general_layout(8, enumerate_patterns(4, 2, 4))]
        assert order == [
            ((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)),
            ((1,), (2, 3, 4)), ((1, 2, 3), (4,)), ((1, 2, 4), (3,)), ((1, 3, 4), (2,)),
            ((1, 2), (3, 4)),
        ]

    def test_beats_expmap_on_6_2(self):
        sparse = build_general_sparse(6, 2, 4, 16, FAST)
        dense = build_expmap(6, 2, 16, FAST)
        assert min_chordal_distance(sparse)[0] > min_chordal_distance(dense)[0]

    @pytest.mark.parametrize("grid", [None, QUARTER_GRID], ids=["continuous", "quarter-grid"])
    def test_reported_mcd_is_the_books_mcd(self, grid):
        book = build_general_sparse(6, 2, 4, 8, OptimizerConfig(restarts=2, max_iters=120, phase_grid=grid))
        assert book.meta["mcd"] == min_chordal_distance(book)[0]

    def test_grid_mode_snaps_phases(self):
        cfg = OptimizerConfig(restarts=1, max_iters=60, seed=0, phase_grid=QUARTER_GRID)
        book = build_general_sparse(4, 2, 4, 6, cfg)
        angles = np.angle(book.stack()[book.stack() != 0])
        grid = np.array(QUARTER_GRID + (np.pi,))  # -pi and pi are the same point
        dist = np.min(np.abs(angles[:, None] - grid[None, :]), axis=1)
        assert np.all(dist < 1e-9)

    def test_invalid(self):
        with pytest.raises(InvalidArgument):
            build_general_sparse(4, 1, 2, 4, FAST)
        with pytest.raises(InvalidArgument):
            build_general_sparse(4, 2, 5, 4, FAST)


class TestBuildExpmap:
    def test_zero_block_is_truncated_identity(self):
        w = expmap_codeword(np.zeros((2, 2)))
        np.testing.assert_array_equal(w, np.eye(4, dtype=complex)[:, :2])

    def test_outputs_stiefel(self):
        book = build_expmap(4, 2, 16, FAST)
        for w in book.codewords:
            assert validate_stiefel(w, tol=1e-8)

    def test_below_sparse_design(self):
        dense = build_expmap(4, 2, 16, FAST)
        sparse = build_sparse_2M(2, 16, FAST)
        assert min_chordal_distance(dense)[0] < min_chordal_distance(sparse)[0]

    def test_no_duplicates(self):
        book = build_expmap(4, 2, 12, FAST)
        for a, b in itertools.combinations(book.codewords, 2):
            assert chordal_distance(a, b) >= 1e-6

    def test_deterministic(self):
        b1 = build_expmap(4, 2, 8, FAST)
        b2 = build_expmap(4, 2, 8, FAST)
        assert np.array_equal(b1.stack(), b2.stack())

    def test_alphabet_exhausted(self):
        with pytest.raises(SizeLimit):
            build_expmap(2, 1, 5, FAST)  # only 4 distinct QAM scalars exist

    def test_attempt_limit_ends_a_repeating_draw(self, monkeypatch):
        # a stream that repeats one QAM block gives one codeword and then only
        # duplicates, so the draw ends at its attempt limit, not in an endless loop
        class Repeating:
            def integers(self, low, high, size):
                return np.zeros(size, dtype=np.int64)

        monkeypatch.setattr(codebooks, "substream", lambda *ids: Repeating())
        with pytest.raises(SizeLimit, match="could not draw 2 distinct codewords"):
            build_expmap(4, 2, 2, FAST)


class TestReferenceTables:
    def test_nr_first_entry(self):
        nr = nr_codebook_4_2()
        np.testing.assert_array_equal(nr[0], np.eye(4, dtype=complex)[:, :2])

    def test_nr_index_15(self):
        expected = 0.5 * np.array([[1, 1], [1, 1], [1, -1], [1, -1]], dtype=complex)
        np.testing.assert_array_equal(nr_codebook_4_2()[14], expected)

    def test_all_entries_stiefel_at_1e12(self):
        for book in (nr_codebook_4_2(), proposed_codebook_4_2()):
            assert len(book) == 22
            for w in book.codewords:
                assert validate_stiefel(w, tol=1e-12)

    def test_proposed_index_7_and_22(self):
        prop = proposed_codebook_4_2()
        idx7 = np.array([[1, 0], [0, 1], [-1j, 0], [0, 1]], dtype=complex) / np.sqrt(2)
        np.testing.assert_array_equal(prop[6], idx7)
        idx22 = np.array([[1, 0], [0, 1], [0, 1j], [1, 0]], dtype=complex) / np.sqrt(2)
        np.testing.assert_array_equal(prop[21], idx22)

    def test_proposed_mcd_is_one(self):
        assert min_chordal_distance(proposed_codebook_4_2())[0] == pytest.approx(
            1.0, abs=1e-12
        )

    def test_tables_share_two_sparse_head(self):
        nr, prop = nr_codebook_4_2(), proposed_codebook_4_2()
        for i in range(6):
            np.testing.assert_array_equal(nr[i], prop[i])


class TestVariableAccounting:
    def test_phase_search_variable_count(self):
        for m, size in [(2, 22), (3, 10), (4, 24)]:
            ell = -(-size // (2 * m - 1))
            got = optimize_phases_2M(m, ell, OptimizerConfig(restarts=1, max_iters=10))
            touched = len(got) * m
            assert touched == real_variable_count("proposed2m", 2 * m, m, size)

    def test_manopt_variable_formula(self):
        assert real_variable_count("manopt", 4, 2, 22) == 2 * 22 * 2 * (4 - 2)


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        path = tmp_path / "prop.json"
        save_codebook(proposed_codebook_4_2(), path)
        loaded = load_codebook(path)
        assert np.array_equal(loaded.stack(), proposed_codebook_4_2().stack())
        assert loaded.meta["method"] == "prop42"

    def test_rewrite_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_codebook(nr_codebook_4_2(), p1)
        save_codebook(load_codebook(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_signed_zeros_and_subnormals_keep_their_bits(self, tmp_path):
        s = np.sqrt(0.5)
        re = np.array([[s, -0.0], [-0.0, -0.0], [-5e-324, -1.0], [2.5e-310, -0.0]])
        im = np.array([[-0.0, 0.0], [s, 5e-324], [0.0, -0.0], [-0.0, -2.2250738585072014e-308]])
        w = np.empty((4, 2), dtype=np.complex128)
        w.real, w.imag = re, im
        path = tmp_path / "edge.json"
        save_codebook(Codebook([w]), path)
        pairs = zip(re.ravel().tolist(), im.ravel().tolist())
        entries = ",".join(f"[{format(x, '.17g')},{format(y, '.17g')}]" for x, y in pairs)
        assert path.read_text(encoding="utf-8") == '{"T": 4, "M": 2, "codewords": [[%s]], "meta": {}}\n' % entries
        assert load_codebook(path).stack().tobytes() == w.tobytes()

    def test_numpy_integer_meta_keeps_the_bytes(self, tmp_path):
        cfg = OptimizerConfig(phase_grid=QUARTER_GRID)
        book = build_sparse_2M(np.int64(2), np.int32(8), cfg)
        assert type(book.meta["T"]) is np.int64  # written through _json_safe
        save_codebook(book, tmp_path / "numpy.json")
        save_codebook(build_sparse_2M(2, 8, cfg), tmp_path / "python.json")
        assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "python.json").read_bytes()

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ParseError):
            load_codebook(path)

    def test_non_stiefel_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        flat = [[1.0, 0.0]] * 8  # all-ones columns are not orthonormal
        doc = {"T": 4, "M": 2, "codewords": [flat], "meta": {}}
        import json

        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(NotStiefel):
            load_codebook(path)

    def test_wrong_entry_count(self, tmp_path):
        path = tmp_path / "bad.json"
        import json

        doc = {"T": 4, "M": 2, "codewords": [[[1.0, 0.0]] * 6], "meta": {}}
        path.write_text(json.dumps(doc), encoding="utf-8")
        with pytest.raises(DimensionMismatch):
            load_codebook(path)

    @pytest.mark.parametrize(
        "codewords",
        [5, [5], [[5, 6]], [[["a", 0.0]] * 8], [[[float("nan"), 0.0]] + [[0.0, 0.0]] * 7]],
        ids=["not-a-list", "entry-not-a-list", "entries-not-pairs", "non-numeric", "non-finite"],
    )
    def test_malformed_codewords_rejected(self, tmp_path, codewords):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"T": 4, "M": 2, "codewords": codewords}), encoding="utf-8")
        with pytest.raises(ParseError):
            load_codebook(path)

    @pytest.mark.parametrize(
        "data",
        [
            b"\xff\xfe\x00",
            b'{"T": 4, "M": 2, "codewords": [], "meta": 5}',
            b'{"T": 4, "M": 2, "codewords": [], "meta": [[1]]}',
            b'{"T": -1, "M": 0, "codewords": [[]]}',
            b'{"T": 2, "M": true, "codewords": [[[1, 0], [0, 0]]]}',
            b'{"T": 2, "M": 1, "codewords": [[[1' + b"0" * 400 + b', 0], [0, 0]]]}',
        ],
        ids=["not-utf8", "meta-int", "meta-list", "nonpositive-dims", "bool-dims", "huge-int"],
    )
    def test_malformed_file_raises_parse_error(self, tmp_path, data):
        path = tmp_path / "bad.json"
        path.write_bytes(data)
        with pytest.raises(ParseError):
            load_codebook(path)

    @settings(max_examples=100, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_fuzz_bytes_raise_only_package_errors(self, data):
        _load_or_package_error(data)

    @settings(max_examples=100, deadline=None)
    @given(doc=_JSON_DOCS)
    def test_fuzz_json_raises_only_package_errors(self, doc):
        _load_or_package_error(json.dumps(doc).encode())


def _load_or_package_error(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.json"
        path.write_bytes(data)
        try:
            load_codebook(path)
        except GrasspackError:
            pass
