"""Codebook constructors and optimizers.

Three families live here:

* the proposed sparse designs built on Schubert-cell sparsity patterns
  (a closed-form phase-only search when T = 2M, a parametric surrogate
  minimization otherwise),
* dense baselines: direct minimum-chordal-distance optimization on the
  product of Grassmannians (``optimize_manopt``) and the matrix-exponential
  map of QAM blocks (``build_expmap``),
* the two embedded (T, M) = (4, 2) reference tables (the normalized 5G NR
  rank-2 four-port codebook and the sparse counterpart), plus lossless JSON
  persistence.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NotStiefel, ParseError, SizeLimit
from .grassmann import (
    Codebook,
    _check_pairwise,
    _closest_pair,
    _gram_blocks,
    _gram_sq,
    _mcd_from_gram_sq,
    _triu,
    pairwise_chordal,
    pairwise_gram_sq,
    validate_stiefel,
)
from .linalg import _check_bytes, _qr_positive, as_real_array, is_int, matexp_skew_hermitian
from .rng import substream
from .schubert import _fill, _layout, enumerate_patterns, matching_patterns, pair_codeword

#: phase quantization used by the standards-compatible discrete designs
QUARTER_GRID = (-np.pi / 2, 0.0, np.pi / 2, np.pi)

_DUPLICATE_TOL = 1e-6


def _wrap_phase(theta):
    """Wrap angles into (-pi, pi]."""
    th = np.asarray(theta, dtype=np.float64)
    w = th - 2 * np.pi * np.round(th / (2 * np.pi))
    return np.where(w <= -np.pi, np.pi, w)


#: smoothing continuation of the log-sum-exp surrogate, strictly decreasing
EPS_SCHEDULE = (1.0, 0.3, 0.1, 0.03, 0.01)
_STEP_INIT = 1.0
_BACKTRACK = 0.5
_STALL_STEPS = 3
_LBFGS_PAIRS = 4


@dataclass(frozen=True)
class OptimizerConfig:
    """Knobs shared by all iterative constructors.

    ``max_iters`` caps the accepted steps per smoothing stage of the descent
    (see :func:`_descend`) and ``restarts`` the random initializations, whose
    substreams derive from ``seed``. Each optimizer keeps the first iterate
    of highest score seen over all restarts: the MCD, or the closest-pair
    separation in the phase search. ``phase_grid`` switches the phase
    searches to a discrete alphabet. The smoothing schedule
    (``EPS_SCHEDULE``) and the line-search constants are fixed.
    """

    max_iters: int = 300
    restarts: int = 4
    seed: int = 0
    phase_grid: tuple | None = None

    def __post_init__(self):
        if not all(is_int(v) and v >= 1 for v in (self.max_iters, self.restarts)):
            raise InvalidArgument("max_iters and restarts must be integers >= 1")
        grid = self.phase_grid
        if grid is not None:
            if not np.all(np.isfinite(as_real_array(grid, "phase_grid"))):
                raise InvalidArgument(f"phase_grid entries must be finite, got {grid}")
            grid = tuple(float(g) for g in _wrap_phase(tuple(grid)))
            if len(set(grid)) != len(grid) or not grid:
                raise InvalidArgument("phase_grid must be nonempty without repeats")
        object.__setattr__(self, "phase_grid", grid)


# ---------------------------------------------------------------------------
# smooth surrogate for the minimum chordal distance and its descent
# ---------------------------------------------------------------------------

def _lse_pairs(d, eps):
    """log sum_{i<j} exp(-d_ij / eps), stabilized, and a closure building its
    symmetric (K, K) softmax pair weights."""
    k = d.shape[0]
    flat = _triu(k)[2]
    z = -d.take(flat) / eps
    zmax = z.max()
    expz = np.exp(z - zmax)
    total = expz.sum()

    def weights():
        w = np.zeros((k, k))
        w.put(flat, expz / total)
        w += w.T
        return w

    return zmax + np.log(total), weights


def _surrogate_egrad(stack, eps):
    """Surrogate value of a stack, and a closure giving its Euclidean gradient
    and Gram norms ||W_i^H W_j||_F^2, all from one Gram product.

    The value needs only the Gram norms and the log-sum-exp; the closure
    finishes the gradient from them, so a rejected line-search candidate
    never pays for it. With F = [W_1 ... W_K] (T x KM), the Gram blocks
    W_i^H W_j are the (KM x KM) product F^H F, formed once by the kernel of
    :func:`pairwise_gram_sq` and summed in its pinned and tested order, so a
    numpy whose reduce order moves cannot move the books unnoticed.

    The Wirtinger gradient is -(1/eps) sum_j w_kj / d_kj * (W_k - W_j (W_j^H W_k)).
    Its term sum_j c_kj W_j (W_j^H W_k) is F times the Gram blocks scaled by
    the weights, a (T x KM)(KM x KM) product. That is about 16 K^2 M^2 T real
    flops per call for both products, and no (K, T, T) array is formed.
    """
    k, t, m = stack.shape
    f, gram = _gram_blocks(stack)
    s = _gram_sq(gram)
    d = np.sqrt(np.maximum(2.0 * (m - s), 0.0))
    value, weights = _lse_pairs(d, eps)

    def finish():
        coef = weights() / (eps * np.maximum(d, 1e-12))
        np.fill_diagonal(coef, 0.0)
        rowsum = coef.sum(axis=1)
        # coef is symmetric, so block (j, k) of the scaled Gram is c_kj W_j^H W_k
        term = (f @ (gram * coef[:, None, :, None]).reshape(k * m, k * m)).reshape(t, k, m)
        return term.transpose(1, 0, 2) - stack * rowsum[:, None, None], s

    return value, finish


def _lbfgs_product(grad, pairs):
    """H g by the L-BFGS two-loop recursion over ``pairs`` of (s, y, s^T y),
    oldest first, with H_0 = (s^T y / y^T y) I from the newest pair."""
    q, alphas = grad, []
    for s, y, sy in reversed(pairs):
        alphas.append(np.vdot(s, q).real / sy)
        q = q - alphas[-1] * y
    s, y, sy = pairs[-1]
    q = (sy / np.vdot(y, y).real) * q
    for (s, y, sy), a in zip(pairs, reversed(alphas)):
        q = q + (a - np.vdot(y, q).real / sy) * s
    return q


def _descend(value_grad, starts, cfg, retract=None):
    """Armijo descent through the smoothing schedule from each of ``starts``;
    returns (score, x) for the best iterate seen over all of them.

    ``value_grad(x, eps)`` returns (value, finish), and ``finish()`` returns
    (gradient g, score) from the intermediates the value left behind; the
    score is the quantity the design maximizes. Sufficient decrease needs
    only the value at a candidate, so ``finish`` runs once at each stage
    start and once per accepted step, never for a rejected candidate. Those
    iterates are the candidates for the result, and one replaces the best
    only when its score is strictly greater: the first iterate to reach the
    top score is kept, and a start never improved on is returned itself.

    Without ``retract`` x lives in a flat space (the phase searches) and the
    search direction is L-BFGS (Nocedal & Wright, Numerical Optimization,
    2006, sec. 7.2): d = -H g by the two-loop recursion over the last
    ``_LBFGS_PAIRS`` pairs s = x - x_old, y = g - g_old, with
    H_0 = (s^T y / y^T y) I from the newest pair. A pair is kept only when
    s^T y > 0, and the pairs are dropped at every stage start. The line
    search along d tries step 1 first. While no pair is kept, or when
    <g, d> >= 0, d is -g with the grown step below. With ``retract`` x lives
    on a manifold, where the pairs sit in other tangent spaces; d stays -g
    there, so the manifold descent is plain steepest descent.

    Per eps of ``EPS_SCHEDULE`` the step starts at 1 and halves until the
    candidate x + step * d (through ``retract`` if given) meets the Armijo
    test value(cand) <= value + 1e-4 * step * <g, d>; after each accepted
    step it grows 1.5x, capped at 100. A stage ends at the first of:

    * vanishing gradient: ||g||^2 < 1e-24;
    * failed line search: the step falls to 1e-14 with no candidate accepted;
    * ``cfg.max_iters`` accepted steps;
    * stall: ``_STALL_STEPS`` accepted steps in a row each lowering the value
      by less than 1e-13 (on a flat surrogate the Armijo bound rounds away).
    """
    best_score, best_x = -np.inf, None
    for x in starts:
        for eps in EPS_SCHEDULE:
            value, finish = value_grad(x, eps)
            step, stall, pairs, grad = _STEP_INIT, 0, [], None
            for accepted in range(cfg.max_iters + 1):
                g_old, (grad, score) = grad, finish()
                if score > best_score:
                    best_score, best_x = score, x
                # p = -d is held instead of d, and slope = <g, p> = -<g, d> > 0, so
                # the steepest step x - step * g and its Armijo bound keep their bits
                p = grad
                slope = gnorm2 = float((np.abs(grad) ** 2).sum())
                if retract is None and g_old is not None:  # L-BFGS, kept only while it descends
                    s, y = x - x_old, grad - g_old
                    if (sy := np.vdot(s, y).real) > 0:
                        pairs = [*pairs, (s, y, sy)][-_LBFGS_PAIRS:]
                    if pairs:
                        hg = _lbfgs_product(grad, pairs)
                        if (hg_slope := np.vdot(grad, hg).real) > 0:
                            p, slope, step = hg, hg_slope, 1.0
                if accepted == cfg.max_iters or gnorm2 < 1e-24 or stall >= _STALL_STEPS:
                    break
                while step > 1e-14:
                    cand = x - step * p
                    if retract is not None:
                        cand = retract(cand)
                    cand_value, finish = value_grad(cand, eps)
                    if cand_value <= value - 1e-4 * step * slope:
                        break
                    step *= _BACKTRACK
                else:  # no candidate accepted
                    break
                stall = stall + 1 if value - cand_value < 1e-13 else 0
                x_old, x, value = x, cand, cand_value
                step = min(step * 1.5, 100.0)
    return best_score, best_x


def _manopt_grad(stack, eps):
    """Surrogate value on the product manifold, and a closure giving the
    Riemannian gradient and the MCD, from the surrogate's Gram norms.

    The Euclidean gradient E_k is projected onto the tangent space at W_k as
    E_k - W_k (W_k^H E_k) (Edelman, Arias & Smith, SIAM J. Matrix Anal. Appl.
    20, 1998), without forming the T x T projector W_k W_k^H."""
    value, egrad_parts = _surrogate_egrad(stack, eps)

    def finish():
        egrad, s = egrad_parts()
        return egrad - stack @ (stack.conj().transpose(0, 2, 1) @ egrad), _mcd_from_gram_sq(stack, s)

    return value, finish


def optimize_manopt(t: int, m: int, size: int, cfg: OptimizerConfig) -> Codebook:
    """Riemannian descent of the smooth MCD surrogate on G(T, M)^size.

    Projected gradient with QR retraction and the epsilon continuation
    schedule from ``cfg.restarts`` random initializations. The returned
    codebook is the first iterate of highest MCD seen over all of them (see
    :func:`_descend`), so its MCD never falls below that of any
    initialization.
    """
    if not all(is_int(v) for v in (t, m, size)) or size < 2 or not 1 <= m < t:
        raise InvalidArgument(f"need integers size >= 2 and 1 <= M < T, got {(t, m, size)}")
    _check_pairwise(size, m)
    _check_bytes((size, t, m), np.complex128)  # the stack and its gradient

    def starts():
        for r in range(cfg.restarts):
            rng = substream(cfg.seed, 0xA11, r)
            yield _qr_positive(rng.standard_normal((size, t, m)) + 1j * rng.standard_normal((size, t, m)))

    mcd, stack = _descend(_manopt_grad, starts(), cfg, retract=_qr_positive)
    meta = {
        "method": "manopt",
        "T": t,
        "M": m,
        "size": size,
        "seed": cfg.seed,
        "restarts": cfg.restarts,
        "eps_schedule": list(EPS_SCHEDULE),
        "mcd": mcd,
    }
    return Codebook(stack, meta)


# ---------------------------------------------------------------------------
# phase-only search for the T = 2M family
# ---------------------------------------------------------------------------

def _phase_objective(th):
    """Pairwise matrix of sum_m sin^2((theta_i,m - theta_j,m)/2)."""
    diff = th[:, None, :] - th[None, :, :]
    return (np.sin(diff / 2.0) ** 2).sum(axis=-1), diff


def _phase_value_grad(th, eps):
    """Phase surrogate value, and a closure giving its gradient with the first
    (gauge) row pinned and the closest pair's separation."""
    f, diff = _phase_objective(th)
    value, weights = _lse_pairs(f, eps)

    def finish():
        grad = -(0.5 / eps) * np.einsum("ij,ijm->im", weights(), np.sin(diff))
        grad[0] = 0.0
        return grad, f.take(_triu(len(f))[2]).min()

    return value, finish


def _grid_points(grid, m):
    pts = np.array(list(itertools.product(grid, repeat=m)))
    return pts, _phase_objective(pts)[0]


def _is_cyclic_grid(grid):
    g = np.sort(_wrap_phase(np.asarray(grid)))
    gaps = np.diff(np.concatenate([g, [g[0] + 2 * np.pi]]))
    return bool(np.allclose(gaps, 2 * np.pi / g.size, atol=1e-12))


def _greedy_subset(f, ell, start):
    chosen = [start]
    mind = np.full(f.shape[0], np.inf)
    while len(chosen) < ell:
        mind = np.minimum(mind, f[chosen[-1]])
        mind[chosen] = -np.inf
        chosen.append(int(np.argmax(mind)))
    return chosen


def _clique_of_size(adj, ell, fix_zero):
    """Lexicographically first clique of size ell, as a sorted index list."""

    def extend(chosen, cand):
        if len(chosen) == ell:
            return chosen
        c = cand
        while c:
            low = c & -c
            v = low.bit_length() - 1
            c ^= low
            if len(chosen) + 1 + bin(c & adj[v]).count("1") < ell:
                continue
            got = extend(chosen + [v], c & adj[v])
            if got:
                return got
        return None

    return extend([0], adj[0]) if fix_zero else extend([], (1 << len(adj)) - 1)


def _optimize_phases_discrete(m, ell, cfg):
    grid = cfg.phase_grid
    pts, f = _grid_points(grid, m)
    n = pts.shape[0]
    if ell > n:
        raise InvalidArgument(f"{ell} instances need more than the {n} grid points")
    # exact maximin at every size: greedy seeding gives a lower bound, then a
    # clique search over descending distance thresholds tries to beat it
    best = _greedy_subset(f, ell, 0)
    best_val = _closest_pair(f[np.ix_(best, best)])[0]
    # only phase differences enter f, and a cyclic grid's product grid maps onto
    # itself under translation by grid steps, so some optimal clique holds pts[0]
    # when any does, and the unpinned search, trying point 0 first, returns it
    fix_zero = _is_cyclic_grid(grid)
    # distinct distances, largest first; np.unique would pull in numpy.ma
    values = sorted(set(np.round(f[np.triu_indices(n, 1)], 12).tolist()), reverse=True)
    for t in values:
        if t <= best_val + 1e-12:
            break
        mask = f >= t - 1e-9
        np.fill_diagonal(mask, False)
        adj = [int(sum(1 << int(j) for j in np.nonzero(row)[0])) for row in mask]
        got = _clique_of_size(adj, ell, fix_zero)
        if got:
            best, best_val = sorted(got), t
            break
    return pts[list(best)]


def optimize_phases_2M(m: int, ell: int, cfg: OptimizerConfig) -> np.ndarray:
    """Phase instances maximizing the minimum intra-pattern separation.

    Returns an (ell, M) array of phases wrapped into (-pi, pi]. A single
    instance is the all-zero gauge choice, snapped coordinate-wise to the
    grid phase nearest 0 on a ``phase_grid`` without 0. The first instance
    of the continuous search is all-zero; on a ``phase_grid`` it is the
    chosen point with the lowest index in ``itertools.product(grid,
    repeat=M)``: (-pi/2, -pi/2) on ``QUARTER_GRID`` with M = 2, L = 3.
    The continuous search keeps the first iterate of largest closest-pair
    separation over ``cfg.restarts`` random starts (see :func:`_descend`).
    Cross-pattern distances are phase-independent, so one optimized set
    serves every pattern.
    """
    if not (is_int(m) and is_int(ell)) or m < 2 or ell < 1:
        raise InvalidArgument(f"need integers M >= 2 and L >= 1, got M={m!r}, L={ell!r}")
    if ell == 1:
        grid = np.asarray(cfg.phase_grid or (0.0,))
        th = np.full((1, m), grid[np.argmin(np.abs(grid))])
    elif cfg.phase_grid is not None:
        n = len(cfg.phase_grid) ** m
        _check_bytes((n, n, m))  # the pairwise phase differences of every grid point
        th = _optimize_phases_discrete(m, ell, cfg)
    else:
        _check_bytes((ell, ell, m))  # the pairwise phase differences of the instances

        def starts():
            for r in range(cfg.restarts):
                th = substream(cfg.seed, 0xBEE, r).uniform(-np.pi, np.pi, size=(ell, m))
                th[0] = 0.0  # gauge: first instance pinned, distances use differences only
                yield th

        th = _descend(_phase_value_grad, starts(), cfg)[1]
    return _wrap_phase(th)


def build_sparse_2M(m: int, size: int, cfg: OptimizerConfig) -> Codebook:
    """Sparse codebook on G(2M, M) from the 1-factorization patterns.

    Each of the 2M - 1 patterns receives L = ceil(size / (2M - 1)) optimized
    phase instances (trailing patterns one fewer when size is not a
    multiple). Cross-pattern chordal distances are sqrt(M/2) by construction.
    """
    if not (is_int(m) and is_int(size)) or m < 2 or size < 1:
        raise InvalidArgument(f"need integers M >= 2 and size >= 1, got M={m!r}, size={size!r}")
    patterns = matching_patterns(m)
    npat = len(patterns)
    ell = -(-size // npat)
    n_full = size - (ell - 1) * npat  # this many leading patterns carry L instances
    phases = optimize_phases_2M(m, ell, cfg)
    words = []
    for pi, pat in enumerate(patterns):
        count = ell if pi < n_full else ell - 1
        for inst in range(count):
            words.append(pair_codeword(pat, phases[inst]))
    meta = {
        "method": "sparse2m",
        "T": 2 * m,
        "M": m,
        "size": size,
        "instances_per_pattern": ell,
        "seed": cfg.seed,
        "phase_grid": list(cfg.phase_grid) if cfg.phase_grid else None,
        "phases": phases.tolist(),
    }
    return Codebook(words, meta)


# ---------------------------------------------------------------------------
# general sparse construction (any T > M > 1)
# ---------------------------------------------------------------------------

def _general_layout(size, patterns):
    """``size`` patterns taken round-robin, most balanced column supports first."""
    order = sorted(
        patterns,
        key=lambda p: (max(len(u) for u in p.supports) - min(len(u) for u in p.supports), p.supports),
    )
    return [order[c % len(order)] for c in range(size)]


def build_general_sparse(t: int, m: int, s: int, size: int, cfg: OptimizerConfig) -> Codebook:
    """Sparse codebook for arbitrary T > M > 1 and sparsity level s.

    Patterns are taken round-robin, most balanced column supports first (so
    s = 2M with T = 2M takes the (2M - 1)!! perfect matchings before any
    pattern with uneven supports), and the per-entry phases are tuned with
    the same smoothed min-distance surrogate used by the dense optimizer
    from an all-zero start and ``cfg.restarts - 1`` random ones, keeping the
    first iterate of highest MCD (see :func:`_descend`), then snapped to any
    ``cfg.phase_grid``. Amplitudes stay equal within each column.
    """
    if not all(is_int(v) for v in (t, m, s, size)) or not (t > m > 1) or not m <= s <= t or size < 2:
        raise InvalidArgument(f"need integers T > M > 1, M <= s <= T, size >= 2, got {(t, m, s, size)}")
    _check_pairwise(size, m)
    layout = _layout(_general_layout(size, enumerate_patterns(t, m, s)))
    free = layout[4] != np.arange(s)  # pivot phases stay at the zero gauge

    def exact_mcd(phases):
        stack = _fill(layout, phases, t, m)
        return _mcd_from_gram_sq(stack, pairwise_gram_sq(stack))

    idx = layout[:3]

    def value_grad(phases, eps):
        stack = _fill(layout, phases, t, m)
        value, egrad_parts = _surrogate_egrad(stack, eps)

        def finish():
            # d/dtheta of F for W = amp * exp(j theta): -2 Im(conj(egrad) * W)
            egrad, gram_sq = egrad_parts()
            return -2.0 * np.imag(egrad[idx].conj() * stack[idx]) * free, _mcd_from_gram_sq(stack, gram_sq)

        return value, finish

    def starts():
        for r in range(cfg.restarts):
            rng = substream(cfg.seed, 0xF0B, r)
            yield rng.uniform(-np.pi, np.pi, size=(size, s)) * free if r else np.zeros((size, s))

    best_val, best_ph = _descend(value_grad, starts(), cfg)
    if cfg.phase_grid is not None:
        best_ph = _snap_to_grid(best_ph, cfg.phase_grid, free, exact_mcd)
        best_val = exact_mcd(best_ph)
    stack = _fill(layout, best_ph, t, m)
    meta = {
        "method": "sparse-general",
        "T": t,
        "M": m,
        "s": s,
        "size": size,
        "seed": cfg.seed,
        "phase_grid": list(cfg.phase_grid) if cfg.phase_grid else None,
        "mcd": best_val,
    }
    return Codebook(stack, meta)


def _snap_to_grid(phases, grid, free, exact_mcd):
    """Snap to the grid, then coordinate-ascent on the exact MCD."""
    g = np.asarray(grid)
    idx = np.argmin(np.abs(_wrap_phase(phases[..., None] - g)), axis=-1)
    ph = g[idx] * free
    best = exact_mcd(ph)
    improved = True
    passes = 0
    while improved and passes < 50:
        improved = False
        passes += 1
        for w, e in np.argwhere(free):
            cur = ph[w, e]
            for cand in g:
                if cand == cur:
                    continue
                ph[w, e] = cand
                val = exact_mcd(ph)
                if val > best + 1e-12:
                    best, cur, improved = val, cand, True
                else:
                    ph[w, e] = cur
    return ph


# ---------------------------------------------------------------------------
# exponential-map baseline
# ---------------------------------------------------------------------------

#: spread of the QAM blocks of :func:`build_expmap`, written to its meta as "scale"
_EXPMAP_SCALE = 0.5


def expmap_codeword(theta: np.ndarray) -> np.ndarray:
    """Point exp([[0, Theta], [-Theta^H, 0]]) I_{T,M} for an M x (T-M) block."""
    th = np.asarray(theta, dtype=np.complex128)
    m, rest = th.shape
    t = m + rest
    a = np.zeros((t, t), dtype=np.complex128)
    a[:m, m:] = th
    a[m:, :m] = -th.conj().T
    return matexp_skew_hermitian(a)[:, :m]


def build_expmap(t: int, m: int, size: int, cfg: OptimizerConfig) -> Codebook:
    """Exponential-map codebook with 4-QAM blocks, duplicate draws rejected."""
    if not all(is_int(v) for v in (t, m, size)) or size < 2 or not 1 <= m < t:
        raise InvalidArgument(f"need integers size >= 2 and 1 <= M < T, got {(t, m, size)}")
    capacity = 4 ** (m * (t - m))
    if size > capacity:
        raise SizeLimit(f"size {size} exceeds the {capacity} distinct QAM blocks")
    _check_pairwise(size, m)
    _check_bytes((t, t), np.complex128)  # the generator of expmap_codeword
    rng = substream(cfg.seed, 0xE1)
    words = np.empty((size, t, m), dtype=np.complex128)  # the accepted words, then the candidate
    count = 0
    attempts = 0
    limit = max(1000, 200 * size)
    while count < size:
        attempts += 1
        if attempts > limit:
            raise SizeLimit(f"could not draw {size} distinct codewords")
        q = rng.integers(0, 4, size=(m, t - m))
        re = 1.0 - 2.0 * (q % 2)
        im = 1.0 - 2.0 * (q // 2)
        theta = _EXPMAP_SCALE * (re + 1j * im) / np.sqrt(2.0)
        words[count] = expmap_codeword(theta)
        d = pairwise_chordal(words[: count + 1])
        if not np.any(d[-1, :-1] < _DUPLICATE_TOL):
            count += 1
    meta = {
        "method": "expmap",
        "T": t,
        "M": m,
        "size": size,
        "seed": cfg.seed,
        "scale": _EXPMAP_SCALE,
    }
    return Codebook(words, meta)


# ---------------------------------------------------------------------------
# embedded (4, 2) reference tables
# ---------------------------------------------------------------------------

_J = 1j

# normalized 5G NR four-port rank-2 table (22 entries); scale tag: 1, s=1/sqrt2, h=1/2
_NR_42 = [
    ("1", [[1, 0], [0, 1], [0, 0], [0, 0]]),
    ("1", [[1, 0], [0, 0], [0, 1], [0, 0]]),
    ("1", [[1, 0], [0, 0], [0, 0], [0, 1]]),
    ("1", [[0, 0], [1, 0], [0, 1], [0, 0]]),
    ("1", [[0, 0], [1, 0], [0, 0], [0, 1]]),
    ("1", [[0, 0], [0, 0], [1, 0], [0, 1]]),
    ("s", [[1, 0], [0, 1], [1, 0], [0, -_J]]),
    ("s", [[1, 0], [0, 1], [1, 0], [0, _J]]),
    ("s", [[1, 0], [0, 1], [-_J, 0], [0, 1]]),
    ("s", [[1, 0], [0, 1], [-_J, 0], [0, -1]]),
    ("s", [[1, 0], [0, 1], [-1, 0], [0, -_J]]),
    ("s", [[1, 0], [0, 1], [-1, 0], [0, _J]]),
    ("s", [[1, 0], [0, 1], [_J, 0], [0, 1]]),
    ("s", [[1, 0], [0, 1], [_J, 0], [0, -1]]),
    ("h", [[1, 1], [1, 1], [1, -1], [1, -1]]),
    ("h", [[1, 1], [1, 1], [_J, -_J], [_J, -_J]]),
    ("h", [[1, 1], [_J, _J], [1, -1], [_J, -_J]]),
    ("h", [[1, 1], [_J, _J], [_J, -_J], [-1, 1]]),
    ("h", [[1, 1], [-1, -1], [1, -1], [-1, 1]]),
    ("h", [[1, 1], [-1, -1], [_J, -_J], [-_J, _J]]),
    ("h", [[1, 1], [-_J, -_J], [1, -1], [-_J, _J]]),
    ("h", [[1, 1], [-_J, -_J], [_J, -_J], [1, -1]]),
]

# sparse counterpart: six 2-sparse selections plus sixteen matching-pattern entries
_PROP_42 = [
    ("1", [[1, 0], [0, 1], [0, 0], [0, 0]]),
    ("1", [[1, 0], [0, 0], [0, 1], [0, 0]]),
    ("1", [[1, 0], [0, 0], [0, 0], [0, 1]]),
    ("1", [[0, 0], [1, 0], [0, 1], [0, 0]]),
    ("1", [[0, 0], [1, 0], [0, 0], [0, 1]]),
    ("1", [[0, 0], [0, 0], [1, 0], [0, 1]]),
    ("s", [[1, 0], [0, 1], [-_J, 0], [0, 1]]),
    ("s", [[1, 0], [0, 1], [1, 0], [0, _J]]),
    ("s", [[1, 0], [0, 1], [1, 0], [0, -_J]]),
    ("s", [[1, 0], [0, 1], [-_J, 0], [0, -1]]),
    ("s", [[1, 0], [0, 1], [_J, 0], [0, -1]]),
    ("s", [[1, 0], [0, 1], [-1, 0], [0, _J]]),
    ("s", [[1, 0], [0, 1], [_J, 0], [0, 1]]),
    ("s", [[1, 0], [0, 1], [-1, 0], [0, -_J]]),
    ("s", [[1, 0], [-1, 0], [0, 1], [0, -1]]),
    ("s", [[1, 0], [_J, 0], [0, 1], [0, -_J]]),
    ("s", [[1, 0], [-_J, 0], [0, 1], [0, -_J]]),
    ("s", [[1, 0], [1, 0], [0, 1], [0, _J]]),
    ("s", [[1, 0], [0, 1], [0, -1], [-1, 0]]),
    ("s", [[1, 0], [0, 1], [0, -_J], [_J, 0]]),
    ("s", [[1, 0], [0, 1], [0, -_J], [-_J, 0]]),
    ("s", [[1, 0], [0, 1], [0, _J], [1, 0]]),
]

_SCALES = {"1": 1.0, "s": 1.0 / np.sqrt(2.0), "h": 0.5}


def _table_codebook(table, method):
    words = [np.array(rows, dtype=np.complex128) * _SCALES[tag] for tag, rows in table]
    return Codebook(words, {"method": method, "T": 4, "M": 2, "size": len(words)})


def nr_codebook_4_2() -> Codebook:
    """Normalized 5G NR four-port two-layer codebook (22 entries)."""
    return _table_codebook(_NR_42, "nr42")


def proposed_codebook_4_2() -> Codebook:
    """Sparse (4, 2) reference codebook (22 entries, MCD 1)."""
    return _table_codebook(_PROP_42, "prop42")


# ---------------------------------------------------------------------------
# JSON persistence
# ---------------------------------------------------------------------------

def _json_safe(obj):
    if isinstance(obj, (np.integer, np.floating, np.ndarray)):
        return obj.tolist()
    raise TypeError(f"meta value of type {type(obj)!r} is not JSON-serializable")


def save_codebook(b: Codebook, path) -> None:
    """Write a codebook as JSON with 17-significant-digit entries.

    Entries are row-major [re, im] pairs; field order and float formatting
    are canonical so identical codebooks produce identical bytes. A meta
    that json cannot write raises ``InvalidArgument`` before the file opens.
    """
    try:
        meta = json.dumps(b.meta, sort_keys=True, default=_json_safe)
    except (TypeError, ValueError) as exc:  # a value or key json cannot write, or a cycle
        raise InvalidArgument(f"codebook meta is not JSON-serializable: {exc}") from None
    record = "[%s]" % ",".join(["[%.17g,%.17g]"] * (b.T * b.M))
    # each codeword's float64 view holds its entries as re, im in row-major order
    words = (record % tuple(w.reshape(-1).tolist()) for w in np.ascontiguousarray(b.codewords).view(np.float64))
    text = '{"T": %d, "M": %d, "codewords": [%s], "meta": %s}\n' % (b.T, b.M, ",".join(words), meta)
    Path(path).write_text(text, encoding="utf-8")


def load_codebook(path) -> Codebook:
    """Read a codebook written by :func:`save_codebook`, validating shapes
    and Stiefel membership at tolerance 1e-8."""
    try:
        # save_codebook writes -0.0 as "-0", which json alone reads as the integer 0
        doc = json.loads(Path(path).read_text(encoding="utf-8"), parse_int=lambda s: -0.0 if s == "-0" else int(s))
    except ValueError as exc:  # bad JSON or UTF-8, or an integer over json's digit limit
        raise ParseError(f"{path}: {exc}") from exc
    if not isinstance(doc, dict) or not {"T", "M", "codewords"} <= set(doc):
        raise ParseError(f"{path}: missing required fields")
    t, m = doc["T"], doc["M"]
    if type(t) is not int or type(m) is not int or t < 1 or m < 1:
        raise ParseError(f"{path}: T and M must be positive integers")
    meta = doc.get("meta") or {}
    if not isinstance(meta, dict):
        raise ParseError(f"{path}: meta must be a JSON object")
    if not isinstance(doc["codewords"], list):
        raise ParseError(f"{path}: codewords must be a list")
    words = []
    for i, flat in enumerate(doc["codewords"]):
        if not isinstance(flat, list) or not all(
            isinstance(pair, list) and all(type(v) in (int, float) for v in pair) for pair in flat
        ):
            raise ParseError(f"{path}: codeword {i + 1} must be a list of [re, im] number pairs")
        if len(flat) != t * m or any(len(pair) != 2 for pair in flat):
            raise DimensionMismatch(f"codeword {i + 1} does not hold {t}x{m} entries")
        try:
            arr = np.array(flat, dtype=np.float64).view(np.complex128).reshape(t, m)
        except OverflowError:
            raise ParseError(f"{path}: codeword {i + 1} has an entry too large for a double") from None
        if not np.all(np.isfinite(arr)):
            raise ParseError(f"{path}: codeword {i + 1} has a non-finite entry")
        if not validate_stiefel(arr):
            raise NotStiefel(f"codeword {i + 1} fails orthonormality at 1e-8")
        words.append(arr)
    return Codebook(words, meta)
