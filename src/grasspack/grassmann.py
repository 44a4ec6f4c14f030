"""Grassmann-manifold geometry for precoding codebooks.

Points on G(T, M) are represented by T x M matrices with orthonormal columns
(Stiefel representatives). Two representatives are the same Grassmann point
iff they span the same column space, i.e. have equal projectors W W^H.

Every chordal distance and minimum chordal distance (MCD) in the package
comes from one kernel. :func:`pairwise_gram_sq` forms the Gram norms
s_ij = ||W_i^H W_j||_F^2 of a (K, T, M) stack with one (KM x T)(T x KM)
matrix product and a summation whose order is pinned and tested (see
there), and :func:`pairwise_chordal` turns them into
d_ij = sqrt(max(0, M - s_ij)). A roundoff of a few ulps of M in s_ij becomes
an error of about M eps / d_ij in d_ij, which grows to 1e-8 as the pair
coincides. So pairs with M - s_ij < 1e-8, that is d_ij < 1e-4, are recomputed
from the projectors P = W W^H as ||P_i - P_j||_F / sqrt(2): exactly zero for
identical codewords and within a few ulps of the projector form. Above that
guard the square-root form stays within about 2e-11 of the projector form
(tested to 1e-10; a guard at 1e-10 let the error reach 1.4e-10 at d = 1e-5).
The smooth MCD surrogate in ``codebooks`` takes the same Gram product (the
private ``_gram_blocks``) and sums it in the same pinned order (``_gram_sq``),
then reuses the Gram blocks for its gradient; it keeps its distance unguarded, since it must stay
differentiable.
:func:`projector_distance` is independent of this kernel and serves as its
oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, NotStiefel
from .linalg import _as_array, _check_bytes, as_cmatrix, fro_norm, is_int

STIEFEL_TOL = 1e-8
#: pairs with M - s_ij below this get their chordal distance from the projectors
_GUARD = 1e-8


@dataclass(frozen=True, eq=False)
class Codebook:
    """Codewords sharing (T, M) as one read-only (K, T, M) array, plus provenance.

    ``codewords`` is given as such an array or as a sequence of T x M
    matrices; the constructor copies it to complex128 and checks shape and
    finiteness once. Orthonormality is a numerical property checked by
    :func:`validate_stiefel` and enforced by the distance operations.
    Equality and hashing are by identity: a book equals only itself, since
    comparing arrays has no single truth value.
    """

    codewords: np.ndarray
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        words = self.codewords
        if not isinstance(self.meta, dict):
            raise InvalidArgument(f"meta must be a dict, got {type(self.meta).__name__}")
        if not isinstance(words, np.ndarray):
            words = [as_cmatrix(w, "codewords") for w in words]
            for i, w in enumerate(words):
                if w.shape != words[0].shape:
                    raise DimensionMismatch(f"codeword {i + 1} has shape {w.shape}, expected {words[0].shape}")
        stack = _as_array(words, "codewords", np.complex128, copy=True)
        if stack.ndim and stack.shape[0] == 0:
            raise InvalidArgument("codebook must contain at least one codeword")
        if stack.ndim != 3:
            raise InvalidArgument(f"expected a (K, T, M) stack of codewords, got shape {stack.shape}")
        t, m = stack.shape[1:]
        if not 1 <= m < t:
            raise DimensionMismatch(f"need 1 <= M < T, got T={t}, M={m}")
        if not np.all(np.isfinite(stack)):
            raise InvalidArgument("codeword entries must be finite")
        stack.setflags(write=False)
        object.__setattr__(self, "codewords", stack)
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def T(self) -> int:
        return self.codewords.shape[1]

    @property
    def M(self) -> int:
        return self.codewords.shape[2]

    def __len__(self) -> int:
        return self.codewords.shape[0]

    def __getitem__(self, i):
        return self.codewords[i]

    def stack(self) -> np.ndarray:
        """All codewords: the book's own read-only (size, T, M) array, not a copy."""
        return self.codewords

    def subset(self, indices) -> "Codebook":
        """New codebook from 1-based codeword indices, order preserved; the
        meta is copied and records ``subset_indices``."""
        indices = list(indices)
        bad = [i for i in indices if not (is_int(i) and 1 <= i <= len(self))]
        if bad:
            raise InvalidArgument(f"codeword indices must be integers in 1..{len(self)}, got {bad}")
        meta = dict(self.meta)
        meta["subset_indices"] = [int(i) for i in indices]
        return Codebook(self.codewords[np.array(indices, dtype=int) - 1], meta)


def validate_stiefel(w, tol: float = STIEFEL_TOL) -> bool:
    """True iff ||W^H W - I|| <= tol in Frobenius norm."""
    m = as_cmatrix(w, "w")
    gram = m.conj().T @ m
    return fro_norm(gram - np.eye(m.shape[1])) <= tol


def _check_stiefel(*words):
    for w in words:
        if not validate_stiefel(w):
            raise NotStiefel("codeword is not orthonormal at tolerance 1e-8")


def _check_pair(wi, wj):
    a, b = as_cmatrix(wi, "wi"), as_cmatrix(wj, "wj")
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return a, b


def chordal_distance(wi, wj) -> float:
    """Chordal distance sqrt(M - ||Wi^H Wj||_F^2) between two subspaces.

    The pair goes through :func:`pairwise_chordal`, so nearly coincident
    subspaces are measured through the projector difference. Both arguments
    must be Stiefel-valid at the default tolerance.
    """
    a, b = _check_pair(wi, wj)
    _check_stiefel(a, b)
    if a.tobytes() > b.tobytes():
        a, b = b, a  # canonical orientation: d(A, B) == d(B, A) bitwise
    return float(pairwise_chordal(np.stack((a, b)))[0, 1])


def projector_distance(wi, wj) -> float:
    """Frobenius distance ||Wi Wi^H - Wj Wj^H|| between the projectors.

    Equals sqrt(2) times the chordal distance; kept as an independent oracle
    and as the raw objective term of the smooth MCD surrogate.
    """
    a, b = _check_pair(wi, wj)
    return fro_norm(a @ a.conj().T - b @ b.conj().T)


def pairwise_gram_sq(stack: np.ndarray) -> np.ndarray:
    """Matrix of ||Wi^H Wj||_F^2 for a (size, T, M) stack.

    All Gram blocks Wi^H Wj come from one (KM x T)(T x KM) matrix product.
    The squared moduli are summed with explicit slice adds, over the column
    of Wj first and then over the column of Wi, each left to right. For
    M <= 7 that is the order of numpy 2.4's
    ``np.sum(np.abs(gram) ** 2, axis=(1, 3))``, bit for bit, at a fraction of
    its cost; a test pins the equality, so a numpy whose reduce order moves
    fails it. From M = 8 numpy's reduce switches to pairwise blocks, which
    this sum does not follow.
    """
    return _gram_sq(_gram_blocks(stack)[1])


def _gram_blocks(stack):
    """The codewords side by side as F = [W_1 ... W_K] (T x KM), and their
    Gram blocks Wi^H Wj as F^H F reshaped to (K, M, K, M). This one product
    fixes the bits of every Gram norm, here and in the surrogate."""
    k, t, m = stack.shape
    f = stack.transpose(1, 0, 2).reshape(t, k * m)
    return f, (f.conj().T @ f).reshape(k, m, k, m)


def _gram_sq(gram):
    """||Wi^H Wj||_F^2 from the (K, M, K, M) Gram blocks Wi^H Wj, in the
    summation order pinned by :func:`pairwise_gram_sq`."""
    m = gram.shape[1]
    sq = np.abs(gram)
    sq *= sq
    if m == 1:
        return sq[:, 0, :, 0].copy()
    rows = np.add(sq[..., 0], sq[..., 1])
    for j in range(2, m):
        rows += sq[..., j]
    s = np.add(rows[:, 0], rows[:, 1])
    for i in range(2, m):
        s += rows[:, i]
    return s


def _check_pairwise(size, m):
    """``SizeLimit`` unless the (size M x size M) complex Gram product that
    :func:`pairwise_gram_sq` forms for ``size`` codewords fits the byte budget."""
    _check_bytes((size * m, size * m), np.complex128)


def _chordal_from_gram_sq(stack, s):
    """Chordal distances of a stack from its Gram norms ``s``, guarded near coincidence."""
    r = stack.shape[2] - s
    np.fill_diagonal(r, np.inf)  # keeps each codeword's own pair out of the guard
    d = np.sqrt(np.maximum(r, 0.0))
    np.fill_diagonal(d, 0.0)
    i, j = np.nonzero(r < _GUARD)
    if i.size:
        wi, wj = stack[i], stack[j]
        diff = wi @ wi.conj().transpose(0, 2, 1) - wj @ wj.conj().transpose(0, 2, 1)
        d[i, j] = np.linalg.norm(diff, axis=(1, 2)) / np.sqrt(2.0)
    return d


def _mcd_from_gram_sq(stack, s):
    """Minimum chordal distance of a stack from its Gram norms ``s``: the
    bits of ``_closest_pair(_chordal_from_gram_sq(stack, s))[0]``.

    With no pair under the guard, that minimum is sqrt(M - max s_ij) over
    i < j, since M - x and the square root are monotone and correctly
    rounded; only a pair under the guard needs the distance matrix."""
    r = stack.shape[2] - s.take(_triu(s.shape[0])[2]).max()
    if r >= _GUARD:
        return math.sqrt(r)
    return _closest_pair(_chordal_from_gram_sq(stack, s))[0]


def pairwise_chordal(stack: np.ndarray) -> np.ndarray:
    """Matrix of chordal distances for a (size, T, M) stack."""
    return _chordal_from_gram_sq(stack, pairwise_gram_sq(stack))


@functools.lru_cache(maxsize=16)
def _triu(k):
    """Read-only strict upper-triangle indices (rows, columns, C-order flat
    positions) of a k x k matrix, built once per k. ``take`` and ``put`` at
    the flat positions visit the same entries in the same order as indexing
    with the row and column arrays, at a fraction of the cost."""
    iu, ju = np.triu_indices(k, 1)
    out = (iu, ju, iu * k + ju)
    for a in out:
        a.flags.writeable = False
    return out


def _closest_pair(d):
    """Minimum of a distance matrix over i < j, with the lexicographically first
    1-based pair within 1e-12 of it."""
    iu, ju, flat = _triu(d.shape[0])
    vals = d.take(flat)
    dmin = float(vals.min())
    hit = int(np.argmax(vals <= dmin + 1e-12))
    return dmin, (int(iu[hit]) + 1, int(ju[hit]) + 1)


def min_chordal_distance(b: Codebook):
    """Exhaustive minimum pairwise chordal distance of a codebook.

    Returns (value, (i, j)) with 1-based indices; the pair is the
    lexicographically smallest one within 1e-12 of the minimum. Every
    codeword must be Stiefel-valid at the default tolerance.
    """
    if len(b) < 2:
        raise InvalidArgument("need at least two codewords for a distance")
    _check_pairwise(len(b), b.M)
    _check_stiefel(*b.codewords)
    return _closest_pair(pairwise_chordal(b.stack()))
