"""Grassmann-manifold geometry for precoding codebooks.

Points on G(T, M) are represented by T x M matrices with orthonormal columns
(Stiefel representatives). Two representatives are the same Grassmann point
iff they span the same column space, i.e. have equal projectors W W^H.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidRange, NotStiefel, TooFewCodewords
from .linalg import as_cmatrix, fro_norm

STIEFEL_TOL = 1e-8


@dataclass(frozen=True)
class Codeword:
    """A T x M Stiefel representative of a point on G(T, M).

    The constructor checks shape and finiteness only; orthonormality is a
    numerical property checked by :func:`validate_stiefel` and enforced by
    the distance operations.
    """

    matrix: np.ndarray

    def __post_init__(self):
        m = as_cmatrix(self.matrix).copy()
        t, k = m.shape
        if not 1 <= k < t:
            raise DimensionMismatch(f"need 1 <= M < T, got T={t}, M={k}")
        if not np.all(np.isfinite(m)):
            raise InvalidArgument("codeword entries must be finite")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def T(self) -> int:
        return self.matrix.shape[0]

    @property
    def M(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True)
class Codebook:
    """Ordered collection of codewords sharing (T, M), plus provenance."""

    codewords: tuple
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        words = tuple(
            w if isinstance(w, Codeword) else Codeword(w) for w in self.codewords
        )
        if not words:
            raise TooFewCodewords("codebook must contain at least one codeword")
        t, m = words[0].T, words[0].M
        for i, w in enumerate(words):
            if (w.T, w.M) != (t, m):
                raise DimensionMismatch(
                    f"codeword {i + 1} has shape {(w.T, w.M)}, expected {(t, m)}"
                )
        object.__setattr__(self, "codewords", words)
        object.__setattr__(self, "meta", dict(self.meta))

    @property
    def T(self) -> int:
        return self.codewords[0].T

    @property
    def M(self) -> int:
        return self.codewords[0].M

    def __len__(self) -> int:
        return len(self.codewords)

    def __getitem__(self, i):
        return self.codewords[i]

    def stack(self) -> np.ndarray:
        """All codewords as a (size, T, M) array."""
        return np.stack([w.matrix for w in self.codewords])

    def subset(self, indices, meta=None) -> "Codebook":
        """New codebook from 1-based codeword indices, order preserved."""
        indices = list(indices)
        bad = [i for i in indices if not 1 <= i <= len(self.codewords)]
        if bad:
            raise InvalidRange(f"codeword indices must lie in 1..{len(self.codewords)}, got {bad}")
        words = tuple(self.codewords[i - 1] for i in indices)
        new_meta = dict(self.meta) if meta is None else dict(meta)
        new_meta["subset_indices"] = [int(i) for i in indices]
        return Codebook(words, new_meta)


def _mat(w) -> np.ndarray:
    return w.matrix if isinstance(w, Codeword) else as_cmatrix(w)


def validate_stiefel(w, tol: float = STIEFEL_TOL) -> bool:
    """True iff ||W^H W - I|| <= tol in Frobenius norm."""
    m = _mat(w)
    gram = m.conj().T @ m
    return fro_norm(gram - np.eye(m.shape[1])) <= tol


def _check_pair(wi, wj):
    a, b = _mat(wi), _mat(wj)
    if a.shape != b.shape:
        raise DimensionMismatch(f"shapes {a.shape} and {b.shape} differ")
    return a, b


def chordal_distance(wi, wj) -> float:
    """Chordal distance sqrt(M - ||Wi^H Wj||_F^2) between two subspaces.

    The radicand is clamped at zero so roundoff cannot produce NaN, and
    nearly coincident pairs are measured through the projector difference,
    which stays accurate where the analytic form cancels. Both arguments
    must be Stiefel-valid at the default tolerance.
    """
    a, b = _check_pair(wi, wj)
    for w in (a, b):
        if not validate_stiefel(w):
            raise NotStiefel("codeword is not orthonormal at tolerance 1e-8")
    if a.tobytes() > b.tobytes():
        a, b = b, a  # canonical orientation: d(A, B) == d(B, A) bitwise
    m = a.shape[1]
    s = float(np.sum(np.abs(a.conj().T @ b) ** 2))
    d2 = max(0.0, m - s)
    if d2 < 1e-10:
        # near-coincident subspaces: sqrt(M - s) loses half the digits to
        # cancellation, the projector difference does not
        return projector_distance(a, b) / np.sqrt(2.0)
    return float(np.sqrt(d2))


def projector_distance(wi, wj) -> float:
    """Frobenius distance ||Wi Wi^H - Wj Wj^H|| between the projectors.

    Equals sqrt(2) times the chordal distance; kept as an independent oracle
    and as the raw objective term of the smooth MCD surrogate.
    """
    a, b = _check_pair(wi, wj)
    return fro_norm(a @ a.conj().T - b @ b.conj().T)


def subspace_equal(wi, wj, tol: float = 1e-9) -> bool:
    """True iff the two codewords span the same subspace (projector test)."""
    a, b = _check_pair(wi, wj)
    return projector_distance(a, b) <= tol


def pairwise_gram_sq(stack: np.ndarray) -> np.ndarray:
    """Matrix of ||Wi^H Wj||_F^2 for a (size, T, M) stack."""
    g = np.einsum("itm,jtn->ijmn", stack.conj(), stack)
    return np.sum(np.abs(g) ** 2, axis=(-2, -1))


def pairwise_chordal(stack: np.ndarray) -> np.ndarray:
    """Matrix of chordal distances for a (size, T, M) stack."""
    m = stack.shape[2]
    return np.sqrt(np.clip(m - pairwise_gram_sq(stack), 0.0, None))


def min_chordal_distance(b: Codebook):
    """Exhaustive minimum pairwise chordal distance of a codebook.

    Returns (value, (i, j)) with 1-based indices; the pair is the
    lexicographically smallest one within 1e-12 of the minimum.
    """
    if len(b) < 2:
        raise TooFewCodewords("need at least two codewords for a distance")
    d = pairwise_chordal(b.stack())
    n = len(b)
    iu, ju = np.triu_indices(n, k=1)
    vals = d[iu, ju]
    dmin = float(vals.min())
    hit = np.nonzero(vals <= dmin + 1e-12)[0][0]
    return dmin, (int(iu[hit]) + 1, int(ju[hit]) + 1)
