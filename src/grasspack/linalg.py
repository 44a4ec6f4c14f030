"""Complex dense linear algebra and the matrix exponential.

Matrices and vectors are plain numpy arrays with dtype complex128. All
tolerances in this package assume double precision. Every function here is
pure and safe to call concurrently.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import InvalidArgument, SizeLimit

#: bytes one array sized by a request may take: a sweep's result array, or
#: the pairwise products of a design or a distance check
_RESULT_BYTES = 2**31


def as_cmatrix(a, name: str) -> np.ndarray:
    """``a`` as a 2-D complex128 array, or ``InvalidArgument`` naming the argument ``name``."""
    m = _as_array(a, name, np.complex128)
    if m.ndim != 2:
        raise InvalidArgument(f"{name} must be a 2-D array, got shape {m.shape}")
    return m


def fro_norm(a) -> float:
    """Frobenius norm sqrt(sum of squared entry magnitudes)."""
    return float(np.linalg.norm(np.asarray(a, dtype=np.complex128)))


def is_int(n) -> bool:
    """Whether ``n`` is a Python or numpy integer; a bool is not a count."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def is_real(x) -> bool:
    """Whether ``x`` is a real number, numpy scalars included; a bool is not one."""
    return isinstance(x, numbers.Real) and not isinstance(x, bool)


def as_real_array(a, name: str) -> np.ndarray:
    """``a`` as a float64 array, or ``InvalidArgument`` naming the argument ``name``."""
    return _as_array(a, name, np.float64)


def _as_array(a, name, dtype, copy=None):
    """``np.asarray(a, dtype, copy=copy)``, or ``InvalidArgument`` naming the
    argument ``name`` when an entry is not such a number (text, complex for
    float64, ragged)."""
    try:
        return np.asarray(a, dtype=dtype, copy=copy)
    except (TypeError, ValueError):
        raise InvalidArgument(f"{name} must hold {'real' if dtype is np.float64 else 'complex'} numbers only") from None


def _check_bytes(shape, dtype=np.float64) -> None:
    """``SizeLimit`` naming the shape when an array of it would exceed
    ``_RESULT_BYTES``; nothing is allocated."""
    nbytes = np.dtype(dtype).itemsize * math.prod(int(d) for d in shape)
    if nbytes > _RESULT_BYTES:
        raise SizeLimit(f"an array of shape {shape} needs {nbytes} bytes, over the budget of {_RESULT_BYTES}")


def _bounded_empty(shape, dtype=np.float64) -> np.ndarray:
    """``np.empty(shape, dtype)``, checked by ``_check_bytes`` before anything is allocated."""
    _check_bytes(shape, dtype)
    return np.empty(shape, dtype)


def is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


def matexp_skew_hermitian(a) -> np.ndarray:
    """Matrix exponential of a skew-Hermitian matrix; the result is unitary.

    Computed by eigendecomposition: A = j*B with B Hermitian, so
    exp(A) = V diag(exp(j*lambda)) V^H where B = V diag(lambda) V^H.
    """
    m = as_cmatrix(a, "a")
    if m.shape[0] != m.shape[1]:
        raise InvalidArgument(f"expected a square matrix, got shape {m.shape}")
    if fro_norm(m + m.conj().T) > 1e-10:
        raise InvalidArgument("A + A^H exceeds tolerance 1e-10")
    herm = -1j * m
    lam, vec = np.linalg.eigh(herm)
    return (vec * np.exp(1j * lam)) @ vec.conj().T


def _raise_qr_error(err, flag):
    raise np.linalg.LinAlgError("Incorrect argument found while performing QR factorization")


def _qr_positive(a: np.ndarray) -> np.ndarray:
    """Thin QR factor with the R diagonal made real nonnegative.

    Accepts a single matrix or a stack (..., T, M); no rank check. The sign
    convention makes Q unique, so orthonormal input returns unchanged up to roundoff.

    This is the manifold retraction of every manopt step, so it calls the two
    LAPACK gufuncs that ``np.linalg.qr`` runs on numpy 2.4 directly:
    ``qr_r_raw`` (``zgeqrf``, or ``dgeqrf`` for real input) factors a copy of
    ``a`` in place, and ``qr_reduced`` (``zungqr``/``dorgqr``) forms Q from
    it. The arithmetic, and so every bit of Q, is that of ``np.linalg.qr``,
    while its per-call wrapper (type resolution, a second cast and a ``triu``
    of R when only R's diagonal is read) is skipped. The caller's array is
    left untouched.
    """
    kind = "D" if np.iscomplexobj(a) else "d"
    a = np.array(a, dtype=kind)
    with np.errstate(call=_raise_qr_error, invalid="call", over="ignore", divide="ignore", under="ignore"):
        tau = _umath_linalg.qr_r_raw(a, signature=f"{kind}->{kind}")
        q = _umath_linalg.qr_reduced(a, tau, signature=f"{kind}{kind}->{kind}")
    d = np.diagonal(a, axis1=-2, axis2=-1)  # R's diagonal, left in the factored copy
    mag = np.abs(d)
    phase = np.where(mag > 0, d / np.where(mag > 0, mag, 1.0), 1.0)
    q *= phase.conj()[..., None, :]
    return q


def random_stiefel(t: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed T x M matrix with orthonormal columns."""
    if not (is_int(t) and is_int(m) and 1 <= m <= t):
        raise InvalidArgument(f"need integers 1 <= M <= T, got T={t!r}, M={m!r}")
    g = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
    return _qr_positive(g)
