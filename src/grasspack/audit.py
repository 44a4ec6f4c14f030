"""Analytic complexity accounting for dense versus row-sparse precoding.

Counts are in complex multiplications (one complex multiply = one unit) and
stored scalars/records. ``effective_gram`` returns the multiplies it actually
executed next to the Gram matrix, which validates the Gram-path formulas.
``complexity_report`` gathers every count of one scenario in a plain dict,
which ``grasspack audit`` writes as JSON.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DimensionMismatch, InvalidArgument
from .linalg import as_cmatrix, is_int


def _check_dims(t, m, *counts):
    if not all(is_int(d) for d in (t, m, *counts)) or not 1 <= m < t or any(d < 1 for d in counts):
        raise InvalidArgument(f"need integers T, M and counts with 1 <= M < T and counts >= 1, got {(t, m, *counts)}")


def gram_mult_count(t: int, m: int, n: int, sparse: bool) -> int:
    """Complex multiplies for the Gram matrix (HW)^H (HW).

    Dense: N*T*M for HW plus N*M^2 for the Gram product; with one nonzero
    per precoder row the HW stage reduces to N*T.
    """
    _check_dims(t, m, n)
    hw = n * t if sparse else n * t * m
    return hw + n * m * m


def effective_gram(h, w):
    """Gram matrix (HW)^H (HW) and the complex multiplies executed for it.

    Codewords whose rows each carry at most one nonzero entry are multiplied
    along the sparse path (a scaled column gather), the others densely. The
    path follows from ``w`` alone, and the count is the work actually done:
    N per nonzero row of ``w`` on the sparse path, N*T*M densely, plus N*M^2
    for the Gram product.
    """
    hm, wm = as_cmatrix(h, "h"), as_cmatrix(w, "w")
    if hm.shape[1] != wm.shape[0]:
        raise DimensionMismatch(f"channel {hm.shape} incompatible with codeword {wm.shape}")
    n, t = hm.shape
    m = wm.shape[1]
    nz_rows = np.count_nonzero(wm, axis=1)
    if np.all(nz_rows <= 1):
        y = np.zeros((n, m), dtype=np.complex128)
        for ti in np.nonzero(nz_rows)[0]:
            mi = int(np.nonzero(wm[ti])[0][0])
            y[:, mi] += hm[:, ti] * wm[ti, mi]
        mults = n * int(np.count_nonzero(nz_rows))
    else:
        y = hm @ wm
        mults = n * t * m
    return y.conj().T @ y, mults + n * m * m


def precode_mult_count(t: int, m: int, sparse: bool) -> int:
    """Complex multiplies to apply the precoder to one symbol vector."""
    _check_dims(t, m)
    return t if sparse else m * t


def storage_count(t: int, m: int, size: int, sparse: bool) -> int:
    """Stored scalars for a codebook: dense complex entries, or one
    (value, column-index) record per row in the ELLPACK-style layout."""
    _check_dims(t, m)
    if not is_int(size) or size < 0:
        raise InvalidArgument(f"size must be an integer >= 0, got {size!r}")
    return size * t if sparse else size * t * m


def real_variable_count(method: str, t: int, m: int, size: int) -> int:
    """Free real scalars each design method optimizes for a codebook."""
    _check_dims(t, m)
    if not is_int(size) or size < 0:
        raise InvalidArgument(f"size must be an integer >= 0, got {size!r}")
    name = method.lower()
    if name == "manopt":
        return 2 * size * m * (t - m)
    if name == "proposed2m":
        if t != 2 * m:
            raise InvalidArgument(f"proposed2m requires T = 2M, got T={t}, M={m}")
        return math.ceil(size / (2 * m - 1)) * m
    raise InvalidArgument(f"unknown method {method!r}")


def complexity_report(t: int, m: int, n: int, size: int) -> dict:
    """Every count for one scenario as a JSON-ready dict (proposed2m only when T = 2M, else None)."""
    proposed = real_variable_count("proposed2m", t, m, size) if t == 2 * m else None

    def both(count, *dims):
        return {"dense": count(*dims, sparse=False), "sparse": count(*dims, sparse=True)}

    return {
        "T": t,
        "M": m,
        "N": n,
        "size": size,
        "gram_mults": both(gram_mult_count, t, m, n),
        "precode_mults": both(precode_mult_count, t, m),
        "storage": both(storage_count, t, m, size),
        "real_variables": {"manopt": real_variable_count("manopt", t, m, size), "proposed2m": proposed},
    }
