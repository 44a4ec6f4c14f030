"""Analytic complexity accounting for dense versus row-sparse precoding.

Counts are in complex multiplications (one complex multiply = one unit) and
stored scalars/records; the instrumented counter in ``linksim.effective_gram``
validates the Gram-path formulas against actually executed multiplies.
``complexity_report`` gathers every count of one scenario in a plain dict,
which ``grasspack audit`` writes as JSON.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidArgument
from .linalg import is_int


@dataclass
class MultCounter:
    """Per-invocation accumulator of executed complex multiplications."""

    count: int = 0

    def add(self, n: int):
        self.count += int(n)


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


def measured_mult_count(counter) -> int:
    """Multiplies recorded by an instrumented run; see ``MultCounter``."""
    if counter is None:
        raise InvalidArgument("no counter was attached to the Gram path")
    return int(counter.count)


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
