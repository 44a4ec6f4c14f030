"""Analytic complexity accounting for dense versus row-sparse precoding.

Counts are in complex multiplications (one complex multiply = one unit) and
stored scalars/records; the instrumented counter in ``linksim.effective_gram``
validates the Gram-path formulas against actually executed multiplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InstrumentationDisabled, InvalidConfig, InvalidForMethod


@dataclass
class MultCounter:
    """Per-invocation accumulator of executed complex multiplications."""

    count: int = 0

    def add(self, n: int):
        self.count += int(n)


def _check_dims(*dims):
    if any(d < 1 for d in dims):
        raise InvalidConfig(f"dimensions must be positive, got {dims}")


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
    if size < 0:
        raise InvalidConfig("size must be nonnegative")
    return size * t if sparse else size * t * m


def real_variable_count(method: str, t: int, m: int, size: int) -> int:
    """Free real scalars each design method optimizes for a codebook."""
    _check_dims(t, m)
    if size < 0:
        raise InvalidConfig("size must be nonnegative")
    name = method.lower()
    if name == "manopt":
        return 2 * size * m * (t - m)
    if name == "proposed2m":
        if t != 2 * m:
            raise InvalidForMethod(f"proposed2m requires T = 2M, got T={t}, M={m}")
        return math.ceil(size / (2 * m - 1)) * m
    raise InvalidForMethod(f"unknown method {method!r}")


def measured_mult_count(counter) -> int:
    """Multiplies recorded by an instrumented run; see ``MultCounter``."""
    if counter is None:
        raise InstrumentationDisabled("no counter was attached to the Gram path")
    return int(counter.count)


@dataclass(frozen=True)
class ComplexityReport:
    """All analytic counts for one (T, M, N, size) scenario."""

    T: int
    M: int
    N: int
    size: int
    gram_dense: int
    gram_sparse: int
    precode_dense: int
    precode_sparse: int
    storage_dense: int
    storage_sparse: int
    real_vars_manopt: int
    real_vars_proposed2m: int | None = None

    def to_dict(self) -> dict:
        return {
            "T": self.T,
            "M": self.M,
            "N": self.N,
            "size": self.size,
            "gram_mults": {"dense": self.gram_dense, "sparse": self.gram_sparse},
            "precode_mults": {"dense": self.precode_dense, "sparse": self.precode_sparse},
            "storage": {"dense": self.storage_dense, "sparse": self.storage_sparse},
            "real_variables": {
                "manopt": self.real_vars_manopt,
                "proposed2m": self.real_vars_proposed2m,
            },
        }


def complexity_report(t: int, m: int, n: int, size: int) -> ComplexityReport:
    """Assemble every count for one scenario (proposed2m only when T = 2M)."""
    proposed = real_variable_count("proposed2m", t, m, size) if t == 2 * m else None
    return ComplexityReport(
        T=t,
        M=m,
        N=n,
        size=size,
        gram_dense=gram_mult_count(t, m, n, sparse=False),
        gram_sparse=gram_mult_count(t, m, n, sparse=True),
        precode_dense=precode_mult_count(t, m, sparse=False),
        precode_sparse=precode_mult_count(t, m, sparse=True),
        storage_dense=storage_count(t, m, size, sparse=False),
        storage_sparse=storage_count(t, m, size, sparse=True),
        real_vars_manopt=real_variable_count("manopt", t, m, size),
        real_vars_proposed2m=proposed,
    )
