"""Sparsity patterns from Schubert-cell skeletons.

A sparsity pattern assigns each codeword column a nonempty set of row
indices; disjoint supports make the columns structurally orthogonal, so any
phase/amplitude fill produces an exact Stiefel matrix. Patterns are kept in
column echelon order (columns sorted by their minimal row index) so pattern
identity is canonical and testable. :func:`enumerate_patterns` lists them
all: each s-subset of the rows, partitioned into M blocks one row at a time
(set partitions: Knuth, TAOCP Vol. 4A, sec. 7.2.1.5), then sorted.

For T = 2M the perfect matchings of the 2M rows are the patterns whose
supports are all row pairs; at s = 2M the other patterns split the rows
unevenly (sizes 1 and 3 for M = 2). A round-robin 1-factorization of K_{2M}
yields 2M - 1 matchings that share no row pair.

Every sparse codeword in the package comes from one vectorised kernel:
:func:`_layout` lists the nonzero positions of a batch of equal-size
patterns and :func:`_fill` writes ``amp * exp(j * phase)`` into them. Each
column has equal amplitudes 1/sqrt(|support|); :func:`pattern_to_codeword`
also fixes the gauge by making each column's pivot (first) entry real and
positive.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, SizeLimit
from .linalg import as_real_array, is_int

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class SparsityPattern:
    """Disjoint per-column row supports (1-based rows), echelon-ordered."""

    T: int
    M: int
    supports: tuple

    def __post_init__(self):
        t, m = self.T, self.M
        try:
            sups = [tuple(s) for s in self.supports]
        except TypeError:  # the supports, or one of them, not iterable
            sups = None
        if sups is None or not all(is_int(v) for v in (t, m, *itertools.chain(*sups))) or not 1 <= m <= t:
            raise InvalidArgument(f"need integer rows and 1 <= M <= T, got T={t!r}, M={m!r}, {self.supports!r}")
        sups = [tuple(sorted(int(r) for r in s)) for s in sups]
        rows = [r for s in sups for r in s]
        if len(sups) != m or not all(sups):
            raise DimensionMismatch(f"expected {m} nonempty column supports, got {sups}")
        if len(set(rows)) < len(rows) or not all(1 <= r <= t for r in rows):
            raise DimensionMismatch(f"column supports must hold distinct rows in 1..{t}, got {sups}")
        # canonical echelon order: columns sorted by minimal row index
        object.__setattr__(self, "supports", tuple(sorted(sups, key=lambda s: s[0])))

    @property
    def size(self) -> int:
        """Total number of nonzero entries."""
        return sum(len(s) for s in self.supports)


def _check_range(t: int, m: int, s: int):
    if not all(is_int(v) for v in (t, m, s)) or not (1 <= m < t and m <= s <= t):
        raise InvalidArgument(f"need integers 1 <= M < T and M <= s <= T, got T={t!r}, M={m!r}, s={s!r}")


def count_patterns(t: int, m: int, s: int) -> int:
    """Number of sparsity patterns for given dimensions and sparsity level.

    Chooses s of the T rows and partitions them into M nonempty column
    supports: C(T, s) * surj(s, M) / M!, evaluated in exact integer
    arithmetic (the surjection sum is always divisible by M!).
    """
    _check_range(t, m, s)
    surj = sum((-1) ** k * math.comb(m, k) * (m - k) ** s for k in range(m + 1))
    assert surj % math.factorial(m) == 0
    return math.comb(t, s) * (surj // math.factorial(m))


def _partitions_into_blocks(rows, m):
    """Set partitions of a tuple of rows into exactly m nonempty blocks.

    Built one row at a time: a row opens a new block while fewer than m are
    open, and joins each open block only while the rows after it can still
    open the rest, so every partial partition kept completes. A block lists
    its rows in the given order; the list itself follows no order, since
    ``SparsityPattern`` puts blocks in echelon order and
    :func:`enumerate_patterns` sorts the patterns.
    """
    parts = [()]
    for left, r in zip(range(len(rows) - 1, -1, -1), rows):
        grown = []
        for p in parts:
            if len(p) < m:
                grown.append(p + ((r,),))
            if m - len(p) <= left:
                grown += [p[:j] + (p[j] + (r,),) + p[j + 1 :] for j in range(len(p))]
        parts = grown
    return parts


def enumerate_patterns(t: int, m: int, s: int) -> list:
    """All sparsity patterns, lexicographically ordered on their supports;
    more than ``ENUMERATION_CAP`` raise ``SizeLimit`` before any is built."""
    _check_range(t, m, s)
    total = count_patterns(t, m, s)
    if total > ENUMERATION_CAP:
        raise SizeLimit(f"{total} patterns exceed the cap of {ENUMERATION_CAP}")
    out = []
    for rows in itertools.combinations(range(1, t + 1), s):
        for blocks in _partitions_into_blocks(rows, m):
            out.append(SparsityPattern(T=t, M=m, supports=blocks))
    out.sort(key=lambda p: p.supports)
    assert len(out) == total
    return out


def matching_patterns(m: int) -> list:
    """The 2M - 1 pairwise pair-disjoint perfect matchings of {1, ..., 2M}.

    Round-robin (circle) construction with point 2M fixed: a 1-factorization
    of the complete graph K_{2M}, so every row pair occurs in exactly one
    pattern.
    """
    if not is_int(m) or m < 2:
        raise InvalidArgument(f"need an integer M >= 2, got {m!r}")
    n = 2 * m
    out = []
    for r in range(n - 1):
        pairs = [(n, r + 1)]
        for i in range(1, m):
            a = (r + i) % (n - 1) + 1
            b = (r - i) % (n - 1) + 1
            pairs.append((a, b))
        out.append(SparsityPattern(T=n, M=m, supports=pairs))
    return out


def _layout(patterns):
    """Nonzero positions of equal-size patterns, as (K, s) arrays.

    Returns word, row and column indices, the column amplitude
    1/sqrt(|support|) and, per entry, the position of its column's pivot
    entry. Entries run column-major, rows ascending within each column.
    """
    ridx, cidx, amps, pivot = [], [], [], []
    for pat in patterns:
        pos = 0
        for col, sup in enumerate(pat.supports):
            ridx += [row - 1 for row in sup]
            cidx += [col] * len(sup)
            amps += [1.0 / math.sqrt(len(sup))] * len(sup)
            pivot += [pos] * len(sup)
            pos += len(sup)
    k = len(patterns)
    ridx, cidx, amps, pivot = (np.reshape(a, (k, -1)) for a in (ridx, cidx, amps, pivot))
    widx = np.repeat(np.arange(k)[:, None], ridx.shape[1], axis=1)
    return widx, ridx, cidx, amps, pivot


def _fill(layout, phases, t, m):
    """(K, T, M) stack with ``amp * exp(j * phases)`` at the layout's positions."""
    widx, ridx, cidx, amps, _ = layout
    stack = np.zeros((widx.shape[0], t, m), dtype=np.complex128)
    stack[widx, ridx, cidx] = amps * np.exp(1j * phases)
    return stack


def pattern_to_codeword(pattern, phases) -> np.ndarray:
    """Materialize a pattern into an equal-amplitude unit-column codeword.

    ``phases`` lists one phase per nonzero entry, column-major, rows in
    ascending order within each column. Each column is rotated so its first
    (pivot) entry is real positive, which removes the right-unitary gauge.
    """
    ph = as_real_array(phases, "phases").reshape(-1)
    if ph.size != pattern.size:
        raise DimensionMismatch(f"expected {pattern.size} phases, got {ph.size}")
    if not np.all(np.isfinite(ph)):
        raise InvalidArgument("phases must be finite")
    layout = _layout([pattern])
    return _fill(layout, ph - ph[layout[4]], pattern.T, pattern.M)[0]


def pair_codeword(pattern: SparsityPattern, thetas) -> np.ndarray:
    """Equal-amplitude codeword (e_a + e^{j theta} e_b)/sqrt(2) per column
    of a perfect matching: T = 2M and every support a row pair."""
    if pattern.T != 2 * pattern.M or any(len(s) != 2 for s in pattern.supports):
        raise DimensionMismatch(f"expected a perfect matching of 1..2M, got {pattern.supports} with T={pattern.T}")
    th = as_real_array(thetas, "thetas").reshape(-1)
    if th.size != pattern.M:
        raise DimensionMismatch(f"expected {pattern.M} phases, got {th.size}")
    phases = np.zeros(2 * pattern.M)
    phases[1::2] = th
    return pattern_to_codeword(pattern, phases)
