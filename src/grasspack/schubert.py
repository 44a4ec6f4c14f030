"""Sparsity patterns from Schubert-cell skeletons.

A sparsity pattern assigns each codeword column a nonempty set of row
indices; disjoint supports make the columns structurally orthogonal, so any
phase/amplitude fill produces an exact Stiefel matrix. Patterns are kept in
column echelon order (columns sorted by their minimal row index) so pattern
identity is canonical and testable.

For T = 2M every admissible pattern is a perfect matching of the 2M rows, and
a round-robin 1-factorization of K_{2M} yields 2M - 1 patterns that share no
row pair.

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

from .errors import InvalidM, InvalidRange, ShapeMismatch, SizeLimit

ENUMERATION_CAP = 10**6


@dataclass(frozen=True)
class SparsityPattern:
    """Disjoint per-column row supports (1-based rows), echelon-ordered."""

    T: int
    M: int
    supports: tuple

    def __post_init__(self):
        sups = tuple(tuple(sorted(int(r) for r in s)) for s in self.supports)
        if len(sups) != self.M:
            raise ShapeMismatch(f"expected {self.M} supports, got {len(sups)}")
        seen = set()
        for s in sups:
            if not s:
                raise ShapeMismatch("every column support must be nonempty")
            if any(not 1 <= r <= self.T for r in s):
                raise ShapeMismatch(f"row index out of range 1..{self.T}: {s}")
            if seen & set(s):
                raise ShapeMismatch("column supports must be pairwise disjoint")
            seen |= set(s)
        total = len(seen)
        if not self.M <= total <= self.T:
            raise ShapeMismatch(f"total support size {total} outside [M, T]")
        # canonical echelon order: columns sorted by minimal row index
        sups = tuple(sorted(sups, key=lambda s: s[0]))
        object.__setattr__(self, "supports", sups)

    @property
    def size(self) -> int:
        """Total number of nonzero entries."""
        return sum(len(s) for s in self.supports)


@dataclass(frozen=True)
class PairPattern:
    """Perfect matching of {1, ..., 2M}: one row pair per column."""

    M: int
    pairs: tuple

    def __post_init__(self):
        ps = tuple(tuple(sorted((int(a), int(b)))) for a, b in self.pairs)
        if len(ps) != self.M:
            raise ShapeMismatch(f"expected {self.M} pairs, got {len(ps)}")
        flat = [r for p in ps for r in p]
        if sorted(flat) != list(range(1, 2 * self.M + 1)):
            raise ShapeMismatch("pairs must cover 1..2M exactly once")
        ps = tuple(sorted(ps))
        object.__setattr__(self, "pairs", ps)

    def to_sparsity(self) -> SparsityPattern:
        return SparsityPattern(T=2 * self.M, M=self.M, supports=self.pairs)


def _check_range(t: int, m: int, s: int):
    if not (1 <= m < t and m <= s <= t):
        raise InvalidRange(f"need 1 <= M < T and M <= s <= T, got T={t}, M={m}, s={s}")


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
    """Set partitions of an ordered tuple into exactly m nonempty blocks.

    Generated via restricted growth strings; blocks come out ordered by
    their minimal element, which is exactly the echelon column order.
    """
    n = len(rows)
    code = [0] * n

    def rec(i, maxused):
        if i == n:
            if maxused == m - 1:
                blocks = [[] for _ in range(m)]
                for r, c in zip(rows, code):
                    blocks[c].append(r)
                yield tuple(tuple(b) for b in blocks)
            return
        # prune: remaining positions must be able to reach m blocks
        for c in range(min(maxused + 1, m - 1) + 1):
            if maxused + (n - i) < m - 1 and c <= maxused:
                continue
            code[i] = c
            yield from rec(i + 1, max(maxused, c))

    yield from rec(0, -1)


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
    if m < 2:
        raise InvalidM(f"need M >= 2, got {m}")
    n = 2 * m
    out = []
    for r in range(n - 1):
        pairs = [(n, r + 1)]
        for i in range(1, m):
            a = (r + i) % (n - 1) + 1
            b = (r - i) % (n - 1) + 1
            pairs.append((a, b))
        out.append(PairPattern(M=m, pairs=tuple(pairs)))
    return out


def _layout(patterns):
    """Nonzero positions of equal-size patterns, as (K, s) arrays.

    Returns word, row and column indices, the column amplitude
    1/sqrt(|support|) and, per entry, the position of its column's pivot
    entry. Entries run column-major, rows ascending within each column.
    """
    ridx, cidx, amps, pivot = [], [], [], []
    for pat in patterns:
        if isinstance(pat, PairPattern):
            pat = pat.to_sparsity()
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
    if isinstance(pattern, PairPattern):
        pattern = pattern.to_sparsity()
    ph = np.asarray(phases, dtype=np.float64).reshape(-1)
    if ph.size != pattern.size:
        raise ShapeMismatch(f"expected {pattern.size} phases, got {ph.size}")
    layout = _layout([pattern])
    return _fill(layout, ph - ph[layout[4]], pattern.T, pattern.M)[0]


def pair_codeword(pattern: PairPattern, thetas) -> np.ndarray:
    """Equal-amplitude codeword (e_a + e^{j theta} e_b)/sqrt(2) per column."""
    th = np.asarray(thetas, dtype=np.float64).reshape(-1)
    if th.size != pattern.M:
        raise ShapeMismatch(f"expected {pattern.M} phases, got {th.size}")
    phases = np.zeros(2 * pattern.M)
    phases[1::2] = th
    return pattern_to_codeword(pattern, phases)
