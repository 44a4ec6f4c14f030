import itertools

import numpy as np
import pytest

from grasspack.errors import InvalidM, InvalidRange, ShapeMismatch, SizeLimit
from grasspack.grassmann import validate_stiefel
from grasspack.schubert import (
    ENUMERATION_CAP,
    PairPattern,
    SparsityPattern,
    _fill,
    _layout,
    count_patterns,
    enumerate_patterns,
    matching_patterns,
    pair_codeword,
    pattern_to_codeword,
)


def brute_force_patterns(t, m, s):
    """Independent oracle: enumerate support families as frozensets."""
    found = set()
    for rows in itertools.combinations(range(1, t + 1), s):
        for labels in itertools.product(range(m), repeat=s):
            if len(set(labels)) != m:
                continue
            blocks = [frozenset(r for r, l in zip(rows, labels) if l == b) for b in range(m)]
            found.add(frozenset(blocks))
    return found


class TestCountPatterns:
    @pytest.mark.parametrize("dims,expected", [((4, 2, 2), 6), ((4, 2, 4), 7), ((5, 3, 3), 10)])
    def test_known_values(self, dims, expected):
        assert count_patterns(*dims) == expected
        assert len(brute_force_patterns(*dims)) == expected

    def test_matches_brute_force_small(self):
        for t in range(2, 6):
            for m in range(1, t):
                for s in range(m, t + 1):
                    assert count_patterns(t, m, s) == len(brute_force_patterns(t, m, s))

    def test_s_equals_m_reduces_to_binomial(self):
        import math

        assert count_patterns(5, 3, 3) == math.comb(5, 3)

    def test_invalid_range(self):
        with pytest.raises(InvalidRange):
            count_patterns(4, 4, 4)
        with pytest.raises(InvalidRange):
            count_patterns(4, 2, 1)
        with pytest.raises(InvalidRange):
            count_patterns(4, 2, 5)


class TestEnumeratePatterns:
    def test_three_singleton_patterns(self):
        pats = enumerate_patterns(3, 2, 2)
        assert [p.supports for p in pats] == [((1,), (2,)), ((1,), (3,)), ((2,), (3,))]

    def test_lexicographic_head(self):
        pats = enumerate_patterns(4, 2, 4)
        assert len(pats) == 7
        assert pats[0].supports == ((1,), (2, 3, 4))

    def test_lengths_match_counts(self):
        for t in range(2, 7):
            for m in range(1, t):
                for s in range(m, t + 1):
                    assert len(enumerate_patterns(t, m, s)) == count_patterns(t, m, s)

    def test_matches_brute_force_sets(self):
        pats = enumerate_patterns(5, 2, 4)
        got = {frozenset(frozenset(sup) for sup in p.supports) for p in pats}
        assert got == brute_force_patterns(5, 2, 4)

    def test_size_limit(self):
        # 2,532,530 patterns, over the cap: rejected from the count alone
        assert count_patterns(13, 4, 13) == 2_532_530 > ENUMERATION_CAP
        with pytest.raises(SizeLimit):
            enumerate_patterns(13, 4, 13)


class TestMatchingPatterns:
    def test_m2_all_three(self):
        got = {p.pairs for p in matching_patterns(2)}
        assert got == {((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3))}

    def test_m3_covers_k6_once(self):
        pats = matching_patterns(3)
        assert len(pats) == 5
        all_pairs = [pair for p in pats for pair in p.pairs]
        assert len(all_pairs) == len(set(all_pairs)) == 15

    def test_m4_perfect_matchings(self):
        for p in matching_patterns(4):
            seen = sorted(r for pair in p.pairs for r in pair)
            assert seen == list(range(1, 9))

    def test_one_factorization_up_to_8(self):
        for m in range(2, 9):
            pats = matching_patterns(m)
            assert len(pats) == 2 * m - 1
            all_pairs = [pair for p in pats for pair in p.pairs]
            assert len(set(all_pairs)) == len(all_pairs) == m * (2 * m - 1)

    def test_invalid_m(self):
        with pytest.raises(InvalidM):
            matching_patterns(1)


class TestPatternTypes:
    def test_echelon_normalization(self):
        p = SparsityPattern(T=4, M=2, supports=((2, 4), (1, 3)))
        assert p.supports == ((1, 3), (2, 4))

    def test_overlapping_supports_rejected(self):
        with pytest.raises(ShapeMismatch):
            SparsityPattern(T=4, M=2, supports=((1, 2), (2, 3)))

    def test_pair_pattern_must_cover(self):
        with pytest.raises(ShapeMismatch):
            PairPattern(M=2, pairs=((1, 2), (3, 3)))


class TestPatternToCodeword:
    def test_reproduces_reference_entry(self):
        # equal-amplitude pattern {(1,3),(2,4)} with second-entry phases (-pi/2, 0)
        w = pair_codeword(PairPattern(2, ((1, 3), (2, 4))), [-np.pi / 2, 0.0])
        expected = np.array(
            [[1, 0], [0, 1], [-1j, 0], [0, 1]], dtype=complex
        ) / np.sqrt(2)
        np.testing.assert_allclose(w, expected, atol=1e-15)

    def test_singleton_columns_pin_phase(self):
        p = SparsityPattern(T=4, M=2, supports=((1,), (2,)))
        w = pattern_to_codeword(p, phases=[2.3, -1.1])
        np.testing.assert_array_equal(w, np.eye(4, dtype=complex)[:, :2])

    def test_structural_orthogonality(self):
        rng = np.random.default_rng(11)
        for pat in enumerate_patterns(6, 3, 5):
            phases = rng.uniform(-np.pi, np.pi, pat.size)
            w = pattern_to_codeword(pat, phases)
            gram = w.conj().T @ w
            assert np.all(gram[~np.eye(3, dtype=bool)] == 0)  # exact zeros off-diagonal
            assert validate_stiefel(w, tol=1e-12)

    def test_phase_count_checked(self):
        p = SparsityPattern(T=4, M=2, supports=((1, 2), (3, 4)))
        with pytest.raises(ShapeMismatch):
            pattern_to_codeword(p, phases=[0.0, 1.0, 2.0])

    @pytest.mark.parametrize("t, m, s", [(4, 2, 4), (6, 3, 5), (7, 3, 6)])
    def test_matches_per_column_formula(self, t, m, s):
        rng = np.random.default_rng(t * 100 + s)
        for pat in enumerate_patterns(t, m, s):
            phases = rng.uniform(-np.pi, np.pi, s)
            expected = np.zeros((t, m), dtype=complex)
            pos = 0
            for col, sup in enumerate(pat.supports):
                theta = phases[pos : pos + len(sup)]
                expected[np.array(sup) - 1, col] = np.exp(1j * (theta - theta[0])) / np.sqrt(len(sup))
                pos += len(sup)
            np.testing.assert_array_equal(pattern_to_codeword(pat, phases), expected)

    @pytest.mark.parametrize(
        "patterns",
        [enumerate_patterns(6, 3, 5), matching_patterns(3)],  # (T, M) = (6, 3) in both
        ids=["general-6-3-5", "matchings-M3"],
    )
    def test_batched_fill_matches_single_words(self, patterns):
        layout = _layout(patterns)
        k, s = layout[0].shape
        # pivot phases at 0, so the per-word gauge rotation changes nothing
        phases = np.random.default_rng(8).uniform(-np.pi, np.pi, (k, s)) * (layout[4] != np.arange(s))
        expected = np.stack([pattern_to_codeword(p, ph) for p, ph in zip(patterns, phases)])
        np.testing.assert_array_equal(_fill(layout, phases, 6, 3), expected)
