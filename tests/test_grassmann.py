import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from grasspack.codebooks import nr_codebook_4_2, proposed_codebook_4_2
from grasspack.errors import DimensionMismatch, InvalidArgument, InvalidRange, NotStiefel, TooFewCodewords
from grasspack.grassmann import (
    Codebook,
    chordal_distance,
    min_chordal_distance,
    pairwise_chordal,
    projector_distance,
    validate_stiefel,
)
from grasspack.linalg import _qr_positive, random_stiefel


def e_cols(t, cols):
    return np.eye(t)[:, cols]


def random_unitary(m, rng):
    return random_stiefel(m, m, rng)


class TestValidateStiefel:
    def test_identity_columns(self):
        assert validate_stiefel(e_cols(4, [0, 1]))

    def test_unnormalized(self):
        w = np.array([[1, 0], [1, 0], [0, 1], [0, 0]], dtype=complex)
        assert not validate_stiefel(w)

    def test_proposed_table_at_1e12(self):
        for w in proposed_codebook_4_2().codewords:
            assert validate_stiefel(w, tol=1e-12)


class TestChordalDistance:
    def test_self_distance_zero(self):
        w = e_cols(4, [0, 1])
        assert chordal_distance(w, w) == 0.0

    def test_disjoint_supports_saturate(self):
        d = chordal_distance(e_cols(4, [0, 1]), e_cols(4, [2, 3]))
        assert d == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_table_pair(self):
        prop = proposed_codebook_4_2()
        # index 1 vs index 7: hand inner product gives ||W^H W||^2 = 1
        assert chordal_distance(prop[0], prop[6]) == pytest.approx(1.0, abs=1e-15)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            chordal_distance(e_cols(4, [0, 1]), e_cols(5, [0, 1]))

    def test_not_stiefel(self):
        bad = np.array([[1, 0], [1, 0], [0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotStiefel):
            chordal_distance(bad, e_cols(4, [0, 1]))

    def test_symmetry_and_range(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            t = int(rng.integers(3, 9))
            m = int(rng.integers(1, t))
            a, b = random_stiefel(t, m, rng), random_stiefel(t, m, rng)
            d_ab, d_ba = chordal_distance(a, b), chordal_distance(b, a)
            assert d_ab == d_ba  # exact: same float expression
            assert 0.0 <= d_ab <= np.sqrt(m) + 1e-12

    def test_dual_form_agreement(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            t = int(rng.integers(2, 9))
            m = int(rng.integers(1, t))
            a, b = random_stiefel(t, m, rng), random_stiefel(t, m, rng)
            assert chordal_distance(a, b) == pytest.approx(
                projector_distance(a, b) / np.sqrt(2), abs=1e-9
            )

    def test_unitary_invariance(self):
        rng = np.random.default_rng(7)
        w = random_stiefel(6, 3, rng)
        v = random_stiefel(6, 3, rng)
        u = random_unitary(3, rng)
        assert chordal_distance(w, w @ u) <= 1e-9
        assert abs(chordal_distance(w, v) - chordal_distance(w @ u, v)) <= 1e-9


class TestMinChordalDistance:
    def test_identical_pair(self):
        w = e_cols(4, [0, 1])
        assert min_chordal_distance(Codebook((w, w))) == (0.0, (1, 2))

    def test_two_sparse_family(self):
        prop = proposed_codebook_4_2()
        six = Codebook(prop.codewords[:6])
        val, _ = min_chordal_distance(six)
        assert val == pytest.approx(1.0, abs=1e-15)

    def test_full_table_against_loop_oracle(self):
        prop = proposed_codebook_4_2()
        val, pair = min_chordal_distance(prop)
        words = prop.codewords
        oracle = min(
            chordal_distance(words[i], words[j])
            for i in range(len(words))
            for j in range(i + 1, len(words))
        )
        assert val == pytest.approx(oracle, abs=1e-12)
        assert val == pytest.approx(1.0, abs=1e-12)
        assert pair == (1, 2)

    def test_too_few(self):
        with pytest.raises(TooFewCodewords):
            min_chordal_distance(Codebook((e_cols(4, [0, 1]),)))

    def test_not_stiefel(self):
        bad = np.array([[1, 0], [1, 0], [0, 1], [0, 0]], dtype=complex)
        with pytest.raises(NotStiefel):
            min_chordal_distance(Codebook((bad, e_cols(4, [0, 1]))))


@st.composite
def near_copy_stacks(draw):
    """Random (K, T, M) stack whose last codeword is a QR-perturbed copy of the first."""
    t = draw(st.integers(2, 8))
    m = draw(st.integers(1, t - 1))
    k = draw(st.integers(2, 6))
    scale = 10.0 ** draw(st.floats(-15, -2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stack = _qr_positive(rng.standard_normal((k, t, m)) + 1j * rng.standard_normal((k, t, m)))
    noise = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
    stack[-1] = _qr_positive(stack[0] + scale * noise)
    return stack


class TestNearCoincidence:
    def test_near_pair_matches_projector_form(self):
        rng = np.random.default_rng(10)
        w = random_stiefel(6, 3, rng)
        v = _qr_positive(w + 1e-10 * (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))))
        ref = projector_distance(w, v) / np.sqrt(2)
        assert 1e-11 < ref < 1e-9
        assert abs(chordal_distance(w, v) - ref) <= 1e-15
        dmin, pair = min_chordal_distance(Codebook((w, v)))
        assert abs(dmin - ref) <= 1e-15 and pair == (1, 2)

    @settings(max_examples=200, deadline=None)
    @given(near_copy_stacks())
    def test_pairwise_matches_projector_form(self, stack):
        d = pairwise_chordal(stack)
        for i, j in itertools.product(range(len(stack)), repeat=2):
            proj = projector_distance(stack[i], stack[j])
            tol = 1e-15 if proj < 1e-5 else 1e-10
            assert abs(d[i, j] - proj / np.sqrt(2)) <= tol


class TestSubspaceEqual:
    # two codewords span the same subspace iff their projectors agree:
    # ||W_a W_a^H - W_b W_b^H||_F <= 1e-9
    def test_right_unitary_rotation(self):
        rng = np.random.default_rng(8)
        w = random_stiefel(5, 2, rng)
        assert projector_distance(w, w @ random_unitary(2, rng)) <= 1e-9

    def test_different_spans(self):
        assert projector_distance(e_cols(4, [0, 1]), e_cols(4, [0, 2])) > 1e-9

    def test_nr_duplicate_pair(self):
        nr = nr_codebook_4_2()
        assert projector_distance(nr[14], nr[15]) <= 1e-9

    def test_consistency_with_chordal(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = random_stiefel(4, 2, rng)
            b = random_stiefel(4, 2, rng)
            eq = projector_distance(a, b) <= 1e-9
            assert eq == (chordal_distance(a, b) <= 1e-9 / np.sqrt(2) + 1e-12)


class TestCodebookType:
    @pytest.mark.parametrize(
        "words, bad",
        [((e_cols(4, [0, 1]), e_cols(5, [0, 1])), 2), ([e_cols(4, [0, 1]), e_cols(4, [2, 3]), e_cols(4, [0])], 3)],
    )
    def test_mixed_shapes_rejected(self, words, bad):
        # checked before stacking, so numpy's own ValueError never surfaces
        with pytest.raises(DimensionMismatch, match=f"codeword {bad} "):
            Codebook(words)

    def test_codeword_requires_m_below_t(self):
        with pytest.raises(DimensionMismatch):
            Codebook([np.eye(3)])
        with pytest.raises(DimensionMismatch):
            Codebook(np.eye(3)[None])

    @pytest.mark.parametrize("bad_value", [np.nan, np.inf])
    def test_codeword_rejects_non_finite(self, bad_value):
        bad = np.eye(4)[:, :2].astype(complex)
        bad[0, 0] = bad_value
        for words in ([bad], bad[None]):
            with pytest.raises(InvalidArgument):
                Codebook(words)

    @pytest.mark.parametrize("words", [(), [], np.zeros((0, 4, 2))], ids=["tuple", "list", "array"])
    def test_empty_rejected(self, words):
        with pytest.raises(TooFewCodewords):
            Codebook(words)

    def test_single_matrix_rejected(self):
        # a 2-D array is one codeword, not a book: its rows are not T x M matrices
        with pytest.raises(InvalidArgument):
            Codebook(np.eye(4)[:, :2])

    def test_one_read_only_array(self):
        nr = nr_codebook_4_2()
        stack = nr.stack()
        assert stack is nr.stack() is nr.codewords
        assert stack.shape == (22, 4, 2) and stack.dtype == np.complex128
        assert not stack.flags.writeable and not nr[0].flags.writeable
        assert np.shares_memory(nr[3], stack)
        with pytest.raises(ValueError):
            stack[0, 0, 0] = 2.0

    def test_equality_is_identity(self):
        # two books with equal arrays are still two books; comparing or
        # hashing one never asks numpy for the truth value of an array
        book = nr_codebook_4_2()
        assert (nr_codebook_4_2() == nr_codebook_4_2()) is False
        assert book == book and book != nr_codebook_4_2()
        assert {book, book} == {book} and hash(book) == hash(book)

    def test_source_array_is_copied(self):
        src = nr_codebook_4_2().stack().copy()
        book = Codebook(src)
        src[0] = 0.0
        assert not np.shares_memory(book.stack(), src)
        assert np.array_equal(book.stack(), nr_codebook_4_2().stack())

    def test_subset_is_one_based(self):
        nr = nr_codebook_4_2()
        sub = nr.subset([15, 16])
        assert np.array_equal(sub[0], nr[14])
        assert len(sub) == 2

    @pytest.mark.parametrize("indices", [[0], [-1], [1, 23]])
    def test_subset_out_of_range(self, indices):
        with pytest.raises(InvalidRange):
            nr_codebook_4_2().subset(indices)
