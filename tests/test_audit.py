import numpy as np
import pytest

from grasspack.audit import (
    complexity_report,
    effective_gram,
    gram_mult_count,
    precode_mult_count,
    real_variable_count,
    storage_count,
)
from grasspack.codebooks import proposed_codebook_4_2
from grasspack.errors import DimensionMismatch, InvalidArgument
from grasspack.wavesim import row_sparse_precoder


class TestFormulas:
    def test_gram_counts(self):
        assert gram_mult_count(4, 2, 32, sparse=False) == 384
        assert gram_mult_count(4, 2, 32, sparse=True) == 256

    def test_gram_coincide_at_m1(self):
        assert gram_mult_count(4, 1, 32, sparse=False) == gram_mult_count(4, 1, 32, sparse=True)

    def test_precode_counts(self):
        assert precode_mult_count(4, 2, sparse=False) == 8
        assert precode_mult_count(4, 2, sparse=True) == 4
        assert precode_mult_count(4, 1, sparse=False) == precode_mult_count(4, 1, sparse=True) == 4

    def test_storage_counts(self):
        assert storage_count(4, 2, 22, sparse=False) == 176
        assert storage_count(4, 2, 22, sparse=True) == 88
        assert storage_count(4, 2, 0, sparse=False) == 0

    def test_real_variables(self):
        assert real_variable_count("manopt", 4, 2, 22) == 176
        assert real_variable_count("proposed2m", 4, 2, 22) == 16
        assert real_variable_count("proposed2m", 8, 4, 24) == 16

    def test_proposed_requires_t_2m(self):
        with pytest.raises(InvalidArgument):
            real_variable_count("proposed2m", 6, 2, 8)
        with pytest.raises(InvalidArgument):
            real_variable_count("newton", 4, 2, 8)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: gram_mult_count(4, 0, 32, sparse=False),
            lambda: gram_mult_count(4, 2, 0, sparse=True),
            lambda: precode_mult_count(0, 2, sparse=False),
            lambda: storage_count(4, -1, 22, sparse=True),
            lambda: storage_count(4, 2, -1, sparse=False),
            lambda: real_variable_count("manopt", 0, 0, 22),
            lambda: real_variable_count("manopt", 4, 2, -1),
            lambda: real_variable_count("manopt", 2, 3, 22),
        ],
        ids=["gram-m", "gram-n", "precode-t", "storage-m", "storage-size", "vars-dims", "vars-size", "vars-m-ge-t"],
    )
    def test_bad_sizes_raise_invalid_config(self, call):
        with pytest.raises(InvalidArgument):
            call()

    def test_sparse_strictly_cheaper_for_m_ge_2(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            m = int(rng.integers(2, 6))
            t = int(rng.integers(m + 1, 12))
            n = int(rng.integers(1, 64))
            assert gram_mult_count(t, m, n, True) < gram_mult_count(t, m, n, False)
            assert precode_mult_count(t, m, True) < precode_mult_count(t, m, False)
            assert storage_count(t, m, 8, True) < storage_count(t, m, 8, False)


class TestMeasuredCounts:
    def test_dense_and_sparse_match_formulas(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            m = int(rng.integers(1, 5))
            t = int(rng.integers(m + 1, 10))
            n = int(rng.integers(1, 48))
            h = rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))
            dense_w = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
            assert effective_gram(h, dense_w)[1] == gram_mult_count(t, m, n, sparse=False)
            sparse_w = row_sparse_precoder(t, m, 1, seed=int(rng.integers(1 << 30)))
            assert effective_gram(h, sparse_w)[1] == gram_mult_count(t, m, n, sparse=True)

    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_zero_rows_cost_nothing(self, n):
        # the six 2-sparse selections of the (4, 2) table leave two rows zero:
        # N per live row plus the N * M^2 Gram product, below the formula's N * T + N * M^2
        rng = np.random.default_rng(n)
        h = rng.standard_normal((n, 4)) + 1j * rng.standard_normal((n, 4))
        for w in proposed_codebook_4_2()[:6]:
            gram, mults = effective_gram(h, w)
            assert mults == 2 * n + 4 * n < gram_mult_count(4, 2, n, sparse=True)
            hw = h @ w
            np.testing.assert_allclose(gram, hw.conj().T @ hw, rtol=0, atol=1e-12)

    def test_zero_rows_of_a_row_sparse_precoder(self):
        # one nonzero per row on the rows kept, zero elsewhere: N per kept row,
        # which differs from N * M when the kept rows are not M
        rng = np.random.default_rng(3)
        h = rng.standard_normal((5, 8)) + 1j * rng.standard_normal((5, 8))
        w = row_sparse_precoder(8, 4, 1, seed=0)
        for kept in ([1, 6], [0, 2, 4, 6], [1, 3, 5, 6, 7]):
            live = np.zeros_like(w)
            live[kept] = w[kept]
            assert effective_gram(h, live)[1] == 5 * len(kept) + 5 * 16

    def test_instrumented_paths_agree_numerically(self):
        # both paths give the Gram of H @ W, dense or row-sparse
        rng = np.random.default_rng(2)
        for case in range(40):
            m = 1 + case % 3
            t = m + 1 + case % 5
            h = rng.standard_normal((16, t)) + 1j * rng.standard_normal((16, t))
            dense = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
            for w in (dense, row_sparse_precoder(t, m, 1, seed=case)):
                hw = h @ w
                np.testing.assert_allclose(effective_gram(h, w)[0], hw.conj().T @ hw, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            effective_gram(np.ones((3, 5)), proposed_codebook_4_2()[0])


class TestReport:
    def test_full_scenario(self):
        d = complexity_report(4, 2, 32, 22)
        assert d["gram_mults"] == {"dense": 384, "sparse": 256}
        assert d["precode_mults"] == {"dense": 8, "sparse": 4}
        assert d["storage"] == {"dense": 176, "sparse": 88}
        assert d["real_variables"] == {"manopt": 176, "proposed2m": 16}

    def test_non_2m_scenario_omits_proposed(self):
        rep = complexity_report(6, 2, 32, 8)
        assert rep["real_variables"]["proposed2m"] is None
