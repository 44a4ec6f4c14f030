import numpy as np
import pytest

from grasspack.audit import (
    MultCounter,
    complexity_report,
    gram_mult_count,
    measured_mult_count,
    precode_mult_count,
    real_variable_count,
    storage_count,
)
from grasspack.errors import InvalidArgument
from grasspack.linksim import effective_gram
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
            c = MultCounter()
            effective_gram(h, dense_w, counter=c)
            assert measured_mult_count(c) == gram_mult_count(t, m, n, sparse=False)
            sparse_w = row_sparse_precoder(t, m, 1, seed=int(rng.integers(1 << 30)))
            c = MultCounter()
            effective_gram(h, sparse_w, counter=c)
            assert measured_mult_count(c) == gram_mult_count(t, m, n, sparse=True)

    def test_instrumented_paths_agree_numerically(self):
        # the multiply path follows from the codeword alone, so a counter
        # never changes the returned bytes, dense or row-sparse; both paths
        # give the Gram of H @ W
        rng = np.random.default_rng(2)
        for case in range(40):
            m = 1 + case % 3
            t = m + 1 + case % 5
            h = rng.standard_normal((16, t)) + 1j * rng.standard_normal((16, t))
            dense = rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m))
            for w in (dense, row_sparse_precoder(t, m, 1, seed=case)):
                plain = effective_gram(h, w)
                assert effective_gram(h, w, counter=MultCounter()).tobytes() == plain.tobytes()
                hw = h @ w
                np.testing.assert_allclose(plain, hw.conj().T @ hw, rtol=0, atol=1e-12)

    def test_empty_counter_reads_zero(self):
        assert measured_mult_count(MultCounter()) == 0

    def test_disabled_instrumentation(self):
        with pytest.raises(InvalidArgument):
            measured_mult_count(None)


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
