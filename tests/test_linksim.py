import numpy as np
import pytest
from scipy import stats

from grasspack.codebooks import nr_codebook_4_2, proposed_codebook_4_2
from grasspack import linksim
from grasspack.errors import DimensionMismatch, InvalidArgument, InvalidConfig, InvalidK, TooFewCodewords
from grasspack.grassmann import Codebook, Codeword
from grasspack.linalg import random_stiefel
from grasspack.rng import substream
from grasspack.linksim import (
    achievable_rate,
    effective_gain,
    gain_cdf,
    rate_curve,
    sample_rayleigh,
    sample_rician,
    select_index,
    select_index_gain,
)


def e_cols(t, cols):
    return Codeword(np.eye(t)[:, cols])


class TestSampleRayleigh:
    def test_per_entry_variance(self):
        h = sample_rayleigh(100, 1000, seed=0)  # 1e5 entries
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_zero_mean(self):
        h = sample_rayleigh(100, 1000, seed=1)
        n = h.size
        bound = 3.0 / np.sqrt(n)  # 3 sigma for the mean of unit-variance entries
        assert abs(h.mean()) < bound

    def test_deterministic(self):
        a = sample_rayleigh(4, 3, seed=7)
        b = sample_rayleigh(4, 3, seed=7)
        assert np.array_equal(a, b)


class TestSampleRician:
    def test_k_zero_matches_rayleigh_distribution(self):
        ray = np.abs(sample_rayleigh(100, 100, seed=2)).ravel()
        ric = np.abs(sample_rician(100, 100, 0.0, seed=3)).ravel()
        assert stats.ks_2samp(ray, ric).pvalue > 0.01

    def test_k_inf_rank_one(self):
        for seed in range(5):
            h = sample_rician(8, 4, float("inf"), seed=seed)
            sv = np.linalg.svd(h, compute_uv=False)
            assert sv[1] < 1e-10 * sv[0]

    def test_k_one_power_bookkeeping(self):
        total = 0.0
        trials = 20000
        for seed in range(trials):
            h = sample_rician(4, 4, 1.0, seed=seed)
            total += np.linalg.norm(h) ** 2 / 16.0
        assert total / trials == pytest.approx(1.0, rel=0.02)

    def test_normalize_flag(self):
        h = sample_rician(4, 4, float("inf"), seed=0, normalize=True)
        assert np.linalg.norm(h) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            sample_rician(4, 4, -0.5)


class TestAchievableRate:
    def test_identity_channel(self):
        assert achievable_rate(np.eye(4), e_cols(4, [0, 1]), 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_zero_channel(self):
        assert achievable_rate(np.zeros((4, 4)), e_cols(4, [0, 1]), 2.0) == 0.0

    def test_determinant_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            w = random_stiefel(4, 2, rng)
            got = achievable_rate(h, w, 1.7)
            gram = w.conj().T @ h.conj().T @ h @ w
            want = float(np.log2(np.linalg.det(np.eye(2) + (1.7 / 2) * gram).real))
            assert got == pytest.approx(want, abs=1e-10)

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        w = random_stiefel(4, 2, rng)
        rates = [achievable_rate(h, w, rho) for rho in (0.0, 0.5, 1.0, 4.0, 16.0)]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_subspace_invariance(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        w = random_stiefel(4, 2, rng)
        u = random_stiefel(2, 2, rng)
        assert achievable_rate(h, w, 3.0) == pytest.approx(
            achievable_rate(h, w @ u, 3.0), abs=1e-9
        )

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            achievable_rate(np.zeros((4, 5)), e_cols(4, [0, 1]), 1.0)

    def test_negative_rho_rejected(self):
        with pytest.raises(InvalidConfig):
            achievable_rate(np.eye(2), np.eye(2)[:, :1], -1.0)

    def test_nan_rho_rejected(self):
        with pytest.raises(InvalidConfig):
            achievable_rate(np.eye(2), np.eye(2)[:, :1], float("nan"))


class TestSelection:
    def test_zeroed_columns(self):
        book = Codebook((e_cols(4, [0, 1]), e_cols(4, [2, 3])))
        rng = np.random.default_rng(7)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h[:, 2:] = 0
        assert select_index(h, book, 1.0) == 1

    def test_zero_channel_tie_break(self):
        book = Codebook((e_cols(4, [0, 1]), e_cols(4, [2, 3])))
        assert select_index(np.zeros((4, 4)), book, 1.0) == 1
        assert select_index_gain(np.zeros((4, 4)), book) == 1

    def test_selected_rate_is_max(self):
        book = proposed_codebook_4_2()
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            idx = select_index(h, book, 2.0)
            rates = [achievable_rate(h, w, 2.0) for w in book.codewords]
            assert rates[idx - 1] >= max(rates) - 1e-12

    @pytest.mark.parametrize("rho", [-1.0, float("nan")])
    def test_bad_rho_rejected(self, rho):
        with pytest.raises(InvalidConfig):
            select_index(np.ones((3, 4)), proposed_codebook_4_2(), rho)

    def test_channel_t_mismatch(self):
        book = proposed_codebook_4_2()
        with pytest.raises(DimensionMismatch):
            select_index(np.ones((3, 5)), book, 1.0)
        with pytest.raises(DimensionMismatch):
            select_index_gain(np.ones((3, 5)), book)
        with pytest.raises(DimensionMismatch):
            effective_gain(np.ones((3, 5)), book[0])

    def test_non_finite_channel_rejected(self):
        book = proposed_codebook_4_2()
        h = np.full((3, 4), np.nan)
        with pytest.raises(InvalidArgument):
            select_index(h, book, 1.0)
        with pytest.raises(InvalidArgument):
            select_index_gain(h, book)
        with pytest.raises(InvalidArgument):
            achievable_rate(h, book[0], 1.0)

    def test_gain_selection_diag(self):
        book = Codebook((e_cols(4, [0, 1]), e_cols(4, [2, 3])))
        assert select_index_gain(np.diag([2.0, 2.0, 1.0, 1.0]), book) == 1

    def test_gain_rank_one_factorization(self):
        book = proposed_codebook_4_2()
        ch = sample_rician(8, 4, float("inf"), seed=11)
        idx = select_index_gain(ch, book)
        # for a rank-one channel the gain factors into ||a_r||^2 ||a_t^H W||^2
        u, s, vh = np.linalg.svd(ch)
        a_r = u[:, 0] * s[0]
        a_t = vh[0].conj()
        gains = [np.linalg.norm(a_r) ** 2 * np.linalg.norm(w.matrix.conj().T @ a_t) ** 2
                 for w in book.codewords]
        assert effective_gain(ch, book[idx - 1]) == pytest.approx(max(gains), abs=1e-9)


class TestRateCurve:
    def test_positive_rate_single_codebook(self):
        book = Codebook((e_cols(4, [0, 1]),))
        sweep = rate_curve([book], 4, [10.0], trials=50, seed=0)
        assert sweep.results[0].mean_rates[0] > 0

    def test_duplicate_codewords_leave_curve_unchanged(self):
        base = proposed_codebook_4_2()
        doubled = Codebook(base.codewords + base.codewords)
        sweep = rate_curve([base, doubled], 8, [0.0, 10.0], trials=200, seed=1)
        assert sweep.diff_mean[(0, 1)] == (0.0, 0.0)

    def test_identical_books_zero_difference(self):
        book = nr_codebook_4_2()
        sweep = rate_curve([book, book], 8, [10.0], trials=100, seed=2)
        assert sweep.diff_mean[(0, 1)] == (0.0,)
        assert sweep.diff_se[(0, 1)] == (0.0,)

    def test_bit_identical_reruns(self):
        books = [nr_codebook_4_2(), proposed_codebook_4_2()]
        s1 = rate_curve(books, 8, [5.0, 15.0], trials=300, seed=3)
        s2 = rate_curve(books, 8, [5.0, 15.0], trials=300, seed=3)
        assert s1.results[0].mean_rates == s2.results[0].mean_rates
        assert s1.diff_mean == s2.diff_mean and s1.diff_se == s2.diff_se

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidConfig):
            rate_curve([proposed_codebook_4_2()], 8, [0.0], trials=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_receive_antenna_rejected(self, n):
        with pytest.raises(InvalidConfig):
            rate_curve([proposed_codebook_4_2()], n, [0.0], trials=10)

    @pytest.mark.parametrize("snr_db", [[np.nan], [np.inf], [0.0, -np.inf]])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(InvalidConfig):
            rate_curve([proposed_codebook_4_2()], 4, snr_db, trials=5)

    def test_rates_nondecreasing_in_snr(self):
        sweep = rate_curve([proposed_codebook_4_2()], 8, [0, 5, 10, 15], trials=100, seed=4)
        rates = sweep.results[0].mean_rates
        assert all(b >= a for a, b in zip(rates, rates[1:]))


class TestGainCdf:
    def test_single_codeword_mean_gain(self):
        # normalized Rayleigh picks 2 of 4 equal-power columns: mean M/T = 0.5
        book = Codebook((e_cols(4, [0, 1]),))
        gains = gain_cdf(book, 4, 0.0, trials=20000, seed=5)
        assert gains.mean() == pytest.approx(0.5, rel=0.02)

    def test_sorted_output(self):
        gains = gain_cdf(proposed_codebook_4_2(), 4, 1.0, trials=500, seed=6)
        assert np.all(np.diff(gains) >= 0)

    def test_duplicate_codeword_never_changes_samples(self):
        base = nr_codebook_4_2()
        doubled = Codebook(base.codewords + (base.codewords[0],))
        g1 = gain_cdf(base, 4, 0.0, trials=400, seed=7)
        g2 = gain_cdf(doubled, 4, 0.0, trials=400, seed=7)
        assert np.array_equal(g1, g2)

    def test_paired_medians_k0_ordering(self):
        prop = gain_cdf(proposed_codebook_4_2(), 16, 0.0, trials=4000, seed=8)
        nr = gain_cdf(nr_codebook_4_2(), 16, 0.0, trials=4000, seed=8)
        assert np.median(prop) >= np.median(nr)

    def test_batched_equals_stacked_single_calls(self):
        books = [nr_codebook_4_2(), proposed_codebook_4_2()]
        ks = [0.0, 1.0, float("inf")]
        batched = gain_cdf(books, 8, ks, trials=300, seed=9)
        assert batched.shape == (3, 2, 300)
        single = np.stack([np.stack([gain_cdf(b, 8, k, trials=300, seed=9) for b in books]) for k in ks])
        assert np.array_equal(batched, single)
        assert np.array_equal(gain_cdf(books, 8, 1.0, trials=300, seed=9), single[1])
        assert np.array_equal(gain_cdf(books[1], 8, ks, trials=300, seed=9), single[:, 1])

    def test_invalid_arguments(self):
        book = proposed_codebook_4_2()
        with pytest.raises(InvalidConfig):
            gain_cdf(book, 4, 0.0, trials=0)
        for n in (0, -1):
            with pytest.raises(InvalidConfig):
                gain_cdf(book, n, 0.0, trials=10)
        with pytest.raises(TooFewCodewords):
            gain_cdf([], 4, 0.0, trials=10)
        with pytest.raises(DimensionMismatch):
            gain_cdf([book, Codebook((e_cols(3, [0, 1]),))], 4, 0.0, trials=10)
        with pytest.raises(InvalidK):
            gain_cdf(book, 4, [], trials=10)
        with pytest.raises(InvalidK):
            gain_cdf(book, 4, [1.0, -1.0], trials=10)


class TestSweepsMatchSingleTrials:
    BOOKS = (nr_codebook_4_2(), proposed_codebook_4_2())

    def test_rate_curve(self):
        n, snr_db, trials, seed = 3, [0.0, 10.0], 30, 12
        sweep = rate_curve(self.BOOKS, n, snr_db, trials, seed)
        channels = [sample_rayleigh(n, 4, rng=substream(seed, i)) for i in range(trials)]
        for book, res in zip(self.BOOKS, sweep.results):
            for si, snr in enumerate(snr_db):
                rho = 10.0 ** (snr / 10.0)
                best = [max(achievable_rate(h, w, rho) for w in book.codewords) for h in channels]
                assert res.mean_rates[si] == pytest.approx(np.mean(best), abs=1e-12)

    def test_gain_cdf(self):
        n, ks, trials, seed = 5, [0.0, 1.0, float("inf")], 30, 13
        got = gain_cdf(list(self.BOOKS), n, ks, trials, seed)
        for ki, k in enumerate(ks):
            channels = [sample_rician(n, 4, k, normalize=True, rng=substream(seed, i)) for i in range(trials)]
            for c, book in enumerate(self.BOOKS):
                best = sorted(max(effective_gain(h, w) for w in book.codewords) for h in channels)
                np.testing.assert_allclose(got[ki, c], best, rtol=0, atol=1e-12)


class TestChunkIndependence:
    @pytest.fixture(scope="class")
    def outputs(self):
        books = [nr_codebook_4_2(), proposed_codebook_4_2()]
        runs = {}
        with pytest.MonkeyPatch.context() as mp:
            for chunk in (2048, 512, 7):
                mp.setattr(linksim, "_CHUNK", chunk)
                runs[chunk] = (
                    rate_curve(books, 8, [0.0, 10.0, 20.0], trials=600, seed=10),
                    gain_cdf(books, 8, [0.0, 1.0, float("inf")], trials=600, seed=11),
                )
        return runs

    @pytest.mark.parametrize("chunk", [512, 7])
    def test_rate_curve(self, outputs, chunk):
        ref, got = outputs[2048][0], outputs[chunk][0]
        assert got.results == ref.results
        assert got.diff_mean == ref.diff_mean
        assert got.diff_se == ref.diff_se

    @pytest.mark.parametrize("chunk", [512, 7])
    def test_gain_cdf(self, outputs, chunk):
        assert np.array_equal(outputs[chunk][1], outputs[2048][1])
