import numpy as np
import pytest
from scipy import stats

from grasspack.codebooks import nr_codebook_4_2, proposed_codebook_4_2
from grasspack import linksim
from grasspack.errors import DimensionMismatch, InvalidArgument
from grasspack.grassmann import Codebook
from grasspack.linalg import random_stiefel
from grasspack.rng import substream
from grasspack.linksim import _gains, _grams, _rates, _rayleigh_chunk, _rician_grams, gain_cdf, rate_curve


def e_cols(t, cols):
    return np.eye(t)[:, cols]


# The oracles below write out what the sweeps compute per trial, independently
# of the batched Gram kernels they use.


def rate_formula(h, w, rho):
    """log2 det(I + (rho/M) W^H H^H H W), summed over the eigenvalues of the Gram."""
    hw = np.asarray(h) @ w
    lam = np.linalg.eigvalsh(hw.conj().T @ hw)
    return float(np.sum(np.log2(1.0 + rho / w.shape[1] * lam)))


def gain_formula(h, w):
    """Effective gain ||H W||_F^2."""
    return float(np.linalg.norm(np.asarray(h) @ w) ** 2)


def select(scores):
    """1-based index of the best score, the smallest one on ties."""
    return int(np.argmax(scores)) + 1


def kernel_rates(h, stack, rhos):
    """Rates of one channel for every codeword, as (len(rhos), K), through the sweep kernel."""
    return _rates(_grams(np.asarray(h, dtype=complex)[None]), stack, np.atleast_1d(rhos))[:, 0]


def kernel_gains(h, stack):
    """Gains of one channel for every codeword through the sweep kernel."""
    return _gains(_grams(np.asarray(h, dtype=complex)[None]), stack)[0]


def rayleigh(n, t, seed, trial=0):
    return _rayleigh_chunk([substream(seed, trial)], 1, n, t)[0]


def reference_rician(n, t, ks, seed, trial=0):
    """The normalized Rician channels H = (a L + c R) / sqrt(N T) of one trial,
    one per K in ``ks``, built from substream (seed, trial) in the documented
    draw order: the arrival and departure angles, then, if some K is finite,
    the real and imaginary scattering blocks."""
    rng = substream(seed, trial)
    arrival, departure = rng.uniform(-np.pi / 2, np.pi / 2, 2)
    a_r = np.exp(1j * np.pi * np.sin(arrival) * np.arange(n))
    a_t = np.exp(1j * np.pi * np.sin(departure) * np.arange(t))
    los = np.outer(a_r, a_t.conj())
    if any(not np.isinf(k) for k in ks):
        ray = (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))) / np.sqrt(2.0)
    out = []
    for k in ks:
        h = los if np.isinf(k) else np.sqrt(k / (k + 1)) * los + np.sqrt(1 / (k + 1)) * ray
        out.append(h / np.sqrt(n * t))
    return out


def rician(n, t, k, seed):
    """The oracle channel of trial 0 under run seed ``seed``, rescaled by
    sqrt(N T) to the unnormalized power ||H_LoS||_F^2 = N T."""
    return reference_rician(n, t, [k], seed)[0] * np.sqrt(n * t)


class TestSampleRayleigh:
    def test_per_entry_variance(self):
        h = rayleigh(100, 1000, seed=0)  # 1e5 entries
        assert np.mean(np.abs(h) ** 2) == pytest.approx(1.0, rel=0.02)

    def test_zero_mean(self):
        h = rayleigh(100, 1000, seed=1)
        n = h.size
        bound = 3.0 / np.sqrt(n)  # 3 sigma for the mean of unit-variance entries
        assert abs(h.mean()) < bound

    def test_deterministic(self):
        a = rayleigh(4, 3, seed=7)
        b = rayleigh(4, 3, seed=7)
        assert np.array_equal(a, b)

    def test_chunk_matches_two_draws_per_trial(self):
        # each trial draws its real block, then its imaginary block
        got = _rayleigh_chunk([substream(3, i) for i in range(50)], 50, 5, 3)
        want = []
        for i in range(50):
            rng = substream(3, i)
            want.append((rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))) / np.sqrt(2.0))
        assert np.array_equal(got, np.stack(want))


class TestSampleRician:
    def test_k_zero_matches_rayleigh_distribution(self):
        ray = np.abs(rayleigh(100, 100, seed=2)).ravel()
        ric = np.abs(rician(100, 100, 0.0, seed=3)).ravel()
        assert stats.ks_2samp(ray, ric).pvalue > 0.01

    def test_k_inf_rank_one(self):
        for seed in range(5):
            h = rician(8, 4, float("inf"), seed=seed)
            sv = np.linalg.svd(h, compute_uv=False)
            assert sv[1] < 1e-10 * sv[0]

    def test_k_one_power_bookkeeping(self):
        trials = 20000
        # the sweep's channels are normalized to E||H||_F^2 = 1
        total = sum(np.linalg.norm(reference_rician(4, 4, [1.0], seed)[0]) ** 2 for seed in range(trials))
        assert total / trials == pytest.approx(1.0, rel=0.02)

    def test_normalized_power(self):
        h = reference_rician(4, 4, [float("inf")], 0)[0]
        assert np.linalg.norm(h) ** 2 == pytest.approx(1.0, abs=1e-12)


class TestRicianGrams:
    KS = (0.0, 0.5, 1.0, 10.0, float("inf"))

    @pytest.mark.parametrize("t", [2, 4, 8])
    @pytest.mark.parametrize("n", [1, 5, 32])
    def test_grams_match_oracle_channels(self, n, t):
        trials, seed = 40, 14
        grams = _rician_grams([substream(seed, i) for i in range(trials)], trials, n, t, self.KS)
        assert len(grams) == len(self.KS)
        for i in range(trials):
            for k, g, h in zip(self.KS, grams, reference_rician(n, t, self.KS, seed, trial=i)):
                want = h.conj().T @ h
                scale = np.linalg.norm(want)
                assert np.linalg.norm(g[i] - want) <= 1e-13 * scale, (k, i)
                assert np.linalg.norm(g[i] - g[i].conj().T) <= 1e-13 * scale, (k, i)
                assert np.trace(g[i]).real == pytest.approx(np.linalg.norm(h) ** 2, rel=1e-13), (k, i)


class TestAchievableRate:
    def test_identity_channel(self):
        rate = kernel_rates(np.eye(4), e_cols(4, [0, 1])[None], 2.0)[0, 0]
        assert rate == pytest.approx(2.0, abs=1e-12)

    def test_zero_channel(self):
        assert kernel_rates(np.zeros((4, 4)), e_cols(4, [0, 1])[None], 2.0)[0, 0] == 0.0

    def test_determinant_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
            w = random_stiefel(4, 2, rng)
            got = kernel_rates(h, w[None], 1.7)[0, 0]
            gram = w.conj().T @ h.conj().T @ h @ w
            want = float(np.log2(np.linalg.det(np.eye(2) + (1.7 / 2) * gram).real))
            assert got == pytest.approx(want, abs=1e-10)
            assert rate_formula(h, w, 1.7) == pytest.approx(want, abs=1e-10)

    def test_monotone_in_rho(self):
        rng = np.random.default_rng(5)
        h = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
        w = random_stiefel(4, 2, rng)
        rates = kernel_rates(h, w[None], [0.0, 0.5, 1.0, 4.0, 16.0])[:, 0]
        assert all(b >= a for a, b in zip(rates, rates[1:]))

    def test_subspace_invariance(self):
        rng = np.random.default_rng(6)
        h = rng.standard_normal((5, 4)) + 1j * rng.standard_normal((5, 4))
        w = random_stiefel(4, 2, rng)
        u = random_stiefel(2, 2, rng)
        rates = kernel_rates(h, np.stack([w, w @ u]), 3.0)[0]
        assert rates[0] == pytest.approx(rates[1], abs=1e-9)


class TestKernelsMatchFormulas:
    @pytest.mark.parametrize("t, m, k", [(4, 1, 8), (6, 3, 32), (8, 2, 16)])
    def test_rates_and_gains(self, t, m, k):
        rng = np.random.default_rng(t * 100 + m * 10 + k)
        stack = np.stack([random_stiefel(t, m, rng) for _ in range(k)])
        hh = rng.standard_normal((9, 5, t)) + 1j * rng.standard_normal((9, 5, t))
        rhos = np.array([0.3, 1.0, 30.0])
        g = _grams(hh)
        rates, gains = _rates(g, stack, rhos), _gains(g, stack)
        assert rates.shape == (3, 9, k) and gains.shape == (9, k)
        for b, h in enumerate(hh):
            for si, rho in enumerate(rhos):
                want = [rate_formula(h, w, rho) for w in stack]
                np.testing.assert_allclose(rates[si, b], want, rtol=1e-12, atol=0)
            np.testing.assert_allclose(gains[b], [gain_formula(h, w) for w in stack], rtol=1e-12, atol=0)


class TestSelection:
    def test_zeroed_columns(self):
        book = Codebook((e_cols(4, [0, 1]), e_cols(4, [2, 3])))
        rng = np.random.default_rng(7)
        h = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h[:, 2:] = 0
        rates = kernel_rates(h, book.stack(), 1.0)[0]
        assert rates[0] > 0 and rates[1] == 0.0
        assert select(rates) == select([rate_formula(h, w, 1.0) for w in book]) == 1

    def test_zero_channel_tie_break(self):
        book = Codebook((e_cols(4, [0, 1]), e_cols(4, [2, 3])))
        h = np.zeros((4, 4))
        assert select(kernel_rates(h, book.stack(), 1.0)[0]) == 1
        assert select(kernel_gains(h, book.stack())) == 1

    def test_selected_rate_is_max(self):
        book = proposed_codebook_4_2()
        rng = np.random.default_rng(8)
        for _ in range(10):
            h = rng.standard_normal((6, 4)) + 1j * rng.standard_normal((6, 4))
            rates = kernel_rates(h, book.stack(), 2.0)[0]
            want = [rate_formula(h, w, 2.0) for w in book]
            np.testing.assert_allclose(rates, want, rtol=0, atol=1e-12)
            assert rates[select(want) - 1] >= rates.max() - 1e-12

    def test_channel_t_mismatch(self):
        book = proposed_codebook_4_2()
        other = Codebook((e_cols(5, [0, 1]),))
        with pytest.raises(DimensionMismatch):
            rate_curve([book, other], 3, [0.0], trials=10, seed=0)

    def test_gain_selection_diag(self):
        book = Codebook((e_cols(4, [0, 1]), e_cols(4, [2, 3])))
        gains = kernel_gains(np.diag([2.0, 2.0, 1.0, 1.0]), book.stack())
        np.testing.assert_allclose(gains, [8.0, 2.0], rtol=0, atol=1e-12)
        assert select(gains) == 1

    def test_gain_rank_one_factorization(self):
        book = proposed_codebook_4_2()
        ch = rician(8, 4, float("inf"), seed=11)
        gains = kernel_gains(ch, book.stack())
        # for a rank-one channel the gain factors into ||a_r||^2 ||a_t^H W||^2
        u, s, vh = np.linalg.svd(ch)
        a_r = u[:, 0] * s[0]
        a_t = vh[0].conj()
        factored = [np.linalg.norm(a_r) ** 2 * np.linalg.norm(w.conj().T @ a_t) ** 2 for w in book]
        np.testing.assert_allclose(gains, factored, rtol=0, atol=1e-9)
        np.testing.assert_allclose(gains, [gain_formula(ch, w) for w in book], rtol=0, atol=1e-12)
        assert gains[select(factored) - 1] == pytest.approx(max(factored), abs=1e-9)


class TestRateCurve:
    def test_positive_rate_single_codebook(self):
        book = Codebook((e_cols(4, [0, 1]),))
        sweep = rate_curve([book], 4, [10.0], trials=50, seed=0)
        assert sweep.mean_rates[0, 0] > 0

    def test_duplicate_codewords_leave_curve_unchanged(self):
        base = proposed_codebook_4_2()
        doubled = Codebook(np.concatenate([base.stack(), base.stack()]))
        sweep = rate_curve([base, doubled], 8, [0.0, 10.0], trials=200, seed=1)
        assert sweep.diff_mean[(0, 1)].tolist() == [0.0, 0.0]

    def test_identical_books_zero_difference(self):
        book = nr_codebook_4_2()
        sweep = rate_curve([book, book], 8, [10.0], trials=100, seed=2)
        assert sweep.diff_mean[(0, 1)].tolist() == [0.0]
        assert sweep.diff_se[(0, 1)].tolist() == [0.0]

    def test_bit_identical_reruns(self):
        books = [nr_codebook_4_2(), proposed_codebook_4_2()]
        s1 = rate_curve(books, 8, [5.0, 15.0], trials=300, seed=3)
        s2 = rate_curve(books, 8, [5.0, 15.0], trials=300, seed=3)
        assert s1.mean_rates.tobytes() == s2.mean_rates.tobytes()
        assert s1.diff_mean.keys() == s2.diff_mean.keys() == s1.diff_se.keys() == s2.diff_se.keys()
        for pair in s1.diff_mean:
            assert s1.diff_mean[pair].tobytes() == s2.diff_mean[pair].tobytes()
            assert s1.diff_se[pair].tobytes() == s2.diff_se[pair].tobytes()

    def test_zero_trials_rejected(self):
        with pytest.raises(InvalidArgument):
            rate_curve([proposed_codebook_4_2()], 8, [0.0], trials=0, seed=0)

    @pytest.mark.parametrize("n", [0, -1])
    def test_no_receive_antenna_rejected(self, n):
        with pytest.raises(InvalidArgument):
            rate_curve([proposed_codebook_4_2()], n, [0.0], trials=10, seed=0)

    # 10 ** (snr / 10) overflows above about 3083 dB, and rho * lambda at 3080 dB
    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("snr_db", [[np.nan], [np.inf], [0.0, -np.inf], [4000.0], [0.0, 3080.0], [3000.1]])
    def test_non_finite_snr_rejected(self, snr_db):
        with pytest.raises(InvalidArgument):
            rate_curve([proposed_codebook_4_2()], 4, snr_db, trials=5, seed=0)

    @pytest.mark.filterwarnings("error")
    def test_highest_snr_point_gives_finite_rates(self):
        sweep = rate_curve([nr_codebook_4_2(), proposed_codebook_4_2()], 4, [3000.0], trials=50, seed=0)
        assert np.all(np.isfinite(sweep.mean_rates))

    def test_rates_nondecreasing_in_snr(self):
        sweep = rate_curve([proposed_codebook_4_2()], 8, [0, 5, 10, 15], trials=100, seed=4)
        rates = sweep.mean_rates[0]
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
        doubled = Codebook(np.concatenate([base.stack(), base.stack()[:1]]))
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
        with pytest.raises(InvalidArgument):
            gain_cdf(book, 4, 0.0, trials=0, seed=0)
        for n in (0, -1):
            with pytest.raises(InvalidArgument):
                gain_cdf(book, n, 0.0, trials=10, seed=0)
        with pytest.raises(InvalidArgument):
            gain_cdf([], 4, 0.0, trials=10, seed=0)
        with pytest.raises(DimensionMismatch):
            gain_cdf([book, Codebook((e_cols(3, [0, 1]),))], 4, 0.0, trials=10, seed=0)
        with pytest.raises(InvalidArgument):
            gain_cdf(book, 4, [], trials=10, seed=0)
        with pytest.raises(InvalidArgument):
            gain_cdf(book, 4, [1.0, -1.0], trials=10, seed=0)
        with pytest.raises(InvalidArgument):
            gain_cdf(book, 4, -0.5, trials=10, seed=0)
        for k in (True, "1"):
            with pytest.raises(InvalidArgument):
                gain_cdf(book, 4, k, trials=10, seed=0)


class TestSweepsMatchSingleTrials:
    BOOKS = (nr_codebook_4_2(), proposed_codebook_4_2())

    def test_rate_curve(self):
        n, snr_db, trials, seed = 3, [0.0, 10.0], 30, 12
        sweep = rate_curve(self.BOOKS, n, snr_db, trials, seed)
        channels = [rayleigh(n, 4, seed, trial=i) for i in range(trials)]
        for book, mean_rates in zip(self.BOOKS, sweep.mean_rates):
            for si, snr in enumerate(snr_db):
                rho = 10.0 ** (snr / 10.0)
                best = []
                for h in channels:
                    rates = [rate_formula(h, w, rho) for w in book]
                    best.append(rates[select(rates) - 1])
                assert mean_rates[si] == pytest.approx(np.mean(best), abs=1e-12)

    def test_gain_cdf(self):
        n, ks, trials, seed = 5, [0.0, 1.0, float("inf")], 30, 13
        got = gain_cdf(list(self.BOOKS), n, ks, trials, seed)
        # trial i draws from substream (seed, i) in the documented order
        per_trial = [reference_rician(n, 4, ks, seed, trial=i) for i in range(trials)]
        for ki, channels in enumerate(zip(*per_trial)):
            for c, book in enumerate(self.BOOKS):
                best = []
                for h in channels:
                    gains = [gain_formula(h, w) for w in book]
                    best.append(gains[select(gains) - 1])
                np.testing.assert_allclose(got[ki, c], sorted(best), rtol=0, atol=1e-12)


@pytest.mark.parametrize("block_points", [1, 2])
def test_snr_blocks_do_not_change_rate_curve(monkeypatch, block_points):
    books = [nr_codebook_4_2(), proposed_codebook_4_2()]
    snr = [0.0, 5.0, 10.0, 20.0, 30.0]
    ref = rate_curve(books, 8, snr, trials=300, seed=12)
    # bytes of one SNR point's eigenvalues for a 300-trial chunk of a 22-word M = 2 book
    monkeypatch.setattr(linksim, "_RATE_BLOCK_BYTES", block_points * 300 * 22 * 2 * 8)
    got = rate_curve(books, 8, snr, trials=300, seed=12)
    assert got.mean_rates.tobytes() == ref.mean_rates.tobytes()
    for pair in ref.diff_mean:
        assert got.diff_mean[pair].tobytes() == ref.diff_mean[pair].tobytes()
        assert got.diff_se[pair].tobytes() == ref.diff_se[pair].tobytes()


class TestChunkIndependence:
    @pytest.fixture(scope="class")
    def outputs(self):
        books = [nr_codebook_4_2(), proposed_codebook_4_2()]
        runs = {}
        with pytest.MonkeyPatch.context() as mp:
            for chunk in (2048, 512, 7, 1):
                mp.setattr(linksim, "_CHUNK", chunk)
                runs[chunk] = (
                    rate_curve(books, 8, [0.0, 10.0, 20.0], trials=600, seed=10),
                    gain_cdf(books, 8, [0.0, 1.0, float("inf")], trials=600, seed=11),
                )
        return runs

    @pytest.mark.parametrize("chunk", [512, 7, 1])
    def test_rate_curve(self, outputs, chunk):
        ref, got = outputs[2048][0], outputs[chunk][0]
        assert got.mean_rates.tobytes() == ref.mean_rates.tobytes()
        assert got.diff_mean.keys() == ref.diff_mean.keys() == got.diff_se.keys() == ref.diff_se.keys()
        for pair in ref.diff_mean:
            assert got.diff_mean[pair].tobytes() == ref.diff_mean[pair].tobytes()
            assert got.diff_se[pair].tobytes() == ref.diff_se[pair].tobytes()

    @pytest.mark.parametrize("chunk", [512, 7, 1])
    def test_gain_cdf(self, outputs, chunk):
        assert np.array_equal(outputs[chunk][1], outputs[2048][1])
