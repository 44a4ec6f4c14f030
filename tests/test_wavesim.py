import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from grasspack.codebooks import OptimizerConfig, build_sparse_2M, proposed_codebook_4_2
from grasspack import wavesim
from grasspack.errors import DimensionMismatch, InvalidArgument
from grasspack.grassmann import Codebook
from grasspack.rng import substream
from grasspack.wavesim import (
    _QPSK,
    WaveformConfig,
    _buffers,
    _frames,
    _precoders,
    _scale_classes,
    _streams,
    _synthesize,
    ccdf,
    ccdf_threshold_db,
    constellation_samples,
    modulate,
    papr_experiment,
    row_sparse_precoder,
)

FIG_THETAS = [1.91, -2.21, -1.71, 0.636]


def reference_synthesis(rows, cfg):
    """Oracle for the engine's synthesis: the used subcarriers centred in a
    zero-padded spectrum of oversample * n_fft bins, ifftshift, unitary IFFT."""
    qn = cfg.oversample * cfg.n_fft
    spec = np.zeros(rows.shape[:-1] + (qn,), dtype=complex)
    start = qn // 2 - cfg.n_used // 2
    spec[..., start : start + cfg.n_used] = rows
    return np.fft.ifft(np.fft.ifftshift(spec, axes=-1), axis=-1, norm="ortho")


def time_order(x):
    """Polyphase signals (..., oversample, n_fft) -> time order (..., oversample * n_fft)."""
    return x.swapaxes(-1, -2).reshape(x.shape[:-2] + (-1,))


def closed_form_qpsk(bits):
    return ((1.0 - 2.0 * bits[:, 0]) + 1j * (1.0 - 2.0 * bits[:, 1])) / np.sqrt(2.0)


def reference_papr_experiment(source, cfg, trials, seed, antenna_mean=False):
    """Oracle for ``papr_experiment``: every antenna synthesized per frame,
    closed-form QPSK, full-row reference synthesis and power."""
    stack = source.stack() if isinstance(source, Codebook) else np.asarray(source, dtype=complex)[None]
    out = []
    for frame in range(trials):
        rng = substream(seed, frame)
        w = stack[int(rng.integers(stack.shape[0]))] if isinstance(source, Codebook) else stack[0]
        m = w.shape[1]
        symbols = closed_form_qpsk(rng.integers(0, 2, size=(m * cfg.n_used, 2))).reshape(m, cfg.n_used)
        if cfg.waveform == "dft-s-ofdm":
            symbols = np.fft.fft(symbols, axis=1, norm="ortho")
        power = np.abs(reference_synthesis(w @ symbols, cfg)) ** 2
        mean = power.mean(axis=1)
        live = mean > 0
        vals = power[live].max(axis=1) / mean[live]
        if antenna_mean:
            out.append(vals.mean())
        else:
            out.extend(vals)
    return np.sort(np.asarray(out, dtype=float))


def peak_to_mean(x):
    """PAPR of one signal: peak instantaneous power over mean power."""
    power = np.abs(x) ** 2
    return power.max() / power.mean()


def time_signal(row, cfg):
    return time_order(_synthesize(np.asarray(row, dtype=complex)[None, :], cfg, *_buffers(cfg, 1)))[0]


def frame_signals(w, cfg, rng):
    """One frame of the engine: the streams precoded by every row of ``w``, synthesized."""
    return time_order(_synthesize(w @ _streams(w.shape[1], cfg, rng), cfg, *_buffers(cfg, w.shape[0])))


def draws(source, trials, seed):
    return [k for k, _ in _frames(_precoders(source), trials, seed)]


class TestConfig:
    def test_valid(self):
        WaveformConfig(n_used=624, n_fft=1024, oversample=8, waveform="dft-s-ofdm")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_used=0, n_fft=64),
            dict(n_used=65, n_fft=64),
            dict(n_used=60, n_fft=60),
            dict(n_used=32, n_fft=64, oversample=3),
            dict(n_used=32, n_fft=64, oversample=0),
            dict(n_used=32, n_fft=64, waveform="fbmc"),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(InvalidArgument):
            WaveformConfig(**kwargs)


class TestModulate:
    def test_average_power(self):
        s = modulate(100000, substream(0, 0))
        assert np.mean(np.abs(s) ** 2) == pytest.approx(1.0, rel=0.01)

    def test_alphabet(self):
        s = modulate(1000, substream(1, 0))
        expected = {
            complex(a, b)
            for a in (1 / np.sqrt(2), -1 / np.sqrt(2))
            for b in (1 / np.sqrt(2), -1 / np.sqrt(2))
        }
        assert set(np.round(s, 12)) == {complex(np.round(z.real, 12), np.round(z.imag, 12)) for z in expected}

    def test_deterministic(self):
        assert np.array_equal(modulate(64, substream(2, 0)), modulate(64, substream(2, 0)))

    def test_table_matches_closed_form(self):
        # the lookup table holds the closed-form symbol of every bit pair,
        # bit for bit, so the modulated stream is unchanged
        pairs = np.array([[0, 0], [0, 1], [1, 0], [1, 1]])
        assert _QPSK.tobytes() == closed_form_qpsk(pairs).tobytes()
        bits = substream(20, 0).integers(0, 2, size=(4099, 2))
        assert modulate(4099, substream(20, 0)).tobytes() == closed_form_qpsk(bits).tobytes()


class TestDftSpread:
    def test_parseval(self):
        # spreading and synthesis are unitary: each antenna of a truncated
        # identity precoder carries its stream's symbol energy
        cfg = WaveformConfig(n_used=624, n_fft=1024, oversample=2, waveform="dft-s-ofdm")
        signals = frame_signals(np.eye(4, dtype=complex)[:, :2], cfg, substream(3, 0))
        symbols = modulate(2 * 624, substream(3, 0)).reshape(2, 624)
        np.testing.assert_allclose(np.linalg.norm(signals[:2], axis=1), np.linalg.norm(symbols, axis=1), atol=1e-10)


class TestPrecodeGrid:
    """The frame engine applies one wideband precoder to every subcarrier."""

    @staticmethod
    def frame(w, seed, n_used):
        cfg = WaveformConfig(n_used=n_used, n_fft=2 * n_used, oversample=2)
        streams = modulate(w.shape[1] * n_used, substream(seed, 0)).reshape(w.shape[1], n_used)
        return frame_signals(w, cfg, substream(seed, 0)), streams, cfg

    def test_truncated_identity_routes_streams(self):
        signals, streams, cfg = self.frame(np.eye(4, dtype=complex)[:, :2], 4, 16)
        np.testing.assert_allclose(signals[:2], reference_synthesis(streams, cfg), atol=1e-15)
        assert np.all(signals[2:] == 0)

    def test_one_row_sparse_is_phase_rotation(self):
        w = row_sparse_precoder(4, 2, 1, thetas=FIG_THETAS)
        signals, streams, cfg = self.frame(w, 5, 8)
        scale = np.sqrt(2 / (1 * 4))
        expected = scale * np.exp(1j * FIG_THETAS[0]) * reference_synthesis(streams[0], cfg)
        np.testing.assert_allclose(signals[0], expected, atol=1e-15)

    def test_per_subcarrier_energy_oracle(self):
        rng = np.random.default_rng(6)
        w = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        signals, streams, cfg = self.frame(w, 7, 8)
        grid = np.empty((4, 8), dtype=complex)
        for k in range(8):
            grid[:, k] = w @ streams[:, k]
        np.testing.assert_allclose(signals, reference_synthesis(grid, cfg), atol=1e-15)


class TestTimeDomain:
    def test_single_tone_papr_one(self):
        cfg = WaveformConfig(n_used=64, n_fft=64, oversample=4)
        row = np.zeros(64, dtype=complex)
        row[13] = 1.0
        assert peak_to_mean(time_signal(row, cfg)) == pytest.approx(1.0, abs=1e-9)

    def test_two_tone_papr_two(self):
        cfg = WaveformConfig(n_used=64, n_fft=64, oversample=4)
        row = np.zeros(64, dtype=complex)
        row[10] = row[20] = 1.0
        assert peak_to_mean(time_signal(row, cfg)) == pytest.approx(2.0, abs=1e-6)

    def test_zero_grid_zero_signal(self):
        cfg = WaveformConfig(n_used=16, n_fft=32, oversample=2)
        assert np.all(time_signal(np.zeros(16, dtype=complex), cfg) == 0)

    def test_oversampling_never_lowers_peak(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            row = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            p1 = peak_to_mean(time_signal(row, WaveformConfig(n_used=64, n_fft=64, oversample=1)))
            p8 = peak_to_mean(time_signal(row, WaveformConfig(n_used=64, n_fft=64, oversample=8)))
            assert p8 >= p1 - 1e-9


@st.composite
def synthesis_case(draw):
    """A config with n_used <= n_fft <= 64 and a small complex grid for it."""
    n_fft = 2 ** draw(st.integers(0, 6))
    cfg = WaveformConfig(
        n_used=draw(st.integers(1, n_fft)),
        n_fft=n_fft,
        oversample=draw(st.sampled_from([1, 2, 4, 8])),
        waveform=draw(st.sampled_from(["ofdm", "dft-s-ofdm"])),
    )
    rows = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    grid = rng.standard_normal((rows, cfg.n_used)) + 1j * rng.standard_normal((rows, cfg.n_used))
    return cfg, grid, rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))


class TestSynthesis:
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(synthesis_case())
    def test_polyphase_matches_reference(self, case):
        # the folded short transforms equal the zero-padded long one, for odd
        # and even bands up to the full grid, also on a second grid and on
        # fewer rows through the same reused buffers, sized for 3 rows
        cfg, grid, w = case
        buffers = _buffers(cfg, 3)
        for rows in (grid, grid[::-1] * 1j, grid[:1] * 2.0):
            want = reference_synthesis(rows, cfg)
            got = time_order(_synthesize(rows, cfg, *buffers))
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())
        symbols = modulate(2 * cfg.n_used, substream(1, 0)).reshape(2, cfg.n_used)
        if cfg.waveform == "dft-s-ofdm":
            symbols = np.fft.fft(symbols, axis=1, norm="ortho")
        want = reference_synthesis(w @ symbols, cfg)
        got = time_order(_synthesize(w @ _streams(2, cfg, substream(1, 0)), cfg, *buffers))
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestPapr:
    # each sample of papr_experiment is peak over mean power of one antenna signal
    def test_constant_envelope(self):
        # one OFDM subcarrier is a pure tone at any oversampling
        cfg = WaveformConfig(n_used=1, n_fft=16, oversample=4)
        w = row_sparse_precoder(4, 2, 2, seed=9)
        got = papr_experiment(w, cfg, 10, seed=31)
        assert got.shape == (40,)
        np.testing.assert_allclose(got, 1.0, rtol=0, atol=1e-12)

    def test_hand_ratio(self):
        # two subcarriers at n_fft = 2 give the samples (a + b, a - b) / sqrt(2)
        # of two QPSK symbols: powers (2, 0) when b = +-a, PAPR 2, and
        # (1, 1) when b = +-ja, PAPR 1
        cfg = WaveformConfig(n_used=2, n_fft=2)
        got = papr_experiment(np.eye(2)[:, :1], cfg, 40, seed=32)
        assert got.shape == (40,)
        assert np.all(np.isclose(got, 1.0, rtol=0, atol=1e-12) | np.isclose(got, 2.0, rtol=0, atol=1e-12))
        assert 1.5 < got.max() and got.min() < 1.5

    @pytest.mark.filterwarnings("error")
    def test_zero_signal(self):
        # an all-zero precoder drives no antenna, so it gives no samples,
        # pooled or averaged per frame, and no mean of an empty slice
        cfg = WaveformConfig(n_used=5, n_fft=8, oversample=2)
        assert papr_experiment(np.zeros((3, 2)), cfg, 4, seed=33).shape == (0,)
        assert papr_experiment(np.zeros((3, 2)), cfg, 3, antenna_mean=True).shape == (0,)


class TestCcdf:
    def test_point_mass_at_two(self):
        samples = np.full(100, 2.0)
        out = ccdf(samples, [3.0, 3.02])
        assert out[0] == 1.0 and out[1] == 0.0

    def test_below_min_threshold(self):
        out = ccdf(np.array([2.0, 4.0, 8.0]), [0.0])
        assert out[0] == 1.0

    def test_nonincreasing(self):
        rng = np.random.default_rng(10)
        samples = 1.0 + rng.exponential(2.0, size=1000)
        probs = ccdf(samples, np.linspace(0, 12, 40))
        assert np.all(np.diff(probs) <= 0)

    @pytest.mark.parametrize("n", [1, 2, 7, 100, 1601])
    def test_matches_per_threshold_mean(self, n):
        rng = np.random.default_rng(n)
        samples = 1.0 + rng.exponential(2.0, size=n)  # unsorted, as pooled
        samples[:: max(1, n // 4)] = samples[0]  # ties
        db = 10.0 * np.log10(samples)
        thr = np.concatenate([np.linspace(-3.0, 15.0, 73), db[:5]])
        expected = np.array([(db > t).mean() for t in thr])
        assert ccdf(samples, thr).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_thresholds_rejected(self, bad):
        with pytest.raises(InvalidArgument):
            ccdf(np.array([2.0, 4.0]), [3.0, bad])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -1.0, 0.5, 1.0 - 1e-8])
    def test_non_papr_samples_rejected(self, bad):
        # a peak-to-mean ratio is finite and never below 1
        samples = np.array([4.0, 2.0, bad, 8.0])
        with pytest.raises(InvalidArgument):
            ccdf(samples, [0.0, 3.0])
        with pytest.raises(InvalidArgument):
            ccdf_threshold_db(samples, 0.5)

    def test_constant_modulus_frame_passes(self):
        # Nyquist-rate single-carrier frames of one stream per antenna are
        # unit-modulus QPSK, so their PAPR is 1 up to a few ulps either way
        cfg = WaveformConfig(n_used=64, n_fft=64, waveform="dft-s-ofdm")
        samples = papr_experiment(row_sparse_precoder(4, 2, 1, thetas=FIG_THETAS), cfg, 20, seed=3)
        np.testing.assert_allclose(samples, 1.0, rtol=0, atol=1e-12)
        assert ccdf(samples, [-1.0, 1.0]).tolist() == [1.0, 0.0]
        assert ccdf_threshold_db(samples, 0.5) == pytest.approx(0.0, abs=1e-11)

    @pytest.mark.parametrize("prob", [None, "0.5", 0.0, 1.0])
    def test_prob_outside_the_open_unit_interval_rejected(self, prob):
        # a non-number once raised Python's TypeError
        with pytest.raises(InvalidArgument):
            ccdf_threshold_db([2.0, 3.0], prob)

    def test_empty_samples_rejected(self):
        with pytest.raises(InvalidArgument):
            ccdf([], [3.0])
        with pytest.raises(InvalidArgument):
            ccdf_threshold_db([], 0.5)


class TestRowSparsePrecoder:
    def test_magnitudes(self):
        for ell in (1, 2, 3, 4):
            w = row_sparse_precoder(8, 4, ell, thetas=FIG_THETAS)
            nz = np.abs(w[np.abs(w) > 0])
            assert np.allclose(nz, np.sqrt(4 / (ell * 8)))
            assert np.all(np.count_nonzero(w, axis=1) == ell)

    def test_random_mode_counts(self):
        w = row_sparse_precoder(6, 3, 2, seed=11)
        assert np.all(np.count_nonzero(w, axis=1) == 2)

    @pytest.mark.parametrize("t,m,ell", [(8, 4, 3), (8, 4, 4), (6, 3, 1), (3, 5, 2)])
    def test_matches_per_row_formula(self, t, m, ell):
        mag = np.sqrt(m / (ell * t))
        fixed = np.zeros((t, m), dtype=complex)
        drawn = np.zeros((t, m), dtype=complex)
        rng = substream(5, 0x9A5E, 1)
        for row in range(t):
            fixed[row, :ell] = mag * np.exp(1j * np.asarray(FIG_THETAS + [0.3])[:ell])
            cols = (row + np.arange(ell)) % m
            drawn[row, cols] = mag * np.exp(1j * rng.uniform(-np.pi, np.pi, ell))
        assert row_sparse_precoder(t, m, ell, thetas=FIG_THETAS + [0.3]).tobytes() == fixed.tobytes()
        assert row_sparse_precoder(t, m, ell, seed=5).tobytes() == drawn.tobytes()

    def test_invalid_ell(self):
        with pytest.raises(InvalidArgument):
            row_sparse_precoder(8, 4, 5)
        with pytest.raises(InvalidArgument):
            row_sparse_precoder(8, 4, 0)

    @pytest.mark.parametrize("t", [0, -1])
    def test_invalid_antenna_count(self, t):
        with pytest.raises(InvalidArgument):
            row_sparse_precoder(t, 2, 1)
        with pytest.raises(InvalidArgument):
            row_sparse_precoder(t, 2, 1, thetas=FIG_THETAS)

    def test_too_few_thetas(self):
        with pytest.raises(DimensionMismatch):
            row_sparse_precoder(8, 4, 3, thetas=[0.1, 0.2])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_thetas_rejected(self, bad):
        # a NaN phase once gave NaN rows, which the PAPR engine took for silent antennas
        with pytest.raises(InvalidArgument, match="thetas"):
            row_sparse_precoder(4, 2, 1, thetas=[bad])
        with pytest.raises(InvalidArgument, match="thetas"):
            row_sparse_precoder(8, 4, 2, thetas=[0.5, 1.0, bad])


def _random_stiefel(t, m, seed):
    rng = np.random.default_rng(seed)
    return np.linalg.qr(rng.standard_normal((t, m)) + 1j * rng.standard_normal((t, m)))[0]


def _zero_row_precoder():
    w = row_sparse_precoder(6, 3, 2, seed=4)
    w[[1, 4]] = 0
    return w


def _mixed_row_precoder():
    """Rows 0-2 one class (equal, equal, an exact multiple), rows 3 and 5
    distinct, rows 4 and 6 zero; signed zeros in rows 1, 5 and 6."""
    a = np.array([0.0, 0.3 - 0.4j, 0.0, 0.2j])
    w = np.array(
        [
            a,
            a * (1.0 + 0.0j),
            -2.0 * a,
            [0.5, 0.1j, -0.3, 0.0],
            np.zeros(4),
            [0.0, 0.0, 0.7 + 0.1j, 0.0],
            np.zeros(4),
        ]
    )
    w[1, 0] = w[1, 2] = complex(-0.0, -0.0)
    w[5, 0] = w[5, 3] = complex(0.0, -0.0)
    w[6] = complex(-0.0, 0.0)
    return w


QUARTER_SPARSE_2_8 = build_sparse_2M(2, 8, OptimizerConfig(seed=0, phase_grid=(-np.pi / 2, 0.0, np.pi / 2, np.pi)))
DENSE_BOOK = Codebook([_random_stiefel(4, 2, s) for s in range(5)])
ENGINE_SOURCES = {
    "sparse2m_quarter": QUARTER_SPARSE_2_8,
    "dense_book": DENSE_BOOK,
    "rows_thetas": row_sparse_precoder(8, 4, 3, thetas=FIG_THETAS),
    "rows_random": row_sparse_precoder(8, 4, 2, seed=9),
    "zero_rows": _zero_row_precoder(),
    "mixed_rows": _mixed_row_precoder(),
}


def reference_draws(source, trials, seed):
    """Codeword index of each frame: drawn first from the frame's substream."""
    if not isinstance(source, Codebook):
        return [0] * trials
    return [int(substream(seed, frame).integers(len(source))) for frame in range(trials)]


class TestPaprExperiment:
    @pytest.mark.parametrize("oversample", [1, 8])
    @pytest.mark.parametrize("antenna_mean", [False, True])
    @pytest.mark.parametrize("waveform", ["ofdm", "dft-s-ofdm"])
    @pytest.mark.parametrize("source", sorted(ENGINE_SOURCES))
    def test_matches_per_frame_reference(self, source, waveform, antenna_mean, oversample):
        # synthesizing one row per scale class by polyphase transforms
        # reproduces the all-antenna engine to rounding; the odd n_used puts
        # one more bin above DC than below
        cfg = WaveformConfig(n_used=5, n_fft=8, oversample=oversample, waveform=waveform)
        src = ENGINE_SOURCES[source]
        got = papr_experiment(src, cfg, 40, seed=23, antenna_mean=antenna_mean)
        expected = reference_papr_experiment(src, cfg, 40, 23, antenna_mean)
        assert got.shape == expected.shape
        assert draws(src, 40, 23) == reference_draws(src, 40, 23)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)

    def test_matches_reference_at_benchmark_size(self):
        cfg = WaveformConfig(n_used=624, n_fft=1024, oversample=8, waveform="dft-s-ofdm")
        got = papr_experiment(QUARTER_SPARSE_2_8, cfg, 6, seed=24)
        expected = reference_papr_experiment(QUARTER_SPARSE_2_8, cfg, 6, 24)
        assert got.shape == expected.shape == (6 * 4,)
        assert draws(QUARTER_SPARSE_2_8, 6, 24) == reference_draws(QUARTER_SPARSE_2_8, 6, 24)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)

    def test_scale_classes(self):
        # a T = 2M pair codeword carries M signals, as do one-nonzero rows
        # with random phases; the mixed precoder has one class of three rows,
        # two distinct rows and the zero rows, with signed zeros among them
        for w in QUARTER_SPARSE_2_8.stack():
            assert len(_scale_classes(w)[0]) == 2
        assert len(_scale_classes(row_sparse_precoder(8, 2, 1, seed=6))[0]) == 2
        # the zero rows 4 and 6 belong to no class: inverse covers rows 0-3 and 5
        first, inverse = _scale_classes(_mixed_row_precoder())
        assert sorted(first) == [0, 3, 5]
        assert inverse.size == 5
        assert inverse[0] == inverse[1] == inverse[2]
        assert len({inverse[0], inverse[3], inverse[4]}) == 3
        first, inverse = _scale_classes(_zero_row_precoder())
        assert sorted(first) == [0, 2, 3, 5] and sorted(inverse) == [0, 1, 2, 3]

    def test_zero_rows_not_synthesized(self, monkeypatch):
        # rows 1 and 4 of the precoder are zero: each frame synthesizes the
        # other 4 rows only, and the samples still match the reference
        synthesized = []

        def spy(grid, *args):
            synthesized.append(grid.shape[0])
            return _synthesize(grid, *args)

        monkeypatch.setattr(wavesim, "_synthesize", spy)
        cfg = WaveformConfig(n_used=5, n_fft=8, oversample=8)
        got = papr_experiment(_zero_row_precoder(), cfg, 40, seed=23)
        assert synthesized == [4] * 40
        expected = reference_papr_experiment(_zero_row_precoder(), cfg, 40, 23)
        assert got.shape == expected.shape == (40 * 4,)
        np.testing.assert_allclose(got, expected, rtol=1e-13, atol=0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_source_rejected(self, bad):
        # rejected before any arithmetic, so no numpy warning and no dropped antenna
        w = np.array([[bad, 0.0], [1.0, 0.0]])
        with pytest.raises(InvalidArgument):
            papr_experiment(w, WaveformConfig(12, 16), 2)

    @pytest.mark.parametrize("waveform", ["ofdm", "dft-s-ofdm"])
    @pytest.mark.parametrize("source", ["dense_book", "rows_random", "mixed_rows"])
    def test_row_scaling_invariance(self, source, waveform):
        # PAPR ignores a nonzero complex scale per antenna
        cfg = WaveformConfig(n_used=12, n_fft=16, oversample=4, waveform=waveform)
        src = ENGINE_SOURCES[source]
        rng = np.random.default_rng(25)
        stack = src.stack() if isinstance(src, Codebook) else src[None]
        scales = rng.standard_normal(stack.shape[:2]) + 1j * rng.standard_normal(stack.shape[:2])
        scaled = scales[..., None] * stack
        scaled = Codebook(list(scaled)) if isinstance(src, Codebook) else scaled[0]
        got = papr_experiment(scaled, cfg, 30, seed=26)
        np.testing.assert_allclose(got, papr_experiment(src, cfg, 30, seed=26), rtol=1e-13, atol=0)
        np.testing.assert_allclose(got, reference_papr_experiment(src, cfg, 30, 26), rtol=1e-13, atol=0)

    def test_zero_trials_rejected(self):
        cfg = WaveformConfig(n_used=32, n_fft=32)
        with pytest.raises(InvalidArgument):
            papr_experiment(row_sparse_precoder(4, 2, 1, thetas=[0.5, 0.5]), cfg, 0)

    def test_reproducible(self):
        cfg = WaveformConfig(n_used=64, n_fft=64, oversample=2, waveform="dft-s-ofdm")
        w = row_sparse_precoder(4, 2, 2, thetas=FIG_THETAS)
        p1 = papr_experiment(w, cfg, 40, seed=12)
        p2 = papr_experiment(w, cfg, 40, seed=12)
        assert np.array_equal(p1, p2)

    def test_ell_one_equals_unprecoded_single_carrier(self):
        # one nonzero per row is a pure phase rotation of stream 1, so each
        # frame's 8 per-antenna PAPRs match the unprecoded DFT-s-OFDM frame
        # to rounding
        cfg = WaveformConfig(n_used=128, n_fft=128, oversample=4, waveform="dft-s-ofdm")
        w = row_sparse_precoder(8, 4, 1, thetas=FIG_THETAS)
        precoded = papr_experiment(w, cfg, 60, seed=13)
        unprecoded = []
        for frame in range(60):
            rng = substream(13, frame)
            symbols = modulate(4 * 128, rng).reshape(4, 128)
            time = reference_synthesis(np.fft.fft(symbols[0], norm="ortho"), cfg)
            unprecoded.append(peak_to_mean(time))
        np.testing.assert_allclose(precoded, np.repeat(np.sort(unprecoded), 8), rtol=1e-12, atol=0)
        assert stats.ks_2samp(precoded, unprecoded).pvalue > 0.01

    def test_ofdm_time_samples_gaussian(self):
        cfg = WaveformConfig(n_used=256, n_fft=256, waveform="ofdm")
        w = row_sparse_precoder(4, 2, 2, thetas=FIG_THETAS)
        samples = []
        for frame in range(400):
            signals = w @ modulate(2 * 256, substream(14, frame)).reshape(2, 256)
            samples.append(reference_synthesis(signals[0], cfg))
        x = np.concatenate(samples)  # ~1e5 samples
        assert stats.kurtosis(x.real, fisher=False) == pytest.approx(3.0, abs=0.2)
        assert stats.kurtosis(x.imag, fisher=False) == pytest.approx(3.0, abs=0.2)

    def test_codebook_mode_draws_uniformly(self):
        cfg = WaveformConfig(n_used=32, n_fft=32, waveform="dft-s-ofdm")
        book = proposed_codebook_4_2()
        out = papr_experiment(book, cfg, 30, seed=15)
        assert isinstance(out, np.ndarray) and out.ndim == 1
        assert np.all(out >= 1.0)
        assert np.all(np.diff(out) >= 0)

    def test_antenna_mean_mode(self):
        cfg = WaveformConfig(n_used=32, n_fft=32)
        w = row_sparse_precoder(4, 2, 2, thetas=FIG_THETAS)
        pooled = papr_experiment(w, cfg, 25, seed=16)
        averaged = papr_experiment(w, cfg, 25, seed=16, antenna_mean=True)
        assert pooled.size == 25 * 4
        assert averaged.size == 25

    def test_threshold_helper_matches_ccdf(self):
        cfg = WaveformConfig(n_used=64, n_fft=64, oversample=2, waveform="dft-s-ofdm")
        out = papr_experiment(row_sparse_precoder(4, 2, 2, thetas=FIG_THETAS), cfg, 200, seed=17)
        thr = ccdf_threshold_db(out, 0.1)
        prob = ccdf(out, [thr])[0]
        assert prob <= 0.1 + 0.02


class TestConstellation:
    def test_nyquist_sample_count(self):
        cfg = WaveformConfig(n_used=64, n_fft=64, oversample=8, waveform="dft-s-ofdm")
        pts = constellation_samples(row_sparse_precoder(8, 4, 1, thetas=FIG_THETAS), cfg, 5, seed=18)
        assert pts.shape == (5 * 64,)

    def test_ell_one_is_finite_constellation(self):
        # single-stream DFT-s-OFDM at Nyquist rate revisits the rotated QAM points
        cfg = WaveformConfig(n_used=64, n_fft=64, waveform="dft-s-ofdm")
        w = row_sparse_precoder(8, 4, 1, thetas=FIG_THETAS)
        pts = constellation_samples(w, cfg, 10, seed=19)
        assert len(set(np.round(pts, 8))) <= 4 * 64  # coarse: far from Gaussian cloud

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_source_rejected(self, bad):
        w = np.array([[0.0, 1.0], [1.0, bad]])
        with pytest.raises(InvalidArgument):
            constellation_samples(w, WaveformConfig(12, 16), 2)

    @pytest.mark.parametrize("waveform", ["ofdm", "dft-s-ofdm"])
    def test_codebook_source_draws_like_papr(self, waveform):
        # each frame draws its codeword from the frame's substream first, as
        # papr_experiment does, then antenna 1 carries row 1 of it
        cfg = WaveformConfig(n_used=12, n_fft=16, oversample=4, waveform=waveform)
        pts = constellation_samples(DENSE_BOOK, cfg, 6, seed=27)
        nyquist = WaveformConfig(n_used=12, n_fft=16, waveform=waveform)
        expected = []
        for frame in range(6):
            rng = substream(27, frame)
            w = DENSE_BOOK.stack()[int(rng.integers(len(DENSE_BOOK)))]
            symbols = closed_form_qpsk(rng.integers(0, 2, size=(2 * 12, 2))).reshape(2, 12)
            if waveform == "dft-s-ofdm":
                symbols = np.fft.fft(symbols, axis=1, norm="ortho")
            expected.append(reference_synthesis(w[0] @ symbols, nyquist))
        np.testing.assert_allclose(pts, np.concatenate(expected), rtol=0, atol=1e-14)
