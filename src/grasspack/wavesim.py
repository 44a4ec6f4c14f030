"""OFDM / DFT-s-OFDM waveform synthesis and PAPR statistics.

Per-antenna time-domain signals are generated with localized, DC-centered
subcarrier mapping and frequency-domain zero padding for oversampling; PAPR
is the peak-to-mean instantaneous power ratio of each antenna signal. Frames
are independent substreams of the run seed, so pooled results do not depend
on evaluation order. ``papr_experiment`` returns the pooled samples as a
sorted 1-D array of linear ratios, which ``ccdf`` and ``ccdf_threshold_db``
take as they are; both reject a sample that is not finite or lies below 1.

Each signal is synthesized in polyphase form: the oversampled signal at
time n * oversample + r is an n_fft-point inverse FFT of the band with a
per-phase twiddle, so one batch of oversample short transforms replaces one
transform of oversample * n_fft points. PAPR ignores sample order, so the
engine never reorders the phases. An antenna whose precoder row is a complex
multiple of another's carries a scaled copy of that signal, with the same
PAPR: ``papr_experiment`` groups the rows of each codeword into such classes
once, synthesizes one row per class and expands the power statistics back
to antenna order. A T = 2M pair codeword so needs M transforms, not 2M.
Twiddles and frame-sized buffers are built once per call and reused by
every frame. Samples match synthesizing every antenna at full length to
rounding: within 1e-13 relative, held by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import InvalidArgument, InvalidConfig, InvalidEll, ShapeMismatch, ZeroSignal
from .grassmann import Codebook, _mat
from .linalg import is_power_of_two
from .rng import substream

_WAVEFORMS = ("ofdm", "dft-s-ofdm")


@dataclass(frozen=True)
class WaveformConfig:
    """Frame parameters for the waveform generators.

    ``n_used`` active subcarriers are mapped to the center of an ``n_fft``
    grid; ``oversample`` zero-pads the spectrum to oversample * n_fft before
    the inverse transform (both products must be powers of two).
    """

    n_used: int
    n_fft: int
    oversample: int = 1
    waveform: str = "ofdm"

    def __post_init__(self):
        if self.n_used < 1:
            raise InvalidConfig("n_used must be >= 1")
        if not is_power_of_two(self.n_fft) or self.n_fft < self.n_used:
            raise InvalidConfig("n_fft must be a power of two >= n_used")
        if self.oversample < 1 or not is_power_of_two(self.oversample * self.n_fft):
            raise InvalidConfig("oversample * n_fft must be a power of two")
        if self.waveform not in _WAVEFORMS:
            raise InvalidConfig(f"waveform must be one of {_WAVEFORMS}")


# Gray-mapped 4-QAM symbol of the bit pair (b0, b1), at index 2 * b0 + b1
_QPSK = ((1.0 - 2.0 * np.array([0, 0, 1, 1])) + 1j * (1.0 - 2.0 * np.array([0, 1, 0, 1]))) / np.sqrt(2.0)


def modulate(count: int, seed: int = 0, rng=None) -> np.ndarray:
    """Unit-average-power Gray-mapped 4-QAM symbols, i.i.d. uniform."""
    if count < 1:
        raise InvalidArgument("count must be >= 1")
    rng = rng if rng is not None else substream(seed, 0)
    bits = rng.integers(0, 2, size=(count, 2))
    return _QPSK[2 * bits[:, 0] + bits[:, 1]]


def _twiddle(cfg: WaveformConfig) -> np.ndarray:
    """(oversample, n_used) polyphase twiddles, in grid order.

    Row ``r`` weights the used subcarrier at centered frequency ``k`` by
    exp(2 pi j k r / (oversample * n_fft)) / sqrt(oversample).
    """
    qn = cfg.oversample * cfg.n_fft
    k = np.arange(cfg.n_used) - cfg.n_used // 2
    turns = (np.arange(cfg.oversample)[:, None] * k) % qn
    return np.exp(2j * np.pi * turns / qn) / np.sqrt(cfg.oversample)


def _synthesize(grid: np.ndarray, cfg: WaveformConfig, scratch: dict | None = None) -> np.ndarray:
    """Rows of used-subcarrier symbols -> oversampled time signals in polyphase order.

    The signal is the unitary inverse FFT of the band, mapped localized and
    DC-centered into a spectrum zero-padded to oversample * n_fft bins. It is
    returned as shape ``grid.shape[:-1] + (oversample, n_fft)``, where entry
    ``[..., r, n]`` is time sample ``n * oversample + r``; time order is
    ``swapaxes(-1, -2)`` and a reshape. Phase ``r`` is the n_fft-point
    inverse FFT of the band weighted by row ``r`` of ``_twiddle``, folded
    into n_fft bins: centered bin ``k`` goes to ``k % n_fft``, so the lower
    half of the band wraps to the top and the upper half starts at bin 0.
    Since n_used <= n_fft no two bins collide. At oversample 1 the twiddle is
    1 and this is plain placement.

    ``scratch`` is a dict that a caller making many calls with one ``cfg``
    keeps between them. It holds the twiddle table and, per output shape, a
    spectrum whose bins outside the band stay zero and the output buffer,
    which the next call of that shape overwrites.
    """
    if grid.shape[-1] != cfg.n_used:
        raise InvalidConfig(f"expected {cfg.n_used} used subcarriers, got {grid.shape[-1]}")
    scratch = {} if scratch is None else scratch
    twiddle = scratch.get("twiddle")
    if twiddle is None:
        twiddle = scratch["twiddle"] = _twiddle(cfg)
    shape = grid.shape[:-1] + (cfg.oversample, cfg.n_fft)
    if shape not in scratch:
        scratch[shape] = np.zeros(shape, dtype=np.complex128), np.empty(shape, dtype=np.complex128)
    spec, out = scratch[shape]
    low, n = cfg.n_used // 2, cfg.n_fft
    np.multiply(grid[..., None, :low], twiddle[:, :low], out=spec[..., n - low :])
    np.multiply(grid[..., None, low:], twiddle[:, low:], out=spec[..., : cfg.n_used - low])
    return np.fft.ifft(spec, axis=-1, norm="ortho", out=out)


def papr(x) -> float:
    """Peak instantaneous power over mean power of a signal vector."""
    p = np.abs(np.asarray(x, dtype=np.complex128)) ** 2
    mean = p.mean()
    if mean == 0:
        raise ZeroSignal("PAPR is undefined for an all-zero signal")
    return float(p.max() / mean)


def _papr_values(samples) -> np.ndarray:
    vals = np.asarray(samples, dtype=float)
    if vals.size < 1:
        raise InvalidArgument("need at least one PAPR sample")
    # a peak is never below the mean; roundoff leaves constant modulus within ulps of 1
    if not np.all(np.isfinite(vals)) or vals.min() < 1.0 - 1e-9:
        raise InvalidArgument("PAPR samples must be finite and >= 1")
    return vals


def ccdf(samples, thresholds_db) -> np.ndarray:
    """Empirical Pr(PAPR > threshold) per threshold, as (threshold, prob) rows."""
    db = 10.0 * np.log10(_papr_values(samples))
    thr = np.atleast_1d(np.asarray(thresholds_db, dtype=float))
    ranked = np.sort(db)
    probs = (ranked.size - np.searchsorted(ranked, thr, side="right")) / db.size
    return np.column_stack([thr, probs])


def ccdf_threshold_db(samples, prob: float) -> float:
    """PAPR threshold (dB) the samples exceed with the given probability."""
    if not 0 < prob < 1:
        raise InvalidArgument("prob must lie in (0, 1)")
    return float(np.quantile(10.0 * np.log10(_papr_values(samples)), 1.0 - prob))


def row_sparse_precoder(t: int, m: int, ell: int, thetas=None, seed: int = 0) -> np.ndarray:
    """T x M matrix with exactly ell nonzeros of magnitude sqrt(M/(ell T)) per row.

    With explicit ``thetas`` every row applies the first ell phases to
    streams 1..ell (the constellation-study convention); otherwise phases are
    drawn per row and the active streams are rotated across rows. This is an
    analysis device for the sparsity-PAPR study, not a Stiefel codeword.
    """
    if t < 1:
        raise InvalidArgument(f"need T >= 1 antennas, got T={t}")
    if not 1 <= ell <= m:
        raise InvalidEll(f"need 1 <= ell <= M, got ell={ell}, M={m}")
    mag = np.sqrt(m / (ell * t))
    w = np.zeros((t, m), dtype=np.complex128)
    if thetas is not None:
        th = np.asarray(thetas, dtype=float).reshape(-1)
        if th.size < ell:
            raise ShapeMismatch(f"need at least {ell} phases, got {th.size}")
        if not np.all(np.isfinite(th)):
            raise InvalidArgument(f"thetas must be finite phases in radians, got {th.tolist()}")
        w[:, :ell] = mag * np.exp(1j * th[:ell])
    else:
        rows = np.arange(t)[:, None]
        phases = substream(seed, 0).uniform(-np.pi, np.pi, (t, ell))
        w[rows, (rows + np.arange(ell)) % m] = mag * np.exp(1j * phases)
    return w


def _frame_signals(w, cfg, rng, scratch=None):
    """One frame: modulate M streams, spread if single-carrier, precode, synthesize.

    Returns ``_synthesize``'s polyphase signals of the rows of ``w``.
    """
    m = w.shape[1]
    symbols = modulate(m * cfg.n_used, rng=rng).reshape(m, cfg.n_used)
    if cfg.waveform == "dft-s-ofdm":
        symbols = np.fft.fft(symbols, axis=1, norm="ortho")
    return _synthesize(w @ symbols, cfg, scratch)


def _frames(source, frames, seed):
    """(codeword index, precoder, rng) of each frame, the rng being the frame's substream.

    A codebook source draws the frame's codeword uniformly from that
    substream before anything else; a matrix source is index 0 every frame.
    """
    drawn = isinstance(source, Codebook)
    stack = source.stack() if drawn else _mat(source)[None]
    for frame in range(frames):
        rng = substream(seed, frame)
        k = int(rng.integers(stack.shape[0])) if drawn else 0
        yield k, stack[k], rng


def _scale_classes(w):
    """(first row of each class, row -> class) for rows equal up to a complex scale.

    Each row is keyed by itself divided by its first nonzero entry, with that
    entry set to exactly 1: p / p is not always 1 in floating point. Zero
    rows form one class of their own. ``np.unique`` compares entries by
    value, so signed zeros fall together.
    """
    nonzero = w != 0
    live = np.flatnonzero(nonzero.any(axis=1))
    lead = nonzero[live].argmax(axis=1)
    key = w.copy()
    key[live] /= w[live, lead][:, None]
    key[live, lead] = 1.0
    _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
    return first, inverse.reshape(-1)


def papr_experiment(source, cfg: WaveformConfig, trials: int, seed: int = 0, antenna_mean: bool = False) -> np.ndarray:
    """Pooled per-antenna PAPR samples over random frames, as a sorted 1-D array of linear ratios.

    ``source`` is either a codebook (one codeword drawn uniformly per frame,
    since PAPR depends only on the precoder sparsity) or a fixed precoding
    matrix. Antennas with identically zero signals contribute no samples;
    ``antenna_mean`` records one per-frame average instead of pooling.
    An antenna whose precoder row is a complex multiple of another's carries
    a scaled copy of its signal, with the same PAPR, so only the first row of
    each such class is synthesized and its peak and mean power are expanded
    back to antenna order.
    """
    if trials < 1:
        raise InvalidConfig("trials must be >= 1")
    scratch, classes, powers, out = {}, {}, {}, []
    for k, w, rng in _frames(source, trials, seed):
        if k not in classes:
            first, inverse = _scale_classes(w)
            classes[k] = w[first], inverse
        rows, inverse = classes[k]
        x = _frame_signals(rows, cfg, rng, scratch).reshape(rows.shape[0], -1)
        if x.shape not in powers:
            powers[x.shape] = np.empty(x.shape), np.empty(x.shape)
        power, imag_sq = powers[x.shape]
        np.square(x.real, out=power)
        power += np.square(x.imag, out=imag_sq)
        mean = power.mean(axis=1)[inverse]
        peak = power.max(axis=1)[inverse]
        live = mean > 0
        vals = peak[live] / mean[live]
        if antenna_mean:
            out.append(vals.mean())
        else:
            out.extend(vals)
    return np.sort(np.asarray(out, dtype=float))


def constellation_samples(source, cfg: WaveformConfig, frames: int, seed: int = 0) -> np.ndarray:
    """Nyquist-rate time samples of antenna 1, for constellation scatter plots.

    ``source`` is a codebook or a matrix, and each frame draws its codeword
    as ``papr_experiment`` does.
    """
    if frames < 1:
        raise InvalidConfig("frames must be >= 1")
    nyquist = replace(cfg, oversample=1)
    scratch = {}
    out = np.empty((frames, nyquist.n_fft), dtype=np.complex128)
    for frame, (_, w, rng) in enumerate(_frames(source, frames, seed)):
        out[frame] = _frame_signals(w[:1], nyquist, rng, scratch).reshape(-1)
    return out.reshape(-1)
