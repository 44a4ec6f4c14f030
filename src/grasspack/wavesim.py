"""OFDM / DFT-s-OFDM waveform synthesis and PAPR statistics.

Per-antenna time-domain signals are generated with localized, DC-centered
subcarrier mapping and frequency-domain zero padding for oversampling; PAPR
is the peak-to-mean instantaneous power ratio of each antenna signal. Frames
are independent substreams of the run seed, so pooled results do not depend
on evaluation order. ``papr_experiment`` returns the pooled samples as a
sorted 1-D array of linear ratios, which ``ccdf`` and ``ccdf_threshold_db``
take as they are; both reject a sample that is not finite or lies below 1.

The used subcarriers are written straight into their ``ifftshift``
positions of the zero-padded spectrum, so no shift copy is made. Antennas
whose precoder rows are equal carry equal signals: ``papr_experiment``
finds the distinct rows once per codeword, synthesizes only those and
expands their power statistics back to antenna order. The full precoded
grid ``w @ symbols`` is still formed and then subset, so every sample is
bit-identical to synthesizing all T antennas.
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


def _synthesize(grid: np.ndarray, cfg: WaveformConfig) -> np.ndarray:
    """Rows of used-subcarrier symbols -> oversampled time signals.

    Localized DC-centered mapping, spectrum zero-padded at the edges to
    oversample * n_fft, unitary inverse FFT. The centered bin ``k`` is
    written straight to its ``ifftshift`` position ``(k - qn // 2) % qn``:
    the lower half of the band wraps to the top of the spectrum, the upper
    half starts at bin 0. The transform runs in place on the spectrum, which
    keeps one fewer frame-sized buffer alive.
    """
    if grid.shape[-1] != cfg.n_used:
        raise InvalidConfig(f"expected {cfg.n_used} used subcarriers, got {grid.shape[-1]}")
    qn = cfg.oversample * cfg.n_fft
    low = cfg.n_used // 2
    spec = np.zeros(grid.shape[:-1] + (qn,), dtype=np.complex128)
    spec[..., qn - low :] = grid[..., :low]
    spec[..., : cfg.n_used - low] = grid[..., low:]
    return np.fft.ifft(spec, axis=-1, norm="ortho", out=spec)


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
        w[:, :ell] = mag * np.exp(1j * th[:ell])
    else:
        rows = np.arange(t)[:, None]
        phases = substream(seed, 0).uniform(-np.pi, np.pi, (t, ell))
        w[rows, (rows + np.arange(ell)) % m] = mag * np.exp(1j * phases)
    return w


def _frame_signals(w, cfg, rng, rows=None):
    """One frame: modulate M streams, spread if single-carrier, precode, synthesize.

    ``rows`` selects the antennas synthesized; the full precoded grid is
    formed first, so a selected row is the same whatever the selection.
    """
    m = w.shape[1]
    symbols = modulate(m * cfg.n_used, rng=rng).reshape(m, cfg.n_used)
    if cfg.waveform == "dft-s-ofdm":
        symbols = np.fft.fft(symbols, axis=1, norm="ortho")
    grid = w @ symbols
    return _synthesize(grid if rows is None else grid[rows], cfg)


def papr_experiment(source, cfg: WaveformConfig, trials: int, seed: int = 0, antenna_mean: bool = False) -> np.ndarray:
    """Pooled per-antenna PAPR samples over random frames, as a sorted 1-D array of linear ratios.

    ``source`` is either a codebook (one codeword drawn uniformly per frame,
    since PAPR depends only on the precoder sparsity) or a fixed precoding
    matrix. Antennas with identically zero signals contribute no samples;
    ``antenna_mean`` records one per-frame average instead of pooling.
    Only the distinct precoder rows are synthesized; equal rows share their
    peak and mean power.
    """
    if trials < 1:
        raise InvalidConfig("trials must be >= 1")
    drawn = isinstance(source, Codebook)
    stack = source.stack() if drawn else _mat(source)[None]
    distinct = {}  # codeword index -> (first row of each distinct row, antenna -> distinct row)
    out = []
    for frame in range(trials):
        rng = substream(seed, frame)
        k = int(rng.integers(stack.shape[0])) if drawn else 0
        if k not in distinct:
            _, first, inverse = np.unique(stack[k], axis=0, return_index=True, return_inverse=True)
            distinct[k] = first, inverse.reshape(-1)
        first, inverse = distinct[k]
        power = np.abs(_frame_signals(stack[k], cfg, rng, first)) ** 2
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
    """Nyquist-rate time samples of antenna 1, for constellation scatter plots."""
    if frames < 1:
        raise InvalidConfig("frames must be >= 1")
    nyquist = replace(cfg, oversample=1)
    w = _mat(source)
    out = np.empty((frames, nyquist.n_fft), dtype=np.complex128)
    for frame in range(frames):
        out[frame] = _frame_signals(w, nyquist, substream(seed, frame), [0])[0]
    return out.reshape(-1)
