"""OFDM / DFT-s-OFDM waveform synthesis and PAPR statistics.

Per-antenna time-domain signals are generated with localized, DC-centered
subcarrier mapping and frequency-domain zero padding for oversampling; PAPR
is the peak-to-mean instantaneous power ratio of each antenna signal. Frame
i draws from substream (seed, i) of the run seed, opened by
``rng.substreams``, so pooled results do not depend on evaluation order.
``papr_experiment`` returns the pooled samples of each source as a sorted
1-D array of linear ratios, which ``ccdf`` and ``ccdf_threshold_db`` take
as they are; both reject a sample that is not finite or lies below 1.

Each signal is synthesized in polyphase form: the oversampled signal at
time n * oversample + r is an n_fft-point inverse FFT of the band with a
per-phase twiddle, so one batch of oversample short transforms replaces one
transform of oversample * n_fft points, in an order PAPR ignores. An antenna
whose precoder row is a complex multiple of another's carries a scaled copy
of its signal, with the same PAPR, so ``papr_experiment`` synthesizes one row
per class of such rows and leaves zero rows out: a T = 2M pair codeword needs
M transforms, not 2M. A frame's codeword index and streams depend only on K
and M, so the sources of one (K, M) share each frame's draws, one product and
one batch of transforms, with samples bit-identical to one-source calls. The
buffers are sized once per call; samples match synthesizing every antenna at
full length to rounding: within 1e-13 relative, held by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DimensionMismatch, InvalidArgument
from .grassmann import Codebook
from .linalg import _bounded_empty, _check_bytes, as_cmatrix, as_real_array, is_int, is_power_of_two, is_real
from .rng import substream, substreams

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
        if not all(is_int(v) for v in (self.n_used, self.n_fft, self.oversample)):
            raise InvalidArgument("n_used, n_fft and oversample must be integers")
        if self.n_used < 1:
            raise InvalidArgument("n_used must be >= 1")
        if not is_power_of_two(self.n_fft) or self.n_fft < self.n_used:
            raise InvalidArgument("n_fft must be a power of two >= n_used")
        if self.oversample < 1 or not is_power_of_two(self.oversample * self.n_fft):
            raise InvalidArgument("oversample * n_fft must be a power of two")
        if self.waveform not in _WAVEFORMS:
            raise InvalidArgument(f"waveform must be one of {_WAVEFORMS}")


# Gray-mapped 4-QAM symbol of the bit pair (b0, b1), at index 2 * b0 + b1
_QPSK = ((1.0 - 2.0 * np.array([0, 0, 1, 1])) + 1j * (1.0 - 2.0 * np.array([0, 1, 0, 1]))) / np.sqrt(2.0)


def modulate(count: int, rng: np.random.Generator) -> np.ndarray:
    """Unit-average-power Gray-mapped 4-QAM symbols, i.i.d. uniform, drawn from ``rng``."""
    if not is_int(count) or count < 1:
        raise InvalidArgument(f"count must be an integer >= 1, got {count!r}")
    bits = rng.integers(0, 2, size=(count, 2))
    return _QPSK[2 * bits[:, 0] + bits[:, 1]]


def _buffers(cfg: WaveformConfig, rows: int):
    """``_synthesize``'s twiddles, zeroed spectrum and output buffer, for up to ``rows`` signals.

    Twiddle row ``p`` weights the used subcarrier at centered frequency ``k``
    by exp(2 pi j k p / (oversample * n_fft)) / sqrt(oversample).
    """
    _check_bytes((rows, cfg.oversample, cfg.n_fft), np.complex128)  # the spectrum and the output buffer
    qn = cfg.oversample * cfg.n_fft
    k = np.arange(cfg.n_used) - cfg.n_used // 2
    turns = (np.arange(cfg.oversample)[:, None] * k) % qn
    spec = np.zeros((rows, cfg.oversample, cfg.n_fft), dtype=np.complex128)
    return np.exp(2j * np.pi * turns / qn) / np.sqrt(cfg.oversample), spec, np.empty_like(spec)


def _synthesize(grid, cfg, twiddle, spec, out) -> np.ndarray:
    """(r, n_used) rows of used-subcarrier symbols -> oversampled time signals in polyphase order.

    The signal is the unitary inverse FFT of the band, mapped localized and
    DC-centered into a spectrum zero-padded to oversample * n_fft bins. It is
    returned as shape ``(r, oversample, n_fft)``, where entry ``[i, p, n]``
    is time sample ``n * oversample + p``; time order is ``swapaxes(-1, -2)``
    and a reshape. Phase ``p`` is the n_fft-point inverse FFT of the band
    weighted by twiddle row ``p``, folded into n_fft bins: centered bin ``k``
    goes to ``k % n_fft``, so the lower half of the band wraps to the top and
    the upper half starts at bin 0. Since n_used <= n_fft no two bins collide.
    At oversample 1 the twiddle is 1 and this is plain placement.

    The caller owns ``_buffers(cfg, R)`` for some R >= r and reuses them: the
    band goes into ``spec[:r]``, whose other bins stay zero, and the result
    is ``out[:r]``, which the next call overwrites.
    """
    r, low, n = grid.shape[0], cfg.n_used // 2, cfg.n_fft
    spec = spec[:r]
    np.multiply(grid[:, None, :low], twiddle[:, :low], out=spec[..., n - low :])
    np.multiply(grid[:, None, low:], twiddle[:, low:], out=spec[..., : cfg.n_used - low])
    return np.fft.ifft(spec, axis=-1, norm="ortho", out=out[:r])


def _papr_values(samples) -> np.ndarray:
    vals = as_real_array(samples, "samples")
    if vals.size < 1:
        raise InvalidArgument("need at least one PAPR sample")
    # a peak is never below the mean; roundoff leaves constant modulus within ulps of 1
    if not np.all(np.isfinite(vals)) or vals.min() < 1.0 - 1e-9:
        raise InvalidArgument("PAPR samples must be finite and >= 1")
    return vals


def _thresholds(thresholds_db) -> np.ndarray:
    thr = np.atleast_1d(as_real_array(thresholds_db, "thresholds_db"))
    if not np.all(np.isfinite(thr)):
        raise InvalidArgument(f"PAPR thresholds must be finite, got {thr.tolist()}")
    return thr


def ccdf(samples, thresholds_db) -> np.ndarray:
    """Empirical Pr(PAPR > threshold), one probability per threshold."""
    db = 10.0 * np.log10(_papr_values(samples))
    ranked = np.sort(db)
    return (ranked.size - np.searchsorted(ranked, _thresholds(thresholds_db), side="right")) / db.size


def ccdf_threshold_db(samples, prob: float) -> float:
    """PAPR threshold (dB) the samples exceed with the given probability."""
    if not (is_real(prob) and 0 < prob < 1):
        raise InvalidArgument("prob must lie in (0, 1)")
    return float(np.quantile(10.0 * np.log10(_papr_values(samples)), 1.0 - prob))


def row_sparse_precoder(t: int, m: int, ell: int, thetas=None, seed: int = 0) -> np.ndarray:
    """T x M matrix with exactly ell nonzeros of magnitude sqrt(M/(ell T)) per row.

    With explicit ``thetas`` every row applies the first ell phases to
    streams 1..ell (the constellation-study convention); otherwise phases are
    drawn per row and the active streams are rotated across rows. This is an
    analysis device for the sparsity-PAPR study, not a Stiefel codeword.
    """
    if not all(is_int(v) for v in (t, m, ell)):
        raise InvalidArgument(f"T, M and ell must be integers, got {t!r}, {m!r}, {ell!r}")
    if t < 1:
        raise InvalidArgument(f"need T >= 1 antennas, got T={t}")
    if not 1 <= ell <= m:
        raise InvalidArgument(f"need 1 <= ell <= M, got ell={ell}, M={m}")
    mag = np.sqrt(m / (ell * t))
    _check_bytes((t, m), np.complex128)
    w = np.zeros((t, m), dtype=np.complex128)
    if thetas is not None:
        th = as_real_array(thetas, "thetas").reshape(-1)
        if th.size < ell:
            raise DimensionMismatch(f"need at least {ell} phases, got {th.size}")
        if not np.all(np.isfinite(th)):
            raise InvalidArgument(f"thetas must be finite phases in radians, got {th.tolist()}")
        w[:, :ell] = mag * np.exp(1j * th[:ell])
    else:
        rows = np.arange(t)[:, None]
        # its own tag, as the optimizers have; the trailing 1 keeps the stream
        # off every frame's (seed, frame), since trailing zero ids change nothing
        phases = substream(seed, 0x9A5E, 1).uniform(-np.pi, np.pi, (t, ell))
        w[rows, (rows + np.arange(ell)) % m] = mag * np.exp(1j * phases)
    return w


def _streams(m, cfg, rng):
    """One frame's M streams of n_used 4-QAM symbols, DFT-spread if single-carrier."""
    symbols = modulate(m * cfg.n_used, rng).reshape(m, cfg.n_used)
    if cfg.waveform == "dft-s-ofdm":
        symbols = np.fft.fft(symbols, axis=1, norm="ortho")
    return symbols


def _precoders(source):
    """The finite (K, T, M) precoders of a codebook, or a matrix as a stack of one."""
    stack = source.stack() if isinstance(source, Codebook) else as_cmatrix(source, "source")[None]
    if not np.all(np.isfinite(stack)):
        raise InvalidArgument("precoder entries must be finite")
    return stack


def _frames(stack, frames, seed):
    """(codeword index, rng) of each frame: the index is drawn uniformly from
    substream (seed, frame) first; a stack of one draws 0 and consumes nothing.
    The rng is one reused generator, valid until the next frame is drawn."""
    for rng in substreams(seed, range(frames)):
        yield int(rng.integers(stack.shape[0])), rng


def _scale_classes(ws):
    """(class rows, one index per precoder) of the precoders ``ws``: the nonzero
    rows of each fall into classes equal up to a complex scale, whose first rows
    are stacked in precoder order, and an index gives each nonzero row's class row.

    Each row is keyed by itself divided by its first nonzero entry, with that
    entry set to exactly 1: p / p is not always 1 in floating point. Zero
    rows carry no signal, so they belong to no class and give no samples.
    ``np.unique`` compares entries by value, so signed zeros fall together.
    """
    rows, index = [], []
    for w in ws:
        nonzero = w != 0
        live = np.flatnonzero(nonzero.any(axis=1))
        lead = nonzero[live].argmax(axis=1)
        key = w[live] / w[live, lead][:, None]
        key[np.arange(live.size), lead] = 1.0
        _, first, inverse = np.unique(key, axis=0, return_index=True, return_inverse=True)
        index.append(sum(map(len, rows)) + inverse.reshape(-1))
        rows.append(w[live[first]])
    return np.concatenate(rows), index


def papr_experiment(sources, cfg: WaveformConfig, trials: int, seed: int, antenna_mean: bool = False) -> list[np.ndarray]:
    """Pooled per-antenna PAPR samples over random frames: a sorted 1-D array of linear ratios per source.

    Each source is a codebook (one codeword drawn uniformly per frame, since
    PAPR depends only on the precoder sparsity) or a fixed precoding matrix.
    Antennas with identically zero signals contribute no samples;
    ``antenna_mean`` records one per-frame average instead of pooling, and
    none for a frame in which every antenna is silent. Sources of one (K, M)
    share each frame's draws and synthesis, with samples bit-identical to
    one-source calls (see the module docstring).
    """
    if not is_int(trials) or trials < 1:
        raise InvalidArgument(f"trials must be an integer >= 1, got {trials!r}")
    stacks = [_precoders(source) for source in sources]
    if not stacks:
        raise InvalidArgument("papr_experiment needs at least one source")
    qn = cfg.oversample * cfg.n_fft
    # all sources' samples in one array, and buffers for the widest group: refused before any frame if oversized
    ends = [trials * n for n in np.cumsum([1 if antenna_mean else stack.shape[1] for stack in stacks]).tolist()]
    samples, count = _bounded_empty((ends[-1],)), [0] + ends[:-1]
    keys = [stack.shape[::2] for stack in stacks]  # sources of one (K, M) draw alike
    groups = [[i for i, key in enumerate(keys) if key == shared] for shared in dict.fromkeys(keys)]
    words = [[_scale_classes([stacks[i][k] for i in g]) for k in range(keys[g[0]][0])] for g in groups]
    width = max(rows.shape[0] for group in words for rows, _ in group)
    buffers = _buffers(cfg, width)
    real_sq, imag_sq = _bounded_empty((2, width, qn))
    for members, group in zip(groups, words):
        for k, rng in _frames(stacks[members[0]], trials, seed):
            rows, index = group[k]
            x = _synthesize(rows @ _streams(rows.shape[1], cfg, rng), cfg, *buffers).reshape(-1, qn)
            power = np.square(x.real, out=real_sq[: len(x)])
            power += np.square(x.imag, out=imag_sq[: len(x)])
            means, peaks = power.mean(axis=1), power.max(axis=1)
            for i, rows_of in zip(members, index):
                live = means[rows_of] > 0
                vals = peaks[rows_of][live] / means[rows_of][live]
                vals = vals.mean(keepdims=True) if antenna_mean and vals.size else vals
                samples[count[i] : count[i] + vals.size] = vals
                count[i] += vals.size
    runs = [samples[a:b] for a, b in zip([0] + ends[:-1], count)]
    for run in runs:
        run.sort()  # in place: a sorted copy would hold the samples twice
    return runs


def constellation_samples(source, cfg: WaveformConfig, frames: int, seed: int) -> np.ndarray:
    """Nyquist-rate time samples of antenna 1, for constellation scatter plots.

    ``source`` is a codebook or a matrix, and each frame draws its codeword
    as ``papr_experiment`` does.
    """
    if not is_int(frames) or frames < 1:
        raise InvalidArgument(f"frames must be an integer >= 1, got {frames!r}")
    nyquist = replace(cfg, oversample=1)
    stack = _precoders(source)
    buffers = _buffers(nyquist, 1)
    out = _bounded_empty((frames, nyquist.n_fft), np.complex128)
    for frame, (k, rng) in enumerate(_frames(stack, frames, seed)):
        out[frame] = _synthesize(stack[k, :1] @ _streams(stack.shape[2], nyquist, rng), nyquist, *buffers).reshape(-1)
    return out.reshape(-1)
