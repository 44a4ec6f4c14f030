"""Limited-feedback MIMO link simulation.

Channels, the achievable-rate and effective-gain selection rules, and the
paired Monte Carlo sweeps behind the rate and gain comparisons. A channel is
a plain (N, T) complex array: ``sample_rayleigh`` and ``sample_rician``
return one, and the single-trial functions take any 2-D array. Every trial
draws its channel from a counter-based substream of the run seed, so results
are reproducible bit-for-bit regardless of chunking or thread count, and all
codebooks in one sweep see the same channel sequence (common random numbers).
A gain sweep over several Rician factors draws each trial's angles and
scattering block once and mixes them for every K, so every codebook and
every K see the same per-trial draw. The single-trial functions score one
channel as a batch of one through the same rate and gain kernels as the
sweeps.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument, InvalidConfig, InvalidK, TooFewCodewords
from .grassmann import Codebook, _mat
from .linalg import as_cmatrix
from .rng import substream

_CHUNK = 512


@dataclass(frozen=True)
class RateResult:
    """Mean achievable rate of one codebook over an SNR grid."""

    name: str
    snr_db: tuple
    mean_rates: tuple
    trials: int
    seed: int


@dataclass(frozen=True)
class RateSweep:
    """Paired rate curves plus per-pair difference statistics.

    ``diff_mean[(i, j)]`` holds the per-SNR mean of (rate_j - rate_i) and
    ``diff_se[(i, j)]`` its paired standard error, for 0-based codebook
    positions i < j in the sweep argument order.
    """

    results: tuple
    diff_mean: dict
    diff_se: dict


def _rayleigh(n, t, rng):
    return (rng.standard_normal((n, t)) + 1j * rng.standard_normal((n, t))) / math.sqrt(2.0)


def sample_rayleigh(n: int, t: int, seed: int = 0, rng=None) -> np.ndarray:
    """Uncorrelated (N, T) Rayleigh channel: i.i.d. CN(0, 1) entries."""
    rng = rng if rng is not None else substream(seed, 0)
    return _rayleigh(n, t, rng)


def _steering(count, angles):
    # half-wavelength uniform linear array response, one row per angle
    return np.exp(1j * np.pi * np.sin(angles)[:, None] * np.arange(count))


def _check_k(k: float) -> float:
    k = float(k)
    if math.isnan(k) or k < 0:
        raise InvalidK(f"Rician factor must be >= 0 or +inf, got {k}")
    return k


def _rician_chunk(rngs, n, t, ks, normalize):
    """One (len(rngs), N, T) Rician channel stack per K factor in ``ks``.

    Each generator yields its trial's arrival and departure angles and then,
    if some K is finite, the real and imaginary scattering blocks; every K
    mixes the same draws, so the draw order matches a single-channel draw.
    """
    scattered = any(not math.isinf(k) for k in ks)
    angles = np.empty((len(rngs), 2))
    re = np.empty((len(rngs), n, t))
    im = np.empty((len(rngs), n, t))
    for i, rng in enumerate(rngs):
        angles[i] = rng.uniform(-np.pi / 2, np.pi / 2), rng.uniform(-np.pi / 2, np.pi / 2)
        if scattered:
            rng.standard_normal(out=re[i])
            rng.standard_normal(out=im[i])
    ar = _steering(n, angles[:, 0])
    at = _steering(t, angles[:, 1])
    los = ar[:, :, None] * at.conj()[:, None, :]  # unit-modulus entries, ||los||_F^2 = N*T
    ray = (re + 1j * im) / math.sqrt(2.0) if scattered else None
    out = []
    for k in ks:
        h = los if math.isinf(k) else math.sqrt(k / (k + 1)) * los + math.sqrt(1 / (k + 1)) * ray
        out.append(h / math.sqrt(n * t) if normalize else h)
    return out


def sample_rician(n: int, t: int, k: float, seed: int = 0, normalize: bool = False, rng=None) -> np.ndarray:
    """(N, T) Rician channel: rank-one line-of-sight plus Rayleigh scattering.

    The LoS part is an outer product of ULA steering vectors with departure
    and arrival angles drawn uniformly on (-pi/2, pi/2) per realization, so
    E||H_LoS||_F^2 = N*T matches the scattered part. ``normalize`` rescales
    to E||H||_F^2 = 1. K may be +inf for a pure LoS channel.
    """
    k = _check_k(k)
    rng = rng if rng is not None else substream(seed, 0)
    (h,) = _rician_chunk([rng], n, t, [k], normalize)
    return h[0]


def effective_gram(h, w, counter=None):
    """Gram matrix (HW)^H (HW), optionally counting complex multiplies.

    With a counter attached, codewords whose rows each carry at most one
    nonzero entry are multiplied along the sparse path (a scaled column
    gather), so the recorded count reflects the work actually done.
    """
    hm, wm = as_cmatrix(h), _mat(w)
    if hm.shape[1] != wm.shape[0]:
        raise DimensionMismatch(f"channel {hm.shape} incompatible with codeword {wm.shape}")
    n, t = hm.shape
    m = wm.shape[1]
    nz_rows = np.count_nonzero(wm, axis=1)
    if counter is not None and np.all(nz_rows <= 1):
        y = np.zeros((n, m), dtype=np.complex128)
        for ti in np.nonzero(nz_rows)[0]:
            mi = int(np.nonzero(wm[ti])[0][0])
            y[:, mi] += hm[:, ti] * wm[ti, mi]
        counter.add(n * int(np.count_nonzero(nz_rows)))
    else:
        y = hm @ wm
        if counter is not None:
            counter.add(n * t * m)
    if counter is not None:
        counter.add(n * m * m)
    return y.conj().T @ y


def _grams(hh):
    # channel Grams H^H H of a (batch, N, T) stack
    return np.einsum("bnt,bnu->btu", hh.conj(), hh)


def _rates(g, stack, rho):
    """Rates log2 det(I + (rho/M) W_k^H G W_k) as (len(rho), batch, K), for
    channel Grams g (batch, T, T), codewords (K, T, M) and a 1-D rho array."""
    grams = np.einsum("kti,btu,kum->bkim", stack.conj(), g, stack)
    lam = np.clip(np.linalg.eigvalsh(grams), 0.0, None)
    # in place: a fresh multi-MB temporary per step page-faults on every chunk
    x = rho[:, None, None, None] / stack.shape[2] * lam
    x += 1.0
    return np.sum(np.log2(x, out=x), axis=-1)


def _gains(g, stack):
    """Effective gains ||H W_k||_F^2 = tr(W_k^H G W_k), shape (batch, K)."""
    return np.einsum("kti,btu,kui->bk", stack.conj(), g, stack).real


def _trial_scores(h, stack, rho=None):
    """Per-codeword scores of one channel: rates at ``rho``, or gains without it."""
    hm = as_cmatrix(h)
    if hm.shape[1] != stack.shape[1]:
        raise DimensionMismatch(f"channel {hm.shape} incompatible with codewords of T={stack.shape[1]}")
    if not np.all(np.isfinite(hm)):
        raise InvalidArgument("channel entries must be finite")
    g = _grams(hm[None])
    if rho is None:
        return _gains(g, stack)[0]
    if not rho >= 0:
        raise InvalidConfig(f"rho must be nonnegative, got {rho}")
    return _rates(g, stack, np.array([rho]))[0, 0]


def achievable_rate(h, w, rho: float) -> float:
    """log2 det(I + (rho/M) W^H H^H H W) via the Gram-matrix eigenvalues."""
    return float(_trial_scores(h, _mat(w)[None], rho)[0])


def effective_gain(h, w) -> float:
    """Effective channel gain ||H W||_F^2."""
    return float(_trial_scores(h, _mat(w)[None])[0])


def _first_within(scores):
    return int(np.nonzero(scores >= scores.max() - 1e-12)[0][0]) + 1


def select_index(h, b: Codebook, rho: float) -> int:
    """1-based index of the rate-maximizing codeword (smallest on ties)."""
    return _first_within(_trial_scores(h, b.stack(), rho))


def select_index_gain(h, b: Codebook) -> int:
    """1-based index of the gain-maximizing codeword (smallest on ties)."""
    return _first_within(_trial_scores(h, b.stack()))


def _chunks(trials, seed):
    """(trial slice, per-trial substreams) for each block of at most _CHUNK trials."""
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        yield slice(start, stop), [substream(seed, trial) for trial in range(start, stop)]


def _check_books(codebooks, n, trials):
    books = list(codebooks)
    if not books:
        raise TooFewCodewords("need at least one codebook")
    if n < 1:
        raise InvalidConfig(f"receive antenna count N must be >= 1, got {n}")
    if trials < 1:
        raise InvalidConfig(f"trials must be >= 1, got {trials}")
    if any(b.T != books[0].T for b in books):
        raise DimensionMismatch("all codebooks must share the antenna count T")
    return books


def rate_curve(codebooks, n: int, snr_db, trials: int, seed: int = 0, names=None) -> RateSweep:
    """Paired mean achievable rate over an SNR grid for several codebooks.

    Every codebook is evaluated on the same per-trial Rayleigh channels; the
    selected (maximum) rate is averaged per SNR point, and each codebook
    pair gets the mean and standard error of its per-trial rate difference.
    """
    books = _check_books(codebooks, n, trials)
    t = books[0].T
    names = list(names) if names else [f"codebook{i + 1}" for i in range(len(books))]
    snr_db = np.atleast_1d(np.asarray(snr_db, dtype=float))
    if not np.all(np.isfinite(snr_db)):
        raise InvalidConfig(f"SNR points must be finite, got {snr_db.tolist()}")
    rho = 10.0 ** (snr_db / 10.0)
    stacks = [b.stack() for b in books]
    ncb = len(books)
    # per-trial best rates, reduced once below so the sums do not depend on chunking
    best = np.empty((trials, ncb, snr_db.size))
    for rows, rngs in _chunks(trials, seed):
        g = _grams(np.stack([_rayleigh(n, t, rng) for rng in rngs]))
        for c, stack in enumerate(stacks):
            best[rows, c] = _rates(g, stack, rho).max(axis=-1).T
    rate_sum = best.sum(axis=0)
    results = tuple(
        RateResult(
            name=names[c],
            snr_db=tuple(snr_db),
            mean_rates=tuple(rate_sum[c] / trials),
            trials=trials,
            seed=seed,
        )
        for c in range(ncb)
    )
    diff_mean, diff_se = {}, {}
    for i, j in itertools.combinations(range(ncb), 2):
        d = best[:, j, :] - best[:, i, :]
        mean = d.sum(axis=0) / trials
        if trials > 1:
            var = np.maximum((d**2).sum(axis=0) - trials * mean**2, 0.0) / (trials - 1)
            se = np.sqrt(var / trials)
        else:
            se = np.full_like(mean, np.inf)
        diff_mean[(i, j)] = tuple(mean)
        diff_se[(i, j)] = tuple(se)
    return RateSweep(results, diff_mean, diff_se)


def gain_cdf(b, n: int, k, trials: int, seed: int = 0) -> np.ndarray:
    """Sorted per-trial best effective gains under normalized Rician fading.

    ``b`` is a codebook or a sequence of codebooks sharing T, and ``k`` a
    Rician factor or a sequence of them. The result has shape
    (len(k), len(b), trials), without the axis of an argument given as a
    single codebook or a scalar K; one book and a scalar K give a 1-D array.
    Trial i draws its two LoS angles and its scattering block
    from substream (seed, i) once, and every codebook and every K is scored
    on that draw, so all columns are paired samples. The channel sequence
    depends only on (seed, trial, N, T, K), so separate calls with the same
    seed give the same samples as one batched call.
    """
    books = _check_books([b] if isinstance(b, Codebook) else b, n, trials)
    ks = [_check_k(v) for v in ([k] if np.ndim(k) == 0 else k)]
    if not ks:
        raise InvalidK("need at least one Rician factor")
    t = books[0].T
    stacks = [book.stack() for book in books]
    out = np.empty((len(ks), len(books), trials))
    for rows, rngs in _chunks(trials, seed):
        for ki, hh in enumerate(_rician_chunk(rngs, n, t, ks, True)):
            g = _grams(hh)
            for c, stack in enumerate(stacks):
                out[ki, c, rows] = _gains(g, stack).max(axis=1)
    out.sort(axis=-1)
    if isinstance(b, Codebook):
        out = out[:, 0]
    return out[0] if np.ndim(k) == 0 else out
