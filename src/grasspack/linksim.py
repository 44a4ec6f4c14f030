"""Limited-feedback MIMO link simulation.

The paired Monte Carlo sweeps behind the rate and gain comparisons:
``rate_curve`` selects, per trial, the codeword of highest achievable rate
log2 det(I + (rho/M) W^H H^H H W) under Rayleigh fading, and ``gain_cdf``
the codeword of highest effective gain ||H W||_F^2 under Rician fading.
Channels are (N, T) complex arrays drawn in chunks of trials and scored
for every codeword at once through the channel Grams G = H^H H: the
codeword Grams W_k^H G W_k and the gains tr(W_k^H G W_k) are the flattened
Grams times a table built from the codebook, one stacked matrix product per
chunk (see ``_gram_dot``). Trial i draws its channel from substream
(seed, i) of the run seed, opened for a chunk at once by
``rng.substreams``, so results are reproducible bit-for-bit regardless of
chunking or thread count, and all codebooks in one sweep see the same
channel sequence (common random numbers).
A gain sweep over several Rician factors draws each trial's angles and
scattering block once and mixes them for every K, so every codebook and
every K see the same per-trial draw. ``effective_gram`` is the instrumented
single-channel Gram product that the complexity audit counts.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument
from .grassmann import Codebook
from .linalg import _bounded_empty, as_cmatrix, is_int, is_real
# substream is not called here but stays bound: perfbench's tracer rebinds it by name
from .rng import substream, substreams

_CHUNK = 512
# working bytes of one SNR block in _rates: (points, batch, K, M) floats
_RATE_BLOCK_BYTES = 1 << 26
# 10 ** (snr / 10) overflows above about 3083 dB, and times a channel eigenvalue sooner
_MAX_SNR_DB = 3000.0


@dataclass(frozen=True)
class RateSweep:
    """Paired rate curves plus per-pair difference statistics.

    ``mean_rates`` is the (codebook, SNR) array of mean selected rates.
    ``diff_mean[(i, j)]`` holds the per-SNR mean of (rate_j - rate_i) and
    ``diff_se[(i, j)]`` its paired standard error, for 0-based codebook
    positions i < j in the sweep argument order.
    """

    mean_rates: np.ndarray
    diff_mean: dict
    diff_se: dict


def _rayleigh_chunk(rngs, b, n, t):
    """(b, N, T) Rayleigh channels with unit-variance complex Gaussian entries
    from b per-trial generators, consumed in trial order; each draws its
    trial's real block, then its imaginary one."""
    buf = np.empty((b, 2, n, t))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=buf[i])
    return (buf[:, 0] + 1j * buf[:, 1]) / math.sqrt(2.0)


def _steering(count, angles):
    # half-wavelength uniform linear array response, one row per angle
    return np.exp(1j * np.pi * np.sin(angles)[:, None] * np.arange(count))


def _check_k(k: float) -> float:
    if not is_real(k):
        raise InvalidArgument(f"Rician factor must be a real number, got {k!r}")
    k = float(k)
    if math.isnan(k) or k < 0:
        raise InvalidArgument(f"Rician factor must be >= 0 or +inf, got {k}")
    return k


def _rician_chunk(rngs, b, n, t, ks):
    """One (b, N, T) normalized Rician channel stack per K factor in ``ks``,
    from b per-trial generators consumed in trial order.

    A channel is a rank-one line-of-sight part plus Rayleigh scattering. The
    LoS part is an outer product of half-wavelength ULA steering vectors with
    departure and arrival angles drawn uniformly on (-pi/2, pi/2), so
    ||H_LoS||_F^2 = N*T matches the expected scattered power; the sum is
    rescaled to E||H||_F^2 = 1, and K = +inf gives a pure LoS channel. Each
    generator yields its trial's arrival and departure angles and then, if
    some K is finite, the real and imaginary scattering blocks; every K mixes
    the same draws.
    """
    scattered = any(not math.isinf(k) for k in ks)
    angles = np.empty((b, 2))
    buf = np.empty((b, 2, n, t))
    for i, rng in enumerate(rngs):
        angles[i] = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        if scattered:
            rng.standard_normal(out=buf[i])
    ar = _steering(n, angles[:, 0])
    at = _steering(t, angles[:, 1])
    los = ar[:, :, None] * at.conj()[:, None, :]  # unit-modulus entries, ||los||_F^2 = N*T
    ray = (buf[:, 0] + 1j * buf[:, 1]) / math.sqrt(2.0) if scattered else None
    out = []
    for k in ks:
        h = los if math.isinf(k) else math.sqrt(k / (k + 1)) * los + math.sqrt(1 / (k + 1)) * ray
        out.append(h / math.sqrt(n * t))
    return out


def effective_gram(h, w, counter=None):
    """Gram matrix (HW)^H (HW), optionally counting complex multiplies.

    Codewords whose rows each carry at most one nonzero entry are multiplied
    along the sparse path (a scaled column gather), the others densely. The
    path follows from ``w`` alone, so attaching a counter never changes the
    result, and the recorded count reflects the work actually done.
    """
    hm, wm = as_cmatrix(h), as_cmatrix(w)
    if hm.shape[1] != wm.shape[0]:
        raise DimensionMismatch(f"channel {hm.shape} incompatible with codeword {wm.shape}")
    n, t = hm.shape
    m = wm.shape[1]
    nz_rows = np.count_nonzero(wm, axis=1)
    if np.all(nz_rows <= 1):
        y = np.zeros((n, m), dtype=np.complex128)
        for ti in np.nonzero(nz_rows)[0]:
            mi = int(np.nonzero(wm[ti])[0][0])
            y[:, mi] += hm[:, ti] * wm[ti, mi]
        mults = n * int(np.count_nonzero(nz_rows))
    else:
        y = hm @ wm
        mults = n * t * m
    if counter is not None:
        counter.add(mults + n * m * m)
    return y.conj().T @ y


def _grams(hh):
    # channel Grams H^H H of a (batch, N, T) stack
    return hh.conj().mT @ hh


def _gram_dot(g, table):
    """Every row of ``table`` (T*T, C) weighted by the entries of its channel
    Gram and summed, as (batch, C): sum over t, u of g[b, t, u] * table[t*T + u].

    The product keeps a batch axis of (1, T*T) rows, so each trial is its own
    vector-matrix product and its bits do not depend on the chunk size; a 2-D
    (batch, T*T) GEMM takes another BLAS path for a batch of one.
    """
    b, t = g.shape[0], g.shape[1]
    return (g.reshape(b, 1, t * t) @ table)[:, 0]


def _rates(g, stack, rho, best=None):
    """Rates log2 det(I + (rho/M) W_k^H G W_k) as (len(rho), batch, K), for
    channel Grams g (batch, T, T), codewords (K, T, M) and a 1-D rho array.

    The codeword Grams W_k^H G W_k of every k come from one product with the
    (T*T, K*M*M) table of conj(W_k[t, i]) * W_k[u, m] (see ``_gram_dot``),
    and their eigenvalues from one ``eigvalsh`` call. The SNR points then run
    in blocks whose (points, batch, K, M) floats stay under
    ``_RATE_BLOCK_BYTES``; each point is elementwise, so the blocks do not
    change a bit. Given ``best``, a writable (len(rho), batch) array, each
    block's maximum over the K codewords goes there instead and ``best`` is
    returned, so no more than one block of per-codeword rates is held."""
    k, t, m = stack.shape
    w = stack.transpose(1, 0, 2)
    table = (w.conj()[:, None, :, :, None] * w[None, :, :, None, :]).reshape(t * t, k * m * m)
    grams = _gram_dot(g, table).reshape(-1, k, m, m)
    lam = np.clip(np.linalg.eigvalsh(grams), 0.0, None)
    out = np.empty((rho.size,) + lam.shape[:2]) if best is None else best
    step = max(1, _RATE_BLOCK_BYTES // lam.nbytes)
    for lo in range(0, rho.size, step):
        # in place: a fresh multi-MB temporary per step page-faults on every chunk
        x = rho[lo : lo + step, None, None, None] / m * lam
        x += 1.0
        np.log2(x, out=x)
        # explicit adds over the M eigenvalues; a reduce over that short axis is slower
        rates = x[..., 0].copy()
        for i in range(1, m):
            rates += x[..., i]
        out[lo : lo + step] = rates if best is None else rates.max(axis=-1)
    return out


def _gains(g, stack):
    """Effective gains ||H W_k||_F^2 = tr(W_k^H G W_k), shape (batch, K).

    The trace is sum over t, u of G[t, u] (W_k W_k^H)[u, t], one product of
    the Grams with the transposed projectors flattened to (T*T, K)."""
    k, t, _ = stack.shape
    proj = stack.conj() @ stack.mT  # (W_k W_k^H)^T
    return _gram_dot(g, proj.reshape(k, t * t).T).real


def _chunks(trials, seed):
    """(trial slice, its size, its trials' substreams) for each block of at most
    _CHUNK trials; the substreams are one reused generator (see ``substreams``)."""
    for start in range(0, trials, _CHUNK):
        stop = min(start + _CHUNK, trials)
        yield slice(start, stop), stop - start, substreams(seed, range(start, stop))


def _check_books(codebooks, n, trials):
    books = list(codebooks)
    if not books:
        raise InvalidArgument("need at least one codebook")
    if not is_int(n) or n < 1:
        raise InvalidArgument(f"receive antenna count N must be an integer >= 1, got {n!r}")
    if not is_int(trials) or trials < 1:
        raise InvalidArgument(f"trials must be an integer >= 1, got {trials!r}")
    if any(b.T != books[0].T for b in books):
        raise DimensionMismatch("all codebooks must share the antenna count T")
    return books


def rate_curve(codebooks, n: int, snr_db, trials: int, seed: int = 0) -> RateSweep:
    """Paired mean achievable rate over an SNR grid for several codebooks.

    Every codebook is evaluated on the same per-trial Rayleigh channels; the
    selected (maximum) rate is averaged per SNR point, and each codebook
    pair gets the mean and standard error of its per-trial rate difference.
    SNR points are finite and at most 3000 dB, so the linear SNR times a
    channel eigenvalue stays finite.
    """
    books = _check_books(codebooks, n, trials)
    t = books[0].T
    snr_db = np.atleast_1d(np.asarray(snr_db, dtype=float))
    if not (np.all(np.isfinite(snr_db)) and np.all(snr_db <= _MAX_SNR_DB)):
        raise InvalidArgument(f"SNR points must be finite and at most {_MAX_SNR_DB:g} dB, got {snr_db.tolist()}")
    rho = 10.0 ** (snr_db / 10.0)
    stacks = [b.stack() for b in books]
    ncb = len(books)
    # per-trial best rates, reduced once below so the sums do not depend on chunking
    best = _bounded_empty((trials, ncb, snr_db.size))
    for rows, size, rngs in _chunks(trials, seed):
        g = _grams(_rayleigh_chunk(rngs, size, n, t))
        for c, stack in enumerate(stacks):
            _rates(g, stack, rho, best=best[rows, c].T)
    diff_mean, diff_se = {}, {}
    for i, j in itertools.combinations(range(ncb), 2):
        d = best[:, j, :] - best[:, i, :]
        mean = d.sum(axis=0) / trials
        if trials > 1:
            var = np.maximum((d**2).sum(axis=0) - trials * mean**2, 0.0) / (trials - 1)
            se = np.sqrt(var / trials)
        else:
            se = np.full_like(mean, np.inf)
        diff_mean[(i, j)] = mean
        diff_se[(i, j)] = se
    return RateSweep(best.sum(axis=0) / trials, diff_mean, diff_se)


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
        raise InvalidArgument("need at least one Rician factor")
    t = books[0].T
    stacks = [book.stack() for book in books]
    out = _bounded_empty((len(ks), len(books), trials))
    for rows, size, rngs in _chunks(trials, seed):
        for ki, hh in enumerate(_rician_chunk(rngs, size, n, t, ks)):
            g = _grams(hh)
            for c, stack in enumerate(stacks):
                out[ki, c, rows] = _gains(g, stack).max(axis=1)
    out.sort(axis=-1)
    if isinstance(b, Codebook):
        out = out[:, 0]
    return out[0] if np.ndim(k) == 0 else out
