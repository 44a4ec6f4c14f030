"""Limited-feedback MIMO link simulation.

The paired Monte Carlo sweeps behind the rate and gain comparisons:
``rate_curve`` selects, per trial, the codeword of highest achievable rate
log2 det(I + (rho/M) W^H H^H H W) under Rayleigh fading, and ``gain_cdf``
the codeword of highest effective gain ||H W||_F^2 under Rician fading.
Channels are (N, T) complex arrays drawn in chunks of trials and scored
for every codeword at once through the channel Grams G = H^H H: the
codeword Grams W_k^H G W_k and the gains tr(W_k^H G W_k) are the flattened
Grams times a table built from the codebook, one stacked matrix product per
chunk (see ``_gram_dot``). The rates sum log2(1 + (rho/M) lambda) over the
eigenvalues lambda of each codeword Gram, from one batched ``eigvalsh`` call:
M = 2 Grams go to it as real symmetric matrices of the same spectrum, which
LAPACK's real path takes at under half the complex cost; M = 1 and M >= 3
stay complex (see ``_rates``). Trial i draws its channel from substream
(seed, i) of the run seed, opened for a chunk at once by
``rng.substreams``, so results are reproducible bit-for-bit regardless of
chunking or thread count, and all codebooks in one sweep see the same
channel sequence (common random numbers).
A gain sweep over several Rician factors draws each trial's angles and
scattering block once, so every codebook and every K see the same per-trial
draw. It forms no Rician channel or Gram stack: a gain is linear in the
channel Gram, and every K's Gram is a weighted sum of three parts that all K
share (see ``_rician_parts``), so each codebook is scored once per chunk on
the three parts and every K's gains are the same weighted sum of those.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidArgument
from .grassmann import Codebook
from .linalg import _RESULT_BYTES, _bounded_empty, _check_bytes, as_real_array, is_int, is_real
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
    return k + 0.0  # -0.0 becomes 0.0, whose CLI column tag is K0


def _rician_parts(rngs, b, n, t):
    """The three (b, T, T) Gram parts every Rician factor shares, stacked as
    (3, b, T, T), for normalized Rician channels drawn from b per-trial
    generators consumed in trial order.

    A channel H = (a L + c R) / sqrt(N T), with a = sqrt(K / (K + 1)) and
    c = sqrt(1 / (K + 1)), is a rank-one line-of-sight part L = a_r a_t^H plus
    Rayleigh scattering R. The steering vectors a_r, a_t are half-wavelength
    ULA responses to arrival and departure angles drawn uniformly on
    (-pi/2, pi/2); their entries have unit modulus, so ||L||_F^2 = N T matches
    the expected scattered power and E||H||_F^2 = 1. Each generator yields its
    trial's arrival and departure angles, then the real and imaginary
    scattering blocks; every K mixes the same draws.

    No channel is formed. With v = a_r^H R the parts are a_t a_t^H,
    a_t v + (a_t v)^H and R^H R, and each K's Gram is
    H^H H = (a^2 N a_t a_t^H + a c (a_t v + (a_t v)^H) + c^2 R^H R) / (N T),
    while K = +inf gives a_t a_t^H / T.
    """
    angles = np.empty((b, 2))
    buf = np.empty((b, 2, n, t))
    for i, rng in enumerate(rngs):
        angles[i] = rng.uniform(-np.pi / 2, np.pi / 2, 2)
        rng.standard_normal(out=buf[i])
    at = _steering(t, angles[:, 1])
    ray = (buf[:, 0] + 1j * buf[:, 1]) / math.sqrt(2.0)
    v = _steering(n, angles[:, 0]).conj()[:, None, :] @ ray  # a_r^H R
    parts = np.empty((3, b, t, t), dtype=np.complex128)
    np.multiply(at[:, :, None], at.conj()[:, None, :], out=parts[0])
    np.multiply(at[:, :, None], v, out=parts[1])
    parts[1] += parts[1].conj().mT
    parts[2] = _grams(ray)
    return parts


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
    and their eigenvalues from one ``eigvalsh`` call. For M = 2 that call
    gets the real symmetric [[Re a, |b|], [|b|, Re d]] in place of each
    Hermitian [[a, conj(b)], [b, d]]: with D = diag(1, b / |b|), D^H G D is
    that matrix, a unitary similarity with the same eigenvalues, and LAPACK's
    real path costs less than half the complex one. M = 1 gains nothing from
    it, and M >= 3 has no such diagonal similarity, so both stay complex.
    The SNR points then run in blocks whose (points, batch, K, M) floats stay
    under ``_RATE_BLOCK_BYTES``; each point is elementwise, so the blocks do
    not change a bit. Given ``best``, a writable (len(rho), batch) array, each
    block's maximum over the K codewords goes there instead and ``best`` is
    returned, so no more than one block of per-codeword rates is held."""
    k, t, m = stack.shape
    w = stack.transpose(1, 0, 2)
    table = (w.conj()[:, None, :, :, None] * w[None, :, :, None, :]).reshape(t * t, k * m * m)
    grams = _gram_dot(g, table).reshape(-1, k, m, m)
    if m == 2:
        real = np.empty(grams.shape)
        real[..., 0, 0] = grams[..., 0, 0].real
        real[..., 1, 1] = grams[..., 1, 1].real
        real[..., 0, 1] = real[..., 1, 0] = np.abs(grams[..., 1, 0])
        grams = real
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


def _chunks(trials, seed, chunk):
    """(trial slice, its size, its trials' substreams) for each block of at most
    ``chunk`` trials; the substreams are one reused generator (see ``substreams``)."""
    for start in range(0, trials, chunk):
        stop = min(start + chunk, trials)
        yield slice(start, stop), stop - start, substreams(seed, range(start, stop))


def _check_books(codebooks, n, trials):
    if not (isinstance(codebooks, Sequence) and codebooks and all(isinstance(b, Codebook) for b in codebooks)):
        raise InvalidArgument(f"codebooks must be a non-empty sequence of Codebook, got {type(codebooks).__name__}")
    if not is_int(n) or n < 1:
        raise InvalidArgument(f"receive antenna count N must be an integer >= 1, got {n!r}")
    if not is_int(trials) or trials < 1:
        raise InvalidArgument(f"trials must be an integer >= 1, got {trials!r}")
    if any(b.T != codebooks[0].T for b in codebooks):
        raise DimensionMismatch("all codebooks must share the antenna count T")
    return list(codebooks)


def _fit_chunk(trials, n, t, stacks):
    """Trials per chunk: at most ``_CHUNK``, and fewer when one chunk's channel
    draws, or its ``stacks`` (chunk, T, T) complex stacks alive at once, would
    not fit in ``_RESULT_BYTES``; the chunk size does not change a bit (see
    ``_gram_dot``). Refuses only when one trial's draws or stacks do not fit."""
    _check_bytes((2, n, t))  # one trial's channel draws
    _check_bytes((stacks, t, t), np.complex128)  # and its (T, T) stacks
    return min(trials, _CHUNK, _RESULT_BYTES // max(2 * n * t * 8, stacks * t * t * 16))


def rate_curve(codebooks, n: int, snr_db, trials: int, seed: int) -> RateSweep:
    """Paired mean achievable rate over an SNR grid for several codebooks.

    Every codebook is evaluated on the same per-trial Rayleigh channels; the
    selected (maximum) rate is averaged per SNR point, and each codebook
    pair gets the mean and standard error of its per-trial rate difference.
    SNR points are finite and at most 3000 dB, so the linear SNR times a
    channel eigenvalue stays finite.
    """
    books = _check_books(codebooks, n, trials)
    t = books[0].T
    snr_db = np.atleast_1d(as_real_array(snr_db, "snr_db"))
    if not (np.all(np.isfinite(snr_db)) and np.all(snr_db <= _MAX_SNR_DB)):
        raise InvalidArgument(f"SNR points must be finite and at most {_MAX_SNR_DB:g} dB, got {snr_db.tolist()}")
    rho = 10.0 ** (snr_db / 10.0)
    chunk = _fit_chunk(trials, n, t, 1)  # one stack: the channel Grams
    _check_bytes((t * t, max(len(b) * b.M**2 for b in books)), np.complex128)  # the table of _rates
    stacks = [b.stack() for b in books]
    ncb = len(books)
    # per-trial best rates, reduced once below so the sums do not depend on chunking
    best = _bounded_empty((trials, ncb, snr_db.size))
    for rows, size, rngs in _chunks(trials, seed, chunk):
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


def gain_cdf(codebooks, n: int, k_factors, trials: int, seed: int) -> np.ndarray:
    """Sorted per-trial best effective gains under normalized Rician fading,
    as an array of shape (len(k_factors), len(codebooks), trials).

    ``codebooks`` is a non-empty sequence of codebooks sharing T, and
    ``k_factors`` a non-empty sequence of Rician factors. Trial i draws its
    two LoS angles and its scattering block from substream (seed, i) once,
    and every codebook and every K is scored on that draw, so all columns
    are paired samples. The channel sequence depends only on (seed, trial,
    N, T), so separate calls with the same seed give the same samples as one
    batched call. A gain tr(W^H G W) is linear in the channel Gram G, so each
    codebook is scored once per chunk on the three Gram parts every K shares
    (see ``_rician_parts``), and each K's gains are their weighted sum.
    """
    books = _check_books(codebooks, n, trials)
    if not (isinstance(k_factors, Sequence) and k_factors):
        raise InvalidArgument(f"Rician factors must be a non-empty sequence, got {type(k_factors).__name__}")
    ks = [_check_k(k) for k in k_factors]
    t = books[0].T
    chunk = _fit_chunk(trials, n, t, 4)  # four stacks: the three parts and one temporary
    _check_bytes((max(map(len, books)), t, t), np.complex128)  # the projectors of _gains
    stacks = [book.stack() for book in books]
    out = _bounded_empty((len(ks), len(books), trials))
    for rows, size, rngs in _chunks(trials, seed, chunk):
        parts = _rician_parts(rngs, size, n, t).reshape(3 * size, t, t)
        for j, stack in enumerate(stacks):
            los, cross, scatter = _gains(parts, stack).reshape(3, size, -1)
            for ki, k in enumerate(ks):
                if math.isinf(k):
                    gains = los / t
                else:
                    a, c = math.sqrt(k / (k + 1)), math.sqrt(1 / (k + 1))
                    gains = ((a * a * n) * los + (a * c) * cross + (c * c) * scatter) / (n * t)
                out[ki, j, rows] = gains.max(axis=1)
    out.sort(axis=-1)
    return out
