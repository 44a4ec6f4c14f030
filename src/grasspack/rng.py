"""Deterministic random-number substreams.

All randomness in the package is derived from a named 64-bit seed. Independent
substreams (per trial, per frame, per optimizer restart) are obtained by
feeding the seed together with integer stream identifiers into a
``numpy.random.SeedSequence``, so results never depend on execution order,
chunking, or thread count.

``substream(seed, *ids)`` builds that ``SeedSequence`` and a fresh PCG64
generator; it is the one-off call and the reference for the other one.
``substreams(seed, ids)`` yields the generators of (seed, id) for many ids,
as the Monte Carlo sweeps open one per trial or frame. It computes the
``SeedSequence`` pools of a block of ids at once in uint32 arithmetic and
seeds PCG64 from them as numpy does, so every draw is bit-identical to
``substream(seed, id)``. It yields one reused generator, reseeded for each
id: a yielded generator is valid only until the next one is drawn.

``SeedSequence`` pads its entropy with zeros, so trailing zero ids vanish:
``substream(s, 0xA11, 0)``, the first restart of ``optimize_manopt``, is the
same stream as ``substream(s, 0xA11)``, which is trial and frame 2577 of a
sweep at seed ``s``. ``substreams`` reproduces this alias bit for bit.
Removing it would change the pinned codebook fixtures, so it stays.
"""

import itertools

import numpy as np

from .errors import InvalidArgument
from .linalg import is_int

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645  # PCG's default 128-bit LCG multiplier
_POOL = 4  # SeedSequence's default pool size, in uint32 words
_BLOCK = 1024  # ids whose pools are computed together


def _hash_consts(init, mult, count):
    # SeedSequence's hash constant before each of ``count`` hashes, and after the last
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)


# mixing a pool of 4 hashes 4 + 4 * 3 words; generate_state(4, uint64) hashes 8
_MIX_CONSTS = _hash_consts(0x43B0D7E5, 0x931E8875, _POOL * _POOL)
_STATE_CONSTS = _hash_consts(0x8B51F9DD, 0x58F38DED, 2 * _POOL)
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash(v, consts):
    """SeedSequence's hashmix with constants j and j + 1 of ``consts`` as row j;
    a 1-D ``v`` is hashed once per row."""
    v = (v ^ consts[:-1, None]) * consts[1:, None]
    return v ^ (v >> np.uint32(16))


def _check_seed(seed) -> int:
    if not is_int(seed):
        raise InvalidArgument(f"seed must be an integer, got {seed!r}")
    return int(seed) & _MASK64


def substream(seed: int, *ids: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, *ids)."""
    entropy = [_check_seed(seed)] + [int(i) & _MASK64 for i in ids]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def _pcg_seeds(seed, ids):
    """``SeedSequence([seed, id]).generate_state(4, np.uint64)`` for each id, as (len(ids), 4).

    The entropy words are the seed's uint32 words, then the id's, low word
    first, each one word below 2**32 and two from there. That is at most 4
    words, the pool size, and a zero high word of the id is the zero padding
    the pool gets anyway, so every id fills the same 4-word layout.
    """
    words = [seed & _MASK32] + ([seed >> 32] if seed >> 32 else [])
    ids = np.array(ids, dtype=np.uint64)
    pool = np.zeros((_POOL, ids.size), dtype=np.uint32)
    pool[: len(words)] = np.array(words, dtype=np.uint32)[:, None]
    pool[len(words)] = ids & np.uint64(_MASK32)
    pool[len(words) + 1] = ids >> np.uint64(32)
    pool = _hash(pool, _MIX_CONSTS[: _POOL + 1])
    for src in range(_POOL):
        # pool[src] is not changed while it is mixed into the other words
        dst = [d for d in range(_POOL) if d != src]
        j = _POOL + src * (_POOL - 1)
        mixed = _MIX_L * pool[dst] - _MIX_R * _hash(pool[src], _MIX_CONSTS[j : j + _POOL])
        pool[dst] = mixed ^ (mixed >> np.uint32(16))
    state = _hash(np.tile(pool, (2, 1)), _STATE_CONSTS)
    return np.ascontiguousarray(state.T).view(np.uint64)


def substreams(seed: int, ids):
    """The generator of substream (seed, i) for each i in ``ids``, in order.

    Every draw is bit-identical to ``substream(seed, i)``. One generator is
    reseeded and yielded for every id, so a yielded generator is valid only
    until the next one is drawn. A seed that is not an integer is rejected
    at the call, before anything is yielded.
    """
    return _reseeded(_check_seed(seed), iter(ids))


def _reseeded(seed, ids):
    bitgen = np.random.PCG64(0)
    rng = np.random.Generator(bitgen)
    while block := [int(i) & _MASK64 for i in itertools.islice(ids, _BLOCK)]:
        for w0, w1, w2, w3 in _pcg_seeds(seed, block).tolist():
            # PCG64's seeding: inc = 2 * seq + 1, then two LCG steps from state 0 with init added
            inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
            state = ((inc + (w0 << 64 | w1)) * _PCG_MULT + inc) & _MASK128
            # the zeroed cache drops the half word a 32-bit draw of the last id left behind
            bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc}, "has_uint32": 0, "uinteger": 0}
            yield rng
