import numpy as np
import pytest

from grasspack.errors import InvalidArgument
from grasspack.rng import _pcg_seeds, substream, substreams

SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, -1]
IDS = [0, 1, 2**32 - 1, 2**32, 2**32 + 5, 2**64 - 1]


def draws(rng):
    # the 7-way integer draw leaves half a 64-bit word cached in the bit generator
    return rng.integers(7), rng.standard_normal(9).tobytes(), rng.uniform(size=2).tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_substreams_match_substream(seed):
    assert [draws(rng) for rng in substreams(seed, IDS)] == [draws(substream(seed, i)) for i in IDS]


@pytest.mark.parametrize("seed", SEEDS)
def test_pcg_seeds_match_seed_sequence(seed):
    seed &= 2**64 - 1
    want = [np.random.SeedSequence([seed, i]).generate_state(4, np.uint64) for i in IDS]
    np.testing.assert_array_equal(_pcg_seeds(seed, IDS), want)


def test_ids_past_one_block_match():
    ids = range(2000, 4200)
    got = [rng.random() for rng in substreams(7, ids)]
    assert got == [substream(7, i).random() for i in ids]


def test_trailing_zero_id_alias_is_reproduced():
    (rng,) = substreams(3, [0xA11])
    assert rng.random() == substream(3, 0xA11, 0).random()


@pytest.mark.parametrize("seed", [2.5, True, np.float64(1.0), "1", None])
def test_non_integer_seed_rejected_before_anything_is_yielded(seed):
    ids = iter(range(3))
    with pytest.raises(InvalidArgument):
        substreams(seed, ids)
    assert next(ids) == 0


def test_yielded_generator_is_valid_until_the_next_is_drawn():
    streams = substreams(5, [10, 11])
    first = next(streams)
    assert first.random() == substream(5, 10).random()
    second = next(streams)
    # one generator, reseeded: the first one held now continues stream 11
    assert second is first
    assert first.random() == substream(5, 11).random()
