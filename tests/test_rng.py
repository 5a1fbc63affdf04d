"""crflow.rng against numpy.random: the same seeds give the same draws, bit for bit."""

import numpy as np
import pytest

import crflow.rng as rng
from crflow.operators import _CALIBRATION_POINTS, _CALIBRATION_SEED

# one, two, four and seven 32-bit words of seed: SeedSequence mixes the
# first four into its pool and folds any further words in afterwards
SEEDS = [0, 2**32 + 1, 2**127, 2**200 + 3]


@pytest.mark.parametrize("seed", SEEDS)
def test_seeding_gives_numpy_s_pcg64_state(seed):
    state = np.random.default_rng(seed).bit_generator.state["state"]
    ours = rng.default_rng(seed)
    assert (ours._state, ours._inc) == (state["state"], state["inc"])


def test_normals_are_numpy_s_through_both_slow_paths(monkeypatch):
    # 10^5 normals, drawn one at a time so that each draw's uniforms are
    # counted: only the tail and the wedge test draw a uniform, and only
    # the tail returns beyond ziggurat_nor_r
    uniforms = []
    next_double = rng.Generator._next_double

    def counted(self):
        uniforms.append(None)
        return next_double(self)

    monkeypatch.setattr(rng.Generator, "_next_double", counted)
    tails = wedges = 0
    for seed in SEEDS:
        ours = rng.default_rng(seed)
        draws = []
        for _ in range(25_000):
            before = len(uniforms)
            x = ours.standard_normal()
            draws.append(x)
            tails += abs(x) > rng._NOR_R
            wedges += len(uniforms) > before and abs(x) < rng._NOR_R
        expected = np.random.default_rng(seed).standard_normal(len(draws))
        assert np.array(draws).tobytes() == expected.tobytes()
        assert ours.standard_normal(3).tobytes() \
            == np.random.default_rng(seed).standard_normal(len(draws) + 3)[-3:].tobytes()
    assert tails > 0 and wedges > 0


def test_lattice_draws_interleave_as_numpy_s():
    # _random_lattice's order: one bounded integer, then two normals, per
    # vertical mode; the integer uses half of a 64-bit output and keeps
    # the other half for the next integer, past the normals
    for cutoff in range(1, 65):
        ours = rng.default_rng(cutoff + 0x5EED)
        theirs = np.random.default_rng(cutoff + 0x5EED)
        for _ in range(64):
            assert ours.integers(-cutoff, cutoff + 1) == int(theirs.integers(-cutoff, cutoff + 1))
            assert ours.standard_normal(2).tobytes() == theirs.standard_normal(2).tobytes()


@pytest.mark.parametrize("low, high", [(5, 6), (0, 2**31 + 1), (-7, 2**32 - 8)])
def test_integers_are_numpy_s_at_the_ends_of_the_range(low, high):
    # a single value draws nothing; a span just past 2**31 rejects about
    # half of its draws
    ours, theirs = rng.default_rng(11), np.random.default_rng(11)
    for _ in range(1000):
        assert ours.integers(low, high) == int(theirs.integers(low, high))
    assert ours.standard_normal() == theirs.standard_normal()


def test_calibration_uniforms_are_numpy_s():
    ours = rng.default_rng(_CALIBRATION_SEED)
    theirs = np.random.default_rng(_CALIBRATION_SEED)
    for a in (2.0, 1.5, 1.5):
        assert ours.uniform(-a, a, _CALIBRATION_POINTS).tobytes() \
            == theirs.uniform(-a, a, _CALIBRATION_POINTS).tobytes()


def test_out_of_range_arguments_are_refused():
    for seed in (-1, 1.5):
        with pytest.raises(ValueError, match="seed"):
            rng.default_rng(seed)
    for low, high in ((0, 0), (3, 2), (0, 2**32)):
        with pytest.raises(ValueError, match="high - low"):
            rng.default_rng(0).integers(low, high)
