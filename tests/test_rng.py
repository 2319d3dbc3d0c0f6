"""Tests for the seeded RNG helpers."""

import random

import pytest

from repro.rng import make_rng, triangular_int


class TestMakeRng:
    def test_int_seed_reproducible(self):
        assert make_rng(42).random() == make_rng(42).random()

    def test_existing_rng_passthrough(self):
        rng = random.Random(1)
        assert make_rng(rng) is rng

    def test_none_gives_fresh_rng(self):
        rng = make_rng(None)
        assert isinstance(rng, random.Random)

    def test_string_seed_accepted(self):
        assert make_rng("clip:foreman").random() == make_rng("clip:foreman").random()


class TestTriangularInt:
    def test_bounds_respected(self):
        rng = make_rng(1)
        for _ in range(200):
            value = triangular_int(rng, 2, 9)
            assert 2 <= value <= 9

    def test_degenerate_range(self):
        assert triangular_int(make_rng(1), 5, 5) == 5

    def test_empty_range_raises(self):
        with pytest.raises(ValueError):
            triangular_int(make_rng(1), 9, 2)

    def test_mode_biases_distribution(self):
        rng = make_rng(2)
        low_mode = [triangular_int(rng, 0, 100, mode=10) for _ in range(500)]
        rng = make_rng(2)
        high_mode = [triangular_int(rng, 0, 100, mode=90) for _ in range(500)]
        assert sum(low_mode) < sum(high_mode)
