"""Tests for deterministic RNG derivation and unit formatting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.rng import derive_rng, stable_seed
from repro.common.units import GB, KB, MB, fmt_bytes, fmt_duration


class TestStableSeed:
    def test_deterministic(self):
        assert stable_seed("a", 1, 2.5) == stable_seed("a", 1, 2.5)

    def test_distinct_inputs_distinct_seeds(self):
        assert stable_seed("a") != stable_seed("b")
        assert stable_seed("a", 1) != stable_seed("a", 2)

    def test_separator_prevents_concatenation_collisions(self):
        assert stable_seed("ab", "c") != stable_seed("a", "bc")

    def test_bytes_and_floats_accepted(self):
        assert isinstance(stable_seed(b"raw", 3.14, True), int)

    @given(st.text(max_size=20), st.text(max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_different_strings_rarely_collide(self, a, b):
        if a != b:
            assert stable_seed(a) != stable_seed(b)


class TestDeriveRng:
    def test_same_key_same_stream(self):
        r1, r2 = derive_rng("k", 1), derive_rng("k", 1)
        assert np.allclose(r1.random(5), r2.random(5))

    def test_different_keys_different_streams(self):
        r1, r2 = derive_rng("k", 1), derive_rng("k", 2)
        assert not np.allclose(r1.random(5), r2.random(5))


class TestUnits:
    def test_constants(self):
        assert KB == 1024 and MB == 1024**2 and GB == 1024**3

    @pytest.mark.parametrize(
        "value,expected",
        [(512, "512 B"), (1536, "1.5 KB"), (3 * MB, "3 MB"), (2.5 * GB, "2.5 GB")],
    )
    def test_fmt_bytes(self, value, expected):
        assert fmt_bytes(value) == expected

    @pytest.mark.parametrize(
        "value,expected",
        [(0.5, "500.0ms"), (12.3, "12.3s"), (125, "2m 5s"), (3725, "1h 2m 5s")],
    )
    def test_fmt_duration(self, value, expected):
        assert fmt_duration(value) == expected
