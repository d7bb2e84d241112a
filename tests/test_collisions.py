"""Tests for the key-collision analysis."""

import numpy as np

from repro.analysis.collisions import (
    collision_summary,
    cross_key_correlations,
    switching_matrix,
)
from repro.fsm.encoding import gray_encode

BINARY_CODES = list(range(256))
GRAY_CODES = [gray_encode(i, 8) for i in range(256)]
SOME_KEYS = [0x00, 0x5A, 0xC3, 0x2F, 0xFF, 0x80, 0x01, 0x7E]


class TestSwitchingMatrix:
    def test_shape(self):
        matrix = switching_matrix(BINARY_CODES, SOME_KEYS)
        assert matrix.shape == (len(SOME_KEYS), 256)

    def test_default_keys_is_all_256(self):
        matrix = switching_matrix(BINARY_CODES[:32])
        assert matrix.shape == (256, 32)

    def test_values_are_hamming_distances(self):
        matrix = switching_matrix(BINARY_CODES, [0x00])
        assert np.all(matrix >= 0)
        assert np.all(matrix <= 8)


class TestCrossKeyCorrelations:
    def test_diagonal_is_one(self):
        corr = cross_key_correlations(BINARY_CODES, SOME_KEYS)
        np.testing.assert_allclose(np.diag(corr), 1.0, atol=1e-12)

    def test_symmetric(self):
        corr = cross_key_correlations(BINARY_CODES, SOME_KEYS)
        np.testing.assert_allclose(corr, corr.T)

    def test_off_diagonal_bounded(self):
        # Hamming-neighbour keys (e.g. 0x00/0x01 in SOME_KEYS) partially
        # collide at rho ~ 0.5 — their address sequences are single-swap
        # permutations of each other.  Everything stays clearly below a
        # matching pair's ~1.0.
        corr = cross_key_correlations(BINARY_CODES, SOME_KEYS)
        off = corr[~np.eye(len(SOME_KEYS), dtype=bool)]
        assert np.max(np.abs(off)) < 0.6

    def test_multi_bit_keys_are_nearly_uncorrelated(self):
        # The paper's actual keys differ in several bits; for such keys
        # the switching correlation is close to zero.
        paper_keys = [0x5A, 0xC3, 0x2F]
        corr = cross_key_correlations(BINARY_CODES, paper_keys)
        off = corr[~np.eye(len(paper_keys), dtype=bool)]
        assert np.max(np.abs(off)) < 0.25

    def test_gray_codes_also_bounded(self):
        corr = cross_key_correlations(GRAY_CODES, SOME_KEYS)
        off = corr[~np.eye(len(SOME_KEYS), dtype=bool)]
        assert np.max(np.abs(off)) < 0.6

    def test_worst_full_keyspace_pair_is_a_hamming_neighbour(self):
        # Structural finding of this reproduction: the worst-colliding
        # key pair over the whole keyspace differs in exactly one bit.
        summary = collision_summary(BINARY_CODES)
        a, b = summary.worst_pair
        assert bin(a ^ b).count("1") == 1


class TestCollisionSummary:
    def test_summary_fields(self):
        summary = collision_summary(BINARY_CODES, SOME_KEYS)
        assert summary.n_keys == len(SOME_KEYS)
        assert summary.n_pairs == len(SOME_KEYS) * (len(SOME_KEYS) - 1) // 2
        assert summary.minimum <= summary.mean <= summary.maximum

    def test_mean_near_zero(self):
        summary = collision_summary(BINARY_CODES, SOME_KEYS)
        assert abs(summary.mean) < 0.1

    def test_worst_pair_is_a_real_pair(self):
        summary = collision_summary(BINARY_CODES, SOME_KEYS)
        a, b = summary.worst_pair
        assert a in SOME_KEYS
        assert b in SOME_KEYS
        assert a != b

    def test_full_keyspace_summary(self):
        # The paper's collision claim, exhaustively over all 256 keys.
        summary = collision_summary(BINARY_CODES)
        assert summary.n_keys == 256
        assert summary.n_pairs == 256 * 255 // 2
        assert abs(summary.mean) < 0.05
        assert summary.maximum < 0.6
