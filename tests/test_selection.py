"""Tests for the uniform distinct selection U_X(k)."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.acquisition.traces import TraceSet
from repro.core.selection import (
    select_traces,
    selection_indices_batch,
    uniform_distinct_indices,
)


class TestUniformDistinct:
    @given(
        st.integers(min_value=1, max_value=200),
        st.integers(min_value=1, max_value=200),
    )
    def test_indices_are_distinct(self, n, k):
        if k > n:
            return
        rng = np.random.default_rng(0)
        indices = uniform_distinct_indices(n, k, rng)
        assert len(set(indices.tolist())) == k

    def test_indices_in_range(self, rng):
        indices = uniform_distinct_indices(100, 30, rng)
        assert np.all(indices >= 0)
        assert np.all(indices < 100)

    def test_rejects_k_larger_than_n(self, rng):
        with pytest.raises(ValueError):
            uniform_distinct_indices(5, 6, rng)

    def test_rejects_nonpositive_k(self, rng):
        with pytest.raises(ValueError):
            uniform_distinct_indices(5, 0, rng)

    def test_k_equals_n_is_a_permutation(self, rng):
        indices = uniform_distinct_indices(10, 10, rng)
        assert sorted(indices.tolist()) == list(range(10))

    def test_uniform_coverage(self):
        # Each element should be selected with probability k/n.
        rng = np.random.default_rng(1)
        counts = np.zeros(20)
        trials = 2000
        for _ in range(trials):
            counts[uniform_distinct_indices(20, 5, rng)] += 1
        expected = trials * 5 / 20
        assert np.all(np.abs(counts - expected) < 5 * np.sqrt(expected))


class TestSelectTraces:
    def test_selects_rows(self, rng):
        traces = TraceSet("d", np.arange(40, dtype=float).reshape(10, 4))
        selected = select_traces(traces, 3, rng)
        assert selected.shape == (3, 4)
        for row in selected:
            assert any(np.array_equal(row, original) for original in traces.matrix)


class TestBatch:
    def test_shape(self, rng):
        batch = selection_indices_batch(100, 5, 7, rng)
        assert batch.shape == (7, 5)

    def test_rows_individually_distinct(self, rng):
        batch = selection_indices_batch(50, 10, 20, rng)
        for row in batch:
            assert len(set(row.tolist())) == 10

    def test_rejects_nonpositive_m(self, rng):
        with pytest.raises(ValueError):
            selection_indices_batch(10, 2, 0, rng)


class TestReuseCounting:
    def test_reuse_rate_decreases_with_alpha(self):
        # Larger trace pools make cross-selection reuse rarer (property
        # P1 of the paper, checked on the actual machinery).
        rng = np.random.default_rng(5)
        k, m = 5, 10
        rates = []
        for alpha in (1, 16, 256):
            hits = 0
            for _ in range(300):
                batch = selection_indices_batch(alpha * k * m, k, m, rng)
                # Rows are individually distinct, so a repeat is reuse.
                hits += np.unique(batch).size < batch.size
            rates.append(hits / 300)
        # Near-saturation at alpha = 1; clearly rarer as alpha grows.
        assert rates[0] >= rates[1] > rates[2]
