"""Tests for the correlation computation process (Fig. 2)."""

import numpy as np
import pytest

from repro.acquisition.traces import TraceSet
from repro.core.averaging import k_averaged_set
from repro.core.correlation import pearson_many
from repro.core.process import (
    CorrelationProcess,
    CorrelationResult,
    ParameterError,
    ProcessParameters,
)


def synthetic_sets(seed=0, n1=60, n2=400, l=128, sigma=1.0, same_signal=True):
    rng = np.random.default_rng(seed)
    signal_ref = np.sin(np.linspace(0, 6 * np.pi, l))
    signal_dut = signal_ref if same_signal else np.cos(np.linspace(0, 6 * np.pi, l))
    t_ref = TraceSet("ref", signal_ref + rng.normal(0, sigma, size=(n1, l)))
    t_dut = TraceSet("dut", signal_dut + rng.normal(0, sigma, size=(n2, l)))
    return t_ref, t_dut


SMALL = ProcessParameters(k=10, m=8, n1=60, n2=400)


class TestProcessParameters:
    def test_paper_defaults(self):
        p = ProcessParameters()
        assert (p.k, p.m, p.n1, p.n2) == (50, 20, 400, 10_000)
        assert p.alpha == 10.0

    def test_expression_1_enforced(self):
        with pytest.raises(ParameterError, match="expression \\(1\\)"):
            ProcessParameters(k=50, m=2, n1=40, n2=10_000)

    def test_expression_2_enforced(self):
        with pytest.raises(ParameterError, match="expression \\(2\\)"):
            ProcessParameters(k=50, m=20, n1=400, n2=999)

    def test_rejects_nonpositive(self):
        with pytest.raises(ParameterError):
            ProcessParameters(k=0)

    def test_alpha_computation(self):
        p = ProcessParameters(k=10, m=10, n1=10, n2=500)
        assert p.alpha == 5.0


class TestCorrelationProcess:
    def test_produces_m_coefficients(self, rng):
        t_ref, t_dut = synthetic_sets()
        result = CorrelationProcess(SMALL).run(t_ref, t_dut, rng)
        assert len(result) == SMALL.m
        assert result.coefficients.shape == (8,)

    def test_coefficients_bounded(self, rng):
        t_ref, t_dut = synthetic_sets()
        result = CorrelationProcess(SMALL).run(t_ref, t_dut, rng)
        assert np.all(result.coefficients >= -1)
        assert np.all(result.coefficients <= 1)

    def test_metadata(self, rng):
        t_ref, t_dut = synthetic_sets()
        result = CorrelationProcess(SMALL).run(t_ref, t_dut, rng)
        assert result.ref_name == "ref"
        assert result.dut_name == "dut"
        assert result.parameters is SMALL

    def test_same_signal_correlates_high(self, rng):
        t_ref, t_dut = synthetic_sets(same_signal=True)
        result = CorrelationProcess(SMALL).run(t_ref, t_dut, rng)
        assert result.mean > 0.7

    def test_different_signal_correlates_low(self, rng):
        t_ref, t_dut = synthetic_sets(same_signal=False)
        result = CorrelationProcess(SMALL).run(t_ref, t_dut, rng)
        assert abs(result.mean) < 0.4

    def test_match_variance_smaller_than_mismatch(self):
        # The heart of the paper's variance distinguisher.
        t_ref, t_dut_match = synthetic_sets(seed=1, same_signal=True, sigma=0.5)
        _t, t_dut_other = synthetic_sets(seed=2, same_signal=False, sigma=0.5)
        process = CorrelationProcess(SMALL)
        match = process.run(t_ref, t_dut_match, np.random.default_rng(3))
        other = process.run(t_ref, t_dut_other, np.random.default_rng(3))
        assert match.variance < other.variance

    def test_strict_checks_declared_sizes(self, rng):
        t_ref, t_dut = synthetic_sets(n1=30)
        with pytest.raises(ParameterError, match="n1"):
            CorrelationProcess(SMALL).run(t_ref, t_dut, rng)

    def test_non_strict_allows_smaller_pools(self, rng):
        t_ref, t_dut = synthetic_sets(n1=30, n2=100)
        process = CorrelationProcess(SMALL, strict=False)
        result = process.run(t_ref, t_dut, rng)
        assert len(result) == SMALL.m

    def test_non_strict_still_requires_k(self, rng):
        t_ref, t_dut = synthetic_sets(n1=5)
        with pytest.raises(ParameterError, match="k"):
            CorrelationProcess(SMALL, strict=False).run(t_ref, t_dut, rng)

    def test_trace_length_mismatch(self, rng):
        t_ref, _ = synthetic_sets(l=128)
        _, t_dut = synthetic_sets(l=64)
        with pytest.raises(ParameterError, match="length"):
            CorrelationProcess(SMALL).run(t_ref, t_dut, rng)

    def test_precomputed_reference_is_used(self):
        # With a reference passed, the run draws only the DUT set from
        # its generator and correlates it against that reference.
        t_ref, t_dut = synthetic_sets()
        process = CorrelationProcess(SMALL)
        reference = process.reference_trace(t_ref, np.random.default_rng(1))
        result = process.run(
            t_ref, t_dut, np.random.default_rng(2), reference=reference
        )
        a_dut = k_averaged_set(t_dut, SMALL.k, SMALL.m, np.random.default_rng(2))
        expected = pearson_many(reference, a_dut)
        assert result.coefficients.tobytes() == expected.tobytes()

    def test_reference_rejected_with_fresh_references(self):
        t_ref, t_dut = synthetic_sets()
        process = CorrelationProcess(SMALL, single_reference=False)
        reference = process.reference_trace(t_ref, np.random.default_rng(1))
        with pytest.raises(ValueError, match="reference=.*single_reference=False"):
            process.run(t_ref, t_dut, 2, reference=reference)

    def test_precomputed_dut_set_is_used(self):
        # With both averages passed, the run draws nothing and only
        # correlates them.
        t_ref, t_dut = synthetic_sets()
        process = CorrelationProcess(SMALL)
        reference = process.reference_trace(t_ref, np.random.default_rng(1))
        dut_set = process.dut_set(t_dut, np.random.default_rng(2))
        a_dut = k_averaged_set(t_dut, SMALL.k, SMALL.m, np.random.default_rng(2))
        assert dut_set.tobytes() == a_dut.tobytes()
        generator = np.random.default_rng(3)
        state = generator.bit_generator.state
        result = process.run(
            t_ref, t_dut, generator, reference=reference, dut_set=dut_set
        )
        assert generator.bit_generator.state == state
        expected = pearson_many(reference, a_dut)
        assert result.coefficients.tobytes() == expected.tobytes()

    def test_dut_set_rejected_with_fresh_references(self):
        t_ref, t_dut = synthetic_sets()
        process = CorrelationProcess(SMALL, single_reference=False)
        dut_set = process.dut_set(t_dut, np.random.default_rng(1))
        with pytest.raises(ValueError, match="dut_set=.*single_reference=False"):
            process.run(t_ref, t_dut, 2, dut_set=dut_set)

    def test_single_reference_reduces_variance(self):
        # E8 ablation: a fresh reference per coefficient inflates the
        # spread of the C set (RefD noise leaks into it).
        t_ref, t_dut = synthetic_sets(sigma=1.5)
        single = CorrelationProcess(SMALL, single_reference=True)
        fresh = CorrelationProcess(SMALL, single_reference=False)
        variances_single = []
        variances_fresh = []
        for seed in range(10):
            variances_single.append(
                single.run(t_ref, t_dut, np.random.default_rng(seed)).variance
            )
            variances_fresh.append(
                fresh.run(t_ref, t_dut, np.random.default_rng(100 + seed)).variance
            )
        assert np.median(variances_single) < np.median(variances_fresh)

    def test_reproducible_given_seed(self):
        t_ref, t_dut = synthetic_sets()
        process = CorrelationProcess(SMALL)
        r1 = process.run(t_ref, t_dut, 99)
        r2 = process.run(t_ref, t_dut, 99)
        np.testing.assert_allclose(r1.coefficients, r2.coefficients)

    def test_fresh_reference_branch_matches_historical_loop(self):
        # Golden test for the vectorised E8 branch: same RNG stream,
        # bit-identical coefficients as the per-coefficient loop it
        # replaced.
        from repro.core.averaging import k_averaged_trace
        from repro.core.correlation import pearson

        t_ref, t_dut = synthetic_sets(sigma=1.2)
        p = SMALL
        generator = np.random.default_rng(41)
        expected = np.empty(p.m)
        for i in range(p.m):
            a_ref = k_averaged_trace(t_ref, p.k, generator)
            a_dut_one = k_averaged_trace(t_dut, p.k, generator)
            expected[i] = pearson(a_ref, a_dut_one)

        process = CorrelationProcess(SMALL, single_reference=False)
        result = process.run(t_ref, t_dut, np.random.default_rng(41))
        np.testing.assert_array_equal(result.coefficients, expected)

    def test_fresh_reference_branch_tolerates_readonly_matrices(self):
        t_ref, t_dut = synthetic_sets()
        t_ref.matrix.flags.writeable = False
        t_dut.matrix.flags.writeable = False
        process = CorrelationProcess(SMALL, single_reference=False)
        result = process.run(t_ref, t_dut, 5)
        assert result.coefficients.shape == (SMALL.m,)


class TestCorrelationResult:
    def test_mean_and_variance(self):
        result = CorrelationResult(
            ref_name="r",
            dut_name="d",
            parameters=SMALL,
            coefficients=np.array([0.5, 0.7, 0.9]),
        )
        assert result.mean == pytest.approx(0.7)
        assert result.variance == pytest.approx(np.var([0.5, 0.7, 0.9]))
