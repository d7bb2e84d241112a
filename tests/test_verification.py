"""Tests for the end-to-end WatermarkVerifier."""

import numpy as np
import pytest

from repro.acquisition.traces import TraceSet
from repro.core.distinguishers import ALL_DISTINGUISHERS
from repro.core.process import ProcessParameters
from repro.core.verification import WatermarkVerifier


def make_trace_sets(seed=0, l=256, sigma=0.8):
    """A reference plus three DUTs; DUT#2 carries the same signal."""
    rng = np.random.default_rng(seed)
    t = np.linspace(0, 10 * np.pi, l)
    signal_ref = np.sin(t) + 0.8 * np.sin(3.1 * t)
    signal_other = 0.3 * np.sin(t) + np.sin(5.7 * t + 1.0)
    signal_third = 0.3 * np.sin(t) + np.cos(2.3 * t)

    def build(name, signal, n):
        return TraceSet(name, signal + rng.normal(0, sigma, size=(n, l)))

    t_ref = make = build("REF", signal_ref, 80)
    duts = {
        "DUT#1": build("DUT#1", signal_other, 600),
        "DUT#2": build("DUT#2", signal_ref, 600),
        "DUT#3": build("DUT#3", signal_third, 600),
    }
    return t_ref, duts


PARAMS = ProcessParameters(k=15, m=10, n1=80, n2=600)


class TestIdentify:
    def test_both_paper_distinguishers_pick_the_match(self):
        t_ref, duts = make_trace_sets()
        verifier = WatermarkVerifier(PARAMS)
        report = verifier.identify(t_ref, duts, rng=1)
        for verdict in report.verdicts:
            assert verdict.chosen_dut == "DUT#2"
        assert report.unanimous

    def test_report_contains_all_duts(self):
        t_ref, duts = make_trace_sets()
        report = WatermarkVerifier(PARAMS).identify(t_ref, duts, rng=1)
        assert set(report.results) == set(duts)
        assert set(report.means) == set(duts)
        assert set(report.variances) == set(duts)

    def test_verdict_lookup(self):
        t_ref, duts = make_trace_sets()
        report = WatermarkVerifier(PARAMS).identify(t_ref, duts, rng=1)
        assert report.verdict_of("higher-mean").distinguisher == "higher-mean"
        with pytest.raises(KeyError):
            report.verdict_of("nonexistent")

    def test_all_distinguishers_available(self):
        t_ref, duts = make_trace_sets()
        verifier = WatermarkVerifier(PARAMS, distinguishers=ALL_DISTINGUISHERS)
        report = verifier.identify(t_ref, duts, rng=1)
        assert len(report.verdicts) == len(ALL_DISTINGUISHERS)

    def test_match_mean_is_highest(self):
        t_ref, duts = make_trace_sets()
        report = WatermarkVerifier(PARAMS).identify(t_ref, duts, rng=1)
        means = report.means
        assert means["DUT#2"] == max(means.values())

    def test_match_variance_is_lowest(self):
        t_ref, duts = make_trace_sets()
        report = WatermarkVerifier(PARAMS).identify(t_ref, duts, rng=1)
        variances = report.variances
        assert variances["DUT#2"] == min(variances.values())

    def test_requires_duts(self):
        t_ref, _duts = make_trace_sets()
        with pytest.raises(ValueError):
            WatermarkVerifier(PARAMS).identify(t_ref, {}, rng=1)

    def test_requires_distinguishers(self):
        with pytest.raises(ValueError):
            WatermarkVerifier(PARAMS, distinguishers=())

    def test_reproducible_with_seed(self):
        t_ref, duts = make_trace_sets()
        verifier = WatermarkVerifier(PARAMS)
        r1 = verifier.identify(t_ref, duts, rng=5)
        r2 = verifier.identify(t_ref, duts, rng=5)
        for name in duts:
            np.testing.assert_allclose(
                r1.results[name].coefficients, r2.results[name].coefficients
            )

    def test_shared_reference_across_duts(self):
        # With a single reference, rerunning with only the matching DUT
        # changes nothing about its coefficients' dependence structure;
        # here we just verify the correlate() path honours it.
        t_ref, duts = make_trace_sets()
        verifier = WatermarkVerifier(PARAMS)
        results = verifier.correlate(t_ref, duts, rng=3)
        assert set(results) == set(duts)


class TestIdentifyAll:
    def test_one_report_per_reference(self):
        t_ref, duts = make_trace_sets()
        refs = {"REF": t_ref, "FLIP": TraceSet("FLIP", t_ref.matrix[::-1].copy())}
        reports = WatermarkVerifier(PARAMS).identify_all(refs, duts, rng=4)
        assert list(reports) == ["REF", "FLIP"]
        for name, report in reports.items():
            assert report.ref_name == name
            assert set(report.results) == set(duts)
            for verdict in report.verdicts:
                assert verdict.chosen_dut == "DUT#2"

    def test_requires_duts(self):
        t_ref, _duts = make_trace_sets()
        with pytest.raises(ValueError, match="DUT"):
            WatermarkVerifier(PARAMS).identify_all({"REF": t_ref}, {}, rng=1)


class TestCalibration:
    def test_floor_below_genuine_level(self):
        t_ref, duts = make_trace_sets(sigma=0.5)
        verifier = WatermarkVerifier(PARAMS)
        floor = verifier.calibrate_mean_floor(t_ref, duts["DUT#2"], rng=1)
        genuine = verifier.correlate(t_ref, {"DUT#2": duts["DUT#2"]}, rng=2)
        assert floor < genuine["DUT#2"].mean

    def test_more_sigmas_lower_floor(self):
        t_ref, duts = make_trace_sets(sigma=0.5)
        verifier = WatermarkVerifier(PARAMS)
        tight = verifier.calibrate_mean_floor(t_ref, duts["DUT#2"], rng=1, n_sigmas=2)
        loose = verifier.calibrate_mean_floor(t_ref, duts["DUT#2"], rng=1, n_sigmas=20)
        assert loose < tight

    def test_rejects_nonpositive_sigmas(self):
        t_ref, duts = make_trace_sets()
        with pytest.raises(ValueError):
            WatermarkVerifier(PARAMS).calibrate_mean_floor(
                t_ref, duts["DUT#2"], rng=1, n_sigmas=0
            )

    def test_calibrated_floor_separates_lot(self):
        t_ref, duts = make_trace_sets(sigma=0.5)
        verifier = WatermarkVerifier(PARAMS)
        floor = verifier.calibrate_mean_floor(t_ref, duts["DUT#2"], rng=1)
        screenings = verifier.screen(t_ref, duts, rng=2, mean_floor=floor)
        by_name = {s.device_name: s.authentic for s in screenings}
        assert by_name["DUT#2"]
        assert not by_name["DUT#1"]


class TestScreen:
    def test_authentic_device_passes(self):
        t_ref, duts = make_trace_sets(sigma=0.5)
        verifier = WatermarkVerifier(PARAMS)
        screenings = verifier.screen(
            t_ref, {"DUT#2": duts["DUT#2"]}, rng=1, mean_floor=0.5
        )
        assert screenings[0].authentic

    def test_counterfeit_fails_on_mean_floor(self):
        t_ref, duts = make_trace_sets(sigma=0.5)
        verifier = WatermarkVerifier(PARAMS)
        screenings = verifier.screen(
            t_ref, {"DUT#1": duts["DUT#1"]}, rng=1, mean_floor=0.8
        )
        assert not screenings[0].authentic
        assert "below floor" in screenings[0].reason

    def test_mixed_lot(self):
        t_ref, duts = make_trace_sets(sigma=0.5)
        verifier = WatermarkVerifier(PARAMS)
        screenings = verifier.screen(t_ref, duts, rng=1, mean_floor=0.8)
        by_name = {s.device_name: s.authentic for s in screenings}
        assert by_name["DUT#2"]
        assert not by_name["DUT#1"]
        assert not by_name["DUT#3"]

    def test_screening_reports_statistics(self):
        t_ref, duts = make_trace_sets(sigma=0.5)
        screenings = WatermarkVerifier(PARAMS).screen(t_ref, duts, rng=1)
        for screening in screenings:
            assert -1 <= screening.mean <= 1
            assert screening.variance >= 0
            assert screening.reason
