"""Statistical oracles for the campaign's analysis stream.

A deliberate change to how a campaign draws its k-averaged sets moves
every byte of its C sets, so old bytes cannot validate it.  These
oracles re-derive the statistics with the draws the change replaced
and accept the new draws when the distributions agree within a bound.

A campaign draws each DUT's ``A_DUT,m`` once and correlates all four
references against it
(:meth:`~repro.core.verification.WatermarkVerifier.identify_all`).  The
per-pair draws it replaced, one ``A_DUT,m`` per (RefD, DUT) pair, are
still what the single-reference
:meth:`~repro.core.verification.WatermarkVerifier.identify` draws when
it is looped over the references on one generator.  Both must give
every (RefD, DUT) C set the same distribution of mean and variance,
and every distinguisher the same rate of correct verdicts per
reference.  Run with ``-s`` to see the per-campaign accuracy variance
of both draws: the verdicts of one campaign's references are
dependent under shared draws, so it may differ.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.acquisition.bench import acquire_keyed
from repro.acquisition.oscilloscope import Oscilloscope
from repro.core.averaging import k_averaged_trace
from repro.core.process import ProcessParameters
from repro.core.verification import WatermarkVerifier
from repro.experiments.artifacts import measurement_base_key
from repro.experiments.designs import EXPECTED_MATCHES
from repro.experiments.runner import (
    DUT_ORDER,
    REF_ORDER,
    CampaignConfig,
    manufacture_fleet,
)
from repro.power.noise import NoiseModel

ks_2samp = pytest.importorskip("scipy.stats").ks_2samp

PARAMS = ProcessParameters(k=8, m=8, n1=64, n2=256)

#: Analysis seeds per draw; the two draws use disjoint seeds.
N_SEEDS = 200

#: Smallest KS p-value accepted: 0.001, Bonferroni-corrected over the
#: 16 (RefD, DUT) pairs x 2 statistics.
P_FLOOR = 0.001 / 32

#: Largest accepted gap between two verdict rates, in standard errors.
MAX_STANDARD_ERRORS = 4.0


@pytest.fixture(scope="module")
def traces():
    """One acquisition of the fleet: ``(t_refs, t_duts)``."""
    config = CampaignConfig(parameters=PARAMS, noise=NoiseModel(sigma=3.0), adc=None)
    refds, duts = manufacture_fleet(config)
    requests = [(duts[name], PARAMS.n2) for name in DUT_ORDER]
    requests += [(refds[name], PARAMS.n1) for name in REF_ORDER]
    acquired = acquire_keyed(
        Oscilloscope(config.noise, config.adc), measurement_base_key(config), requests
    )
    return dict(zip(REF_ORDER, acquired[len(DUT_ORDER) :])), dict(
        zip(DUT_ORDER, acquired[: len(DUT_ORDER)])
    )


def per_pair_draws(verifier, t_refs, t_duts, rng):
    """The draws a campaign made before it shared ``A_DUT,m``."""
    return {ref: verifier.identify(t_ref, t_duts, rng) for ref, t_ref in t_refs.items()}


def campaign_statistics(draws, verifier, traces, seeds):
    """Per-seed statistics of ``draws(verifier, t_refs, t_duts, rng)``.

    ``means`` and ``variances`` are the C-set statistics, shaped
    ``(seeds, refs, duts)``; ``correct`` flags each verdict, shaped
    ``(seeds, refs, distinguishers)``.
    """
    shape = (len(seeds), len(REF_ORDER))
    means = np.empty(shape + (len(DUT_ORDER),))
    variances = np.empty_like(means)
    correct = np.empty(shape + (len(verifier.distinguishers),), dtype=bool)
    for s, seed in enumerate(seeds):
        reports = draws(verifier, *traces, np.random.default_rng(seed))
        for r, ref in enumerate(REF_ORDER):
            report = reports[ref]
            means[s, r] = [report.results[dut].mean for dut in DUT_ORDER]
            variances[s, r] = [report.results[dut].variance for dut in DUT_ORDER]
            correct[s, r] = [
                verdict.chosen_dut == EXPECTED_MATCHES[ref]
                for verdict in report.verdicts
            ]
    return {"means": means, "variances": variances, "correct": correct}


def mismatches(reference, candidate, distinguishers):
    """Where ``candidate``'s distributions depart from ``reference``'s."""
    found = []
    for statistic in ("means", "variances"):
        for r, ref in enumerate(REF_ORDER):
            for d, dut in enumerate(DUT_ORDER):
                p = ks_2samp(
                    reference[statistic][:, r, d], candidate[statistic][:, r, d]
                ).pvalue
                if p < P_FLOOR:
                    found.append(f"C-set {statistic} of {ref} x {dut}: KS p = {p:.3g}")
    n_a, n_b = len(reference["correct"]), len(candidate["correct"])
    rate_a = reference["correct"].mean(axis=0)
    rate_b = candidate["correct"].mean(axis=0)
    pooled = (rate_a * n_a + rate_b * n_b) / (n_a + n_b)
    standard_error = np.sqrt(pooled * (1 - pooled) * (1 / n_a + 1 / n_b))
    for r, ref in enumerate(REF_ORDER):
        for j, distinguisher in enumerate(distinguishers):
            gap = abs(rate_a[r, j] - rate_b[r, j])
            if gap > MAX_STANDARD_ERRORS * standard_error[r, j]:
                found.append(
                    f"{distinguisher.name} verdicts on {ref}: "
                    f"{rate_a[r, j]:.3f} vs {rate_b[r, j]:.3f}"
                )
    return found


@pytest.fixture(scope="module")
def per_pair(traces):
    return campaign_statistics(
        per_pair_draws, WatermarkVerifier(PARAMS), traces, range(N_SEEDS)
    )


def accuracy_variance(statistics):
    """Variance over campaigns of each distinguisher's accuracy."""
    return np.var(statistics["correct"].mean(axis=1), axis=0)


def test_shared_dut_sets_keep_every_pair_distribution(traces, per_pair):
    verifier = WatermarkVerifier(PARAMS)
    shared = campaign_statistics(
        WatermarkVerifier.identify_all, verifier, traces, range(N_SEEDS, 2 * N_SEEDS)
    )
    for name, statistics in (("per-pair", per_pair), ("shared", shared)):
        variances = accuracy_variance(statistics)
        print(
            f"per-campaign accuracy variance, {name} draws: "
            + ", ".join(
                f"{d.name} {v:.4f}" for d, v in zip(verifier.distinguishers, variances)
            )
        )
    assert mismatches(per_pair, shared, verifier.distinguishers) == []


def test_oracle_rejects_a_set_of_one_subset(traces, per_pair, monkeypatch):
    # Negative control: an A_DUT,m whose m rows average one k-subset
    # has a C set of m equal coefficients, so its variance is lost.
    verifier = WatermarkVerifier(PARAMS)

    def one_subset(t_dut, rng):
        return np.tile(k_averaged_trace(t_dut, PARAMS.k, rng), (PARAMS.m, 1))

    monkeypatch.setattr(verifier.process, "dut_set", one_subset)
    wrong = campaign_statistics(
        WatermarkVerifier.identify_all, verifier, traces, range(N_SEEDS, 2 * N_SEEDS)
    )
    found = mismatches(per_pair, wrong, verifier.distinguishers)
    assert any(line.startswith("C-set variances") for line in found)
