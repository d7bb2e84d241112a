"""Tests for cross-scenario artifact sharing.

Covers the tier table and the two keys built from it, the
sharing-safe acquisition refactor (keyed per-device seeds, ADC grid
invariance, read-only cache views, prefix reuse), the in-place
acquisition kernel against the one-shot reference formula, concurrent
keyed acquisition, and the headline guarantee: sweeps produce
byte-identical stores with sharing on or off, for any worker count.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import repro.acquisition.bench as bench_module
import repro.experiments.artifacts as artifacts_module
from repro.acquisition.bench import MeasurementBench, derive_acquisition_seed
from repro.acquisition.oscilloscope import BLOCK_ROWS, ADCConfig, Oscilloscope
from repro.acquisition.traces import TraceSet
from repro.attacks.removal import FLEET_TRANSFORMS
from repro.core.averaging import k_averaged_set, k_averaged_trace
from repro.core.correlation import pearson_many
from repro.core.process import ProcessParameters
from repro.core.distinguishers import PAPER_DISTINGUISHERS
from repro.experiments.artifacts import (
    TIERS,
    ArtifactCache,
    ArtifactOptions,
    fleet_key,
    measurement_base_key,
    process_artifact_cache,
    clear_process_artifact_cache,
)
from repro.core.verification import WatermarkVerifier
from repro.experiments.designs import build_paper_ip
from repro.experiments.runner import (
    DUT_ORDER,
    REF_ORDER,
    CampaignConfig,
    build_campaign_fleet,
    manufacture_fleet,
    run_campaign,
)
from repro.power.models import PowerModel
from repro.power.noise import NoiseModel
from repro.power.supply import WaveformConfig
from repro.sweeps import (
    CONFIG_FIELDS,
    GridAxis,
    SweepOptions,
    SweepSpec,
    SweepStore,
    expand_scenarios,
    run,
    scenario_config,
)
from repro.cli import default_sweep_spec
from repro.sweeps.scenario import run_scenario
from repro.acquisition.device import Device


QUICK = ProcessParameters(k=4, m=4, n1=32, n2=64)


def quick_config(**overrides) -> CampaignConfig:
    return CampaignConfig(parameters=QUICK, **overrides)


def make_device(name="dev", cycles=64) -> Device:
    return Device(name, build_paper_ip("IP_A"), PowerModel(), default_cycles=cycles)


def store_digests(root):
    # Top-level result files only; .attempts/ etc. are outside the
    # byte-identity invariant.
    digests = {}
    for entry in sorted(os.listdir(root)):
        path = os.path.join(root, entry)
        if entry.startswith(".") or not os.path.isfile(path):
            continue
        with open(path, "rb") as handle:
            digests[entry] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def coefficient_matrix(outcome):
    return {
        (ref, dut): outcome.reports[ref].results[dut].coefficients
        for ref in outcome.ref_order
        for dut in outcome.dut_order
    }


class TestConfigKeys:
    def test_analysis_axes_leave_lower_keys_unchanged(self):
        base = quick_config()
        analysis_only = dataclasses.replace(
            base,
            parameters=ProcessParameters(k=8, m=8, n1=64, n2=128),
            analysis_seed=99,
            single_reference=False,
        )
        assert fleet_key(base) == fleet_key(analysis_only)
        assert measurement_base_key(base) == measurement_base_key(analysis_only)

    def test_measurement_axes_change_measurement_not_fleet(self):
        base = quick_config()
        noisy = dataclasses.replace(base, noise=NoiseModel(sigma=1.5))
        reseeded = dataclasses.replace(base, measurement_seed=1234)
        for other in (noisy, reseeded):
            assert fleet_key(base) == fleet_key(other)
            assert measurement_base_key(base) != measurement_base_key(other)

    def test_fleet_axes_change_every_key(self):
        base = quick_config()
        refab = dataclasses.replace(base, fleet_seed=777)
        plain = dataclasses.replace(base, watermarked=False)
        for other in (refab, plain):
            assert fleet_key(base) != fleet_key(other)
            assert measurement_base_key(base) != measurement_base_key(other)

    def test_engine_changes_fleet_key_but_not_measurements(self):
        # The simulation path is bit-equivalent on waveforms, so it must
        # not perturb acquisition seeds — but cached Device objects pin
        # their engine, so the fleet cache distinguishes it.
        base = quick_config()
        other = dataclasses.replace(base, engine="interpreted")
        assert fleet_key(base) != fleet_key(other)
        assert measurement_base_key(base) == measurement_base_key(other)

    def test_attack_separates_attacked_artifacts(self):
        base = quick_config()
        stripped = dataclasses.replace(base, attack="strip")
        assert fleet_key(base) != fleet_key(stripped)
        assert measurement_base_key(base) != measurement_base_key(stripped)

    def test_keys_are_stable_strings(self):
        base = quick_config()
        assert fleet_key(base) == fleet_key(quick_config())
        for key in (fleet_key(base), measurement_base_key(base)):
            assert isinstance(key, str) and len(key) == 32


#: One changed value per field of the tier table.
CHANGED = {
    "power_model": PowerModel(static_power=0.75),
    "variation": None,
    "waveform": WaveformConfig(),
    "fleet_seed": 777,
    "watermarked": False,
    "design": "imported:benchmarks/netlists/c17.v",
    "engine": "interpreted",
    "attack": "strip",
    "noise": NoiseModel(sigma=1.5),
    "adc": None,
    "measurement_seed": 1234,
    "parameters.n1": 64,
    "parameters.n2": 128,
    "parameters.k": 8,
    "parameters.m": 8,
    "analysis_seed": 99,
    "single_reference": False,
    "distinguishers": PAPER_DISTINGUISHERS[:1],
}

#: The tier a field belongs to, read off which of ``(fleet_key,
#: measurement_base_key)`` move when it alone changes.
TIER_OF_MOVED_KEYS = {
    (True, True): "fleet",
    (True, False): "fleet",  # engine only
    (False, True): "measurement",
    (False, False): "analysis",
}


def all_keys(config):
    return fleet_key(config), measurement_base_key(config)


class TestTierTable:
    def test_table_holds_every_config_field(self):
        assert set(CHANGED) == set(TIERS)
        heads = {path.partition(".")[0] for path in TIERS}
        assert heads == {f.name for f in dataclasses.fields(CampaignConfig)}
        parameters = {
            path.partition(".")[2] for path in TIERS if path.startswith("parameters.")
        }
        assert parameters == {f.name for f in dataclasses.fields(ProcessParameters)}

    @pytest.mark.parametrize("path", sorted(TIERS))
    def test_moved_keys_give_the_tier(self, path):
        base = quick_config()
        head, _, name = path.partition(".")
        if name:
            nested = dataclasses.replace(getattr(base, head), **{name: CHANGED[path]})
            changed = all_keys(dataclasses.replace(base, **{head: nested}))
        else:
            changed = all_keys(dataclasses.replace(base, **{path: CHANGED[path]}))
        moved = tuple(old != new for old, new in zip(all_keys(base), changed))
        assert TIER_OF_MOVED_KEYS[moved] == TIERS[path]
        assert (moved == (True, False)) == (path == "engine")

    def test_every_sweep_field_has_a_tier(self):
        # A sub-field (noise.sigma) takes the tier of its dataclass.
        for path in CONFIG_FIELDS:
            assert path in TIERS or path.partition(".")[0] in TIERS, path


class TestKeyedAcquisition:
    def test_device_alone_equals_device_inside_campaign(self):
        # The sharing-safe property: acquiring one device is independent
        # of what else was measured with it.
        scope = Oscilloscope(noise=NoiseModel(sigma=1.0), adc=ADCConfig())
        d1, d2 = make_device("a"), make_device("b")
        inside = bench_module.acquire_keyed(scope, "K", [(d1, 30), (d2, 20)])[1]
        alone = bench_module.acquire_keyed(scope, "K", [(d2, 20)])[0]
        np.testing.assert_array_equal(inside.matrix, alone.matrix)

    def test_prefix_stability_across_budgets(self):
        device = make_device()
        scope = Oscilloscope(adc=ADCConfig())
        seed = derive_acquisition_seed("K", device.name, 64)
        big = scope.acquire(device, 200, np.random.default_rng(seed))
        small = scope.acquire(device, 50, np.random.default_rng(seed))
        np.testing.assert_array_equal(big.matrix[:50], small.matrix)

    def test_drift_noise_keeps_prefix_stability(self):
        # The drift random walk runs within a trace, so drawing must
        # stay trace-major: truncated acquisitions must reproduce the
        # larger acquisition's rows even with drift enabled.
        device = make_device()
        noise = NoiseModel(sigma=1.0, drift_sigma=0.5)
        seed = derive_acquisition_seed("K", device.name, 64)
        full = Oscilloscope(noise=noise).acquire(
            device, 60, np.random.default_rng(seed)
        )
        prefix = Oscilloscope(noise=noise).acquire(
            device, 25, np.random.default_rng(seed)
        )
        np.testing.assert_array_equal(full.matrix[:25], prefix.matrix)

    def test_quantisation_grid_invariant_to_trace_count(self):
        # The ADC window derives from the deterministic base waveform,
        # so acquisitions of different sizes share one grid.
        device = make_device()
        scope = Oscilloscope(adc=ADCConfig(bits=6))
        few = scope.acquire(device, 5, np.random.default_rng(0))
        many = scope.acquire(device, 500, np.random.default_rng(1))
        grid = np.unique(np.concatenate([few.matrix.ravel(), many.matrix.ravel()]))
        steps = np.diff(grid)
        step = steps[steps > 1e-12].min()
        # Both acquisitions share one grid origin, so every level is an
        # integer number of steps above the common minimum.
        offsets = (grid - grid.min()) / step
        np.testing.assert_allclose(offsets, np.round(offsets), atol=1e-6)

    def test_traceset_tolerates_readonly_matrix(self):
        matrix = np.random.default_rng(0).normal(size=(4, 8))
        matrix.flags.writeable = False
        traces = TraceSet("dev", matrix)
        assert traces.mean_trace().shape == (8,)


class ConstantDevice:
    """A die whose waveform never moves, so its ``signal_std`` 0 becomes 1."""

    name = "flat"

    def deterministic_waveform(self):
        return np.full(256, 0.25)


def reference_acquire(scope, device, n_traces, rng):
    """The one-shot acquisition formula, with every full-size temporary.

    The in-place block kernel must reproduce it byte for byte.
    """
    base = device.deterministic_waveform()
    signal_std = float(np.std(base)) or 1.0
    noise, adc = scope.noise, scope.adc
    shape = (n_traces, base.size)
    if noise.drift_sigma <= 0:
        traces = rng.normal(0.0, noise.sigma * signal_std, shape) + base
    else:
        draws = rng.standard_normal((n_traces, 2 * base.size))
        white, drift = draws[:, : base.size], draws[:, base.size :]
        steps = (noise.drift_sigma * signal_std / np.sqrt(base.size)) * drift
        traces = noise.sigma * signal_std * white + np.cumsum(steps, axis=1) + base
    if adc is None:
        return traces
    center = float(np.mean(base))
    spread = (noise.sigma + adc.headroom) * signal_std
    low, high = center - spread, center + spread
    step = (high - low) / ((1 << adc.bits) - 1)
    return low + np.round((np.clip(traces, low, high) - low) / step) * step


ADCS = [None, ADCConfig(bits=1), ADCConfig(bits=10), ADCConfig(bits=24)]
NOISES = [NoiseModel(sigma=1.0), NoiseModel(sigma=1.0, drift_sigma=0.5)]


class TestReferenceKernel:
    @pytest.mark.parametrize("adc", ADCS, ids=lambda a: f"adc{a.bits if a else 0}")
    @pytest.mark.parametrize("noise", NOISES, ids=["white", "drift"])
    @pytest.mark.parametrize(
        "n_traces", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 10_000]
    )
    def test_kernel_matches_reference_bytes(self, adc, noise, n_traces):
        device = make_device()
        scope = Oscilloscope(noise, adc)
        kernel = scope.acquire(device, n_traces, np.random.default_rng(n_traces))
        expected = reference_acquire(
            scope, device, n_traces, np.random.default_rng(n_traces)
        )
        assert kernel.matrix.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("adc", ADCS, ids=lambda a: f"adc{a.bits if a else 0}")
    @pytest.mark.parametrize(
        # Without noise, a constant waveform lands exactly half-way
        # between two ADC codes: ties must round half to even.
        "noise",
        NOISES + [NoiseModel(sigma=0.0)],
        ids=["white", "drift", "silent"],
    )
    def test_constant_waveform_and_explicit_cycles(self, adc, noise):
        scope = Oscilloscope(noise, adc)
        for device in (ConstantDevice(), make_device(cycles=40)):
            kernel = scope.acquire(device, 150, np.random.default_rng(5))
            expected = reference_acquire(scope, device, 150, np.random.default_rng(5))
            assert kernel.matrix.tobytes() == expected.tobytes()

    def test_zero_sigma_noise_matches_normal_draw(self):
        # rng.normal(0, 0) gives +0.0 everywhere; so must the kernel.
        drawn = NoiseModel(sigma=0.0).sample(9, 7, 1.0, np.random.default_rng(2))
        expected = np.random.default_rng(2).normal(0.0, 0.0, (9, 7))
        assert drawn.tobytes() == expected.tobytes()

    def test_acquire_fills_the_given_matrix(self):
        device = make_device()
        out = np.empty((70, device.trace_length()))
        traces = Oscilloscope().acquire(device, 70, np.random.default_rng(0), out=out)
        assert traces.matrix is out
        with pytest.raises(ValueError, match="shape"):
            Oscilloscope().acquire(device, 69, np.random.default_rng(0), out=out)


def acquisition_threads(monkeypatch):
    """Force a four-thread pool and record the threads that acquire."""
    monkeypatch.setattr(bench_module, "usable_cpus", lambda: 4)
    threads = set()
    original = Oscilloscope.acquire

    def spy(self, *args, **kwargs):
        threads.add(threading.get_ident())
        return original(self, *args, **kwargs)

    monkeypatch.setattr(Oscilloscope, "acquire", spy)
    return threads


class TestConcurrentAcquisition:
    @pytest.mark.parametrize("shared", [False, True], ids=["unshared", "artifacts"])
    def test_campaign_equals_devices_acquired_alone(self, monkeypatch, shared):
        threads = acquisition_threads(monkeypatch)
        cfg = quick_config()
        outcome = run_campaign(cfg, artifacts=ArtifactCache() if shared else None)
        assert threads and threading.get_ident() not in threads
        refds, duts = manufacture_fleet(cfg)
        scope = Oscilloscope(cfg.noise, cfg.adc)

        def alone(device, n_traces):
            key = measurement_base_key(cfg)
            return bench_module.acquire_keyed(scope, key, [(device, n_traces)])[0]

        # The campaign's analysis draws, written out so the order is
        # pinned: each DUT's A_DUT,m once, in DUT order, then each
        # reference's A_RefD, correlated against every DUT's set.
        rng = np.random.default_rng(cfg.analysis_seed)
        dut_sets = {
            name: k_averaged_set(alone(duts[name], QUICK.n2), QUICK.k, QUICK.m, rng)
            for name in DUT_ORDER
        }
        for ref in REF_ORDER:
            a_ref = k_averaged_trace(alone(refds[ref], QUICK.n1), QUICK.k, rng)
            actual = outcome.reports[ref]
            for dut in DUT_ORDER:
                expected = pearson_many(a_ref, dut_sets[dut])
                coefficients = actual.results[dut].coefficients
                assert coefficients.tobytes() == expected.tobytes()

    def test_fresh_reference_campaign_is_the_identify_loop(self):
        # The E8 ablation keeps per-pair draws: its C sets are those of
        # the single-reference identify loop on one generator.
        cfg = quick_config(single_reference=False)
        outcome = run_campaign(cfg)
        refds, duts = manufacture_fleet(cfg)
        requests = [(duts[name], QUICK.n2) for name in DUT_ORDER]
        requests += [(refds[name], QUICK.n1) for name in REF_ORDER]
        acquired = bench_module.acquire_keyed(
            Oscilloscope(cfg.noise, cfg.adc), measurement_base_key(cfg), requests
        )
        t_duts = dict(zip(DUT_ORDER, acquired))
        verifier = WatermarkVerifier(QUICK, single_reference=False)
        rng = np.random.default_rng(cfg.analysis_seed)
        for ref, t_ref in zip(REF_ORDER, acquired[len(DUT_ORDER) :]):
            expected = verifier.identify(t_ref, t_duts, rng=rng)
            for dut in DUT_ORDER:
                coefficients = outcome.reports[ref].results[dut].coefficients
                assert (
                    coefficients.tobytes()
                    == expected.results[dut].coefficients.tobytes()
                )

    def test_artifact_stats_match_serial_acquisition(self, monkeypatch):
        acquisition_threads(monkeypatch)
        cfg = quick_config()
        batched = ArtifactCache()
        run_campaign(cfg, artifacts=batched)
        serial = ArtifactCache()
        refds, duts = serial.fleet(cfg, lambda: build_campaign_fleet(cfg))
        for name in DUT_ORDER:
            serial.traces_all(cfg, [(duts[name], QUICK.n2)])
        for name in REF_ORDER:
            serial.traces_all(cfg, [(refds[name], QUICK.n1)])
        for stat in ("trace_misses", "bytes_acquired", "peak_bytes"):
            assert getattr(batched.stats, stat) == getattr(serial.stats, stat)

    def test_no_pool_thread_outlives_a_campaign(self, monkeypatch):
        threads = acquisition_threads(monkeypatch)
        # Held here, so only an explicit shutdown can end their threads.
        pools = []

        class RecordedPool(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                pools.append(self)

        monkeypatch.setattr(bench_module, "ThreadPoolExecutor", RecordedPool)
        before = threading.active_count()
        run_campaign(quick_config())
        run_campaign(quick_config(), artifacts=ArtifactCache())
        assert len(pools) == 2 and len(threads) > 1
        assert threading.active_count() == before

    def test_acquire_keyed_under_thread_pressure(self, monkeypatch):
        # More threads than cores, a tiny switch interval and one device
        # requested twice: every matrix must still equal its serial
        # acquisition byte for byte.
        devices = [make_device(f"d{i}") for i in range(12)]
        requests = [(device, 40 + i) for i, device in enumerate(devices)]
        requests.append((devices[0], 90))
        scope = Oscilloscope(NoiseModel(sigma=1.0, drift_sigma=0.3), ADCConfig())
        monkeypatch.setattr(bench_module, "usable_cpus", lambda: 1)
        serial = bench_module.acquire_keyed(scope, "K", requests)
        monkeypatch.setattr(bench_module, "usable_cpus", lambda: 8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = bench_module.acquire_keyed(scope, "K", requests)
        finally:
            sys.setswitchinterval(interval)
        assert [t.matrix.tobytes() for t in threaded] == [
            t.matrix.tobytes() for t in serial
        ]

    def test_sequential_measures_keep_the_single_stream(self, monkeypatch):
        threads = acquisition_threads(monkeypatch)
        first, second = make_device("a"), make_device("b")
        scope = Oscilloscope(adc=ADCConfig())
        bench = MeasurementBench(scope, seed=11)
        requests = [(first, 30), (second, 20), (first, 10)]
        measured = [bench.measure(device, n) for device, n in requests]
        assert threads == {threading.get_ident()}
        # Each measurement, the repeat included, draws the stream's
        # next rows.
        rng = np.random.default_rng(11)
        for traces, (device, n) in zip(measured, requests):
            expected = reference_acquire(scope, device, n, rng)
            assert traces.matrix.tobytes() == expected.tobytes()


class TestArtifactCache:
    def test_campaign_sharing_is_byte_identical(self):
        cfg = quick_config()
        unshared = coefficient_matrix(run_campaign(cfg))
        cache = ArtifactCache()
        cold = coefficient_matrix(run_campaign(cfg, artifacts=cache))
        # An identical config shares the fleet and every trace matrix,
        # and runs its analysis again.
        warm = coefficient_matrix(run_campaign(cfg, artifacts=cache))
        assert (cache.stats.fleet_hits, cache.stats.trace_hits) == (1, 8)
        # So does a config differing only in an analysis-side knob.
        rotated = dataclasses.replace(cfg, analysis_seed=cfg.analysis_seed + 1)
        run_campaign(rotated, artifacts=cache)
        assert (cache.stats.fleet_hits, cache.stats.trace_hits) == (2, 16)
        assert cache.stats.trace_misses == 8
        for pair, coefficients in unshared.items():
            np.testing.assert_array_equal(coefficients, cold[pair])
            np.testing.assert_array_equal(coefficients, warm[pair])

    def test_prefix_reuse_across_ceilings(self):
        cache = ArtifactCache()
        big = quick_config()
        run_campaign(big, artifacts=cache)
        assert cache.stats.trace_misses == 8
        small_params = ProcessParameters(k=4, m=4, n1=16, n2=48)
        small = dataclasses.replace(big, parameters=small_params)
        shared = coefficient_matrix(run_campaign(small, artifacts=cache))
        # All 8 trace sets served by prefix from the bigger acquisition.
        assert cache.stats.trace_misses == 8
        direct = coefficient_matrix(run_campaign(small))
        for pair, coefficients in direct.items():
            np.testing.assert_array_equal(coefficients, shared[pair])

    def test_run_campaign_attack_applies_transform(self):
        # run_campaign must manufacture *transformed* fleets for a
        # non-trivial attack — with and without a cache — so an
        # attacked campaign can never silently run on pristine devices.
        cfg = quick_config()
        attacked = quick_config(attack="strip")
        pristine = coefficient_matrix(run_campaign(cfg))
        stripped = coefficient_matrix(run_campaign(attacked))
        assert any(
            not np.array_equal(pristine[pair], stripped[pair])
            for pair in pristine
        )
        cache = ArtifactCache()
        shared = coefficient_matrix(run_campaign(attacked, artifacts=cache))
        for pair, coefficients in stripped.items():
            np.testing.assert_array_equal(coefficients, shared[pair])
        with pytest.raises(ValueError, match="unknown attack 'no-such-attack'"):
            run_campaign(quick_config(attack="no-such-attack"))

    @pytest.mark.parametrize(
        "build",
        [
            lambda: CampaignConfig(attack="bogus"),
            lambda: dataclasses.replace(CampaignConfig(), attack="bogus"),
        ],
        ids=["constructor", "replace"],
    )
    def test_unknown_attack_names_the_transforms(self, build):
        with pytest.raises(ValueError) as excinfo:
            build()
        message = str(excinfo.value)
        assert "unknown attack 'bogus'" in message
        assert all(repr(name) in message for name in FLEET_TRANSFORMS)

    def test_explicit_fleet_with_artifacts_requires_cache_provenance(self):
        # An arbitrary fleet= cannot be combined with artifacts=: the
        # trace cache could not tell its traces from the config-built
        # fleet's.  A fleet obtained from the cache itself is fine.
        cfg = quick_config()
        cache = ArtifactCache()
        with pytest.raises(ValueError, match="artifacts.fleet"):
            run_campaign(cfg, fleet=manufacture_fleet(cfg), artifacts=cache)
        fleet = cache.fleet(cfg, lambda: manufacture_fleet(cfg))
        outcome = run_campaign(cfg, fleet=fleet, artifacts=cache)
        baseline = coefficient_matrix(run_campaign(cfg))
        for pair, coefficients in coefficient_matrix(outcome).items():
            np.testing.assert_array_equal(coefficients, baseline[pair])

    def test_memory_keeps_one_measurement_group(self):
        cfg = quick_config()
        other = dataclasses.replace(cfg, measurement_seed=cfg.measurement_seed + 1)
        set_bytes = 20 * 8 * make_device().trace_length()
        cache = ArtifactCache()
        cache.traces_all(cfg, [(make_device("a"), 20)])
        cache.traces_all(cfg, [(make_device("b"), 20)])
        assert cache.stats.bytes_in_memory == 2 * set_bytes
        # Another measurement base key drops the first group whole.
        cache.traces_all(other, [(make_device("a"), 20)])
        assert cache.stats.bytes_in_memory == set_bytes
        assert cache.stats.peak_bytes == 2 * set_bytes
        cache.traces_all(cfg, [(make_device("a"), 20)])
        assert (cache.stats.trace_hits, cache.stats.trace_misses) == (0, 4)

    def test_options_are_a_fieldless_shim(self):
        # The cache lives in memory only: there is no tier to point at.
        assert dataclasses.fields(ArtifactOptions) == ()
        with pytest.raises(TypeError):
            ArtifactOptions(root="somewhere")

    def test_fleet_requires_factory_on_miss(self):
        cache = ArtifactCache()
        with pytest.raises(KeyError):
            cache.fleet(quick_config())

    def test_a_cached_campaign_is_the_campaign_asked_for(self):
        # The engines share one acquisition, but each campaign builds
        # its own engine's fleet and reports its own config.
        cache = ArtifactCache()
        compiled = run_campaign(quick_config(engine="compiled"), artifacts=cache)
        interpreted = run_campaign(quick_config(engine="interpreted"), artifacts=cache)
        assert interpreted is not compiled
        assert interpreted.config.engine == "interpreted"
        assert cache.stats.fleet_misses == 2
        assert (cache.stats.trace_misses, cache.stats.trace_hits) == (8, 8)
        expected = coefficient_matrix(compiled)
        for pair, coefficients in coefficient_matrix(interpreted).items():
            assert coefficients.tobytes() == expected[pair].tobytes()


def unshared_store(spec, root):
    """The reference store: each scenario run alone, with no cache."""
    store = SweepStore(root)
    for scenario in expand_scenarios(spec):
        result = run_scenario(scenario)
        store.put(scenario.scenario_id, result["record"], result["arrays"])
    return store


def sharing_spec(name="shared", seed=5, pinned=True, attacks=("none",)):
    base = {
        "parameters.n1": 32,
        "parameters.n2": 64,
        "noise.sigma": 1.0,
    }
    if pinned:
        base.update({"fleet_seed": 2014, "measurement_seed": 42})
    return SweepSpec(
        name=name,
        grid=(
            GridAxis("parameters.k", (4, 8)),
            GridAxis("parameters.m", (4, 8)),
            GridAxis("attack", tuple(attacks)),
        ),
        base=base,
        seed=seed,
    )


class TestGroupingIsTheCacheKey:
    def test_engine_axis_shares_one_acquisition(self, tmp_path):
        # ``engine`` joins no measurement base key, so the scenarios of
        # one noise level form one group though the engine axis varies
        # first: each group is acquired once (2 x 8 trace sets, not
        # 4 x 8).  Each engine builds its own fleet once, and the
        # second noise level reuses both.
        spec = SweepSpec(
            name="engines",
            grid=(
                GridAxis("engine", ("compiled", "interpreted")),
                GridAxis("noise.sigma", (0.5, 1.0)),
            ),
            base={
                "parameters.k": 4,
                "parameters.m": 4,
                "parameters.n1": 32,
                "parameters.n2": 64,
                "fleet_seed": 2014,
                "measurement_seed": 42,
            },
            seed=5,
        )
        clear_process_artifact_cache()
        try:
            shared = SweepStore(str(tmp_path / "shared"))
            run(spec, shared, SweepOptions())
            stats = process_artifact_cache().stats
            assert (stats.fleet_misses, stats.fleet_hits) == (2, 2)
            assert (stats.trace_misses, stats.trace_hits) == (16, 16)
        finally:
            clear_process_artifact_cache()
        plain = unshared_store(spec, str(tmp_path / "plain"))
        assert store_digests(shared.root) == store_digests(plain.root)


class TestSweepSharingByteIdentity:
    @pytest.mark.parametrize("n_workers", [1, 4])
    def test_store_digests_identical_with_and_without_sharing(
        self, tmp_path, n_workers
    ):
        spec = sharing_spec(attacks=tuple(FLEET_TRANSFORMS))
        plain = unshared_store(spec, str(tmp_path / "plain"))
        shared = SweepStore(str(tmp_path / f"shared{n_workers}"))
        run(spec, shared, SweepOptions(n_workers=n_workers))
        assert store_digests(plain.root) == store_digests(shared.root)

    def test_unpinned_derived_seeds_still_byte_identical(self, tmp_path):
        # Derived seeds mix only their own tiers' axis values, so the
        # k x m grid of one attack is one measurement group here too.
        spec = sharing_spec(pinned=False)
        plain = unshared_store(spec, str(tmp_path / "plain"))
        shared = SweepStore(str(tmp_path / "shared"))
        run(spec, shared)
        assert store_digests(plain.root) == store_digests(shared.root)

    def test_sharing_skips_redundant_acquisition(self, tmp_path):
        clear_process_artifact_cache()
        try:
            spec = sharing_spec()  # 4 scenarios, one measurement tier
            store = SweepStore(str(tmp_path / "store"))
            run(spec, store, SweepOptions(artifacts=ArtifactOptions()))
            cache = process_artifact_cache()
            assert cache.stats.fleet_misses == 1
            assert cache.stats.trace_misses == 8  # one fleet's worth
            assert cache.stats.trace_hits >= 3 * 8
        finally:
            clear_process_artifact_cache()

    def test_repeat_study_with_warm_cache(self, tmp_path):
        # Same spec, fresh store, in the process that ran it first:
        # every scenario runs again on the warm cache, and the store
        # matches a plain run byte for byte.
        clear_process_artifact_cache()
        try:
            spec = sharing_spec(attacks=("none", "strip"))
            plain = unshared_store(spec, str(tmp_path / "plain"))
            run(spec, SweepStore(str(tmp_path / "first")))
            repeat = SweepStore(str(tmp_path / "repeat"))
            report = run(spec, repeat)
            assert report.n_executed == spec.n_scenarios
            assert store_digests(repeat.root) == store_digests(plain.root)
        finally:
            clear_process_artifact_cache()


class TestEverySweepShares:
    """Default options share, one measurement group per process."""

    def test_default_inline_sweep_runs_each_group_back_to_back(self, tmp_path):
        clear_process_artifact_cache()
        try:
            # Expansion alternates the attack; grouped, each attack's
            # fleet and eight trace sets are built once.
            spec = sharing_spec(attacks=("none", "strip"))
            run(spec, SweepStore(str(tmp_path / "store")), SweepOptions())
            stats = process_artifact_cache().stats
            assert stats.fleet_misses == 2
            assert (stats.trace_misses, stats.trace_hits) == (16, 48)
            # Only the last group's trace sets stay in memory.
            assert stats.bytes_in_memory == stats.bytes_acquired // 2
            assert stats.peak_bytes == stats.bytes_in_memory
        finally:
            clear_process_artifact_cache()

    @pytest.mark.parametrize("pinned", [True, False])
    def test_pending_scenarios_run_grouped_by_first_appearance(self, tmp_path, pinned):
        # Two measurement groups, one per attack, whether the seeds are
        # pinned or derived (k and m are analysis axes).
        spec = sharing_spec(pinned=pinned, attacks=("none", "strip"))
        expanded = expand_scenarios(spec)
        expected = [s for s in expanded if s.assignment["attack"] == "none"]
        expected += [s for s in expanded if s.assignment["attack"] == "strip"]
        landed = []
        run(
            spec,
            SweepStore(str(tmp_path / "store")),
            progress=lambda scenario_id, executed: landed.append(scenario_id),
        )
        assert landed == [s.scenario_id for s in expected]

    def test_sweep_writes_only_its_store(self, tmp_path, monkeypatch):
        # The store is the one on-disk state: a sweep, inline or on
        # workers, leaves nothing in the working or temporary directory.
        work = tmp_path / "work"
        temporary = tmp_path / "tmp"
        work.mkdir()
        temporary.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.setenv("TMPDIR", str(temporary))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        try:
            for n_workers in (1, 2):
                clear_process_artifact_cache()
                store = SweepStore(str(tmp_path / f"store{n_workers}"))
                run(sharing_spec(), store, SweepOptions(n_workers=n_workers))
                assert len(store) == 4
        finally:
            clear_process_artifact_cache()
        assert sorted(os.listdir(tmp_path)) == ["store1", "store2", "tmp", "work"]
        assert os.listdir(work) == [] and os.listdir(temporary) == []

    def test_two_workers_share_within_a_group(self, tmp_path, monkeypatch):
        # Analysis axes only, seeds pinned: one measurement group.
        spec = SweepSpec(
            name="analysis",
            grid=(
                GridAxis("parameters.k", (4, 8)),
                GridAxis("analysis_seed", (1, 2, 3)),
            ),
            base={
                "parameters.m": 4,
                "parameters.n1": 32,
                "parameters.n2": 64,
                "fleet_seed": 2014,
                "measurement_seed": 42,
            },
            seed=5,
        )
        acquired = tmp_path / "acquired"
        acquire = Oscilloscope.acquire

        def logged_acquire(self, *args, **kwargs):
            # Forked workers inherit the patch; O_APPEND keeps their
            # one-byte writes whole.
            with open(acquired, "a") as log:
                log.write(".")
            return acquire(self, *args, **kwargs)

        clear_process_artifact_cache()
        monkeypatch.setattr(Oscilloscope, "acquire", logged_acquire)
        shared = SweepStore(str(tmp_path / "shared"))
        run(spec, shared, SweepOptions(n_workers=2))
        # Each worker acquires the group's eight trace sets once, not
        # once per scenario (6 x 8 = 48).
        assert len(acquired.read_text()) <= 2 * 8
        monkeypatch.undo()
        plain = unshared_store(spec, str(tmp_path / "plain"))
        assert store_digests(shared.root) == store_digests(plain.root)


def log_acquisitions(monkeypatch, path):
    """Log each device request the artifact cache acquires as a line
    ``<measurement base key> <device> <n_traces>``.

    Forked workers inherit the patch; O_APPEND keeps each call's one
    write whole.
    """
    acquire = artifacts_module.acquire_keyed

    def logged(oscilloscope, key, requests):
        with open(path, "a") as log:
            log.write("".join(f"{key} {device.name} {n}\n" for device, n in requests))
        return acquire(oscilloscope, key, requests)

    monkeypatch.setattr(artifacts_module, "acquire_keyed", logged)


def logged_acquisitions(path):
    lines = path.read_text().splitlines() if path.exists() else []
    return [(key, device, int(n)) for key, device, n in map(str.split, lines)]


def group_key(scenario):
    return measurement_base_key(scenario_config(scenario))


def largest_ceilings(spec):
    """Each device request of each measurement group at its largest
    ceiling, as :func:`log_acquisitions` writes it."""
    ceilings = {}
    for scenario in expand_scenarios(spec):
        key, parameters = group_key(scenario), scenario_config(scenario).parameters
        n1, n2 = ceilings.get(key, (0, 0))
        ceilings[key] = (max(n1, parameters.n1), max(n2, parameters.n2))
    return {
        (key, device, n)
        for key, (n1, n2) in ceilings.items()
        for devices, n in ((REF_ORDER, n1), (DUT_ORDER, n2))
        for device in devices
    }


@pytest.fixture(scope="module")
def default_inline(tmp_path_factory):
    """The default sweep, run inline once: its store root, its cache
    stats and its logged acquisitions."""
    root = tmp_path_factory.mktemp("default-inline")
    log = root / "acquired.log"
    clear_process_artifact_cache()
    try:
        with pytest.MonkeyPatch.context() as patch:
            log_acquisitions(patch, log)
            run(default_sweep_spec(), SweepStore(str(root / "store")), SweepOptions())
        stats = dataclasses.replace(process_artifact_cache().stats)
    finally:
        clear_process_artifact_cache()
    return str(root / "store"), stats, logged_acquisitions(log)


class TestOneAcquisitionPerGroup:
    """Tier-scoped seeds and largest ceiling first: the default sweep
    (noise.sigma x parameters.n2 x attack, 8 groups of 3) acquires each
    group once per process; slot affinity keeps two workers close."""

    def test_inline_default_sweep_acquires_each_group_once(
        self, default_inline, tmp_path
    ):
        root, stats, acquired = default_inline
        assert stats.fleet_misses == 2
        assert (stats.trace_misses, stats.trace_hits) == (64, 128)
        assert sorted(acquired) == sorted(largest_ceilings(default_sweep_spec()))
        plain = unshared_store(default_sweep_spec(), str(tmp_path / "plain"))
        assert store_digests(root) == store_digests(plain.root)

    def test_each_group_runs_largest_ceiling_first(self, tmp_path):
        spec = SweepSpec(
            name="ceilings",
            grid=(
                GridAxis("attack", ("none", "strip")),
                GridAxis("parameters.n1", (32, 48)),
                GridAxis("parameters.n2", (64, 128)),
                GridAxis("parameters.k", (4, 8)),
            ),
            base={"parameters.m": 4, "noise.sigma": 1.0},
            seed=5,
        )
        expanded = expand_scenarios(spec)
        by_id = {s.scenario_id: s for s in expanded}
        landed = []
        run(
            spec,
            SweepStore(str(tmp_path / "store")),
            progress=lambda scenario_id, executed: landed.append(by_id[scenario_id]),
        )
        keys = list(dict.fromkeys(map(group_key, expanded)))
        assert len(keys) == 2  # one per attack; the other axes are ceilings or analysis

        def ceiling(scenario):
            parameters = scenario_config(scenario).parameters
            return parameters.n2, parameters.n1

        # Groups in first-appearance order, each (n2, n1) descending,
        # ties in expansion order.
        expected = [
            scenario
            for key in keys
            for scenario in sorted(
                (s for s in expanded if group_key(s) == key), key=ceiling, reverse=True
            )
        ]
        assert landed == expected

    def test_two_workers_acquire_each_group_at_its_largest_ceiling(
        self, default_inline, tmp_path, monkeypatch
    ):
        inline_root, _, _ = default_inline
        log = tmp_path / "acquired.log"
        log_acquisitions(monkeypatch, log)
        # A forked worker starts from a copy of this process's cache.
        clear_process_artifact_cache()
        store = SweepStore(str(tmp_path / "store"))
        run(default_sweep_spec(), store, SweepOptions(n_workers=2))
        acquired = logged_acquisitions(log)
        assert largest_ceilings(default_sweep_spec()) <= set(acquired)
        # At most one tail steal: once no group is left unstarted, the
        # idle slot joins the other slot's group (192 without sharing).
        assert len(acquired) <= 64 + 8
        assert store_digests(store.root) == store_digests(inline_root)
