"""Tests for the sweep store's array bundles (and the counter
netlist builders)."""

import numpy as np
import pytest


class TestCounterBuilders:
    # New netlist builders shipped with this extension round.
    def test_johnson_counter_netlist(self):
        from repro.fsm.counters import build_johnson_counter, johnson_counter_machine
        from repro.hdl.netlist import Netlist
        from repro.hdl.simulator import Simulator

        netlist = Netlist("johnson")
        build_johnson_counter(netlist, 4)
        sequence = Simulator(netlist).state_sequence("ctr_reg", 16)
        machine = johnson_counter_machine(4)
        expected = machine.run(17)[1:]
        assert sequence == expected

    def test_lfsr_netlist(self):
        from repro.fsm.counters import build_lfsr, lfsr_machine
        from repro.hdl.netlist import Netlist
        from repro.hdl.simulator import Simulator

        netlist = Netlist("lfsr")
        build_lfsr(netlist, 4, taps=[3, 2], seed=1)
        sequence = Simulator(netlist).state_sequence("ctr_reg", 15)
        machine = lfsr_machine(4, taps=[3, 2], seed=1)
        expected = machine.run(16)[1:]
        assert sequence == expected

    def test_lfsr_netlist_validation(self):
        from repro.fsm.counters import build_lfsr
        from repro.hdl.netlist import Netlist

        with pytest.raises(ValueError):
            build_lfsr(Netlist("x"), 4, taps=[3], seed=0)
        with pytest.raises(ValueError):
            build_lfsr(Netlist("y"), 4, taps=[9], seed=1)

    def test_johnson_single_bit_activity(self):
        from repro.fsm.counters import build_johnson_counter
        from repro.hdl.netlist import Netlist
        from repro.hdl.simulator import Simulator

        netlist = Netlist("johnson")
        build_johnson_counter(netlist, 8)
        trace = Simulator(netlist).run(16)
        series = trace.component_series("ctr_reg")
        assert set(series) == {1.0}


class TestArrayBundles:
    def test_round_trip(self, rng, tmp_path):
        from repro.acquisition.io import load_array_bundle, save_array_bundle

        path = str(tmp_path / "bundle.npz")
        arrays = {"C/IP_A/DUT#1": rng.normal(size=5), "counts": np.arange(3)}
        save_array_bundle(path, arrays, metadata={"scenario": "x"})
        loaded, metadata = load_array_bundle(path)
        assert metadata == {"scenario": "x"}
        assert set(loaded) == set(arrays)
        for name in arrays:
            np.testing.assert_array_equal(loaded[name], arrays[name])

    def test_bytes_are_deterministic(self, rng, tmp_path):
        from repro.acquisition.io import save_array_bundle

        arrays = {"b": rng.normal(size=7), "a": np.ones((2, 2))}
        first = str(tmp_path / "first.npz")
        second = str(tmp_path / "second.npz")
        save_array_bundle(first, arrays, metadata={"k": 1})
        save_array_bundle(second, dict(reversed(arrays.items())), metadata={"k": 1})
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read()

    def test_reserved_name_rejected(self, tmp_path):
        from repro.acquisition.io import save_array_bundle

        with pytest.raises(ValueError, match="reserved"):
            save_array_bundle(
                str(tmp_path / "x.npz"), {"__bundle_metadata__": np.ones(1)}
            )

    def test_dtypes_and_shapes_survive(self, rng, tmp_path):
        from repro.acquisition.io import load_array_bundle, save_array_bundle

        arrays = {
            "float64": rng.normal(size=(3, 4)),
            "float32": rng.normal(size=5).astype(np.float32),
            "int64": np.arange(-3, 3),
            "uint8": np.arange(6, dtype=np.uint8).reshape(2, 3),
            "bool": np.array([True, False, True]),
            "scalar": np.array(2.5),
            "empty": np.zeros((0, 3)),
            "special": np.array([np.nan, np.inf, -np.inf, -0.0]),
        }
        path = str(tmp_path / "bundle.npz")
        save_array_bundle(path, arrays)
        loaded, _ = load_array_bundle(path)
        for name, values in arrays.items():
            assert loaded[name].dtype == values.dtype, name
            assert loaded[name].shape == values.shape, name
            assert loaded[name].tobytes() == values.tobytes(), name

    def test_metadata_defaults_to_empty(self, tmp_path):
        from repro.acquisition.io import load_array_bundle, save_array_bundle

        path = str(tmp_path / "bundle.npz")
        save_array_bundle(path, {"a": np.ones(2)})
        assert load_array_bundle(path)[1] == {}

    def test_metadata_key_order_does_not_change_bytes(self, tmp_path):
        from repro.acquisition.io import save_array_bundle

        first = str(tmp_path / "first.npz")
        second = str(tmp_path / "second.npz")
        save_array_bundle(first, {"a": np.ones(2)}, metadata={"x": 1, "y": [2, 3]})
        save_array_bundle(second, {"a": np.ones(2)}, metadata={"y": [2, 3], "x": 1})
        with open(first, "rb") as f1, open(second, "rb") as f2:
            assert f1.read() == f2.read()

    def test_object_arrays_never_pickled(self, tmp_path):
        from repro.acquisition.io import load_array_bundle, save_array_bundle

        objects = np.array([{"a": 1}], dtype=object)
        with pytest.raises(ValueError, match="allow_pickle"):
            save_array_bundle(str(tmp_path / "saved.npz"), {"objects": objects})
        # A foreign archive holding a pickle is refused on load too.
        foreign = str(tmp_path / "foreign.npz")
        np.savez(foreign, objects=objects)
        with pytest.raises(ValueError, match="allow_pickle"):
            load_array_bundle(foreign)

    def test_verification_works_on_reloaded_traces(self, tmp_path):
        # End-to-end: acquire, save the trace matrices as one bundle,
        # reload them and reach the same verdict bit for bit.
        from repro.acquisition.bench import MeasurementBench
        from repro.acquisition.device import Device
        from repro.acquisition.io import load_array_bundle, save_array_bundle
        from repro.acquisition.traces import TraceSet
        from repro.core.process import ProcessParameters
        from repro.core.verification import WatermarkVerifier
        from repro.experiments.designs import build_paper_ip
        from repro.power.models import PowerModel

        def device(name, ip):
            return Device(name, build_paper_ip(ip), PowerModel(), default_cycles=256)

        bench = MeasurementBench(seed=0)
        params = ProcessParameters(k=20, m=8, n1=160, n2=1600)
        sets = {
            "RefD": bench.measure(device("RefD", "IP_A"), params.n1),
            "DUT": bench.measure(device("DUT", "IP_A"), params.n2),
            "DUT2": bench.measure(device("DUT2", "IP_C"), params.n2),
        }
        path = str(tmp_path / "campaign.npz")
        save_array_bundle(path, {name: s.matrix for name, s in sets.items()})
        arrays, _ = load_array_bundle(path)
        loaded = {name: TraceSet(name, matrix) for name, matrix in arrays.items()}
        verifier = WatermarkVerifier(params)
        reports = [
            verifier.identify(
                found["RefD"], {"DUT": found["DUT"], "DUT2": found["DUT2"]}, rng=1
            )
            for found in (sets, loaded)
        ]
        assert reports[1].verdict_of("lower-variance").chosen_dut == "DUT"
        for dut in ("DUT", "DUT2"):
            np.testing.assert_array_equal(
                reports[0].results[dut].coefficients,
                reports[1].results[dut].coefficients,
            )
