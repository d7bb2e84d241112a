"""Tests for the 16-bit (two-stage) leakage component extension."""

import pytest

from repro.core.correlation import pearson
from repro.acquisition.device import Device
from repro.fsm.counters import build_binary_counter
from repro.fsm.watermark import (
    WatermarkKeyError,
    WatermarkedIP,
    attach_wide_leakage_component,
    leakage_sequence,
)
from repro.hdl.netlist import Netlist
from repro.hdl.simulator import Simulator
from repro.power.models import PowerModel


def wide_ip(kw=0xBEEF):
    netlist = Netlist("wide")
    register = build_binary_counter(netlist, 8)
    h_register = attach_wide_leakage_component(
        netlist, netlist.wires["ctr_state"], kw
    )
    netlist.validate()
    return WatermarkedIP(
        name="wide",
        netlist=netlist,
        state_register=register,
        kw=kw,
        fsm_kind="binary",
        h_register=h_register,
    )


class TestConstruction:
    def test_two_sbox_stages(self):
        ip = wide_ip()
        names = {c.name for c in ip.netlist.components}
        assert "wm_sbox1" in names
        assert "wm_sbox2" in names

    def test_rejects_oversized_key(self):
        netlist = Netlist("x")
        build_binary_counter(netlist, 8)
        with pytest.raises(WatermarkKeyError):
            attach_wide_leakage_component(
                netlist, netlist.wires["ctr_state"], 1 << 16
            )

    def test_rejects_non_8bit_state(self):
        netlist = Netlist("x")
        build_binary_counter(netlist, 12)
        with pytest.raises(WatermarkKeyError, match="8-bit"):
            attach_wide_leakage_component(netlist, netlist.wires["ctr_state"], 1)

    def test_does_not_disturb_the_fsm(self):
        ip = wide_ip()
        sequence = Simulator(ip.netlist).state_sequence("ctr_reg", 300)
        assert sequence == [(i + 1) % 256 for i in range(300)]


class TestBehaviour:
    def test_matches_software_model(self):
        from repro.crypto.sbox import SBOX

        hardware = Simulator(wide_ip(0x1234).netlist).state_sequence("wm_hreg", 32)
        assert hardware == [SBOX[SBOX[c ^ 0x34] ^ 0x12] for c in range(32)]

    def test_different_halves_change_sequence(self):
        def h_values(kw):
            return Simulator(wide_ip(kw).netlist).state_sequence("wm_hreg", 64)

        base = h_values(0x1234)
        assert base != h_values(0x1235)
        assert base != h_values(0x1334)

    def test_low_byte_equal_to_narrow_key_composed(self):
        from repro.crypto.sbox import SBOX

        # hi = 0: the second stage is the SBox under a zero key.
        wide = Simulator(wide_ip(0x005A).netlist).state_sequence("wm_hreg", 16)
        assert wide == [SBOX[h] for h in leakage_sequence(range(16), 0x5A)]


class TestVerificationSeparation:
    def test_wide_keys_separate_devices(self):
        matching_a = Device("a", wide_ip(0xBEEF), PowerModel(), default_cycles=256)
        matching_b = Device("b", wide_ip(0xBEEF), PowerModel(), default_cycles=256)
        other = Device("c", wide_ip(0xCAFE), PowerModel(), default_cycles=256)
        rho_match = pearson(
            matching_a.deterministic_waveform(), matching_b.deterministic_waveform()
        )
        rho_other = pearson(
            matching_a.deterministic_waveform(), other.deterministic_waveform()
        )
        assert rho_match == pytest.approx(1.0)
        assert rho_other < rho_match

    def test_template_search_space_squared(self):
        # The narrow component's 256-template attack no longer applies:
        # the H switching under a wide key matches none of the 256
        # narrow-key predictions perfectly.
        from repro.attacks.forgery import predicted_h_switching
        import numpy as np
        from repro.hdl.wires import hamming_distance

        wide_values = Simulator(wide_ip(0xBEEF).netlist).state_sequence("wm_hreg", 256)
        wide_switching = np.array(
            [0]
            + [
                hamming_distance(a, b)
                for a, b in zip(wide_values, wide_values[1:])
            ],
            dtype=float,
        )
        best = 0.0
        for kw in range(256):
            narrow = predicted_h_switching(list(range(256)), kw)
            a = narrow - narrow.mean()
            b = wide_switching - wide_switching.mean()
            denom = np.sqrt(np.sum(a * a) * np.sum(b * b))
            if denom > 0:
                best = max(best, abs(float(np.sum(a * b) / denom)))
        assert best < 0.6
