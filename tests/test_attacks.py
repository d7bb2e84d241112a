"""Tests for the adversarial-analysis package."""

import pytest

from repro.acquisition.bench import acquire_traces
from repro.acquisition.device import Device
from repro.attacks.forgery import (
    predicted_h_switching,
    template_key_search,
)
from repro.attacks.masking import defender_k_escalation, masking_sweep
from repro.attacks.removal import strip_output_pads_only, strip_watermark
from repro.core.correlation import pearson
from repro.experiments.designs import KW1, build_paper_ip
from repro.fsm.encoding import gray_encode
from repro.hdl.simulator import Simulator
from repro.power.models import PowerModel


class TestRemoval:
    def test_strip_removes_all_wm_components(self):
        ip = build_paper_ip("IP_B")
        report = strip_watermark(ip)
        assert report.n_removed >= 5
        names = {c.name for c in ip.netlist.components}
        assert not any(name.startswith("wm_") for name in names)

    def test_strip_preserves_fsm_behaviour(self):
        ip = build_paper_ip("IP_B")
        strip_watermark(ip)
        sequence = Simulator(ip.netlist).state_sequence("ctr_reg", 260)
        expected = [gray_encode((i + 1) % 256, 8) for i in range(260)]
        assert sequence == expected

    def test_strip_clears_watermark_metadata(self):
        ip = build_paper_ip("IP_A")
        strip_watermark(ip)
        assert not ip.is_watermarked
        assert ip.kw is None

    def test_strip_is_idempotent(self):
        ip = build_paper_ip("IP_A")
        strip_watermark(ip)
        report = strip_watermark(ip)
        assert report.n_removed == 0

    def test_stripped_clone_changes_the_waveform(self):
        marked = Device("m", build_paper_ip("IP_B"), PowerModel(), default_cycles=256)
        clone_ip = build_paper_ip("IP_B")
        strip_watermark(clone_ip)
        clone = Device("c", clone_ip, PowerModel(), default_cycles=256)
        rho = pearson(
            marked.deterministic_waveform(), clone.deterministic_waveform()
        )
        assert rho < 0.99

    def test_pads_only_attack_keeps_ram_and_register(self):
        ip = build_paper_ip("IP_B")
        report = strip_output_pads_only(ip)
        assert report.removed_components == ["wm_pads"]
        names = {c.name for c in ip.netlist.components}
        assert "wm_sbox" in names
        assert "wm_hreg" in names

    def test_pads_only_attack_attenuates_less_than_full_strip(self):
        marked = Device("m", build_paper_ip("IP_B"), PowerModel(), default_cycles=256)

        quiet_ip = build_paper_ip("IP_B")
        strip_output_pads_only(quiet_ip)
        quiet = Device("q", quiet_ip, PowerModel(), default_cycles=256)

        bare_ip = build_paper_ip("IP_B")
        strip_watermark(bare_ip)
        bare = Device("b", bare_ip, PowerModel(), default_cycles=256)

        base = marked.deterministic_waveform()
        rho_quiet = pearson(base, quiet.deterministic_waveform())
        rho_bare = pearson(base, bare.deterministic_waveform())
        assert rho_quiet > rho_bare


class TestForgery:
    def test_predicted_switching_shape(self):
        series = predicted_h_switching(list(range(64)), 0x5A)
        assert series.shape == (64,)
        assert series[0] == 0

    def test_template_search_recovers_the_key(self):
        device = Device("d", build_paper_ip("IP_A"), PowerModel(), default_cycles=256)
        traces = acquire_traces(device, 300, rng=1)
        result = template_key_search(
            traces,
            state_codes=list(range(256)),
            true_key=KW1,
            samples_per_cycle=4,
            n_average=300,
        )
        assert result.succeeded
        assert result.rank_of_true_key() == 1
        assert result.margin > 0

    def test_search_fails_with_wrong_state_model(self):
        # Predicting with the wrong FSM (binary codes against a Gray
        # device) must not recover the key reliably.
        device = Device("d", build_paper_ip("IP_B"), PowerModel(), default_cycles=256)
        traces = acquire_traces(device, 200, rng=2)
        result = template_key_search(
            traces,
            state_codes=list(range(256)),  # wrong: device is Gray-coded
            true_key=KW1,
            samples_per_cycle=4,
        )
        correct_rank = result.rank_of_true_key()
        assert correct_rank > 1 or result.scores[result.best_key] < 0.3

    def test_search_with_gray_codes_recovers_gray_device_key(self):
        device = Device("d", build_paper_ip("IP_B"), PowerModel(), default_cycles=256)
        traces = acquire_traces(device, 300, rng=3)
        gray_codes = [gray_encode(i, 8) for i in range(256)]
        result = template_key_search(
            traces,
            state_codes=gray_codes,
            true_key=KW1,
            samples_per_cycle=4,
            n_average=300,
        )
        assert result.succeeded

    def test_validation(self):
        device = Device("d", build_paper_ip("IP_A"), PowerModel(), default_cycles=256)
        traces = acquire_traces(device, 10, rng=4)
        with pytest.raises(ValueError):
            template_key_search(traces, range(256), KW1, samples_per_cycle=0)
        with pytest.raises(ValueError):
            template_key_search(traces, range(10), KW1, samples_per_cycle=4)

    def test_cross_key_collision_is_low(self):
        # A forger claiming the IP under another key predicts an
        # H-switching series that hardly follows the true key's.
        codes = list(range(256))
        rho = pearson(
            predicted_h_switching(codes, 0x5A), predicted_h_switching(codes, 0xC3)
        )
        assert abs(rho) < 0.3

    def test_same_key_collision_is_one(self):
        codes = list(range(256))
        rho = pearson(
            predicted_h_switching(codes, 0x11), predicted_h_switching(codes, 0x11)
        )
        assert rho == pytest.approx(1.0)


class TestMasking:
    def test_sweep_shapes_and_monotone_mean(self):
        points = masking_sweep([0.5, 4.0], seed=5)
        assert len(points) == 2
        # More masking noise lowers the matching correlation mean.
        assert points[1].matching_mean < points[0].matching_mean

    def test_low_noise_full_accuracy(self):
        points = masking_sweep([0.5], seed=6)
        assert points[0].mean_accuracy == 1.0
        assert points[0].variance_accuracy == 1.0

    def test_rejects_empty_sweep(self):
        with pytest.raises(ValueError):
            masking_sweep([])

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            masking_sweep([-1.0])

    def test_defender_escalation_validation(self):
        with pytest.raises(ValueError):
            defender_k_escalation(-1.0, [10])
        with pytest.raises(ValueError):
            defender_k_escalation(1.0, [0])
