"""Tests for the CLI, the public API surface and the report module."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro
import repro.acquisition.bench as bench_module
from repro.cli import _campaign_config, build_parser, main
from repro.core.report import (
    render_matrix_table,
    render_means_table,
    render_variances_table,
    render_verdicts,
)
from repro.sweeps import GridAxis, SweepSpec, SweepStore, expand_scenarios, run
from tests.test_sweeps import (
    ILL_TYPED,
    OUT_OF_DOMAIN,
    QUICK,
    count_expansions,
    store_digests,
)

#: Imports the whole package and runs a campaign with every ``scipy``
#: import refused: numpy is the only runtime dependency.
NO_SCIPY_SCRIPT = """
import importlib.abc
import sys


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy blocked")
        return None


sys.meta_path.insert(0, RefuseScipy())

import repro
import repro.acquisition
import repro.analysis
import repro.attacks
import repro.baselines
import repro.cli
import repro.core
import repro.crypto
import repro.experiments
import repro.fsm
import repro.hdl
import repro.power
import repro.service
import repro.sweeps

sys.exit(repro.cli.main(["campaign"]))
"""


class TestPublicAPI:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), name

    def test_subpackage_alls_resolve(self):
        # Every module of the package, so a name deleted from a module
        # but left in its ``__all__`` fails here.
        modules = [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(repro.__path__, "repro.")
        ]
        exporting = {m.__name__: m for m in modules if hasattr(m, "__all__")}
        walked = {"repro.service", "repro.sweeps", "repro.experiments.artifacts"}
        assert walked <= set(exporting)
        for module in exporting.values():
            for name in module.__all__:
                assert hasattr(module, name), f"{module.__name__}.{name}"

    def test_runs_without_scipy(self):
        src = os.path.dirname(os.path.dirname(repro.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", NO_SCIPY_SCRIPT],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert result.returncode == 0, result.stderr
        assert "higher-mean accuracy:    1.00" in result.stdout

    def test_paper_plan_exported(self):
        assert repro.PAPER_PLAN.parameters.n2 == 10_000


class TestCLI:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["plan", "--alpha", "5", "--k", "25"])
        assert args.command == "plan"
        assert args.alpha == 5.0

    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_plan_command(self, capsys):
        assert main(["plan", "--alpha", "10", "--k", "50"]) == 0
        out = capsys.readouterr().out
        assert "P(zeta) limit" in out
        assert "n2 (DUT traces)" in out

    def test_figure5_command(self, capsys):
        assert main(["figure5"]) == 0
        out = capsys.readouterr().out
        assert "f_alpha(m)" in out
        assert "paper: 0.0045" in out

    def test_figure5_custom_alpha(self, capsys):
        assert main(["figure5", "--alpha", "3"]) == 0
        assert "alpha = 3" in capsys.readouterr().out

    def test_collisions_command(self, capsys):
        assert main(["collisions"]) == 0
        out = capsys.readouterr().out
        assert "32640" in out
        assert "worst pair" in out

    def test_keysearch_command(self, capsys):
        assert main(["keysearch", "--traces", "150"]) == 0
        out = capsys.readouterr().out
        assert "recovered: True" in out

    @pytest.mark.parametrize("command", ["campaign", "tables", "figure4"])
    def test_negative_analysis_seed_is_an_error_line(self, command):
        # The analysis seed is --seed + 1, which must not be negative.
        with pytest.raises(SystemExit, match="^error: --seed -2: analysis_seed"):
            main(["--seed", "-2", command])

    def test_seed_minus_one_is_analysis_seed_zero(self):
        args = build_parser().parse_args(["--seed", "-1", "campaign"])
        assert _campaign_config(args).analysis_seed == 0

    @pytest.mark.parametrize(
        "design", ["imported:/nonexistent.v", "bogus", "imported:README.md"]
    )
    def test_bad_design_is_an_error_line(self, design):
        with pytest.raises(SystemExit, match="^error: --design: "):
            main(["--design", design, "campaign"])


class TestReportRendering:
    MATRIX = {
        "IP_X": {"DUT#1": 0.95, "DUT#2": 0.50},
        "IP_Y": {"DUT#1": 0.40, "DUT#2": 0.90},
    }

    def test_means_table(self):
        text = render_means_table(self.MATRIX, ["DUT#1", "DUT#2"])
        assert "0.950" in text
        assert "Delta_mean" in text

    def test_variances_table(self):
        matrix = {
            "IP_X": {"DUT#1": 1e-6, "DUT#2": 1e-4},
        }
        text = render_variances_table(matrix, ["DUT#1", "DUT#2"])
        assert "1.000e-06" in text
        assert "99.00%" in text

    def test_matrix_table_rejects_unknown_style(self):
        with pytest.raises(ValueError):
            render_matrix_table(self.MATRIX, ["DUT#1", "DUT#2"], "bogus", "x")

    def test_render_verdicts(self, paper_campaign):
        text = render_verdicts(paper_campaign.reports["IP_A"])
        assert "IP_A" in text
        assert "higher-mean" in text
        assert "unanimous" in text


class TestSweepCLI:
    def test_parser_accepts_sweep_options(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "--engine", "interpreted",
                "sweep",
                "--axis", "noise.sigma=0.5,1.0",
                "--base", "parameters.k=8",
                "--store", "somewhere",
                "--workers", "2",
            ]
        )
        assert args.command == "sweep"
        assert args.engine == "interpreted"
        assert args.axis == [("noise.sigma", [0.5, 1.0])]
        assert args.base == [("parameters.k", 8)]
        assert args.workers == 2

    def test_parser_rejects_malformed_axis(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep", "--axis", "noise.sigma"])
        capsys.readouterr()

    def test_engine_flag_rejects_unknown(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--engine", "warp", "campaign"])
        capsys.readouterr()

    def test_sweep_command_runs_and_resumes(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        argv = [
            "sweep",
            "--axis", "noise.sigma=0.5,1.0",
            "--axis", "attack=none,strip",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--base", "parameters.n2=64",
            "--store", store,
            "--workers", "1",
        ]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "4 scenarios" in out
        assert "executed 4" in out
        assert "accuracy[lower-variance]" in out
        assert "screening AUC" in out
        # Second invocation is served entirely from the store.
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 0" in out
        assert "reused 4" in out

    def test_sweep_expands_its_spec_once(self, tmp_path, monkeypatch, capsys):
        calls = count_expansions(monkeypatch)
        store = tmp_path / "store"
        quick = [f"--base={field}={value}" for field, value in QUICK.items()]
        argv = ["sweep", "--axis", "noise.sigma=0.5,1.0", "--axis", "attack=none,strip"]
        assert main([*argv, *quick, "--workers", "1", "--store", str(store)]) == 0
        assert calls == ["sweep"]
        spec = SweepSpec(
            name="sweep",
            grid=(
                GridAxis("noise.sigma", (0.5, 1.0)),
                GridAxis("attack", ("none", "strip")),
            ),
            base={"engine": "auto", **QUICK},
            seed=42,
        )
        direct = SweepStore(str(tmp_path / "direct"))
        run(spec, direct)
        assert len(direct) == 4
        assert store_digests(store) == store_digests(direct.root)

    def test_default_sweep_grid_is_at_least_24_scenarios(self):
        from repro.cli import DEFAULT_SWEEP_AXES

        total = 1
        for values in DEFAULT_SWEEP_AXES.values():
            total *= len(values)
        assert total >= 24

    def test_default_sweep_runs_and_store_serves_rerun(self, tmp_path, capsys):
        # Acceptance: the stock `repro-watermark sweep` covers >= 24
        # scenarios, and a rerun executes nothing.
        from repro.cli import default_sweep_spec

        store = str(tmp_path / "store")
        argv = ["sweep", "--store", store, "--workers", "1"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "24 scenarios" in out
        assert "executed 24" in out
        assert SweepStore(store).ids() == sorted(
            s.scenario_id for s in expand_scenarios(default_sweep_spec())
        )
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert "executed 0" in out
        assert "reused 24" in out

    def test_random_only_sweep_has_no_default_grid(self, tmp_path, capsys):
        assert main([
            "sweep",
            "--random", "noise.sigma=0.2:2.0:log",
            "--samples", "2",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--base", "parameters.n2=64",
            "--store", str(tmp_path / "store"),
            "--workers", "1",
        ]) == 0
        out = capsys.readouterr().out
        assert "2 scenarios" in out

    def test_random_axis_rejects_unknown_modifier(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["sweep", "--random", "noise.sigma=0.1:2.0:LOG"]
            )
        capsys.readouterr()

    def test_duplicate_axis_option_rejected(self, tmp_path):
        with pytest.raises(SystemExit, match="twice"):
            main([
                "sweep",
                "--axis", "noise.sigma=0.5",
                "--axis", "noise.sigma=1.0,2.0",
                "--store", str(tmp_path / "store"),
            ])

    def test_quarantined_scenario_reported_and_exit_nonzero(
        self, tmp_path, capsys, fail_scenario
    ):
        # The second scenario fails in every attempt; with the retry
        # budget exhausted it is quarantined, the sibling completes, and
        # the command signals degradation through its exit code.
        from repro.cli import DEFAULT_SWEEP_BASE

        # The spec the flags below build.
        spec = SweepSpec(
            name="sweep",
            grid=(GridAxis("parameters.n1", (32, 40)),),
            base={
                **DEFAULT_SWEEP_BASE,
                "engine": "auto",
                "parameters.k": 4,
                "parameters.m": 4,
                "parameters.n2": 64,
            },
            seed=42,
        )
        fail_scenario(expand_scenarios(spec)[1].scenario_id)
        status = main([
            "sweep",
            "--axis", "parameters.n1=32,40",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n2=64",
            "--store", str(tmp_path / "store"),
            "--workers", "1",
            "--max-retries", "0",
        ])
        assert status == 1
        out = capsys.readouterr().out
        assert "QUARANTINED 1 scenario(s)" in out
        assert "executed 1" in out

    def test_scheduler_flags_run_lease_mode(self, tmp_path, capsys):
        assert main([
            "sweep",
            "--axis", "noise.sigma=0.5,1.0",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--base", "parameters.n2=64",
            "--store", str(tmp_path / "store"),
            "--workers", "2",
            "--lease-ttl", "10",
            "--scenario-timeout", "120",
            "--scrub",
        ]) == 0
        out = capsys.readouterr().out
        assert "lease scheduler" in out
        assert "executed 2" in out

    def test_inline_scrub_leaves_no_lease_dir(self, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main([
            "sweep",
            "--axis", "noise.sigma=0.5",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--base", "parameters.n2=64",
            "--store", store,
            "--workers", "1",
            "--scrub",
        ]) == 0
        assert f"scrubbed 0 stale file(s) from {store}" in capsys.readouterr().out
        assert not os.path.exists(os.path.join(store, ".leases"))

    def test_random_int_modifier_for_integer_fields(self, tmp_path, capsys):
        assert main([
            "sweep",
            "--random", "parameters.n2=128:512:int",
            "--samples", "2",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--store", str(tmp_path / "store"),
            "--workers", "1",
        ]) == 0
        assert "2 scenarios" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["sweep", "serve"])
    def test_negative_workers_exit_cleanly(self, tmp_path, command):
        with pytest.raises(SystemExit, match="--workers must be >= 0"):
            main([command, "--workers", "-1", "--store", str(tmp_path / "store")])
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize(
        "flag, value",
        [
            ("--lease-ttl", "nan"),
            ("--lease-ttl", "inf"),
            ("--scenario-timeout", "nan"),
            ("--scenario-timeout", "inf"),
        ],
    )
    def test_non_finite_scheduler_flags_exit_cleanly(self, tmp_path, flag, value):
        # A NaN lease is never stale and a NaN timeout never fires.
        with pytest.raises(SystemExit, match="invalid scheduler options"):
            main([
                "sweep",
                "--axis", "noise.sigma=0.5",
                "--base", "parameters.k=4",
                "--base", "parameters.m=4",
                "--base", "parameters.n1=32",
                "--base", "parameters.n2=64",
                "--store", str(tmp_path / "store"),
                "--workers", "1",
                flag, value,
            ])
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bare_sweep_takes_one_slot_per_usable_cpu(
        self, tmp_path, capsys, monkeypatch, cpus
    ):
        # No --workers: one attempt slot per usable CPU, lease-scheduled
        # above one, and the same result bytes as a one-worker run.
        argv = [
            "sweep",
            "--axis", "noise.sigma=0.5,1.0",
            "--base", "parameters.k=4",
            "--base", "parameters.m=4",
            "--base", "parameters.n1=32",
            "--base", "parameters.n2=64",
        ]
        reference = str(tmp_path / "reference")
        assert main(argv + ["--store", reference, "--workers", "1"]) == 0
        monkeypatch.setattr(bench_module, "usable_cpus", lambda: cpus)
        store = str(tmp_path / "default")
        capsys.readouterr()
        assert main(argv + ["--store", store]) == 0
        out = capsys.readouterr().out
        assert f"{cpus} worker(s)" in out
        assert (", lease scheduler" in out) == (cpus > 1)
        assert os.path.isdir(os.path.join(store, ".leases")) == (cpus > 1)
        assert store_digests(store) == store_digests(reference)

    def test_invalid_axis_field_exits_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid sweep"):
            main(["sweep", "--axis", "bogus=1",
                  "--store", str(tmp_path / "store")])

    def test_reversed_random_bounds_exit_cleanly(self, tmp_path):
        with pytest.raises(SystemExit, match="invalid sweep"):
            main(["sweep", "--random", "noise.sigma=2.0:0.5", "--samples", "2",
                  "--store", str(tmp_path / "store")])

    @pytest.mark.parametrize("field, value", ILL_TYPED)
    def test_ill_typed_base_exits_without_a_store(self, tmp_path, field, value):
        # What the shell passes: --base watermarked=False is the string
        # "False", which is truthy and would run the watermarked fleet.
        text = value if isinstance(value, str) else json.dumps(value)
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match=f"invalid sweep: '{field}' takes"):
            main(["sweep", "--base", f"{field}={text}", "--store", str(store)])
        assert not store.exists()

    @pytest.mark.parametrize("bad, message", OUT_OF_DOMAIN)
    def test_out_of_domain_base_exits_without_a_store(self, tmp_path, bad, message):
        quick = [f"--base={field}={value}" for field, value in QUICK.items()]
        flags = [f"--base={field}={json.dumps(value)}" for field, value in bad.items()]
        store = tmp_path / "store"
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", "--axis", "attack=none", *quick, *flags,
                  "--store", str(store)])
        assert str(excinfo.value.code).startswith(
            'error: invalid sweep: scenario {"attack":"none"}: '
        )
        assert message in str(excinfo.value.code)
        assert not store.exists()

    def test_duplicate_draws_exit_without_a_store(self, tmp_path):
        store = tmp_path / "store"
        with pytest.raises(SystemExit, match="duplicate scenarios"):
            main([
                "sweep",
                "--random", "parameters.n2=600:601:int",
                "--samples", "5",
                "--base", "parameters.k=8",
                "--base", "parameters.m=8",
                "--base", "parameters.n1=64",
                "--store", str(store),
            ])
        assert not store.exists()

    def test_random_integer_field_needs_int_modifier(self, tmp_path):
        argv = ["sweep", "--random", "parameters.n2=64:256", "--samples", "2"]
        with pytest.raises(SystemExit, match="integer set"):
            main(argv + ["--store", str(tmp_path / "store")])
