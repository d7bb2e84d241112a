"""Tests for the deterministic fault-injection harness."""

import multiprocessing
import pathlib
import re
import signal
import time

import pytest

from repro.sweeps.faultinject import (
    CRASH_EXIT_CODE,
    FAULT_PLAN_ENV,
    SITES,
    FaultPlan,
    FaultRule,
    InjectedFault,
    active_fault_plan,
    clear_fault_plan,
    fault_context,
    fault_point,
    install_fault_plan,
)


@pytest.fixture(autouse=True)
def _pristine_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    clear_fault_plan()
    yield
    clear_fault_plan()


class TestFaultRuleValidation:
    def test_requires_site(self):
        with pytest.raises(ValueError, match="site"):
            FaultRule(site="")

    def test_rejects_unknown_site_naming_the_known_ones(self):
        # A typo would never match a fault_point: the plan would
        # silently test nothing.
        with pytest.raises(ValueError, match="store.put_record") as excinfo:
            FaultRule(site="store.put_recrod")
        assert "unknown fault site 'store.put_recrod'" in str(excinfo.value)

    def test_sites_are_the_instrumented_fault_points(self):
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        named = set()
        for path in src.rglob("*.py"):
            named.update(re.findall(r'fault_point\("([^"]+)"\)', path.read_text()))
        assert named == set(SITES)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultRule(site="scenario.pre", kind="meltdown")

    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError, match="probability"):
            FaultRule(site="scenario.pre", probability=1.5)

    def test_rejects_negative_delay(self):
        with pytest.raises(ValueError, match="delay"):
            FaultRule(site="scenario.pre", delay=-1.0)

    def test_delay_rule_needs_positive_delay(self):
        with pytest.raises(ValueError, match="delay rule"):
            FaultRule(site="scenario.pre", kind="delay")

    def test_max_attempt_one_based(self):
        with pytest.raises(ValueError, match="max_attempt"):
            FaultRule(site="scenario.pre", max_attempt=0)


class TestFaultPlanSerialisation:
    def test_json_round_trip(self):
        plan = FaultPlan(
            rules=(
                FaultRule(site="scenario.pre", kind="crash", key="abc"),
                FaultRule(site="store.put_record", probability=0.25),
            ),
            seed=7,
        )
        clone = FaultPlan.from_json(plan.to_json())
        assert clone == plan

    def test_env_activation(self, monkeypatch):
        plan = FaultPlan(rules=(FaultRule(site="scenario.pre"),), seed=3)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        clear_fault_plan()
        assert active_fault_plan() == plan

    def test_install_overrides_env(self, monkeypatch):
        monkeypatch.setenv(
            FAULT_PLAN_ENV, FaultPlan(rules=(FaultRule(site="scenario.pre"),)).to_json()
        )
        install_fault_plan(None)
        assert active_fault_plan() is None
        fault_point("scenario.pre")  # must be a no-op


class TestFaultPoint:
    def test_noop_without_plan(self):
        fault_point("anything")  # no plan active: must not raise

    def test_exception_rule_raises_with_context(self):
        install_fault_plan(FaultPlan(rules=(FaultRule(site="scenario.pre"),)))
        with fault_context("scen-1", 2):
            with pytest.raises(InjectedFault, match="key=scen-1 attempt=2"):
                fault_point("scenario.pre")

    def test_site_and_key_filtering(self):
        install_fault_plan(
            FaultPlan(rules=(FaultRule(site="scenario.pre", key="victim"),))
        )
        fault_point("scenario.post")
        with fault_context("bystander"):
            fault_point("scenario.pre")
        with fault_context("victim"):
            with pytest.raises(InjectedFault):
                fault_point("scenario.pre")

    def test_max_attempt_scripts_transient_faults(self):
        install_fault_plan(
            FaultPlan(rules=(FaultRule(site="scenario.pre", max_attempt=2),))
        )
        for attempt in (1, 2):
            with fault_context("k", attempt):
                with pytest.raises(InjectedFault):
                    fault_point("scenario.pre")
        with fault_context("k", 3):
            fault_point("scenario.pre")  # past the transient window

    def test_probability_draws_are_deterministic(self):
        plan = FaultPlan(
            rules=(FaultRule(site="scenario.pre", probability=0.5),), seed=11
        )

        def firing_keys():
            fired = []
            for i in range(32):
                if list(plan.matching_rules("scenario.pre", f"key-{i}", 1)):
                    fired.append(i)
            return fired

        first = firing_keys()
        assert first == firing_keys()
        assert 0 < len(first) < 32  # thinned, not all-or-nothing

    def test_different_seeds_differ(self):
        def fired(seed):
            plan = FaultPlan(
                rules=(FaultRule(site="scenario.pre", probability=0.5),), seed=seed
            )
            return [
                i
                for i in range(64)
                if list(plan.matching_rules("scenario.pre", f"key-{i}", 1))
            ]

        assert fired(1) != fired(2)

    def test_delay_rule_sleeps_then_falls_through(self):
        install_fault_plan(
            FaultPlan(
                rules=(
                    FaultRule(site="scenario.pre", kind="delay", delay=0.05),
                    FaultRule(site="scenario.pre"),
                )
            )
        )
        start = time.monotonic()
        with pytest.raises(InjectedFault):
            fault_point("scenario.pre")
        assert time.monotonic() - start >= 0.05


def _child_hits(site, plan_json):
    clear_fault_plan()
    install_fault_plan(FaultPlan.from_json(plan_json))
    fault_point(site)


class TestProcessKillingKinds:
    @pytest.mark.parametrize(
        "kind,expected",
        [("crash", CRASH_EXIT_CODE), ("sigkill", -int(signal.SIGKILL))],
    )
    def test_kind_kills_child_with_expected_code(self, kind, expected):
        plan = FaultPlan(rules=(FaultRule(site="scenario.pre", kind=kind),))
        ctx = multiprocessing.get_context("fork")
        child = ctx.Process(target=_child_hits, args=("scenario.pre", plan.to_json()))
        child.start()
        child.join(timeout=30)
        assert child.exitcode == expected
