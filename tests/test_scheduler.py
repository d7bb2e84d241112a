"""Tests for lease-based scheduling, retry/quarantine, store hygiene,
and the byte-identity invariant under injected faults."""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

import repro
from repro.sweeps import (
    FailureLog,
    FaultPlan,
    FaultRule,
    GridAxis,
    LeaseManager,
    SweepOptions,
    SweepSpec,
    SweepStore,
    clear_fault_plan,
    expand_scenarios,
    install_fault_plan,
    run,
)
from repro.sweeps import executor, scheduler
from repro.sweeps.scheduler import _pool_context
from repro.sweeps.faultinject import FAULT_PLAN_ENV

from tests.test_sweeps import QUICK, store_digests

#: A lease TTL: lease-scheduled even with one worker.
LEASED = SweepOptions(lease_ttl=10.0)
#: Two slots on the lease scheduler.
TWO_LEASED = SweepOptions(n_workers=2, lease_ttl=10.0)


@pytest.fixture(autouse=True)
def _pristine_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    clear_fault_plan()
    yield
    clear_fault_plan()


@pytest.fixture()
def fast_retries(monkeypatch):
    """No backoff sleeps and quick supervision passes: recovery tests
    already pay for child processes."""
    monkeypatch.setattr(scheduler, "BACKOFF_BASE", 0.0)
    monkeypatch.setattr(scheduler, "POLL_INTERVAL", 0.01)


def spec_of(sigmas, name="sched", seed=5):
    return SweepSpec(
        name=name,
        grid=(GridAxis("noise.sigma", tuple(sigmas)),),
        base=dict(QUICK),
        seed=seed,
    )


@pytest.fixture()
def worker_starts(monkeypatch):
    """Every attempt worker process the scheduler starts, in order."""
    ctx = _pool_context()
    started = []
    real = ctx.Process

    def counting(*args, **kwargs):
        process = real(*args, **kwargs)
        started.append(process)
        return process

    monkeypatch.setattr(ctx, "Process", counting)
    return started


@pytest.fixture()
def attempt_pids(monkeypatch, tmp_path):
    """``{scenario id: [pid of each attempt that ran the campaign]}``.

    Forked workers inherit the recording wrapper around the attempt
    body's ``run_scenario``.
    """
    log_path = tmp_path / "attempt-pids.txt"
    real = executor.run_scenario

    def recording(scenario, **kwargs):
        with open(log_path, "a") as handle:
            handle.write(f"{scenario.scenario_id} {os.getpid()}\n")
        return real(scenario, **kwargs)

    monkeypatch.setattr(executor, "run_scenario", recording)

    def read():
        pids = {}
        for line in log_path.read_text().splitlines():
            scenario_id, pid = line.split()
            pids.setdefault(scenario_id, []).append(int(pid))
        return pids

    return read


def set_env_plan(monkeypatch, *rules, seed=0):
    """Activate a plan for this process *and* forked attempt children."""
    plan = FaultPlan(rules=tuple(rules), seed=seed)
    monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
    clear_fault_plan()
    return plan


class TestBackoff:
    def test_schedule_doubles_from_a_tenth_and_caps_at_five_seconds(
        self, tmp_path
    ):
        log = FailureLog(str(tmp_path))
        scenario = expand_scenarios(spec_of((0.5,)))[0]
        error = {"type": "Boom", "message": "m", "traceback": ""}
        delays = [
            log.record_failure(scenario, error, n, n, 10, "o") for n in range(1, 10)
        ]
        assert delays == pytest.approx([0.1, 0.2, 0.4, 0.8, 1.6, 3.2, 5.0, 5.0, 5.0])


class TestLeaseManager:
    def test_acquire_is_exclusive_until_released(self, tmp_path):
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        b = LeaseManager(str(tmp_path), ttl=30.0, owner="b")
        assert a.acquire("x")
        assert not b.acquire("x")
        a.release("x")
        assert b.acquire("x")

    def test_stale_lease_is_stolen(self, tmp_path):
        dead = LeaseManager(str(tmp_path), ttl=0.05, owner="dead")
        live = LeaseManager(str(tmp_path), ttl=30.0, owner="live")
        assert dead.acquire("x")
        time.sleep(0.1)
        assert live.acquire("x")
        assert live.read("x")["owner"] == "live"

    def test_heartbeat_requires_ownership(self, tmp_path):
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        b = LeaseManager(str(tmp_path), ttl=30.0, owner="b")
        assert a.acquire("x")
        assert a.heartbeat("x")
        assert not b.heartbeat("x")
        assert not a.heartbeat("never-leased")

    def test_heartbeat_keeps_lease_fresh(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        mgr.acquire("x")
        before = mgr.read("x")["heartbeat"]
        time.sleep(0.02)
        mgr.heartbeat("x")
        assert mgr.read("x")["heartbeat"] > before

    def test_claim_being_written_is_not_stolen(self, tmp_path, monkeypatch):
        # A rival claiming while the first claim's payload is written
        # must not see a torn lease and steal it: exactly one wins.
        a = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        b = LeaseManager(str(tmp_path), ttl=30.0, owner="b")
        rival = []
        dump = json.dump

        def rival_claims_first(*args, **kwargs):
            if not rival:
                rival.append(None)
                rival[0] = b.acquire("x")
            dump(*args, **kwargs)

        monkeypatch.setattr(json, "dump", rival_claims_first)
        won = a.acquire("x")
        assert [won, rival[0]].count(True) == 1

    def test_corrupt_lease_treated_as_stale(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        os.makedirs(mgr.dir)
        with open(mgr.path("x"), "w") as handle:
            handle.write("{torn")
        assert mgr.acquire("x")

    def test_only_a_claim_makes_the_lease_dir(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl=30.0, owner="a")
        assert mgr.read("x") is None
        assert mgr.scrub() == []
        assert os.listdir(tmp_path) == []
        assert mgr.acquire("x")
        assert os.listdir(tmp_path) == [".leases"]

    def test_scrub_removes_expired_and_scratch(self, tmp_path):
        mgr = LeaseManager(str(tmp_path), ttl=0.05, owner="a")
        mgr.acquire("expired")
        with open(mgr.path("x") + ".stale-dead", "w") as handle:
            handle.write("{}")
        time.sleep(0.1)
        fresh = LeaseManager(str(tmp_path), ttl=30.0, owner="b")
        fresh.acquire("held")
        removed = fresh.scrub()
        assert len(removed) == 2
        assert fresh.read("held") is not None
        assert fresh.read("expired") is None


class TestFailureLog:
    def test_attempt_numbers_are_persistent(self, tmp_path):
        log = FailureLog(str(tmp_path))
        assert log.record_attempt("x", "owner-1") == 1
        assert log.record_attempt("x", "owner-1") == 2
        # A fresh instance (new process / new run) continues the count.
        assert FailureLog(str(tmp_path)).record_attempt("x", "owner-2") == 3
        owners = [entry["owner"] for entry in log.history("x")]
        assert owners == ["owner-1", "owner-1", "owner-2"]

    def test_record_error_attaches_to_latest(self, tmp_path):
        log = FailureLog(str(tmp_path))
        log.record_attempt("x", "o")
        log.record_attempt("x", "o")
        log.record_error("x", {"type": "Boom", "message": "m", "traceback": ""})
        history = log.history("x")
        assert history[0]["error"] is None
        assert history[1]["error"]["type"] == "Boom"

    def test_record_failure_backs_off_then_quarantines(self, tmp_path, monkeypatch):
        # One retry: the second failure quarantines.  The backoff is
        # read when the failure is recorded.
        monkeypatch.setattr(scheduler, "BACKOFF_BASE", 0.25)
        log = FailureLog(str(tmp_path))
        scenario = expand_scenarios(spec_of((0.5,)))[0]
        error = {"type": "Boom", "message": "m", "traceback": ""}
        attempt = log.record_attempt(scenario.scenario_id, "o")
        delay = log.record_failure(scenario, error, attempt, 1, 1, "o")
        assert delay == pytest.approx(0.25)
        assert log.quarantined_ids() == []
        attempt = log.record_attempt(scenario.scenario_id, "o")
        assert log.record_failure(scenario, error, attempt, 2, 1, "o") is None
        assert log.load_quarantine(scenario.scenario_id)["attempts"] == 2
        history = log.history(scenario.scenario_id)
        assert [entry["error"]["type"] for entry in history] == ["Boom", "Boom"]

    def test_quarantine_round_trip_and_clear(self, tmp_path):
        log = FailureLog(str(tmp_path))
        scenario = expand_scenarios(spec_of((0.5,)))[0]
        log.quarantine(
            scenario,
            {"type": "Boom", "message": "m", "traceback": "tb"},
            attempts=3,
            owner="o",
        )
        assert log.quarantined_ids() == [scenario.scenario_id]
        record = log.load_quarantine(scenario.scenario_id)
        assert record["attempts"] == 3
        assert record["error"]["type"] == "Boom"
        assert record["overrides"] == dict(scenario.overrides)
        log.clear_quarantine(scenario.scenario_id)
        assert log.quarantined_ids() == []

    def test_scrub_drops_scratch_and_satisfied_quarantines(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        log = FailureLog(store.root)
        scenario = expand_scenarios(spec_of((0.5,)))[0]
        log.record_attempt(scenario.scenario_id, "o")
        # Error scratch an older scheduler left beside the history.
        residue = os.path.join(log.attempts_dir, f"{scenario.scenario_id}.err-1.json")
        with open(residue, "w") as f:
            f.write("{}")
        log.quarantine(scenario, {"type": "Boom"}, attempts=1, owner="o")
        store.put(scenario.scenario_id, {"ok": True})  # later success
        removed = log.scrub(store)
        assert len(removed) == 2
        assert residue in removed and not os.path.exists(residue)
        assert log.quarantined_ids() == []
        assert log.history(scenario.scenario_id)  # history is kept


class TestStoreScrub:
    def test_removes_tmp_and_orphaned_bundles_only(self, tmp_path):
        store = SweepStore(str(tmp_path / "store"))
        store.put("done", {"v": 1}, {"x": np.ones(2)})
        with open(os.path.join(store.root, ".tmp-stale"), "w") as f:
            f.write("junk")
        with open(store.arrays_path("orphan"), "wb") as f:
            f.write(b"junk")
        removed = store.scrub()
        assert sorted(os.path.basename(p) for p in removed) == [
            ".tmp-stale",
            "orphan.npz",
        ]
        assert store.ids() == ["done"]
        assert os.path.exists(store.arrays_path("done"))

    def test_crash_between_bundle_and_record_is_recoverable(self, tmp_path):
        # A fault at the commit point leaves an orphaned bundle; scrub
        # removes it and a re-put converges to the clean bytes.
        clean = SweepStore(str(tmp_path / "clean"))
        clean.put("abc", {"v": 1}, {"x": np.arange(3.0)})
        store = SweepStore(str(tmp_path / "store"))
        install_fault_plan(
            FaultPlan(rules=(FaultRule(site="store.put_record"),))
        )
        with pytest.raises(Exception, match="injected"):
            store.put("abc", {"v": 1}, {"x": np.arange(3.0)})
        assert not store.has("abc")  # bundle orphaned, record absent
        clear_fault_plan()
        store.scrub()
        store.put("abc", {"v": 1}, {"x": np.arange(3.0)})
        assert store_digests(store.root) == store_digests(clean.root)


@pytest.mark.usefixtures("fast_retries")
class TestExecutorFaultTolerance:
    def test_transient_fault_retried_byte_identically(self, tmp_path):
        spec = spec_of((0.5, 1.0))
        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)

        victim = expand_scenarios(spec)[0].scenario_id
        install_fault_plan(
            FaultPlan(
                rules=(
                    FaultRule(site="scenario.pre", key=victim, max_attempt=2),
                )
            )
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store)
        assert report.failed_ids == []
        assert report.retried_ids == [victim]
        assert store_digests(store.root) == store_digests(clean.root)

    def test_commit_point_fault_retried_byte_identically(self, tmp_path):
        spec = spec_of((0.5,))
        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)

        install_fault_plan(
            FaultPlan(
                rules=(FaultRule(site="store.put_record", max_attempt=1),)
            )
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store)
        assert report.failed_ids == []
        assert store_digests(store.root) == store_digests(clean.root)

    def test_quarantined_scenario_reattempted_on_resume(self, tmp_path):
        spec = spec_of((0.5, 1.0))
        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)

        victim = expand_scenarios(spec)[0].scenario_id
        install_fault_plan(
            FaultPlan(rules=(FaultRule(site="scenario.pre", key=victim),))
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store, SweepOptions(max_retries=1))
        assert report.failed_ids == [victim]
        assert len(store) == 1  # the sibling completed
        assert FailureLog(store.root).load_quarantine(victim)["attempts"] == 2

        clear_fault_plan()  # the cause is gone; resume converges
        resumed = run(spec, store)
        assert resumed.executed_ids == [victim]
        assert resumed.n_cached == 1
        assert FailureLog(store.root).load_quarantine(victim) is None
        assert store_digests(store.root) == store_digests(clean.root)


@pytest.mark.usefixtures("fast_retries")
class TestScheduledSweep:
    def test_clean_run_matches_plain_executor(self, tmp_path):
        spec = spec_of((0.5, 1.0))
        serial = SweepStore(str(tmp_path / "serial"))
        run(spec, serial)
        scheduled = SweepStore(str(tmp_path / "sched"))
        report = run(spec, scheduled, TWO_LEASED)
        assert report.n_executed == 2
        assert report.failed_ids == [] and report.retried_ids == []
        assert store_digests(scheduled.root) == store_digests(serial.root)
        assert os.listdir(os.path.join(scheduled.root, ".leases")) == []

    def test_sigkilled_worker_recovered_byte_identically(
        self, tmp_path, monkeypatch
    ):
        spec = spec_of((0.5, 1.0))
        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)

        # Every scenario's first attempt dies by SIGKILL mid-scenario.
        set_env_plan(
            monkeypatch,
            FaultRule(site="scenario.pre", kind="sigkill", max_attempt=1),
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store, TWO_LEASED)
        assert report.failed_ids == []
        assert sorted(report.retried_ids) == sorted(report.scenario_ids)
        assert store_digests(store.root) == store_digests(clean.root)
        for scenario_id in report.scenario_ids:
            history = FailureLog(store.root).history(scenario_id)
            assert history[0]["error"]["type"] == "WorkerCrash"
            assert len(history) == 2

    def test_crash_then_rerun_converges(self, tmp_path, monkeypatch):
        # Budget of 1: the crash quarantines the scenario.  The rerun
        # (same plan still active!) sees persistent attempt 2, so the
        # rule no longer fires and the store converges byte-identically.
        spec = spec_of((0.5,))
        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)
        scenario_id = expand_scenarios(spec)[0].scenario_id

        set_env_plan(
            monkeypatch,
            FaultRule(site="scenario.post", kind="crash", max_attempt=1),
        )
        store = SweepStore(str(tmp_path / "store"))
        options = SweepOptions(max_retries=0, lease_ttl=10.0)
        first = run(spec, store, options)
        assert first.failed_ids == [scenario_id]
        assert not store.has(scenario_id)

        second = run(spec, store, options)
        assert second.executed_ids == [scenario_id]
        assert FailureLog(store.root).load_quarantine(scenario_id) is None
        assert store_digests(store.root) == store_digests(clean.root)

    def test_timeout_kills_and_retries(self, tmp_path, monkeypatch):
        spec = spec_of((0.5,))
        scenario_id = expand_scenarios(spec)[0].scenario_id
        set_env_plan(
            monkeypatch,
            FaultRule(
                site="scenario.pre", kind="delay", delay=60.0, max_attempt=1
            ),
        )
        store = SweepStore(str(tmp_path / "store"))
        options = SweepOptions(max_retries=1, lease_ttl=10.0, scenario_timeout=0.5)
        report = run(spec, store, options)
        assert report.executed_ids == [scenario_id]
        assert report.retried_ids == [scenario_id]
        history = FailureLog(store.root).history(scenario_id)
        assert history[0]["error"]["type"] == "ScenarioTimeout"

    def test_heartbeat_every_quarter_ttl(self, tmp_path, monkeypatch):
        # A 1.2 s attempt under a 0.8 s lease: the scheduler refreshes
        # the lease every 0.2 s, never sooner.
        beats = []
        heartbeat = LeaseManager.heartbeat

        def recording(self, scenario_id):
            beats.append(time.monotonic())
            return heartbeat(self, scenario_id)

        monkeypatch.setattr(LeaseManager, "heartbeat", recording)
        set_env_plan(
            monkeypatch, FaultRule(site="scenario.pre", kind="delay", delay=1.2)
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec_of((0.5,)), store, SweepOptions(lease_ttl=0.8))
        assert report.n_executed == 1
        gaps = np.diff(beats)
        assert len(gaps) >= 3
        assert gaps.min() >= 0.19
        assert np.median(gaps) < 0.3  # not a TTL/2 period

    def test_expired_lease_is_reclaimed(self, tmp_path):
        spec = spec_of((0.5,))
        scenario_id = expand_scenarios(spec)[0].scenario_id
        store = SweepStore(str(tmp_path / "store"))
        # A dead worker's lease, long expired.
        dead = LeaseManager(store.root, ttl=0.05, owner="dead-worker")
        assert dead.acquire(scenario_id)
        time.sleep(0.1)
        report = run(spec, store, LEASED)
        assert report.executed_ids == [scenario_id]
        assert store.has(scenario_id)

    def test_live_lease_is_respected(self, tmp_path):
        # A fresh lease held by someone else: the scheduler must wait,
        # then treat the externally-published result as cached.
        spec = spec_of((0.5,))
        scenario = expand_scenarios(spec)[0]
        store = SweepStore(str(tmp_path / "store"))
        other = LeaseManager(store.root, ttl=30.0, owner="other")
        assert other.acquire(scenario.scenario_id)

        def finish_externally():
            time.sleep(0.2)
            from repro.sweeps.scenario import run_scenario

            result = run_scenario(scenario)
            store.put(scenario.scenario_id, result["record"], result["arrays"])
            other.release(scenario.scenario_id)

        thread = threading.Thread(target=finish_externally)
        thread.start()
        report = run(spec, store, LEASED)
        thread.join()
        assert report.cached_ids == [scenario.scenario_id]
        assert report.executed_ids == []
        # The waiting scheduler never attempted it.
        assert FailureLog(store.root).history(scenario.scenario_id) == []

    def test_result_published_before_our_claim_is_cached(self, tmp_path, monkeypatch):
        # A rival publishes the result and releases its lease just
        # before our claim succeeds: the claim must not execute it again.
        spec = spec_of((0.5,))
        scenario = expand_scenarios(spec)[0]
        store = SweepStore(str(tmp_path / "store"))
        claim = LeaseManager.acquire

        def rival_finishes_first(self, scenario_id):
            if not store.has(scenario_id):
                from repro.sweeps.scenario import run_scenario

                result = run_scenario(scenario)
                store.put(scenario_id, result["record"], result["arrays"])
            return claim(self, scenario_id)

        monkeypatch.setattr(LeaseManager, "acquire", rival_finishes_first)
        report = run(spec, store, LEASED)
        assert report.cached_ids == [scenario.scenario_id]
        assert report.executed_ids == []
        assert FailureLog(store.root).history(scenario.scenario_id) == []
        assert os.listdir(os.path.join(store.root, ".leases")) == []

    def test_concurrent_schedulers_execute_each_digest_once(self, tmp_path):
        spec = spec_of((0.4, 0.8, 1.2, 1.6))
        store = SweepStore(str(tmp_path / "store"))
        reports = [None, None]

        def go(i):
            reports[i] = run(spec, store, TWO_LEASED)

        threads = [
            threading.Thread(target=go, args=(i,)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        log = FailureLog(store.root)
        for scenario in expand_scenarios(spec):
            assert len(log.history(scenario.scenario_id)) == 1
        executed = reports[0].executed_ids + reports[1].executed_ids
        assert sorted(executed) == sorted(reports[0].scenario_ids)

        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)
        assert store_digests(store.root) == store_digests(clean.root)


@pytest.mark.usefixtures("fast_retries")
class TestChaosInvariant:
    def test_mixed_fault_soup_converges(self, tmp_path, monkeypatch):
        """The acceptance scenario: seeded exceptions, a SIGKILL'd
        worker and an expired lease together still yield a store
        byte-identical to a clean 1-worker run."""
        spec = spec_of((0.5, 1.0, 1.5))
        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)

        scenarios = expand_scenarios(spec)
        set_env_plan(
            monkeypatch,
            FaultRule(
                site="scenario.pre",
                kind="sigkill",
                key=scenarios[0].scenario_id,
                max_attempt=1,
            ),
            FaultRule(site="scenario.post", probability=0.5, max_attempt=1),
            FaultRule(site="store.put_record", probability=0.5, max_attempt=2),
            seed=13,
        )
        store = SweepStore(str(tmp_path / "store"))
        # One scenario already carries an expired foreign lease.
        dead = LeaseManager(store.root, ttl=0.05, owner="dead-worker")
        assert dead.acquire(scenarios[1].scenario_id)
        time.sleep(0.1)

        options = SweepOptions(n_workers=2, max_retries=4, lease_ttl=10.0)
        report = run(spec, store, options)
        assert report.failed_ids == []
        assert sorted(report.executed_ids) == sorted(report.scenario_ids)
        assert store_digests(store.root) == store_digests(clean.root)


#: A scheduler with two slots over eight quick scenarios; its workers
#: record their pids in ``argv[1]`` as they start attempts.
ORPHAN_SCRIPT = """
import json, os, sys
from repro.sweeps import GridAxis, SweepOptions, SweepSpec, SweepStore, run
from repro.sweeps import executor, scheduler

pid_dir, store_root, base = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
real = executor.run_scenario

def recording(scenario, **kwargs):
    open(os.path.join(pid_dir, str(os.getpid())), "w").close()
    return real(scenario, **kwargs)

executor.run_scenario = recording
spec = SweepSpec(
    name="orphans",
    grid=(GridAxis("noise.sigma", tuple(0.25 * i for i in range(1, 9))),),
    base=base,
)
scheduler.POLL_INTERVAL = 0.01
run(spec, SweepStore(store_root), SweepOptions(n_workers=2, lease_ttl=10.0))
"""


#: A multi-worker sweep with no lease setting over the spec in
#: ``argv[1]``, with ``argv[3]`` retries and no backoff; prints its
#: report's failed and retried ids.
MULTI_WORKER_SCRIPT = """
import json, sys
from repro.sweeps import SweepOptions, SweepSpec, SweepStore, run, scheduler

scheduler.BACKOFF_BASE = 0.0
spec = SweepSpec.from_json_dict(json.loads(sys.argv[1]))
options = SweepOptions(n_workers=2, max_retries=int(sys.argv[3]))
report = run(spec, SweepStore(sys.argv[2]), options)
print(json.dumps({"failed": report.failed_ids, "retried": report.retried_ids}))
"""


def script_env(**extra):
    """This environment with ``repro`` importable and no fault plan."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop(FAULT_PLAN_ENV, None)
    env.update(extra)
    return env


def process_alive(pid):
    """True while ``pid`` runs; a zombie nobody reaped counts as dead."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except FileNotFoundError:
        return False


@pytest.mark.usefixtures("fast_retries")
class TestPersistentWorkers:
    def test_fault_free_sweep_reuses_one_worker_per_slot(
        self, tmp_path, worker_starts, attempt_pids
    ):
        spec = spec_of((0.4, 0.8, 1.2, 1.6))
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store, LEASED)
        assert report.n_executed == 4
        assert len(worker_starts) == 1
        pids = attempt_pids()
        assert len(pids) == 4
        assert {pid for runs in pids.values() for pid in runs} == {worker_starts[0].pid}
        assert not worker_starts[0].is_alive()

        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)
        assert store_digests(store.root) == store_digests(clean.root)

    def test_each_sigkill_costs_one_respawn(self, tmp_path, monkeypatch, worker_starts):
        spec = spec_of((0.5, 1.0))
        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)

        set_env_plan(
            monkeypatch,
            FaultRule(site="scenario.pre", kind="sigkill", max_attempt=1),
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store, TWO_LEASED)
        assert report.failed_ids == []
        log = FailureLog(store.root)
        killed = sum(
            1
            for scenario_id in report.scenario_ids
            for entry in log.history(scenario_id)
            if (entry["error"] or {}).get("type") == "WorkerCrash"
        )
        assert killed == len(report.scenario_ids)
        assert len(worker_starts) == 2 + killed
        assert store_digests(store.root) == store_digests(clean.root)

    def test_handled_failure_retires_its_worker(
        self, tmp_path, monkeypatch, worker_starts, attempt_pids
    ):
        spec = spec_of((0.5, 1.0))
        victim, sibling = (s.scenario_id for s in expand_scenarios(spec))
        set_env_plan(
            monkeypatch,
            FaultRule(site="scenario.post", key=victim, max_attempt=1),
        )
        store = SweepStore(str(tmp_path / "store"))
        report = run(spec, store, LEASED)
        assert report.retried_ids == [victim] and report.failed_ids == []
        history = FailureLog(store.root).history(victim)
        assert history[0]["error"]["type"] == "InjectedFault"
        pids = attempt_pids()
        first, retry = pids[victim]
        assert first != retry  # the retry runs in a fresh process
        assert pids[sibling] == [retry]  # reused after its success
        assert len(worker_starts) == 2

    def test_timeout_costs_exactly_one_respawn(
        self, tmp_path, monkeypatch, worker_starts
    ):
        spec = spec_of((0.5, 1.0))
        victim = expand_scenarios(spec)[0].scenario_id
        set_env_plan(
            monkeypatch,
            FaultRule(
                site="scenario.pre",
                kind="delay",
                delay=60.0,
                key=victim,
                max_attempt=1,
            ),
        )
        store = SweepStore(str(tmp_path / "store"))
        options = SweepOptions(lease_ttl=10.0, scenario_timeout=2.0)
        report = run(spec, store, options)
        assert report.n_executed == 2 and report.retried_ids == [victim]
        history = FailureLog(store.root).history(victim)
        assert history[0]["error"]["type"] == "ScenarioTimeout"
        assert len(worker_starts) == 2
        assert not any(process.is_alive() for process in worker_starts)

    def test_raising_progress_stops_workers_and_releases_leases(self, tmp_path):
        spec = spec_of((0.4, 0.8, 1.2, 1.6))
        store = SweepStore(str(tmp_path / "store"))

        def progress(scenario_id, executed):
            raise RuntimeError("progress consumer failed")

        with pytest.raises(RuntimeError, match="progress consumer"):
            run(
                spec,
                store,
                TWO_LEASED,
                progress=progress,
            )
        assert multiprocessing.active_children() == []
        assert os.listdir(os.path.join(store.root, ".leases")) == []

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self"), reason="reads process state from /proc"
    )
    def test_killed_scheduler_leaves_no_live_worker(self, tmp_path):
        pid_dir = tmp_path / "pids"
        pid_dir.mkdir()
        scheduler = subprocess.Popen(
            [
                sys.executable,
                "-c",
                ORPHAN_SCRIPT,
                str(pid_dir),
                str(tmp_path / "store"),
                json.dumps(QUICK),
            ],
            env=script_env(),
        )
        try:
            deadline = time.monotonic() + 60.0
            while len(os.listdir(pid_dir)) < 2:
                assert scheduler.poll() is None, "sweep ended before the kill"
                assert time.monotonic() < deadline, "workers never started"
                time.sleep(0.01)
        finally:
            scheduler.send_signal(signal.SIGKILL)
            scheduler.wait(timeout=30)
        workers = [int(pid) for pid in os.listdir(pid_dir)]
        deadline = time.monotonic() + 5.0
        while any(map(process_alive, workers)) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert not any(map(process_alive, workers))


class TestDefaultMultiWorkerSweep:
    def test_worker_crash_is_retried_not_waited_for(self, tmp_path):
        # Several workers and no lease setting: every first attempt
        # kills its worker after the campaign, before the publish.  The
        # sweep runs in a child with a deadline, so a sweep that waits
        # forever on a dead worker fails here instead of hanging.
        spec = spec_of((0.5, 1.0))
        clean = SweepStore(str(tmp_path / "clean"))
        run(spec, clean)

        plan = FaultPlan(
            rules=(FaultRule(site="scenario.post", kind="crash", max_attempt=1),)
        )
        store = SweepStore(str(tmp_path / "store"))
        sweep = subprocess.Popen(
            [
                sys.executable,
                "-c",
                MULTI_WORKER_SCRIPT,
                json.dumps(spec.to_json_dict()),
                store.root,
                "2",
            ],
            env=script_env(**{FAULT_PLAN_ENV: plan.to_json()}),
            stdout=subprocess.PIPE,
            start_new_session=True,
        )
        try:
            out, _ = sweep.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(sweep.pid, signal.SIGKILL)
            sweep.communicate(timeout=30)
            pytest.fail("the sweep hung on a crashed worker")
        assert sweep.returncode == 0
        report = json.loads(out.decode().splitlines()[-1])
        scenario_ids = sorted(s.scenario_id for s in expand_scenarios(spec))
        assert report == {"failed": [], "retried": scenario_ids}
        log = FailureLog(store.root)
        for scenario_id in scenario_ids:
            errors = [entry["error"] for entry in log.history(scenario_id)]
            assert [(error or {}).get("type") for error in errors] == [
                "WorkerCrash",
                None,
            ]
        assert store_digests(store.root) == store_digests(clean.root)
