"""API smoke tests for the HTTP sweep service (:mod:`repro.service`).

The service runs in a background thread on an ephemeral port; requests
go through real sockets via :mod:`urllib` so the hand-rolled HTTP
layer is exercised end to end (routing, JSON errors, chunked NDJSON
streaming).
"""

import asyncio
import dataclasses
import json
import os
import socket
import threading
import time
import urllib.error
import urllib.request
from urllib.parse import urlsplit

import pytest

from repro.acquisition import bench
from repro.cli import OPTION_FLAGS, _sweep_options, build_parser, default_sweep_spec
from repro.service import JOB_DONE, SweepService, job_id_for, start_service
from repro.service import app as service_app
from repro.service import httpd
from repro.service import jobs as service_jobs
from repro.sweeps import (
    FaultPlan,
    FaultRule,
    GridAxis,
    RandomAxis,
    SweepOptions,
    SweepSpec,
    SweepStore,
    clear_fault_plan,
    expand_scenarios,
    run,
)
from repro.sweeps.faultinject import FAULT_PLAN_ENV
from tests.test_sweeps import (
    DUPLICATE_DRAWS,
    ILL_TYPED,
    OUT_OF_DOMAIN,
    QUICK,
    count_expansions,
    quick_spec,
    store_digests,
)


class Client:
    """A minimal JSON/NDJSON client against one service instance."""

    def __init__(self, base_url):
        self.base_url = base_url

    def get(self, path):
        return self._request("GET", path)

    def post(self, path, payload=None):
        body = json.dumps({} if payload is None else payload).encode()
        return self._request("POST", path, body)

    def post_text(self, path, text):
        """POST a body verbatim, for numbers ``json.dumps`` cannot write."""
        return self._request("POST", path, text.encode())

    def _request(self, method, path, body=None):
        request = urllib.request.Request(
            self.base_url + path,
            data=body,
            method=method,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=60) as response:
                return response.status, json.loads(response.read())
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read())

    def stream(self, path):
        """All NDJSON lines of a streaming endpoint, parsed."""
        with urllib.request.urlopen(self.base_url + path, timeout=120) as r:
            assert r.headers["Content-Type"].startswith("application/x-ndjson")
            return [json.loads(line) for line in r]

    def wait(self, job_id, timeout=120.0):
        """Poll until the job leaves the running state."""
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            _, description = self.get(f"/sweeps/{job_id}")
            if description["state"] != "running":
                return description
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} still running after {timeout}s")


@pytest.fixture()
def service(tmp_path):
    instance = SweepService(str(tmp_path / "store"))
    handle = start_service(instance)
    yield instance, Client(handle.base_url)
    handle.stop()


def submission(spec, **options):
    return {"spec": spec.to_json_dict(), "options": options}


class TestHealthAndErrors:
    def test_health(self, service):
        instance, client = service
        status, payload = client.get("/health")
        assert status == 200
        assert payload["status"] == "ok"
        assert payload["store"] == instance.store_root
        assert payload["spec_schema_version"] >= 1
        assert payload["jobs"] == {"total": 0, "running": 0}

    def test_unknown_path_is_404(self, service):
        _, client = service
        status, payload = client.get("/nope")
        assert status == 404 and "error" in payload

    def test_wrong_method_is_405(self, service):
        _, client = service
        status, payload = client.post("/health")
        assert status == 405 and "GET" in payload["error"]

    def test_unknown_job_is_404(self, service):
        _, client = service
        status, payload = client.get("/sweeps/deadbeefdeadbeef")
        assert status == 404 and "deadbeefdeadbeef" in payload["error"]

    def test_malformed_body_is_400(self, service):
        _, client = service
        request = urllib.request.Request(
            client.base_url + "/sweeps", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        excinfo.value.close()
        assert excinfo.value.code == 400

    def test_invalid_spec_names_offending_path(self, service):
        _, client = service
        payload = quick_spec().to_json_dict()
        payload["grid"][0]["field"] = "bogus"
        status, body = client.post("/sweeps", {"spec": payload})
        assert status == 400
        assert "spec.grid[0].field" in body["error"]

    def test_version_1_spec_is_400(self, service):
        instance, client = service
        payload = quick_spec().to_json_dict()
        payload["schema_version"] = 1
        status, body = client.post("/sweeps", {"spec": payload})
        assert status == 400
        assert body["error"].startswith("spec.schema_version: ")
        assert "version 2" in body["error"]
        assert instance.jobs.jobs() == []

    def test_ill_typed_spec_values_are_400(self, service):
        # Refused at the POST, naming the field, instead of burning
        # every retry of the scenario until it is quarantined.
        instance, client = service
        for field, value in ILL_TYPED:
            payload = quick_spec().to_json_dict()
            payload["base"][field] = value
            status, body = client.post("/sweeps", {"spec": payload})
            assert status == 400
            assert body["error"].startswith(f"spec.base.{field}: ")
        assert instance.jobs.jobs() == []

    def test_out_of_domain_spec_values_are_400(self, service):
        # Expansion builds every scenario's config, so a value the config
        # rejects is refused at the POST, naming the scenario, and the
        # instance stays healthy.
        instance, client = service
        for bad, message in OUT_OF_DOMAIN:
            spec = SweepSpec(name="domain", base={**QUICK, **bad})
            status, body = client.post("/sweeps", submission(spec))
            assert status == 400
            assert body["error"].startswith("spec.base: scenario {}: ")
            assert message in body["error"]
        grid = SweepSpec(
            name="n1",
            grid=(GridAxis("parameters.n1", (32, 2)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n1"},
        )
        status, body = client.post("/sweeps", submission(grid))
        assert (status, body["error"]) == (
            400,
            'spec.$: scenario {"parameters.n1":2}: '
            "expression (1) violated: n1 = 2 < k = 4",
        )
        duplicates = SweepSpec(name="dup", **DUPLICATE_DRAWS)
        status, body = client.post("/sweeps", submission(duplicates))
        assert status == 400
        assert body["error"].startswith("spec.$: sweep expands to duplicate")
        assert instance.jobs.jobs() == []
        status, payload = client.get("/health")
        assert status == 200 and payload["jobs"]["total"] == 0

    def test_unknown_option_rejected(self, service):
        _, client = service
        status, body = client.post(
            "/sweeps", submission(quick_spec(), turbo=True)
        )
        assert status == 400
        assert "options.turbo" in body["error"]

    @pytest.mark.parametrize(
        "n_workers", [2.7, True, "3", None, 0, -1, 1_000_000]
    )
    def test_invalid_worker_count_rejected(self, service, n_workers):
        # Only a JSON integer from 1 to max(default, usable CPUs): no
        # silent truncation, and no worker per scenario from one POST.
        instance, client = service
        status, body = client.post(
            "/sweeps", submission(quick_spec(), n_workers=n_workers)
        )
        assert status == 400
        assert "options.n_workers" in body["error"]
        assert instance.jobs.jobs() == []

    @pytest.mark.parametrize(
        "option, constant",
        [
            ("max_retries", "Infinity"),
            ("lease_ttl", "NaN"),
            ("lease_ttl", "Infinity"),
            ("scenario_timeout", "NaN"),
            ("scenario_timeout", "-Infinity"),
        ],
    )
    def test_non_json_constants_rejected(self, service, option, constant):
        # Python's parser takes NaN and +-Infinity, which JSON does not
        # have; an infinite options.max_retries used to be a 500.
        instance, client = service
        status, body = client.post(
            "/sweeps", submission(quick_spec(), **{option: float(constant)})
        )
        assert status == 400
        assert "not valid JSON" in body["error"]
        assert instance.jobs.jobs() == []

    @pytest.mark.parametrize("max_retries", [True, 2.7, "3", 1e9, -1, None])
    def test_invalid_max_retries_rejected(self, service, max_retries):
        # Only a JSON integer >= 0: no bool, float or string coercion.
        instance, client = service
        status, body = client.post(
            "/sweeps", submission(quick_spec(), max_retries=max_retries)
        )
        assert status == 400
        assert "options.max_retries" in body["error"]
        assert instance.jobs.jobs() == []

    @pytest.mark.parametrize(
        "option, text",
        [
            pytest.param(option, text, id=f"{option}={text[:8]}")
            for option in ("lease_ttl", "scenario_timeout")
            for text in ("true", '"30"', "0", "-1.5", "[1]", "1e400", "1" + "0" * 400)
        ]
        + [("lease_ttl", "null")],
    )
    def test_invalid_seconds_rejected(self, service, option, text):
        # A finite JSON number > 0 (scenario_timeout may also be null):
        # 1e400 parses as an infinite float, a 401-digit integer
        # overflows float().
        instance, client = service
        payload = json.dumps(submission(quick_spec(), **{option: "VALUE"}))
        status, body = client.post_text("/sweeps", payload.replace('"VALUE"', text))
        assert status == 400
        assert f"options.{option}" in body["error"]
        assert instance.jobs.jobs() == []

    def test_valid_options_applied(self, service):
        instance, _ = service
        options = instance._merge_options(
            {"max_retries": 0, "lease_ttl": 5, "scenario_timeout": None}
        )
        assert options.max_retries == 0
        assert options.lease_ttl == 5.0
        assert options.scenario_timeout is None
        options = instance._merge_options({"scenario_timeout": 2.5})
        assert options.scenario_timeout == 2.5


class TestScenarioBudget:
    def test_over_budget_spec_is_400_naming_the_field(self, service, monkeypatch):
        # Expansion runs on the event loop: an over-budget spec must be
        # refused before it, and the instance must keep answering.
        monkeypatch.setattr(service_app, "MAX_JOB_SCENARIOS", 4)
        instance, client = service
        grid = quick_spec(sigmas=(0.5, 1.0, 1.5), attacks=("none", "strip"))
        drawn = SweepSpec(
            name="drawn",
            random=(RandomAxis("noise.sigma", 0.5, 2.0),),
            n_random=6,
            base=dict(QUICK),
        )
        for spec, field in ((grid, "spec.grid"), (drawn, "spec.n_random")):
            status, body = client.post("/sweeps", submission(spec))
            assert status == 400
            assert body["error"].startswith(f"{field}: ")
            assert "6 scenarios" in body["error"]
        assert instance.jobs.jobs() == []
        assert client.get("/health")[0] == 200
        status, accepted = client.post("/sweeps", submission(quick_spec()))
        assert status == 202
        assert client.wait(accepted["job_id"])["state"] == JOB_DONE

    def test_unbounded_spec_is_refused_at_once(self, service):
        assert service_app.MAX_JOB_SCENARIOS == 10_000
        instance, client = service
        spec = SweepSpec(
            name="huge",
            random=(RandomAxis("noise.sigma", 0.5, 2.0),),
            n_random=10**12,
            base=dict(QUICK),
        )
        start = time.monotonic()
        status, body = client.post("/sweeps", submission(spec))
        assert time.monotonic() - start < 1.0
        assert status == 400 and body["error"].startswith("spec.n_random: ")
        assert instance.jobs.jobs() == []

    def test_costly_scenario_is_400_naming_the_ceiling(self, service):
        instance, client = service
        specs = {
            "spec.base.parameters.n2": SweepSpec(
                name="base", base={**QUICK, "parameters.n2": 10**9}
            ),
            "spec.grid[1].values": SweepSpec(
                name="grid",
                grid=(
                    GridAxis("noise.sigma", (0.5,)),
                    GridAxis("parameters.n2", (64, 10**9)),
                ),
                base=dict(QUICK),
            ),
            "spec.random[0]": SweepSpec(
                name="random",
                random=(RandomAxis("parameters.n1", 32, 10**9, integer=True),),
                n_random=2,
                base=dict(QUICK),
            ),
        }
        for field, spec in specs.items():
            status, body = client.post("/sweeps", submission(spec))
            assert status == 400
            assert body["error"].startswith(f"{field}: a scenario would acquire ")
        assert instance.jobs.jobs() == []

    def test_paper_campaign_and_default_sweep_are_within_the_bound(self):
        paper, path = service_app._costliest_scenario(SweepSpec(name="paper"))
        assert paper == 4 * (400 + 10_000) * 1024 * 8
        assert paper < service_app.MAX_SCENARIO_TRACE_BYTES and path is None
        default, path = service_app._costliest_scenario(default_sweep_spec())
        assert default < paper and path == "spec.grid[1].values"
        # A ceiling that is no number never reaches the costing: the
        # spec rejects it.
        with pytest.raises(TypeError, match="parameters.n2"):
            SweepSpec(name="typo", base={"parameters.n2": "many"})


class TestOptionSurfaces:
    """The CLI flags, the service's ``options`` and :class:`SweepOptions`
    name the same settings."""

    FIELDS = {f.name for f in dataclasses.fields(SweepOptions)} - {"artifacts"}

    def test_serve_flags_map_one_to_one_onto_the_fields(self):
        assert set(OPTION_FLAGS) == self.FIELDS
        pinned = ["serve", "--workers", "1"]
        default = _sweep_options(build_parser().parse_args(pinned))
        for field, flag in OPTION_FLAGS.items():
            options = _sweep_options(build_parser().parse_args(pinned + [flag, "7"]))
            changed = {
                name
                for name in self.FIELDS
                if getattr(options, name) != getattr(default, name)
            }
            assert changed == {field}, flag
            assert getattr(options, field) == 7

    def test_service_options_are_the_fields_but_status_interval(
        self, service, monkeypatch
    ):
        monkeypatch.setattr(bench, "usable_cpus", lambda: 8)
        instance, client = service
        accepted = self.FIELDS - {"status_interval"}
        for name in accepted:
            assert getattr(instance._merge_options({name: 7}), name) == 7
        status, body = client.post(
            "/sweeps", submission(quick_spec(), status_interval=7)
        )
        assert status == 400
        listed = body["error"].partition("(accepted: ")[2].rstrip(")")
        assert set(listed.split(", ")) == accepted

    def test_every_lease_setting_selects_the_scheduler(self):
        assert not SweepOptions().lease_scheduled
        for changes in (
            {"n_workers": 2},
            {"lease_ttl": 30.0},
            {"scenario_timeout": 60.0},
            {"status_interval": 5.0},
        ):
            assert SweepOptions(**changes).lease_scheduled, changes


def raw_reply(client, data):
    """Send ``data`` on a fresh connection; every byte of the reply."""
    url = urlsplit(client.base_url)
    with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
        sock.sendall(data)
        reply = b""
        while True:
            chunk = sock.recv(4096)
            if not chunk:
                return reply
            reply += chunk


class TestReadDeadline:
    @pytest.mark.parametrize(
        "partial",
        [
            b"GET /health HTTP/1.1\r\nHost: loc",
            b"POST /sweeps HTTP/1.1\r\nContent-Length: 10\r\n\r\n{}",
            b"",
        ],
        ids=["mid-headers", "mid-body", "idle"],
    )
    def test_stalled_request_is_answered_408(self, service, monkeypatch, partial):
        _, client = service
        monkeypatch.setattr(httpd, "REQUEST_READ_SECONDS", 0.5)
        reply = raw_reply(client, partial)
        assert reply.startswith(b"HTTP/1.1 408 Request Timeout\r\n")
        # A client that sends its request in time is still served.
        status, payload = client.get("/health")
        assert status == 200 and payload["status"] == "ok"

    def test_deadline_bounds_the_whole_request(self, service, monkeypatch):
        # Header lines trickling in well inside the deadline each do
        # not restart it: the request as a whole is overdue at 0.5 s.
        _, client = service
        monkeypatch.setattr(httpd, "REQUEST_READ_SECONDS", 0.5)
        url = urlsplit(client.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.settimeout(0.1)
            sock.sendall(b"GET /health HTTP/1.1\r\n")
            started = time.monotonic()
            reply = b""
            for index in range(50):
                try:
                    reply = sock.recv(4096)
                    break
                except socket.timeout:
                    sock.sendall(f"X-Trickle-{index}: 1\r\n".encode())
            elapsed = time.monotonic() - started
        assert reply.startswith(b"HTTP/1.1 408 ")
        assert elapsed < 2.5

    def test_slow_handler_is_not_bounded(self, service, monkeypatch):
        # The deadline covers reading the request, not answering it.
        instance, client = service
        monkeypatch.setattr(httpd, "REQUEST_READ_SECONDS", 0.2)

        async def slow(request):
            await asyncio.sleep(0.6)
            return 200, {"slept": 0.6}

        instance.router.add("GET", "/slow", slow)
        assert client.get("/slow") == (200, {"slept": 0.6})

    def test_stream_is_not_bounded(self, service, monkeypatch):
        # NDJSON streams (the rows endpoint) outlive the deadline.
        instance, client = service
        monkeypatch.setattr(httpd, "REQUEST_READ_SECONDS", 0.2)

        async def ticks(request):
            for tick in range(3):
                await asyncio.sleep(0.3)
                yield {"tick": tick}

        instance.router.add("GET", "/ticks", ticks, stream=True)
        assert client.stream("/ticks") == [{"tick": 0}, {"tick": 1}, {"tick": 2}]


def _too_many_headers():
    lines = b"".join(b"X-N: 1\r\n" for _ in range(httpd.MAX_HEADERS + 1))
    return b"GET /health HTTP/1.1\r\n" + lines + b"\r\n"


#: A line one byte over the stream limit, with no line end: the server
#: rejects it only once it holds every byte sent, so it answers and
#: closes with nothing left unread.
_OVER_LIMIT = b"a" * (httpd.MAX_LINE_BYTES + 1)
_TOO_LARGE = httpd.MAX_BODY_BYTES + 1


class TestRequestLimits:
    @pytest.mark.parametrize(
        "request_bytes, status, error",
        [
            (b"GET /health\r\n\r\n", 400, "malformed request line"),
            (b"GET /health HTTP/1.1\r\nHost\r\n\r\n", 400, "malformed header"),
            (_too_many_headers(), 400, "too many headers"),
            (
                b"POST /sweeps HTTP/1.1\r\nContent-Length: ten\r\n\r\n",
                400,
                "malformed Content-Length",
            ),
            (
                b"POST /sweeps HTTP/1.1\r\nContent-Length: -1\r\n\r\n",
                400,
                "malformed Content-Length",
            ),
            (
                b"POST /sweeps HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % _TOO_LARGE,
                413,
                "exceeds",
            ),
            (_OVER_LIMIT, 400, "request line too long"),
            (b"GET /health HTTP/1.1\r\n" + _OVER_LIMIT, 400, "header line too long"),
        ],
        ids=[
            "no-version",
            "header-without-colon",
            "too-many-headers",
            "length-not-a-number",
            "negative-length",
            "body-too-large",
            "request-line-too-long",
            "header-line-too-long",
        ],
    )
    def test_bad_request_is_answered(self, service, request_bytes, status, error):
        _, client = service
        reply = raw_reply(client, request_bytes)
        head, _, body = reply.partition(b"\r\n\r\n")
        assert head.split(b" ", 2)[1] == str(status).encode()
        assert error in json.loads(body)["error"]
        # The server outlives the bad request.
        assert client.get("/health")[0] == 200

    def test_closed_connection_gets_no_reply(self, service):
        _, client = service
        url = urlsplit(client.base_url)
        with socket.create_connection((url.hostname, url.port), timeout=5) as sock:
            sock.shutdown(socket.SHUT_WR)
            assert sock.recv(4096) == b""
        assert client.get("/health")[0] == 200


class TestSubmitPollRows:
    def test_submit_poll_rows_byte_identical_to_direct_run(
        self, service, tmp_path
    ):
        instance, client = service
        spec = quick_spec(
            name="svc", sigmas=(0.5, 1.0), attacks=("none", "strip")
        )
        status, accepted = client.post(
            "/sweeps", submission(spec, n_workers=2)
        )
        assert status == 202 and accepted["created"]
        assert accepted["job_id"] == job_id_for(spec)
        assert accepted["n_scenarios"] == 4

        rows = client.stream(f"/sweeps/{accepted['job_id']}/rows")
        kinds = [row["kind"] for row in rows]
        assert kinds[-1] == "end" and rows[-1]["state"] == JOB_DONE
        accuracy = [row for row in rows if row["kind"] == "accuracy"]
        assert {row["scenario_id"] for row in accuracy} == set(
            s.scenario_id for s in expand_scenarios(spec)
        )
        assert any(row["kind"] == "roc" for row in rows)
        # The default stream axis is the spec's first grid axis.
        assert all(
            row["axis"] == "noise.sigma"
            for row in rows
            if row["kind"] == "roc"
        )

        description = client.wait(accepted["job_id"])
        assert description["state"] == JOB_DONE
        snapshot = description["status"]
        assert snapshot["completed"] == 4 and snapshot["pending"] == 0
        assert description["report"]["executed"] == 4

        # The tentpole acceptance: the store the service produced is
        # byte-identical to the same spec run directly in process.
        direct = SweepStore(str(tmp_path / "direct"))
        run(spec, direct, SweepOptions(n_workers=2))
        assert store_digests(instance.store_root) == store_digests(
            direct.root
        )

    def test_a_submission_expands_its_spec_once(self, service, tmp_path, monkeypatch):
        instance, client = service
        calls = count_expansions(monkeypatch)
        spec = quick_spec(name="once", attacks=("none", "strip"))
        status, accepted = client.post("/sweeps", submission(spec))
        assert status == 202
        assert client.wait(accepted["job_id"])["state"] == JOB_DONE
        assert calls == ["once"]
        direct = SweepStore(str(tmp_path / "direct"))
        run(spec, direct)
        assert store_digests(instance.store_root) == store_digests(direct.root)

    def test_resubmission_of_finished_spec_completes_from_cache(
        self, service
    ):
        _, client = service
        spec = quick_spec(name="twice")
        _, first = client.post("/sweeps", submission(spec))
        done = client.wait(first["job_id"])
        assert done["report"]["executed"] == len(expand_scenarios(spec))

        status, again = client.post("/sweeps", submission(spec))
        assert status == 202 and again["created"]
        assert again["job_id"] == first["job_id"]
        done = client.wait(again["job_id"])
        assert done["report"]["executed"] == 0
        assert done["report"]["cached"] == len(expand_scenarios(spec))

    def test_rows_axis_query_parameter(self, service):
        _, client = service
        spec = quick_spec(name="axis", attacks=("none", "strip"))
        _, accepted = client.post("/sweeps", submission(spec))
        rows = client.stream(f"/sweeps/{accepted['job_id']}/rows?axis=attack")
        roc = [row for row in rows if row["kind"] == "roc"]
        assert roc and all(row["axis"] == "attack" for row in roc)
        assert {row["attack"] for row in roc} == {"none", "strip"}


class TestRowStreamWakeUp:
    def test_stream_wakes_on_progress_not_on_the_poll(self, service, monkeypatch):
        # The poll interval is only the fallback for records another
        # instance publishes; this job's own progress wakes the stream,
        # once per scenario and once when the job ends.
        monkeypatch.setattr(service_app, "ROWS_POLL_INTERVAL", 30.0)
        _, client = service
        spec = quick_spec(name="wake")
        first, second = (s.scenario_id for s in expand_scenarios(spec))
        stall = FaultRule(site="scenario.pre", kind="delay", delay=2.0, key=second)
        monkeypatch.setenv(FAULT_PLAN_ENV, FaultPlan(rules=(stall,)).to_json())
        clear_fault_plan()
        try:
            _, accepted = client.post("/sweeps", submission(spec))
            start = time.monotonic()
            url = f"{client.base_url}/sweeps/{accepted['job_id']}/rows"
            with urllib.request.urlopen(url, timeout=120) as response:
                arrivals = [(time.monotonic(), json.loads(line)) for line in response]
        finally:
            clear_fault_plan()
        assert arrivals[-1][0] - start < 15.0
        first_row_at = min(
            at for at, row in arrivals if row.get("scenario_id") == first
        )
        assert arrivals[-1][0] - first_row_at > 1.0  # before the stalled sibling
        rows = [row for _, row in arrivals]
        accuracy = [row for row in rows if row["kind"] == "accuracy"]
        assert {row["scenario_id"] for row in accuracy} == {
            s.scenario_id for s in expand_scenarios(spec)
        }
        assert rows[-1] == {
            "kind": "end",
            "state": JOB_DONE,
            "completed": 2,
            "total": 2,
        }

    def test_waiter_on_a_closed_loop_is_dropped(self, tmp_path):
        spec = quick_spec(name="closed")
        job = service_jobs.SweepJob(
            job_id_for(spec), spec, SweepOptions(), str(tmp_path)
        )

        async def subscribe():
            return job.subscribe()

        asyncio.run(subscribe())  # the loop closes with the waiter
        job._notify()  # must not raise into the caller
        assert job._waiters == {}


class TestIdempotencyAndScrub:
    def test_duplicate_submission_joins_running_job(
        self, service, monkeypatch
    ):
        """While a job runs, resubmitting its spec joins it (no second
        execution) — and scrub refuses to race a live writer."""
        instance, client = service
        release = threading.Event()
        started = threading.Event()
        calls = []

        def blocking_run(spec, scenarios, store, options=None, progress=None):
            calls.append(spec.name)
            started.set()
            assert release.wait(timeout=60)
            from repro.sweeps.executor import SweepReport

            return SweepReport(
                spec_name=spec.name,
                store_root=store.root,
                scenario_ids=[s.scenario_id for s in scenarios],
            )

        monkeypatch.setattr(service_jobs, "_run_expanded", blocking_run)
        spec = quick_spec(name="held")
        status, first = client.post("/sweeps", submission(spec))
        assert status == 202 and first["created"]
        assert started.wait(timeout=30)

        status, joined = client.post("/sweeps", submission(spec))
        assert status == 200 and not joined["created"]
        assert joined["job_id"] == first["job_id"]

        status, refused = client.post("/admin/scrub")
        assert status == 409 and "running" in refused["error"]

        release.set()
        client.wait(first["job_id"])
        assert calls == ["held"]  # exactly one execution

    def test_scrub_removes_crash_residue(self, service, tmp_path):
        instance, client = service
        store = SweepStore(instance.store_root)
        with open(f"{store.root}/.tmp-crashed", "w") as handle:
            handle.write("partial write")
        with open(f"{store.root}/0123456789abcdef01234567.npz", "wb") as handle:
            handle.write(b"orphaned bundle")
        status, payload = client.post("/admin/scrub")
        assert status == 200
        assert payload["removed"] == 2

    def test_scrub_of_a_fresh_root_leaves_no_lease_dir(self, service):
        instance, client = service
        status, payload = client.post("/admin/scrub")
        assert status == 200 and payload == {"removed": 0, "paths": []}
        assert os.listdir(instance.store_root) == []


class TestQuarantineSurfaced:
    def test_failed_scenario_reported_in_status_and_poll(
        self, service, fail_scenario
    ):
        # The second scenario fails in every attempt, so it can never
        # succeed; the sibling completes and the job lands in the
        # quarantined state.
        _, client = service
        spec = SweepSpec(
            name="q",
            grid=(GridAxis("parameters.n1", (32, 40)),),
            base={k: v for k, v in QUICK.items() if k != "parameters.n1"},
        )
        bad = expand_scenarios(spec)[1].scenario_id
        fail_scenario(bad)
        _, accepted = client.post(
            "/sweeps", submission(spec, max_retries=0, n_workers=2)
        )
        description = client.wait(accepted["job_id"])
        assert description["state"] == "quarantined"
        assert description["report"]["failed_ids"] == [bad]
        assert description["status"]["quarantined"] == 1
        assert description["status"]["completed"] == 1
        detail = description["quarantined"]
        assert len(detail) == 1 and detail[0]["scenario_id"] == bad
        assert detail[0]["type"] and detail[0]["attempts"] == 1


class TestJobHistory:
    def test_oldest_finished_job_is_forgotten(self, service, monkeypatch):
        monkeypatch.setattr(service_jobs, "MAX_FINISHED_JOBS", 2)
        _, client = service
        job_ids = []
        for name in ("first", "second", "third"):
            spec = quick_spec(name=name, sigmas=(0.5,))
            status, accepted = client.post("/sweeps", submission(spec))
            assert status == 202
            assert client.wait(accepted["job_id"])["state"] == JOB_DONE
            job_ids.append(accepted["job_id"])
        _, listed = client.get("/sweeps")
        assert [job["job_id"] for job in listed["jobs"]] == job_ids[1:]
        status, body = client.get(f"/sweeps/{job_ids[0]}")
        assert status == 404 and "resubmit the spec" in body["error"]

    def test_running_jobs_are_kept(self, service, monkeypatch):
        monkeypatch.setattr(service_jobs, "MAX_FINISHED_JOBS", 1)
        release = threading.Event()

        def held_run(spec, scenarios, store, options=None, progress=None):
            assert release.wait(timeout=60)
            return service_jobs.SweepReport(spec.name, store.root, [])

        monkeypatch.setattr(service_jobs, "_run_expanded", held_run)
        _, client = service
        names = ("first", "second", "third")
        job_ids = [
            client.post("/sweeps", submission(quick_spec(name=name)))[1]["job_id"]
            for name in names
        ]
        try:
            _, listed = client.get("/sweeps")
            assert [job["job_id"] for job in listed["jobs"]] == job_ids
        finally:
            release.set()
        for job_id in job_ids:
            client.wait(job_id)


class TestJobIdentity:
    def test_job_id_is_content_addressed(self):
        spec = quick_spec(name="a")
        assert job_id_for(spec) == job_id_for(quick_spec(name="a"))
        assert job_id_for(spec) != job_id_for(quick_spec(name="b"))
        assert job_id_for(spec) != job_id_for(quick_spec(name="a", seed=6))


class TestMultiInstance:
    def test_two_instances_share_one_store_root(self, tmp_path):
        """Submitting one spec to two service instances over a common
        store root converges on one byte-identical result set, with
        every scenario executed exactly once across the pair."""
        root = str(tmp_path / "shared")
        first = start_service(SweepService(root))
        second = start_service(SweepService(root))
        try:
            clients = [Client(first.base_url), Client(second.base_url)]
            spec = quick_spec(
                name="fleet", sigmas=(0.5, 1.0), attacks=("none", "strip")
            )
            accepted = [
                client.post("/sweeps", submission(spec, n_workers=2))[1]
                for client in clients
            ]
            descriptions = [
                client.wait(job["job_id"])
                for client, job in zip(clients, accepted)
            ]
            assert all(d["state"] == JOB_DONE for d in descriptions)
            total_executed = sum(
                d["report"]["executed"] for d in descriptions
            )
            assert total_executed == len(expand_scenarios(spec))

            direct = SweepStore(str(tmp_path / "direct"))
            run(spec, direct, SweepOptions())
            assert store_digests(root) == store_digests(direct.root)
        finally:
            first.stop()
            second.stop()
