"""The repository benchmark: four workloads, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_campaign --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the workload untraced for ``--seconds`` and
reports the end-to-end metrics of ``BENCHMARK.json``.  ``--trace 1``
alternates untraced operations with operations whose layers are
wrapped in spans (see ``tracing.py``), and reports the per-layer
metrics, each as a mean per traced operation, plus the tracing
overhead.  Both modes check every operation's outputs.  The human-readable summary comes
first; the last line of standard output is the JSON result.

The benchmark builds the program from ``src/`` of the checkout it sits
in; without it, the run fails before printing a result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-ups per run: at least ``SETUP_MIN`` and, while they take less
#: than ``SETUP_SECONDS`` in all, up to ``SETUP_MAX``.  ``setup_s`` is
#: their median; the last one stays.
SETUP_MIN, SETUP_MAX, SETUP_SECONDS = 3, 50, 3.0

#: Operations a run measures at least, however long they take.
MIN_OPS = 3


def measure(workload, seconds: float, min_ops: int, tracer=None):
    """Run operations back to back for ``seconds``; ``{index: OpResult}``.

    With a ``tracer``, every odd-numbered operation runs traced, so the
    untraced operations it is compared with ran through the same phases
    of the machine's speed.
    """
    from workloads import OpResult

    results = {}
    index = 0
    deadline = time.perf_counter() + seconds
    while len(results) < min_ops or time.perf_counter() < deadline:
        # Garbage left by the previous operation is not this one's cost.
        gc.collect()
        traced = tracer is not None and index % 2 == 1
        if traced:
            tracer.op = str(index)
            tracer.install()
        start = time.perf_counter()
        try:
            results[index] = workload.run(index)
        except Exception as error:  # noqa: BLE001 — counted as a failed op
            results[index] = OpResult(time.perf_counter() - start, False, repr(error))
        finally:
            if traced:
                tracer.uninstall()
                tracer.op = None
        index += 1
    return results


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child, in MB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def layer_metrics(tracer, child_rows, traced, untraced):
    """Per-layer metrics, each a mean per traced operation."""
    from tracing import span_times

    ops = [str(index) for index in traced]
    n_ops = len(ops)
    inclusive, own = span_times(tracer.spans)

    def spans(table, name):
        return sum(table.get((op, name), 0.0) for op in ops) / n_ops

    def counted(name):
        return sum(tracer.counters.get((op, name), 0.0) for op in ops) / n_ops

    def observed(name):
        return sum(result.extra.get(name, 0.0) for result in traced.values()) / n_ops

    usage = [row for row in tracer.row_usage() + child_rows if row[0] in ops]
    rows_acquired = sum(row[1] for row in usage)
    rows_read = sum(row[2] for row in usage)
    reference_s = sum(
        inclusive.get((f"reference:{index}", "sweeps.scenario"), 0.0)
        for index in traced
    ) / n_ops
    attempt_s = observed("sweeps.scheduler.attempt_s")
    traced_s = [result.seconds for result in traced.values()]
    untraced_s = [result.seconds for result in untraced.values()]
    return {
        "hdl.verilog_parse.s": spans(inclusive, "hdl.verilog_parse"),
        "hdl.verilog_parse.calls": counted("hdl.verilog_parse.calls"),
        "hdl.simulate.s": spans(inclusive, "hdl.simulate"),
        "hdl.simulate.calls": counted("hdl.simulate.calls"),
        "experiments.fleet_build.self_s": spans(own, "experiments.fleet_build"),
        "power.noise.s": spans(inclusive, "power.noise"),
        "power.noise.rows": counted("power.noise.rows"),
        "acquisition.acquire.s": spans(inclusive, "acquisition.acquire"),
        "acquisition.acquire.self_s": spans(own, "acquisition.acquire"),
        "acquisition.traces": counted("acquisition.traces"),
        "acquisition.rows_used_ratio": rows_read / max(rows_acquired, 1),
        "core.averaging.s": spans(inclusive, "core.averaging"),
        "core.averaging.calls": counted("core.averaging.calls"),
        "core.correlation.s": spans(inclusive, "core.correlation"),
        "core.distinguishers.s": spans(inclusive, "core.distinguishers"),
        "artifacts.trace_hits": observed("artifacts.trace_hits"),
        "artifacts.trace_misses": observed("artifacts.trace_misses"),
        "artifacts.outcome_hits": observed("artifacts.outcome_hits"),
        "artifacts.peak_bytes": max(
            result.extra.get("artifacts.peak_bytes", 0) for result in traced.values()
        ),
        "sweeps.store.put.s": spans(inclusive, "sweeps.store.put"),
        "sweeps.store.put.calls": counted("sweeps.store.put.calls"),
        "sweeps.store.bytes": counted("sweeps.store.bytes"),
        "sweeps.scheduler.attempts": observed("sweeps.scheduler.attempts"),
        "sweeps.scheduler.retries": observed("sweeps.scheduler.retries"),
        "sweeps.scheduler.attempt_s": attempt_s,
        "sweeps.scheduler.overhead_s": attempt_s - reference_s if attempt_s else 0.0,
        "service.first_row_s": observed("service.first_row_s"),
        "service.submit_s": observed("service.submit_s"),
        "service.poll_s": observed("service.poll_s"),
        "service.resubmit_s": observed("service.resubmit_s"),
        "service.rows_bytes": observed("service.rows_bytes"),
        "service.non_2xx": observed("service.non_2xx"),
        "trace.op_s": sum(traced_s) / n_ops,
        "trace.overhead_s": (
            statistics.median(traced_s) - statistics.median(untraced_s)
        ),
    }


def shape_checks(workload_name: str, metrics) -> list:
    """The attribution each workload is expected to show when traced."""
    if workload_name == "paper_campaign":
        quantise = metrics["acquisition.acquire.self_s"]
        share = (metrics["power.noise.s"] + quantise) / metrics["trace.op_s"]
        text = f"noise + quantise = {share:.0%} of campaign wall (>= 80%)"
        return [(text, share >= 0.8)]
    if workload_name == "imported_campaign":
        calls = metrics["hdl.verilog_parse.calls"]
        return [(f"{calls:g} Verilog parses per campaign (= 8)", calls == 8)]
    if workload_name == "analysis_grid":
        layers = ("averaging", "correlation", "distinguishers")
        core = sum(metrics[f"core.{layer}.s"] for layer in layers)
        acquire = metrics["acquisition.acquire.s"]
        text = f"core.* {core:.3f} s > acquisition {acquire:.3f} s per sweep"
        return [(text, core > acquire)]
    if workload_name == "service_sweep":
        attempts = metrics["sweeps.scheduler.attempts"]
        return [(f"{attempts:g} scheduler attempts per sweep (= 24)", attempts == 24)]
    return []


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    os.chdir(ROOT)
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no program under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    definition = json.loads((ROOT / "BENCHMARK.json").read_text())
    import numpy

    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: {sorted(WORKLOADS)}")

    os.makedirs(ROOT / ".perfbench_work", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=ROOT / ".perfbench_work")
    tempfile.tempdir = workdir
    workload = WORKLOADS[args.workload](args.seed, workdir)
    try:
        setups = []
        while len(setups) < SETUP_MIN or (
            sum(setups) < SETUP_SECONDS and len(setups) < SETUP_MAX
        ):
            start = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - start)
        if args.trace:
            tracer = Tracer(tempfile.mkdtemp(prefix="spans-", dir=workdir))
            results = measure(workload, args.seconds, 2, tracer)
            traced = {i: r for i, r in results.items() if i % 2 == 1}
            untraced = {i: r for i, r in results.items() if i % 2 == 0}
            tracer.install()
            try:
                problems = workload.verify_traced(tracer, list(traced))
            finally:
                tracer.uninstall()
            for index, problem in problems.items():
                traced[index].ok = False
                traced[index].detail = problem
            child_rows = tracer.collect_children()
            metrics = layer_metrics(tracer, child_rows, traced, untraced)
            listed = definition["per_layer"]
        else:
            results = measure(workload, args.seconds, MIN_OPS)
            metrics = {
                "setup_s": statistics.median(setups),
                "op_min_s": min(r.seconds for r in results.values()),
                "peak_rss_mb": peak_rss_mb(),
            }
            listed = definition["end_to_end"]
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    mismatch = set(metrics) ^ {entry["name"] for entry in listed}
    if mismatch:
        raise SystemExit(f"metrics differ from BENCHMARK.json: {sorted(mismatch)}")
    failed = [index for index, result in results.items() if not result.ok]

    print(
        f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
        f"nproc {os.cpu_count()}  python {sys.version.split()[0]}  "
        f"numpy {numpy.__version__}"
    )
    setup_s = statistics.median(setups)
    print(f"  setup_s          {setup_s:.4f} s (median of {len(setups)})")
    if args.trace:
        print(f"  traced ops {len(traced)}, untraced ops {len(untraced)}")
        for entry in listed:
            name = entry["name"]
            print(f"  {name:<32} {metrics[name]:.6g} {entry['unit']}")
        for text, ok in shape_checks(args.workload, metrics):
            print(f"  shape check: {text}: {'ok' if ok else 'NOT MET'}")
    else:
        times = [r.seconds for r in results.values()]
        fastest = metrics["op_min_s"]
        print(f"  op_min_s         {fastest:.4f} s (fastest of {len(times)})")
        print(
            f"  {workload.op_label:<16} {statistics.median(times):.4f} s "
            f"(median of {len(times)}, max {max(times):.4f})"
        )
        first_rows = [
            r.extra["service.first_row_s"]
            for r in results.values()
            if "service.first_row_s" in r.extra
        ]
        if first_rows:
            first_row_s = statistics.median(first_rows)
            n_rows = len(first_rows)
            print(f"  first_row_s      {first_row_s:.4f} s (median of {n_rows})")
        print(f"  peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB")
    error_rate = len(failed) / len(results)
    print(f"  error_rate       {error_rate:.3f} ({len(failed)}/{len(results)})")
    for index in failed[:5]:
        print(f"  op {index} failed: {results[index].detail}")

    print(
        json.dumps(
            {
                "correct": not failed,
                "attempted": len(results),
                "failed": len(failed),
                "metrics": {
                    entry["name"]: {
                        "value": metrics[entry["name"]],
                        "unit": entry["unit"],
                    }
                    for entry in listed
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
