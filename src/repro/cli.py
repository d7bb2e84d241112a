"""Command-line interface: regenerate the paper's tables and figures.

Usage::

    repro-watermark tables          # Tables I and II, paper vs measured
    repro-watermark figure4         # ASCII Fig. 4 panels
    repro-watermark figure5         # ASCII Fig. 5 curve
    repro-watermark campaign        # verdict matrix + accuracies
    repro-watermark plan --alpha 10 --k 50   # parameter planning
    repro-watermark collisions      # exhaustive key-collision census
    repro-watermark keysearch       # CPA template attack on Kw
    repro-watermark sweep           # scenario sweep (noise x budget x attack)

All subcommands accept ``--seed`` (measurement seed) and ``--engine``
(pin the netlist-simulation path: auto / compiled / interpreted).

``sweep`` runs a declarative scenario grid through the multiprocess
sweep runner (:mod:`repro.sweeps`) into a content-addressed result
store: interrupted or repeated invocations only execute scenarios
whose results are not on disk yet.  Axes are ``field=v1,v2,...``
pairs over campaign-config paths (``noise.sigma``, ``parameters.n2``,
``adc.bits``, ``watermarked``, ``attack``, ...); values are parsed as
JSON (``true``, not ``True``) and must have their field's type
(:data:`repro.sweeps.CONFIG_FIELDS`), or the sweep exits with an
error naming the field.  Without ``--axis`` a default 24-scenario
surface (noise x trace budget x attack) is swept at a reduced, fast
parameter point.
Without ``--workers`` it gets one attempt slot per usable CPU.  Every
sweep reuses manufactured fleets and acquired trace matrices across
scenarios whose config tiers agree (byte-identical results, much
faster analysis-axis grids); each process keeps one measurement group's
traces in memory, and scenarios of one group run back to back,
largest trace ceiling first.  A sweep writes nothing outside its store
root.

Sweeps degrade gracefully instead of aborting: failures retry with
backoff (``--max-retries``, default 2 re-attempts) and scenarios that
exhaust their budget are quarantined under ``<store>/failed/`` while
the rest of the sweep completes (the command then exits 1 and lists
them).  ``--scenario-timeout`` / ``--lease-ttl`` switch to lease-based
scheduling: each attempt runs in an isolated worker process killed on
timeout, and several sweep invocations may safely share one store root
— leases keep them off each other's work and a dead worker's
scenarios are re-leased after the TTL.  ``--scrub`` clears crash
residue (orphaned temp files and bundles, expired leases) before
running.

``sweep`` and ``serve`` turn their execution flags
(:data:`OPTION_FLAGS`) into one :class:`~repro.sweeps.api.SweepOptions`
through one helper, which validates them all and exits with an error
naming the bad flag.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.core.parameters import plan_parameters
from repro.core.report import render_verdicts
from repro.experiments.designs import resolve_imported_design
from repro.experiments.figure4 import figure4_panels, render_figure4
from repro.experiments.figure5 import figure5_data, render_figure5
from repro.experiments.runner import CampaignConfig, run_campaign
from repro.experiments.tables import (
    render_paper_table1,
    render_paper_table2,
    render_table1,
    render_table2,
)
from repro.hdl.simulator import ENGINES
from repro.hdl.verilog_parse import VerilogParseError


def _campaign_config(args: argparse.Namespace) -> CampaignConfig:
    """The campaign of the global flags; a bad one exits with an error."""
    if args.design != "paper":
        try:
            resolve_imported_design(args.design)
        except (OSError, ValueError) as error:
            raise SystemExit(f"error: --design: {error}")
    try:
        return CampaignConfig(
            measurement_seed=args.seed,
            analysis_seed=args.seed + 1,
            engine=args.engine,
            design=args.design,
        )
    except ValueError as error:
        raise SystemExit(
            f"error: --seed {args.seed}: {error} (analysis_seed is --seed + 1)"
        )


def _cmd_tables(args: argparse.Namespace) -> int:
    outcome = run_campaign(_campaign_config(args))
    print("=== Table I (means of the correlation sets) — measured ===")
    print(render_table1(outcome))
    print()
    print("=== Table I — paper ===")
    print(render_paper_table1())
    print()
    print("=== Table II (variances of the correlation sets) — measured ===")
    print(render_table2(outcome))
    print()
    print("=== Table II — paper ===")
    print(render_paper_table2())
    return 0


def _cmd_figure4(args: argparse.Namespace) -> int:
    panels = figure4_panels(_campaign_config(args))
    print(render_figure4(panels))
    return 0


def _cmd_figure5(args: argparse.Namespace) -> int:
    data = figure5_data(alpha=args.alpha)
    print(render_figure5(data))
    print(
        f"P(zeta) at m = 20: {data.p_zeta_at_paper_m:.6f} "
        "(paper: 0.0045)"
    )
    return 0


def _cmd_campaign(args: argparse.Namespace) -> int:
    outcome = run_campaign(_campaign_config(args))
    for ref, report in outcome.reports.items():
        print(render_verdicts(report))
        print()
    print(f"higher-mean accuracy:    {outcome.accuracy('higher-mean'):.2f}")
    print(f"lower-variance accuracy: {outcome.accuracy('lower-variance'):.2f}")
    return 0


def _cmd_plan(args: argparse.Namespace) -> int:
    plan = plan_parameters(k=args.k, alpha=args.alpha, rel_tol=args.tolerance)
    p = plan.parameters
    print(f"alpha = {plan.alpha:g}")
    print(f"P(zeta) limit    = {plan.p_zeta_limit:.6f}")
    print(f"chosen m         = {p.m}  (P(zeta) = {plan.p_zeta:.6f})")
    print(f"chosen k         = {p.k}")
    print(f"n1 (RefD traces) = {p.n1}")
    print(f"n2 (DUT traces)  = {p.n2}")
    return 0


def _cmd_collisions(args: argparse.Namespace) -> int:
    from repro.analysis.collisions import collision_summary

    summary = collision_summary(list(range(256)))
    print("Exhaustive cross-key switching-correlation census (binary FSM):")
    print(f"  key pairs: {summary.n_pairs}")
    print(f"  mean rho:  {summary.mean:+.4f} (std {summary.std:.4f})")
    print(f"  range:     [{summary.minimum:+.3f}, {summary.maximum:+.3f}]")
    a, b = summary.worst_pair
    print(
        f"  worst pair: 0x{a:02X}/0x{b:02X} "
        f"(Hamming distance {bin(a ^ b).count('1')})"
    )
    return 0


def _cmd_keysearch(args: argparse.Namespace) -> int:
    from repro.acquisition.bench import acquire_traces
    from repro.acquisition.device import Device
    from repro.attacks.forgery import template_key_search
    from repro.experiments.designs import KW1, build_paper_ip
    from repro.power.models import PowerModel

    device = Device("DUT", build_paper_ip("IP_A"), PowerModel(), default_cycles=256)
    traces = acquire_traces(device, args.traces, rng=args.seed)
    result = template_key_search(
        traces,
        list(range(256)),
        KW1,
        samples_per_cycle=4,
        n_average=args.traces,
    )
    print(f"256-template CPA against Kw = 0x{KW1:02X}:")
    print(f"  recovered: {result.succeeded}")
    print(f"  rank of true key: {result.rank_of_true_key()}")
    print(f"  margin over runner-up: {result.margin:.3f}")
    return 0


#: Default sweep surface: noise x DUT trace budget x attack, at a
#: reduced (fast) parameter point — 4 x 3 x 2 = 24 scenarios.
DEFAULT_SWEEP_AXES: "Dict[str, List[object]]" = {
    "noise.sigma": [0.5, 1.0, 1.5, 2.0],
    "parameters.n2": [256, 512, 1024],
    "attack": ["none", "strip"],
}

#: Reduced parameter point shared by every quick-sweep scenario
#: (alpha = n2 / (k m) spans 4..16 across the default budget axis;
#: the n2 here is the fallback when no axis sweeps it).
DEFAULT_SWEEP_BASE: "Dict[str, object]" = {
    "parameters.k": 8,
    "parameters.m": 8,
    "parameters.n1": 64,
    "parameters.n2": 512,
}


def default_sweep_spec(
    seed: int = 42,
    engine: str = "auto",
    name: str = "sweep",
    design: str = "paper",
):
    """The CLI's default 24-scenario sweep surface as a spec object.

    Digest-identical to ``repro-watermark sweep`` run with no axis or
    base flags; the service smoke tests, the repository benchmark and
    CI build the same scenarios from here.
    """
    from repro.sweeps import GridAxis, SweepSpec

    base: "Dict[str, object]" = dict(DEFAULT_SWEEP_BASE)
    base["engine"] = engine
    if design != "paper":
        # Non-default only, so the default grid keeps its digests.
        base["design"] = design
    return SweepSpec(
        name=name,
        grid=tuple(
            GridAxis(field, tuple(values))
            for field, values in DEFAULT_SWEEP_AXES.items()
        ),
        base=base,
        seed=seed,
    )


def _parse_axis_value(text: str) -> object:
    try:
        return json.loads(text)
    except ValueError:
        return text


def _parse_axis(option: str) -> "tuple[str, List[object]]":
    field, eq, csv = option.partition("=")
    if not eq or not field or not csv:
        raise argparse.ArgumentTypeError(
            f"axis {option!r} is not of the form field=v1,v2,..."
        )
    return field, [_parse_axis_value(part) for part in csv.split(",")]


def _parse_base(option: str) -> "tuple[str, object]":
    field, values = _parse_axis(option)
    if len(values) != 1:
        raise argparse.ArgumentTypeError(
            f"base override {option!r} must have exactly one value"
        )
    return field, values[0]


def _parse_random_axis(option: str) -> "tuple[str, float, float, bool, bool]":
    field, eq, bounds = option.partition("=")
    parts = bounds.split(":")
    if not eq or len(parts) < 2:
        raise argparse.ArgumentTypeError(
            f"random axis {option!r} is not of the form "
            "field=low:high[:log][:int]"
        )
    modifiers = parts[2:]
    unknown = [m for m in modifiers if m not in ("log", "int")]
    if unknown or len(modifiers) != len(set(modifiers)):
        raise argparse.ArgumentTypeError(
            f"random axis {option!r}: bad modifier(s) {modifiers!r} "
            "(supported: 'log', 'int', each at most once)"
        )
    return (
        field,
        float(parts[0]),
        float(parts[1]),
        "log" in modifiers,
        "int" in modifiers,
    )


#: The sweep-option flags of ``sweep`` and ``serve``, by the
#: :class:`~repro.sweeps.api.SweepOptions` field each sets
#: (``--status-interval`` is ``serve``'s alone).
OPTION_FLAGS: "Dict[str, str]" = {
    "n_workers": "--workers",
    "max_retries": "--max-retries",
    "lease_ttl": "--lease-ttl",
    "scenario_timeout": "--scenario-timeout",
    "status_interval": "--status-interval",
}


def _sweep_options(args: argparse.Namespace):
    """The :class:`~repro.sweeps.api.SweepOptions` the flags ask for.

    ``--workers 0`` means one slot per usable CPU.  A value the options
    reject exits with an error naming its flag.
    """
    from repro.sweeps import SweepOptions, default_workers

    try:
        return SweepOptions(
            n_workers=args.workers or default_workers(),
            max_retries=args.max_retries,
            lease_ttl=args.lease_ttl,
            scenario_timeout=args.scenario_timeout,
            status_interval=getattr(args, "status_interval", None),
        )
    except ValueError as error:
        field = str(error).partition(":")[0]
        if field in ("n_workers", "max_retries"):
            raise SystemExit(f"error: {OPTION_FLAGS[field]} must be >= 0")
        raise SystemExit(f"error: invalid scheduler options: {error}")


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.sweeps import (
        FailureLog,
        GridAxis,
        RandomAxis,
        SweepSpec,
        SweepStore,
        expand_scenarios,
        render_status,
        render_sweep_summary,
        scrub,
        sweep_status,
    )
    from repro.sweeps.api import _run_expanded

    if args.axis:
        fields = [field for field, _ in args.axis]
        duplicates = sorted({f for f in fields if fields.count(f) > 1})
        if duplicates:
            raise SystemExit(
                f"error: --axis given twice for field(s) {duplicates}"
            )
        axes = dict(args.axis)
    elif args.random:
        # Random-only sweeps get no default grid; the random axes are
        # the whole surface.
        axes = {}
    else:
        axes = dict(DEFAULT_SWEEP_AXES)
    base: Dict[str, object] = dict(DEFAULT_SWEEP_BASE) if args.quick else {}
    base["engine"] = args.engine
    if args.design != "paper":
        # Non-default only, so the default grid keeps its digests.
        base["design"] = args.design
    if args.base:
        base.update(dict(args.base))
    try:
        spec = SweepSpec(
            name=args.name,
            grid=tuple(
                GridAxis(field, tuple(values)) for field, values in axes.items()
            ),
            random=tuple(
                RandomAxis(field, low, high, log=log, integer=integer)
                for field, low, high, log, integer in (args.random or ())
            ),
            n_random=args.samples if args.random else 0,
            base=base,
            seed=args.seed,
        )
        scenarios = expand_scenarios(spec)
    except (KeyError, ValueError, TypeError) as error:
        # An expansion error's detail names the scenario.
        message = getattr(error, "detail", error.args[0] if error.args else error)
        raise SystemExit(f"error: invalid sweep: {message}")
    # Every error exits before the store directory exists.
    options = _sweep_options(args)
    store = SweepStore(args.store)
    if args.scrub:
        removed = scrub(store)
        print(f"scrubbed {len(removed)} stale file(s) from {store.root}")
    print(
        f"sweep {spec.name!r}: {len(scenarios)} scenarios "
        f"({len(spec.grid)} grid axes"
        + (f", {len(spec.random)} random axes x {spec.n_random}" if spec.random else "")
        + f"), store {store.root}, {options.n_workers} worker(s)"
        + (", lease scheduler" if options.lease_scheduled else "")
    )
    report = _run_expanded(spec, scenarios, store, options)
    print(
        f"executed {report.n_executed}, "
        f"reused {report.n_cached} already in store"
    )
    print(
        render_status(
            sweep_status(store.root, scenario_ids=report.scenario_ids)
        )
    )
    if report.n_retried:
        print(
            f"retried {report.n_retried} scenario(s) after transient failures"
        )
    print()
    axis_names = list(axes) + [field for field, *_ in (args.random or ())]
    index = axis_names[0] if axis_names else "noise.sigma"
    if "attack" in axis_names:
        columns = "attack"
    else:
        columns = axis_names[1] if len(axis_names) > 1 else index
    print(render_sweep_summary(store, scenarios, index=index, columns=columns))
    if report.failed_ids:
        log = FailureLog(store.root)
        print()
        print(
            f"QUARANTINED {report.n_failed} scenario(s) "
            f"(see {log.failed_dir}/):"
        )
        for scenario_id in report.failed_ids:
            record = log.load_quarantine(scenario_id) or {}
            error = record.get("error", {})
            print(
                f"  {scenario_id}: {error.get('type', '?')}: "
                f"{error.get('message', 'no detail recorded')}"
            )
        return 1
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import logging

    from repro.service import SweepService

    options = _sweep_options(args)
    logging.basicConfig(
        level=logging.INFO, format="%(asctime)s %(name)s: %(message)s"
    )
    service = SweepService(args.store, options)
    service.run_forever(args.host, args.port)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-watermark",
        description="Reproduce the SOCC 2014 IP-watermark verification paper.",
    )
    parser.add_argument("--seed", type=int, default=42, help="measurement seed")
    parser.add_argument(
        "--engine",
        choices=ENGINES,
        default="auto",
        help="netlist simulation path for every manufactured device",
    )
    parser.add_argument(
        "--design",
        default="paper",
        help="workload: 'paper' (Fig. 3 IPs) or 'imported:<path>' "
        "(a structural Verilog circuit, e.g. benchmarks/netlists/c17.v)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    subparsers.add_parser("tables", help="Tables I and II, paper vs measured")
    subparsers.add_parser("figure4", help="Fig. 4 correlation panels (ASCII)")

    fig5 = subparsers.add_parser("figure5", help="Fig. 5 f_alpha(m) curve (ASCII)")
    fig5.add_argument("--alpha", type=float, default=10.0)

    subparsers.add_parser("campaign", help="full campaign verdicts")

    plan = subparsers.add_parser("plan", help="parameter planning")
    plan.add_argument("--alpha", type=float, default=10.0)
    plan.add_argument("--k", type=int, default=50)
    plan.add_argument("--tolerance", type=float, default=0.05)

    subparsers.add_parser("collisions", help="exhaustive key-collision census")

    keysearch = subparsers.add_parser("keysearch", help="CPA template attack on Kw")
    keysearch.add_argument("--traces", type=int, default=300)

    sweep = subparsers.add_parser(
        "sweep", help="scenario sweep into a resumable result store"
    )
    sweep.add_argument(
        "--axis",
        type=_parse_axis,
        action="append",
        metavar="FIELD=V1,V2,...",
        help="grid axis over a campaign-config path (repeatable); "
        "defaults to the built-in noise x budget x attack surface",
    )
    sweep.add_argument(
        "--random",
        type=_parse_random_axis,
        action="append",
        metavar="FIELD=LOW:HIGH[:log][:int]",
        help="randomly sampled axis: uniform, log-uniform with :log, "
        "rounded to integers with :int, which integer fields need "
        "(repeatable; needs --samples)",
    )
    sweep.add_argument(
        "--samples", type=int, default=8, help="draws per random axis set"
    )
    sweep.add_argument(
        "--base",
        type=_parse_base,
        action="append",
        metavar="FIELD=VALUE",
        help="fixed override applied to every scenario (repeatable); "
        "pin fleet_seed and measurement_seed here to share one "
        "acquisition across an analysis-axis grid",
    )
    sweep.add_argument(
        "--store",
        default="sweep_store",
        help="result-store directory (content-addressed, resumable)",
    )
    sweep.add_argument(
        "--workers",
        type=int,
        default=0,
        help="worker processes (0 = one per usable CPU); more than "
        "one runs the sweep on the lease scheduler",
    )
    sweep.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="re-attempts per scenario after its first failure (0 "
        "disables retry); a scenario that exhausts its budget is "
        "quarantined under failed/ and the sweep continues",
    )
    sweep.add_argument(
        "--scenario-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="kill any single scenario attempt after this long and "
        "retry it (implies lease-based scheduling with isolated "
        "attempt processes, which --workers above 1 also selects)",
    )
    sweep.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="lease time-to-live for lease-based scheduling: a worker "
        "that misses heartbeats for this long is presumed dead and its "
        "scenario is re-leased (implies lease-based scheduling, which "
        "--workers above 1 also selects; safe to run several "
        "schedulers on one store root)",
    )
    sweep.add_argument(
        "--scrub",
        action="store_true",
        help="before sweeping, remove crash residue from the store "
        "root (orphaned .tmp-* files, bundles without completion "
        "records, expired leases, quarantines of completed scenarios); "
        "only safe when no other sweep is writing to the root",
    )
    sweep.add_argument("--name", default="sweep", help="sweep name")
    sweep.add_argument(
        "--paper",
        dest="quick",
        action="store_false",
        help="run every scenario at full paper parameters "
        "(default is the reduced fast parameter point)",
    )

    serve = subparsers.add_parser(
        "serve",
        help="HTTP sweep service: submit/poll/stream jobs over a "
        "shared store root (several instances may share one root)",
    )
    serve.add_argument(
        "--store",
        default="sweep_store",
        help="result-store directory served by this instance",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument("--port", type=int, default=8734, help="bind port")
    serve.add_argument(
        "--workers",
        type=int,
        default=0,
        help="default worker processes per job (0 = one per usable "
        "CPU); submissions may override via options.n_workers, up to "
        "the larger of this and the usable CPUs",
    )
    serve.add_argument(
        "--max-retries",
        type=int,
        default=2,
        metavar="N",
        help="default re-attempts per scenario after its first failure",
    )
    serve.add_argument(
        "--scenario-timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="default per-attempt timeout for submitted jobs",
    )
    serve.add_argument(
        "--lease-ttl",
        type=float,
        default=None,
        metavar="SECONDS",
        help="lease time-to-live (jobs are always lease-scheduled, so "
        "several service instances may share the store root)",
    )
    serve.add_argument(
        "--status-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="log a sweep-status line every N seconds while jobs run",
    )

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "tables": _cmd_tables,
        "figure4": _cmd_figure4,
        "figure5": _cmd_figure5,
        "campaign": _cmd_campaign,
        "plan": _cmd_plan,
        "collisions": _cmd_collisions,
        "keysearch": _cmd_keysearch,
        "sweep": _cmd_sweep,
        "serve": _cmd_serve,
    }
    try:
        return handlers[args.command](args)
    except VerilogParseError as error:
        # Only an imported --design reaches the Verilog frontend here; a
        # sweep's attempts quarantine their own errors.
        raise SystemExit(f"error: --design: {error}")


if __name__ == "__main__":
    sys.exit(main())
