"""Command-line interface of the EasyACIM reproduction.

Usage (after ``pip install -e .``)::

    python -m repro explore --array-size 16384 --min-snr-db 15 --csv pareto.csv
    python -m repro flow --array-size 1024 --out out/ --route
    python -m repro layout --height 128 --width 128 --local 8 --adc-bits 3 --out out/
    python -m repro library --report
    python -m repro validate-snr --adc-bits 3 4 5 --trials 800
    python -m repro campaign run nightly --store results.sqlite --array-size 16384
    python -m repro campaign resume nightly --store results.sqlite
    python -m repro campaign query --store results.sqlite --min-snr-db 20
    python -m repro metrics --store results.sqlite
    python -m repro trace --trace-out flow.json -- flow --array-size 1024

Every subcommand is a thin adapter over :mod:`repro.api`: it builds one
typed, JSON-serializable request, submits it to a
:class:`~repro.api.Session` configured from the shared ``--backend`` /
``--workers`` / ``--store`` flags, and renders the
:class:`~repro.api.ApiResult` envelope — as human-readable tables by
default, or as the raw envelope with the uniform ``--json`` flag
(``--json`` alone prints the JSON document to stdout instead of the
tables; ``--json PATH`` writes it to a file alongside them).  Scripted
use and interactive use therefore go through the identical code path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import __version__
from repro.api import (
    ApiResult,
    CampaignRequest,
    EstimateRequest,
    ExploreRequest,
    FlowRequest,
    LayoutRequest,
    LibraryRequest,
    QueryRequest,
    Session,
    SessionConfig,
    ValidateSnrRequest,
)
from repro.engine import BACKENDS
from repro.errors import ReproError
from repro.flow.report import (
    design_table,
    engine_stats_table,
    format_table,
    pareto_summary,
)
from repro.obs import (
    configure_tracing,
    export_chrome,
    export_jsonl,
    get_tracer,
)
from repro.reporting.ascii_plots import render_pareto_front
from repro.reporting.campaigns import (
    campaign_table,
    store_summary_table,
    stored_design_table,
)
from repro.reporting.observability import (
    campaign_trend_table,
    metrics_table,
    run_metrics_table,
)
from repro.reporting.export import export_csv
from repro.reporting.physical import macro_table, physical_stats_table
from repro.store import RANK_METRICS

#: Default store file of the campaign subcommands (kept from the pre-API
#: CLI so existing invocations find their data).
DEFAULT_CAMPAIGN_STORE = Path("easyacim_store.sqlite")


def _session_parent() -> argparse.ArgumentParser:
    """The one parent parser carrying the shared session/output flags.

    Every subcommand inherits these, so backend/worker/store/JSON
    conventions are defined exactly once instead of per-command copies.
    """
    parent = argparse.ArgumentParser(add_help=False)
    group = parent.add_argument_group("session options (shared)")
    group.add_argument("--backend", choices=list(BACKENDS), default=None,
                       help="evaluation-engine backend (default: serial, "
                            "or process when --workers is given)")
    group.add_argument("--workers", type=int, default=None,
                       help="engine pool size (implies --backend process; "
                            "default pool size: all CPU cores)")
    group.add_argument("--store", type=Path, default=None,
                       help="persistent SQLite result store the session "
                            "reads (warm start) and writes (default: none; "
                            "campaign commands default to "
                            f"{DEFAULT_CAMPAIGN_STORE})")
    group.add_argument("--json", nargs="?", const="-", default=None,
                       metavar="PATH", dest="json_out",
                       help="emit the result envelope as JSON: bare --json "
                            "prints it to stdout instead of the tables, "
                            "--json PATH writes it to a file alongside them")
    group.add_argument("--trace", type=Path, default=None,
                       metavar="PATH", dest="trace_out",
                       help="record a trace of this invocation: .jsonl "
                            "writes one span per line, any other suffix "
                            "writes Chrome trace_event JSON loadable in "
                            "Perfetto / chrome://tracing (docs/observability.md)")
    return parent


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="EasyACIM reproduction: automated analog CIM generation",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    subparsers = parser.add_subparsers(dest="command", required=True)
    parent = _session_parent()

    explore = subparsers.add_parser(
        "explore", parents=[parent],
        help="design space exploration (NSGA-II, exhaustive or sensitivity)")
    explore.add_argument("--array-size", type=int, default=16 * 1024,
                         help="total number of bit cells H*W (default 16384)")
    explore.add_argument("--method", choices=list(ExploreRequest.METHODS),
                         default="nsga2",
                         help="nsga2 (MOGA), exhaustive (true frontier) or "
                              "sensitivity (frontier stability)")
    explore.add_argument("--population", type=int, default=80)
    explore.add_argument("--generations", type=int, default=40)
    explore.add_argument("--seed", type=int, default=1)
    explore.add_argument("--surrogate",
                         choices=list(ExploreRequest.SURROGATE_MODES),
                         default="off",
                         help="surrogate evaluation mode: off (exact), "
                              "screen (learned pre-filtering) or refine "
                              "(screening + store-warmed start; needs "
                              "--store)")
    explore.add_argument("--screen-fraction", type=float, default=0.25,
                         help="fraction of offspring sent to the exact "
                              "engine per generation (surrogate modes)")
    explore.add_argument("--engine-stats", action="store_true",
                         help="print evaluation-engine statistics")
    explore.add_argument("--min-snr-db", type=float, default=None,
                         help="user distillation: minimum SNR in dB")
    explore.add_argument("--min-tops", type=float, default=None,
                         help="user distillation: minimum throughput in TOPS")
    explore.add_argument("--min-tops-per-watt", type=float, default=None,
                         help="user distillation: minimum efficiency in TOPS/W")
    explore.add_argument("--max-area", type=float, default=None,
                         help="user distillation: maximum area in F^2/bit")
    explore.add_argument("--csv", type=Path, default=None,
                         help="export the (distilled) Pareto set to CSV")
    explore.add_argument("--plot", action="store_true",
                         help="print an ASCII efficiency/area scatter")
    explore.set_defaults(handler=_cmd_explore)

    flow = subparsers.add_parser(
        "flow", parents=[parent],
        help="end-to-end flow: explore, distill, netlists, layouts")
    flow.add_argument("--array-size", type=int, default=1024)
    flow.add_argument("--population", type=int, default=40)
    flow.add_argument("--generations", type=int, default=20)
    flow.add_argument("--seed", type=int, default=1)
    flow.add_argument("--min-snr-db", type=float, default=None)
    flow.add_argument("--min-tops", type=float, default=None)
    flow.add_argument("--min-tops-per-watt", type=float, default=None)
    flow.add_argument("--max-area", type=float, default=None)
    flow.add_argument("--max-layouts", type=int, default=3)
    flow.add_argument("--no-netlists", action="store_true",
                      help="skip macro netlist generation")
    flow.add_argument("--no-layouts", action="store_true",
                      help="skip macro layout generation")
    flow.add_argument("--route", action="store_true",
                      help="run the maze router inside local arrays/columns")
    flow.add_argument("--out", type=Path, default=None,
                      help="export GDS/DEF of the generated layouts here")
    flow.add_argument("--campaign-name", default=None,
                      help="record the run under this name in --store")
    flow.add_argument("--reuse", action=argparse.BooleanOptionalAction,
                      default=True,
                      help="serve repeated physical work from the "
                           "macro/artifact cache (--no-reuse solves every "
                           "design flat from scratch; docs/physical.md)")
    flow.set_defaults(handler=_cmd_flow)

    layout = subparsers.add_parser(
        "layout", parents=[parent],
        help="generate netlist, layout, GDS/DEF/LEF for one design point")
    layout.add_argument("--height", type=int, required=True)
    layout.add_argument("--width", type=int, required=True)
    layout.add_argument("--local", type=int, required=True,
                        help="local array size L")
    layout.add_argument("--adc-bits", type=int, required=True)
    layout.add_argument("--out", type=Path, default=Path("easyacim_out"))
    layout.add_argument("--no-route", action="store_true",
                        help="skip column routing (floorplan only)")
    layout.add_argument("--spice", action="store_true",
                        help="also write the macro SPICE netlist")
    layout.add_argument("--testbench", action="store_true",
                        help="also write a SPICE testbench")
    layout.add_argument("--lef", action="store_true",
                        help="also write macro and technology LEF abstracts")
    layout.set_defaults(handler=_cmd_layout)

    estimate = subparsers.add_parser(
        "estimate", parents=[parent],
        help="evaluate the estimation model for one design point")
    estimate.add_argument("--height", type=int, required=True)
    estimate.add_argument("--width", type=int, required=True)
    estimate.add_argument("--local", type=int, required=True)
    estimate.add_argument("--adc-bits", type=int, required=True)
    estimate.add_argument(
        "--adc-sweep", action="store_true",
        help="additionally sweep every feasible B_ADC for this geometry "
             "(evaluated as one vectorized batch)")
    estimate.set_defaults(handler=_cmd_estimate)

    library = subparsers.add_parser(
        "library", parents=[parent],
        help="inspect the customized cell library and the macro cache")
    library.add_argument("topic", nargs="?", choices=("cells", "macros"),
                         default="cells",
                         help="cells (default): the leaf-cell library; "
                              "macros: the solved-macro reuse cache "
                              "(combine with --store for the persistent "
                              "artifact inventory)")
    library.add_argument("--report", action="store_true",
                         help="print the per-cell summary")
    library.add_argument("--stage", default=None,
                         choices=sorted(LibraryRequest._STAGES),
                         help="macros: only list artifacts of this store "
                              "stage (solved macros live under 'macro')")
    library.add_argument("--kind", default=None,
                         help="macros: only list macros of this kind "
                              "(local_array, column, acim_macro)")
    library.set_defaults(handler=_cmd_library)

    campaign = subparsers.add_parser(
        "campaign",
        help="persistent, resumable exploration campaigns (docs/campaigns.md)")
    campaign_sub = campaign.add_subparsers(dest="campaign_command",
                                           required=True)

    campaign_run = campaign_sub.add_parser(
        "run", parents=[parent],
        help="start a new named, checkpointed exploration campaign")
    campaign_run.add_argument("name", help="unique campaign name")
    campaign_run.add_argument("--array-size", type=int, default=16 * 1024)
    campaign_run.add_argument("--population", type=int, default=80)
    campaign_run.add_argument("--generations", type=int, default=40)
    campaign_run.add_argument("--seed", type=int, default=1)
    campaign_run.add_argument("--checkpoint-every", type=int, default=1,
                              help="commit a snapshot every N generations")
    campaign_run.add_argument("--surrogate",
                              choices=list(CampaignRequest.SURROGATE_MODES),
                              default="off",
                              help="surrogate evaluation mode: off (exact), "
                                   "screen or refine (store-warmed)")
    campaign_run.add_argument("--screen-fraction", type=float, default=0.25,
                              help="fraction of offspring evaluated exactly "
                                   "per generation (surrogate modes)")
    campaign_run.add_argument("--stop-after", type=int, default=None,
                              help="stop (checkpointed, resumable) after N "
                                   "generations in this invocation")
    campaign_run.add_argument("--engine-stats", action="store_true")
    campaign_run.set_defaults(handler=_cmd_campaign_run)

    campaign_resume = campaign_sub.add_parser(
        "resume", parents=[parent],
        help="continue a killed campaign from its last checkpoint")
    campaign_resume.add_argument("name")
    campaign_resume.add_argument("--stop-after", type=int, default=None)
    campaign_resume.add_argument("--engine-stats", action="store_true")
    campaign_resume.set_defaults(handler=_cmd_campaign_resume)

    campaign_list = campaign_sub.add_parser(
        "list", parents=[parent],
        help="list every campaign in the store")
    campaign_list.set_defaults(handler=_cmd_campaign_list)

    campaign_query = campaign_sub.add_parser(
        "query", parents=[parent],
        help="ranked design points across all campaigns")
    campaign_query.add_argument("--min-snr-db", type=float, default=None)
    campaign_query.add_argument("--min-tops", type=float, default=None)
    campaign_query.add_argument("--min-tops-per-watt", type=float, default=None)
    campaign_query.add_argument("--max-area", type=float, default=None,
                                help="maximum area in F^2/bit")
    campaign_query.add_argument("--rank-by", choices=sorted(RANK_METRICS),
                                default="tops_per_watt")
    campaign_query.add_argument("--limit", type=int, default=None)
    campaign_query.add_argument("--all", action="store_true",
                                help="include Pareto-dominated points")
    campaign_query.add_argument("--csv", type=Path, default=None)
    campaign_query.set_defaults(handler=_cmd_campaign_query)

    validate = subparsers.add_parser(
        "validate-snr", parents=[parent],
        help="Monte-Carlo validation of the SNR model")
    validate.add_argument("--adc-bits", type=int, nargs="+", default=[3, 4, 5])
    validate.add_argument("--height", type=int, default=128)
    validate.add_argument("--local", type=int, default=4)
    validate.add_argument("--trials", type=int, default=800)
    validate.set_defaults(handler=_cmd_validate_snr)

    metrics = subparsers.add_parser(
        "metrics", parents=[parent],
        help="per-campaign run metrics and trends from the store "
             "(docs/observability.md)")
    metrics.add_argument("--campaign", default=None,
                         help="restrict to one campaign's recorded runs")
    metrics.set_defaults(handler=_cmd_metrics)

    serve = subparsers.add_parser(
        "serve", parents=[parent],
        help="multi-tenant HTTP job server over one shared session "
             "(docs/serving.md)")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address (default 127.0.0.1)")
    serve.add_argument("--port", type=int, default=8433,
                       help="bind port; 0 picks an ephemeral port "
                            "(default 8433)")
    serve.add_argument("--serve-workers", type=int, default=4,
                       help="job-executor threads, i.e. concurrent jobs "
                            "server-wide (default 4; --workers still sizes "
                            "the evaluation engine's process pool)")
    serve.add_argument("--max-per-tenant", type=int, default=2,
                       help="concurrently running jobs allowed per tenant "
                            "(default 2)")
    serve.add_argument("--rate-limit", type=float, default=None,
                       help="admission rate per tenant in requests/second "
                            "(default: unlimited)")
    serve.add_argument("--rate-burst", type=float, default=None,
                       help="token-bucket burst capacity (default: one "
                            "second's worth of --rate-limit)")
    serve.set_defaults(handler=_cmd_serve)

    trace = subparsers.add_parser(
        "trace",
        help="run any repro command under tracing and export the trace")
    trace.add_argument("--trace-out", type=Path, dest="out_path",
                       default=Path("repro_trace.json"), metavar="PATH",
                       help="trace file to write (.jsonl: one span per "
                            "line; otherwise Chrome trace_event JSON for "
                            "Perfetto / chrome://tracing)")
    trace.add_argument("cmd", nargs=argparse.REMAINDER,
                       help="the repro command to run (separate with --, "
                            "e.g. repro trace -- flow --array-size 1024)")
    trace.set_defaults(handler=_cmd_trace)

    return parser


# ---------------------------------------------------------------------------
# Session plumbing shared by every handler
# ---------------------------------------------------------------------------


def _session_from_args(
    args: argparse.Namespace, default_store: Optional[Path] = None
) -> Session:
    """One session per invocation, configured from the shared flags."""
    backend = args.backend or ("process" if args.workers else "serial")
    store = args.store if args.store is not None else default_store
    return Session.from_config(SessionConfig(
        backend=backend,
        workers=args.workers,
        store=str(store) if store is not None else None,
    ))


def _emit_json(result: ApiResult, args: argparse.Namespace) -> bool:
    """Handle the uniform ``--json`` flag.

    Returns True when JSON replaced the human-readable rendering (bare
    ``--json``, i.e. stdout mode); a PATH argument writes the document to
    the file and keeps the tables.
    """
    if args.json_out is None:
        return False
    document = result.to_json()
    if args.json_out == "-":
        print(document)
        return True
    path = Path(args.json_out)
    path.write_text(document + "\n")
    print(f"JSON written to {path}")
    return False


# ---------------------------------------------------------------------------
# Subcommand handlers (thin request -> Session -> render adapters)
# ---------------------------------------------------------------------------


def _cmd_explore(args: argparse.Namespace) -> int:
    request = ExploreRequest(
        array_size=args.array_size,
        method=args.method,
        population=args.population,
        generations=args.generations,
        seed=args.seed,
        min_snr_db=args.min_snr_db,
        min_tops=args.min_tops,
        min_tops_per_watt=args.min_tops_per_watt,
        max_area_f2_per_bit=args.max_area,
        surrogate=args.surrogate,
        screen_fraction=args.screen_fraction,
    )
    with _session_from_args(args) as session:
        result = session.submit(request)
    json_only = _emit_json(result, args)
    if args.method == "sensitivity":
        if json_only:
            return 0
        print(f"Sensitivity of the {args.array_size}-bit frontier "
              f"(+/-{result.payload['relative_change']:.0%} perturbations):")
        print(format_table(result.payload["sensitivity"]))
        if args.engine_stats and result.engine_stats:
            print(format_table(engine_stats_table(result.engine_stats)))
        return 0

    designs = result.artifacts["distilled"]
    # An explicitly requested file export happens in both output modes;
    # only the stdout rendering is replaced by bare --json.
    if args.csv and designs:
        export_csv(designs, args.csv)
        if not json_only:
            print(f"CSV written to {args.csv}")
    if json_only:
        return 0
    print(f"Explored {args.array_size}-bit array ({args.method}): "
          f"{result.payload['pareto_size']} Pareto solutions "
          f"({len(designs)} after distillation), "
          f"{result.payload['evaluations']} evaluations, "
          f"{result.runtime_seconds:.2f} s")
    surrogate = result.payload.get("surrogate")
    if surrogate:
        print(f"Surrogate ({surrogate['mode']}): "
              f"{surrogate['exact_candidates']} exact + "
              f"{surrogate['screened_candidates']} screened-out candidates, "
              f"{surrogate['training_rows']} training rows")
    if args.engine_stats and result.engine_stats:
        print(format_table(engine_stats_table(result.engine_stats)))
    if designs:
        print(format_table([pareto_summary(designs)]))
        print()
        print(format_table(design_table(designs)))
    if args.plot and designs:
        print()
        print(render_pareto_front(
            designs, title=f"{args.array_size}-bit design space",
            category=lambda d: f"B={d.spec.adc_bits}"))
    return 0


def _cmd_flow(args: argparse.Namespace) -> int:
    request = FlowRequest(
        array_size=args.array_size,
        population=args.population,
        generations=args.generations,
        seed=args.seed,
        min_snr_db=args.min_snr_db,
        min_tops=args.min_tops,
        min_tops_per_watt=args.min_tops_per_watt,
        max_area_f2_per_bit=args.max_area,
        max_layouts=args.max_layouts,
        generate_netlists=not args.no_netlists,
        generate_layouts=not args.no_layouts,
        route_columns=args.route,
        output_dir=str(args.out) if args.out is not None else None,
        campaign_name=args.campaign_name,
        reuse="auto" if args.reuse else "off",
    )
    with _session_from_args(args) as session:
        result = session.submit(request)
    if _emit_json(result, args):
        return 0
    print(result.artifacts["result"].summary())
    physical_stats = result.payload.get("physical_stats")
    if physical_stats:
        print()
        print("Physical pipeline (per stage):")
        print(format_table(physical_stats_table(physical_stats)))
    distilled = result.artifacts["result"].distilled
    if distilled:
        print()
        print(format_table(design_table(distilled)))
    return 0


def _cmd_layout(args: argparse.Namespace) -> int:
    request = LayoutRequest(
        height=args.height,
        width=args.width,
        local_array_size=args.local,
        adc_bits=args.adc_bits,
        route_columns=not args.no_route,
        output_dir=str(args.out),
        spice=args.spice,
        testbench=args.testbench,
        lef=args.lef,
    )
    with _session_from_args(args) as session:
        result = session.submit(request)
    if _emit_json(result, args):
        return 0
    files = result.payload["files"]
    if "spice" in files:
        print(f"SPICE netlist written to {files['spice']}")
    if "testbench" in files:
        print(f"Testbench written to {files['testbench']}")
    print(format_table([result.payload["report"]]))
    print(f"GDS written to {files['gds']}")
    print(f"DEF written to {files['def']}")
    if "macro_lef" in files:
        print(f"LEF written to {files['macro_lef']} (+ {files['tech_lef']})")
    return 0


def _cmd_estimate(args: argparse.Namespace) -> int:
    request = EstimateRequest(
        height=args.height,
        width=args.width,
        local_array_size=args.local,
        adc_bits=args.adc_bits,
        adc_sweep=args.adc_sweep,
    )
    with _session_from_args(args) as session:
        result = session.submit(request)
    if _emit_json(result, args):
        return 0
    print(format_table(result.payload["metrics"]))
    return 0


def _cmd_library(args: argparse.Namespace) -> int:
    want_macros = args.topic == "macros"
    with _session_from_args(args) as session:
        result = session.submit(LibraryRequest(
            report=args.report, macros=want_macros,
            stage=args.stage, macro_kind=args.kind,
        ))
    if _emit_json(result, args):
        return 0 if result.ok else 1
    payload = result.payload
    if want_macros:
        macros = payload.get("macros", [])
        if macros:
            print(f"{len(macros)} solved macros "
                  f"(in-memory + persistent artifact cache):")
            print(format_table(macro_table(macros)))
        else:
            print("(no solved macros; run a flow or layout first, "
                  "or attach --store)")
        return 0 if result.ok else 1
    print(f"Cell library: {payload['cells']} cells on {payload['technology']}")
    if args.report:
        print(payload["report"])
    if payload["problems"]:
        print("Consistency problems:")
        for problem in payload["problems"]:
            print(f"  - {problem}")
        return 1
    print("Library netlist/layout views are consistent.")
    return 0


def _print_campaign_outcome(result: ApiResult, engine_stats: bool) -> None:
    outcome = result.artifacts["result"]
    print(format_table([outcome.as_dict()]))
    if outcome.surrogate:
        print(f"Surrogate ({outcome.surrogate['mode']}): "
              f"{outcome.surrogate['exact_candidates']} exact + "
              f"{outcome.surrogate['screened_candidates']} screened-out "
              f"candidates, {outcome.surrogate['training_rows']} "
              f"training rows")
    if outcome.status == "interrupted":
        print(f"Campaign {outcome.name!r} checkpointed at generation "
              f"{outcome.generations_done}/{outcome.total_generations}; "
              f"continue with: campaign resume {outcome.name}")
    elif outcome.pareto_set:
        print()
        print(format_table(design_table(outcome.pareto_set)))
    if engine_stats and result.engine_stats:
        print(format_table(engine_stats_table(result.engine_stats)))


def _cmd_campaign_run(args: argparse.Namespace) -> int:
    request = CampaignRequest(
        name=args.name,
        action="run",
        array_size=args.array_size,
        population=args.population,
        generations=args.generations,
        seed=args.seed,
        checkpoint_every=args.checkpoint_every,
        stop_after=args.stop_after,
        surrogate=args.surrogate,
        screen_fraction=args.screen_fraction,
    )
    with _session_from_args(args, default_store=DEFAULT_CAMPAIGN_STORE) as session:
        result = session.submit(request)
    if _emit_json(result, args):
        return 0
    _print_campaign_outcome(result, args.engine_stats)
    return 0


def _cmd_campaign_resume(args: argparse.Namespace) -> int:
    request = CampaignRequest(
        name=args.name, action="resume", stop_after=args.stop_after,
    )
    with _session_from_args(args, default_store=DEFAULT_CAMPAIGN_STORE) as session:
        result = session.submit(request)
    if _emit_json(result, args):
        return 0
    _print_campaign_outcome(result, args.engine_stats)
    return 0


def _cmd_campaign_list(args: argparse.Namespace) -> int:
    with _session_from_args(args, default_store=DEFAULT_CAMPAIGN_STORE) as session:
        result = session.submit(QueryRequest(what="campaigns"))
    if _emit_json(result, args):
        return 0
    print(format_table(store_summary_table(result.payload["store"])))
    print()
    records = result.artifacts["campaigns"]
    if records:
        print(format_table(campaign_table(records)))
    else:
        print("(no campaigns)")
    trend = campaign_trend_table(result.payload.get("run_metrics", []))
    if trend:
        print()
        print("Run metrics across resumes (repro metrics for detail):")
        print(format_table(trend))
    return 0


def _cmd_campaign_query(args: argparse.Namespace) -> int:
    request = QueryRequest(
        what="designs",
        min_snr_db=args.min_snr_db,
        min_tops=args.min_tops,
        min_tops_per_watt=args.min_tops_per_watt,
        max_area_f2_per_bit=args.max_area,
        rank_by=args.rank_by,
        limit=args.limit,
        pareto_only=not args.all,
    )
    with _session_from_args(args, default_store=DEFAULT_CAMPAIGN_STORE) as session:
        result = session.submit(request)
    json_only = _emit_json(result, args)
    rows = stored_design_table(result.artifacts["entries"])
    if args.csv and rows:
        export_csv(rows, args.csv)
        if not json_only:
            print(f"CSV written to {args.csv}")
    if json_only:
        return 0 if result.payload["count"] else 1
    if not rows:
        print("(no stored design points match)")
        return 1
    print(f"{len(rows)} design points "
          f"(ranked by {args.rank_by}, "
          f"{'all' if args.all else 'Pareto-only'}):")
    print(format_table(rows))
    return 0


def _cmd_validate_snr(args: argparse.Namespace) -> int:
    request = ValidateSnrRequest(
        adc_bits=tuple(args.adc_bits),
        height=args.height,
        local_array_size=args.local,
        trials=args.trials,
    )
    with _session_from_args(args) as session:
        result = session.submit(request)
    if _emit_json(result, args):
        return 0
    for warning in result.warnings:
        print(warning)
    print(format_table(result.payload["points"]))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    with _session_from_args(args, default_store=DEFAULT_CAMPAIGN_STORE) as session:
        result = session.submit(QueryRequest(what="campaigns"))
    if _emit_json(result, args):
        return 0
    rows = result.payload.get("run_metrics", [])
    if args.campaign is not None:
        rows = [row for row in rows if row.get("campaign") == args.campaign]
    if rows:
        print("Campaign run metrics (one row per run/resume):")
        print(format_table(run_metrics_table(rows)))
        print()
        print("Trends across resumes:")
        print(format_table(campaign_trend_table(rows)))
    else:
        scope = f"campaign {args.campaign!r}" if args.campaign else "this store"
        print(f"(no recorded run metrics for {scope}; "
              "campaign run/resume records one row per invocation)")
    if result.metrics:
        print()
        print("Session metrics (this query):")
        print(format_table(metrics_table(result.metrics)))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from repro.serve import ReproServer, ServerConfig

    backend = args.backend or ("process" if args.workers else "serial")
    config = ServerConfig(
        host=args.host,
        port=args.port,
        workers=args.serve_workers,
        max_per_tenant=args.max_per_tenant,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        session=SessionConfig(
            backend=backend,
            workers=args.workers,
            store=str(args.store) if args.store is not None else None,
        ),
    )
    server = ReproServer(config).start()

    def _on_signal(signum, frame):
        print(f"\nsignal {signum}: draining and shutting down...",
              file=sys.stderr)
        server.request_shutdown()

    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGINT, _on_signal)
    print(f"repro serve listening on {server.url} "
          f"({config.workers} workers, backend {backend}); "
          "SIGTERM/Ctrl-C drains and exits", file=sys.stderr)
    server.wait()
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    cmd = list(args.cmd)
    if cmd and cmd[0] == "--":
        cmd = cmd[1:]
    if not cmd:
        print("usage: repro trace [--trace-out PATH] -- <repro command ...>",
              file=sys.stderr)
        return 2
    return main([*cmd, "--trace", str(args.out_path)])


def _export_trace(tracer, path: Path) -> None:
    """Write the collected spans in the format the file suffix selects."""
    spans = tracer.finished_spans()
    if path.suffix == ".jsonl":
        export_jsonl(spans, path)
    else:
        export_chrome(spans, path, trace_id=tracer.trace_id)
    # stderr, so bare --json keeps an uncontaminated JSON stdout.
    print(f"Trace with {len(spans)} spans written to {path}", file=sys.stderr)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    In human mode library failures surface as raw tracebacks (repo
    idiom); when ``--json`` was requested the failure is emitted as an
    ``ApiResult`` envelope with ``status="error"`` and the exception's
    machine-readable ``code``, so scripted consumers always receive a
    parseable document.

    With ``--trace PATH`` the whole invocation runs under the global
    tracer; the trace file is exported even when the command fails, so
    the spans leading up to an error stay inspectable.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    trace_out = getattr(args, "trace_out", None)
    tracer = None
    if trace_out is not None:
        configure_tracing(enabled=True)
        tracer = get_tracer()
    try:
        try:
            return args.handler(args)
        except ReproError as error:
            if getattr(args, "json_out", None) is None:
                raise
            _emit_json(ApiResult(
                kind=getattr(args, "command", "unknown"),
                status="error",
                payload={"error": error.as_dict()},
            ), args)
            return 1
    finally:
        if tracer is not None:
            try:
                _export_trace(tracer, Path(trace_out))
            finally:
                tracer.disable()
                tracer.clear()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
