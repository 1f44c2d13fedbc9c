"""Command-line entry point: run paper experiments by name.

Usage::

    python -m repro list
    python -m repro run table1 fig6 sec77
    python -m repro run all
    python -m repro run fig9 --scale-factor 0.02
    python -m repro run fig7 --profile
    python -m repro scenario list
    python -m repro scenario run sec61 --set faults.transient_rate=0.1
    python -m repro scenario sweep sec62 --axis policy=random,jsq \
                                         --axis fleet=4,8,16 --output m.json
    python -m repro scenario diff old.json new.json [--tolerance p99_ms=0.3]
    python -m repro lint [--only self,functions,compositions,scenarios]
                         [--format json] [--strict] [paths ...]

Each experiment prints the same rows/series the paper reports (see
EXPERIMENTS.md for the paper-vs-measured comparison); ``list``
descriptions come straight from the experiment modules' docstrings.
``scenario`` is the declarative harness (docs/scenarios.md): run one
spec file to a KPI record, sweep axes into a KPI matrix, diff records
within tolerance bands.  ``lint`` runs the static-analysis passes —
purity verification of registered compute functions, whole-composition
analysis (CMP/RACE/CON/COST), scenario-spec validation (SCN), and the
determinism self-lint over ``src/repro`` itself (see
docs/static_analysis.md).  Host time is measured from outside the
package by ``perf/`` (see docs/simulation.md, "Measuring performance").
"""

from __future__ import annotations

import argparse
import sys
import time

from .experiments import (
    run_fig01,
    run_fig09_scaling,
    run_sec61,
    run_sec62,
    run_sec63,
    run_fig02,
    run_fig05,
    run_fig06,
    run_fig07,
    run_fig08,
    run_fig09,
    run_fig10,
    run_fig10_full,
    run_sec74,
    run_sec77,
    run_sec8_enforcement,
    run_sec8_static,
    run_sec8_tcb,
    run_table1,
)

# name -> (defining module under repro.experiments, runner or None for
# multi-table/CLI-special experiments).  `list` descriptions are the
# modules' docstring first lines — one source of truth.
EXPERIMENTS = {
    "table1": ("table1_breakdown", None),
    "fig1": ("fig01_fig10_azure", run_fig01),
    "fig2": ("fig02_hot_ratio", run_fig02),
    "fig5": ("fig05_creation_throughput", run_fig05),
    "fig6": ("fig06_matmul_throughput", run_fig06),
    "sec61": ("sec61_fault_tolerance", run_sec61),
    "sec62": ("sec62_scheduling", run_sec62),
    "sec63": ("sec63_gray_failures", run_sec63),
    "sec74": ("sec74_composition_chain", run_sec74),
    "fig7": ("fig07_split_benefit", run_fig07),
    "fig8": ("fig08_multiplexing", run_fig08),
    "fig9": ("fig09_ssb_athena", None),
    "fig9scale": ("fig09_scaling", run_fig09_scaling),
    "sec77": ("sec77_text2sql", run_sec77),
    "fig10": ("fig01_fig10_azure", run_fig10),
    "fig10full": ("fig10_full", None),
    "sec8": ("sec8_security", None),
}


def experiment_description(name: str) -> str:
    """First docstring line of the experiment's defining module."""
    from importlib import import_module

    module_name, _runner = EXPERIMENTS[name]
    module = import_module(f".experiments.{module_name}", __package__)
    doc = (module.__doc__ or "").strip()
    return doc.splitlines()[0] if doc else "(no description)"


def _run_one(name: str, args) -> None:
    started = time.time()
    if name == "table1":
        print(run_table1("morello").render())
        print()
        print(run_table1("linux").render())
    elif name == "fig9":
        print(run_fig09(scale_factor=args.scale_factor).render())
    elif name == "sec8":
        print(run_sec8_tcb().render())
        print()
        print(run_sec8_enforcement().render())
        print()
        print(run_sec8_static().render())
    elif name == "fig10full":
        result = run_fig10_full(scale=args.trace_scale)
        print(result.render())
        for platform, stats in result.meta["platforms"].items():
            print(
                f"[{platform}: {stats['wall_seconds']}s wall, "
                f"{stats['events']:,} events "
                f"({stats['events_per_second']:,}/s) over "
                f"{stats['windows']} windows]"
            )
    elif name in ("fig1", "fig10"):
        from .experiments.common import ascii_chart

        _module, runner = EXPERIMENTS[name]
        result = runner()
        print(result.render())
        if name == "fig1":
            series = {"committed MiB": result.column("committed_mib"),
                      "active MiB": result.column("active_mib")}
        else:
            series = {"firecracker MiB": result.column("firecracker_mib"),
                      "dandelion MiB": result.column("dandelion_mib")}
        for label, values in series.items():
            print()
            print(ascii_chart(values, label=f"{label} over the trace window"))
    else:
        _module, runner = EXPERIMENTS[name]
        print(runner().render())
    print(f"[{name} finished in {time.time() - started:.1f}s]\n")


def _parse_assignments(pairs, what: str) -> dict:
    """``["a.b=1", ...]`` → ``{"a.b": typed value}`` (scenario CLI)."""
    from .scenario.sweep import parse_axis_value, resolve_axis

    out = {}
    for pair in pairs:
        key, eq, value = pair.partition("=")
        if not eq or not key.strip():
            raise SystemExit(f"{what} {pair!r}: expected KEY=VALUE")
        out[resolve_axis(key.strip())] = parse_axis_value(value)
    return out


def _scenario_command(args) -> int:
    import json

    from .scenario import (
        KpiRecord,
        MATRIX_SCHEMA,
        SpecError,
        bundled_specs,
        diff_matrices,
        diff_records,
        load_spec,
        parse_axis_argument,
        run_scenario,
        run_sweep,
    )

    if args.action == "list":
        for name in bundled_specs():
            spec = load_spec(name)
            print(f"{name:12} {spec.description or '(no description)'}")
        return 0

    if args.action == "diff":
        tolerances = {
            key: float(value) for key, value in
            _parse_assignments(args.tolerances, "--tolerance").items()
        }
        with open(args.old, "r", encoding="utf-8") as handle:
            old = json.load(handle)
        with open(args.new, "r", encoding="utf-8") as handle:
            new = json.load(handle)
        if old.get("schema") == MATRIX_SCHEMA or new.get("schema") == MATRIX_SCHEMA:
            ok = True
            for label, diff in diff_matrices(old, new, tolerances):
                if diff is None:
                    print(f"{label}: arm present on only one side")
                    ok = False
                    continue
                print(f"{label}: {diff.render()}")
                ok = ok and diff.ok
        else:
            diff = diff_records(
                KpiRecord.from_dict(old), KpiRecord.from_dict(new), tolerances
            )
            print(diff.render())
            ok = diff.ok
        print("diff: OK" if ok else "diff: FAILED")
        return 0 if ok else 1

    # run / sweep share spec loading and --set base overrides.
    try:
        spec = load_spec(args.spec)
        overrides = _parse_assignments(args.overrides, "--set")
        if overrides:
            spec = spec.with_overrides(overrides)
    except (SpecError, OSError) as exc:
        print(f"scenario: {exc}", file=sys.stderr)
        return 2

    if args.action == "run":
        run = run_scenario(spec)
        text = run.kpis.to_json()
        if args.output:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"KPI record written to {args.output}")
        sys.stdout.write(text)
        return 0

    # sweep
    try:
        axes = [parse_axis_argument(axis) for axis in args.axes]
        matrix = run_sweep(spec, axes)
    except SpecError as exc:
        print(f"scenario sweep: {exc}", file=sys.stderr)
        return 2
    from .experiments.common import render_table

    axis_names = [entry["axis"] for entry in matrix["axes"]]
    kpi_columns = ["goodput_rps", "success_pct", "p50_ms", "p99_ms", "cost_usd"]
    rows = [
        {**record["arm"],
         **{column: record["kpis"][column] for column in kpi_columns}}
        for record in matrix["records"]
    ]
    print(f"== scenario sweep: {spec.name} ({len(rows)} arms) ==")
    print(render_table(axis_names + kpi_columns, rows))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(matrix, handle, indent=2)
            handle.write("\n")
        print(f"KPI matrix written to {args.output}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Dandelion reproduction: run paper experiments.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)
    subparsers.add_parser("list", help="list available experiments")
    run_parser = subparsers.add_parser("run", help="run experiments by name")
    run_parser.add_argument("names", nargs="+", help="experiment names, or 'all'")
    run_parser.add_argument(
        "--scale-factor", type=float, default=0.01,
        help="SSB scale factor for fig9 (default 0.01)",
    )
    run_parser.add_argument(
        "--profile", action="store_true",
        help="run under cProfile and print the top 25 cumulative entries",
    )
    run_parser.add_argument(
        "--trace-scale", type=float, default=100.0,
        help="fig10full: trace scale vs the 100-function sample (default 100)",
    )
    scenario_parser = subparsers.add_parser(
        "scenario",
        help="declarative scenario harness: run/sweep/diff spec files "
             "(docs/scenarios.md)",
    )
    scenario_subparsers = scenario_parser.add_subparsers(
        dest="action", required=True
    )
    scenario_subparsers.add_parser("list", help="list bundled scenario specs")
    for action in ("run", "sweep"):
        action_parser = scenario_subparsers.add_parser(
            action,
            help=(
                "run one spec, print its KPI record as JSON" if action == "run"
                else "cross-product axis sweep, print/write a KPI matrix"
            ),
        )
        action_parser.add_argument(
            "spec", help="bundled spec name (see `scenario list`) or TOML path"
        )
        action_parser.add_argument(
            "--set", dest="overrides", action="append", default=[],
            metavar="KEY=VALUE",
            help="override a spec field (dotted path or axis alias), repeatable",
        )
        if action == "sweep":
            action_parser.add_argument(
                "--axis", dest="axes", action="append", default=[],
                metavar="NAME=V1,V2,...", required=True,
                help="sweep axis (alias like policy/fleet or dotted path); "
                     "first axis is outermost",
            )
        action_parser.add_argument(
            "--output", default=None,
            help="also write the KPI record/matrix JSON to this path",
        )
    diff_parser = scenario_subparsers.add_parser(
        "diff", help="compare two KPI records/matrices within tolerance bands"
    )
    diff_parser.add_argument("old", help="baseline KPI record/matrix JSON")
    diff_parser.add_argument("new", help="candidate KPI record/matrix JSON")
    diff_parser.add_argument(
        "--tolerance", dest="tolerances", action="append", default=[],
        metavar="METRIC=FRACTION",
        help="override a relative tolerance band (e.g. p99_ms=0.3), repeatable",
    )
    lint_parser = subparsers.add_parser(
        "lint", help="run the static-analysis passes (docs/static_analysis.md)"
    )
    lint_parser.add_argument(
        "--only", dest="lint_only", type=lambda text: text.split(","),
        metavar="PASS[,PASS...]",
        help="run only the named passes (comma list of self, functions, "
             "compositions, scenarios); default: all four",
    )
    lint_parser.add_argument(
        "paths", nargs="*",
        help="files scanned for embedded composition blocks, or scenario "
             "specs (*.toml)",
    )
    lint_parser.add_argument(
        "--format", dest="output_format",
        choices=("text", "json"), default="text",
    )
    lint_parser.add_argument(
        "--strict", action="store_true",
        help="fail on any non-baselined finding and, on a whole run, on "
             "stale baseline entries (CI mode); default fails on errors",
    )
    lint_parser.add_argument(
        "--baseline", default=None,
        help="baseline suppression file (default: the checked-in self-lint baseline)",
    )
    lint_parser.add_argument(
        "--write-baseline", action="store_true",
        help="regenerate the baseline from the findings of a whole run "
             "(not with --only) and exit",
    )
    args = parser.parse_args(argv)

    if args.command == "lint":
        from .analysis.runner import PASSES, run_lint

        try:
            code, report = run_lint(
                PASSES if args.lint_only is None else args.lint_only,
                paths=args.paths,
                output_format=args.output_format,
                strict=args.strict,
                baseline_path=args.baseline,
                write_baseline=args.write_baseline,
            )
        except ValueError as exc:
            lint_parser.error(str(exc))
        print(report)
        return code

    if args.command == "scenario":
        return _scenario_command(args)

    if args.command == "list":
        for name in EXPERIMENTS:
            print(f"{name:10} {experiment_description(name)}")
        return 0

    names = list(EXPERIMENTS) if args.names == ["all"] else args.names
    unknown = [name for name in names if name not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiments: {', '.join(unknown)}", file=sys.stderr)
        print(f"available: {', '.join(EXPERIMENTS)}", file=sys.stderr)
        return 2
    if getattr(args, "profile", False):
        import cProfile
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        for name in names:
            _run_one(name, args)
        profiler.disable()
        stats = pstats.Stats(profiler, stream=sys.stderr)
        stats.sort_stats("cumulative").print_stats(25)
        return 0
    for name in names:
        _run_one(name, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
