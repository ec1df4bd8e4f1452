"""Command-line interface for the SAN reproduction library.

Ten subcommands cover the common workflows without writing any Python:

* ``simulate``  — run the synthetic Google+ evolution and save the final SAN
  (or a chosen day's snapshot) as a TSV pair.
* ``measure``   — load a SAN from a TSV pair straight into the frozen CSR
  backend and print the paper's headline metrics.
* ``report``    — the freeze-once pipeline: freeze the SAN a single time and
  run the full metric *and* algorithm battery (headline metrics plus exact
  clustering, triangles, and weak-component structure) on the frozen
  backend's vectorized kernels.
* ``estimate``  — estimate the generative-model parameters from a SAN file.
* ``generate``  — run the generative model (optionally with parameters
  estimated from a reference SAN) and save the synthetic SAN.
* ``likelihood`` — the Figure 15 sweep: score PA/PAPA/LAPA attachment models
  against observed link arrivals, either diffed from two SAN snapshots or
  from a freshly generated Algorithm 1 history.
* ``pipeline``  — reproduce the paper's whole evaluation (Figures 2-19 plus
  Sections 2.2/5.2) from one scenario config: every shared artifact is
  materialized exactly once, cached content-addressed on disk, and the
  stages run over the artifact DAG (optionally on a process pool).
* ``validate``  — the fidelity regression gate: evaluate a scenario's
  checked-in answer key (``benchmarks/keys/<scenario>.json``) against the
  pipeline's stage payloads and fail loudly, naming each violated
  assertion.  Reuses the pipeline's artifact cache, so a warm rerun
  rebuilds nothing.
* ``convert``   — convert a SAN between the text formats and the versioned
  binary columnar format: a ``.col`` file mmaps open in O(header) time with
  zero parsing, so repeated loads of a large crawl cost nothing.  Also
  inspects existing columnar files (``--info``).
* ``lint``      — the invariant regression gate: run the AST-based rule
  catalog (seeded RNG, scipy containment, registry dispatch,
  content-derived caches, cache-token soundness, seed-stream discipline,
  storage hygiene) over the library source and
  fail on any unsuppressed finding.  The runtime counterpart is
  ``pipeline --sanitize`` (or ``REPRO_SANITIZE=1`` around any entry
  point), which checks NaN/Inf outputs, CSR content and artifact
  integrity on the live run.

Examples
--------
::

    python -m repro simulate --users 2000 --days 98 --out-prefix /tmp/gplus
    python -m repro measure --social /tmp/gplus.social.tsv --attributes /tmp/gplus.attrs.tsv
    python -m repro report --social /tmp/gplus.social.tsv --attributes /tmp/gplus.attrs.tsv
    python -m repro estimate --social /tmp/gplus.social.tsv --attributes /tmp/gplus.attrs.tsv
    python -m repro generate --steps 2000 --out-prefix /tmp/synthetic
    python -m repro likelihood --steps 2000 --max-links 1000
    python -m repro likelihood --before-social day40.social.tsv --before-attributes day40.attrs.tsv \
        --after-social day98.social.tsv --after-attributes day98.attrs.tsv
    repro pipeline --scenario paper-default --jobs 4 --cache-dir ~/.cache/repro --out results/
    repro pipeline --scenario tiny --figures fig04,fig15
    repro validate --scenario churn --cache-dir ~/.cache/repro --out validation/
    repro validate --all --cache-dir ~/.cache/repro
    repro convert --social /tmp/gplus.social.tsv --attributes /tmp/gplus.attrs.tsv \
        --out /tmp/gplus.col
    repro convert --info /tmp/gplus.col
    repro lint
    repro lint --rules R001,R004 --format json --out lint-findings.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional, Union

from .crawler import crawl_evolution
from .graph import (
    SAN,
    ColumnarFormatError,
    FrozenSAN,
    SerializationError,
    load_san_tsv,
    save_san_tsv,
)
from .metrics import format_report, frozen_san_report, san_metric_report
from .metrics.evolution import PhaseBoundaries
from .models import (
    DEFAULT_LIKELIHOOD_SEED,
    ArrivalHistory,
    SANModelParameters,
    estimate_parameters,
    figure15_sweep,
    generate_san,
)
from .synthetic import GooglePlusConfig, build_workload


def _checked_number(convert, text: str, requirement: str, ok) -> float:
    """``convert(text)`` if it parses and satisfies ``ok``; otherwise an
    argparse usage error naming ``requirement``."""
    try:
        value = convert(text)
        if ok(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"expected {requirement}, got {text!r}")


def _positive_int(text: str) -> int:
    return _checked_number(int, text, "a positive integer", lambda value: value > 0)


def _positive_float(text: str) -> float:
    return _checked_number(float, text, "a positive number", lambda value: value > 0)


def _non_negative_float(text: str) -> float:
    return _checked_number(float, text, "a non-negative number", lambda value: value >= 0)


def _float_grid(text: str) -> List[float]:
    """Comma-separated numbers (empty entries are skipped)."""
    try:
        return [float(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Social-Attribute Network measurement and modeling (IMC 2012 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    simulate = subparsers.add_parser(
        "simulate", help="simulate a Google+-like evolution and save the crawled SAN"
    )
    simulate.add_argument("--users", type=_positive_int, default=2000, help="total users to simulate (at least --days)")
    simulate.add_argument("--days", type=_positive_int, default=98, help="number of simulated days")
    simulate.add_argument("--phase-one-end", type=int, default=20)
    simulate.add_argument("--phase-two-end", type=int, default=75)
    simulate.add_argument("--seed", type=int, default=20120835)
    simulate.add_argument("--day", type=int, default=None, help="snapshot day to save (default: last)")
    simulate.add_argument("--out-prefix", required=True, help="output prefix for <prefix>.social.tsv / <prefix>.attrs.tsv")

    measure = subparsers.add_parser("measure", help="print headline metrics of a SAN TSV pair")
    measure.add_argument("--social", required=True, help="social edge TSV (source<TAB>target)")
    measure.add_argument("--attributes", required=True, help="attribute TSV (user<TAB>type<TAB>value)")
    measure.add_argument("--no-diameter", action="store_true", help="skip the effective-diameter estimate")
    measure.add_argument("--seed", type=int, default=0)

    report_help = (
        "freeze the SAN once, then run the full metric/algorithm battery "
        "(headline metrics + exact clustering, triangles, components) on the "
        "frozen backend's vectorized kernels"
    )
    report = subparsers.add_parser("report", help=report_help, description=report_help)
    report.add_argument("--social", required=True, help="social edge TSV (source<TAB>target)")
    report.add_argument("--attributes", required=True, help="attribute TSV (user<TAB>type<TAB>value)")
    report.add_argument("--no-diameter", action="store_true", help="skip the effective-diameter estimate")
    report.add_argument(
        "--out",
        default=None,
        help="also write the rendered report to this file",
    )
    report.add_argument("--seed", type=int, default=0)

    estimate = subparsers.add_parser(
        "estimate", help="estimate generative-model parameters from a SAN TSV pair"
    )
    estimate.add_argument("--social", required=True)
    estimate.add_argument("--attributes", required=True)
    estimate.add_argument("--mean-sleep", type=_positive_float, default=2.0)
    estimate.add_argument("--beta", type=_non_negative_float, default=200.0)

    generate = subparsers.add_parser(
        "generate", help="generate a synthetic SAN with the paper's model (Algorithm 1)"
    )
    generate.add_argument("--steps", type=_positive_int, default=2000, help="number of new social nodes")
    generate.add_argument("--seed", type=int, default=1)
    generate.add_argument("--reference-social", default=None, help="optional reference SAN to estimate parameters from")
    generate.add_argument("--reference-attributes", default=None)
    generate.add_argument("--no-lapa", action="store_true", help="ablation: classical PA instead of LAPA")
    generate.add_argument("--no-focal-closure", action="store_true", help="ablation: RR instead of RR-SAN")
    generate.add_argument("--out-prefix", required=True)

    likelihood_help = (
        "score PA/PAPA/LAPA attachment models against observed link arrivals "
        "(the Figure 15 sweep): relative log-likelihood improvement over PA"
    )
    likelihood = subparsers.add_parser(
        "likelihood", help=likelihood_help, description=likelihood_help
    )
    likelihood.add_argument(
        "--steps",
        type=_positive_int,
        default=None,
        help="generate an Algorithm 1 history of this many steps to score "
        "(alternative to the snapshot-pair inputs below)",
    )
    likelihood.add_argument(
        "--before-social", default=None, help="earlier snapshot: social edge TSV"
    )
    likelihood.add_argument(
        "--before-attributes", default=None, help="earlier snapshot: attribute TSV"
    )
    likelihood.add_argument(
        "--after-social", default=None, help="later snapshot: social edge TSV"
    )
    likelihood.add_argument(
        "--after-attributes", default=None, help="later snapshot: attribute TSV"
    )
    likelihood.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_LIKELIHOOD_SEED,
        help="seed for the scored-link subsample (and the generated history "
        "with --steps); the default makes repeated runs agree exactly",
    )
    likelihood.add_argument(
        "--max-links",
        type=int,
        default=2000,
        help="number of links to score (uniform subsample); 0 scores all",
    )
    likelihood.add_argument("--smoothing", type=_non_negative_float, default=1.0)
    likelihood.add_argument(
        "--alphas", type=_float_grid, default="0,0.5,1,1.5,2", help="comma-separated alpha grid"
    )
    likelihood.add_argument(
        "--papa-betas", type=_float_grid, default="0,2,4,6,8", help="comma-separated PAPA beta grid"
    )
    likelihood.add_argument(
        "--lapa-betas",
        type=_float_grid,
        default="0,10,100,200,500",
        help="comma-separated LAPA beta grid",
    )
    likelihood.add_argument(
        "--out", default=None, help="also write the sweep as JSON to this file"
    )

    pipeline_help = (
        "reproduce the full figure suite (Figures 2-19, Sections 2.2/5.2) "
        "from one scenario config over the artifact DAG: shared inputs are "
        "materialized once, cached content-addressed on disk, and independent "
        "stages may run on a process pool"
    )
    pipeline = subparsers.add_parser(
        "pipeline", help=pipeline_help, description=pipeline_help
    )
    pipeline.add_argument(
        "--scenario",
        default="paper-default",
        help="scenario preset (see --list for the registry)",
    )
    pipeline.add_argument(
        "--figures",
        default=None,
        help="comma-separated stage names to run (default: the full suite)",
    )
    pipeline.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the stages (stages are independent once "
        "the artifacts are materialized); needs --cache-dir, from which the "
        "workers load the artifacts; without it the stages run serially",
    )
    pipeline.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed artifact cache root; a warm cache reruns "
        "the whole suite without recomputing any artifact",
    )
    pipeline.add_argument(
        "--out",
        default=None,
        help="write manifest.json, report.txt and per-stage renderings here",
    )
    pipeline.add_argument(
        "--sanitize",
        action="store_true",
        help="arm the runtime sanitizer (REPRO_SANITIZE=1) for this run: "
        "NaN/Inf screening of every kernel output, CSR content checks on "
        "columnar opens, and artifact integrity re-hashing; writes "
        "sanitizer_report.json next to the manifest when --out is set",
    )
    pipeline.add_argument(
        "--list",
        action="store_true",
        help="list the registered scenarios and stages, then exit",
    )

    validate_help = (
        "evaluate a scenario's checked-in answer key against the pipeline's "
        "stage payloads (the fidelity regression gate); exits 1 when any "
        "named assertion is violated"
    )
    validate = subparsers.add_parser(
        "validate", help=validate_help, description=validate_help
    )
    validate.add_argument(
        "--scenario",
        default=None,
        help="scenario preset to validate (see --list for keys on disk)",
    )
    validate.add_argument(
        "--all",
        action="store_true",
        help="validate every scenario that has a checked-in answer key",
    )
    validate.add_argument(
        "--keys-dir",
        default=None,
        help="answer-key directory (default: the repository's benchmarks/keys)",
    )
    validate.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes for the stages (with --cache-dir; serial "
        "without it)",
    )
    validate.add_argument(
        "--cache-dir",
        default=None,
        help="content-addressed artifact cache root shared with `repro "
        "pipeline`; a warm cache validates without rebuilding any artifact",
    )
    validate.add_argument(
        "--out",
        default=None,
        help="write validation.json and validation.txt here "
        "(with --all: one subdirectory per scenario)",
    )
    validate.add_argument(
        "--list",
        action="store_true",
        help="list the scenarios with checked-in answer keys, then exit",
    )

    convert_help = (
        "convert a SAN (TSV pair or JSON) to the versioned binary columnar "
        "format, or inspect an existing columnar file; columnar files open "
        "via mmap in O(header) time with zero parsing"
    )
    convert = subparsers.add_parser(
        "convert", help=convert_help, description=convert_help
    )
    convert.add_argument("--social", default=None, help="social edge TSV (source<TAB>target)")
    convert.add_argument("--attributes", default=None, help="attribute TSV (user<TAB>type<TAB>value)")
    convert.add_argument("--json", dest="json_path", default=None, help="SAN JSON document (alternative to the TSV pair)")
    convert.add_argument("--out", default=None, help="columnar output path (conventionally <name>.col)")
    convert.add_argument(
        "--info",
        default=None,
        metavar="FILE",
        help="print the validated header summary of an existing columnar file and exit",
    )
    convert.add_argument(
        "--verify",
        action="store_true",
        help="after writing, reopen the file mmap-backed and check the arrays "
        "are bit-identical to the in-RAM graph",
    )

    from .lint.cli import add_parser as add_lint_parser

    add_lint_parser(subparsers)

    return parser


def _save(san: Union[SAN, FrozenSAN], prefix: str) -> None:
    save_san_tsv(san, f"{prefix}.social.tsv", f"{prefix}.attrs.tsv")
    print(f"wrote {prefix}.social.tsv ({san.number_of_social_edges()} social links)")
    print(f"wrote {prefix}.attrs.tsv ({san.number_of_attribute_edges()} attribute links)")


def _command_simulate(args: argparse.Namespace) -> int:
    config = GooglePlusConfig(
        total_users=args.users,
        num_days=args.days,
        phases=PhaseBoundaries(args.phase_one_end, args.phase_two_end),
    )
    day = args.day if args.day is not None else args.days
    if not 1 <= day <= args.days:
        print(f"error: --day must be in [1, {args.days}]", file=sys.stderr)
        return 2
    if args.users < args.days:
        print(f"error: --users must be at least --days ({args.days})", file=sys.stderr)
        return 2
    workload = build_workload(config, rng=args.seed, snapshot_count=14)
    series = crawl_evolution(workload.evolution, [day])
    san = series.at(day)
    print(f"simulated {args.users} users over {args.days} days; crawled day {day}: {san!r}")
    _save(san, args.out_prefix)
    return 0


def _command_measure(args: argparse.Namespace) -> int:
    san = load_san_tsv(args.social, args.attributes)
    report = san_metric_report(
        san, include_diameter=not args.no_diameter, rng=args.seed
    )
    print(format_report(report, title=f"SAN metrics ({args.social}, frozen backend)"))
    return 0


def _command_report(args: argparse.Namespace) -> int:
    # The load itself performs the single freeze of the pipeline;
    # frozen_san_report's freeze() call is then the identity.
    san = load_san_tsv(args.social, args.attributes)
    report = frozen_san_report(
        san, include_diameter=not args.no_diameter, rng=args.seed
    )
    rendered = format_report(
        report, title=f"SAN full report ({args.social}, frozen once)"
    )
    print(rendered)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"wrote {args.out}")
    return 0


def _command_estimate(args: argparse.Namespace) -> int:
    san = load_san_tsv(args.social, args.attributes)
    result = estimate_parameters(san, mean_sleep=args.mean_sleep, beta=args.beta)
    params = result.parameters
    print("Estimated generative-model parameters:")
    print(f"  steps                    {params.steps}")
    print(f"  lifetime.mu              {params.lifetime.mu:.4f}")
    print(f"  lifetime.sigma           {params.lifetime.sigma:.4f}")
    print(f"  lifetime.mean_sleep      {params.lifetime.mean_sleep:.4f}")
    print(f"  attribute_mu             {params.attribute_mu:.4f}")
    print(f"  attribute_sigma          {params.attribute_sigma:.4f}")
    print(f"  new_attribute_probability {params.new_attribute_probability:.4f}")
    print(f"  attachment.beta          {params.attachment.beta:.2f}")
    print(f"  reciprocation_probability {params.reciprocation_probability:.4f}")
    return 0


def _command_generate(args: argparse.Namespace) -> int:
    from dataclasses import replace

    if args.reference_social and args.reference_attributes:
        reference = load_san_tsv(args.reference_social, args.reference_attributes)
        params = replace(estimate_parameters(reference).parameters, steps=args.steps)
    else:
        params = SANModelParameters(steps=args.steps)
    if args.no_lapa:
        params = replace(params, use_lapa=False)
    if args.no_focal_closure:
        params = replace(params, use_focal_closure=False)
    run = generate_san(params, rng=args.seed)
    print(f"generated {run.san!r}")
    _save(run.san, args.out_prefix)
    return 0


def _command_likelihood(args: argparse.Namespace) -> int:
    snapshot_flags = (
        args.before_social,
        args.before_attributes,
        args.after_social,
        args.after_attributes,
    )
    if args.steps is not None and any(flag is not None for flag in snapshot_flags):
        print(
            "error: --steps and the snapshot TSV flags are mutually exclusive",
            file=sys.stderr,
        )
        return 2
    if args.steps is not None:
        history = generate_san(
            SANModelParameters(steps=args.steps), rng=args.seed, record_history=True
        ).history_columns()
        source = f"generated history ({args.steps} steps, seed {args.seed})"
    elif all(flag is not None for flag in snapshot_flags):
        earlier = load_san_tsv(args.before_social, args.before_attributes)
        later = load_san_tsv(args.after_social, args.after_attributes)
        history = ArrivalHistory.from_snapshots(earlier, later)
        source = f"snapshot diff ({args.before_social} -> {args.after_social})"
    else:
        print(
            "error: pass either --steps or all four snapshot TSVs "
            "(--before-social/--before-attributes/--after-social/--after-attributes)",
            file=sys.stderr,
        )
        return 2

    max_links = None if args.max_links <= 0 else args.max_links
    sweep = figure15_sweep(
        history,
        alphas=args.alphas,
        papa_betas=args.papa_betas,
        lapa_betas=args.lapa_betas,
        smoothing=args.smoothing,
        max_links=max_links,
        rng=args.seed,
    )

    print(f"Figure 15 attachment-model sweep — {source}")
    print(f"seed={args.seed}  links scored={sweep['num_links_scored']}")
    print(f"PA improvement over uniform: {sweep['pa_over_uniform']:+.4f}")
    print(f"{'family':<8} {'alpha':>6} {'beta':>8} {'improvement_over_pa':>20}")
    for family in ("papa", "lapa"):
        for (alpha, beta), improvement in sorted(sweep[family].items()):
            print(f"{family:<8} {alpha:>6g} {beta:>8g} {improvement:>+20.6f}")
    if args.out:
        payload = {
            "source": source,
            "seed": args.seed,
            "num_links_scored": sweep["num_links_scored"],
            "pa_over_uniform": sweep["pa_over_uniform"],
            "papa": {f"{alpha:g},{beta:g}": value for (alpha, beta), value in sweep["papa"].items()},
            "lapa": {f"{alpha:g},{beta:g}": value for (alpha, beta), value in sweep["lapa"].items()},
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.out}")
    return 0


def _command_pipeline(args: argparse.Namespace) -> int:
    from .experiments import (
        UnknownArtifactError,
        UnknownExperimentError,
        UnknownScenarioError,
        experiment_stages,
        get_scenario,
        run_pipeline,
        scenario_names,
    )

    if args.list:
        print("scenarios:")
        for name in scenario_names():
            print(f"  {name:<18} {get_scenario(name).description}")
        print("stages:")
        for stage in experiment_stages().values():
            print(f"  {stage.name:<10} {stage.title}  [needs: {', '.join(stage.needs)}]")
        return 0

    if args.sanitize:
        from . import sanitize

        os.environ[sanitize.ENV_VAR] = "1"
        sanitize.reset_report()

    figures = None
    if args.figures:
        figures = [part.strip() for part in args.figures.split(",") if part.strip()]
    try:
        result = run_pipeline(
            args.scenario,
            figures=figures,
            jobs=max(1, args.jobs),
            cache_dir=args.cache_dir,
            out_dir=args.out,
            strict=False,
        )
    except (UnknownScenarioError, UnknownExperimentError, UnknownArtifactError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    manifest = result.manifest()
    print(
        f"pipeline scenario={result.scenario.name} jobs={result.jobs} "
        f"executor={result.executor} stages={len(result.stages)}"
    )
    print(f"{'artifact':<26} {'status':<8} {'seconds':>9}")
    for event in manifest["artifacts"]:
        status = event["status"] if event["persistent"] else "view"
        print(f"{event['name']:<26} {status:<8} {event['seconds']:>9.3f}")
    print(f"{'stage':<26} {'seconds':>9} {'cpu':>9}")
    for stage in manifest["stages"]:
        print(
            f"{stage['name']:<26} {stage['seconds']:>9.3f} "
            f"{stage['cpu_seconds']:>9.3f}"
        )
    cache = manifest["cache"]
    print(
        f"artifacts: {cache['hits']} cached, {cache['builds']} built, "
        f"{cache['views']} views; artifact time {manifest['artifact_seconds']:.3f}s; "
        f"total {manifest['total_seconds']:.3f}s"
    )
    if result.out_dir is not None:
        print(f"wrote {result.out_dir}/manifest.json and per-stage reports")
    if args.sanitize:
        from pathlib import Path

        from . import sanitize

        report = sanitize.report()
        print(
            f"sanitizer: {report['nonfinite']['checked']} output(s) screened; "
            f"{report['artifacts']['verified']} artifact(s) verified"
        )
        if result.out_dir is not None:
            report_path = Path(result.out_dir) / "sanitizer_report.json"
            sanitize.write_report(report_path)
            print(f"wrote {report_path}")
    failures = result.failures()
    if failures:
        for name, error in sorted(failures.items()):
            print(f"stage failed: {name}: {error}", file=sys.stderr)
        print(
            f"{len(failures)} stage(s) failed; surviving results were written",
            file=sys.stderr,
        )
        return 1
    return 0


def _command_convert(args: argparse.Namespace) -> int:
    from .graph import columnar_info, load_san_json, open_columnar, save_columnar

    if args.info is not None:
        info = columnar_info(args.info)
        print(f"{args.info}: columnar v{info['version']} kind={info['kind']}")
        print(f"  file size   {info['file_size']} bytes (data at {info['data_start']})")
        counts = info["meta"].get("counts")
        if counts:
            print(
                "  counts      "
                + "  ".join(f"{key}={value}" for key, value in sorted(counts.items()))
            )
        print(f"  {'section':<22} {'offset':>10} {'dtype':<8} shape")
        for name, spec in info["sections"].items():
            print(
                f"  {name:<22} {spec['offset']:>10} {spec['dtype']:<8} "
                f"{tuple(spec['shape'])}"
            )
        return 0

    if args.out is None:
        print("error: pass --out <file.col> (or --info <file.col>)", file=sys.stderr)
        return 2
    if args.json_path is not None:
        if args.social or args.attributes:
            print(
                "error: --json and the TSV flags are mutually exclusive",
                file=sys.stderr,
            )
            return 2
        san = load_san_json(args.json_path)
        source = args.json_path
    elif args.social and args.attributes:
        san = load_san_tsv(args.social, args.attributes)
        source = args.social
    else:
        print(
            "error: pass --social/--attributes (TSV pair) or --json",
            file=sys.stderr,
        )
        return 2

    save_columnar(san, args.out)
    size = os.path.getsize(args.out)
    edges = san.number_of_social_edges() + san.number_of_attribute_edges()
    ratio = f" ({size / edges:.1f} bytes/edge)" if edges else ""
    print(f"wrote {args.out}: {size} bytes{ratio} from {source}")
    if args.verify:
        from .graph.columnar import _collect_sections

        import numpy as np

        reopened = open_columnar(args.out, mmap_mode="r")
        _, expected, _ = _collect_sections(san, None)
        _, observed, _ = _collect_sections(reopened, None)
        mismatched = [
            name
            for name in sorted(set(expected) | set(observed))
            if name not in expected
            or name not in observed
            or expected[name].dtype != observed[name].dtype
            or not np.array_equal(expected[name], observed[name])
        ]
        if mismatched:
            print(
                f"error: mmap reopen differs in section(s): {', '.join(mismatched)}",
                file=sys.stderr,
            )
            return 1
        print(f"verified: mmap reopen is bit-identical ({len(expected)} sections)")
    return 0


def _command_lint(args: argparse.Namespace) -> int:
    from .lint.cli import run as lint_run

    return lint_run(args)


def _command_validate(args: argparse.Namespace) -> int:
    from .experiments import (
        AnswerKeyError,
        UnknownArtifactError,
        UnknownExperimentError,
        UnknownScenarioError,
        answer_key_names,
        answer_key_path,
        run_validation,
    )

    if args.list:
        print("scenarios with answer keys:")
        for name in answer_key_names(args.keys_dir):
            print(f"  {name:<18} {answer_key_path(name, args.keys_dir)}")
        return 0

    if args.all:
        names = answer_key_names(args.keys_dir)
        if not names:
            print("error: no answer keys found", file=sys.stderr)
            return 2
    elif args.scenario is not None:
        names = [args.scenario]
    else:
        print("error: pass --scenario <name> or --all", file=sys.stderr)
        return 2

    failures = 0
    for name in names:
        out_dir = args.out
        if out_dir is not None and len(names) > 1:
            out_dir = f"{args.out}/{name}"
        try:
            result = run_validation(
                name,
                keys_dir=args.keys_dir,
                jobs=max(1, args.jobs),
                cache_dir=args.cache_dir,
                out_dir=out_dir,
            )
        except (
            UnknownScenarioError,
            UnknownExperimentError,
            UnknownArtifactError,
            AnswerKeyError,
        ) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        print(result.rendered())
        if result.out_dir is not None:
            print(f"wrote {result.out_dir}/validation.json")
        if not result.passed:
            failures += 1
            violated = ", ".join(item.assertion.name for item in result.failures())
            print(
                f"error: scenario {name!r} violates answer-key "
                f"assertion(s): {violated}",
                file=sys.stderr,
            )
    return 1 if failures else 0


_COMMANDS = {
    "simulate": _command_simulate,
    "measure": _command_measure,
    "report": _command_report,
    "estimate": _command_estimate,
    "generate": _command_generate,
    "likelihood": _command_likelihood,
    "pipeline": _command_pipeline,
    "validate": _command_validate,
    "convert": _command_convert,
    "lint": _command_lint,
}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns a process exit code.

    An input file that cannot be read, a malformed TSV or JSON graph and a
    damaged columnar file each end the command with one ``error:`` line and
    exit code 2, like the other usage errors.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (OSError, SerializationError, ColumnarFormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
