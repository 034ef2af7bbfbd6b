"""Command-line front end.

Subcommands: analyze-graph, gen-data, validate-scheme, run, privacy-budget,
bound-check, sweep.  Every ensemble is a sweep of the engine's one driver
(``engine.run_ensemble``, ``engine.run_horizons``), which runs it serially or
on forked processes from its estimated size and the available cores.  The
exit status is 0 on success; 1 when validate-scheme finds an inequality
violated, or when run or sweep meets a scheme that fails validation without
``"force": true``; 2 when an input is rejected (a ``ValueError``, such as
``bound-check --runs 0``) or the eigensolver fails on a graph pair
(``graphs.EigensolverError``); 3 when a run diverges; and 4 when a file cannot
be read or written.  A failure prints one line on stderr,
``dpgt <command>: <message>``; a divergence names the seed, agent, iteration
and variable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import configio
from .engine import DivergenceError, run_ensemble
from .experiments import (
    ExperimentConfig,
    ValidatorFailure,
    run_experiment,
    run_sweep,
)
from .graphs import EigensolverError, spectral_constants
from .objectives import (
    generate_quadratic_datasets,
    generate_trig_datasets,
)
from .privacy import epsilon, sensitivity_trace, swap_bound
from .recursion import ObjectiveConstants, build_model, contraction_check, dominance_check
from .schemes import validate


def _print_json(doc) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _cmd_analyze_graph(args) -> int:
    gp = configio.graph_from_dict(configio.load_json(args.graph))
    sc = spectral_constants(gp)
    _print_json(
        {
            "n": sc.n,
            "eigs_L1": [[z.real, z.imag] for z in sc.eigs_L1],
            "eigs_L2": [[z.real, z.imag] for z in sc.eigs_L2],
            "v1": sc.v1.tolist(),
            "v2": sc.v2.tolist(),
            "r1": sc.r1,
            "r2": sc.r2,
            "alpha_cap": sc.alpha_cap,
            "beta_cap": sc.beta_cap,
            "rhoR": sc.rhoR,
            "rhoC": sc.rhoC,
            "rhoL1": sc.rhoL1,
            "v1_dot_v2": sc.v1_dot_v2,
        }
    )
    return 0


def _cmd_gen_data(args) -> int:
    generate = generate_quadratic_datasets if args.kind == "quadratic" else generate_trig_datasets
    datasets = generate(args.agents, args.size, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    files = []
    for ds in datasets:
        path = out / f"agent{ds.agent}.json"
        configio.dump_json(configio.dataset_to_dict(ds), path)
        files.append(str(path))
    _print_json({"kind": args.kind, "seed": args.seed, "files": files})
    return 0


def _cmd_validate_scheme(args) -> int:
    gp, scheme, obj = configio.load_inputs(args.graph, args.scheme, args.objective)
    report = validate(scheme, spectral_constants(gp), obj.L1_smooth, obj.mu)
    _print_json(report.to_dict())
    return 0 if report.overall else 1


def _cmd_run(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    summary = run_experiment(config)
    if args.out:
        # Convenience copy of the largest-horizon trace to the requested path.
        biggest = max(config.horizons)
        src = Path(config.output_dir) / f"trace_K{biggest}.csv"
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_bytes(src.read_bytes())
    _print_json({"output_dir": config.output_dir, "horizons": sorted(summary["horizons"])})
    return 0


def _cmd_privacy_budget(args) -> int:
    auto = args.C == "auto"
    gp, scheme, obj = configio.load_inputs(args.graph, args.scheme, args.objective if auto and args.objective else None)
    if auto and obj is None:
        raise ValueError("--C auto requires --objective")
    C = swap_bound(obj, obj.datasets) if auto else float(args.C)
    trace = sensitivity_trace(gp, scheme, C, args.K)
    report = epsilon(trace, scheme, args.K)
    if args.increments_csv:
        rows = ([k, *column] for ks, block in report.increment_blocks() for k, column in zip(ks, block.T.tolist()))
        configio.write_csv(args.increments_csv, ["k"] + [f"agent{i}" for i in range(gp.n)], rows)
    _print_json(
        {
            "K": args.K,
            "C": C,
            "eps_per_agent": report.eps.tolist(),
            "eps_max": report.eps_max,
            "finite_budget_conditions": report.finiteness.overall,
            "tail_order": report.tail_order,
        }
    )
    return 0


def _cmd_bound_check(args) -> int:
    if args.runs is not None and args.runs < 1:
        raise ValueError(f"--runs must be at least 1, got {args.runs}")
    config = ExperimentConfig.from_file(args.config)
    gp, scheme, obj = configio.load_inputs(config.graph_file, config.scheme_file, config.objective_file)
    sc = spectral_constants(gp)
    K = max(config.horizons)
    seeds = config.seed_list()
    if args.runs is not None:  # that many seeds from the config's first
        seeds = [seeds[0] + r for r in range(args.runs)]
    model = build_model(sc, scheme, ObjectiveConstants.of(obj), K, obj.dim)
    contraction = contraction_check(model)
    ens = run_ensemble(gp, scheme, obj, K, seeds, sc=sc)
    report = dominance_check(model, ens.mean_v, ens.se_v, ens.n_runs)
    _print_json(
        {
            "rho": contraction.rho,
            "contracts": contraction.contracts,
            "dominance_pass_rate": report.pass_rate,
            "dominance_checked": report.checked,
            "dominance_violations": report.violations,
        }
    )
    return 0


def _cmd_sweep(args) -> int:
    config = ExperimentConfig.from_file(args.config)
    values = [float(v) for v in args.values.split(",")]
    comparison = run_sweep(config, args.param, values)
    _print_json(comparison)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dpgt",
        description="Simulator and analysis toolkit for differentially private "
        "gradient tracking over directed graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze-graph", help="print spectral constants of a graph pair")
    p.add_argument("graph")
    p.set_defaults(func=_cmd_analyze_graph)

    p = sub.add_parser("gen-data", help="generate per-agent dataset files")
    p.add_argument("--kind", choices=["quadratic", "trig"], required=True)
    p.add_argument("--agents", type=int, default=5)
    p.add_argument("--size", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="data")
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("validate-scheme", help="check scheme admissibility on a graph/objective")
    p.add_argument("--graph", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--objective", required=True)
    p.set_defaults(func=_cmd_validate_scheme)

    p = sub.add_parser("run", help="run the experiment described by a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="optional copy of the largest-horizon mean trace")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("privacy-budget", help="closed-form cumulative budget")
    p.add_argument("--graph", required=True)
    p.add_argument("--scheme", required=True)
    p.add_argument("--C", default="auto")
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--objective", help="needed when --C auto")
    p.add_argument("--increments-csv")
    p.set_defaults(func=_cmd_privacy_budget)

    p = sub.add_parser("bound-check", help="drift-recursion contraction and dominance")
    p.add_argument("--config", required=True)
    p.add_argument("--runs", type=int)
    p.set_defaults(func=_cmd_bound_check)

    p = sub.add_parser("sweep", help="sweep a noise exponent across values")
    p.add_argument("--config", required=True)
    p.add_argument("--param", default="p_noise")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.set_defaults(func=_cmd_sweep)
    return parser


# Exit status of each failure class that main reports; no class here subclasses another.
_EXIT_STATUS = ((ValidatorFailure, 1), (ValueError, 2), (EigensolverError, 2), (DivergenceError, 3), (OSError, 4))


def main(argv=None) -> int:
    """Run one subcommand; a failure exits with its class's status and one line on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for cls, _ in _EXIT_STATUS) as err:
        print(f"dpgt {args.command}: {err}", file=sys.stderr)
        return next(status for cls, status in _EXIT_STATUS if isinstance(err, cls))


if __name__ == "__main__":
    raise SystemExit(main())
