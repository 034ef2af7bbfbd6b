"""End-to-end experiment orchestration: ensembles, metrics, fits, persistence.

Because the schedules are indexed by the maximum iteration number, each entry
of the horizon list is a complete independent execution; cross-horizon decay
is read off the final-state statistics of those executions, never from one
long trajectory.  Bundles are deterministic: the same config file produces
byte-identical CSVs and a summary that references every input by hash.
"""

from __future__ import annotations

import csv
import dataclasses
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import configio
from .engine import EnsembleResult, run_ensemble
from .graphs import GraphPair, spectral_constants
from .objectives import Objective
from .privacy import BudgetReport, epsilon, sensitivity_trace, swap_bound
from .schemes import SchemeParams, check_budget_finiteness, rates_at, validate

__all__ = [
    "RateFit",
    "FitError",
    "ValidatorFailure",
    "ExperimentConfig",
    "SuboptimalResult",
    "fit_rate",
    "suboptimal_horizon",
    "auto_adjacency_constant",
    "write_trace_csv",
    "run_experiment",
    "run_sweep",
]


class FitError(ValueError):
    """Rate fit rejected (window too short or too many non-positive values)."""


class ValidatorFailure(RuntimeError):
    """Scheme failed admissibility validation and --force was not given."""


@dataclass(frozen=True)
class RateFit:
    model: str  # "power" | "exponential"
    exponent: float | None  # power: slope of log value vs log k
    base: float | None  # exponential: per-step factor
    r2: float
    k_lo: int
    k_hi: int


def _r2(y: np.ndarray, yhat: np.ndarray) -> float:
    ss_res = float(((y - yhat) ** 2).sum())
    ss_tot = float(((y - y.mean()) ** 2).sum())
    if ss_tot == 0.0:
        return 1.0 if ss_res == 0.0 else 0.0
    return max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def fit_rate(ks, values, model: str = "power", drop_frac: float = 0.2) -> RateFit:
    """Least-squares fit of log(value) against log k (power) or k (exponential).

    The first ``drop_frac`` of the window is discarded as transient.
    Non-positive values are masked; more than 20% masked aborts the fit.
    """
    ks = np.asarray(ks, dtype=float)
    values = np.asarray(values, dtype=float)
    if ks.shape != values.shape or ks.size < 4:
        raise FitError("need matching arrays with at least 4 points")
    start = int(math.floor(drop_frac * ks.size))
    ks, values = ks[start:], values[start:]
    pos = values > 0
    if pos.size and (1.0 - pos.mean()) > 0.2:
        raise FitError(f"{(~pos).sum()} of {pos.size} window values are non-positive")
    ks, values = ks[pos], values[pos]
    if ks.size < 2:
        raise FitError("window too short after masking")
    logv = np.log(values)
    if model == "power":
        xs = np.log(ks)
    elif model == "exponential":
        xs = ks
    else:
        raise ValueError(f"unknown model {model!r}")
    slope, intercept = np.polyfit(xs, logv, 1)
    r2 = _r2(logv, slope * xs + intercept)
    return RateFit(
        model=model,
        exponent=float(slope) if model == "power" else None,
        base=float(math.exp(slope)) if model == "exponential" else None,
        r2=r2,
        k_lo=int(ks[0]),
        k_hi=int(ks[-1]),
    )


@dataclass(frozen=True)
class SuboptimalResult:
    reached: bool
    horizon: int | None
    oracle_count: float | None  # per-agent sampled-gradient count


def suboptimal_horizon(final_grad_by_K: dict, phi: float, scheme: SchemeParams) -> SuboptimalResult:
    """Smallest executed horizon whose final gradient estimate beats phi for all agents.

    The oracle count follows the executed run's schedule: the horizon-K run
    draws its constant batch m_K once per iteration k = 0..K.
    """
    if phi <= 0:
        raise ValueError("phi must be positive")
    for K in sorted(final_grad_by_K):
        worst = float(np.max(final_grad_by_K[K]))
        if worst < phi:
            m = rates_at(scheme, K).m
            return SuboptimalResult(reached=True, horizon=K, oracle_count=(K + 1) * m)
    return SuboptimalResult(reached=False, horizon=None, oracle_count=None)


def auto_adjacency_constant(obj: Objective) -> float:
    """Worst-case gradient-swap constant over every agent's own sample pool."""
    return swap_bound(obj, obj.datasets)


_CONFIG_KEYS = (
    "graph", "scheme", "objective", "horizons", "runs", "seed", "output_dir",
    "phi", "baseline", "force", "adjacency_C", "seeds",
)


@dataclass(frozen=True)
class ExperimentConfig:
    graph_file: str
    scheme_file: str
    objective_file: str
    horizons: tuple[int, ...]
    runs: int
    seed: int
    output_dir: str
    phi: float | None = None
    baseline: bool = False
    force: bool = False
    adjacency_C: float | str = "auto"
    seeds: tuple[int, ...] | None = None  # explicit list overrides seed+runs

    def __post_init__(self):
        if self.runs < 1:
            raise ValueError("runs must be >= 1")
        if list(self.horizons) != sorted(self.horizons) or min(self.horizons) < 0:
            raise ValueError("horizons must be nonnegative and ascending")

    def seed_list(self) -> list[int]:
        if self.seeds is not None:
            return [int(s) for s in self.seeds]
        return [self.seed + r for r in range(self.runs)]

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        """Load a run config; a wrong schema_version or an unknown key is an error."""
        doc = configio.load_json(path)
        configio.check_document(doc, "config", _CONFIG_KEYS)
        base = Path(path).parent
        return ExperimentConfig(
            graph_file=str(base / doc["graph"]),
            scheme_file=str(base / doc["scheme"]),
            objective_file=str(base / doc["objective"]),
            horizons=tuple(int(k) for k in doc["horizons"]),
            runs=int(doc["runs"]),
            seed=int(doc["seed"]),
            output_dir=str(base / doc["output_dir"]),
            phi=doc.get("phi"),
            baseline=bool(doc.get("baseline", False)),
            force=bool(doc.get("force", False)),
            adjacency_C=doc.get("adjacency_C", "auto"),
            seeds=tuple(doc["seeds"]) if "seeds" in doc else None,
        )


def write_trace_csv(path, ens: EnsembleResult, eps_increments: np.ndarray | None) -> None:
    """Mean-trace CSV, one row per post-step iteration k = 1..K+1.

    ``grad_norm_sq`` is the mean over agents; ``eps_cum`` (present only for
    noisy runs) is the largest per-agent budget spent before reaching state k.
    """
    K = ens.K
    eps_cum = None
    if eps_increments is not None:
        eps_cum = np.cumsum(eps_increments.max(axis=0))
    header = ["k", "agent", "consensus_x", "consensus_y", "grad_norm_sq", "gap", "samples_cum"]
    if eps_cum is not None:
        header.append("eps_cum")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for j in range(K + 1):
            row = [
                j + 1,
                "mean",
                f"{ens.mean_consensus_x[j]:.12g}",
                f"{ens.mean_consensus_y[j]:.12g}",
                f"{ens.mean_grad_norm_sq[j].mean():.12g}",
                f"{ens.mean_gap[j]:.12g}",
                int(ens.samples_cum[j]),
            ]
            if eps_cum is not None:
                row.append(f"{eps_cum[j]:.12g}")
            writer.writerow(row)


def _validate(scheme: SchemeParams, sc, obj: Objective, force: bool) -> dict:
    report = validate(scheme, sc, obj.L1_smooth, obj.mu)
    if not report.overall and not force:
        failing = [e.name for e in report.entries if not e.satisfied]
        raise ValidatorFailure(f"scheme fails admissibility checks: {failing}")
    return report.to_dict()


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every horizon, write traces and budget files, return the summary."""
    gp: GraphPair = configio.graph_from_dict(configio.load_json(config.graph_file))
    scheme = configio.scheme_from_dict(configio.load_json(config.scheme_file))
    obj = configio.objective_from_dict(
        configio.load_json(config.objective_file), Path(config.objective_file).parent
    )
    sc = spectral_constants(gp)
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)

    summary: dict = {
        "schema_version": configio.SCHEMA_VERSION,
        "inputs": {
            "graph": configio.file_sha256(config.graph_file),
            "scheme": configio.file_sha256(config.scheme_file),
            "objective": configio.file_sha256(config.objective_file),
        },
        "config": dataclasses.asdict(config),
        "validator": _validate(scheme, sc, obj, config.force),
        "budget_finiteness": check_budget_finiteness(scheme, gp).to_dict(),
        "horizons": {},
    }

    C = config.adjacency_C
    C = auto_adjacency_constant(obj) if C == "auto" else float(C)
    summary["adjacency_C"] = C

    final_by_K: dict[int, np.ndarray] = {}
    for K in config.horizons:
        ens = run_ensemble(gp, scheme, obj, K, config.seed_list(), sc=sc, noise_off=config.baseline)
        budget: BudgetReport | None = None
        if not config.baseline:
            budget = epsilon(sensitivity_trace(gp, scheme, C, K), scheme, K)
        write_trace_csv(out / f"trace_K{K}.csv", ens, budget.increments if budget else None)
        final_by_K[K] = ens.mean_final_grad
        entry = {
            "runs": ens.n_runs,
            "final_grad_norm_sq_per_agent": ens.mean_final_grad.tolist(),
            "final_grad_norm_sq_max": float(ens.mean_final_grad.max()),
            "final_grad_se_max": float(ens.se_final_grad.max()),
            "final_gap": float(ens.mean_gap[-1]),
            "samples_per_agent": int(ens.samples_cum[-1]),
        }
        if budget is not None:
            entry["eps_per_agent"] = budget.eps.tolist()
            entry["eps_max"] = budget.eps_max
            entry["eps_tail_order"] = budget.tail_order
        try:
            fit = fit_rate(np.arange(1, K + 2), ens.mean_max_grad, model=scheme.fit_model)
            entry["within_horizon_fit"] = dataclasses.asdict(fit)
        except FitError as exc:
            entry["within_horizon_fit"] = {"error": str(exc)}
        summary["horizons"][str(K)] = entry

    if len(config.horizons) >= 4:
        ks = np.array([K + 1 for K in config.horizons], dtype=float)
        finals = np.array([float(final_by_K[K].max()) for K in config.horizons])
        try:
            fit = fit_rate(ks, finals, model="power", drop_frac=0.0)
            summary["cross_horizon_fit"] = dataclasses.asdict(fit)
        except FitError as exc:
            summary["cross_horizon_fit"] = {"error": str(exc)}

    if config.phi is not None:
        res = suboptimal_horizon(final_by_K, float(config.phi), scheme)
        summary["suboptimal"] = dataclasses.asdict(res)

    configio.dump_json(summary, out / "summary.json")
    return summary


def run_sweep(config: ExperimentConfig, param: str, values) -> dict:
    """Repeat the experiment with one noise exponent swept across values.

    ``param`` is "p_zeta", "p_eta", or "p_noise" (both at once); each value
    replaces the per-agent array with a constant.  Outputs land in per-value
    subdirectories plus a comparison summary.
    """
    if param not in ("p_zeta", "p_eta", "p_noise"):
        raise ValueError("sweep parameter must be p_zeta, p_eta, or p_noise")
    base_scheme = configio.scheme_from_dict(configio.load_json(config.scheme_file))
    n = base_scheme.n_agents
    out = Path(config.output_dir)
    comparison: dict = {
        "schema_version": configio.SCHEMA_VERSION,
        "param": param,
        "values": list(map(float, values)),
        "results": [],
    }
    for val in values:
        fields = {}
        if param in ("p_zeta", "p_noise"):
            fields["p_zeta"] = tuple([float(val)] * n)
        if param in ("p_eta", "p_noise"):
            fields["p_eta"] = tuple([float(val)] * n)
        scheme = dataclasses.replace(base_scheme, **fields)
        subdir = out / f"{param}_{val:g}"
        scheme_file = subdir / "scheme.json"
        configio.dump_json(configio.scheme_to_dict(scheme), scheme_file)
        sub_config = dataclasses.replace(
            config, scheme_file=str(scheme_file), output_dir=str(subdir)
        )
        summary = run_experiment(sub_config)
        last = str(max(config.horizons))
        comparison["results"].append(
            {
                "value": float(val),
                "final_grad_norm_sq_max": summary["horizons"][last]["final_grad_norm_sq_max"],
                "eps_max": summary["horizons"][last].get("eps_max"),
            }
        )
    configio.dump_json(comparison, out / "sweep_summary.json")
    return comparison
