"""End-to-end experiment orchestration: ensembles, metrics, fits, persistence.

Because the schedules are indexed by the maximum iteration number, each entry
of the horizon list is a complete independent execution; cross-horizon decay
is read off the final-state statistics of those executions, never from one
long trajectory.  Bundles are deterministic: the same config file produces
byte-identical CSVs and a summary that references every input by hash.
"""

from __future__ import annotations

import dataclasses
import math
import numbers
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path

import numpy as np

from . import configio
from .engine import EnsembleResult, run_horizons
from .graphs import spectral_constants
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


_CONFIG_REQUIRED_KEYS = ("graph", "scheme", "objective", "horizons", "output_dir")
_CONFIG_OPTIONAL_KEYS = ("phi", "baseline", "force", "adjacency_C")
# The alternative to an explicit "seeds" list: a count and a first seed.
_CONFIG_SEED_KEYS = ("runs", "seed")


@dataclass(frozen=True)
class ExperimentConfig:
    graph_file: str
    scheme_file: str
    objective_file: str
    horizons: tuple[int, ...]
    runs: int | None  # with seed, the seeds seed .. seed + runs - 1; None with an explicit list
    seed: int | None
    output_dir: str
    phi: float | None = None
    baseline: bool = False
    force: bool = False
    adjacency_C: str = "auto"  # C is always the closed-form swap bound
    seeds: tuple[int, ...] | None = None  # explicit list overrides seed+runs

    def __post_init__(self):
        integers = {"horizons": self.horizons, "seeds": self.seeds or (), "runs": (self.runs,), "seed": (self.seed,)}
        for key, values in integers.items():
            for v in values:
                if v is not None and (isinstance(v, bool) or not isinstance(v, numbers.Integral)):
                    raise ValueError(f"config: {key} takes integers only, got {v!r}")
        if self.seeds is None and (self.runs is None or self.seed is None):
            raise ValueError("config: give an explicit seeds list, or both runs and seed")
        if self.runs is not None and self.runs < 1:
            raise ValueError(f"config: runs must be >= 1, got {self.runs}")
        if self.seeds is not None and not self.seeds:
            raise ValueError("config: seeds must be a nonempty list, got []")
        if self.adjacency_C != "auto":
            raise ValueError(f"config: adjacency_C takes \"auto\" (the swap bound) only, got {self.adjacency_C!r}")
        h = self.horizons
        if not h or h[0] < 0 or any(a >= b for a, b in zip(h, h[1:])):
            raise ValueError(f"config: horizons must be nonempty, nonnegative and strictly ascending, got {list(h)}")

    def seed_list(self) -> list[int]:
        if self.seeds is not None:
            return [int(s) for s in self.seeds]
        return [self.seed + r for r in range(self.runs)]

    @staticmethod
    def from_file(path) -> "ExperimentConfig":
        """Load a run config; a wrong schema_version, an unknown key or a missing one is an error.

        ``seeds`` and the pair ``runs``/``seed`` are alternatives: without
        ``seeds``, both of the pair are required.  Those keys and ``horizons``
        take JSON integers only, and the horizons must ascend strictly.
        """
        doc = configio.load_json(path)
        seed_keys = ("seeds",) if "seeds" in doc else _CONFIG_SEED_KEYS
        configio.check_document(
            doc, "config", _CONFIG_REQUIRED_KEYS + seed_keys, _CONFIG_OPTIONAL_KEYS + ("seeds", *_CONFIG_SEED_KEYS)
        )
        for key in ("horizons", "seeds"):
            if key in doc and not isinstance(doc[key], list):
                raise ValueError(f"config: {key} must be a list of integers, got {doc[key]!r}")
        base = Path(path).parent
        return ExperimentConfig(
            graph_file=str(base / doc["graph"]),
            scheme_file=str(base / doc["scheme"]),
            objective_file=str(base / doc["objective"]),
            horizons=tuple(doc["horizons"]),
            runs=doc.get("runs"),
            seed=doc.get("seed"),
            output_dir=str(base / doc["output_dir"]),
            phi=doc.get("phi"),
            baseline=bool(doc.get("baseline", False)),
            force=bool(doc.get("force", False)),
            adjacency_C=doc.get("adjacency_C", "auto"),
            seeds=tuple(doc["seeds"]) if "seeds" in doc else None,
        )


def _eps_cum(budget: BudgetReport):
    """The running sum of each k's largest increment, as one ``np.cumsum`` over the horizon, block by block."""
    total = 0.0
    for _, block in budget.increment_blocks():
        top = block.max(axis=0)
        top[0] += total
        cum = np.cumsum(top)
        total = cum[-1]
        yield from cum.tolist()


def write_trace_csv(path, ens: EnsembleResult, budget: BudgetReport | None) -> None:
    """Mean-trace CSV, one row per post-step iteration k = 1..K+1.

    ``grad_norm_sq`` is the mean over agents; ``eps_cum`` (only given a noisy
    run's ``budget``) is the largest per-agent budget spent before reaching
    state k, streamed from the budget's increment blocks.
    """
    header = ["k", "agent", "consensus_x", "consensus_y", "grad_norm_sq", "gap", "samples_cum"]
    columns = [
        range(1, ens.K + 2), repeat("mean", ens.K + 1), ens.mean_consensus_x, ens.mean_consensus_y,
        (row.mean() for row in ens.mean_grad_norm_sq), ens.mean_gap, map(int, ens.samples_cum),
    ]
    if budget is not None:
        header.append("eps_cum")
        columns.append(_eps_cum(budget))
    configio.write_csv(path, header, zip(*columns))


def _validate(scheme: SchemeParams, sc, obj: Objective, force: bool) -> dict:
    report = validate(scheme, sc, obj.L1_smooth, obj.mu)
    if not report.overall and not force:
        failing = [e.name for e in report.entries if not e.satisfied]
        raise ValidatorFailure(f"scheme fails admissibility checks: {failing}")
    return report.to_dict()


def run_experiment(config: ExperimentConfig) -> dict:
    """Run every horizon, write traces and budget files, return the summary.

    The horizons run through ``engine.run_horizons``: a large sweep as lanes
    of one chunk, with the results and errors of one ensemble per horizon.
    A horizon's trace is written before a later horizon's error is raised.
    """
    gp, scheme, obj = configio.load_inputs(config.graph_file, config.scheme_file, config.objective_file)
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
        "seeds": config.seed_list(),
        "validator": _validate(scheme, sc, obj, config.force),
        # Built once: every horizon's tail order below reads this report.
        "budget_finiteness": (finiteness := check_budget_finiteness(scheme, gp)).to_dict(),
        "horizons": {},
    }

    C = summary["adjacency_C"] = swap_bound(obj, obj.datasets)

    final_by_K: dict[int, np.ndarray] = {}
    for ens in run_horizons(gp, scheme, obj, config.horizons, summary["seeds"], sc=sc, noise_off=config.baseline):
        K = ens.K
        budget: BudgetReport | None = None
        if not config.baseline:
            budget = epsilon(sensitivity_trace(gp, scheme, C, K), scheme, K)
        write_trace_csv(out / f"trace_K{K}.csv", ens, budget)
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
            entry["eps_tail_order"] = str(finiteness.derived.get("tail_order", ""))
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
