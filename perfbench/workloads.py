"""The benchmark's three batch workloads.

Each workload turns the benchmark seed into input documents (graph, scheme,
objective) using numpy and the reference module only, hands dpgt those
documents in ``setup``, and runs one job serially in this process in ``job``.
``expected`` computes the same outputs with the reference module, and
``failed_ops`` counts the operations whose output misses it, or misses the
values recorded from the seed commit, or fails a known answer (a finite
budget, a certified contraction, a coupled run below its bound).  An operation
is one (horizon, seed) run, or one audit check.

``short=True`` gives a reduced shape with the same structure, used by the
self-test.  ``expected_counts`` gives the closed-form number of calls the
traced run must see at each boundary.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

import reference as ref
from dpgt import configio, engine, experiments, graphs, objectives, privacy, recursion, schemes

#: Relative tolerance of every comparison against the reference values.
RTOL = 1e-9


def close(value, expected) -> bool:
    """|value - expected| <= RTOL * max|expected|, elementwise over arrays."""
    value = np.asarray(value, float)
    expected = np.asarray(expected, float)
    if value.shape != expected.shape or not np.isfinite(value).all():
        return False
    return expected.size == 0 or bool(np.abs(value - expected).max() <= RTOL * np.abs(expected).max())


def matches(got, want) -> bool:
    """True when every value in ``want`` is close to the same entry of ``got``."""
    if isinstance(want, dict):
        return all(matches(got[k], v) for k, v in want.items())
    if isinstance(want, list) and want and isinstance(want[0], dict):
        return len(got) == len(want) and all(matches(g, w) for g, w in zip(got, want))
    return close(got, want)


def dense_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """All-to-all pair with weights in [0.15, 0.25] and no self-loops."""
    R = rng.uniform(0.15, 0.25, (n, n))
    C = rng.uniform(0.15, 0.25, (n, n))
    np.fill_diagonal(R, 0.0)
    np.fill_diagonal(C, 0.0)
    return R, C


def rooted_pair(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sparse pair jointly rooted at agent 0: a random tree plus extra edges."""
    R = np.zeros((n, n))
    C = np.zeros((n, n))
    for i in range(1, n):
        R[i, rng.integers(0, i)] = rng.uniform(0.2, 1.0)
        C[rng.integers(0, i), i] = rng.uniform(0.2, 1.0)
    for M in (R, C):
        for _ in range(int(rng.integers(3, 9))):
            i, j = rng.integers(0, n, 2)
            if i != j:
                M[i, j] = rng.uniform(0.1, 1.0)
    return R, C


def graph_doc(R: np.ndarray, C: np.ndarray) -> dict:
    return {"schema_version": 1, "n": len(R), "R": R.tolist(), "C": C.tolist()}


def quadratic_doc(n: int, D: int, data_seed: int, A: np.ndarray, dvec: np.ndarray) -> dict:
    return {
        "schema_version": 1, "kind": "quadratic", "n_agents": n, "D": D,
        "data_seed": data_seed, "A": A.tolist(), "dvec": dvec.tolist(),
    }


def steps(horizons) -> int:
    return sum(K + 1 for K in horizons)


def m_of(scheme: dict, K: int) -> int:
    return ref.rates(scheme, K)["m"]


def ensemble_counts(n: int, horizons, seeds: int, scheme: dict) -> dict:
    """Closed-form call counts of run_ensemble over horizons with a noisy scheme."""
    runs = len(horizons) * seeds
    step_calls = seeds * steps(horizons)
    draws = n * (step_calls + runs)
    return {
        "engine.run_ensemble.calls": len(horizons),
        "engine.run.calls": runs,
        "engine.initialize.calls": runs,
        "engine.step.calls": step_calls,
        "engine.perturb.calls": step_calls,
        "engine.laplace_vector.calls": 2 * n * step_calls,
        "engine.sample_indices.calls": draws,
        "engine.keyed_generator.calls": 2 * n * step_calls + draws + n * runs,
        "engine.samples_drawn": sum(seeds * n * m_of(scheme, K) * (K + 2) for K in horizons),
        "objectives.grad_batch.calls": draws,
        "objectives.global_gradient_rows.calls": step_calls + runs,
        "objectives.global_value.calls": step_calls + runs,
    }


class EnsembleSmall:
    """experiments.run_experiment (the ``dpgt run`` path) on a generated config."""

    name = "ensemble_small"
    n, d, D = 5, 10, 200

    def __init__(self, seed: int, short: bool = False):
        rng = np.random.default_rng([seed, 1])
        self.horizons = (5, 10) if short else (25, 50, 100)
        self.runs = 3 if short else 20
        self.R, self.C = dense_pair(rng, self.n)
        self.data_seed = int(rng.integers(2**31))
        self.run_seed = int(rng.integers(2**31))
        self.A = np.eye(self.d)
        self.dvec = np.full(self.d, 3.0 / math.sqrt(self.d))
        self.obj_ref = ref.Quadratic(self.A, self.dvec, self.n, ref.Quadratic.datasets(self.n, self.D, self.data_seed))
        self.sc_ref = ref.spectral(self.R, self.C)
        self.scheme = ref.admissible_s2(self.sc_ref, self.obj_ref.L1_smooth, self.obj_ref.mu, 0.98, 1.0106, 0.93)
        self.ops = len(self.horizons) * self.runs
        self.seed_steps = self.runs * steps(self.horizons)
        self.shape = (
            f"dense n={self.n} pair, quadratic d={self.d}, D={self.D}, admissible S2 at 0.98 of its caps; "
            f"horizons {list(self.horizons)} x {self.runs} seeds through run_experiment"
        )

    def setup(self, workdir: Path):
        docs = {
            "graph.json": graph_doc(self.R, self.C),
            "scheme.json": self.scheme,
            "objective.json": quadratic_doc(self.n, self.D, self.data_seed, self.A, self.dvec),
            "config.json": {
                "graph": "graph.json", "scheme": "scheme.json", "objective": "objective.json",
                "horizons": list(self.horizons), "runs": self.runs, "seed": self.run_seed,
                "output_dir": "out",
            },
        }
        for name, doc in docs.items():
            (workdir / name).write_text(json.dumps(doc), encoding="utf-8")
        return experiments.ExperimentConfig.from_file(workdir / "config.json")

    def job(self, config) -> dict:
        return experiments.run_experiment(config)["horizons"]

    def expected(self) -> dict:
        seeds = range(self.run_seed, self.run_seed + self.runs)
        out = {}
        for K in self.horizons:
            out[str(K)] = ref.ensemble(self.R, self.C, self.obj_ref, self.scheme, K, seeds, self.sc_ref["v1"])
            out[str(K)]["eps_max"] = float(ref.epsilon(self.R, self.C, self.scheme, self.obj_ref.adjacency_bound(), K).max())
        return out

    def failed_ops(self, out: dict, exp: dict) -> dict:
        return {f"K={K}": self.runs for K in exp if not matches(out[K], exp[K])}

    def expected_counts(self) -> dict:
        H = len(self.horizons)
        counts = ensemble_counts(self.n, self.horizons, self.runs, self.scheme)
        counts.update({
            "experiments.run_experiment.calls": 1,
            "experiments.write_trace_csv.calls": H,
            "privacy.sensitivity_trace.calls": H,
            "privacy.epsilon.calls": H,
            "graphs.spectral_constants.calls": 1,
            "configio.load_json.calls": 4,
            "configio.dump_json.calls": 1,
        })
        return counts


class EnsembleBigdata:
    """engine.run_ensemble with a polynomial (S1) scheme on large datasets."""

    name = "ensemble_bigdata"
    n, d, D = 5, 10, 50_000

    def __init__(self, seed: int, short: bool = False):
        rng = np.random.default_rng([seed, 2])
        # a4 puts m at 2, 7, 25 and 100 over the four full horizons.
        self.horizons = (4, 8) if short else (10, 20, 40, 80)
        self.n_seeds = 1 if short else 2
        self.R, self.C = dense_pair(rng, self.n)
        self.data_seed = int(rng.integers(2**31))
        self.seeds = [int(s) for s in rng.integers(2**31, size=self.n_seeds)]
        self.A = np.eye(self.d)
        self.dvec = np.full(self.d, 3.0 / math.sqrt(self.d))
        self.scheme = {
            "schema_version": 1, "kind": "S1", "a1": 0.05, "a2": 0.4, "a3": 2.4, "a4": 0.0156,
            "p_alpha": 0.987, "p_beta": 0.69, "p_gamma": 0.997, "p_m": 2.0,
            "p_zeta": [0.1] * self.n, "p_eta": [0.1] * self.n,
        }
        self.ops = len(self.horizons) * self.n_seeds
        self.seed_steps = self.n_seeds * steps(self.horizons)
        ms = [m_of(self.scheme, K) for K in self.horizons]
        self.shape = (
            f"dense n={self.n} pair, quadratic d={self.d}, D={self.D} per agent, S1 steps with batch m {ms}; "
            f"horizons {list(self.horizons)} x {self.n_seeds} seeds through run_ensemble"
        )

    def setup(self, workdir: Path):
        gp = configio.graph_from_dict(graph_doc(self.R, self.C))
        scheme = configio.scheme_from_dict(self.scheme)
        obj = configio.objective_from_dict(quadratic_doc(self.n, self.D, self.data_seed, self.A, self.dvec))
        return gp, scheme, obj, graphs.spectral_constants(gp)

    def job(self, state) -> dict:
        gp, scheme, obj, sc = state
        out = {}
        for K in self.horizons:
            ens = engine.run_ensemble(gp, scheme, obj, K, self.seeds, sc=sc)
            out[str(K)] = {
                "final_grad_norm_sq_max": float(ens.mean_final_grad.max()),
                "final_gap": float(ens.mean_gap[-1]),
                "mean_v": ens.mean_v.tolist(),
            }
        return out

    def expected(self) -> dict:
        obj = ref.Quadratic(self.A, self.dvec, self.n, ref.Quadratic.datasets(self.n, self.D, self.data_seed))
        v1 = ref.spectral(self.R, self.C)["v1"]
        return {str(K): ref.ensemble(self.R, self.C, obj, self.scheme, K, self.seeds, v1) for K in self.horizons}

    def failed_ops(self, out: dict, exp: dict) -> dict:
        return {f"K={K}": self.n_seeds for K in exp if not matches(out[K], exp[K])}

    def expected_counts(self) -> dict:
        counts = ensemble_counts(self.n, self.horizons, self.n_seeds, self.scheme)
        counts["graphs.spectral_constants.calls"] = 1
        return counts


class Audit:
    """Closed-form analysis: spectral constants, budgets, certificates, coupled runs."""

    name = "audit"
    S1_BUDGET = {
        "schema_version": 1, "kind": "S1", "a1": 0.4, "a2": 0.4, "a3": 1.0, "a4": 4e-5,
        "p_alpha": 0.987, "p_beta": 0.69, "p_gamma": 0.997, "p_m": 2.0,
        "p_zeta": [0.1, 0.1], "p_eta": [0.1, 0.1],
    }
    S2_SCAN = {
        "schema_version": 1, "kind": "S2", "alpha": 0.1, "beta": 0.1, "gamma": 0.05,
        "p_m": 1.1, "p_zeta": [0.93, 0.93], "p_eta": [0.93, 0.93],
    }
    L_BIG, MU_BIG = 1.0, 0.5  # objective constants handed to validate_s2 on the n=256 pair

    def __init__(self, seed: int, short: bool = False):
        rng = np.random.default_rng([seed, 3])
        self.n_big = 16 if short else 256
        self.K_budget = 10**3 if short else 10**5
        self.scan = range(1, 41) if short else range(1, 401)
        self.n_sets = 2 if short else 10
        self.n_pairs = 2 if short else 5
        self.K_pair = 20 if short else 200
        self.R_big, self.C_big = dense_pair(rng, self.n_big)
        # Steps at about 0.4 of the pair's caps, which sit near 1 / (0.2 n).
        step = 2.0 / self.n_big
        self.s2_big = {
            "schema_version": 1, "kind": "S2", "alpha": step, "beta": step, "gamma": 0.04 * step,
            "p_m": 1.01, "p_zeta": [0.93] * self.n_big, "p_eta": [0.93] * self.n_big,
        }
        w = rng.uniform(0.8, 0.95)
        self.M2 = np.array([[0.0, w], [w, 0.0]])
        self.sets = []
        for _ in range(self.n_sets):
            R, C = rooted_pair(rng, 5)
            L = float(rng.uniform(1.2, 6.0))
            mu = float(rng.uniform(0.05, 1.0)) * L
            scheme = ref.admissible_s2(
                ref.spectral(R, C), L, mu, frac=float(rng.uniform(0.3, 0.98)),
                p_m=float(rng.uniform(1.01, 1.5)), p_noise=float(rng.uniform(0.5, 0.99)),
            )
            self.sets.append((R, C, L, mu, scheme))
        self.pairs = []
        for _ in range(self.n_pairs):
            n = int(rng.integers(2, 5))
            R, C = rooted_pair(rng, n)
            sc = ref.spectral(R, C)
            d = int(rng.integers(1, 4))
            D = int(rng.integers(10, 30))
            A = np.eye(d) * rng.uniform(0.4, 1.2)
            dvec = rng.normal(0.0, 1.0, d)
            scheme = {
                "schema_version": 1, "kind": "S2",
                "alpha": rng.uniform(0.3, 0.9) * sc["alpha_cap"], "beta": rng.uniform(0.3, 0.9) * sc["beta_cap"],
                "gamma": rng.uniform(0.005, 0.03), "p_m": rng.uniform(1.001, 1.01),
                "p_zeta": [0.9] * n, "p_eta": [0.9] * n,
            }
            swap = (int(rng.integers(0, n)), int(rng.integers(0, D)), float(rng.uniform(0.5, 3.0)))
            run_seed = int(rng.integers(2**31))
            self.pairs.append((R, C, quadratic_doc(n, D, int(rng.integers(2**31)), A, dvec), scheme, swap, run_seed))
        self.ops = 4 + self.n_sets + self.n_pairs
        self.seed_steps = self.n_pairs * self.K_pair
        self.shape = (
            f"dense n={self.n_big} pair (spectral constants + validate_s2); 2-agent S1 budget at K={self.K_budget}; "
            f"S2 budget scan K={self.scan.start}..{self.scan.stop - 1}; {self.n_sets} recursion certificates (n=5); "
            f"{self.n_pairs} coupled adjacent-dataset runs at K={self.K_pair}"
        )

    def setup(self, workdir: Path):
        st = {
            "big": configio.graph_from_dict(graph_doc(self.R_big, self.C_big)),
            "s2_big": configio.scheme_from_dict(self.s2_big),
            "two": configio.graph_from_dict(graph_doc(self.M2, self.M2)),
            "s1": configio.scheme_from_dict(self.S1_BUDGET),
            "s2": configio.scheme_from_dict(self.S2_SCAN),
            "sets": [
                (configio.graph_from_dict(graph_doc(R, C)), configio.scheme_from_dict(scheme), L, mu)
                for R, C, L, mu, scheme in self.sets
            ],
            "pairs": [],
        }
        for R, C, obj_doc, scheme, (agent, l0, shift), run_seed in self.pairs:
            obj = configio.objective_from_dict(obj_doc)
            samples = obj.datasets[agent].samples.copy()
            samples[l0, 0] += shift
            alt = list(obj.datasets)
            alt[agent] = objectives.make_dataset(agent, samples)
            st["pairs"].append((
                configio.graph_from_dict(graph_doc(R, C)), configio.scheme_from_dict(scheme),
                obj, list(obj.datasets), alt, agent, run_seed,
            ))
        return st

    def job(self, st) -> dict:
        out = {}
        sc = graphs.spectral_constants(st["big"])
        rep = schemes.validate_s2(st["s2_big"], sc, self.L_BIG, self.MU_BIG)
        out["spectral"] = {
            "alpha_cap": sc.alpha_cap, "beta_cap": sc.beta_cap, "r1": sc.r1, "r2": sc.r2,
            "v1": sc.v1.tolist(), "v2": sc.v2.tolist(),
        }
        out["validate_s2"] = {"Q1": rep.derived["Q1"], "Q2": rep.derived["Q2"]}

        sc2 = graphs.spectral_constants(st["two"])
        rep1 = schemes.validate_s1(st["s1"], sc2, 1.0)
        budget = privacy.epsilon(privacy.sensitivity_trace(st["two"], st["s1"], 1.0, self.K_budget), st["s1"], self.K_budget)
        out["s1_budget"] = {
            "eps": budget.eps.tolist(), "finite": budget.finiteness.overall, "theta": rep1.derived["theta"],
        }
        out["s2_scan"] = {
            "eps_max": [
                privacy.epsilon(privacy.sensitivity_trace(st["two"], st["s2"], 1.0, K), st["s2"], K).eps_max
                for K in self.scan
            ],
        }

        out["certificates"] = []
        for gp, scheme, L, mu in st["sets"]:
            sc_i = graphs.spectral_constants(gp)
            admissible = schemes.validate_s2(scheme, sc_i, L, mu).overall
            model = recursion.build_model(sc_i, scheme, recursion.ObjectiveConstants(L, mu, 1.0), K=20, d=8)
            out["certificates"].append({
                "admissible": admissible,
                "rho": recursion.contraction_check(model).rho,
                "certified": recursion.certificate_check(model).ok,
            })

        out["coupled"] = []
        for gp, scheme, obj, ds, alt, agent, run_seed in st["pairs"]:
            C_adj = privacy.adjacency_constant(obj, ds[agent], alt[agent])
            bound = privacy.sensitivity_trace(gp, scheme, C_adj, self.K_pair)
            res = privacy.coupled_pair_run(gp, scheme, obj, ds, alt, K=self.K_pair, seed=run_seed)
            out["coupled"].append({
                "slack": min(float((bound.dx - res.dx_measured).min()), float((bound.dy - res.dy_measured).min())),
                "dx": res.dx_measured.tolist(),
                "dy": res.dy_measured.tolist(),
            })
        return out

    def expected(self) -> dict:
        sc = ref.spectral(self.R_big, self.C_big)
        q1, q2 = ref.q_caps(sc, self.L_BIG, self.MU_BIG)
        s1 = self.S1_BUDGET
        pz, pe = max(max(s1["p_zeta"]), 0.0), max(max(s1["p_eta"]), 0.0)
        exp = {
            "spectral": {k: sc[k] for k in ("alpha_cap", "beta_cap", "r1", "r2", "v1", "v2")},
            "validate_s2": {"Q1": q1, "Q2": q2},
            "s1_budget": {
                "eps": ref.epsilon(self.M2, self.M2, s1, 1.0, self.K_budget),
                "theta": min(
                    s1["p_m"] - s1["p_beta"],
                    2.0 * s1["p_alpha"] - s1["p_beta"] - 2.0 * pz,
                    2.0 * s1["p_beta"] - 2.0 * pe,
                ),
            },
            "s2_scan": {"eps_max": [float(ref.epsilon(self.M2, self.M2, self.S2_SCAN, 1.0, K).max()) for K in self.scan]},
            "coupled": [],
        }
        for R, C, obj_doc, scheme, (agent, l0, shift), run_seed in self.pairs:
            n = obj_doc["n_agents"]
            samples = ref.Quadratic.datasets(n, obj_doc["D"], obj_doc["data_seed"])
            alt = [s.copy() for s in samples]
            alt[agent][l0, 0] += shift
            obj = ref.Quadratic(obj_doc["A"], obj_doc["dvec"], n, samples)
            dx, dy = ref.coupled(R, C, obj, alt, scheme, self.K_pair, run_seed)
            exp["coupled"].append({"dx": dx, "dy": dy})
        return exp

    def failed_ops(self, out: dict, exp: dict) -> dict:
        failed = {}
        for check in ("spectral", "validate_s2", "s1_budget", "s2_scan"):
            if check in exp and not matches(out[check], exp[check]):
                failed[check] = 1
        if not out["s1_budget"]["finite"]:
            failed["s1_budget"] = 1
        for i, c in enumerate(out["certificates"]):
            if not (c["admissible"] and c["rho"] < 1.0 and c["certified"]):
                failed[f"certificate {i}"] = 1
        for i, (c, want) in enumerate(zip(out["coupled"], exp.get("coupled", [{}] * len(out["coupled"])))):
            if c["slack"] < 0.0 or not matches(c, want):
                failed[f"coupled {i}"] = 1
        return failed

    def expected_counts(self) -> dict:
        n_spectral = 2 + self.n_sets
        agents = [doc["n_agents"] for _, _, doc, _, _, _ in self.pairs]
        laplace = sum(2 * n * self.K_pair for n in agents)
        draws = sum(n * (self.K_pair + 1) for n in agents)
        return {
            "graphs.spectral_constants.calls": n_spectral,
            "graphs.spectrum.calls": 4 * n_spectral,
            "graphs.check_connectivity.calls": n_spectral,
            "schemes.validate_s1.calls": 1,
            "schemes.validate_s2.calls": 1 + self.n_sets,
            "privacy.sensitivity_trace.calls": 1 + len(self.scan) + self.n_pairs,
            "privacy.epsilon.calls": 1 + len(self.scan),
            "privacy.coupled_pair_run.calls": self.n_pairs,
            "recursion.build_model.calls": self.n_sets,
            "recursion.contraction_check.calls": self.n_sets,
            "recursion.certificate_check.calls": self.n_sets,
            "engine.step.calls": 0,
            "engine.laplace_vector.calls": laplace,
            "engine.sample_indices.calls": draws,
            "engine.keyed_generator.calls": laplace + draws + sum(agents),
            "objectives.grad_batch.calls": 2 * draws,
        }


WORKLOADS = {w.name: w for w in (EnsembleSmall, EnsembleBigdata, Audit)}
