import json
import math
import os
import shutil

import numpy as np
import pytest

from dpgt import configio, engine, experiments
from dpgt.experiments import (
    ExperimentConfig,
    FitError,
    ValidatorFailure,
    fit_rate,
    run_experiment,
    run_sweep,
    suboptimal_horizon,
)
from dpgt.objectives import generate_quadratic_datasets, make_quadratic
from dpgt.privacy import swap_bound
from dpgt.schemes import S1Params, S2Params


class TestFitRate:
    def test_planted_power_law(self):
        ks = np.arange(10, 500)
        vals = 3.0 * ks**-0.5
        fit = fit_rate(ks, vals, model="power")
        assert fit.exponent == pytest.approx(-0.5, abs=0.01)
        assert fit.r2 > 0.999

    def test_planted_exponential(self):
        ks = np.arange(1, 400)
        vals = 2.0 * 0.97**ks
        fit = fit_rate(ks, vals, model="exponential")
        assert fit.base == pytest.approx(0.97, abs=0.002)
        assert fit.r2 > 0.999

    def test_noisy_planted_power_law(self):
        rng = np.random.default_rng(0)
        ks = np.arange(5, 300)
        vals = 3.0 * ks**-0.5 * np.exp(rng.normal(0, 0.02, ks.size))
        fit = fit_rate(ks, vals, model="power")
        assert fit.exponent == pytest.approx(-0.5, abs=0.02)

    def test_transient_window_dropped(self):
        ks = np.arange(1, 200)
        vals = 0.9**ks + 0.0
        vals[:20] = 50.0  # corrupted head falls inside the dropped 20%
        fit = fit_rate(ks, vals, model="exponential", drop_frac=0.2)
        assert fit.base == pytest.approx(0.9, abs=0.002)
        assert fit.k_lo >= 39

    def test_too_many_nonpositive_values_rejected(self):
        ks = np.arange(1, 100)
        vals = np.ones(99)
        vals[30:80] = -1.0
        with pytest.raises(FitError):
            fit_rate(ks, vals, model="power")


class TestSuboptimalHorizon:
    def scheme(self):
        return S2Params(alpha=0.1, beta=0.1, gamma=0.01, p_m=1.02, p_zeta=(0.9,), p_eta=(0.9,))

    def test_target_above_initial_reached_at_zero(self):
        res = suboptimal_horizon({0: np.array([0.5, 0.4]), 50: np.array([0.1, 0.1])}, 1.0, self.scheme())
        assert res.reached and res.horizon == 0
        assert res.oracle_count == 2  # one unit batch at K = 0... m_0 = floor(1)+1

    def test_all_agents_must_meet_target(self):
        res = suboptimal_horizon({10: np.array([0.01, 0.5]), 20: np.array([0.01, 0.02])}, 0.05, self.scheme())
        assert res.horizon == 20

    def test_monotone_in_target(self):
        finals = {K: np.array([1.0 / (K + 1)]) for K in (0, 10, 50, 100, 400)}
        sch = self.scheme()
        horizons = [suboptimal_horizon(finals, phi, sch).horizon for phi in (0.5, 0.05, 0.005)]
        assert horizons[0] <= horizons[1] <= horizons[2]

    def test_unreached_reported_without_extrapolation(self):
        res = suboptimal_horizon({10: np.array([0.5])}, 1e-6, self.scheme())
        assert not res.reached and res.horizon is None and res.oracle_count is None

    def test_oracle_count_follows_executed_schedule(self):
        sch = self.scheme()
        res = suboptimal_horizon({100: np.array([0.001])}, 0.01, sch)
        from dpgt.schemes import rates_at

        assert res.oracle_count == 101 * rates_at(sch, 100).m


class TestAutoAdjacency:
    def test_matches_worst_sample_norm(self):
        ds = generate_quadratic_datasets(3, 30, seed=2)
        obj = make_quadratic(np.eye(4), np.ones(4), 3, ds)
        worst = max(np.abs(d.samples). max() for d in ds)
        assert swap_bound(obj, obj.datasets) == pytest.approx(3.0 * 2.0 * worst)


@pytest.fixture()
def experiment_dir(tmp_path):
    from dpgt.graphs import build_graph_pair, spectral_constants
    from dpgt.schemes import q_caps

    n, d = 3, 2
    rng = np.random.default_rng(5)
    R = rng.uniform(0.2, 0.4, (n, n))
    np.fill_diagonal(R, 0.0)
    C = rng.uniform(0.2, 0.4, (n, n))
    np.fill_diagonal(C, 0.0)
    configio.dump_json(
        {"schema_version": 1, "n": n, "R": R.tolist(), "C": C.tolist()}, tmp_path / "graph.json"
    )
    sc = spectral_constants(build_graph_pair(R, C))
    L, mu = 1.0 / 6.0, 2.0  # declared constants of the objective below
    q1, q2 = q_caps(sc, L, mu)
    beta = 0.8 * sc.beta_cap
    alpha = 0.8 * min(
        sc.alpha_cap,
        math.sqrt(2) * sc.v1_dot_v2 * sc.r2 * beta / (12 * sc.rhoL1 * sc.norm_v1 * L),
    )
    gamma = 0.8 * min(1.0, n / (20 * sc.v1_dot_v2 * L), q1 * alpha, q2 * beta)
    configio.dump_json(
        {
            "schema_version": 1,
            "kind": "S2",
            "alpha": alpha,
            "beta": beta,
            "gamma": gamma,
            "p_m": 1.02,
            "p_zeta": [0.93] * n,
            "p_eta": [0.93] * n,
        },
        tmp_path / "scheme.json",
    )
    configio.dump_json(
        {
            "schema_version": 1,
            "kind": "quadratic",
            "n_agents": n,
            "D": 40,
            "data_seed": 4,
            "A": np.eye(d).tolist(),
            "dvec": [1.0, 1.0],
        },
        tmp_path / "objective.json",
    )
    configio.dump_json(
        {
            "schema_version": 1,
            "graph": "graph.json",
            "scheme": "scheme.json",
            "objective": "objective.json",
            "horizons": [0, 30, 60],
            "runs": 4,
            "seed": 17,
            "output_dir": "out",
            "phi": 0.5,
        },
        tmp_path / "config.json",
    )
    return tmp_path


class TestRunExperiment:
    def test_bundle_layout_and_determinism(self, experiment_dir):
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        summary1 = run_experiment(config)
        first = {
            p.name: p.read_bytes()
            for p in sorted((experiment_dir / "out").glob("*.csv"))
        }
        summary2 = run_experiment(config)
        second = {
            p.name: p.read_bytes()
            for p in sorted((experiment_dir / "out").glob("*.csv"))
        }
        assert first.keys() == second.keys() and len(first) == 3
        for name in first:
            assert first[name] == second[name]
        assert summary1["horizons"] == summary2["horizons"]

    def test_pooled_and_serial_bundles_are_byte_identical(self, experiment_dir, monkeypatch):
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        out = experiment_dir / "out"
        forks = []
        fork = engine._run_forked
        monkeypatch.setattr(engine, "_run_forked", lambda fn, blocks: forks.append(len(blocks)) or fork(fn, blocks))
        monkeypatch.setattr(engine, "_POOL_MIN_S", 0.0)  # pool the sweep of this small config
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)

        def bundle() -> dict:
            run_experiment(config)
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        first = bundle()
        second = bundle()
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        serial = bundle()
        assert forks == [2] * 2  # one fork round per sweep of three horizons, pooled twice, then serial
        assert sorted(first) == ["summary.json", "trace_K0.csv", "trace_K30.csv", "trace_K60.csv"]
        assert first == second == serial

    def test_csv_shape_and_finiteness(self, experiment_dir):
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        run_experiment(config)
        for K in (0, 30, 60):
            lines = (experiment_dir / "out" / f"trace_K{K}.csv").read_text().strip().splitlines()
            assert len(lines) == K + 2  # header + K+1 records
            header = lines[0].split(",")
            assert header[-1] == "eps_cum"
            for row in lines[1:]:
                cells = row.split(",")
                for cell in cells[2:]:
                    assert math.isfinite(float(cell))

    def test_summary_hashes_and_budget_consistency(self, experiment_dir):
        from dpgt.privacy import epsilon, sensitivity_trace

        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        summary = run_experiment(config)
        for key in ("graph", "scheme", "objective"):
            assert summary["inputs"][key] == configio.file_sha256(getattr(config, f"{key}_file"))
        gp = configio.graph_from_dict(configio.load_json(config.graph_file))
        scheme = configio.scheme_from_dict(configio.load_json(config.scheme_file))
        C = summary["adjacency_C"]
        expect = epsilon(sensitivity_trace(gp, scheme, C, 60), scheme, 60)
        assert summary["horizons"]["60"]["eps_per_agent"] == pytest.approx(expect.eps.tolist())

    def test_suboptimal_entry_present(self, experiment_dir):
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        summary = run_experiment(config)
        assert "suboptimal" in summary
        assert summary["suboptimal"]["reached"] in (True, False)

    def test_baseline_dominates_private_run(self, experiment_dir):
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        priv = run_experiment(config)
        base = run_experiment(
            ExperimentConfig(
                **{
                    **{f.name: getattr(config, f.name) for f in config.__dataclass_fields__.values()},
                    "baseline": True,
                    "output_dir": str(experiment_dir / "out_base"),
                }
            )
        )
        for K in ("30", "60"):
            b = base["horizons"][K]
            p = priv["horizons"][K]
            slack = 2.0 * (b["final_grad_se_max"] + p["final_grad_se_max"])
            assert b["final_grad_norm_sq_max"] <= p["final_grad_norm_sq_max"] + slack
        assert "eps_max" not in base["horizons"]["30"]

    def test_private_horizon_not_earlier_than_baseline(self, experiment_dir):
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        priv = run_experiment(config)
        base = run_experiment(
            ExperimentConfig(
                **{
                    **{f.name: getattr(config, f.name) for f in config.__dataclass_fields__.values()},
                    "baseline": True,
                    "output_dir": str(experiment_dir / "out_base2"),
                }
            )
        )
        scheme = configio.scheme_from_dict(configio.load_json(config.scheme_file))
        finals_p = {
            int(K): np.array(v["final_grad_norm_sq_per_agent"]) for K, v in priv["horizons"].items()
        }
        finals_b = {
            int(K): np.array(v["final_grad_norm_sq_per_agent"]) for K, v in base["horizons"].items()
        }
        for phi in (0.5, 0.2, 0.1):
            rp = suboptimal_horizon(finals_p, phi, scheme)
            rb = suboptimal_horizon(finals_b, phi, scheme)
            if rp.reached and rb.reached:
                assert rp.horizon >= rb.horizon

    def test_explicit_seed_list_respected(self, experiment_dir):
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        explicit = ExperimentConfig(
            **{
                **{f.name: getattr(config, f.name) for f in config.__dataclass_fields__.values()},
                "seeds": (17, 18, 19, 20),
                "output_dir": str(experiment_dir / "out_seeds"),
            }
        )
        assert explicit.seed_list() == [17, 18, 19, 20]
        a = run_experiment(config)
        b = run_experiment(explicit)
        assert a["horizons"] == b["horizons"]  # same seeds either way

    def test_summary_records_the_seeds_run(self, experiment_dir):
        # The explicit list overrides runs = 4, and the summary names the seeds run.
        doc = configio.load_json(experiment_dir / "config.json")
        doc.update(horizons=[0, 5], seeds=[40, 7])
        configio.dump_json(doc, experiment_dir / "config.json")
        run_experiment(ExperimentConfig.from_file(experiment_dir / "config.json"))
        summary = json.loads((experiment_dir / "out" / "summary.json").read_text())
        assert summary["seeds"] == [40, 7]
        assert summary["horizons"]["5"]["runs"] == 2

    def test_budget_finiteness_checked_once_per_run(self, experiment_dir, monkeypatch):
        from dpgt import privacy

        calls = []
        real = experiments.check_budget_finiteness

        def spy(scheme, gp):
            calls.append(scheme)
            return real(scheme, gp)

        monkeypatch.setattr(experiments, "check_budget_finiteness", spy)
        monkeypatch.setattr(privacy, "check_budget_finiteness", spy)
        summary = run_experiment(ExperimentConfig.from_file(experiment_dir / "config.json"))
        assert len(calls) == 1  # for three horizons
        tail = summary["budget_finiteness"]["derived"]["tail_order"]
        assert [h["eps_tail_order"] for h in summary["horizons"].values()] == [tail] * 3

    def test_validator_failure_blocks_without_force(self, experiment_dir):
        bad = configio.load_json(experiment_dir / "scheme.json")
        bad["gamma"] = 0.9
        configio.dump_json(bad, experiment_dir / "scheme.json")
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        with pytest.raises(ValidatorFailure):
            run_experiment(config)

    def test_logistic_run_end_to_end(self, experiment_dir):
        # The fixture's scheme is sized for the quadratic's constants; the
        # logistic demo declares mu = 0, so the run is forced past validation.
        configio.dump_json(
            {"schema_version": 1, "kind": "logistic", "n_agents": 3, "D": 40, "dim": 3, "data_seed": 2},
            experiment_dir / "objective.json",
        )
        doc = configio.load_json(experiment_dir / "config.json")
        doc.update(horizons=[5, 20], force=True)
        configio.dump_json(doc, experiment_dir / "config.json")
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        out = experiment_dir / "out"

        def bundle() -> dict:
            run_experiment(config)
            return {p.name: p.read_bytes() for p in sorted(out.iterdir())}

        first = bundle()
        assert sorted(first) == ["summary.json", "trace_K20.csv", "trace_K5.csv"]
        summary = json.loads(first["summary.json"])
        for K in ("5", "20"):
            assert math.isfinite(summary["horizons"][K]["final_gap"])
            assert math.isfinite(summary["horizons"][K]["eps_max"])
        assert bundle() == first

    @pytest.mark.parametrize("cores", [1, 2])
    def test_diverging_sweep_fails_as_the_per_horizon_loop(self, experiment_dir, monkeypatch, cores):
        # At gamma = 8 the runs diverge near iteration 35.  K = 10 completes;
        # at K = 33 only seed 25 diverges (at iteration 34), the fourth of the
        # list and first of the second pooled block; at K = 36 every seed does.
        scheme = configio.load_json(experiment_dir / "scheme.json")
        scheme.update(alpha=0.3, beta=0.3, gamma=8.0)
        configio.dump_json(scheme, experiment_dir / "scheme.json")
        doc = configio.load_json(experiment_dir / "config.json")
        doc.update(horizons=[10, 33, 36], seeds=[18, 19, 22, 25, 20, 17], force=True)
        configio.dump_json(doc, experiment_dir / "config.json")
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        out = experiment_dir / "out"

        def failure() -> tuple:
            shutil.rmtree(out, ignore_errors=True)
            with pytest.raises(engine.DivergenceError) as caught:
                run_experiment(config)
            err = caught.value
            files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
            return (err.variable, err.k, err.agent, err.magnitude, err.seed, str(err)), files

        def per_horizon(gp, scheme, obj, horizons, seeds, **kw):
            for K in horizons:
                yield engine.run_ensemble(gp, scheme, obj, K, seeds, **kw)

        with monkeypatch.context() as m:
            m.setattr(experiments, "run_horizons", per_horizon)
            want = failure()
        forks = []
        fork = engine._run_forked
        monkeypatch.setattr(engine, "_run_forked", lambda fn, blocks: forks.append(len(blocks)) or fork(fn, blocks))
        monkeypatch.setattr(engine, "_POOL_MIN_S", 0.0)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cores)), raising=False)
        got = failure()
        assert forks == ([2] if cores == 2 else [])  # the sweep once; the per-seed loop then forks no more
        assert got == want
        assert want[0][1] == 34 and want[0][4] == 25
        assert sorted(want[1]) == ["trace_K10.csv"]


class TestConfigFile:
    def test_unknown_key_rejected_by_name(self, experiment_dir):
        doc = configio.load_json(experiment_dir / "config.json")
        doc["gap_weighting"] = "uniform"
        configio.dump_json(doc, experiment_dir / "config.json")
        with pytest.raises(ValueError, match="gap_weighting"):
            ExperimentConfig.from_file(experiment_dir / "config.json")

    def test_wrong_schema_version_rejected(self, experiment_dir):
        doc = configio.load_json(experiment_dir / "config.json")
        doc["schema_version"] = 2
        configio.dump_json(doc, experiment_dir / "config.json")
        with pytest.raises(ValueError, match="schema_version"):
            ExperimentConfig.from_file(experiment_dir / "config.json")


class TestSweep:
    def test_noise_exponent_ordering(self, experiment_dir):
        config = ExperimentConfig.from_file(experiment_dir / "config.json")
        comparison = run_sweep(config, "p_noise", [0.8, 0.93])
        res = {r["value"]: r for r in comparison["results"]}
        # smaller noise base = smaller scales p^K = larger budget
        assert res[0.8]["eps_max"] > res[0.93]["eps_max"]
        assert (experiment_dir / "out" / "sweep_summary.json").exists()
        doc = json.loads((experiment_dir / "out" / "sweep_summary.json").read_text())
        assert doc["param"] == "p_noise"
