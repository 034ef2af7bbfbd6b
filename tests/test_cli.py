import csv
import json
import math
import re

import numpy as np
import pytest

from dpgt import cli, configio, engine, experiments, graphs, objectives, privacy, recursion, schemes
from dpgt.cli import main
from increment_table import increment_table

# The classes the README lists under exit 2: every ValueError, and the eigensolver's failure.
EXIT_2 = (
    ValueError,
    engine.ConfigError,
    graphs.GraphValidationError,
    graphs.DimensionMismatchError,
    graphs.NegativeEntryError,
    graphs.NonFiniteEntryError,
    graphs.ConnectivityError,
    graphs.DegenerateGraphError,
    objectives.DatasetError,
    objectives.RankDeficientError,
    privacy.AdjacencyError,
    recursion.CapViolation,
    recursion.EnsembleTooSmall,
    experiments.FitError,
    graphs.EigensolverError,
)


@pytest.fixture()
def workdir(tmp_path, capsys):
    from dpgt.graphs import build_graph_pair, spectral_constants
    from dpgt.schemes import q_caps

    n = 3
    rng = np.random.default_rng(8)
    R = rng.uniform(0.2, 0.4, (n, n))
    np.fill_diagonal(R, 0.0)
    C = rng.uniform(0.2, 0.4, (n, n))
    np.fill_diagonal(C, 0.0)
    configio.dump_json(
        {"schema_version": 1, "n": n, "R": R.tolist(), "C": C.tolist()}, tmp_path / "graph.json"
    )
    sc = spectral_constants(build_graph_pair(R, C))
    L, mu = 1.0 / 6.0, 2.0
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
            "D": 30,
            "data_seed": 4,
            "A": np.eye(2).tolist(),
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
            "horizons": [0, 40],
            "runs": 35,
            "seed": 3,
            "output_dir": "out",
        },
        tmp_path / "config.json",
    )
    return tmp_path


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


class TestCli:
    def test_analyze_graph(self, workdir, capsys):
        code, doc = run_cli(capsys, "analyze-graph", str(workdir / "graph.json"))
        assert code == 0
        assert doc["n"] == 3
        assert doc["r1"] > 0 and doc["alpha_cap"] > 0
        assert len(doc["eigs_L1"]) == 3

    def test_gen_data_roundtrip(self, workdir, capsys):
        code, doc = run_cli(
            capsys, "gen-data", "--kind", "trig", "--agents", "2", "--size", "15",
            "--seed", "9", "--out", str(workdir / "data"),
        )
        assert code == 0
        assert len(doc["files"]) == 2
        ds = configio.dataset_from_dict(configio.load_json(doc["files"][0]))
        assert ds.size == 15 and ds.sample_dim == 1

    def test_validate_scheme(self, workdir, capsys):
        code, doc = run_cli(
            capsys, "validate-scheme", "--graph", str(workdir / "graph.json"),
            "--scheme", str(workdir / "scheme.json"),
            "--objective", str(workdir / "objective.json"),
        )
        assert code == 0
        assert doc["overall"] is True
        assert {e["name"] for e in doc["entries"]} >= {"beta < beta_cap", "1 < p_m"}

    def test_run_and_trace_copy(self, workdir, capsys):
        code, doc = run_cli(
            capsys, "run", "--config", str(workdir / "config.json"),
            "--out", str(workdir / "trace.csv"),
        )
        assert code == 0
        lines = (workdir / "trace.csv").read_text().strip().splitlines()
        assert len(lines) == 42  # header + K+1 rows at K = 40
        assert (workdir / "out" / "summary.json").exists()

    def test_privacy_budget(self, workdir, capsys):
        code, doc = run_cli(
            capsys, "privacy-budget", "--graph", str(workdir / "graph.json"),
            "--scheme", str(workdir / "scheme.json"), "--K", "50",
            "--objective", str(workdir / "objective.json"),
            "--increments-csv", str(workdir / "inc.csv"),
        )
        assert code == 0
        assert len(doc["eps_per_agent"]) == 3
        assert doc["eps_max"] >= max(doc["eps_per_agent"]) - 1e-12
        lines = (workdir / "inc.csv").read_text().strip().splitlines()
        assert len(lines) == 52

    def test_increments_csv_streamed_over_blocks_equals_the_table(self, workdir, capsys):
        # A horizon of several blocks: the rows written block by block are the bytes of
        # the whole table written entry by entry.
        K = 3 * privacy._block_width(3) + 17
        out = workdir / "inc.csv"
        code, doc = run_cli(
            capsys, "privacy-budget", "--graph", str(workdir / "graph.json"),
            "--scheme", str(workdir / "scheme.json"), "--K", str(K), "--C", "1.5", "--increments-csv", str(out),
        )
        assert code == 0
        gp = configio.graph_from_dict(configio.load_json(workdir / "graph.json"))
        scheme = configio.scheme_from_dict(configio.load_json(workdir / "scheme.json"))
        report = privacy.epsilon(privacy.sensitivity_trace(gp, scheme, 1.5, K), scheme, K)
        assert doc["eps_per_agent"] == report.eps.tolist()
        with open(workdir / "table.csv", "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k"] + [f"agent{i}" for i in range(gp.n)])
            table = increment_table(report)
            for k in range(K + 1):
                writer.writerow([k] + [f"{table[i, k]:.12g}" for i in range(gp.n)])
        assert out.read_bytes() == (workdir / "table.csv").read_bytes()

    @pytest.mark.parametrize("command", ["privacy-budget", "run"])
    def test_noise_scale_beyond_the_float_range_exits_2(self, workdir, capsys, command):
        # 35.0 ** 200.0 overflows: the S1 state scale (k + 1) ** 200 of agent 0 leaves the float
        # range at k = 34, within the budget's K = 1000 and the run's K = 40.
        configio.dump_json(
            {
                "schema_version": 1, "kind": "S1", "a1": 0.05, "a2": 0.05, "a3": 0.01, "a4": 0.0,
                "p_alpha": 0.987, "p_beta": 0.69, "p_gamma": 0.997, "p_m": 2.0,
                "p_zeta": [200.0, 0.1, 0.1], "p_eta": [0.1, 0.1, 0.1],
            },
            workdir / "scheme.json",
        )
        config = configio.load_json(workdir / "config.json")
        config.update(force=True, runs=2)
        configio.dump_json(config, workdir / "config.json")
        argv = {
            "privacy-budget": ["--graph", str(workdir / "graph.json"), "--scheme", str(workdir / "scheme.json"),
                               "--K", "1000", "--C", "1.0"],
            "run": ["--config", str(workdir / "config.json")],
        }[command]
        assert main([command, *argv]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"dpgt {command}: noise scale of agent 0, role zeta: (k + 1) ** 200.0 leaves the float range from k = 34\n"
        )

    def test_privacy_budget_explicit_constant_scales_linearly(self, workdir, capsys):
        _, doc1 = run_cli(
            capsys, "privacy-budget", "--graph", str(workdir / "graph.json"),
            "--scheme", str(workdir / "scheme.json"), "--K", "30", "--C", "1.0",
        )
        _, doc2 = run_cli(
            capsys, "privacy-budget", "--graph", str(workdir / "graph.json"),
            "--scheme", str(workdir / "scheme.json"), "--K", "30", "--C", "2.0",
        )
        assert doc2["eps_max"] == pytest.approx(2 * doc1["eps_max"], rel=1e-12)

    def test_privacy_budget_auto_constant_without_objective_exits_2(self, workdir, capsys):
        argv = ["privacy-budget", "--graph", str(workdir / "graph.json"), "--scheme", str(workdir / "scheme.json"),
                "--K", "30"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dpgt privacy-budget: --C auto requires --objective\n"
        # The inputs load first, in order, so a bad scheme file is still the error reported.
        scheme = configio.load_json(workdir / "scheme.json")
        del scheme["beta"]
        configio.dump_json(scheme, workdir / "scheme.json")
        assert main(argv) == 2
        assert capsys.readouterr().err == "dpgt privacy-budget: S2 scheme: missing key(s) 'beta'\n"

    @pytest.mark.parametrize("agents", [2, 4])
    def test_run_refuses_a_scheme_for_another_agent_count(self, workdir, capsys, agents):
        scheme = configio.load_json(workdir / "scheme.json")
        scheme.update(p_zeta=[0.93] * agents, p_eta=[0.93] * agents)
        configio.dump_json(scheme, workdir / "scheme.json")
        assert main(["run", "--config", str(workdir / "config.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dpgt run: the scheme has {agents} agents, the graph pair 3\n"

    @pytest.mark.parametrize("force, status", [(False, 1), (True, 3)])
    def test_run_of_an_unstable_scheme_exits_with_its_failure_class(self, workdir, capsys, force, status):
        # gamma far above its caps: refused by the validator (1), or, when
        # forced, run until the states diverge (3).  Either way one stderr line.
        scheme = configio.load_json(workdir / "scheme.json")
        scheme["gamma"] = 900.0
        configio.dump_json(scheme, workdir / "scheme.json")
        config = configio.load_json(workdir / "config.json")
        config["force"] = force
        configio.dump_json(config, workdir / "config.json")
        assert main(["run", "--config", str(workdir / "config.json")]) == status
        captured = capsys.readouterr()
        assert captured.out == ""
        if force:
            pattern = (
                r"dpgt run: (state|tracking) of agent [0-2] reached magnitude \S+ at iteration \d+ "
                r"\(seed 3\); step sizes are unstable for this problem\n"
            )
        else:
            pattern = r"dpgt run: scheme fails admissibility checks: \[.*gamma.*\]\n"
        assert re.fullmatch(pattern, captured.err)

    def test_unreadable_input_exits_4(self, workdir, capsys):
        missing = workdir / "nonexistent.json"
        assert main(["analyze-graph", str(missing)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dpgt analyze-graph: [Errno 2] No such file or directory: '{missing}'\n"

    @pytest.mark.parametrize("cls", EXIT_2, ids=lambda cls: cls.__name__)
    def test_each_rejection_class_exits_2(self, workdir, capsys, monkeypatch, cls):
        def reject(gp):
            raise cls("rejected")

        monkeypatch.setattr(cli, "spectral_constants", reject)
        assert main(["analyze-graph", str(workdir / "graph.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dpgt analyze-graph: rejected\n"

    def test_every_error_class_has_its_exit_status(self):
        # A new error class must be given a status here and in the README.
        defined = {
            obj
            for mod in (cli, configio, engine, experiments, graphs, objectives, privacy, recursion, schemes)
            for obj in vars(mod).values()
            if isinstance(obj, type) and issubclass(obj, Exception) and obj.__module__.startswith("dpgt.")
        }
        assert defined == set(EXIT_2[1:]) | {experiments.ValidatorFailure, engine.DivergenceError}
        assert [status for cls in EXIT_2 for c, status in cli._EXIT_STATUS if issubclass(cls, c)] == [2] * len(EXIT_2)

    def test_eigensolver_failure_exits_2(self, workdir, capsys, monkeypatch):
        # The solver itself fails on the pair: one stderr line, not a traceback and 1.
        def fail(M, *args, **kwargs):
            raise graphs.EigensolverError("QR iteration did not converge: no convergence")

        monkeypatch.setattr(graphs, "spectrum", fail)
        assert main(["analyze-graph", str(workdir / "graph.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dpgt analyze-graph: QR iteration did not converge: no convergence\n"

    def test_missing_key_is_named_and_exits_2(self, workdir, capsys):
        scheme = configio.load_json(workdir / "scheme.json")
        del scheme["beta"]
        configio.dump_json(scheme, workdir / "scheme.json")
        assert main(["run", "--config", str(workdir / "config.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "dpgt run: S2 scheme: missing key(s) 'beta'\n"

    def test_bound_check(self, workdir, capsys):
        code, doc = run_cli(
            capsys, "bound-check", "--config", str(workdir / "config.json"), "--runs", "35",
        )
        assert code == 0
        assert 0 < doc["rho"]
        assert doc["dominance_checked"] > 0
        assert 0.0 <= doc["dominance_pass_rate"] <= 1.0

    @pytest.mark.parametrize("runs", [0, -3])
    def test_bound_check_with_fewer_than_one_run_exits_2(self, workdir, capsys, runs):
        assert main(["bound-check", "--config", str(workdir / "config.json"), "--runs", str(runs)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"dpgt bound-check: --runs must be at least 1, got {runs}\n"

    def test_sweep(self, workdir, capsys):
        code, doc = run_cli(
            capsys, "sweep", "--config", str(workdir / "config.json"),
            "--param", "p_noise", "--values", "0.85,0.93",
        )
        assert code == 0
        assert len(doc["results"]) == 2
