import json
import math
import re

import numpy as np
import pytest

from dpgt import configio
from dpgt.cli import main


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

    def test_bound_check(self, workdir, capsys):
        code, doc = run_cli(
            capsys, "bound-check", "--config", str(workdir / "config.json"), "--runs", "35",
        )
        assert code == 0
        assert 0 < doc["rho"]
        assert doc["dominance_checked"] > 0
        assert 0.0 <= doc["dominance_pass_rate"] <= 1.0

    def test_sweep(self, workdir, capsys):
        code, doc = run_cli(
            capsys, "sweep", "--config", str(workdir / "config.json"),
            "--param", "p_noise", "--values", "0.85,0.93",
        )
        assert code == 0
        assert len(doc["results"]) == 2
