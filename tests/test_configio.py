import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dpgt import configio
from dpgt.cli import main
from dpgt.experiments import ExperimentConfig
from dpgt.graphs import build_graph_pair
from dpgt.objectives import generate_trig_datasets, make_dataset
from dpgt.schemes import S1Params, S2Params

S2_DOC = {
    "schema_version": 1, "kind": "S2", "alpha": 0.1, "beta": 0.1, "gamma": 0.05,
    "p_m": 1.1, "p_zeta": [0.93, 0.93], "p_eta": [0.93, 0.93],
}
S1_DOC = {
    "schema_version": 1, "kind": "S1", "a1": 0.4, "a2": 0.4, "a3": 1.0, "a4": 4e-5,
    "p_alpha": 0.987, "p_beta": 0.69, "p_gamma": 0.997, "p_m": 2.0,
    "p_zeta": [0.1, 0.1], "p_eta": [0.1, 0.1],
}
QUADRATIC_DOC = {
    "schema_version": 1, "kind": "quadratic", "n_agents": 2, "D": 20, "data_seed": 3,
    "A": np.eye(2).tolist(), "dvec": [1.0, 1.0],
}


class TestStrictDocuments:
    def test_misspelt_scheme_key_rejected_by_name(self):
        doc = dict(S2_DOC, gama=5.0)
        with pytest.raises(ValueError, match="'gama'"):
            configio.scheme_from_dict(doc)

    def test_scheme_keys_are_checked_per_kind(self):
        with pytest.raises(ValueError, match="'a1'"):
            configio.scheme_from_dict(dict(S2_DOC, a1=0.4))
        with pytest.raises(ValueError, match="'alpha'"):
            configio.scheme_from_dict(dict(S1_DOC, alpha=0.1))

    def test_unknown_scheme_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown kind"):
            configio.scheme_from_dict(dict(S2_DOC, kind="S3"))

    def test_graph_extra_key_rejected(self):
        M = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError, match="'weights'"):
            configio.graph_from_dict({"schema_version": 1, "n": 2, "R": M, "C": M, "weights": M})

    def test_dataset_extra_key_rejected(self):
        doc = configio.dataset_to_dict(generate_trig_datasets(1, 5, seed=0)[0])
        doc["label"] = "x"
        with pytest.raises(ValueError, match="'label'"):
            configio.dataset_from_dict(doc)

    def test_objective_keys_are_checked_per_kind(self):
        with pytest.raises(ValueError, match="'dim'"):
            configio.objective_from_dict(dict(QUADRATIC_DOC, dim=2))
        trig = {"schema_version": 1, "kind": "trig", "n_agents": 2, "D": 10, "data_seed": 1}
        with pytest.raises(ValueError, match="'A'"):
            configio.objective_from_dict(dict(trig, A=[[1.0]]))
        with pytest.raises(ValueError, match="unknown kind"):
            configio.objective_from_dict(dict(trig, kind="huber"))

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ValueError, match="schema_version"):
            configio.scheme_from_dict(dict(S2_DOC, schema_version=2))


def without(doc: dict, *keys) -> dict:
    return {k: v for k, v in doc.items() if k not in keys}


class TestMissingKeys:
    """A reader names every required key its document lacks."""

    def test_graph(self):
        M = [[0.0, 1.0], [1.0, 0.0]]
        with pytest.raises(ValueError, match=r"^graph: missing key\(s\) 'C'$"):
            configio.graph_from_dict({"schema_version": 1, "n": 2, "R": M})
        assert configio.graph_from_dict({"R": M, "C": M}).n == 2  # "n" is optional

    @pytest.mark.parametrize("doc", [S1_DOC, S2_DOC])
    def test_scheme_needs_every_field_of_its_kind(self, doc):
        missing = [k for k in doc if k not in ("schema_version", "kind")]
        for key in missing:
            with pytest.raises(ValueError, match=rf"^{doc['kind']} scheme: missing key\(s\) '{key}'$"):
                configio.scheme_from_dict(without(doc, key))
        with pytest.raises(ValueError, match=r"^scheme: missing key\(s\) 'kind'$"):
            configio.scheme_from_dict(without(doc, "kind"))

    def test_dataset(self):
        doc = configio.dataset_to_dict(generate_trig_datasets(1, 5, seed=0)[0])
        with pytest.raises(ValueError, match=r"^dataset: missing key\(s\) 'agent', 'r'$"):
            configio.dataset_from_dict(without(doc, "agent", "r"))

    def test_objective(self, tmp_path):
        with pytest.raises(ValueError, match=r"^objective: missing key\(s\) 'kind'$"):
            configio.objective_from_dict(without(QUADRATIC_DOC, "kind"))
        with pytest.raises(ValueError, match=r"^quadratic objective: missing key\(s\) 'dvec', 'D'$"):
            configio.objective_from_dict(without(QUADRATIC_DOC, "dvec", "D"))
        logistic = {"kind": "logistic", "n_agents": 2, "D": 10}
        with pytest.raises(ValueError, match=r"^logistic objective: missing key\(s\) 'dim'$"):
            configio.objective_from_dict(logistic)
        # Data read from files needs neither D nor dim.
        configio.dump_json(configio.dataset_to_dict(make_dataset(0, np.ones((3, 2)))), tmp_path / "a.json")
        files = {"kind": "logistic", "n_agents": 1, "dataset_files": ["a.json"]}
        assert configio.objective_from_dict(files, tmp_path).dim == 1

    def test_run_config(self, tmp_path):
        doc = {
            "graph": "g.json", "scheme": "s.json", "objective": "o.json", "horizons": [1],
            "runs": 2, "seed": 0, "output_dir": "out",
        }
        configio.dump_json(doc, tmp_path / "config.json")
        assert ExperimentConfig.from_file(tmp_path / "config.json").runs == 2
        configio.dump_json(without(doc, "horizons"), tmp_path / "config.json")
        with pytest.raises(ValueError, match=r"^config: missing key\(s\) 'horizons'$"):
            ExperimentConfig.from_file(tmp_path / "config.json")

    RUN_CONFIG = {"graph": "g.json", "scheme": "s.json", "objective": "o.json", "horizons": [1], "output_dir": "out"}

    def test_run_config_with_seeds_needs_neither_runs_nor_seed(self, tmp_path):
        configio.dump_json(dict(self.RUN_CONFIG, seeds=[3, 4]), tmp_path / "config.json")
        config = ExperimentConfig.from_file(tmp_path / "config.json")
        assert config.seed_list() == [3, 4]
        assert (config.runs, config.seed) == (None, None)

    def test_run_config_without_seeds_or_runs_and_seed_is_rejected(self, tmp_path):
        configio.dump_json(self.RUN_CONFIG, tmp_path / "config.json")
        with pytest.raises(ValueError, match=r"^config: missing key\(s\) 'runs', 'seed'$"):
            ExperimentConfig.from_file(tmp_path / "config.json")
        configio.dump_json(dict(self.RUN_CONFIG, runs=2), tmp_path / "config.json")
        with pytest.raises(ValueError, match=r"^config: missing key\(s\) 'seed'$"):
            ExperimentConfig.from_file(tmp_path / "config.json")
        fields = dict(graph_file="g", scheme_file="s", objective_file="o", horizons=(1,), output_dir="out")
        with pytest.raises(ValueError, match="explicit seeds list, or both runs and seed"):
            ExperimentConfig(runs=2, seed=None, **fields)


class TestRunConfigIntegers:
    """Each integer key of a run config takes JSON integers only, by name; horizons ascend, seeds are nonempty."""

    RUN_CONFIG = {
        "graph": "g.json", "scheme": "s.json", "objective": "o.json", "horizons": [1, 4], "runs": 2, "seed": 0,
        "output_dir": "out",
    }

    @pytest.mark.parametrize("change, message", [
        ({"seeds": [1.5, 2.7]}, "seeds takes integers only, got 1.5"),
        ({"runs": 2.9}, "runs takes integers only, got 2.9"),
        ({"horizons": [2.5, 4]}, "horizons takes integers only, got 2.5"),
        ({"seeds": [True, 2]}, "seeds takes integers only, got True"),
        ({"horizons": [3, 3]}, r"horizons must be nonempty, nonnegative and strictly ascending, got \[3, 3\]"),
        ({"horizons": []}, r"horizons must be nonempty, nonnegative and strictly ascending, got \[\]"),
        ({"runs": True}, "runs takes integers only, got True"),
        ({"seed": 2.0}, "seed takes integers only, got 2.0"),
        ({"horizons": 4}, "horizons must be a list of integers, got 4"),
        ({"seeds": []}, r"seeds must be a nonempty list, got \[\]"),
        ({"runs": 0}, "runs must be >= 1, got 0"),
    ], ids=["float-seeds", "float-runs", "float-horizon", "bool-seed", "repeated-horizon", "no-horizon",
            "bool-runs", "float-seed", "scalar-horizons", "no-seeds", "zero-runs"])
    def test_bad_value_is_rejected_by_key(self, tmp_path, change, message):
        configio.dump_json(dict(self.RUN_CONFIG, **change), tmp_path / "config.json")
        with pytest.raises(ValueError, match=f"^config: {message}$"):
            ExperimentConfig.from_file(tmp_path / "config.json")

    def test_adjacency_constant_is_always_the_swap_bound(self, tmp_path, capsys):
        # "auto" loads; any other C is rejected by key name, and run exits 2 before it starts.
        path = tmp_path / "config.json"
        configio.dump_json(dict(self.RUN_CONFIG, adjacency_C="auto"), path)
        assert ExperimentConfig.from_file(path).adjacency_C == "auto"
        configio.dump_json(dict(self.RUN_CONFIG, adjacency_C=0.001), path)
        with pytest.raises(ValueError, match=r'^config: adjacency_C takes "auto" \(the swap bound\) only, got 0.001$'):
            ExperimentConfig.from_file(path)
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err.startswith("dpgt run: config: adjacency_C takes")
        assert not (tmp_path / "out").exists()


class TestWrittenDocumentsLoad:
    def test_graph_round_trip(self):
        gp = build_graph_pair(np.array([[0.0, 0.5], [0.7, 0.0]]), np.array([[0.0, 0.2], [0.3, 0.0]]))
        back = configio.graph_from_dict(configio.graph_to_dict(gp))
        assert np.array_equal(back.R, gp.R) and np.array_equal(back.C, gp.C)

    @pytest.mark.parametrize("doc", [S1_DOC, S2_DOC])
    def test_scheme_round_trip(self, doc):
        scheme = configio.scheme_from_dict(doc)
        assert isinstance(scheme, S1Params if doc["kind"] == "S1" else S2Params)
        assert configio.scheme_to_dict(scheme) == doc

    def test_seeded_objective_loads(self):
        obj = configio.objective_from_dict(QUADRATIC_DOC)
        assert obj.n_agents == 2 and obj.dim == 2

    def test_gen_data_files_load_as_objective(self, tmp_path, capsys):
        argv = ["gen-data", "--kind", "trig", "--agents", "2", "--size", "12", "--out", str(tmp_path)]
        assert main(argv) == 0
        capsys.readouterr()
        doc = {
            "schema_version": 1, "kind": "trig", "n_agents": 2,
            "dataset_files": ["agent0.json", "agent1.json"],
        }
        obj = configio.objective_from_dict(doc, tmp_path)
        assert [ds.size for ds in obj.datasets] == [12, 12]


class TestLoadInputs:
    def test_the_objective_is_optional_and_the_graph_error_comes_first(self, tmp_path):
        graph = configio.graph_to_dict(build_graph_pair(np.array([[0.0, 0.5], [0.7, 0.0]]), np.eye(2)[::-1]))
        for name, doc in (("graph", graph), ("scheme", S2_DOC), ("objective", QUADRATIC_DOC)):
            configio.dump_json(doc, tmp_path / f"{name}.json")
        files = [tmp_path / f"{name}.json" for name in ("graph", "scheme", "objective")]
        gp, scheme, obj = configio.load_inputs(*files)
        assert gp.n == 2 and isinstance(scheme, S2Params) and obj.n_agents == 2
        assert configio.load_inputs(*files[:2])[2] is None
        configio.dump_json({**graph, "n": 3}, files[0])
        configio.dump_json({}, files[1])
        with pytest.raises(ValueError, match="graph: declared n=3"):
            configio.load_inputs(*files)


class TestWriteCsv:
    def test_float_cells_as_12g_and_other_cells_as_they_are(self, tmp_path):
        path = tmp_path / "sub" / "out.csv"
        rows = iter([[1, "mean", 0.1 + 0.2], [np.int64(2), "a,b", np.float64(1e300)]])
        configio.write_csv(path, ["k", "name", "x"], rows)
        assert path.read_bytes() == b'k,name,x\r\n1,mean,0.3\r\n2,"a,b",1e+300\r\n'


def through_json(doc: dict) -> dict:
    return json.loads(json.dumps(doc))


positive = st.floats(min_value=0.0, max_value=1e300, exclude_min=True)
nonnegative = st.floats(min_value=0.0, max_value=1e300)


@st.composite
def schemes(draw):
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        exponents = st.lists(st.floats(-1e300, 1e300), min_size=n, max_size=n).map(tuple)
        return S1Params(
            a1=draw(positive), a2=draw(positive), a3=draw(positive), a4=draw(nonnegative),
            p_alpha=draw(positive), p_beta=draw(positive), p_gamma=draw(positive), p_m=draw(nonnegative),
            p_zeta=draw(exponents), p_eta=draw(exponents),
        )
    bases = st.lists(positive, min_size=n, max_size=n).map(tuple)
    return S2Params(
        alpha=draw(positive), beta=draw(positive), gamma=draw(positive), p_m=draw(nonnegative),
        p_zeta=draw(bases), p_eta=draw(bases),
    )


weights = st.integers(1, 4).flatmap(lambda n: arrays(float, (2, n, n), elements=nonnegative))


class TestRoundTrips:
    """Every written document, through JSON text, loads back as what was written."""

    @settings(max_examples=200, deadline=None)
    @given(schemes())
    def test_scheme(self, scheme):
        assert configio.scheme_from_dict(through_json(configio.scheme_to_dict(scheme))) == scheme

    @settings(max_examples=100, deadline=None)
    @given(weights)
    def test_graph(self, RC):
        gp = build_graph_pair(RC[0], RC[1])
        back = configio.graph_from_dict(through_json(configio.graph_to_dict(gp)))
        assert back.n == gp.n
        assert back.R.tobytes() == gp.R.tobytes() and back.C.tobytes() == gp.C.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 50),
        st.tuples(st.integers(1, 6), st.integers(1, 3)).flatmap(
            lambda shape: arrays(float, shape, elements=st.floats(-1e300, 1e300))
        ),
    )
    def test_dataset(self, agent, samples):
        ds = make_dataset(agent, samples)
        back = configio.dataset_from_dict(through_json(configio.dataset_to_dict(ds)))
        assert back.agent == ds.agent
        assert back.samples.tobytes() == ds.samples.tobytes()
