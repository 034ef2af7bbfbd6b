import numpy as np
import pytest

from dpgt import configio
from dpgt.cli import main
from dpgt.graphs import build_graph_pair
from dpgt.objectives import generate_trig_datasets
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
