"""Versioned JSON schemas for graphs, schemes, objectives, and run configs;
the loader of a run's input files and the one CSV writer."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import json
from pathlib import Path

import numpy as np

from .graphs import GraphPair, build_graph_pair
from .objectives import (
    Dataset,
    Objective,
    generate_logistic_datasets,
    generate_quadratic_datasets,
    generate_trig_datasets,
    make_dataset,
    make_logistic,
    make_quadratic,
    make_trig,
)
from .schemes import SCHEME_KINDS, SchemeParams

SCHEMA_VERSION = 1

__all__ = [
    "SCHEMA_VERSION",
    "load_json",
    "dump_json",
    "write_csv",
    "load_inputs",
    "file_sha256",
    "check_document",
    "graph_to_dict",
    "graph_from_dict",
    "scheme_to_dict",
    "scheme_from_dict",
    "dataset_to_dict",
    "dataset_from_dict",
    "objective_from_dict",
]


def load_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def dump_json(obj, path) -> None:
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_csv(path, header, rows) -> None:
    """Write ``header`` and then ``rows``, parents created: float cells as ``.12g``, other cells as they are."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([f"{v:.12g}" if isinstance(v, float) else v for v in row] for row in rows)


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_document(doc: dict, what: str, required, optional=()) -> None:
    """Reject a wrong schema_version, any key outside ``required`` and ``optional``, and a missing required key."""
    v = doc.get("schema_version", SCHEMA_VERSION)
    if v != SCHEMA_VERSION:
        raise ValueError(f"{what}: unsupported schema_version {v}")
    unknown = sorted(set(doc) - set(required) - set(optional) - {"schema_version"})
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {', '.join(map(repr, unknown))}")
    missing = [k for k in required if k not in doc]
    if missing:
        raise ValueError(f"{what}: missing key(s) {', '.join(map(repr, missing))}")


def _kind(doc: dict, what: str, kinds) -> str:
    """The document's "kind", which must be one of ``kinds``."""
    if "kind" not in doc:
        raise ValueError(f"{what}: missing key(s) 'kind'")
    if doc["kind"] not in kinds:
        raise ValueError(f"{what}: unknown kind {doc['kind']!r}")
    return doc["kind"]


def graph_to_dict(gp: GraphPair) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": gp.n,
        "R": gp.R.tolist(),
        "C": gp.C.tolist(),
    }


def graph_from_dict(doc: dict) -> GraphPair:
    check_document(doc, "graph", ("R", "C"), ("n",))
    gp = build_graph_pair(doc["R"], doc["C"])
    if "n" in doc and int(doc["n"]) != gp.n:
        raise ValueError(f"graph: declared n={doc['n']} but matrices are {gp.n}x{gp.n}")
    return gp


def scheme_to_dict(p: SchemeParams) -> dict:
    doc = {"schema_version": SCHEMA_VERSION, "kind": p.kind}
    for f in dataclasses.fields(p):
        value = getattr(p, f.name)
        doc[f.name] = list(value) if isinstance(value, tuple) else value
    return doc


def scheme_from_dict(doc: dict) -> SchemeParams:
    kind = _kind(doc, "scheme", SCHEME_KINDS)
    names = [f.name for f in dataclasses.fields(SCHEME_KINDS[kind])]
    check_document(doc, f"{kind} scheme", ["kind", *names])
    return SCHEME_KINDS[kind](**{k: tuple(doc[k]) if isinstance(doc[k], list) else doc[k] for k in names})


def dataset_to_dict(ds: Dataset) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "agent": ds.agent,
        "r": ds.sample_dim,
        "samples": ds.samples.tolist(),
    }


def dataset_from_dict(doc: dict) -> Dataset:
    check_document(doc, "dataset", ("agent", "r", "samples"))
    ds = make_dataset(doc["agent"], np.asarray(doc["samples"], dtype=float))
    if ds.sample_dim != int(doc["r"]):
        raise ValueError(f"dataset: declared r={doc['r']} but samples have width {ds.sample_dim}")
    return ds


# Per kind: the keys an objective document needs besides "kind" and
# "n_agents", and, where no "dataset_files" are given, the generator of its
# data and the keys it needs to call it (between n_agents and data_seed).
_OBJECTIVE_KINDS = {
    "quadratic": (("A", "dvec"), generate_quadratic_datasets, ("D",)),
    "trig": ((), generate_trig_datasets, ("D",)),
    "logistic": ((), generate_logistic_datasets, ("D", "dim")),
}


def objective_from_dict(doc: dict, base_dir: Path | None = None) -> Objective:
    """Build an objective from its config document; data comes from files or a seed."""
    kind = _kind(doc, "objective", _OBJECTIVE_KINDS)
    kind_keys, generate, data_keys = _OBJECTIVE_KINDS[kind]
    required = ("kind", "n_agents", *kind_keys) + (() if "dataset_files" in doc else data_keys)
    check_document(doc, f"{kind} objective", required, ("dataset_files", "data_seed", *data_keys))
    n = int(doc["n_agents"])
    if "dataset_files" in doc:
        root = base_dir or Path(".")
        datasets = [dataset_from_dict(load_json(root / f)) for f in doc["dataset_files"]]
    else:
        datasets = generate(n, *(int(doc[k]) for k in data_keys), int(doc.get("data_seed", 0)))
    if kind == "quadratic":
        return make_quadratic(np.asarray(doc["A"], float), np.asarray(doc["dvec"], float), n, datasets)
    if kind == "trig":
        return make_trig(n, datasets)
    return make_logistic(n, datasets)


def load_inputs(graph_file, scheme_file, objective_file=None) -> tuple[GraphPair, SchemeParams, Objective | None]:
    """The graph pair, the scheme and the objective (None without its file), loaded in that order."""
    gp = graph_from_dict(load_json(graph_file))
    scheme = scheme_from_dict(load_json(scheme_file))
    if objective_file is None:
        return gp, scheme, None
    return gp, scheme, objective_from_dict(load_json(objective_file), Path(objective_file).parent)
