"""Versioned JSON schemas for graphs, schemes, objectives, and run configs."""

from __future__ import annotations

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


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_document(doc: dict, what: str, keys) -> None:
    """Reject a wrong schema_version and any key outside ``keys``."""
    v = doc.get("schema_version", SCHEMA_VERSION)
    if v != SCHEMA_VERSION:
        raise ValueError(f"{what}: unsupported schema_version {v}")
    unknown = sorted(set(doc) - set(keys) - {"schema_version"})
    if unknown:
        raise ValueError(f"{what}: unknown key(s) {', '.join(map(repr, unknown))}")


def graph_to_dict(gp: GraphPair) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "n": gp.n,
        "R": gp.R.tolist(),
        "C": gp.C.tolist(),
    }


def graph_from_dict(doc: dict) -> GraphPair:
    check_document(doc, "graph", ("n", "R", "C"))
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
    kind = doc.get("kind")
    if kind not in SCHEME_KINDS:
        raise ValueError(f"scheme: unknown kind {kind!r}")
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


# Keys of every objective document, and the extra keys of each kind.
_OBJECTIVE_KEYS = ("kind", "n_agents", "dataset_files", "D", "data_seed")
_OBJECTIVE_KIND_KEYS = {"quadratic": ("A", "dvec"), "trig": (), "logistic": ("dim",)}


def objective_from_dict(doc: dict, base_dir: Path | None = None) -> Objective:
    """Build an objective from its config document; data comes from files or a seed."""
    kind = doc["kind"]
    if kind not in _OBJECTIVE_KIND_KEYS:
        raise ValueError(f"objective: unknown kind {kind!r}")
    check_document(doc, f"{kind} objective", _OBJECTIVE_KEYS + _OBJECTIVE_KIND_KEYS[kind])
    n = int(doc["n_agents"])
    if "dataset_files" in doc:
        root = base_dir or Path(".")
        datasets = [dataset_from_dict(load_json(root / f)) for f in doc["dataset_files"]]
    else:
        D = int(doc["D"])
        seed = int(doc.get("data_seed", 0))
        if kind == "quadratic":
            datasets = generate_quadratic_datasets(n, D, seed)
        elif kind == "trig":
            datasets = generate_trig_datasets(n, D, seed)
        else:
            datasets = generate_logistic_datasets(n, D, int(doc["dim"]), seed)
    if kind == "quadratic":
        return make_quadratic(np.asarray(doc["A"], float), np.asarray(doc["dvec"], float), n, datasets)
    if kind == "trig":
        return make_trig(n, datasets)
    return make_logistic(n, datasets)
