"""In-memory span tracer installed around dpgt's public functions.

``Tracer.install`` replaces each listed function with a timing wrapper at
every place a dpgt module binds it: the defining module, every module that
imported it by name, and the ``Objective`` class for its methods.  Each call
records a span (function, parent span, start, end) in flat arrays; spans are
kept in memory and saved with ``save`` when the run ends.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (module, function) pairs timed in a traced run; "Objective." marks methods.
TRACED = (
    ("engine", "run_ensemble"),
    ("engine", "run"),
    ("engine", "initialize"),
    ("engine", "step"),
    ("engine", "perturb"),
    ("engine", "laplace_vector"),
    ("engine", "keyed_generator"),
    ("engine", "sample_indices"),
    ("objectives", "Objective.grad_batch"),
    ("objectives", "Objective.global_gradient_rows"),
    ("objectives", "Objective.global_value"),
    ("graphs", "spectral_constants"),
    ("graphs", "spectrum"),
    ("graphs", "check_connectivity"),
    ("schemes", "rates_at"),
    ("schemes", "validate_s1"),
    ("schemes", "validate_s2"),
    ("schemes", "check_budget_finiteness"),
    ("privacy", "sensitivity_trace"),
    ("privacy", "epsilon"),
    ("privacy", "coupled_pair_run"),
    ("recursion", "build_model"),
    ("recursion", "contraction_check"),
    ("recursion", "certificate_check"),
    ("experiments", "run_experiment"),
    ("experiments", "write_trace_csv"),
    ("experiments", "fit_rate"),
    ("configio", "load_json"),
    ("configio", "dump_json"),
)

MODULES = tuple(dict.fromkeys(mod for mod, _ in TRACED))


def _sampled_rows(args, kwargs, result) -> int:
    m = kwargs["m"] if "m" in kwargs else args[4]
    return int(m)


def _result_rows(args, kwargs, result) -> int:
    return int(result.shape[0])


# Work counters recorded at a traced boundary: label -> (counter, count of one call).
COUNTERS = {
    "engine.sample_indices": ("engine.samples_drawn", _sampled_rows),
    "objectives.grad_batch": ("objectives.grad_rows", _result_rows),
}


def label(mod: str, fn: str) -> str:
    return f"{mod}.{fn.split('.')[-1]}"


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in a stable order."""
    names = []
    for mod, fn in TRACED:
        base = label(mod, fn)
        names += [f"{base}.calls", f"{base}.ms", f"{base}.self_ms"]
    names += [counter for counter, _ in COUNTERS.values()]
    names += [f"{mod}.self_share" for mod in MODULES]
    names.append("trace.overhead_frac")
    return names


class Tracer:
    """One traced repetition: install, run, uninstall, then summarise."""

    def __init__(self):
        self.labels = [label(mod, fn) for mod, fn in TRACED]
        self._patches: list[tuple[object, str, object]] = []
        self.fn_id = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.counts = {counter: 0 for counter, _ in COUNTERS.values()}
        self._stack = [-1]

    def _wrap(self, fn_index: int, original, counter):
        fn_id, parent, start, end, stack = self.fn_id, self.parent, self.start, self.end, self._stack
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            sid = len(start)
            fn_id.append(fn_index)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = original(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if counter is not None:
                counts[counter[0]] += counter[1](args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function at each dpgt binding site.

        A function dpgt no longer defines is skipped and reports zero calls.
        """
        dpgt_modules = [m for name, m in list(sys.modules.items()) if name == "dpgt" or name.startswith("dpgt.")]
        for index, (mod, fn) in enumerate(TRACED):
            module = sys.modules[f"dpgt.{mod}"]
            counter = COUNTERS.get(self.labels[index])
            if fn.startswith("Objective."):
                cls = module.Objective
                attr = fn.split(".", 1)[1]
                original = cls.__dict__.get(attr)
                if original is None:
                    continue
                self._patches.append((cls, attr, original))
                setattr(cls, attr, self._wrap(index, original, counter))
                continue
            original = getattr(module, fn, None)
            if original is None:
                continue
            wrapper = self._wrap(index, original, counter)
            for site in dpgt_modules:
                if vars(site).get(fn) is original:
                    self._patches.append((site, fn, original))
                    setattr(site, fn, wrapper)

    def uninstall(self) -> None:
        for site, attr, original in reversed(self._patches):
            setattr(site, attr, original)
        self._patches.clear()

    def summary(self, wall_s: float) -> dict:
        """calls / ms / self_ms per function, counters and per-module self shares."""
        fn_id = np.asarray(self.fn_id, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = np.asarray(self.end, dtype=float) - np.asarray(self.start, dtype=float)
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        n_fn = len(TRACED)
        calls = np.bincount(fn_id, minlength=n_fn)
        total = np.bincount(fn_id, weights=dur, minlength=n_fn)
        self_t = np.bincount(fn_id, weights=own, minlength=n_fn)
        out: dict = {}
        module_self = dict.fromkeys(MODULES, 0.0)
        for index, (mod, _) in enumerate(TRACED):
            base = self.labels[index]
            out[f"{base}.calls"] = int(calls[index])
            out[f"{base}.ms"] = float(total[index]) * 1e3
            out[f"{base}.self_ms"] = float(self_t[index]) * 1e3
            module_self[mod] += float(self_t[index])
        out.update(self.counts)
        for mod in MODULES:
            out[f"{mod}.self_share"] = module_self[mod] / wall_s
        return out

    def save(self, path) -> None:
        """Write the recorded spans (one row per call) as an .npz file."""
        np.savez(
            path,
            functions=np.array(self.labels),
            function=np.asarray(self.fn_id, dtype=np.int64),
            parent=np.asarray(self.parent, dtype=np.int64),
            start_s=np.asarray(self.start, dtype=float),
            end_s=np.asarray(self.end, dtype=float),
        )
