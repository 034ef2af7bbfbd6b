"""dpgt benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload ensemble_small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; dpgt is imported from ``src/`` there.  The
job runs serially in this process with BLAS pinned to one thread and
DPGT_WORKERS unset.  It repeats for ``--seconds`` and the medians are
reported.  With ``--trace 0`` the result holds the end-to-end metrics of
BENCHMARK.json.  ``setup_s`` is the median over fresh interpreters, each
timed from before ``import dpgt`` to the start of the job.  With
``--trace 1`` the job runs untraced for half the time and traced for the
other half, and the result holds the per-layer metrics.  Every run checks
the outputs against the reference module.  The last line of standard output
is the JSON result; a run manifest and the details go to ``perfbench/out/``.

    python3 perfbench/run.py --selftest

runs a reduced shape of every workload traced and checks the traced call
counts against their closed forms, traced against untraced outputs, and both
against the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

T_START = time.perf_counter()

# Pin BLAS before numpy loads; ensembles run serially.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
DPGT_WORKERS_AT_START = os.environ.pop("DPGT_WORKERS", None)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
RECORDED = HERE / "seed_commit_values.json"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def import_workloads():
    """Import dpgt from this checkout's src/ (never an installed copy) and the workloads."""
    src = ROOT / "src"
    if not (src / "dpgt" / "__init__.py").is_file():
        sys.exit(f"no dpgt sources under {src}: run from the root of a dpgt checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import dpgt

    if Path(dpgt.__file__).resolve().parent != (src / "dpgt").resolve():
        sys.exit(f"dpgt was imported from {dpgt.__file__}, not from {src}")
    import workloads

    return workloads


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def manifest(workload: str, seed: int, trace: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "DPGT_WORKERS": "unset" if DPGT_WORKERS_AT_START is None else f"unset for this run (was {DPGT_WORKERS_AT_START})",
        "commit": git_commit(),
    }


def setup_probe(workload: str, seed: int) -> None:
    """Child process: time import dpgt + input generation + set-up, print seconds."""
    wl = import_workloads()
    w = wl.WORKLOADS[workload](seed)
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        w.setup(Path(workdir))
        print(json.dumps({"setup_s": time.perf_counter() - T_START}))


def probe_setup_times(workload: str, seed: int) -> list[float]:
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Reps:
    """Repeated jobs: wall times, the first output, and repetitions gone wrong.

    A repetition goes wrong when the job raises or its output is not
    bit-identical to ``like.first`` (or, without ``like``, to this series'
    first output).
    """

    def __init__(self, w, like: "Reps | None" = None):
        self.w = w
        self.like = like
        self.times: list[float] = []
        self.first = None
        self.bad = 0
        self.crashed = False

    def run_one(self, state) -> None:
        t0 = time.perf_counter()
        try:
            out = self.w.job(state)
        except Exception:
            traceback.print_exc()
            out = None
            self.crashed = True
        self.times.append(time.perf_counter() - t0)
        want = self.first if self.like is None else self.like.first
        if out is None or (want is not None and out != want):
            self.bad += 1
        elif self.first is None:
            self.first = out

    def repeat(self, state, seconds: float) -> None:
        """Run at least once, then while the next repetition should end within ``seconds``."""
        end = time.perf_counter() + seconds
        while not self.crashed:
            self.run_one(state)
            if time.perf_counter() + statistics.median(self.times) > end:
                break


def failed_ops(w, seed: int, reps_list: list[Reps]) -> tuple[int, dict]:
    """Failed operations over every repetition, and the reference mismatches behind them.

    The first output is checked against the reference module and, for seeds
    listed in seed_commit_values.json, against the values dpgt gave at the
    seed commit; the other repetitions must reproduce it bit for bit.
    """
    mismatch = {}
    first = reps_list[0].first
    if first is not None:
        mismatch = w.failed_ops(first, w.expected())
        recorded = json.loads(RECORDED.read_text(encoding="utf-8"))["values"].get(w.name, {}).get(str(seed))
        if recorded is not None:
            mismatch.update(w.failed_ops(first, recorded))
    good = sum(len(r.times) - r.bad for r in reps_list)
    bad = sum(r.bad for r in reps_list)
    return bad * w.ops + good * sum(mismatch.values()), {"bad_repetitions": bad, "reference_mismatch": mismatch}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    spec = load_spec()
    wl = import_workloads()
    OUT.mkdir(exist_ok=True)
    setup_times = probe_setup_times(name, seed) if trace == 0 else []
    w = wl.WORKLOADS[name](seed)
    workdir = Path(tempfile.mkdtemp(dir=OUT))
    detail = {"manifest": manifest(name, seed, trace), "shape": w.shape}
    try:
        state = w.setup(workdir)
        plain = Reps(w)
        reps_list = [plain]
        if trace == 0:
            plain.repeat(state, seconds)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            job_s = statistics.median(plain.times)
            values = {
                "setup_s": statistics.median(setup_times),
                "job_s": job_s,
                "seed_steps_per_s": w.seed_steps / job_s,
                "peak_rss_mb": peak_rss_mb,
            }
            detail.update(setup_times_s=setup_times)
        else:
            import tracer as tracing

            plain.repeat(state, seconds / 2)
            traced = Reps(w, like=plain)
            reps_list.append(traced)
            summaries = []
            end = time.perf_counter() + seconds / 2
            while not traced.crashed:
                tr = tracing.Tracer()
                tr.install()
                try:
                    t0 = time.perf_counter()
                    traced_state = w.setup(workdir)
                    traced.run_one(traced_state)
                    wall = time.perf_counter() - t0
                finally:
                    tr.uninstall()
                summaries.append(tr.summary(wall))
                if time.perf_counter() + statistics.median(traced.times) > end:
                    break
            tr.save(OUT / f"spans_{name}.npz")
            values = {}
            for key in summaries[0]:
                series = [s[key] for s in summaries]
                values[key] = series[0] if isinstance(series[0], int) else statistics.median(series)
            values["trace.overhead_frac"] = statistics.median(traced.times) / statistics.median(plain.times) - 1.0
            detail.update(traced_job_times_s=traced.times)
        n_failed, failures = failed_ops(w, seed, reps_list)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    kind = "end_to_end" if trace == 0 else "per_layer"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from BENCHMARK.json {kind}: {sorted(set(units) ^ set(values))}")
    attempted = w.ops * sum(len(r.times) for r in reps_list)
    result = {
        "correct": n_failed == 0,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units},
    }
    detail.update(job_times_s=plain.times, failures=failures, result=result, outputs=plain.first)
    (OUT / f"{name}_seed{seed}_trace{trace}.json").write_text(json.dumps(detail, indent=1, default=_jsonable))
    print(json.dumps({"manifest": detail["manifest"]}))
    return result


def _jsonable(value):
    return value.tolist() if hasattr(value, "tolist") else str(value)


def selftest(seed: int) -> bool:
    """Short traced run of every workload: closed-form counts and bit-identical outputs."""
    import tracer as tracing

    wl = import_workloads()
    ok = True
    OUT.mkdir(exist_ok=True)
    for name, cls in wl.WORKLOADS.items():
        w = cls(seed, short=True)
        with tempfile.TemporaryDirectory(dir=OUT) as tmp:
            workdir = Path(tmp)
            plain = w.job(w.setup(workdir))
            tr = tracing.Tracer()
            tr.install()
            try:
                t0 = time.perf_counter()
                traced = w.job(w.setup(workdir))
                wall = time.perf_counter() - t0
            finally:
                tr.uninstall()
        got = tr.summary(wall)
        checks = {f"{key} = {want}": got[key] == want for key, want in w.expected_counts().items()}
        checks["traced output bit-identical to untraced"] = traced == plain
        checks["output matches reference"] = not w.failed_ops(plain, w.expected())
        for check, passed in checks.items():
            if not passed:
                detail = f" (got {got[check.split(' = ')[0]]})" if " = " in check else ""
                print(f"SELFTEST {name} FAIL {check}{detail}")
        ok &= all(checks.values())
        print(f"SELFTEST {name}: {'PASS' if all(checks.values()) else 'FAIL'} ({len(checks)} checks)")
    return ok


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--selftest", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.selftest:
        return 0 if selftest(args.seed) else 1
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        p.error(f"--workload must be one of {names}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    result = run_workload(args.workload, args.seed, seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
