"""Benchmark of the scsa package, driven only through ``scsa.cli.main`` and
the public ``scsa`` API.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload pipeline_cv --seed 1 --seconds 40 --trace 0

Each workload is a closed loop with one client: commands run back to back in
this process. ``--trace 0`` measures the end-to-end metrics with no tracing;
operation times are taken relative to a reference loop timed during each
operation (see probe.py).
``--trace 1`` runs a fixed number of operations, each once untraced and once
traced, and reports per-layer metrics per operation. The last line of
standard output is the result as one JSON object; the lines before it give
the environment, the sample counts and the figures in a table.
"""

from __future__ import annotations

import os

# Pin BLAS before numpy is imported, here and in every child process.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import contextlib
import hashlib
import io
import json
import math
import pathlib
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from typing import Dict, List

ROOT = pathlib.Path(__file__).resolve().parent.parent
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
# Timed operations per run, at least; the first operation of a run is a
# warm-up and is not timed.
MIN_OPS = 3

# Every operation of a workload refits one fixed dataset. The work of a fit
# depends on its data far more than the benchmark's bounds allow (the same
# pipeline took 19-30 s on ten datasets of one spec, and SCSA-EM 0.9-11.8 s),
# so the workload seed is passed to `scsa fit --seed` and does not change the
# data. The datasets are smaller than the ROADMAP's (D=7, T=2000) so that a
# run holds 10-20 operations of either workload (2-5 s each).
PIPELINE_DATASET = dict(sources=4, order=4, samples=500, interactions=3, noise="N1", snr=2.0)
EM_DATASET = dict(sources=7, order=4, samples=1000, interactions=7, noise="N1", snr=2.0)
DATA_SEED = 1
# Dataset size of the self-test's smoke runs.
SMOKE_DATASET = dict(sources=2, samples=200, interactions=1)


@dataclass(frozen=True)
class Workload:
    name: str
    sim: Dict[str, object]  # `scsa simulate` options of the dataset
    fit: List[str]  # `scsa fit` options
    traced_ops: int  # operations traced in a --trace 1 run
    predictions: List[str]  # names of checks in _predictions


WORKLOADS = {
    w.name: w
    for w in [
        Workload(
            "pipeline_cv", PIPELINE_DATASET,
            fit=["--method", "scsa", "--orders", "1..7", "--lambda", "auto", "--folds", "5"],
            traced_ops=3,
            predictions=["m_step_dal_unused", "cv_dominates"],
        ),
        Workload(
            "em_refine", EM_DATASET,
            fit=["--method", "scsa_em", "--orders", "4", "--lambda", "5"],
            traced_ops=3,
            predictions=["m_step_dal_dominates", "cv_unused"],
        ),
    ]
}

# --------------------------------------------------------------------------
# operations


@dataclass
class OpResult:
    wall_s: float  # wall time of the timed command, less the probe's samples
    ref_s: float  # time of the probe's reference loop during it (harmonic mean)
    gofs: List[float]
    aucs: List[float]
    attempted: int
    failed: int
    errors: List[str]


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


class Runner:
    """Runs the commands of one workload inside a private work directory."""

    def __init__(self, workload: Workload, seed: int, smoke: bool):
        self.w = workload
        self.seed = seed
        self.sim = {**workload.sim, **(SMOKE_DATASET if smoke else {})}
        self.dir = WORK / f"{workload.name}-{seed}-{os.getpid()}"
        self.dataset = self.dir / "dataset"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.tracer = None  # a tracing.Tracer while an operation is traced
        self.probe = None  # a probe.SpeedProbe while operations are timed

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def command(self, argv: List[str], timed: bool = False):
        """Run one CLI command in-process; returns (exit code, wall seconds,
        reference-loop seconds). With ``timed`` and a probe, the probe samples
        during the command and its samples are taken out of the wall time."""
        from scsa.cli import main

        traced = self.tracer is not None
        probe = self.probe if timed else None
        with contextlib.redirect_stdout(io.StringIO()), \
                (self.tracer.installed() if traced else contextlib.nullcontext()), \
                (self.tracer.span("cli") if traced else contextlib.nullcontext()), \
                (probe.sampling() if probe else contextlib.nullcontext()):
            start = time.perf_counter()
            try:
                rc = main(argv)
            except Exception:  # noqa: BLE001 - a crash is one failed operation
                traceback.print_exc()
                rc = -1
            wall = time.perf_counter() - start
        if probe is None:
            return rc, wall, float("nan")
        return rc, wall - probe.overhead_s, probe.ref_s()

    def simulate_args(self) -> List[str]:
        opts = [a for k, v in self.sim.items() for a in (f"--{k}", str(v))]
        return ["simulate", *opts, "--seed", str(DATA_SEED), "--out", str(self.dataset)]

    def simulate(self) -> None:
        shutil.rmtree(self.dataset, ignore_errors=True)
        rc, _, _ = self.command(self.simulate_args())
        if rc != 0:
            raise RuntimeError(f"scsa simulate exited with {rc}")

    def digest(self) -> str:
        return hashlib.sha256((self.dataset / "signals.bin").read_bytes()).hexdigest()

    def _opt(self, flag: str) -> str:
        return self.w.fit[self.w.fit.index(flag) + 1]

    def run(self, k: int) -> OpResult:
        """One timed `scsa fit`, then its checks and `scsa eval`, untimed."""
        import numpy as np

        out = self.dir / f"model{k}.json"
        report = self.dir / f"report{k}.json"
        rc, wall, ref = self.command(["fit", str(self.dataset), *self.w.fit,
                                      "--seed", str(self.seed), "--out", str(out)], timed=True)
        res = OpResult(wall, ref, [], [], 1, 0, [])
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}")
            m = json.loads(out.read_text())
            b = np.array(m["b"], dtype=float)
            h = [np.array(x, dtype=float) for x in m["h"]]
            if not (np.all(np.isfinite(b)) and all(np.all(np.isfinite(x)) for x in h)):
                raise ValueError("B or H not finite")
            if np.linalg.matrix_rank(b) < b.shape[0]:
                raise ValueError("B not invertible")
            lo, _, hi = self._opt("--orders").partition("..")
            if not int(lo) <= m["selected_order"] <= int(hi or lo):
                raise ValueError(f"order {m['selected_order']} not a candidate")
            lam = self._opt("--lambda")
            grid = [float(x) for x in m["cv_curve"]] if lam == "auto" else [float(lam)]
            if m["selected_lambda"] not in grid:
                raise ValueError(f"lambda {m['selected_lambda']} not in the grid")
            rc, _, _ = self.command(["eval", str(self.dataset), str(out), "--out", str(report)])
            if rc != 0:
                raise ValueError(f"scsa eval exit code {rc}")
            scores = json.loads(report.read_text())
            if not _finite(scores["gof_error"], scores["auc"]):
                raise ValueError("GOF or AUC not finite")
            res.gofs.append(scores["gof_error"])
            res.aucs.append(scores["auc"])
        except (ValueError, KeyError, OSError) as err:
            res.failed, res.errors = 1, [f"fit {k}: {err}"]
        return res


# --------------------------------------------------------------------------
# set-up, environment, statistics


def measure_setup(runner: Runner):
    """Import scsa and simulate and save the dataset in a fresh process,
    SETUP_REPEATS times, with the speed probe sampling in that process.
    Returns the wall times (less the probe's samples) and the reference-loop
    times."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONDONTWRITEBYTECODE="1")
    probe = pathlib.Path(__file__).resolve().parent / "probe.py"
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(runner.dataset, ignore_errors=True)
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, str(probe), "scsa.cli", *runner.simulate_args()],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()}")
        sampled = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(wall - sampled["overhead_s"])
        refs.append(sampled["ref_s"])
    return times, refs


def _openblas() -> Dict[str, object]:
    import ctypes

    import numpy as np

    info: Dict[str, object] = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = pathlib.Path(np.__file__).parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                fn = getattr(handle, sym)
                fn.argtypes, fn.restype = [], ctypes.c_int
                info["runtime_threads"] = fn()
                break
    return info


def environment() -> Dict[str, object]:
    import numpy as np
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_threads_pinned": int(BLAS_THREADS),
    }


# --------------------------------------------------------------------------
# the two kinds of run


def run_untraced(runner: Runner, seconds: float):
    from probe import NOMINAL_REF_S, SpeedProbe

    setup, setup_refs = measure_setup(runner)  # leaves the dataset in place
    runner.probe = SpeedProbe()
    ops = [runner.run(0)]  # warm-up, checked but not timed
    start = time.perf_counter()
    while len(ops) <= MIN_OPS or time.perf_counter() - start < seconds:
        ops.append(runner.run(len(ops)))
    timed = ops[1:]
    times = [op.wall_s for op in timed]
    refs = [op.ref_s for op in timed]
    gofs = [g for op in ops for g in op.gofs]
    aucs = [a for op in ops for a in op.aucs]
    nan = float("nan")
    metrics = {
        "setup_s": statistics.median(t / r * NOMINAL_REF_S for t, r in zip(setup, setup_refs)),
        "op_ref_p50": statistics.median(t / r for t, r in zip(times, refs)),
        "gof_median": statistics.median(gofs) if gofs else nan,
        "auc_median": statistics.median(aucs) if aucs else nan,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    info = {
        "setup_samples_s": [round(t, 4) for t in setup],
        "setup_ref_samples_ms": [round(r * 1e3, 4) for r in setup_refs],
        "timed_ops": len(timed),
        "op_samples_s": [round(t, 4) for t in times],
        "ref_samples_ms": [round(r * 1e3, 4) for r in refs],
        # raw seconds, for reading; they move with the host's speed
        "op_s_p50_raw": statistics.median(times),
        "ref_ms_p50": statistics.median(refs) * 1e3,
        "dataset_sha256": runner.digest(),
    }
    return metrics, ops, info


def _predictions(workload: Workload, layers: Dict[str, float], op_s: float) -> Dict[str, bool]:
    checks = {
        "m_step_dal_unused": lambda: layers["em_dal.m_step_dal.calls"] == 0,
        "cv_unused": lambda: layers["estimators.select_lambda_cv.calls"] == 0,
        "cv_dominates": lambda: layers["estimators.select_lambda_cv.s"] >= 0.75 * op_s,
        "m_step_dal_dominates": lambda: layers["em_dal.m_step_dal.self_s"] >= 0.75 * op_s,
    }
    return {name: checks[name]() for name in workload.predictions}


def run_traced(runner: Runner, spans_path: pathlib.Path):
    from tracing import Tracer, layer_metrics

    n = runner.w.traced_ops
    tracer = Tracer()
    ops: List[OpResult] = []
    wall = {False: 0.0, True: 0.0}
    fit_s = 0.0

    def one(k: int, traced: bool) -> OpResult:
        # each operation regenerates its dataset, so set-up layers show
        runner.tracer = tracer if traced else None
        start = time.perf_counter()
        runner.simulate()
        op = runner.run(k)
        wall[traced] += time.perf_counter() - start
        runner.tracer = None
        return op

    # The first command of a process runs slower (allocator and interpreter
    # warm-up), so it is discarded. Each operation then runs untraced and
    # traced in alternating order, so drift cancels in the overhead figure.
    ops.append(one(0, False))
    wall[False] = 0.0
    for k in range(n):
        for traced in ((False, True) if k % 2 == 0 else (True, False)):
            op = one(k, traced)
            ops.append(op)
            fit_s += op.wall_s if traced else 0.0
    layers = layer_metrics(tracer.spans, per=n)
    layers["trace_overhead_frac"] = wall[True] / wall[False] - 1.0
    spans_path.write_text(json.dumps(tracer.dump()))
    info = {
        "traced_ops": n,
        "untraced_s": wall[False],
        "traced_s": wall[True],
        "predictions": _predictions(runner.w, layers, fit_s / n),
        "dataset_sha256": runner.digest(),
    }
    return layers, ops, info


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="use tiny datasets (for the self-test)")
    args = parser.parse_args(argv)

    if not (SRC / "scsa" / "__init__.py").is_file():
        print(f"error: no scsa package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(1, str(pathlib.Path(__file__).resolve().parent))

    out_dir = WORK / "out"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(WORKLOADS[args.workload], args.seed, args.smoke)
    try:
        if args.trace:
            values, ops, info = run_traced(runner, out_dir / f"{stem}.spans.json")
        else:
            values, ops, info = run_untraced(runner, args.seconds)
    finally:
        runner.close()
    spec = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec}
    if set(units) != set(values):
        raise RuntimeError(f"metrics differ from {SPEC.name}: {sorted(set(units) ^ set(values))}")

    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    errors = [e for op in ops for e in op.errors]
    correct = failed == 0 and all(math.isfinite(v) for v in values.values())
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "environment": environment(), **info,
              "failed_frac": failed / attempted, "errors": errors[:20], "metrics": metrics}
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=2))
    for key in ("environment", *info, "failed_frac"):
        print(f"{key}: {json.dumps(record[key])}")
    for e in errors[:20]:
        print(f"error: {e}")
    for k, v in values.items():
        print(f"{k:36s} {v:14.6g} {units[k]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
