"""Command-line front end: simulate -> fit -> eval pipelines plus batch
benchmarking with long-format CSV output.

Exit codes: 0 success, 2 usage error, 3 I/O error, 4 numeric/sampling
failure (numpy's ``LinAlgError`` included), 5 estimator failure.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import io
import json
import logging
import os
import pathlib
import sys
import tempfile
from typing import Dict, List

import numpy as np

from .estimators import AUTO, FitRequest, _pool_map, fit
from .evaluation import evaluate
from .exceptions import NumericError, SamplingError, ScsaError
from .model import MvarCoefficients, SourceModel, _is_int
from .simulator import (
    NOISE_KINDS,
    SimulationSpec,
    generate,
    load_dataset,
    save_dataset,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_NUMERIC = 4
EXIT_ESTIMATOR = 5

BENCH_FIELDS = [
    "dataset",
    "noise",
    "method",
    "gof",
    "auc",
    "order",
    "lambda",
    "seconds",
    "entry",
    "error",
]


class UsageError(Exception):
    pass


def _atomic_write_text(path, text: str) -> None:
    path = pathlib.Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "w", newline="") as fh:  # the text's line ends as given
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def run_seed(master_seed: int, repetition: int, noise: str, method: str) -> int:
    """Stable per-run seed independent across (repetition, noise, method)."""
    key = f"{master_seed}:{repetition}:{noise}:{method}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little") % (2**63)


def _parse_orders(text: str) -> List[int]:
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part.strip()]


def _model_to_json(result) -> str:
    model = result.model
    payload = {
        "method": result.method,
        "b": model.b.tolist(),
        "h": [hp.tolist() for hp in model.h.lags],
        "selected_order": result.selected_order,
        "selected_lambda": result.selected_lambda,
        "bic_per_order": {str(k): v for k, v in result.bic_per_order.items()},
        "cv_curve": {str(k): v for k, v in result.cv_curve.items()},
        "trace": {
            "iterations": result.trace.iterations,
            "final_value": _jsonable(result.trace.final_value),
            "converged": result.trace.converged,
            "stagnated": result.trace.stagnated,
        },
        "wall_time": result.wall_time,
    }
    return json.dumps(payload, indent=2)


def _jsonable(x):
    x = float(x)
    return x if np.isfinite(x) else None


def load_model_file(path) -> Dict:
    payload = json.loads(pathlib.Path(path).read_text())
    payload["model"] = SourceModel(
        b=np.array(payload["b"]),
        h=MvarCoefficients([np.array(hp) for hp in payload["h"]]),
    )
    return payload


def cmd_simulate(args) -> int:
    spec = SimulationSpec(
        d_sources=args.sources,
        p=args.order,
        t=args.samples,
        n_interactions=args.interactions,
        noise_kind=args.noise,
        snr=args.snr,
        sensor_count=args.sensors,
        seed=args.seed,
    )
    ds = generate(spec)
    ds.metadata["snr"] = None if args.noise == "N0" else args.snr
    save_dataset(ds, args.out)
    print(
        f"dataset: {ds.x.n_channels} channels x {ds.x.n_samples} samples, "
        f"noise {spec.noise_kind}, snr "
        f"{'-' if ds.metadata['snr'] is None else spec.snr}, seed {spec.seed}"
    )
    return EXIT_OK


@contextlib.contextmanager
def _debug_to_stderr(enabled: bool):
    """Inside the block, with ``enabled``, the ``scsa`` logger sends its
    DEBUG lines to stderr; its handlers and level are restored on leaving,
    so nothing outlives one :func:`main` call."""
    if not enabled:
        yield
        return
    log = logging.getLogger("scsa")
    handler, level = logging.StreamHandler(sys.stderr), log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def cmd_fit(args) -> int:
    ds = load_dataset(args.dataset)
    lam = args.lam
    if lam is None or lam.lower() == "auto":
        grid = AUTO
    else:
        grid = [float(lam)]
    request = FitRequest(
        method=args.method.upper(),
        order_candidates=_parse_orders(args.orders),
        lambda_grid=grid,
        cv_folds=args.folds,
    )
    with _debug_to_stderr(args.verbose):
        result = fit(ds.x, request)
    out = args.out or (pathlib.Path(args.dataset) / f"model_{args.method.lower()}.json")
    _atomic_write_text(out, _model_to_json(result))
    print(
        f"fitted {result.method}: order {result.selected_order}, "
        f"lambda {result.selected_lambda}, {result.wall_time:.2f}s -> {out}"
    )
    return EXIT_OK


def cmd_eval(args) -> int:
    ds = load_dataset(args.dataset)
    payload = load_model_file(args.model)
    model = payload["model"]
    if model.dim != ds.x.n_channels:
        raise ScsaError(
            f"model dimension {model.dim} does not match dataset "
            f"channels {ds.x.n_channels}"
        )
    report = evaluate(
        payload.get("method", "?"),
        model,
        ds.true_mixing,
        ds.true_support,
        x=ds.x,
        mvar_order=payload.get("selected_order") or ds.spec.p,
        selected_lambda=payload.get("selected_lambda"),
        wall_time_s=payload.get("wall_time", 0.0),
    )
    out = args.out or (pathlib.Path(args.dataset) / "report.json")
    _atomic_write_text(out, report.to_json())
    print(f"gof {report.gof_error:.4f}, auc {report.auc}, -> {out}")
    return EXIT_OK


def _bench_run(
    spec: SimulationSpec, request: FitRequest, entry: int, rep, master_seed
) -> Dict:
    row = dict.fromkeys(BENCH_FIELDS, "")
    row.update(
        dataset=f"rep{rep}", noise=spec.noise_kind, method=request.method, entry=entry
    )
    try:
        seed = run_seed(master_seed, rep, spec.noise_kind, request.method)
        spec = dataclasses.replace(spec, seed=seed)
        ds = generate(spec)
        result = fit(ds.x, request)
        report = evaluate(
            request.method,
            result.model,
            ds.true_mixing,
            ds.true_support,
            x=ds.x,
            mvar_order=result.selected_order or spec.p,
            selected_lambda=result.selected_lambda,
            wall_time_s=result.wall_time,
        )
        row.update(
            gof=f"{report.gof_error:.6f}",
            auc="" if report.auc is None else f"{report.auc:.6f}",
            order=str(result.selected_order),
            **{"lambda": "" if result.selected_lambda is None else str(result.selected_lambda)},
            seconds=f"{result.wall_time:.3f}",
        )
    except Exception as err:  # noqa: BLE001 - failures recorded, batch continues
        row["error"] = f"{type(err).__name__}: {err}"
    return row


def _config_entry(cls, what: str, entry):
    """``cls(**entry)``, or a :class:`UsageError` naming the entry."""
    try:
        return cls(**entry)
    except (TypeError, ValueError) as err:
        raise UsageError(f"{what} {entry!r} does not build: {err}") from err


def _positive_int(value, what: str) -> int:
    """``value`` if it is an integer >= 1, else a :class:`UsageError`."""
    if not _is_int(value, 1):
        raise UsageError(f"{what} must be an integer >= 1; got {value!r}")
    return int(value)


def _quartiles(values: List[float]):
    arr = np.array(values)
    return np.percentile(arr, 25), np.median(arr), np.percentile(arr, 75)


def cmd_bench(args) -> int:
    config = json.loads(pathlib.Path(args.config).read_text())
    repetitions = _positive_int(config.get("repetitions", 1), "repetitions")
    sim = dict(config.get("simulation", {}))
    noise_kinds = config.get("noise_kinds") or [sim.get("noise_kind", "N0")]
    specs = [
        _config_entry(SimulationSpec, "simulation", {**sim, "noise_kind": kind})
        for kind in noise_kinds
    ]
    methods = config.get("methods")
    if not methods:
        raise UsageError("config needs a nonempty 'methods' list")
    requests = [_config_entry(FitRequest, "methods entry", m) for m in methods]
    master_seed = config.get("master_seed", 0)
    if not _is_int(master_seed):
        raise UsageError(f"master_seed must be an integer; got {master_seed!r}")
    if "parallelism" in config:
        workers = _positive_int(config["parallelism"], "parallelism")
    else:
        workers = _positive_int(args.threads, "--threads")
    out_dir = pathlib.Path(config.get("output_dir", args.out or "."))
    out_dir.mkdir(parents=True, exist_ok=True)

    # rows in task order: repetition, then noise kind and methods entry as
    # configured; each worker's fits run serially, as maps do not nest
    tasks = [
        (spec, request, entry, rep, master_seed)
        for rep in range(repetitions)
        for spec in specs
        for entry, request in enumerate(requests)
    ]
    rows = _pool_map(_bench_run, tasks, cap=workers)

    long_path = out_dir / "results.csv"
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=BENCH_FIELDS)
    writer.writeheader()
    writer.writerows(rows)
    _atomic_write_text(long_path, buf.getvalue())

    summary_lines = ["noise,entry,method,n,gof_q1,gof_median,gof_q3,auc_median"]
    for noise in noise_kinds:
        for entry, request in enumerate(requests):
            sub = [
                r
                for r in rows
                if r["noise"] == noise and r["entry"] == entry and not r["error"]
            ]
            key = f"{noise},{entry},{request.method}"
            if not sub:
                summary_lines.append(f"{key},0,,,,")
                continue
            gofs = [float(r["gof"]) for r in sub]
            q1, med, q3 = _quartiles(gofs)
            aucs = [float(r["auc"]) for r in sub if r["auc"] != ""]
            auc_med = f"{np.median(aucs):.6f}" if aucs else ""
            summary_lines.append(
                f"{key},{len(sub)},{q1:.6f},{med:.6f},{q3:.6f},{auc_med}"
            )
    _atomic_write_text(out_dir / "summary.csv", "\n".join(summary_lines) + "\n")
    n_failed = sum(1 for r in rows if r["error"])
    print(
        f"{len(rows)} runs ({n_failed} failed) -> {long_path}, "
        f"{out_dir / 'summary.csv'}"
    )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scsa", description="Sparsely-connected sources analysis toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a benchmark dataset")
    p_sim.add_argument("--sources", type=int, default=7)
    p_sim.add_argument("--order", type=int, default=4)
    p_sim.add_argument("--samples", type=int, default=2000)
    p_sim.add_argument("--interactions", type=int, default=7)
    p_sim.add_argument("--noise", choices=NOISE_KINDS, default="N0")
    p_sim.add_argument("--snr", type=float, default=2.0)
    p_sim.add_argument("--sensors", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", required=True)
    p_sim.set_defaults(func=cmd_simulate)

    p_fit = sub.add_parser("fit", help="fit a model to a dataset")
    p_fit.add_argument("dataset")
    p_fit.add_argument("--method", required=True)
    p_fit.add_argument("--orders", default="1")
    p_fit.add_argument("--lambda", dest="lam", default=None)
    p_fit.add_argument("--folds", type=int, default=5)
    p_fit.add_argument(
        "--seed", type=int, default=0, help="ignored: fits are deterministic"
    )
    p_fit.add_argument("--out", default=None)
    p_fit.add_argument(
        "--verbose", action="store_true",
        help="log each kept stagnation and each CV (fold, lambda) fit to stderr",
    )
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="score a fitted model against truth")
    p_eval.add_argument("dataset")
    p_eval.add_argument("model")
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    p_bench = sub.add_parser("bench", help="run a batch experiment from a config")
    p_bench.add_argument("config")
    p_bench.add_argument("--threads", type=int, default=1)
    p_bench.add_argument("--out", default=None)
    p_bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    # LinAlgError subclasses ValueError, so this clause comes first
    except (NumericError, SamplingError, np.linalg.LinAlgError) as err:
        print(f"numeric error: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (UsageError, ValueError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, json.JSONDecodeError, KeyError) as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO
    except ScsaError as err:
        print(f"estimator error: {err}", file=sys.stderr)
        return EXIT_ESTIMATOR


if __name__ == "__main__":
    sys.exit(main())
