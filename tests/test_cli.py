import csv
import json
import logging
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import scsa.cli
from scsa import estimators, fitting
from scsa.cli import (
    EXIT_ESTIMATOR,
    EXIT_IO,
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _parse_orders,
    load_model_file,
    main,
    run_seed,
)
from scsa.cost import GroupPenaltySpec, cost_scsa
from scsa.exceptions import NumericError
from scsa.simulator import load_dataset, save_dataset


def run(*argv):
    return main(list(argv))


SIM_ARGS = [
    "simulate",
    "--sources", "2", "--order", "1", "--samples", "300",
    "--interactions", "1", "--noise", "N1", "--snr", "2", "--seed", "3",
]


@pytest.fixture
def dataset_dir(tmp_path):
    out = tmp_path / "d1"
    assert run(*SIM_ARGS, "--out", str(out)) == EXIT_OK
    return out


def truncate_signals(dataset_dir, n_bytes):
    signals = dataset_dir / "signals.bin"
    signals.write_bytes(signals.read_bytes()[:-n_bytes])
    return signals


class TestSimulate:
    def test_writes_dataset(self, dataset_dir):
        assert (dataset_dir / "signals.bin").exists()
        assert (dataset_dir / "truth.json").exists()
        ds = load_dataset(dataset_dir)
        assert ds.x.data.shape == (2, 300)

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run(*SIM_ARGS, "--out", str(a))
        run(*SIM_ARGS, "--out", str(b))
        assert (a / "signals.bin").read_bytes() == (b / "signals.bin").read_bytes()

    def test_noiseless_records_absent_snr(self, tmp_path):
        out = tmp_path / "n0"
        args = list(SIM_ARGS)
        args[args.index("--noise") + 1] = "N0"
        run(*args, "--out", str(out))
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["snr"] is None

    def test_usage_error(self, tmp_path):
        args = list(SIM_ARGS)
        args[args.index("--interactions") + 1] = "99"
        assert run(*args, "--out", str(tmp_path / "x")) == EXIT_USAGE

    @pytest.mark.parametrize(
        "changes",
        [
            {"--samples": "0"},
            {"--samples": "1"},  # T <= P
            {"--order": "-1"},
            {"--sources": "0", "--interactions": "0"},
            {"--snr": "inf"},
        ],
    )
    def test_impossible_spec_is_usage_error(self, tmp_path, changes):
        args = list(SIM_ARGS)
        for flag, value in changes.items():
            args[args.index(flag) + 1] = value
        out = tmp_path / "x"
        assert run(*args, "--out", str(out)) == EXIT_USAGE
        assert not out.exists()

    @pytest.mark.parametrize(
        "interactions,code", [("0", EXIT_OK), ("2", EXIT_USAGE)], ids=["none", "two"]
    )
    def test_order_zero(self, tmp_path, interactions, code):
        # order-0 sources are independent: no interaction can be drawn
        args = list(SIM_ARGS)
        args[args.index("--order") + 1] = "0"
        args[args.index("--interactions") + 1] = interactions
        out = tmp_path / "p0"
        assert run(*args, "--out", str(out)) == code
        if code == EXIT_OK:
            ds = load_dataset(out)
            assert ds.x.data.shape == (2, 300)
            assert ds.true_h.order == 0 and not ds.true_support.any()
        else:
            assert not out.exists()


class TestFit:
    def test_fit_writes_model(self, dataset_dir, tmp_path):
        out = tmp_path / "model.json"
        code = run(
            "fit", str(dataset_dir), "--method", "csa", "--orders", "1",
            "--seed", "7", "--out", str(out),  # --seed parses and is ignored
        )
        assert code == EXIT_OK
        payload = load_model_file(out)
        assert payload["model"].dim == 2
        assert payload["selected_order"] == 1

    def test_model_records_a_kept_stagnation(self, dataset_dir, tmp_path, monkeypatch):
        # every point but the start leaves the domain, so the fit stagnates
        # at once and keeps the start
        real, calls = fitting.grad_csa, []

        def start_only(*args):
            calls.append(args)
            if len(calls) > 1:
                raise NumericError("outside the domain")
            return real(*args)

        monkeypatch.setattr(fitting, "grad_csa", start_only)
        out = tmp_path / "model.json"
        code = run("fit", str(dataset_dir), "--method", "csa", "--out", str(out))
        assert code == EXIT_OK
        trace = json.loads(out.read_text())["trace"]
        assert trace["stagnated"] and not trace["converged"]
        assert trace["iterations"] == 0

    def test_verbose_logs_cv_to_stderr_for_one_call(
        self, dataset_dir, tmp_path, capsys, monkeypatch
    ):
        # the CV folds run here, not in workers whose stderr is their own
        monkeypatch.setattr(estimators, "_worker_count", lambda n_tasks, cap=None: 1)
        log = logging.getLogger("scsa")
        handlers, level = list(log.handlers), log.level
        code = run(
            "fit", str(dataset_dir), "--method", "scsa", "--lambda", "auto",
            "--folds", "3", "--verbose", "--out", str(tmp_path / "m.json"),
        )
        assert code == EXIT_OK
        assert capsys.readouterr().err.count("CV fold") == 3 * 12
        assert log.handlers == handlers and log.level == level

    def test_ica_has_order_zero(self, dataset_dir, tmp_path):
        out = tmp_path / "ica.json"
        run("fit", str(dataset_dir), "--method", "ica", "--out", str(out))
        payload = load_model_file(out)
        assert payload["model"].order == 0

    def test_scsa_lambda_zero_matches_csa(self, dataset_dir, tmp_path):
        out_scsa = tmp_path / "scsa.json"
        out_csa = tmp_path / "csa.json"
        run("fit", str(dataset_dir), "--method", "scsa", "--orders", "1",
            "--lambda", "0", "--out", str(out_scsa))
        run("fit", str(dataset_dir), "--method", "csa", "--orders", "1",
            "--out", str(out_csa))
        ds = load_dataset(dataset_dir)
        pen = GroupPenaltySpec(0.0)
        c1 = cost_scsa(load_model_file(out_scsa)["model"], ds.x, pen)
        c2 = cost_scsa(load_model_file(out_csa)["model"], ds.x, pen)
        assert c1 == pytest.approx(c2, abs=1e-6)

    @pytest.mark.parametrize("method", ["scsa", "scsa_em"])
    def test_penalized_fit_at_order_zero(self, dataset_dir, tmp_path, method):
        out = tmp_path / "p0.json"
        code = run("fit", str(dataset_dir), "--method", method, "--orders", "0",
                   "--lambda", "0.5", "--out", str(out))
        assert code == EXIT_OK
        assert load_model_file(out)["model"].order == 0

    @pytest.mark.parametrize(
        "args",
        [("csa", "--orders", "2"), ("ica",), ("mvarica", "--orders", "2")],
        ids=["csa", "ica", "mvarica"],
    )
    def test_duplicated_channel_is_estimator_error(
        self, dataset_dir, capsys, monkeypatch, args
    ):
        ds = load_dataset(dataset_dir)
        ds.x.data[1] = ds.x.data[0]
        save_dataset(ds, dataset_dir)

        def no_solve(*_):
            raise AssertionError("a solve ran on rank-deficient data")

        monkeypatch.setattr(fitting, "minimize", no_solve)
        code = run("fit", str(dataset_dir), "--method", *args)
        assert code == EXIT_ESTIMATOR
        err = capsys.readouterr().err
        assert "estimator error" in err and "rank-deficient" in err

    @pytest.mark.parametrize("lam", ["nan", "inf"])
    def test_non_finite_lambda_is_usage_error(self, dataset_dir, tmp_path, lam):
        out = tmp_path / "model.json"
        code = run("fit", str(dataset_dir), "--method", "scsa", "--orders", "1",
                   "--lambda", lam, "--out", str(out))
        assert code == EXIT_USAGE
        assert not out.exists()

    def test_bad_lambda_exits_before_order_selection(self, dataset_dir, monkeypatch):
        def no_fitting(*args, **kwargs):
            raise AssertionError("select_order_bic ran before lambda was checked")

        monkeypatch.setattr(scsa.estimators, "select_order_bic", no_fitting)
        code = run("fit", str(dataset_dir), "--method", "scsa", "--orders", "1..3",
                   "--lambda", "nan")
        assert code == EXIT_USAGE

    def test_orders_range_syntax(self):
        assert _parse_orders("1..4") == [1, 2, 3, 4]
        assert _parse_orders("2,5") == [2, 5]

    def test_missing_dataset(self, tmp_path):
        assert run("fit", str(tmp_path / "nope"), "--method", "csa") == EXIT_IO

    @pytest.mark.parametrize("n_bytes", [5, 8])
    def test_truncated_signals_is_io_error(self, dataset_dir, capsys, n_bytes):
        signals = truncate_signals(dataset_dir, n_bytes)
        assert run("fit", str(dataset_dir), "--method", "csa") == EXIT_IO
        err = capsys.readouterr().err
        assert str(signals) in err
        assert f"{2 * 300 * 8 - n_bytes} bytes" in err and str(2 * 300 * 8) in err


class TestEval:
    def test_truth_model_scores_perfectly(self, dataset_dir, tmp_path):
        ds = load_dataset(dataset_dir)
        b_true = np.linalg.inv(ds.true_mixing.m)
        model_file = tmp_path / "truth_model.json"
        model_file.write_text(json.dumps({
            "method": "TRUTH",
            "b": b_true.tolist(),
            "h": [hp.tolist() for hp in ds.true_h.lags],
            "selected_order": 1,
            "selected_lambda": None,
            "wall_time": 0.0,
        }))
        out = tmp_path / "report.json"
        assert run("eval", str(dataset_dir), str(model_file), "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["gof_error"] == pytest.approx(0.0, abs=1e-10)
        assert report["auc"] == 1.0

    def test_permuted_rescaled_truth_scores_zero_gof(self, dataset_dir, tmp_path):
        ds = load_dataset(dataset_dir)
        m_perm = ds.true_mixing.m[:, [1, 0]] * np.array([2.0, -0.5])
        model_file = tmp_path / "perm.json"
        model_file.write_text(json.dumps({
            "method": "PERM",
            "b": np.linalg.inv(m_perm).tolist(),
            "h": [np.zeros((2, 2)).tolist()],
            "selected_order": 1,
        }))
        out = tmp_path / "report.json"
        run("eval", str(dataset_dir), str(model_file), "--out", str(out))
        report = json.loads(out.read_text())
        assert report["gof_error"] == pytest.approx(0.0, abs=1e-10)

    def test_dimension_mismatch(self, dataset_dir, tmp_path):
        model_file = tmp_path / "bad.json"
        model_file.write_text(json.dumps({
            "method": "BAD", "b": np.eye(3).tolist(), "h": [],
        }))
        assert run("eval", str(dataset_dir), str(model_file)) == EXIT_ESTIMATOR

    def test_order_zero_truth_has_no_auc(self, tmp_path):
        # order-0 sources have no interaction to rank, so the AUC is null,
        # and the model is not scored for one (an order-0 fit has no lags)
        args = list(SIM_ARGS)
        args[args.index("--order") + 1] = "0"
        args[args.index("--interactions") + 1] = "0"
        data, model_file = tmp_path / "p0", tmp_path / "ica.json"
        assert run(*args, "--out", str(data)) == EXIT_OK
        assert run("fit", str(data), "--method", "ica", "--orders", "0",
                   "--out", str(model_file)) == EXIT_OK
        out = tmp_path / "report.json"
        assert run("eval", str(data), str(model_file), "--out", str(out)) == EXIT_OK
        report = json.loads(out.read_text())
        assert report["auc"] is None and np.isfinite(report["gof_error"])
        assert sorted(report) == [
            "auc", "gof_error", "method", "per_pattern_gof", "selected_lambda",
            "selected_order", "wall_time_s",
        ]

    def test_truncated_signals_is_io_error(self, dataset_dir, tmp_path):
        model_file = tmp_path / "model.json"
        assert run("fit", str(dataset_dir), "--method", "ica",
                   "--out", str(model_file)) == EXIT_OK
        truncate_signals(dataset_dir, 5)
        assert run("eval", str(dataset_dir), str(model_file)) == EXIT_IO


class TestBench:
    def _config(self, tmp_path, **overrides):
        config = {
            "simulation": {
                "d_sources": 2, "p": 1, "t": 300, "n_interactions": 1, "snr": 2.0,
            },
            "methods": [
                {"method": "CSA", "order_candidates": [1]},
            ],
            "noise_kinds": ["N0"],
            "repetitions": 1,
            "master_seed": 1,
            "output_dir": str(tmp_path / "bench"),
        }
        config.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        return path

    def test_single_run_csv(self, tmp_path):
        cfg = self._config(tmp_path)
        assert run("bench", str(cfg)) == EXIT_OK
        rows = (tmp_path / "bench" / "results.csv").read_text().strip().splitlines()
        assert len(rows) == 2  # header + 1 run
        assert (tmp_path / "bench" / "summary.csv").exists()

    def test_row_count_and_determinism(self, tmp_path):
        def strip_seconds(text):
            rows = [line.split(",") for line in text.strip().splitlines()]
            return [row[:7] + row[8:] for row in rows]

        results = []
        for parallelism in (1, 1, 2):
            cfg = self._config(
                tmp_path,
                repetitions=2,
                noise_kinds=["N0", "N1"],
                methods=[
                    {"method": "CSA", "order_candidates": [1]},
                    {"method": "ICA", "order_candidates": [1]},
                    {"method": "SCSA_EM", "order_candidates": [1], "lambda_grid": [2.0]},
                ],
                parallelism=parallelism,
            )
            assert run("bench", str(cfg)) == EXIT_OK
            results.append((tmp_path / "bench" / "results.csv").read_text())
        first = strip_seconds(results[0])
        assert len(first) == 1 + 2 * 2 * 3
        assert all(row[-1] == "" for row in first[1:])  # no run failed
        # everything except the wall-clock column is reproducible, whatever
        # the number of worker processes
        for text in results[1:]:
            assert strip_seconds(text) == first

    def test_one_summary_row_per_entry(self, tmp_path):
        # two entries of one method, told apart only by their settings
        lambdas = [0.1, 50.0]
        cfg = self._config(
            tmp_path,
            repetitions=11,
            methods=[
                {"method": "SCSA", "order_candidates": [1], "lambda_grid": [lam]}
                for lam in lambdas
            ],
        )
        assert run("bench", str(cfg)) == EXIT_OK
        with open(tmp_path / "bench" / "results.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["error"] == "" for r in rows)
        # task order: repetitions in numeric order, then entries as configured
        assert [(r["dataset"], r["entry"]) for r in rows] == [
            (f"rep{rep}", str(entry)) for rep in range(11) for entry in (0, 1)
        ]
        assert [float(r["lambda"]) for r in rows] == lambdas * 11
        summary = (tmp_path / "bench" / "summary.csv").read_text().splitlines()
        assert summary[0] == "noise,entry,method,n,gof_q1,gof_median,gof_q3,auc_median"
        assert len(summary) == 3
        for entry, line in enumerate(summary[1:]):
            noise, got_entry, method, n, _, median, _, _ = line.split(",")
            assert (noise, got_entry, method, n) == ("N0", str(entry), "SCSA", "11")
            gofs = [float(r["gof"]) for r in rows if r["entry"] == str(entry)]
            assert median == f"{np.median(gofs):.6f}"

    def test_order_zero_row_has_gof_and_no_auc(self, tmp_path):
        cfg = self._config(
            tmp_path,
            simulation={"d_sources": 2, "p": 0, "t": 300, "n_interactions": 0},
            methods=[{"method": "ICA", "order_candidates": [0]}],
        )
        assert run("bench", str(cfg)) == EXIT_OK
        with open(tmp_path / "bench" / "results.csv", newline="") as fh:
            (row,) = csv.DictReader(fh)
        assert row["error"] == "" and row["auc"] == ""
        assert np.isfinite(float(row["gof"]))

    def test_failed_replace_leaves_no_file(self, tmp_path, monkeypatch):
        def failing_replace(src, dst):
            raise OSError("replace failed")

        cfg = self._config(tmp_path)
        monkeypatch.setattr(scsa.cli.os, "replace", failing_replace)
        assert run("bench", str(cfg)) == EXIT_IO
        assert list((tmp_path / "bench").iterdir()) == []

    def test_bad_config(self, tmp_path):
        cfg = self._config(tmp_path, methods=[])
        assert run("bench", str(cfg)) == EXIT_USAGE

    @pytest.mark.parametrize(
        "entry",
        [
            {"order_candidates": [1]},
            "CSA",
            {"method": "FOO"},
            {"method": "CSA", "lambda": 1},
            {"method": "CSA", "order_candidates": [2.5]},
            {"method": "SCSA", "cv_folds": 2.5},
        ],
    )
    def test_bad_method_entry_is_usage_error(self, tmp_path, capsys, entry):
        cfg = self._config(tmp_path, methods=[{"method": "CSA"}, entry])
        assert run("bench", str(cfg)) == EXIT_USAGE
        assert repr(entry) in capsys.readouterr().err
        assert not (tmp_path / "bench" / "results.csv").exists()

    @pytest.mark.parametrize(
        "setting, value, argv",
        [
            ("parallelism", 0, []),
            ("parallelism", -3, []),
            ("parallelism", 1.9, []),
            ("repetitions", 1.5, []),
            ("--threads", 0, ["--threads", "0"]),
        ],
    )
    def test_bad_count_is_usage_error(self, tmp_path, capsys, setting, value, argv):
        overrides = {} if argv else {setting: value}
        cfg = self._config(tmp_path, **overrides)
        assert run("bench", str(cfg), *argv) == EXIT_USAGE
        assert f"{setting} must be an integer >= 1; got {value!r}" in capsys.readouterr().err
        assert not (tmp_path / "bench" / "results.csv").exists()

    @pytest.mark.parametrize("simulation", [{"d_sources": 0}, {"sources": 2}])
    def test_bad_simulation_is_usage_error(self, tmp_path, capsys, simulation):
        cfg = self._config(tmp_path, simulation=simulation)
        assert run("bench", str(cfg)) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "simulation" in err and repr(simulation)[1:-1] in err
        assert not (tmp_path / "bench" / "results.csv").exists()

    def test_seed_derivation_distinct(self):
        seeds = {
            run_seed(0, rep, noise, method)
            for rep in range(3)
            for noise in ("N0", "N1")
            for method in ("CSA", "ICA")
        }
        assert len(seeds) == 12


def test_import_skips_slow_scipy_modules(tmp_path):
    # importing scipy takes longer than a simulation: white-noise kinds
    # (N0-N3) need none of it, only the colored kinds need scipy.signal, and
    # scipy.linalg and scipy.special wait for the first fit
    code = (
        "import sys, scsa.cli; "
        f"scsa.cli.main({SIM_ARGS + ['--out', str(tmp_path / 'd')]!r}); "
        "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(scsa.cli.__file__).parents[1])},
    )
    assert out.stdout.splitlines()[-1] == "[]"


def scipy_modules_after(argv):
    """The ``scipy`` modules a fresh process has loaded after ``main(argv)``."""
    code = (
        "import json, sys, scsa.cli; "
        f"assert scsa.cli.main({argv!r}) == 0; "
        "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": str(pathlib.Path(scsa.cli.__file__).parents[1])},
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_eval_imports_no_scipy(dataset_dir, tmp_path):
    # the pairing of sources is solved in scsa.evaluation
    model_file = tmp_path / "csa.json"
    assert run("fit", str(dataset_dir), "--method", "csa", "--orders", "1",
               "--out", str(model_file)) == EXIT_OK
    argv = ["eval", str(dataset_dir), str(model_file), "--out", str(tmp_path / "r.json")]
    assert scipy_modules_after(argv) == []


def test_fit_imports_only_scipy_linalg(dataset_dir, tmp_path):
    argv = ["fit", str(dataset_dir), "--method", "csa", "--orders", "1",
            "--out", str(tmp_path / "csa.json")]
    top = {m.split(".")[1] for m in scipy_modules_after(argv) if "." in m}
    assert "linalg" in top
    assert not top & {"optimize", "sparse", "special", "spatial", "fft", "signal"}


class TestExitCodes:
    def test_unknown_flag_is_usage(self):
        assert run("simulate", "--bogus") == EXIT_USAGE

    def test_ok_is_zero(self, tmp_path):
        assert run(*SIM_ARGS, "--out", str(tmp_path / "z")) == EXIT_OK

    def test_linalg_error_is_numeric(self, dataset_dir, monkeypatch):
        # LinAlgError subclasses ValueError, which otherwise means bad usage
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(scsa.cli, "fit", singular)
        code = run("fit", str(dataset_dir), "--method", "csa", "--orders", "1")
        assert code == EXIT_NUMERIC
