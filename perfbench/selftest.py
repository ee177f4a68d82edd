"""Smoke self-test of the benchmark harness.

    python3 perfbench/selftest.py

Runs every workload on tiny datasets, untraced and traced, and checks
that:
  * each run exits 0 and its last line has exactly the contract's keys;
  * every end-to-end and per-layer metric of BENCHMARK.json is emitted with
    its unit, and every correctness check passed;
  * two traced runs on one seed give identical counts;
  * the dataset is regenerated bit for bit;
  * the benchmark fails, printing no result, without the package sources.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT = (".calls", "optim.iterations", "optim.evals_per_iter", "optim.stagnations")


def run(workload: str, seed: int, trace: int, cwd: pathlib.Path = ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def result(workload: str, seed: int, trace: int):
    rc, lines, err = run(workload, seed, trace)
    assert rc == 0, f"{workload} trace={trace}: exit {rc}\n{err}"
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}, last.keys()
    assert last["correct"] and last["failed"] == 0, lines
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    assert got == {m["name"]: m["unit"] for m in wanted}, (workload, trace, got)
    info = dict(line.split(": ", 1) for line in lines[:-1] if line.startswith("dataset_sha256: "))
    return last["metrics"], json.loads(info["dataset_sha256"])


def main() -> int:
    start = time.perf_counter()
    for w in SPEC["workloads"]:
        name = w["name"]
        _, digest = result(name, 1, 0)
        layers_a, digest_a = result(name, 1, 1)
        layers_b, _ = result(name, 1, 1)
        for key, value in layers_a.items():
            if key.endswith(EXACT):
                assert value == layers_b[key], (name, key, value, layers_b[key])
        assert digest == digest_a, "the dataset was not regenerated identically"
        print(f"ok {name} ({time.perf_counter() - start:.1f}s)")

    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    rc, lines, _ = run(SPEC["workloads"][0]["name"], 1, 0, cwd=bare)
    shutil.rmtree(bare)
    assert rc != 0 and not lines, "ran without the package sources"
    print(f"ok bare checkout fails; {time.perf_counter() - start:.1f}s in all")
    return 0


if __name__ == "__main__":
    sys.exit(main())
