"""Self-test of the benchmark, at a tiny size.

Usage, from the root of a checkout: python3 perfbench/selftest.py

Runs every workload at a tiny size with tracing off and on, and checks
that the result line has the contract's keys and every metric
BENCHMARK.json names, with its unit.  Then checks that a corrupted
reference value makes the error rate positive, and that the benchmark
exits nonzero without a result where there are no mvhedge sources.
Exits 0 when every check holds.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile

import make_references
import run
import workloads

SEED = 5


def _expect(ok: bool, what: str, failures: list[str]) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    names = [w["name"] for w in spec["workloads"]]
    _expect(set(names) <= set(workloads.NAMES), f"BENCHMARK.json workloads {names} exist",
            failures)
    refs = make_references.collect(SEED, tiny=True)
    for name in workloads.NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            details, result = run.bench(name, SEED, 1, trace, refs, tiny=True)
            what = f"{name} trace={int(trace)}"
            _expect(set(result) == {"correct", "attempted", "failed", "metrics"},
                    f"{what}: result keys", failures)
            _expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                    f"{what}: correct, {result['failed']}/{result['attempted']} failed "
                    f"{details['problems']}", failures)
            _expect(details["error_rate"] == result["failed"] / result["attempted"],
                    f"{what}: error_rate is failed/attempted", failures)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            _expect(got == want, f"{what}: every {key} metric with its unit", failures)
            _expect(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                    f"{what}: numeric values", failures)

    bad = json.loads(json.dumps(refs))
    bad["hedge_1d"]["V0"] *= 1.0 + 1e-6
    details, result = run.bench("hedge_1d", SEED, 1, False, bad, tiny=True)
    _expect(details["error_rate"] > 0 and not result["correct"],
            f"corrupted reference: error_rate {details['error_rate']:.3f} > 0", failures)

    work_root = run.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as bare:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, f"{bare}/{run.HERE.name}",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", names[0], "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180)
    _expect(proc.returncode != 0 and '"metrics"' not in proc.stdout,
            "without sources: nonzero exit and no result", failures)
    print(f"{len(failures)} failed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
