"""Write references.json: the numbers that the outputs for the reference
seed must match in every benchmark run.

Usage, from the root of a checkout: python3 perfbench/make_references.py SEED

Run it only on the commit whose outputs define the reference; the
benchmark then holds every later commit to them within 1e-9 relative.
"""
from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run
import workloads


def _hedge(out_dir: Path) -> dict:
    summary = json.loads((out_dir / "hedge_summary.json").read_text())
    return {key: summary[key] for key in ("V0", "L0", "total_error")}


def _backtest(out_dir: Path) -> dict:
    doc = json.loads((out_dir / "backtest.json").read_text())
    return {kind: doc[kind]["mean_sq_error"] for kind in sorted(doc)}


def collect(seed: int, tiny: bool = False) -> dict:
    """Run each workload that has reference numbers once, on `seed`."""
    refs: dict = {"seed": seed}
    work_root = run.ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work_root) as tmp:
        bench = run.Bench(Path(tmp))
        for name, read in (("hedge_1d", _hedge), ("backtest_2d", _backtest)):
            wl = workloads.make(name, seed, tiny)
            run_dir = bench.prepare(wl, name)
            bench.run(run._cli(wl), run_dir, wl)
            if bench.failed:
                raise RuntimeError(f"{name} failed: {bench.problems}")
            refs[name] = read(run_dir / "out")
    return refs


if __name__ == "__main__":
    refs = collect(int(sys.argv[1]))
    run.REFERENCES.write_text(json.dumps(refs, indent=2) + "\n")
    print(json.dumps(refs))
