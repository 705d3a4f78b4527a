"""mvhedge benchmark: CLI wall time, set-up time and memory, and a traced
per-module breakdown.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--reference-seed M]

Workloads are in workloads.py.  Each is a closed loop with one caller:
one `python -m mvhedge.cli` command at a time (PYTHONPATH=src, BLAS and
OpenMP threads fixed at BLAS_THREADS), each run to completion before the
next.  A run starts with one untimed warm-up command on the inputs of
the reference seed, whose numbers must match references.json to 1e-9
relative; the warm-up also compiles the .pyc files.

--trace 0 reports the end-to-end metrics:
  wall_s       median wall time of the workload's command, spawn to exit
  setup_s      median wall time of a process that imports mvhedge.cli and
               loads the workload's config, with no tree built
  peak_rss_mb  median peak RSS of the command's own process (os.wait4)
--trace 1 reports the per-layer metrics of PER_LAYER from in-process runs
of the same command through mvhedge.cli.main (tracer.py), alternately
untraced and traced; trace.overhead_s is the difference of their totals.

Every command's exit code and outputs are checked (check_outputs); one
that fails counts in `failed`, so failed/attempted is the error rate.
The last line of stdout is the result JSON; the line before it records
the samples, the error rate and the machine.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "references.json"

BLAS_THREADS = 1        # fixed for every child; never above nproc
SETUP_PER_COMMAND = 3
COMMAND_TIMEOUT_S = 60
REL_TOL = 1e-9
MVH_STDERRS = 4.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "tree.build_s": "s", "tree.validate_s": "s", "tree.claim_s": "s",
    "tree.nodes": "count", "tree.leaves": "count",
    "opportunity.compute_s": "s", "opportunity.measures_s": "s",
    "opportunity.us_per_node": "us",
    "hedging.mean_value_s": "s", "hedging.pure_hedge_s": "s", "hedging.error_s": "s",
    "hedging.rollout_s": "s", "hedging.fs_residual_s": "s",
    "linalg.pinv_calls": "count", "linalg.pinv_s": "s", "linalg.pinv_max_dim": "count",
    "backtest.sample_paths_s": "s", "backtest.us_per_path": "us",
    "backtest.holdings_s": "s", "backtest.run_strategy_self_s": "s",
    "oracle.lsq_calls": "count", "oracle.lsq_s": "s", "oracle.qp_s": "s",
    "oracle.node_check_self_s": "s",
    "cli.self_s": "s", "cli.output_bytes": "bytes",
    "trace.overhead_s": "s",
}
# counts that must repeat exactly between the traced runs of one workload
EXACT_COUNTS = ("tree.nodes", "tree.leaves", "linalg.pinv_calls", "oracle.lsq_calls",
                "linalg.pinv_max_dim", "cli.output_bytes")

SETUP_CODE = "import sys; from mvhedge.cli import load_config; load_config(sys.argv[1])"
ENV_CODE = """import json, platform, numpy
blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "blas": "%s %s" % (blas.get("name"), blas.get("version"))}))"""


def _child_env() -> dict:
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


@dataclass
class Outcome:
    wall_s: float
    peak_rss_mb: float
    code: int
    stdout: bytes


def spawn(argv: list[str], cwd: Path) -> Outcome:
    """Run one child to completion; stdout and stderr go to one pipe that
    is read whole.  Peak RSS comes from the child's own rusage."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        killer.join()
        proc.stdout.close()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Outcome(wall, usage.ru_maxrss * 1024 / 1e6, proc.returncode, out)


# ---------------------------------------------------------------------------
# Output checks


def _close(value: float, target: float) -> bool:
    return abs(value - target) <= REL_TOL * abs(target)


def _check_hedge(wl, out_dir: Path, stdout: str, reference) -> list[str]:
    summary = json.loads((out_dir / "hedge_summary.json").read_text())
    problems = []
    if not _close(summary["L0"], wl.L0):
        problems.append(f"L0 {summary['L0']!r} differs from the independent {wl.L0!r}")
    with open(out_dir / "hedge_nodes.csv") as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != wl.nodes:
        problems.append(f"hedge_nodes.csv has {rows} rows for {wl.nodes} nodes")
    for key, target in (reference or {}).items():
        if not _close(summary[key], target):
            problems.append(f"{key} {summary[key]!r} differs from reference {target!r}")
    return problems


def _check_backtest(wl, out_dir: Path, stdout: str, reference) -> list[str]:
    doc = json.loads((out_dir / "backtest.json").read_text())
    problems = [f"{kind}: {doc[kind]['n_paths']} paths, expected {wl.config['paths']}"
                for kind in wl.config["strategies"]
                if doc[kind]["n_paths"] != wl.config["paths"]]
    mvh = doc["mvh"]
    if abs(mvh["mean_sq_error"] - mvh["analytic_error"]) > MVH_STDERRS * mvh["std_error"]:
        problems.append(f"sampled mvh error {mvh['mean_sq_error']!r} is over {MVH_STDERRS} "
                        f"standard errors from the analytic {mvh['analytic_error']!r}")
    for kind, target in (reference or {}).items():
        if not _close(doc[kind]["mean_sq_error"], target):
            problems.append(f"{kind} mean_sq_error {doc[kind]['mean_sq_error']!r} differs "
                            f"from reference {target!r}")
    return problems


def _check_verify(wl, out_dir: Path, stdout: str, reference) -> list[str]:
    checks = [line.split() for line in stdout.splitlines() if line.startswith("CHECK ")]
    problems = [" ".join(c) for c in checks if c[-1] != "PASS"][:3]
    qp = [c for c in checks if c[1] == "qp_second_moment"]
    if not qp:
        problems.append("no qp_second_moment CHECK line")
    elif not _close(float(qp[0][3].split("=")[1]), 1.0 / wl.L0):
        problems.append(f"engine 1/L0 {qp[0][3]} differs from the independent {1.0 / wl.L0!r}")
    return problems


CHECKS = {"hedge_1d": _check_hedge, "backtest_2d": _check_backtest,
          "verify_oracle": _check_verify}


def check_outputs(wl, outcome: Outcome, run_dir: Path, reference) -> list[str]:
    """Problems with one command's exit code and, when it ran a workload,
    its outputs (empty if none)."""
    stdout = outcome.stdout.decode(errors="replace")
    if outcome.code != 0:
        return [f"exit code {outcome.code}: {stdout[-300:].strip()}"]
    if wl is None:
        return []
    try:
        return CHECKS[wl.name](wl, run_dir / "out", stdout, reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


# ---------------------------------------------------------------------------
# Runs


class Bench:
    """One benchmark run: the work directory, and every command's outcome
    counted as attempted or failed."""

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def prepare(self, wl: workloads.Workload, tag: str) -> Path:
        run_dir = self.work_dir / tag
        run_dir.mkdir()
        (run_dir / "config.json").write_text(json.dumps(wl.config))
        return run_dir

    def run(self, argv: list[str], run_dir: Path, wl=None, reference=None):
        """Spawn a checked command in run_dir; returns (outcome, ok).  With
        a workload, its outputs are checked too, and its output directory
        is emptied first."""
        shutil.rmtree(run_dir / "out", ignore_errors=True)
        outcome = spawn(argv, run_dir)
        problems = check_outputs(wl, outcome, run_dir, reference)
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        return outcome, not problems


def _cli(wl) -> list[str]:
    return [sys.executable, "-m", "mvhedge.cli", *wl.argv]


def end_to_end(bench: Bench, wl, run_dir: Path, reference, seconds: float):
    """Timed commands until `seconds` have passed, each preceded by
    SETUP_PER_COMMAND set-up probes, so that both sample the whole run."""
    setup, timed = [], []
    deadline = time.perf_counter() + seconds
    while not timed or time.perf_counter() < deadline:
        setup += [bench.run([sys.executable, "-c", SETUP_CODE, "config.json"], run_dir)[0]
                  for _ in range(SETUP_PER_COMMAND)]
        timed.append(bench.run(_cli(wl), run_dir, wl, reference)[0])
    samples = {"wall_s": [o.wall_s for o in timed],
               "setup_s": [o.wall_s for o in setup],
               "peak_rss_mb": [o.peak_rss_mb for o in timed]}
    return {k: statistics.median(v) for k, v in samples.items()}, samples


def _layer_metrics(stats: dict, wl, output_bytes: int) -> dict:
    f = stats.get("functions", {})

    def incl(*names):
        return sum((f[n]["incl_s"] for n in names if n in f), 0.0)

    def own(name):
        return f[name]["self_s"] if name in f else 0.0

    def calls(name):
        return f[name]["calls"] if name in f else 0

    compute_s = incl("opportunity.compute_opportunity")
    sample_s = incl("backtest.sample_paths")
    paths = wl.config.get("paths", 0) if calls("backtest.sample_paths") else 0
    return {
        "tree.build_s": incl("tree.build_binomial", "tree.build_iid_multinomial",
                             "tree.build_regime_switching"),
        "tree.validate_s": incl("tree.validate_tree"),
        "tree.claim_s": incl("tree.attach_claim", "tree.claim_at"),
        "tree.nodes": stats.get("nodes", 0),
        "tree.leaves": stats.get("leaves", 0),
        "opportunity.compute_s": compute_s,
        "opportunity.measures_s": incl("opportunity.measures"),
        "opportunity.us_per_node": 1e6 * compute_s / max(wl.nodes - wl.leaves, 1),
        "hedging.mean_value_s": incl("hedging.compute_mean_value"),
        "hedging.pure_hedge_s": incl("hedging.compute_pure_hedge"),
        "hedging.error_s": incl("hedging.hedging_error"),
        "hedging.rollout_s": incl("hedging.rollout_strategy"),
        "hedging.fs_residual_s": incl("hedging.fs_residual_check"),
        "linalg.pinv_calls": calls("linalg.pinv_psd"),
        "linalg.pinv_s": incl("linalg.pinv_psd"),
        "linalg.pinv_max_dim": stats.get("pinv_max_dim", 0),
        "backtest.sample_paths_s": sample_s,
        "backtest.us_per_path": 1e6 * sample_s / paths if paths else 0.0,
        "backtest.holdings_s": incl("backtest.strategy_holdings"),
        "backtest.run_strategy_self_s": own("backtest.run_strategy"),
        "oracle.lsq_calls": calls("oracle.lsq_projection"),
        "oracle.lsq_s": incl("oracle.lsq_projection"),
        "oracle.qp_s": incl("oracle.martingale_qp"),
        "oracle.node_check_self_s": own("oracle.node_conditional_check"),
        "cli.self_s": own("cli.main"),
        "cli.output_bytes": output_bytes,
    }


def _output_bytes(outcome: Outcome, run_dir: Path) -> int:
    files = (run_dir / "out").glob("*") if (run_dir / "out").is_dir() else []
    return len(outcome.stdout) + sum(p.stat().st_size for p in files)


def per_layer(bench: Bench, wl, run_dir: Path, reference, seconds: float):
    stats_path = run_dir / "stats.json"
    totals = {"off": [], "on": []}
    layers = []
    deadline = time.perf_counter() + seconds
    while True:
        for mode in ("off", "on"):
            argv = [sys.executable, str(HERE / "tracer.py"), str(stats_path), mode, *wl.argv]
            stats_path.unlink(missing_ok=True)
            outcome, ok = bench.run(argv, run_dir, wl, reference)
            if not ok:
                continue
            stats = json.loads(stats_path.read_text())
            totals[mode].append(stats["total_s"])
            if mode == "on":
                layers.append(_layer_metrics(stats, wl, _output_bytes(outcome, run_dir)))
        if time.perf_counter() >= deadline:
            break
    problems = []
    for m in layers:
        if (m["tree.nodes"], m["tree.leaves"]) != (wl.nodes, wl.leaves):
            problems.append(f"traced tree has {m['tree.nodes']} nodes and {m['tree.leaves']} "
                            f"leaves, expected {wl.nodes} and {wl.leaves}")
        drift = [k for k in EXACT_COUNTS if m[k] != layers[0][k]]
        if drift:
            problems.append(f"counts differ between traced runs: {drift}")
    bench.attempted += 1          # the traced runs' consistency, as one operation
    bench.failed += bool(problems)
    bench.problems.extend(problems)
    if not layers:
        return {name: 0.0 for name in PER_LAYER}, totals
    metrics = {k: statistics.median(m[k] for m in layers) for k in layers[0]}
    for k in EXACT_COUNTS:
        metrics[k] = layers[0][k]
    metrics["trace.overhead_s"] = (statistics.median(totals["on"]) - statistics.median(totals["off"])
                                   if totals["on"] and totals["off"] else 0.0)
    return metrics, totals


def _environment(bench: Bench) -> dict:
    outcome = spawn([sys.executable, "-c", ENV_CODE], bench.work_dir)
    try:
        env = json.loads(outcome.stdout)
    except ValueError:
        env = {"probe_error": outcome.stdout.decode(errors="replace")[-300:]}
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    env.update(nproc=os.cpu_count(), cpu=cpu or platform.processor(),
               blas_threads=BLAS_THREADS, runner_python=platform.python_version())
    return env


def bench(name: str, seed: int, seconds: float, trace: bool, references: dict,
          tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload; returns (details, result) for the last two lines."""
    wl = workloads.make(name, seed, tiny)
    ref_seed = references["seed"]
    ref_wl = workloads.make(name, ref_seed, tiny)
    reference = references.get(name)
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=work_root))
    try:
        b = Bench(work_dir)
        env = _environment(b)
        b.run(_cli(ref_wl), b.prepare(ref_wl, "warmup"), ref_wl, reference)
        run_dir = b.prepare(wl, "run")
        run_ref = reference if seed == ref_seed else None
        if trace:
            metrics, samples = per_layer(b, wl, run_dir, run_ref, seconds)
            units = PER_LAYER
        else:
            metrics, samples = end_to_end(b, wl, run_dir, run_ref, seconds)
            units = END_TO_END
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    details = {"workload": name, "seed": seed, "reference_seed": ref_seed, "trace": int(trace),
               "nodes": wl.nodes, "leaves": wl.leaves,
               "error_rate": b.failed / b.attempted, "samples": samples,
               "problems": b.problems[:10], "env": env}
    result = {"correct": b.failed == 0, "attempted": b.attempted, "failed": b.failed,
              "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()}}
    return details, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--reference-seed", type=int, default=None,
                        help="must equal the seed references.json was made with")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "mvhedge" / "cli.py").is_file():
        print(f"no mvhedge sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())
    if args.reference_seed not in (None, references["seed"]):
        print(f"references.json holds seed {references['seed']}, "
              f"not {args.reference_seed}", file=sys.stderr)
        return 2
    details, result = bench(args.workload, args.seed, args.seconds, bool(args.trace), references)
    for problem in details["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
