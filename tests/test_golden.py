"""CLI outputs on a small 2-asset regime tree, compared byte for byte
with the files in tests/golden.

The tree (golden/config.json) has 3 or 8 children a node within one
time slice, so every engine sweep sees more than one child count per
slice.  verify_identities.txt holds verify's structural identity CHECK
lines; its oracle lines are left out, because their last digits depend
on the BLAS thread count.  verify_lines.txt holds every CHECK line cut
to its name, node and verdict, which fixes the count and order of the
lines, the oracle's node_L lines included.  value_process and
qp_leaf_density report the lowest node whose engine-oracle difference
is within 1e-3 tol of the largest; their node reads "*" here, and
test_cli checks that it does not move with the BLAS thread count.
After an intended change of the outputs, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

which prints a row for each file it rewrites: the lines and the numbers
that changed, the largest |new - old| / max(1, |old|) over those numbers
(the scale of verify's rel_err), and whether anything other than a
number changed.
"""
import contextlib
import io
import re
import sys
from pathlib import Path

import pytest

from mvhedge.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
CONFIG = str(GOLDEN / "config.json")
# name: (CLI arguments before --config, files written to --out)
COMMANDS = {
    "tree_build": (["tree", "build"], ["tree.json"]),
    "hedge": (["hedge"], ["hedge_nodes.csv", "hedge_summary.json"]),
    "backtest": (["backtest"], ["backtest.csv", "backtest.json"]),
    "backtest_exact": (["backtest", "--exact"], ["backtest.csv", "backtest.json"]),
}
FIELDS = ("L", "a", "V", "xi", "sharpe", "mvt", "qstar")
IDENTITY_LINE = re.compile(
    r"CHECK (cor320_tilde|cor320_hat|identity_319|dak_identity|qstar_mass|qstar_drift"
    r"|lemma323|fs_residual|L_submartingale|slice_prob_mass) "
)
CHECK_LINE = re.compile(r"CHECK (\S+) node=(\d+) .* (PASS|FAIL)")
WORST_NODE = ("value_process", "qp_leaf_density")
NUMBER = re.compile(r"(?<![\w.])-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def run_command(name: str, out_dir: Path) -> dict[str, bytes]:
    """Run one golden command; returns its output files by golden file name."""
    argv, files = COMMANDS[name]
    code = main([*argv, "--config", CONFIG, "--out", str(out_dir)])
    assert code == 0
    return {f"{name}_{f}": (out_dir / f).read_bytes() for f in files}


def run_inspect(field: str) -> dict[str, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["inspect", "--config", CONFIG, "--field", field])
    assert code == 0
    return {f"inspect_{field}.csv": buf.getvalue().encode()}


def run_verify() -> dict[str, bytes]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(["verify", "--config", CONFIG])
    assert code == 0
    lines = buf.getvalue().splitlines(keepends=True)
    identities = [line for line in lines if IDENTITY_LINE.match(line)]
    verdicts = [f"CHECK {name} node={'*' if name in WORST_NODE else node} {verdict}\n"
                for name, node, verdict in CHECK_LINE.findall(buf.getvalue())]
    return {"verify_identities.txt": "".join(identities).encode(),
            "verify_lines.txt": "".join(verdicts).encode()}


@pytest.mark.parametrize("name", COMMANDS)
def test_command_outputs_match_golden(name, tmp_path):
    for fname, content in run_command(name, tmp_path).items():
        assert content == (GOLDEN / fname).read_bytes(), fname


@pytest.mark.parametrize("field", FIELDS)
def test_inspect_matches_golden(field):
    for fname, content in run_inspect(field).items():
        assert content == (GOLDEN / fname).read_bytes(), fname


@pytest.fixture(scope="module")
def verify_outputs() -> dict[str, bytes]:
    return run_verify()


def test_verify_identities_match_golden(verify_outputs):
    fname = "verify_identities.txt"
    assert verify_outputs[fname] == (GOLDEN / fname).read_bytes()


def test_verify_lines_match_golden(verify_outputs):
    fname = "verify_lines.txt"
    assert verify_outputs[fname] == (GOLDEN / fname).read_bytes()


def golden_diff(old: bytes, new: bytes) -> tuple[int, int, float, bool]:
    """(lines changed, numbers changed, largest |new - old| / max(1, |old|)
    over the changed numbers, whether anything but a number changed)."""
    a, b = old.decode().splitlines(), new.decode().splitlines()
    lines = numbers = 0
    worst, other = 0.0, len(a) != len(b)
    for x, y in zip(a, b):
        if x == y:
            continue
        lines += 1
        other |= NUMBER.split(x) != NUMBER.split(y)
        for u, v in zip(NUMBER.findall(x), NUMBER.findall(y)):
            if u != v:
                numbers += 1
                worst = max(worst, abs(float(v) - float(u)) / max(1.0, abs(float(u))))
    return lines, numbers, worst, other


def test_golden_diff_counts_numbers_apart_from_text():
    old = b"id,V\n0,2.5\n1,-1e-16,x\n2,3\n"
    assert golden_diff(old, old) == (0, 0, 0.0, False)
    assert golden_diff(old, b"id,V\n0,2.5000000000000004\n1,0,x\n2,3\n") == (
        2, 2, (2.5000000000000004 - 2.5) / 2.5, False)
    assert golden_diff(old, b"id,V\n0,2.5\n1,-1e-16,y\n2,3\n")[3]
    assert golden_diff(old, old + b"3,4\n")[3]


if __name__ == "__main__":
    import tempfile

    outputs: dict[str, bytes] = {}
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        for name in COMMANDS:
            outputs.update(run_command(name, Path(tmp) / name))
    for field in FIELDS:
        outputs.update(run_inspect(field))
    outputs.update(run_verify())
    print(f"{'file':32} {'lines':>5} {'numbers':>7} {'max_rel':>9} other")
    rewritten = 0
    for fname, content in outputs.items():
        path = GOLDEN / fname
        old = path.read_bytes() if path.exists() else b""
        if content != old:
            lines, numbers, worst, other = golden_diff(old, content)
            print(f"{fname:32} {lines:5d} {numbers:7d} {worst:9.2e} {'yes' if other else 'no'}")
            path.write_bytes(content)
            rewritten += 1
    print(f"rewrote {rewritten} of {len(outputs)} files in {GOLDEN}", file=sys.stderr)
