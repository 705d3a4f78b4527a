import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mvhedge as mv
from mvhedge.cli import (_check_line, _check_lines, _worst_line, build_claim, build_model,
                         load_config, main, make_parser)

BINOMIAL = {"type": "binomial", "s0": [10.0], "up": 1.1, "down": 0.9, "p_up": 0.6,
            "periods": 3}
BINOMIAL_1 = {"type": "iid", "s0": [10.0],
              "increments": [{"delta": [1.0], "p": 0.6}, {"delta": [-1.0], "p": 0.4}],
              "periods": 1}
TRINOMIAL = {"type": "iid", "s0": [10.0],
             "increments": [{"delta": [1.0], "p": 0.3}, {"delta": [0.0], "p": 0.4},
                            {"delta": [-1.0], "p": 0.3}],
             "periods": 1}
CALL10 = {"type": "call", "strike": 10.0}
REGIME = {"type": "regime", "s0": [10.0],
          "regimes": [[{"delta": [1.0], "p": 0.5}, {"delta": [-1.0], "p": 0.5}],
                      [{"delta": [2.0], "p": 0.4}, {"delta": [-1.0], "p": 0.6}]],
          "transition": [[0.7, 0.3], [0.2, 0.8]], "initial_regime": 0, "periods": 2}
NAN = float("nan")
GOLDEN_CONFIG = str(Path(__file__).resolve().parent / "golden" / "config.json")


def write_config(tmp_path, doc, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_tree_build_binomial(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": BINOMIAL, "claim": CALL10})
    code = main(["tree", "build", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    assert "15 nodes, 8 leaves" in capsys.readouterr().out
    assert (tmp_path / "out" / "tree.json").exists()


def test_tree_build_trinomial_counts(tmp_path, capsys):
    model = dict(TRINOMIAL, periods=2)
    cfg = write_config(tmp_path, {"model": model, "claim": CALL10})
    assert main(["tree", "build", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert "13 nodes, 9 leaves" in capsys.readouterr().out


def test_tree_build_bad_model(tmp_path):
    bad = dict(BINOMIAL, p_up=-0.5)
    cfg = write_config(tmp_path, {"model": bad, "claim": CALL10})
    assert main(["tree", "build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_unknown_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"model": BINOMIAL, "claim": CALL10, "bogus": 1})
    assert main(["tree", "build", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_hedge_complete_binomial(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": BINOMIAL_1, "claim": CALL10, "v0": "auto"})
    out = tmp_path / "out"
    assert main(["hedge", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "hedge_summary.json").read_text())
    assert summary["v0"] == pytest.approx(0.5)
    assert summary["total_error"] == pytest.approx(0.0, abs=1e-15)


def test_hedge_trinomial_fixed_v0(tmp_path):
    cfg = write_config(tmp_path, {"model": TRINOMIAL, "claim": CALL10, "v0": 0.3})
    out = tmp_path / "out"
    assert main(["hedge", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "hedge_summary.json").read_text())
    assert summary["total_error"] == pytest.approx(0.06)
    assert (out / "hedge_nodes.csv").read_text().startswith("id,time,V,xi_0,e")


def test_hedge_degenerate_exit_code(tmp_path):
    model = {"type": "iid", "s0": [10.0],
             "increments": [{"delta": [1.0], "p": 0.5}, {"delta": [1.0], "p": 0.5}],
             "periods": 1}
    cfg = write_config(tmp_path, {"model": model, "claim": CALL10})
    assert main(["hedge", "--config", cfg, "--out", str(tmp_path / "o")]) == 3


HUGE_TRINOMIAL = {"type": "iid", "s0": [1e160], "mode": "multiplicative", "periods": 2,
                  "increments": [{"delta": [0.1], "p": 0.35}, {"delta": [0.0], "p": 0.4},
                                 {"delta": [-0.1], "p": 0.25}]}


HUGE_V0 = {"model": dict(TRINOMIAL, periods=2), "claim": CALL10, "v0": 1e200}
OUTPUTS = {"hedge": ["hedge_summary.json", "hedge_nodes.csv"],
           "backtest": ["backtest.csv", "backtest.json"]}


@pytest.mark.parametrize("command,doc,flags", [
    ("hedge", {"model": HUGE_TRINOMIAL, "claim": {"type": "call", "strike": 1e160}}, []),
    ("hedge", {"model": TRINOMIAL, "claim": CALL10}, ["--v0", "1e200"]),
    ("backtest", HUGE_V0, ["--exact"]),
    ("backtest", HUGE_V0, ["--paths", "100"]),
], ids=["moments_overflow", "endowment_term_overflows", "backtest_exact_error_overflows",
        "backtest_sampled_error_overflows"])
def test_hedge_writes_no_non_finite_number(tmp_path, command, doc, flags):
    # the command runs in a process of its own, so that its stderr is all
    # that the process writes there: the error line, and no numpy warning
    cfg, out = write_config(tmp_path, doc), tmp_path / "o"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "mvhedge.cli", command, "--config", cfg,
                          "--out", str(out), *flags], env=env, capture_output=True, timeout=120)
    assert run.returncode == 3
    assert run.stderr.decode().startswith("error: ") and run.stderr.decode().count("\n") == 1
    for name in OUTPUTS[command]:
        assert not (out / name).exists(), name


ONE_POINT = {"type": "regime", "s0": [10.0], "regimes": [[{"delta": [0.0], "p": 1.0}]],
             "transition": [[1.0]], "initial_regime": 0}


@pytest.mark.parametrize("model,message", [
    (dict(BINOMIAL_1, periods=10**30), "tree would exceed the leaf bound 2^20"),
    (dict(ONE_POINT, periods=10**8), "periods must be at most 20, got 100000000"),
])
def test_huge_periods_exit_at_once(tmp_path, model, message):
    # the leaf bound is checked without forming branching ** periods, and
    # the periods of a law that never branches are bounded too; each
    # command runs in a process of its own, which a hang would overrun
    cfg = write_config(tmp_path, {"model": model, "claim": CALL10})
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    run = subprocess.run([sys.executable, "-m", "mvhedge.cli", "hedge", "--config", cfg,
                          "--out", str(tmp_path / "o")], env=env, capture_output=True, timeout=5)
    assert run.returncode == 2
    assert run.stderr.decode() == f"error: {message}\n"


COMMANDS = [("hedge", ["--out"]), ("verify", []), ("backtest", ["--paths", "100", "--out"]),
            ("inspect", ["--field", "L"])]


@pytest.mark.parametrize("s0", [1e160, 1e300])
@pytest.mark.parametrize("command,flags", COMMANDS)
def test_degenerate_exit_prints_one_line(tmp_path, capsys, s0, command, flags):
    # the error terms e are in squared currency and overflow at 1e160 and
    # 1e300; the exit-3 run prints its error line and no numpy warning,
    # which pytest would turn into an error in process
    model = dict(HUGE_TRINOMIAL, s0=[s0])
    cfg = write_config(tmp_path, {"model": model, "claim": {"type": "call", "strike": s0}})
    out = [str(tmp_path / "o")] if flags[-1:] == ["--out"] else []
    assert main([command, "--config", cfg, *flags, *out]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: degenerate") and err.count("\n") == 1


@pytest.mark.parametrize("command,flags", COMMANDS)
def test_commands_run_at_tiny_prices(tmp_path, capsys, command, flags):
    # at s0 = 1e-160 the squared increments underflow; the engine squares
    # none, and verify's identities read them in units of each node's
    # increments, so every command exits 0 with no numpy warning and no FAIL
    model = dict(HUGE_TRINOMIAL, s0=[1e-160])
    cfg = write_config(tmp_path, {"model": model, "claim": {"type": "call", "strike": 1e-160}})
    out = [str(tmp_path / "o")] if flags[-1:] == ["--out"] else []
    assert main([command, "--config", cfg, *flags, *out]) == 0
    captured = capsys.readouterr()
    assert captured.err == "" and "FAIL" not in captured.out


@pytest.mark.parametrize("s0", [1e-307, 1e-300, 1e-150, 1e-100, 1e-8, 1.0, 1e8, 1e9, 1e50, 1e100,
                                1e150, 1.122e155])
def test_verify_is_free_of_the_price_unit(tmp_path, capsys, s0):
    # the Cor. 3.20 residuals, the Q* drift and the FS residual are read
    # in units of each node's increments, so rounding at large prices is
    # no failure; the oracles square increments in units of a power of two
    # per column, so tiny prices do not underflow
    model = dict(HUGE_TRINOMIAL, s0=[s0])
    cfg = write_config(tmp_path, {"model": model, "claim": {"type": "call", "strike": s0}})
    assert main(["verify", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize("s0", [1e9, 1e150])
def test_verify_reads_the_min_error_in_claim_units(tmp_path, capsys, s0):
    # in a complete market the engine's and the oracle's minimal error are
    # both rounding of order eps * max|claim|^2 (at s0 1e9 the engine reads
    # -2.64, the oracle 1e-15), so they are compared in units of max|claim|^2
    model = dict(BINOMIAL, s0=[s0])
    cfg = write_config(tmp_path, {"model": model, "claim": {"type": "call", "strike": s0}})
    assert main(["verify", "--config", cfg]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_min_error_check_bites_in_claim_units(monkeypatch, capsys):
    # a total error off by 1e-8 max|claim|^2 still fails
    config = load_config(GOLDEN_CONFIG)
    tree = build_model(config["model"])
    scale = max(1.0, float(np.max(np.abs(build_claim(tree, config["claim"])))))
    exact = mv.hedging.hedging_error

    def perturbed(*args):
        report = exact(*args)
        report.total_error += 1e-8 * scale * scale
        return report
    monkeypatch.setattr(mv.hedging, "hedging_error", perturbed)
    assert main(["verify", "--config", GOLDEN_CONFIG]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[-1] for line in lines if line.startswith("CHECK lsq_min_error")] == ["FAIL"]


@pytest.mark.parametrize("periods", [1, 4])
def test_hedge_complete_binomial_with_a_tiny_probability(tmp_path, periods):
    # one child carries almost all of the P* mass; the market is well posed
    model = dict(BINOMIAL, s0=[1.0], p_up=1e-8, periods=periods)
    cfg = write_config(tmp_path, {"model": model, "claim": {"type": "call", "strike": 1.0}})
    assert main(["hedge", "--config", cfg, "--out", str(tmp_path / "o")]) == 0


@pytest.mark.parametrize("command,doc", [
    ("hedge", {"model": dict(BINOMIAL, periods="3"), "claim": CALL10}),
    ("hedge", {"model": BINOMIAL, "claim": {"type": "call", "strike": "x"}}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "seed": "x"}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "paths": "x"}),
    ("verify", {"model": TRINOMIAL, "claim": CALL10, "tol": "x"}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "seed": -1}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "exact": "false"}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "strategies": "mvh"}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "paths": 2.7}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "paths": True}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "seed": 1.9}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "seed": False}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "paths": 3.0}),
    ("hedge", {"model": TRINOMIAL, "claim": CALL10, "v0": NAN}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "v0": float("inf")}),
    ("hedge", {"model": TRINOMIAL, "claim": CALL10, "v0": True}),
    ("verify", {"model": TRINOMIAL, "claim": CALL10, "tol": NAN}),
    ("verify", {"model": TRINOMIAL, "claim": CALL10, "tol": -1.0}),
    ("verify", {"model": TRINOMIAL, "claim": CALL10, "tol": True}),
    ("hedge", {"model": 5, "claim": CALL10}),
    ("hedge", {"model": TRINOMIAL, "claim": 7}),
    ("backtest", {"model": None, "claim": CALL10}),
    ("hedge", {"model": dict(TRINOMIAL, type=["iid"]), "claim": CALL10}),
    ("verify", {"model": TRINOMIAL, "claim": {"type": ["call"], "strike": 10.0}}),
    ("hedge", {"model": dict(BINOMIAL, periods=True), "claim": CALL10}),
    ("hedge", {"model": dict(TRINOMIAL, periods=True), "claim": CALL10}),
    ("hedge", {"model": dict(REGIME, periods=True), "claim": CALL10}),
    ("hedge", {"model": dict(TRINOMIAL, periods=2.0), "claim": CALL10}),
    ("hedge", {"model": TRINOMIAL, "claim": {"type": "call", "strike": True}}),
    ("hedge", {"model": TRINOMIAL, "claim": {"type": "call", "strike": float("inf")}}),
    ("hedge", {"model": TRINOMIAL, "claim": {"type": "put", "strike": float("inf")}}),
    ("hedge", {"model": dict(BINOMIAL_1, s0=[True], increments=[
        {"delta": [True], "p": 0.6}, {"delta": [-1.0], "p": 0.4}]), "claim": CALL10}),
    ("hedge", {"model": dict(REGIME, regimes=REGIME["regimes"][:1], transition=[[True]]),
               "claim": CALL10}),
    ("hedge", {"model": BINOMIAL_1, "claim": {"type": "per_leaf", "values": [True, 0.0]}}),
    # strings, which float() would read as numbers, on the 2-period trinomial
    ("hedge", {"model": dict(TRINOMIAL, periods=2, increments=[
        {"delta": [1.0], "p": "0.3"}, *TRINOMIAL["increments"][1:]]), "claim": CALL10}),
    ("hedge", {"model": dict(TRINOMIAL, periods=2, increments=[
        {"delta": ["1.0"], "p": 0.3}, *TRINOMIAL["increments"][1:]]), "claim": CALL10}),
    ("hedge", {"model": dict(TRINOMIAL, periods=2, s0=["10"]), "claim": CALL10}),
    ("hedge", {"model": dict(REGIME, regimes=REGIME["regimes"][:1], transition=[["1.0"]]),
               "claim": CALL10}),
    ("hedge", {"model": dict(TRINOMIAL, periods=2),
               "claim": {"type": "per_leaf", "values": ["1"] + [0.0] * 8}}),
    ("hedge", {"model": dict(TRINOMIAL, periods=2), "claim": {"type": "call", "strike": "10"}}),
    ("hedge", {"model": TRINOMIAL, "claim": CALL10, "v0": "0.5"}),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "v0": "0.5", "exact": True}),
    ("verify", {"model": TRINOMIAL, "claim": CALL10, "tol": "1e-9"}),
])
def test_mistyped_config_value_exit_code(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    args = [command, "--config", cfg]
    if command != "verify":
        args += ["--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# (command, config, message): every input check of the builders, the claim
# and the commands that a config reaches, each named on stderr with exit 2
HALF_MINUS = 0.5 - 0.45e-12   # laws and rows within PROB_SUM_TOL, their products not
HALF_MINUS_REGIME = dict(REGIME, transition=[[HALF_MINUS, HALF_MINUS], [0.2, 0.8]], regimes=[
    [{"delta": [1.0], "p": HALF_MINUS}, {"delta": [-1.0], "p": HALF_MINUS}], REGIME["regimes"][1]])
INPUT_ERRORS = [
    ("tree build", {"model": dict(BINOMIAL, down=1.5)}, "down must lie in (0, 1)"),
    ("tree build", {"model": dict(TRINOMIAL, increments=TRINOMIAL["increments"][:1])},
     "need at least 2 increments"),
    ("tree build", {"model": dict(REGIME, initial_regime=2)}, "initial_regime out of range"),
    ("tree build", {"model": dict(TRINOMIAL, mode="log")}, "unknown mode 'log'"),
    ("tree build", {"model": dict(REGIME, transition=[[1.0]])},
     "transition matrix shape does not match regime count"),
    ("tree build", {"model": dict(TRINOMIAL, s0=[10.0, 5.0])},
     "increment dimension does not match s0"),
    ("tree build", {"model": dict(BINOMIAL_1, periods=21)},
     "tree would exceed the leaf bound 2^20"),
    ("tree build", {"model": BINOMIAL_1, "claim": {"type": "per_leaf", "values": [math.inf, 0.0]}},
     "claim payoff must be finite"),
    ("tree build", {"model": dict(TRINOMIAL, increments=[1, 2])},
     "bad model value: 'int' object is not subscriptable"),
    ("hedge", {"model": HALF_MINUS_REGIME, "claim": CALL10},
     "invalid tree: child probabilities at node 0 sum to 0.9999999999982001"),
    ("hedge", {"model": TRINOMIAL}, "config needs a claim"),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "strategies": ["delta"]},
     "unknown strategy kind 'delta'"),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "strategies": []},
     "need at least one report"),
    ("backtest", {"model": TRINOMIAL, "claim": CALL10, "strategies": ["mvh", "mvh"],
                  "exact": True}, "strategy kind 'mvh' is repeated"),
    ("tree build", {"model": dict(BINOMIAL, up="1.1")},
     "up, down and p_up must be numeric, not a string"),
    ("tree build", {"model": dict(BINOMIAL, s0=[])}, "s0 must be finite and non-empty"),
    ("hedge", {"model": BINOMIAL_1, "claim": {"type": "call", "strike": [9.0, 11.0]}},
     "strike must be one number, got [9.0, 11.0]"),
    ("hedge", {"model": BINOMIAL_1, "claim": {"type": "per_leaf", "values": [[1.0], [0.0]]}},
     "per_leaf claim needs 2 values, one per leaf, got shape (2, 1)"),
    ("hedge", {"model": BINOMIAL_1, "claim": {"type": "per_leaf", "values": None}},
     "per_leaf claim needs 2 values, one per leaf, got shape ()"),
    ("tree build", {"model": dict(BINOMIAL_1, increments=[{"delta": [1.0]}, {"delta": [-1.0]}])},
     "bad model value: missing key 'p'"),
    # path counts whose uniforms would not fit in memory, rejected before any is drawn
    ("backtest", {"model": BINOMIAL_1, "claim": CALL10, "paths": 10**15},
     "paths must be in [1, 2**20], got 1000000000000000"),
    ("backtest", {"model": BINOMIAL_1, "claim": CALL10, "paths": 2**70},
     "paths must be in [1, 2**20], got 1180591620717411303424"),
    # tree build refuses what validate_tree refuses, as every other command does
    ("tree build", {"model": HALF_MINUS_REGIME},
     "invalid tree: child probabilities at node 0 sum to 0.9999999999982001"),
    ("tree build", {"model": dict(TRINOMIAL, s0=[1e300], mode="multiplicative", increments=[
        {"delta": [1e5], "p": 0.5}, {"delta": [-0.5], "p": 0.5}], periods=2)},
     "invalid tree: non-finite price at node 3"),
]


def first_part_ids(messages):
    """Each message up to its first ':', or the whole message when an
    earlier row's id is that part already."""
    ids = []
    for message in messages:
        head = message.split(":")[0]
        ids.append(message if head in ids else head)
    return ids


@pytest.mark.parametrize("command,doc,message", INPUT_ERRORS,
                         ids=first_part_ids(message for *_, message in INPUT_ERRORS))
def test_input_error_message_and_exit_code(tmp_path, capsys, command, doc, message):
    out = tmp_path / "o"
    assert main([*command.split(), "--config", write_config(tmp_path, doc), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and "Traceback" not in err


@pytest.mark.parametrize("command", ["tree build", "hedge"])
@pytest.mark.parametrize("model", [
    dict(REGIME, transition=[[NAN, 1.0], [0.2, 0.8]]),
    dict(REGIME, transition=[[float("inf"), 1.0], [0.2, 0.8]]),
    dict(REGIME, regimes=[REGIME["regimes"][0],
                          [{"delta": [2.0], "p": NAN}, {"delta": [-1.0], "p": 0.6}]]),
    dict(TRINOMIAL, increments=[{"delta": [1.0], "p": NAN}, {"delta": [0.0], "p": 0.4},
                                {"delta": [-1.0], "p": 0.3}]),
    dict(TRINOMIAL, increments=[{"delta": [float("inf")], "p": 0.3},
                                {"delta": [0.0], "p": 0.4}, {"delta": [-1.0], "p": 0.3}]),
    dict(TRINOMIAL, s0=[NAN]),
    dict(BINOMIAL, s0=[NAN]),
], ids=["transition_nan", "transition_inf", "regime_p_nan", "increment_p_nan",
        "delta_inf", "iid_s0_nan", "binomial_s0_nan"])
def test_non_finite_model_input_exit_code(tmp_path, capsys, command, model):
    cfg = write_config(tmp_path, {"model": model, "claim": CALL10})
    out = tmp_path / "o"
    assert main([*command.split(), "--config", cfg, "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "must be finite" in err


@pytest.mark.parametrize("command", ["tree build", "hedge"])
@pytest.mark.parametrize("initial", [0.5, 1.0, True, "0"])
def test_non_integer_initial_regime_exit_code(tmp_path, capsys, command, initial):
    cfg = write_config(tmp_path, {"model": dict(REGIME, initial_regime=initial), "claim": CALL10})
    assert main([*command.split(), "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("seed", ["-4", str(2**128)], ids=["negative", "2**128"])
def test_out_of_range_seed_flag_exit_code(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, {"model": TRINOMIAL, "claim": CALL10})
    assert main(["backtest", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command,flag,value", [
    ("hedge", "--v0", "nan"), ("hedge", "--v0", "inf"),
    ("backtest", "--v0", "nan"), ("backtest", "--v0", "inf"),
    ("verify", "--tol", "nan"), ("verify", "--tol", "-1"), ("verify", "--tol", "inf"),
])
def test_bad_endowment_or_tol_flag_exit_code(tmp_path, capsys, command, flag, value):
    cfg = write_config(tmp_path, {"model": TRINOMIAL, "claim": CALL10})
    out = tmp_path / "o"
    args = [command, "--config", cfg, flag, value]
    if command != "verify":
        args += ["--out", str(out)]
    assert main(args) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "CHECK" not in captured.out
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("case", ["config_is_dir", "config_not_utf8", "out_is_file",
                                  "summary_is_list", "summary_V0_text", "summary_no_error",
                                  "summary_V0_numeral_string"])
def test_bad_path_or_summary_exit_code(tmp_path, capsys, case):
    cfg = write_config(tmp_path, {"model": TRINOMIAL, "claim": CALL10})
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"model": "\xe9"}')
    summary = tmp_path / "summary.json"
    summary.write_text(json.dumps({"summary_is_list": [1.0],
                                   "summary_no_error": {"V0": 1.0, "L0": 1.0},
                                   "summary_V0_numeral_string": {
                                       "V0": "0.6", "L0": 1.0, "total_error": 0.0}}.get(
        case, {"V0": "abc", "L0": 1.0, "total_error": 0.0})))
    argv = {
        "config_is_dir": ["hedge", "--config", str(tmp_path), "--out", str(tmp_path / "o")],
        "config_not_utf8": ["hedge", "--config", str(latin1), "--out", str(tmp_path / "o")],
        "out_is_file": ["hedge", "--config", cfg, "--out", cfg],
    }.get(case, ["verify", "--config", cfg, "--summary", str(summary)])
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err
    if case == "summary_no_error":   # the missing key is named
        assert err == "error: bad summary value: missing key 'total_error'\n"
    assert not (tmp_path / "o").exists()


HUGE = 10**400   # json.dumps writes it as a 401-digit integer literal, beyond the double range
HUGE_INPUTS = {
    "s0": ("hedge", {"model": dict(TRINOMIAL, s0=[HUGE]), "claim": CALL10}),
    "strike": ("hedge", {"model": TRINOMIAL, "claim": {"type": "call", "strike": HUGE}}),
    "per_leaf": ("hedge", {"model": TRINOMIAL,
                           "claim": {"type": "per_leaf", "values": [HUGE, 0.0, 0.0]}}),
    "increment_p": ("tree build", {"model": dict(TRINOMIAL, increments=[
        {"delta": [1.0], "p": HUGE}, *TRINOMIAL["increments"][1:]])}),
    "hedge_v0": ("hedge", {"model": TRINOMIAL, "claim": CALL10, "v0": HUGE}),
    "backtest_v0": ("backtest", {"model": TRINOMIAL, "claim": CALL10, "v0": HUGE}),
    "tol": ("verify", {"model": TRINOMIAL, "claim": CALL10, "tol": HUGE}),
    "summary_V0": ("verify", {"model": TRINOMIAL, "claim": CALL10}),
}


@pytest.mark.parametrize("case", HUGE_INPUTS)
def test_integer_beyond_the_double_range_exit_code(tmp_path, capsys, case):
    command, doc = HUGE_INPUTS[case]
    out = tmp_path / "o"
    argv = [*command.split(), "--config", write_config(tmp_path, doc)]
    argv += ["--out", str(out)] if command != "verify" else []
    if case == "summary_V0":
        summary = tmp_path / "summary.json"
        summary.write_text(json.dumps({"V0": HUGE, "L0": 1.0, "total_error": 0.0}))
        argv += ["--summary", str(summary)]
    assert main(argv) == 2
    assert not out.exists()
    captured = capsys.readouterr()
    assert "CHECK" not in captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


# degenerate at node 1 (both increments +1): a bad input must exit 2 before
# the engine runs, not 3 after it
DEGENERATE = {"type": "iid", "s0": [10.0], "periods": 2,
              "increments": [{"delta": [1.0], "p": 0.5}, {"delta": [1.0], "p": 0.5}]}
BEFORE_THE_ENGINE = {
    "inspect_field": (["inspect", "--field", "foo"], {}),
    "hedge_v0_nan": (["hedge", "--v0", "nan", "--out", "o"], {}),
    "backtest_v0_inf": (["backtest", "--v0", "inf", "--out", "o"], {}),
    "strategies_string": (["backtest", "--out", "o"], {"strategies": "mvh"}),
    "exact_string": (["backtest", "--out", "o"], {"exact": "yes"}),
    "paths_float": (["backtest", "--out", "o"], {"paths": 1.5}),
    "seed_boolean": (["backtest", "--out", "o"], {"seed": True}),
    "summary_missing": (["verify", "--summary", "missing.json"], {}),
    "summary_no_L0": (["verify", "--summary", "no_L0.json"], {}),
}


@pytest.mark.parametrize("case", BEFORE_THE_ENGINE)
def test_bad_input_exits_2_before_the_engine_runs(tmp_path, monkeypatch, capsys, case):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no_L0.json").write_text(json.dumps({"V0": 1.0, "total_error": 0.0}))
    argv, keys = BEFORE_THE_ENGINE[case]
    plain = write_config(tmp_path, {"model": DEGENERATE, "claim": CALL10}, "plain.json")
    assert main(["hedge", "--config", plain, "--out", "d"]) == 3   # the market is degenerate
    capsys.readouterr()
    cfg = write_config(tmp_path, {"model": DEGENERATE, "claim": CALL10, **keys})
    assert main([argv[0], "--config", cfg, *argv[1:]]) == 2
    assert not (tmp_path / "o").exists()
    captured = capsys.readouterr()
    assert "CHECK" not in captured.out
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_out_config_key_rejected(tmp_path):
    cfg = write_config(tmp_path, {"model": BINOMIAL, "claim": CALL10, "out": "o"})
    assert main(["hedge", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# the flags each subcommand reads, and the ones it used to accept and ignore
KEPT_FLAGS = {
    ("tree", "build"): {"--out": "o"},
    ("hedge",): {"--out": "o", "--v0": "1.5"},
    ("verify",): {"--tol": "0.001", "--summary": "s.json"},
    ("backtest",): {"--out": "o", "--v0": "auto", "--seed": "3", "--paths": "7",
                    "--exact": None},
    ("inspect",): {"--field": "L"},
}
REMOVED_FLAGS = [
    (command, flag)
    for command, flags in [
        (("tree", "build"), ["--v0", "--seed", "--paths", "--exact", "--tol"]),
        (("hedge",), ["--seed", "--paths", "--exact", "--tol"]),
        (("verify",), ["--v0", "--seed", "--paths", "--exact"]),
        (("backtest",), ["--tol"]),
        (("inspect",), ["--v0", "--seed", "--paths", "--exact", "--tol"]),
    ]
    for flag in flags
]
FLAG_VALUES = {"--v0": "1", "--seed": "3", "--paths": "7", "--exact": None, "--tol": "0.001"}


def _argv(command, flags):
    argv = [*command, "--config", "cfg.json"]
    for flag, value in flags.items():
        argv += [flag] if value is None else [flag, value]
    return argv


@pytest.mark.parametrize("command,flag", REMOVED_FLAGS,
                         ids=[f"{' '.join(c)} {f}" for c, f in REMOVED_FLAGS])
def test_unread_flag_rejected(capsys, command, flag):
    argv = _argv(command, {flag: FLAG_VALUES[flag]})
    if command == ("inspect",):
        argv += ["--field", "L"]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("command", KEPT_FLAGS, ids=" ".join)
def test_kept_flags_parse(command):
    args = make_parser().parse_args(_argv(command, KEPT_FLAGS[command]))
    assert args.config == "cfg.json"
    for flag, value in KEPT_FLAGS[command].items():
        got = getattr(args, flag[2:])
        assert (got is True) if value is None else (str(got) == value)


def test_hedge_reruns_byte_identical(tmp_path):
    cfg = write_config(tmp_path, {"model": BINOMIAL, "claim": CALL10, "v0": "auto"})
    out = tmp_path / "out"
    assert main(["hedge", "--config", cfg, "--out", str(out)]) == 0
    first = (out / "hedge_nodes.csv").read_text(), (out / "hedge_summary.json").read_text()
    assert main(["hedge", "--config", cfg, "--out", str(out)]) == 0
    second = (out / "hedge_nodes.csv").read_text(), (out / "hedge_summary.json").read_text()
    assert first == second


def test_verify_passes(tmp_path, capsys):
    model = dict(TRINOMIAL, periods=3)
    cfg = write_config(tmp_path, {"model": model, "claim": CALL10})
    assert main(["verify", "--config", cfg]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out
    assert "CHECK lsq_min_error" in out


def verify_verdicts(threads: int) -> list[str]:
    """verify's CHECK lines on the golden config, cut to name, node and
    verdict, from a process with the given number of BLAS threads."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads), PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-m", "mvhedge.cli", "verify", "--config", GOLDEN_CONFIG],
                         env=env, capture_output=True, text=True, check=True, timeout=120).stdout
    return [" ".join(line.split()[:3] + line.split()[-1:])
            for line in out.splitlines() if line.startswith("CHECK")]


def test_module_entry_flushes_its_output(tmp_path, capsys):
    # python -m mvhedge.cli freezes the import-time objects for a quick
    # exit; what main prints still reaches the pipes, on exit 0 and on
    # exit 2.  The process inherits this one's BLAS threads
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "mvhedge.cli", *argv],
                              env=env, capture_output=True, text=True, timeout=120)

    verify = run("verify", "--config", GOLDEN_CONFIG)
    assert main(["verify", "--config", GOLDEN_CONFIG]) == verify.returncode == 0
    assert verify.stdout == capsys.readouterr().out
    bad = run("hedge", "--config", write_config(tmp_path, {"model": TRINOMIAL}),
              "--out", str(tmp_path / "o"))
    assert (bad.returncode, bad.stdout, bad.stderr) == (2, "", "error: config needs a claim\n")


def test_verify_nodes_do_not_depend_on_thread_count():
    # value_process and qp_leaf_density name a node by differences at
    # rounding level, which move with the BLAS thread count
    assert verify_verdicts(1) == verify_verdicts(2)


def test_worst_line_node(capsys):
    # differences at rounding level pick the lowest id; a NaN one is the worst
    ones = np.ones(4)
    assert _worst_line("x", [5, 6, 7, 8], ones + [1e-16, 3e-16, 0.0, 2e-16], ones, 1e-9)
    assert not _worst_line("x", [5, 6, 7, 8], ones + [1e-16, 0.1, np.nan, 0.0], ones, 1e-9)
    assert [line.split()[2] for line in capsys.readouterr().out.splitlines()] == [
        "node=5", "node=7"]


def root_size_solves(monkeypatch, cfg: str) -> tuple[list, list, list, list, int]:
    """The shapes of the matrices as large as the root's normal matrix (or
    its block without the cash column) that verify on cfg hands to
    np.linalg.cholesky, the sizes of such matrices that it hands to
    pinv_psd and, with the number of right-hand sides, to np.linalg.solve,
    and the shapes of the right-hand sides of the root factor's solves."""
    tree = build_model(load_config(cfg)["model"])
    root_cols = int(np.count_nonzero(tree.time < tree.horizon)) * tree.num_assets + 1
    cholesky, pinv, solves, factor_solves = [], [], [], []

    def spy(seen, original, record=lambda m: [m.shape]):
        def call(m, *args, **kwargs):
            seen.extend(record(m))
            return original(m, *args, **kwargs)
        return call

    def solve_spy(a, b, solve=np.linalg.solve):
        if a.shape[-1] >= root_cols - 1:
            solves.append((a.shape[-1], b.shape[-1]))
        return solve(a, b)

    def factor_solve(f, rhs, solve=mv.oracle._Factor.solve):
        factor_solves.append(rhs.shape)
        return solve(f, rhs)

    monkeypatch.setattr(np.linalg, "cholesky", spy(
        cholesky, np.linalg.cholesky, lambda m: [m.shape] if m.shape[-1] >= root_cols - 1 else []))
    monkeypatch.setattr(mv.oracle, "pinv_psd", spy(
        pinv, mv.oracle.pinv_psd, lambda m: [m.shape[-1]] * int(np.prod(m.shape[:-2]))))
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    monkeypatch.setattr(mv.oracle._Factor, "solve", factor_solve)
    assert main(["verify", "--config", cfg]) == 0
    return (cholesky, [n for n in pinv if n >= root_cols - 1], solves, factor_solves, root_cols)


def test_verify_factors_the_root_once(monkeypatch, tmp_path):
    # the least squares, the QP and every node check share one factor of
    # the root's normal matrix, built front by front up the tree, and
    # solved once for the claim and once for the cash column.  No matrix of
    # root size is Cholesky-factored, solved or pseudo-inverted, also where
    # a duplicated asset makes the normal matrix singular
    cholesky, pinv, solves, factor_solves, n = root_size_solves(monkeypatch, GOLDEN_CONFIG)
    assert (cholesky, pinv, solves, factor_solves) == ([], [], [], [(n,), (n,)])
    dup = {"type": "iid", "s0": [10.0, 10.0], "periods": 3,
           "increments": [{"delta": [x, x], "p": p} for x, p in ((1.0, 0.3), (0.0, 0.4),
                                                                  (-1.0, 0.3))]}
    cfg = write_config(tmp_path, {"model": dup, "claim": CALL10})
    cholesky, pinv, solves, factor_solves, n = root_size_solves(monkeypatch, cfg)
    assert (cholesky, pinv, solves, factor_solves) == ([], [], [], [(n,), (n,)])


@pytest.mark.parametrize("x", [-0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan])
def test_printf_renders_doubles_as_check_line(x):
    # _check_lines renders every number with one printf template
    assert "%.17g" % x == format(x, ".17g")
    assert "%.3e" % x == f"{x:.3e}"


def reference_line(name, node, engine: float, target: float, tol: float) -> str:
    """A CHECK line rendered number by number with format()."""
    rel = abs(engine - target) / max(abs(target), 1.0)
    return (f"CHECK {name} node={node} engine={engine:.17g} oracle={target:.17g} "
            f"rel_err={rel:.3e} {'PASS' if rel <= tol else 'FAIL'}")


def test_check_lines_render_as_format(capsys):
    # node-major lines, byte for byte the number-by-number rendering, with
    # a NaN on either side a FAIL; a scalar target applies to every node
    values = [0.0, -0.0, 1.0, 1.0 + 1e-10, 1.0 + 1e-8, 5e-324, -3e5, math.inf, -math.inf, NAN]
    engine = np.array([[e, t] for e in values for t in values])
    target = engine[::-1].copy()
    nodes = (np.arange(len(engine)) * 3).tolist()
    checks = {"a": (engine[:, 0], target[:, 0]), "b": (engine[:, 1], target[:, 1]),
              "c": (engine[:, 0], 0.0)}
    assert not _check_lines(checks, nodes, 1e-9)
    lines = capsys.readouterr().out.splitlines()
    assert lines == [reference_line(name, node, float(e[i]), float(np.broadcast_to(t, e.shape)[i]),
                                    1e-9)
                     for i, node in enumerate(nodes) for name, (e, t) in checks.items()]
    fails = [line for line in lines if {"engine=nan", "oracle=nan"} & set(line.split()[3:5])]
    assert fails and all(line.endswith(" FAIL") for line in fails)
    assert _check_line("x", 7, 1.0, 1.0 + 1e-12, 1e-9)
    assert capsys.readouterr().out == reference_line("x", 7, 1.0, 1.0 + 1e-12, 1e-9) + "\n"
    assert _check_lines({"a": (np.empty(0), 0.0)}, [], 1e-9)
    assert capsys.readouterr().out == ""


def test_verify_detects_tampered_summary(tmp_path):
    cfg = write_config(tmp_path, {"model": TRINOMIAL, "claim": CALL10, "v0": 0.3})
    out = tmp_path / "out"
    assert main(["hedge", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "hedge_summary.json").read_text())
    summary["L0"] += 1e-3
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(summary))
    assert main(["verify", "--config", cfg, "--summary", str(tampered)]) == 1


def test_verify_too_large(tmp_path):
    model = dict(BINOMIAL, periods=11)  # 2048 leaves
    cfg = write_config(tmp_path, {"model": model, "claim": CALL10})
    assert main(["verify", "--config", cfg]) == 4


def test_backtest_exact(tmp_path, capsys):
    model = {"type": "iid", "s0": [10.0],
             "increments": [{"delta": [1.0], "p": 0.4}, {"delta": [0.0], "p": 0.35},
                            {"delta": [-1.0], "p": 0.25}],
             "periods": 3}
    cfg = write_config(tmp_path, {"model": model, "claim": CALL10,
                                  "strategies": ["mvh", "pure_xi", "gkw"]})
    out = tmp_path / "out"
    assert main(["backtest", "--config", cfg, "--out", str(out), "--exact"]) == 0
    rows = (out / "backtest.csv").read_text().strip().splitlines()
    assert len(rows) == 4
    ratios = [float(r.split(",")[-1]) for r in rows[1:]]
    assert min(ratios) >= 1.0 - 1e-12


def test_backtest_sampled_reproducible(tmp_path):
    cfg = write_config(tmp_path, {"model": dict(TRINOMIAL, periods=3), "claim": CALL10,
                                  "seed": 42, "paths": 500})
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["backtest", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["backtest", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "backtest.csv").read_text() == (out2 / "backtest.csv").read_text()


def test_backtest_markowitz_incompatible(tmp_path):
    cfg = write_config(tmp_path, {"model": TRINOMIAL, "claim": CALL10,
                                  "strategies": ["markowitz"]})
    assert main(["backtest", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--exact"]) == 2


def test_inspect_L_martingale(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": dict(TRINOMIAL, periods=2), "claim": CALL10})
    assert main(["inspect", "--config", cfg, "--field", "L"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    assert all(row.split(",")[2] == "1" for row in rows)


def test_inspect_sharpe_binomial(tmp_path, capsys):
    cfg = write_config(tmp_path, {"model": BINOMIAL_1, "claim": CALL10})
    assert main(["inspect", "--config", cfg, "--field", "sharpe"]) == 0
    root_row = capsys.readouterr().out.strip().splitlines()[1]
    assert float(root_row.split(",")[2]) == pytest.approx(0.204124, abs=1e-6)


def test_inspect_unknown_field(tmp_path):
    cfg = write_config(tmp_path, {"model": BINOMIAL_1, "claim": CALL10})
    assert main(["inspect", "--config", cfg, "--field", "foo"]) == 2


README = Path(__file__).resolve().parents[1] / "README.md"


def readme_block(lang: str, after: str) -> str:
    """The first ```lang block of the README after the text after."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"```{lang}\n", text.index(after)) + len(lang) + 4
    return text[start:text.index("```", start)]


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    # the library sketch, and each documented command on the example config
    exec(readme_block("python", "## Library sketch"), {})
    monkeypatch.chdir(tmp_path)
    (tmp_path / "cfg.json").write_text(readme_block("json", "Example config:"))
    commands = readme_block("sh", "## Command line").splitlines()
    assert len(commands) == 5
    for line in commands:
        args = line.split("#")[0].split()
        assert args[0] == "mvhedge" and main(args[1:]) == 0, line
