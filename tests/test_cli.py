import json

import pytest

from mvhedge.cli import main, make_parser

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
])
def test_mistyped_config_value_exit_code(tmp_path, capsys, command, doc):
    cfg = write_config(tmp_path, doc)
    args = [command, "--config", cfg]
    if command != "verify":
        args += ["--out", str(tmp_path / "o")]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("seed", ["-4", str(2**128)], ids=["negative", "2**128"])
def test_out_of_range_seed_flag_exit_code(tmp_path, capsys, seed):
    cfg = write_config(tmp_path, {"model": TRINOMIAL, "claim": CALL10})
    assert main(["backtest", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--seed", seed]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


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
