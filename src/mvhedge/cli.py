"""Command-line entry point.

Subcommands: tree build, hedge, verify, backtest, inspect.  Every
command is a pure function of (config file, flags): rerunning writes
byte-identical outputs.  Exit codes: 0 ok, 1 verification failure,
2 config/parameter error, 3 degenerate market, 4 size bound.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import backtest as bt
from . import hedging, opportunity, oracle
from .errors import BadParameter, DegenerateStep, IncompatibleClaim, Infeasible, TooLarge
from .linalg import pinv_psd
from .tree import (
    Claim,
    ScenarioTree,
    _fmt,
    attach_claim,
    build_binomial,
    build_iid_multinomial,
    build_regime_switching,
    serialize_tree,
    validate_tree,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_DEGENERATE = 3
EXIT_TOO_LARGE = 4

_CONFIG_KEYS = {"model", "claim", "v0", "seed", "paths", "strategies", "exact", "tol"}
_MODEL_KEYS = {
    "binomial": {"type", "s0", "up", "down", "p_up", "periods"},
    "iid": {"type", "s0", "increments", "periods", "mode"},
    "regime": {"type", "s0", "regimes", "transition", "initial_regime", "periods", "mode"},
}
_CLAIM_KEYS = {"call": {"type", "strike"}, "put": {"type", "strike"}, "per_leaf": {"type", "values"}}


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise BadParameter(f"unknown {where} keys: {sorted(unknown)}")


@contextmanager
def _typed(where: str):
    """Turn a TypeError/ValueError from a mistyped config value into a BadParameter."""
    try:
        yield
    except BadParameter:
        raise
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"bad {where} value: {exc}") from exc


def _config_int(config: dict, key: str, default: int) -> int:
    """A config value that must be a JSON integer; a float or a boolean
    would otherwise be truncated to one."""
    value = config.get(key, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise BadParameter(f"{key} must be an integer, got {value!r}")
    return value


def load_config(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise BadParameter("config must be a JSON object")
    _reject_unknown(doc, _CONFIG_KEYS, "config")
    return doc


def build_model(cfg: dict) -> ScenarioTree:
    if "type" not in cfg:
        raise BadParameter("model config needs a 'type'")
    kind = cfg["type"]
    if kind not in _MODEL_KEYS:
        raise BadParameter(f"unknown model type {kind!r}")
    _reject_unknown(cfg, _MODEL_KEYS[kind], "model")
    with _typed("model"):
        if kind == "binomial":
            return build_binomial(cfg["s0"], cfg["up"], cfg["down"], cfg["p_up"], cfg["periods"])
        if kind == "iid":
            incs = [(inc["delta"], inc["p"]) for inc in cfg["increments"]]
            return build_iid_multinomial(cfg["s0"], incs, cfg["periods"],
                                         cfg.get("mode", "additive"))
        regimes = [[(inc["delta"], inc["p"]) for inc in law] for law in cfg["regimes"]]
        return build_regime_switching(
            cfg["s0"], regimes, cfg["transition"], cfg["initial_regime"],
            cfg["periods"], cfg.get("mode", "additive"),
        )


def build_claim(tree: ScenarioTree, cfg: dict) -> Claim:
    if "type" not in cfg:
        raise BadParameter("claim config needs a 'type'")
    kind = cfg["type"]
    if kind not in _CLAIM_KEYS:
        raise BadParameter(f"unknown claim type {kind!r}")
    _reject_unknown(cfg, _CLAIM_KEYS[kind], "claim")
    with _typed("claim"):
        if kind == "per_leaf":
            return attach_claim(tree, "per_leaf", values=cfg["values"])
        return attach_claim(tree, kind, strike=cfg["strike"])


def _resolve_v0(v0_cfg, plan) -> float:
    if v0_cfg is None or v0_cfg == "auto":
        return plan.v0
    try:
        return float(v0_cfg)
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"v0 must be a number or 'auto', got {v0_cfg!r}") from exc


def _setup(config: dict):
    tree = build_model(config.get("model", {}))
    violations = validate_tree(tree)
    if violations:
        raise BadParameter("invalid tree: " + "; ".join(violations[:3]))
    if "claim" not in config:
        raise BadParameter("config needs a claim")
    claim = build_claim(tree, config["claim"])
    surf = opportunity.compute_opportunity(tree)
    plan = hedging.compute_plan(tree, surf, claim)
    return tree, claim, surf, plan


def _write(out_dir: str, name: str, content: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(content)
    return path


# ---------------------------------------------------------------------------
# Subcommands


def cmd_tree_build(args) -> int:
    config = load_config(args.config)
    tree = build_model(config.get("model", {}))
    claim = build_claim(tree, config["claim"]) if "claim" in config else None
    doc = serialize_tree(tree, claim)
    path = _write(args.out, "tree.json", doc + "\n")
    print(f"wrote {path}: {len(tree.nodes)} nodes, {len(tree.leaves())} leaves")
    return EXIT_OK


def cmd_hedge(args) -> int:
    config = load_config(args.config)
    tree, claim, surf, plan = _setup(config)
    v0 = _resolve_v0(args.v0 if args.v0 is not None else config.get("v0"), plan)
    report = hedging.hedging_error(tree, surf, plan, v0)

    rows = ["id,time,V," + ",".join(f"xi_{i}" for i in range(tree.num_assets)) + ",e"]
    for node in tree.nodes:
        xi = ",".join(
            "" if node.time == tree.horizon else _fmt(plan.xi[node.id][i])
            for i in range(tree.num_assets)
        )
        e = "" if node.time == tree.horizon else _fmt(report.e[node.id])
        rows.append(f"{node.id},{node.time},{_fmt(plan.V[node.id])},{xi},{e}")
    _write(args.out, "hedge_nodes.csv", "\n".join(rows) + "\n")

    summary = "\n".join([
        "{",
        f'  "v0": {_fmt(v0)},',
        f'  "V0": {_fmt(plan.v0)},',
        f'  "L0": {_fmt(surf.L[0])},',
        f'  "total_error": {_fmt(report.total_error)},',
        f'  "endowment_term": {_fmt(report.endowment_term)},',
        '  "slice_error": {'
        + ", ".join(f'"{t}": {_fmt(v)}' for t, v in sorted(report.slice_error.items()))
        + "}",
        "}",
    ])
    path = _write(args.out, "hedge_summary.json", summary + "\n")
    print(f"wrote {path}: v0={_fmt(v0)} V0={_fmt(plan.v0)} total_error={_fmt(report.total_error)}")
    return EXIT_OK


def _check_line(name: str, node, engine: float, target: float, tol: float) -> bool:
    denom = max(abs(target), 1.0)
    rel = abs(engine - target) / denom
    ok = rel <= tol
    print(
        f"CHECK {name} node={node} engine={_fmt(engine)} oracle={_fmt(target)} "
        f"rel_err={rel:.3e} {'PASS' if ok else 'FAIL'}"
    )
    return ok


def cmd_verify(args) -> int:
    config = load_config(args.config)
    with _typed("tol"):
        tol = args.tol if args.tol is not None else float(config.get("tol", 1e-9))
    tree, claim, surf, plan = _setup(config)
    mea = opportunity.measures(tree, surf)
    probs = tree.node_probs()
    ok = True

    report = hedging.hedging_error(tree, surf, plan, plan.v0)
    lsq = oracle.lsq_projection(tree, claim, "free")
    ok &= _check_line("lsq_v0", 0, plan.v0, lsq.v0_opt, tol)
    ok &= _check_line("lsq_min_error", 0, report.total_error, lsq.min_error, tol)
    _, G = hedging.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, plan.v0)
    scale = max(1.0, float(np.max(np.abs(claim.payoff))))
    worst = int(np.argmax(np.abs(G - lsq.value_process)))
    ok &= _check_line(
        "value_process", worst, G[worst] / scale, lsq.value_process[worst] / scale, tol
    )

    qp = oracle.martingale_qp(tree)
    ok &= _check_line("qp_second_moment", 0, 1.0 / surf.L[0], qp.second_moment, tol)
    z = np.array([mea.z_qstar[leaf.id] for leaf in tree.leaves()])
    worst = int(np.argmax(np.abs(z - qp.leaf_density)))
    ok &= _check_line("qp_leaf_density", tree.leaves()[worst].id,
                      z[worst], qp.leaf_density[worst], tol)

    for node in tree.nodes:
        ok &= _check_line(
            "node_L", node.id, surf.L[node.id],
            oracle.node_conditional_check(tree, node.id), tol,
        )

    inner = tree.nonterminal()
    ids = [node.id for node in inner]
    b = surf.b_sstar[ids]
    up = np.full(len(tree.nodes), np.nan)
    dn = np.full(len(tree.nodes), np.nan)
    up[ids] = 1.0 + (b[:, None, :] @ pinv_psd(surf.c_hat_sstar[ids]) @ b[:, :, None])[:, 0, 0]
    dn[ids] = 1.0 - (b[:, None, :] @ pinv_psd(surf.c_tilde_sstar[ids]) @ b[:, :, None])[:, 0, 0]
    for node in inner:
        i = node.id
        kids, p, deltas = tree.step(node)
        ok &= _check_line("cor320_tilde", i,
                          float(np.max(np.abs(surf.c_tilde_sstar[i] @ surf.a_tilde[i]
                                              - surf.b_sstar[i]))), 0.0, tol)
        ok &= _check_line("cor320_hat", i,
                          float(np.max(np.abs(surf.c_hat_sstar[i] @ surf.a_hat[i]
                                              - surf.b_sstar[i]))), 0.0, tol)
        ok &= _check_line("identity_319", i, up[i] * dn[i], 1.0, tol)
        ok &= _check_line("dak_identity", i, surf.dAK[i], up[i] - 1.0, tol)
        ok &= _check_line("qstar_mass", i, float(p @ mea.qstar_w[i]), 1.0, tol)
        ok &= _check_line("qstar_drift", i,
                          float(np.max(np.abs(deltas.T @ (p * mea.qstar_w[i])))), 0.0, tol)
        fact = (surf.L[kids] / surf.m0[i]) * mea.nstar_f[i]
        ok &= _check_line("lemma323", i, float(np.max(np.abs(fact - mea.qstar_w[i]))), 0.0, tol)

    ok &= _check_line("fs_residual", 0,
                      hedging.fs_residual_check(tree, surf, plan) / scale, 0.0, tol)
    submart = float(np.nanmin(surf.m0 - surf.L))
    ok &= _check_line("L_submartingale", 0, min(submart, 0.0), 0.0, tol)
    time_mass = max(
        abs(sum(probs[n.id] for n in tree.nodes_at(t)) - 1.0) for t in range(tree.horizon + 1)
    )
    ok &= _check_line("slice_prob_mass", 0, time_mass, 0.0, 1e-10)

    if args.summary:
        with open(args.summary) as fh:
            stored = json.load(fh)
        ok &= _check_line("summary_V0", 0, float(stored["V0"]), plan.v0, tol)
        ok &= _check_line("summary_L0", 0, float(stored["L0"]), surf.L[0], tol)
        v0 = _resolve_v0(stored.get("v0"), plan)
        ok &= _check_line(
            "summary_total_error", 0, float(stored["total_error"]),
            hedging.hedging_error(tree, surf, plan, v0).total_error, tol,
        )
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_backtest(args) -> int:
    config = load_config(args.config)
    tree, claim, surf, plan = _setup(config)
    v0 = _resolve_v0(args.v0 if args.v0 is not None else config.get("v0"), plan)
    strategies = config.get("strategies", ["mvh", "pure_xi", "gkw"])
    if not isinstance(strategies, list):
        raise BadParameter(f"strategies must be a list, got {strategies!r}")
    exact = config.get("exact", False)
    if not isinstance(exact, bool):
        raise BadParameter(f"exact must be true or false, got {exact!r}")
    exact = args.exact or exact
    seed = args.seed if args.seed is not None else _config_int(config, "seed", 0)
    n_paths = args.paths if args.paths is not None else _config_int(config, "paths", 10000)
    paths = None if exact else bt.sample_paths(tree, n_paths, seed)
    reports = [
        bt.run_strategy(tree, surf, plan, kind, v0, paths=paths, exact=exact)
        for kind in strategies
    ]
    table = bt.compare_report(reports)
    path = _write(args.out, "backtest.csv", table)
    summary = {
        r.strategy: {
            "n_paths": r.num_paths,
            "mean_sq_error": r.mean_sq_error,
            "std_error": r.std_error,
            "analytic_error": r.analytic_error,
        }
        for r in reports
    }
    _write(args.out, "backtest.json", json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(table, end="")
    return EXIT_OK


def cmd_inspect(args) -> int:
    config = load_config(args.config)
    tree, claim, surf, plan = _setup(config)
    field = args.field
    if field == "L":
        print("id,time,L")
        for node in tree.nodes:
            print(f"{node.id},{node.time},{_fmt(surf.L[node.id])}")
    elif field == "a":
        head = ",".join(f"a_tilde_{i}" for i in range(tree.num_assets))
        head += "," + ",".join(f"a_hat_{i}" for i in range(tree.num_assets))
        print(f"id,time,{head},dAK")
        for node in tree.nonterminal():
            i = node.id
            at = ",".join(_fmt(x) for x in surf.a_tilde[i])
            ah = ",".join(_fmt(x) for x in surf.a_hat[i])
            print(f"{i},{node.time},{at},{ah},{_fmt(surf.dAK[i])}")
    elif field == "V":
        print("id,time,V")
        for node in tree.nodes:
            print(f"{node.id},{node.time},{_fmt(plan.V[node.id])}")
    elif field == "xi":
        print("id,time," + ",".join(f"xi_{i}" for i in range(tree.num_assets)))
        for node in tree.nonterminal():
            print(f"{node.id},{node.time}," + ",".join(_fmt(x) for x in plan.xi[node.id]))
    elif field == "sharpe":
        print("id,time,sharpe")
        for node in tree.nodes:
            print(f"{node.id},{node.time},{_fmt(opportunity.sharpe_ratio(surf, node.id))}")
    elif field == "mvt":
        mvt = opportunity.mvt_process(tree, surf)
        print("id,time,dK_hat")
        for node in tree.nonterminal():
            print(f"{node.id},{node.time},{_fmt(mvt.dK_hat[node.id])}")
        det = "true" if mvt.deterministic_mvt else "false"
        pp = "true" if mvt.pstar_is_p else "false"
        print(f"# deterministic_mvt={det} pstar_is_p={pp}")
    elif field == "qstar":
        mea = opportunity.measures(tree, surf)
        print("id,child,qstar_w,pstar_p")
        for node in tree.nonterminal():
            i = node.id
            kids, _, _ = tree.step(node)
            for cid, qw, pp in zip(kids, mea.qstar_w[i], mea.pstar_p[i]):
                print(f"{i},{cid},{_fmt(qw)},{_fmt(pp)}")
    else:
        raise BadParameter(f"unknown inspect field {field!r}")
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="mvhedge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(parent, name, func, help, out=True):
        p = parent.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--config", required=True, help="JSON run configuration")
        if out:
            p.add_argument("--out", default="out", help="output directory")
        return p

    v0_help = "initial endowment or 'auto'"
    tree_p = sub.add_parser("tree", help="tree operations")
    tree_sub = tree_p.add_subparsers(dest="tree_command", required=True)
    command(tree_sub, "build", cmd_tree_build, "build and serialize a scenario tree")

    hedge_p = command(sub, "hedge", cmd_hedge, "run the hedging engine")
    hedge_p.add_argument("--v0", default=None, help=v0_help)

    verify_p = command(sub, "verify", cmd_verify, "cross-check engine against oracles",
                       out=False)
    verify_p.add_argument("--tol", type=float, default=None, help="relative tolerance")
    verify_p.add_argument("--summary", default=None, help="hedge summary JSON to re-verify")

    backtest_p = command(sub, "backtest", cmd_backtest, "Monte Carlo strategy comparison")
    backtest_p.add_argument("--v0", default=None, help=v0_help)
    backtest_p.add_argument("--seed", type=int, default=None)
    backtest_p.add_argument("--paths", type=int, default=None)
    backtest_p.add_argument("--exact", action="store_true")

    inspect_p = command(sub, "inspect", cmd_inspect, "dump per-node fields as CSV", out=False)
    inspect_p.add_argument("--field", required=True,
                           help="one of L, a, V, xi, sharpe, mvt, qstar")
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (BadParameter, IncompatibleClaim, json.JSONDecodeError, FileNotFoundError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except (DegenerateStep, Infeasible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_DEGENERATE
    except TooLarge as exc:
        print(f"error: {exc}", file=sys.stderr)
        code = EXIT_TOO_LARGE
    return code


if __name__ == "__main__":
    sys.exit(main())
