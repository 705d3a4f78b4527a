"""Command-line entry point.

Subcommands: tree build, hedge, verify, backtest, inspect.  Every
command is a pure function of (config file, flags): rerunning writes
byte-identical outputs.  Exit codes: 0 ok, 1 verification failure,
2 config/parameter error, 3 degenerate market, 4 size bound.  Each
command reads its flags, config keys and summary before the engine runs
(every number through errors.number), so a bad one exits 2.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import sys
from contextlib import contextmanager

import numpy as np

from . import backtest as bt
from . import hedging, opportunity, oracle
from .errors import (BadParameter, DegenerateStep, IncompatibleClaim, Infeasible, TooLarge,
                     is_int, number)
from .tree import (
    ScenarioTree,
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
INSPECT_FIELDS = ("L", "a", "V", "xi", "sharpe", "mvt", "qstar")


def _reject_unknown(doc: dict, allowed: set, where: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise BadParameter(f"unknown {where} keys: {sorted(unknown)}")


@contextmanager
def _typed(where: str):
    """Turn a mistyped config or summary value's TypeError/ValueError, or a missing key,
    into BadParameter."""
    try:
        yield
    except BadParameter:
        raise
    except KeyError as exc:
        raise BadParameter(f"bad {where} value: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise BadParameter(f"bad {where} value: {exc}") from exc


def _config_int(config: dict, key: str, default: int) -> int:
    """config[key] (default when absent), which must be a JSON integer, not a float or boolean."""
    value = config.get(key, default)
    if not is_int(value):
        raise BadParameter(f"{key} must be an integer, got {value!r}")
    return value


def _load_object(path: str, what: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:   # also not UTF-8, or an integer literal over 4,300 digits
            raise BadParameter(f"{what} is not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise BadParameter(f"{what} must be a JSON object")
    return doc


def load_config(path: str) -> dict:
    doc = _load_object(path, "config")
    _reject_unknown(doc, _CONFIG_KEYS, "config")
    return doc


def _section_type(cfg, where: str, keys: dict) -> str:
    """The type of a model or claim section: a JSON object with a known
    string type and only that type's keys."""
    if not isinstance(cfg, dict) or "type" not in cfg:
        raise BadParameter(f"{where} config must be a JSON object with a 'type', got {cfg!r}")
    kind = cfg["type"]
    if not isinstance(kind, str) or kind not in keys:
        raise BadParameter(f"unknown {where} type {kind!r}")
    _reject_unknown(cfg, keys[kind], where)
    return kind


def build_model(cfg: dict) -> ScenarioTree:
    kind = _section_type(cfg, "model", _MODEL_KEYS)
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


def build_claim(tree: ScenarioTree, cfg: dict) -> np.ndarray:
    kind = _section_type(cfg, "claim", _CLAIM_KEYS)
    with _typed("claim"):
        if kind == "per_leaf":
            return attach_claim(tree, "per_leaf", values=cfg["values"])
        return attach_claim(tree, kind, strike=cfg["strike"])


def endowment(text: str) -> float | str:
    """--v0's argparse type, named in its usage error: 'auto' or a float."""
    return text if text == "auto" else float(text)


def _v0(flag, config: dict) -> float | None:
    """The --v0 flag, else config's v0; None for 'auto' or none, the plan's V0."""
    v0 = flag if flag is not None else config.get("v0")
    return None if v0 in (None, "auto") else number(v0, "v0 must be a finite number or 'auto'")


def _build_tree(config: dict) -> ScenarioTree:
    tree = build_model(config.get("model", {}))
    if violations := validate_tree(tree):
        raise BadParameter("invalid tree: " + "; ".join(violations[:3]))
    return tree


def _setup(config: dict):
    tree = _build_tree(config)
    if "claim" not in config:
        raise BadParameter("config needs a claim")
    claim = build_claim(tree, config["claim"])
    surf = opportunity.compute_opportunity(tree)
    plan = hedging.compute_plan(tree, surf, claim)
    inner = tree.layout.inner   # no command may write a number that overflowed
    finite = np.isfinite(surf.L) & np.isfinite(plan.V)
    finite[inner] &= np.isfinite(np.c_[surf.a_tilde[inner], plan.xi[inner], plan.e[inner]]).all(1)
    DegenerateStep.raise_lowest([np.flatnonzero(~finite)])
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
    tree = _build_tree(config)
    claim = build_claim(tree, config["claim"]) if "claim" in config else None
    path = _write(args.out, "tree.json", serialize_tree(tree, claim) + "\n")
    print(f"wrote {path}: {len(tree.nodes)} nodes, {len(tree.leaves())} leaves")
    return EXIT_OK


def cmd_hedge(args) -> int:
    config = load_config(args.config)
    v0 = _v0(args.v0, config)
    tree, claim, surf, plan = _setup(config)
    v0 = plan.v0 if v0 is None else v0
    report = hedging.hedging_error(tree, surf, plan, v0)
    if not np.isfinite(report.total_error):
        raise DegenerateStep(0)

    d, n_in = tree.num_assets, int(np.searchsorted(tree.time, tree.horizon))  # leaves last
    ids, time, V = range(len(tree.time)), tree.time.tolist(), plan.V.tolist()
    _write(args.out, "hedge_nodes.csv", "id,time,V," + "".join(f"xi_{i}," for i in range(d))
           + "e\n" + _rows("%d,%d,%.17g," + "%.17g," * d + "%.17g\n", ids[:n_in], time[:n_in],
                           V[:n_in], *plan.xi[:n_in].T.tolist(), plan.e[:n_in].tolist())
           + _rows("%d,%d,%.17g" + "," * (d + 1) + "\n", ids[n_in:], time[n_in:], V[n_in:]))

    summary = "\n".join([
        "{",
        f'  "v0": {v0:.17g},',
        f'  "V0": {plan.v0:.17g},',
        f'  "L0": {surf.L[0]:.17g},',
        f'  "total_error": {report.total_error:.17g},',
        f'  "endowment_term": {report.endowment_term:.17g},',
        '  "slice_error": {'
        + ", ".join(f'"{t}": {v:.17g}' for t, v in sorted(report.slice_error.items()))
        + "}",
        "}",
    ])
    path = _write(args.out, "hedge_summary.json", summary + "\n")
    print(f"wrote {path}: v0={v0:.17g} V0={plan.v0:.17g} total_error={report.total_error:.17g}")
    return EXIT_OK


def _rows(template: str, *columns) -> str:
    """template % each row of the columns, as one string."""
    return "".join(template % row for row in zip(*columns))


def _check_line(name: str, node, engine: float, target: float, tol: float) -> bool:
    return _check_lines({name: (engine, target)}, [node], tol)


def _check_lines(checks: dict, nodes, tol: float) -> bool:
    """A CHECK line per node and check, node-major; checks maps each name
    to its (engine, target) pair of per-node arrays or scalars."""
    engine, target = (np.column_stack([np.broadcast_to(pair[j], (len(nodes),))
                                       for pair in checks.values()]) for j in (0, 1))
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, as for Python floats
        rel = np.abs(engine - target) / np.maximum(np.abs(target), 1.0)
    print(_rows("CHECK %s node=%d engine=%.17g oracle=%.17g rel_err=%.3e %s\n",
                list(checks) * len(nodes), np.repeat(nodes, len(checks)).tolist(),
                engine.ravel().tolist(), target.ravel().tolist(), rel.ravel().tolist(),
                np.where(rel <= tol, "PASS", "FAIL").flat), end="")
    return bool(np.all(rel <= tol))


def _worst_line(name: str, ids, engine: np.ndarray, target: np.ndarray, tol: float) -> bool:
    """Check line at the lowest id within 1e-3 tol of the largest difference
    (NaN as inf), so rounding, which moves with the BLAS threads, picks no id."""
    diff = np.nan_to_num(np.abs(engine - target), nan=np.inf, posinf=np.inf)
    i = int(np.flatnonzero(diff >= diff.max() - 1e-3 * tol)[0])
    return _check_line(name, ids[i], engine[i], target[i], tol)


def cmd_verify(args) -> int:
    config = load_config(args.config)
    tol = number(args.tol if args.tol is not None else config.get("tol", 1e-9),
                 "tol must be a finite number >= 0", 0.0)
    if args.summary:
        stored = _load_object(args.summary, "summary")
        with _typed("summary"):
            summary_v0 = _v0(None, stored)
            summary = {key: number(stored[key], f"summary {key} must be a finite number")
                       for key in ("V0", "L0", "total_error")}
    tree, claim, surf, plan = _setup(config)
    mea = opportunity.measures(tree, surf)
    probs = tree.node_probs()
    ok = True

    report = hedging.hedging_error(tree, surf, plan, plan.v0)
    root = oracle.root_factor(tree)
    lsq = oracle.lsq_projection(tree, claim, "free", root)
    scale = max(1.0, float(np.max(np.abs(claim))))   # scale * scale overflows near 1e154
    ok &= _check_line("lsq_v0", 0, plan.v0, lsq.v0_opt, tol)
    ok &= _check_line("lsq_min_error", 0, report.total_error / scale / scale,
                      lsq.min_error / scale / scale, tol)
    _, G = hedging.rollout_strategy(tree, plan.xi, plan.V, surf.a_tilde, plan.v0)
    ok &= _worst_line("value_process", tree.nodes, G / scale, lsq.value_process / scale, tol)

    qp = oracle.martingale_qp(tree, root)
    ok &= _check_line("qp_second_moment", 0, 1.0 / surf.L[0], qp.second_moment, tol)
    leaves = tree.leaves()
    ok &= _worst_line("qp_leaf_density", leaves, mea.z_qstar[leaves], qp.leaf_density, tol)

    node_L = oracle.node_conditional_check(tree, root)
    ok &= _check_lines({"node_L": (surf.L, node_L)}, tree.nodes, tol)

    ok &= _check_lines(opportunity.identities(tree, surf, mea), tree.layout.inner, tol)

    ok &= _check_line("fs_residual", 0,
                      hedging.fs_residual_check(tree, surf, plan) / scale, 0.0, tol)
    submart = float(np.nanmin(surf.m0 - surf.L))
    ok &= _check_line("L_submartingale", 0, min(submart, 0.0), 0.0, tol)
    time_mass = max(abs(sum(probs[ids].tolist()) - 1.0) for ids in tree.layout.slices)
    ok &= _check_line("slice_prob_mass", 0, time_mass, 0.0, 1e-10)

    if args.summary:
        engine = {"V0": plan.v0, "L0": surf.L[0], "total_error": hedging.hedging_error(
            tree, surf, plan, plan.v0 if summary_v0 is None else summary_v0).total_error}
        for key, value in summary.items():
            ok &= _check_line(f"summary_{key}", 0, value, engine[key], tol)
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


def cmd_backtest(args) -> int:
    config = load_config(args.config)
    v0 = _v0(args.v0, config)
    strategies = config.get("strategies", ["mvh", "pure_xi", "gkw"])
    if not isinstance(strategies, list):
        raise BadParameter(f"strategies must be a list, got {strategies!r}")
    repeated = [kind for j, kind in enumerate(strategies) if kind in strategies[:j]]
    if repeated:
        raise BadParameter(f"strategy kind {repeated[0]!r} is repeated")
    exact = config.get("exact", False)
    if not isinstance(exact, bool):
        raise BadParameter(f"exact must be true or false, got {exact!r}")
    exact = args.exact or exact
    seed = args.seed if args.seed is not None else _config_int(config, "seed", 0)
    n_paths = args.paths if args.paths is not None else _config_int(config, "paths", 10000)
    tree, claim, surf, plan = _setup(config)
    v0 = plan.v0 if v0 is None else v0
    paths = None if exact else bt.sample_paths(tree, n_paths, seed)
    reports = [bt.run_strategy(tree, surf, plan, kind, v0, paths=paths) for kind in strategies]
    if not np.isfinite([(r.mean_sq_error, r.std_error, r.analytic_error or 0.0)
                        for r in reports]).all():
        raise DegenerateStep(0)
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
    if args.field not in INSPECT_FIELDS:
        raise BadParameter(f"unknown inspect field {args.field!r}")
    tree, claim, surf, plan = _setup(config)
    field, d, inner = args.field, tree.num_assets, tree.layout.inner
    at = (inner.tolist(), tree.time[inner].tolist())   # the id and time of each inner node
    per_node = {"L": surf.L, "V": plan.V, "sharpe": surf.sharpe}
    if field in per_node:
        print(f"id,time,{field}\n" + _rows("%d,%d,%.17g\n", range(len(tree.time)),
                                           tree.time.tolist(), per_node[field].tolist()), end="")
    elif field == "a":
        head = "".join(f"a_{kind}_{i}," for kind in ("tilde", "hat") for i in range(d))
        print(f"id,time,{head}dAK\n" + _rows("%d,%d" + ",%.17g" * (2 * d + 1) + "\n", *at,
              *surf.a_tilde[inner].T.tolist(), *surf.a_hat[inner].T.tolist(),
              surf.dAK[inner].tolist()), end="")
    elif field == "xi":
        print("id,time," + ",".join(f"xi_{i}" for i in range(d)) + "\n"
              + _rows("%d,%d" + ",%.17g" * d + "\n", *at, *plan.xi[inner].T.tolist()), end="")
    elif field == "mvt":
        mvt = opportunity.mvt_process(tree, surf)
        print("id,time,dK_hat\n" + _rows("%d,%d,%.17g\n", *at, mvt.dK_hat[inner].tolist()), end="")
        det = "true" if mvt.deterministic_mvt else "false"
        pp = "true" if mvt.pstar_is_p else "false"
        print(f"# deterministic_mvt={det} pstar_is_p={pp}")
    else:   # qstar
        print("id,child,qstar_w,pstar_p\n" + _rows(
            "%d,%d,%.17g,%.17g\n", tree.parent[1:].tolist(), range(1, len(tree.time)),
            surf.qstar_w[1:].tolist(), surf.pstar_p[1:].tolist()), end="")
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
    hedge_p.add_argument("--v0", type=endowment, default=None, help=v0_help)

    verify_p = command(sub, "verify", cmd_verify, "cross-check engine against oracles",
                       out=False)
    verify_p.add_argument("--tol", type=float, default=None, help="relative tolerance")
    verify_p.add_argument("--summary", default=None, help="hedge summary JSON to re-verify")

    backtest_p = command(sub, "backtest", cmd_backtest, "Monte Carlo strategy comparison")
    backtest_p.add_argument("--v0", type=endowment, default=None, help=v0_help)
    backtest_p.add_argument("--seed", type=int, default=None)
    backtest_p.add_argument("--paths", type=int, default=None)
    backtest_p.add_argument("--exact", action="store_true")

    inspect_p = command(sub, "inspect", cmd_inspect, "dump per-node fields as CSV", out=False)
    inspect_p.add_argument("--field", required=True, help="one of " + ", ".join(INSPECT_FIELDS))
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        with np.errstate(all="ignore"):   # a non-finite result exits 3, with no warning
            code = args.func(args)
    except (BadParameter, IncompatibleClaim, OSError, KeyError) as exc:
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
    # interpreter exit would otherwise spend most of its time collecting
    # numpy's import-time objects; not in main, which tests call in process
    gc.freeze()
    sys.exit(main())
