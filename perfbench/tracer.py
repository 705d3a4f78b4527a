"""Run one mvhedge CLI command in this process, traced or not.

Usage: python tracer.py STATS_JSON on|off CLI_ARG...

Calls mvhedge.cli.main(CLI_ARGS) and writes STATS_JSON at the end; the
command's stdout passes through and the exit code is main's.  With "off"
the stats hold only the time spent in main.  With "on", every public
function of the layer modules (tree, linalg, opportunity, hedging,
backtest, oracle) is wrapped under each name the CLI and the engine look
it up by.  Each call records a span (name, start, end, parent) in memory;
at the end the spans become per-function call counts, inclusive times
and self times (span time minus the time its child spans cover).  main
itself is the root span, "cli.main".
"""
from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

import mvhedge.cli
from mvhedge import backtest, hedging, linalg, opportunity, oracle, tree

LAYERS = (tree, linalg, opportunity, hedging, backtest, oracle)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.pinv_max_dim = 0
        self.tree = None              # the last tree a builder returned

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        if name == "linalg.pinv_psd":
            def pinv(m, *args, **kwargs):
                self.pinv_max_dim = max(self.pinv_max_dim, len(m))
                return traced(m, *args, **kwargs)
            return pinv
        if name.startswith("tree.build_"):
            def build(*args, **kwargs):
                self.tree = traced(*args, **kwargs)
                return self.tree
            return build
        return traced

    def install(self) -> None:
        """Replace each public layer function, and cli.main, under every
        module attribute of mvhedge that refers to it."""
        wrapped = {}
        for mod in LAYERS:
            layer = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__ \
                        and not attr.startswith("_"):
                    wrapped[id(fn)] = self.wrap(f"{layer}.{attr}", fn)
        wrapped[id(mvhedge.cli.main)] = self.wrap("cli.main", mvhedge.cli.main)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "mvhedge" or mod_name.startswith("mvhedge."):
                for attr, value in list(vars(mod).items()):
                    if id(value) in wrapped:
                        setattr(mod, attr, wrapped[id(value)])

    def stats(self) -> dict:
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        functions: dict[str, dict] = defaultdict(lambda: {"calls": 0, "incl_s": 0.0, "self_s": 0.0})
        for i, (name, start, end, _) in enumerate(self.spans):
            f = functions[name]
            f["calls"] += 1
            f["incl_s"] += end - start
            f["self_s"] += end - start - child[i]
        out = {"functions": dict(functions), "pinv_max_dim": self.pinv_max_dim}
        if self.tree is not None:
            out["nodes"] = len(self.tree.nodes)
            out["leaves"] = len(self.tree.leaves())
        return out


def main(argv: list[str]) -> int:
    stats_path, mode, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer() if mode == "on" else None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter()
    code = mvhedge.cli.main(cli_args)
    sys.stdout.flush()
    stats = {"total_s": time.perf_counter() - start, "exit": code}
    if tracer is not None:
        stats.update(tracer.stats())
    with open(stats_path, "w") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
