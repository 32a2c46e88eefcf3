"""Span recorder for the traced pass, attached to qdilemma from outside.

Each traced function is replaced by a wrapper in every module namespace (and
dispatch table) where its callers look it up, so calls made inside the
library are seen as well as the benchmark's own.  Spans are kept in memory
and written out after the pass; nothing is recorded when no recorder is
installed.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

from qdilemma import cli, datasets, equilibrium, game, nmr, tomography


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "child", "data")

    def __init__(self, name, parent, op):
        self.name = name
        self.parent = parent
        self.op = op
        self.child = 0.0  # time covered by direct child spans
        self.data = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


# Hooks record what a call did, read from its arguments and result.

def _grid(args, kwargs, result):
    grid = _arg(args, kwargs, 1, "grid", equilibrium.DEFAULT_GRID)
    return {"grid": (grid.theta_steps, grid.phi_steps)}


def _pairs(args, kwargs, result):
    return {"pairs": int(result.size)}


def _compiled(args, kwargs, result):
    return {"prims": len(result.primitives)}


def _experiment(args, kwargs, result):
    seq = _arg(args, kwargs, 1, "strategy_seq")
    noise = _arg(args, kwargs, 3, "noise")
    return {
        "given_prims": len(seq.primitives) if seq is not None else 0,
        "noisy": noise is not None and not noise.is_noiseless,
        "t2": bool(_arg(args, kwargs, 5, "apply_t2", False)),
    }


def _settings(args, kwargs, result):
    return {"settings": len(result)}


def _projected(args, kwargs, result):
    return {"projected": result.projected}


def _rendered(args, kwargs, result):
    ds = args[0]
    return {"values": sum(len(v) for v in ds.columns.values()), "bytes": len(result)}


def _main(args, kwargs, result):
    argv = _arg(args, kwargs, 0, "argv") or []
    return {"replay": "--replay" in argv, "rc": result}


def _built(args, kwargs, result):
    return {"kind": result.kind, "gammas": len(args[0].get("gammas", ()))}


# (span name, defining module, attribute, modules whose globals look it up, hook)
TARGETS = (
    ("equilibrium.pairwise_payoff_matrix", equilibrium, "pairwise_payoff_matrix",
     (equilibrium,), _pairs),
    ("equilibrium.find_nash_grid", equilibrium, "find_nash_grid", (equilibrium, cli), _grid),
    ("equilibrium.landscape", equilibrium, "landscape", (equilibrium, cli), None),
    ("equilibrium.classify_regime", equilibrium, "classify_regime", (equilibrium, nmr), None),
    ("nmr.compile", nmr, "compile_entangler", (nmr, cli), _compiled),
    ("nmr.compile", nmr, "compile_disentangler", (nmr, cli), _compiled),
    ("nmr.compile", nmr, "compile_strategies", (nmr, cli), _compiled),
    ("nmr.run_experiment", nmr, "run_experiment", (nmr, cli), _experiment),
    ("tomography.tomography_records", tomography, "tomography_records", (tomography, cli),
     _settings),
    ("tomography.reconstruct", tomography, "reconstruct", (tomography, cli), _projected),
    ("datasets.render", datasets, "render", (datasets, cli), _rendered),
    ("datasets.read_metadata", datasets, "read_metadata", (datasets, cli), None),
    ("cli.main", cli, "main", (cli,), _main),
    ("cli.build_dataset", cli, "build_landscape_dataset", (cli,), _built),
    ("cli.build_dataset", cli, "build_sweep_dataset", (cli,), _built),
    ("cli.build_dataset", cli, "build_equilibria_dataset", (cli,), _built),
    ("cli.build_dataset", cli, "build_thresholds_dataset", (cli,), _built),
    # play is called only by the nash_scan oracle; it is timed for the
    # baseline table and reported in no per-layer metric.
    ("game.play", game, "play", (game,), None),
)


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.op = None

    def wrap(self, name, fn, hook=None):
        stack, spans = self.stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, stack[-1] if stack else None, self.op)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
                if span.parent is not None:
                    span.parent.child += span.end - span.start
                spans.append(span)
            if hook is not None:
                span.data = hook(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Rebind every target at its lookup sites; restore them on exit."""
        undo = []
        try:
            for name, module, attr, sites, hook in TARGETS:
                original = getattr(module, attr)
                wrapper = self.wrap(name, original, hook)
                for site in sites:
                    undo.append((site.__dict__, attr, site.__dict__[attr]))
                    site.__dict__[attr] = wrapper
                for key, fn in list(cli._BUILDERS.items()):  # replay dispatch table
                    if fn is original:
                        undo.append((cli._BUILDERS, key, fn))
                        cli._BUILDERS[key] = wrapper
            yield self
        finally:
            for table, key, fn in reversed(undo):
                table[key] = fn

    def write(self, path) -> None:
        index = {id(s): i for i, s in enumerate(self.spans)}
        t0 = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "name": s.name, "start": s.start - t0, "end": s.end - t0,
                    "parent": index.get(id(s.parent)), "op": s.op,
                }) + "\n")


SELF_TIMES = (
    "equilibrium.pairwise_payoff_matrix",
    "equilibrium.find_nash_grid",
    "equilibrium.landscape",
    "nmr.compile",
    "nmr.run_experiment",
    "tomography.tomography_records",
    "tomography.reconstruct",
    "datasets.render",
    "datasets.read_metadata",
    "cli.main",
    "cli.build_dataset",
)

# name, unit, better: the per-layer metrics, in the order they are printed.
PER_LAYER = (
    *((f"{n}.self_s", "s", "lower") for n in SELF_TIMES),
    ("unattributed.self_s", "s", "lower"),
    ("equilibrium.pairs_evaluated", "count", "lower"),
    ("equilibrium.payoff_matrix_bytes", "B-computed", "lower"),
    ("equilibrium.nash_mask_bytes", "B-computed", "lower"),
    ("equilibrium.classify_regime.calls", "count", "lower"),
    ("nmr.primitives_applied", "count", "lower"),
    ("tomography.settings_read", "count", "lower"),
    ("tomography.projected_ratio", "ratio", "lower"),
    ("datasets.values_formatted", "count", "lower"),
    ("datasets.bytes_rendered", "B", "lower"),
    ("cli.replay_ok_ratio", "ratio", "higher"),
    ("trace.throughput_ratio", "ratio", "higher"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span], n_ops: int) -> dict[str, float]:
    """Per-op self times and counts from one traced pass of n_ops ops.

    Self times and counts are divided by n_ops; ratios are over the pass.
    The op span ("op") wraps one call into the library; its self time is
    what no traced layer covers.
    """
    self_s = dict.fromkeys(SELF_TIMES, 0.0)
    self_s["op"] = 0.0
    counts = dict.fromkeys(("pairs", "masks", "regimes", "prims", "settings",
                            "recon", "projected", "values", "bytes", "replays",
                            "replays_ok"), 0)
    for s in spans:
        if s.name in self_s:
            self_s[s.name] += s.self_time
        if s.name == "equilibrium.classify_regime":
            counts["regimes"] += 1
        d = s.data
        if d is None:  # no hook, or the call raised
            continue
        if s.name == "equilibrium.pairwise_payoff_matrix":
            counts["pairs"] += d["pairs"]
            if s.parent is not None and s.parent.name == "equilibrium.find_nash_grid":
                counts["masks"] += 2 * d["pairs"]
        elif s.name == "nmr.run_experiment":
            counts["prims"] += d["given_prims"]
        elif s.name == "nmr.compile" and s.parent is not None \
                and s.parent.name == "nmr.run_experiment":
            counts["prims"] += d["prims"]
        elif s.name == "tomography.tomography_records":
            counts["settings"] += d["settings"]
        elif s.name == "tomography.reconstruct":
            counts["recon"] += 1
            counts["projected"] += d["projected"]
        elif s.name == "datasets.render":
            counts["values"] += d["values"]
            counts["bytes"] += d["bytes"]
        elif s.name == "cli.main" and d["replay"]:
            counts["replays"] += 1
            counts["replays_ok"] += d["rc"] == 0
    per_op = {f"{n}.self_s": self_s[n] / n_ops for n in SELF_TIMES}
    per_op["unattributed.self_s"] = self_s["op"] / n_ops
    per_op.update({
        "equilibrium.pairs_evaluated": counts["pairs"] / n_ops,
        "equilibrium.payoff_matrix_bytes": 8 * counts["pairs"] / n_ops,
        "equilibrium.nash_mask_bytes": counts["masks"] / n_ops,
        "equilibrium.classify_regime.calls": counts["regimes"] / n_ops,
        "nmr.primitives_applied": counts["prims"] / n_ops,
        "tomography.settings_read": counts["settings"] / n_ops,
        "tomography.projected_ratio": _ratio(counts["projected"], counts["recon"]),
        "datasets.values_formatted": counts["values"] / n_ops,
        "datasets.bytes_rendered": counts["bytes"] / n_ops,
        "cli.replay_ok_ratio": _ratio(counts["replays_ok"], counts["replays"]),
    })
    return per_op


# Rows of the baseline table in ROADMAP.md: which spans each one times.
BASELINE_ROWS = (
    ("pairwise_payoff_matrix (1861 strategies)", "equilibrium.pairwise_payoff_matrix",
     lambda d: d["pairs"] == 1861 * 1861),
    ("find_nash_grid (61x31)", "equilibrium.find_nash_grid", lambda d: d["grid"] == (61, 31)),
    ("play", "game.play", None),
    ("run_experiment", "nmr.run_experiment", lambda d: not d["noisy"] and not d["t2"]),
    ("run_experiment with noise and T2", "nmr.run_experiment",
     lambda d: d["noisy"] and d["t2"]),
    ("tomography_records", "tomography.tomography_records", None),
    ("reconstruct", "tomography.reconstruct", None),
    ("19-row sweep dataset", "cli.build_dataset",
     lambda d: d["kind"] == "sweep_comparison" and d["gammas"] == 19),
)


def baseline_rows(spans: list[Span]) -> list[tuple[str, float, int]]:
    """(row, median inclusive seconds per call, calls) for each row seen."""
    rows = []
    for label, name, keep in BASELINE_ROWS:
        times = [s.duration for s in spans if s.name == name
                 and (keep is None or (s.data is not None and keep(s.data)))]
        if times:
            rows.append((label, statistics.median(times), len(times)))
    return rows
