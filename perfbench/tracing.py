"""Outside-in layer tracing for the benchmark.

While a `Tracer` is active, each traced public function of demorgan_lab is
replaced by a wrapper that records a span: layer, start, end and the span
that was open when it was called.  Every `demorgan_lab.*` module attribute
bound to the function object is replaced, which also catches call sites
that did `from .x import f`; `FinMatrix.validate` is wrapped on the class.
Spans stay in memory and are turned into per-layer numbers after the run.

The package is single-threaded and has no queues, so no layer has a waiting
time; the numbers are calls, self time (a span's duration minus its child
spans) and the work counts listed in PER_LAYER.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, Optional

from demorgan_lab.matrix import FinMatrix

from workloads import FULL_LAW_LIMIT, MASK_BITS


def _sweep_note(valid: Callable[[object], bool]):
    def note(args, result):
        m, r = args[0], args[1]
        mode = "mask" if 0 <= m.nbits <= MASK_BITS else "table"
        ok = valid(result)
        return mode, ok, m.n ** len(r.atom_names()) if ok else 0
    return note


# layer -> the (module, function) pairs it covers and what each span notes
LAYERS: dict[str, list[tuple[str, str, Optional[Callable]]]] = {
    "formula.parse": [("formula", "parse", None), ("formula", "parse_rule", None)],
    "matrix.validates": [
        ("matrix", "validates", _sweep_note(lambda res: res is True)),
        ("matrix", "find_countervaluation", _sweep_note(lambda res: res is None))],
    "matrix.validate": [("matrix", "FinMatrix.validate", lambda args, res: (
        "exhaustive" if args[0].n <= FULL_LAW_LIMIT else "sampled"))],
    "matrix.product": [("matrix", "product", None)],
    "matrix.leibniz_congruence": [("matrix", "leibniz_congruence",
                                   lambda args, res: (args[0].n, res.n_blocks))],
    "matrix.quotient_by": [("matrix", "quotient_by", None)],
    "matrix.find_isomorphism": [("matrix", "find_isomorphism",
                                 lambda args, res: res is not None)],
    "frame.complex_matrix": [("frame", "complex_matrix", lambda args, res: res.n)],
    "frame.dual_frame": [("frame", "dual_frame", None)],
    "frame.roundtrip_check": [("frame", "roundtrip_check", None)],
    "frame.frame_isomorphic": [("frame", "frame_isomorphic", None)],
    "graph.hom_search": [("graph", "hom_search", None)],
    "bridge.mu_plus": [("bridge", "mu_plus", None)],
    "bridge.mu_triple": [("bridge", "mu_triple", None)],
    "bridge.alpha_rule": [("bridge", "alpha_rule", None)],
    "bridge.classify_reduced": [("bridge", "classify_reduced", None)],
    "logics.kminus_witness": [("logics", "kminus_witness", None)],
    "logics.probe_lattice": [("logics", "probe_lattice", None)],
    "cli.main": [("cli", "main", None)],
}

# Layers whose work a workload does while building its inputs, or while
# checking results; traced runs trace one build and the oracle check too.
SETUP_LAYERS = ["matrix.validate", "matrix.product", "frame.complex_matrix",
                "bridge.mu_plus", "bridge.alpha_rule"]
ORACLE_LAYERS = ["graph.hom_search"]

# Per-layer metrics: per pass of the workload's operations, and per build
# ('setup.') or per oracle check ('oracle.').
PER_LAYER: list[tuple[str, str]] = [
    m for layer in LAYERS for m in ((f"{layer}.calls", "count"), (f"{layer}.s", "s"))
] + [
    m for root, layers in (("setup", SETUP_LAYERS), ("oracle", ORACLE_LAYERS))
    for layer in layers
    for m in ((f"{root}.{layer}.calls", "count"), (f"{root}.{layer}.s", "s"))
] + [
    ("matrix.validates.mask.calls", "count"), ("matrix.validates.mask.s", "s"),
    ("matrix.validates.table.calls", "count"), ("matrix.validates.table.s", "s"),
    ("matrix.validates.invalid_ratio", "ratio"),
    ("matrix.valuations", "count"),
    ("matrix.valuations_per_s.mask", "1/s"), ("matrix.valuations_per_s.table", "1/s"),
    ("matrix.validate.exhaustive.calls", "count"), ("matrix.validate.exhaustive.s", "s"),
    ("matrix.validate.sampled.calls", "count"), ("matrix.validate.sampled.s", "s"),
    ("matrix.leibniz_congruence.elements", "count"),
    ("matrix.leibniz_congruence.blocks_ratio", "ratio"),
    ("matrix.find_isomorphism.found_ratio", "ratio"),
    ("frame.complex_matrix.elements", "count"),
    ("cli.import_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"), ("trace.unattributed_share", "ratio"),
    ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
]

# Which end-to-end metric each layer should move, and on which workload.
MOVES: list[tuple[str, str, tuple[str, ...]]] = [
    ("formula.parse", "op_p50_ms", ("cli-oneshot", "small-checks")),
    ("matrix.validates", "wall_s, op_tail_ms", ("alpha-sweep",)),
    ("matrix.validates", "op_p50_ms", ("small-checks",)),
    ("matrix.validate", "wall_s", ("duality",)),
    ("setup.matrix.validate", "setup_s", ("alpha-sweep", "small-checks", "cli-oneshot")),
    ("matrix.validate", "op_p50_ms", ("cli-oneshot",)),
    ("setup.matrix.product", "setup_s", ("small-checks",)),
    ("matrix.leibniz_congruence", "wall_s, op_tail_ms, peak_rss_mb", ("duality",)),
    ("matrix.quotient_by", "wall_s", ("duality",)),
    ("matrix.find_isomorphism", "wall_s", ("duality",)),
    ("frame.complex_matrix", "wall_s", ("duality",)),
    ("frame.dual_frame", "wall_s", ("duality",)),
    ("frame.roundtrip_check", "wall_s", ("duality",)),
    ("frame.frame_isomorphic", "wall_s", ("duality",)),
    ("oracle.graph.hom_search", "none: the oracle runs outside the timed phase",
     ("alpha-sweep",)),
    ("setup.bridge.mu_plus", "setup_s", ("alpha-sweep",)),
    ("setup.bridge.alpha_rule", "setup_s", ("alpha-sweep",)),
    ("bridge.mu_triple", "wall_s", ("duality",)),
    ("bridge.classify_reduced", "op_p50_ms", ("cli-oneshot",)),
    ("logics.kminus_witness", "wall_s", ("small-checks",)),
    ("logics.probe_lattice", "wall_s", ("small-checks",)),
    ("cli.import_s", "op_p50_ms", ("cli-oneshot",)),
    ("cli.main", "op_p50_ms", ("cli-oneshot",)),
]


class Tracer:
    """Context manager that installs the layer wrappers and keeps spans as
    [layer, start_ns, end_ns, parent index, note] lists.  It can be entered
    again; spans accumulate."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._open = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def span(self, layer: str, fn: Callable, note: Optional[Callable] = None) -> Callable:
        spans, open_ = self.spans, self._open
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [layer, 0, 0, open_[-1], None]
            open_.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                open_.pop()
            if note is not None:
                rec[4] = note(args, result)
            return result
        return traced

    def __enter__(self) -> "Tracer":
        modules = [mod for name, mod in list(sys.modules.items())
                   if name == "demorgan_lab" or name.startswith("demorgan_lab.")]
        for layer, targets in LAYERS.items():
            for modname, attr, note in targets:
                if attr == "FinMatrix.validate":
                    self._set(FinMatrix, "validate",
                              self.span(layer, FinMatrix.__dict__["validate"], note))
                    continue
                orig = getattr(importlib.import_module(f"demorgan_lab.{modname}"), attr)
                wrapper = self.span(layer, orig, note)
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is orig:
                            self._set(mod, name, wrapper)
        return self

    def _set(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def __exit__(self, *exc) -> None:
        for owner, name, value in reversed(self._undo):
            setattr(owner, name, value)
        self._undo.clear()


def layer_metrics(spans: list[list], scale: float, passes: int,
                  traced_wall_s: float, untraced_wall_s: float) -> dict[str, float]:
    """PER_LAYER values from the spans.  A root span is the benchmark's own:
    'op' (one operation of the `passes` traced passes), 'setup' (one build)
    or 'oracle' (one result check).  Layer times are multiplied by `scale`,
    the traced phase's median reference scaling; the wall times are scaled
    already.  Time in an 'op' span outside any layer span is reported as
    unattributed."""
    child_ns = [0] * len(spans)
    root: list[str] = []
    for layer, start, end, parent, _ in spans:
        root.append(layer if parent < 0 else root[parent])
        if parent >= 0:
            child_ns[parent] += end - start
    out = {name: 0.0 for name, _ in PER_LAYER}
    ops_ns = unattributed_ns = 0
    valuations = {"mask": [0, 0], "table": [0, 0]}  # [valuations, ns] of valid sweeps
    invalid = leibniz_n = leibniz_blocks = found = 0
    for i, (layer, start, end, parent, note) in enumerate(spans):
        self_ns = end - start - child_ns[i]
        if parent < 0:
            if layer == "op":
                ops_ns += end - start
                unattributed_ns += self_ns
            continue
        if root[i] != "op":
            name = f"{root[i]}.{layer}"
            if f"{name}.s" in out:
                out[f"{name}.calls"] += 1
                out[f"{name}.s"] += self_ns
            continue
        out[f"{layer}.calls"] += 1
        out[f"{layer}.s"] += self_ns
        if note is None:  # no extras, or the call raised
            continue
        if layer == "matrix.validates":
            mode, ok, count = note
            out[f"matrix.validates.{mode}.calls"] += 1
            out[f"matrix.validates.{mode}.s"] += self_ns
            if ok:
                valuations[mode][0] += count
                valuations[mode][1] += self_ns
            else:
                invalid += 1
        elif layer == "matrix.validate":
            out[f"matrix.validate.{note}.calls"] += 1
            out[f"matrix.validate.{note}.s"] += self_ns
        elif layer == "matrix.leibniz_congruence":
            leibniz_n += note[0]
            leibniz_blocks += note[1]
        elif layer == "matrix.find_isomorphism":
            found += note
        elif layer == "frame.complex_matrix":
            out["frame.complex_matrix.elements"] += note
    for name, unit in PER_LAYER:
        if unit == "s" and name.endswith(".s"):
            out[name] *= scale / 1e9
    calls = out["matrix.validates.calls"]
    out["matrix.validates.invalid_ratio"] = invalid / calls if calls else 0.0
    out["matrix.valuations"] = valuations["mask"][0] + valuations["table"][0]
    for mode, (count, ns) in valuations.items():
        out[f"matrix.valuations_per_s.{mode}"] = count / (ns * scale / 1e9) if ns else 0.0
    out["matrix.leibniz_congruence.elements"] = leibniz_n
    out["matrix.leibniz_congruence.blocks_ratio"] = leibniz_blocks / leibniz_n if leibniz_n else 0.0
    iso_calls = out["matrix.find_isomorphism.calls"]
    out["matrix.find_isomorphism.found_ratio"] = found / iso_calls if iso_calls else 0.0
    # counts and times of the operations are per pass; rates, ratios and
    # the set-up and oracle figures are not
    for name, unit in PER_LAYER:
        if unit in ("s", "count") and not name.startswith(
                ("trace.", "cli.import_s", "setup.", "oracle.")):
            out[name] /= passes
    out["trace.wall_s"] = traced_wall_s
    out["trace.unattributed_s"] = unattributed_ns * scale / 1e9 / passes
    out["trace.unattributed_share"] = unattributed_ns / ops_ns if ops_ns else 0.0
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall_s
    out["trace.overhead_share"] = out["trace.overhead_s"] / untraced_wall_s
    return out
