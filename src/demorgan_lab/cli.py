"""Command-line front end and batch verification runner.

Inputs may be registry names (case-insensitive), inline rule strings, graph
generator names (K3, C5, point, loop, G2, empty), or @file references to
JSON in the formats the library reads and writes.  Exit status: 0 for a
positive answer, 1 for a negative one, 2 for bad input, 3 for an internal
failure (a self-check of the library failed; the message says which).

Every command needs the formula and matrix modules; each command imports
the other modules it runs in its own body, so a one-shot invocation loads
(and, without a bytecode cache, compiles) only those.  Likewise main builds
the argument parser of the command it runs alone (build_parser).
"""

from __future__ import annotations

import argparse
import itertools
import json
import re
import sys
from typing import TYPE_CHECKING, Optional

from . import matrix
from .formula import ParseError, parse, parse_rule

if TYPE_CHECKING:
    from . import frame, graph

EXIT_TRUE = 0
EXIT_FALSE = 1
EXIT_ERROR = 2
EXIT_INTERNAL = 3


class InputError(ValueError):
    pass


def _read_at(spec: str) -> Optional[str]:
    if spec.startswith("@"):
        try:
            with open(spec[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as e:
            raise InputError(f"cannot read {spec[1:]}: {e}")
    return None


def load_matrix(spec: str) -> matrix.FinMatrix:
    text = _read_at(spec)
    if text is not None:
        return matrix.FinMatrix.from_json(text)
    cat = matrix.catalog()
    key = spec.upper().replace("-", "")
    if key in cat:
        return cat[key]
    from . import logics
    try:
        logic = logics.registry(spec)
    except KeyError:
        raise InputError(
            f"unknown matrix {spec!r}: use one of {', '.join(sorted(cat))}, "
            "a registry logic with a single matrix, or @file.json")
    if len(logic.semantics) != 1:
        raise InputError(f"logic {spec!r} has several matrices; pass @file.json")
    return logic.semantics[0]


def load_graph(spec: str) -> graph.Graph:
    from . import graph
    text = _read_at(spec)
    if text is not None:
        return graph.Graph.from_json(text)
    s = spec.strip().lower()
    if s == "point":
        return graph.point()
    if s == "loop":
        return graph.loop_graph()
    if s == "g2":
        return graph.g2()
    if s == "empty":
        return graph.empty_graph()
    m = re.fullmatch(r"k(\d+)", s)
    if m:
        return graph.complete(int(m.group(1)))
    m = re.fullmatch(r"c(\d+)", s)
    if m:
        return graph.cycle(int(m.group(1)))
    raise InputError(f"unknown graph {spec!r}: use Kn, Cn, point, loop, G2, "
                     "empty, or @file.json")


def load_frame(spec: str) -> frame.Frame:
    from . import frame
    text = _read_at(spec)
    if text is not None:
        return frame.Frame.from_json(text)
    raise InputError("frames are given as @file.json")


def _valuation_text(m: matrix.FinMatrix, v: dict[str, int]) -> str:
    return ", ".join(f"{a}={m.label(v[a])}" for a in sorted(v))


def _emit(args, payload, text_lines: list) -> None:
    """Print payload, a JSON value, as JSON with --json, else the text
    lines; a line that is no string is a JSON value, serialized only here.
    Every command writes its answer here, except `probe --dot`."""
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line if isinstance(line, str) else json.dumps(line))


def cmd_check(args) -> int:
    m = load_matrix(args.matrix)
    r = parse_rule(args.rule)
    if args.mc and len(r.conclusions) <= 1:
        raise InputError("--mc expects a rule with several conclusions")
    witness = matrix.find_countervaluation(m, r)
    valid = witness is None
    payload = {"matrix": args.matrix, "rule": str(r), "valid": valid}
    lines = [f"{'valid' if valid else 'invalid'}: {r}"]
    if witness is not None:
        payload["witness"] = {a: m.label(i) for a, i in witness.items()}
        lines.append(f"witness valuation: {_valuation_text(m, witness)}")
    _emit(args, payload, lines)
    return EXIT_TRUE if valid else EXIT_FALSE


def cmd_antitheorem(args) -> int:
    from . import logics
    logic = logics.registry(args.logic)
    formulas = [parse(t) for t in args.formulas]
    ok = logics.is_antitheorem_of(logic, formulas)
    _emit(args, {"logic": logic.name, "antitheorem": ok},
          [f"{'antitheorem' if ok else 'not an antitheorem'} of {logic.name}"])
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_leibniz(args) -> int:
    m = load_matrix(args.matrix)
    part = matrix.leibniz_congruence(m)
    red = matrix.quotient_by(m, part)
    blocks = [sorted(m.label(i) for i in b) for b in part.block_sets()]
    reduct = red._as_dict()
    _emit(args, {"blocks": blocks, "reduct": reduct},
          [f"blocks: {blocks}", f"reduct has {red.n} elements", reduct])
    return EXIT_TRUE


def cmd_dual(args) -> int:
    from . import frame
    m = load_matrix(args.matrix)
    d = frame.dual_frame(m)._as_dict()
    _emit(args, d, [d])
    return EXIT_TRUE


def cmd_complex(args) -> int:
    from . import frame
    p = load_frame(args.frame)
    d = frame.complex_matrix(p)._as_dict()
    _emit(args, d, [d])
    return EXIT_TRUE


def cmd_mu(args) -> int:
    from . import bridge, graph
    t = bridge.TriplePresentation(
        load_graph(args.plus) if args.plus else graph.empty_graph(),
        load_graph(args.minus) if args.minus else graph.empty_graph(),
        args.k,
    )
    m = bridge.mu_triple(t)
    d = m._as_dict()
    _emit(args, d, [f"matrix with {m.n} elements", d])
    return EXIT_TRUE


def cmd_gamma(args) -> int:
    from . import bridge
    m = bridge.gamma(load_graph(args.graph))
    d = m._as_dict()
    _emit(args, d, [f"matrix with {m.n} elements, flags {sorted(m.flags)}", d])
    return EXIT_TRUE


def cmd_alpha(args) -> int:
    from . import bridge
    r = bridge.alpha_rule(load_graph(args.graph))
    _emit(args, {"rule": str(r)}, [str(r)])
    return EXIT_TRUE


def cmd_classify(args) -> int:
    from . import bridge
    m = load_matrix(args.matrix)
    t = bridge.classify_reduced(m)
    plus, minus = t.plus_graph._as_dict(), t.minus_graph._as_dict()
    payload = {"plus": plus, "minus": minus, "singletons": t.singletons}
    _emit(args, payload, [] if args.json else [  # the graphs' JSON, in text mode only
        f"plus graph: {json.dumps(plus)}",
        f"minus graph: {json.dumps(minus)}",
        f"designated singletons: {t.singletons}",
    ])
    return EXIT_TRUE


def cmd_hom(args) -> int:
    from . import graph
    g, h = load_graph(args.source), load_graph(args.target)
    f = graph.hom_search(g, h)
    if f is None:
        _emit(args, {"homomorphism": None}, ["no homomorphism"])
        return EXIT_FALSE
    named = {g.labels[u]: h.labels[v] for u, v in f.items()}
    _emit(args, {"homomorphism": named}, [f"homomorphism: {named}"])
    return EXIT_TRUE


def cmd_color(args) -> int:
    from . import graph
    g = load_graph(args.graph)
    ok = graph.is_n_colorable(g, args.n)
    _emit(args, {"colorable": ok},
          [f"{'' if ok else 'not '}{args.n}-colorable"])
    return EXIT_TRUE if ok else EXIT_FALSE


def cmd_weakcolor(args) -> int:
    from . import graph
    g = load_graph(args.graph)
    c = graph.weak_n_coloring(g, args.n)
    if c is None:
        _emit(args, {"weak_coloring": None}, [f"no weak {args.n}-coloring"])
        return EXIT_FALSE
    named = {g.labels[u]: col for u, col in c.items()}
    _emit(args, {"weak_coloring": named}, [f"weak coloring: {named}"])
    return EXIT_TRUE


def _parse_relation(text: str):
    if "<=" not in text:
        raise InputError(f"relation {text!r} must look like 'lhs<=rhs'")
    lhs, rhs = text.split("<=", 1)
    return parse(lhs), parse(rhs)


def cmd_free(args) -> int:
    rels = [_parse_relation(t) for t in (args.rel or [])]
    m = matrix.free_dm_algebra(args.gens, rels)
    d = m._as_dict()
    _emit(args, {"size": m.n, "matrix": d}, [f"free algebra has {m.n} elements", d])
    return EXIT_TRUE


def cmd_sstar(args) -> int:
    from . import graph
    reach = graph.s_star_reachable(graph.GraphPair(load_graph(args.graph), args.k), args.steps)
    # by depth, counter, vertex count and the JSON text that text mode prints
    rows = sorted(((d, p.counter, p.graph.n, p.graph.to_json(), p.graph) for p, d in reach.items()),
                  key=lambda row: row[:4])
    payload = {"reachable": [{"depth": d, "counter": c, "graph": g._as_dict()}
                             for d, c, _, _, g in rows]}
    _emit(args, payload, [] if args.json else [
        f"depth {d}: counter={c} graph={text}" for d, c, _, text, _ in rows])
    return EXIT_TRUE


def cmd_logleq(args) -> int:
    from . import logics
    sources = [load_matrix(s) for s in args.source.split(",")]
    target = load_matrix(args.to)
    res = logics.log_leq(sources, target, args.bound)
    _emit(args, {"result": res}, [res])
    return EXIT_TRUE if res == logics.LOG_LEQ_YES else EXIT_FALSE


def cmd_witness_kminus(args) -> int:
    from . import logics
    premises = [parse(t) for t in args.premises]
    concl = parse(args.conclusion)
    w = logics.kminus_witness(premises, concl)
    if w is None:
        _emit(args, {"witness": None}, ["no witness"])
        return EXIT_FALSE
    psi, chif = w
    _emit(args, {"psi": str(psi), "chi": str(chif)},
          [f"psi: {psi}", f"chi: {chif}"])
    return EXIT_TRUE


def cmd_probe(args) -> int:
    from . import logics
    res = logics.probe_lattice()
    if args.dot:
        print(res.to_dot())
    else:
        _emit(args, res._as_dict(), [f"{a} < {b}" for a, b in res.hasse] +
              [f"{a} = {b}" for a, b in res.equivalent])
    return EXIT_TRUE


def cmd_separate(args) -> int:
    from . import logics
    hold = [parse_rule(t) for t in (args.hold or [])]
    fail = [parse_rule(t) for t in (args.fail or [])]
    pool = _matrix_pool(args.pool)
    found = logics.separation_search(hold, fail, pool)
    if found is None:
        _emit(args, {"separating": None}, ["no separating matrix in the pool"])
        return EXIT_FALSE
    d = found._as_dict()
    _emit(args, {"separating": d}, [f"separating matrix with {found.n} elements", d])
    return EXIT_TRUE


# all_graphs(5) lists 543 graphs in about 1.5 s; all_graphs(6) takes minutes
MUPLUS_POOL_GUARD = 5


def _matrix_pool(spec: str):
    s = spec.strip().lower()
    if s == "catalog":
        return list(matrix.catalog().values())
    m = re.fullmatch(r"muplus:(\d+)", s)
    if m:
        from . import bridge, graph
        bound = int(m.group(1))
        if bound > MUPLUS_POOL_GUARD:
            raise InputError(f"muplus pool guard exceeded ({bound} > {MUPLUS_POOL_GUARD})")
        return [bridge.mu_plus(g) for g in graph.all_graphs(bound, allow_isolated=False)]
    raise InputError(f"unknown pool {spec!r}: use 'catalog' or 'muplus:<n>'")


def cmd_verify(args) -> int:
    from . import verify
    only = None
    if args.suite and args.suite != "all":
        try:
            only = [int(x) for x in args.suite.split(",")]
        except ValueError:
            raise InputError("--suite takes 'all' or criterion numbers like '1,4,8'")
    results = verify.run_all(args.seed, only)
    rows = [f"{r.number:2d} {'PASS' if r.passed else 'FAIL'} "
            f"{r.name:<32} {r.seconds:6.1f}s  {r.detail}" for r in results]
    ok = sum(1 for r in results if r.passed)
    _emit(args, [r.__dict__ for r in results], rows + [f"{ok}/{len(results)} criteria passed"])
    return EXIT_TRUE if ok == len(results) else EXIT_FALSE


def _arg(*flags: str, **options) -> tuple[tuple[str, ...], dict]:
    return flags, options


_MATRIX = _arg("--matrix", required=True)
_GRAPH = _arg("--graph", required=True)

# name -> (help, function, arguments), in the order --help lists them
COMMANDS = {
    "check": ("rule validity in a matrix", cmd_check, [
        _MATRIX, _arg("--rule", required=True),
        _arg("--mc", action="store_true", help="insist the rule is multiple-conclusion")]),
    "antitheorem": ("is a formula set never jointly designated", cmd_antitheorem, [
        _arg("--logic", required=True), _arg("--formulas", nargs="+", required=True)]),
    "leibniz": ("Leibniz congruence and reduct", cmd_leibniz, [_MATRIX]),
    "dual": ("dual frame of a matrix", cmd_dual, [_MATRIX]),
    "complex": ("complex matrix of a frame", cmd_complex, [_arg("--frame", required=True)]),
    "mu": ("matrix of a graph-pair presentation", cmd_mu, [
        _arg("--plus"), _arg("--minus"), _arg("--k", type=int, default=0)]),
    "gamma": ("powerset matrix of a graph", cmd_gamma, [_GRAPH]),
    "alpha": ("explosive rule of a graph", cmd_alpha, [_GRAPH]),
    "classify": ("graph presentation of a reduced matrix", cmd_classify, [_MATRIX]),
    "hom": ("graph homomorphism search", cmd_hom, [_arg("source"), _arg("target")]),
    "color": ("n-colorability", cmd_color, [_arg("graph"), _arg("n", type=int)]),
    "weakcolor": ("weak n-coloring search", cmd_weakcolor, [_arg("graph"), _arg("n", type=int)]),
    "free": ("free algebra modulo inequalities", cmd_free, [
        _arg("--gens", nargs="+", required=True), _arg("--rel", nargs="*", default=[])]),
    "sstar": ("pairs reachable by the rewriting steps", cmd_sstar, [
        _GRAPH, _arg("--k", type=int, default=0), _arg("--steps", type=int, default=None)]),
    "logleq": ("is the target a model of the sources' logic", cmd_logleq, [
        _arg("--from", "--source", required=True, dest="source",
             help="comma-separated matrix names"),
        _arg("--to", required=True), _arg("--bound", type=int, default=None)]),
    "witness-kminus": ("consequence witness for the 8-element matrix", cmd_witness_kminus, [
        _arg("--premises", nargs="*", default=[]), _arg("--conclusion", required=True)]),
    "probe": ("inclusion probe over the registry", cmd_probe, [
        _arg("--dot", action="store_true")]),
    "verify": ("run the acceptance suite", cmd_verify, [
        _arg("--suite", default="all"), _arg("--seed", type=int, default=0)]),
    "separate": ("search a pool for a separating matrix", cmd_separate, [
        _arg("--hold", nargs="*", default=[]), _arg("--fail", nargs="*", default=[]),
        _arg("--pool", default="catalog",
             help=f"'catalog' or 'muplus:<n>', n <= {MUPLUS_POOL_GUARD}")]),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every command, or given a command's name, of that one
    alone: each subparser costs a cold run a fraction of a millisecond.
    The one-command parser still names every command in its usage (as the
    metavar), so its messages read as the full parser's wherever main uses
    it."""
    ap = argparse.ArgumentParser(
        prog="demorgan-lab",
        description="Finite-model reasoning for Belnap-Dunn logic and friends",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    if command is None:
        sub = ap.add_subparsers(dest="command", required=True)
    else:
        sub = ap.add_subparsers(dest="command", required=True,
                                metavar="{" + ",".join(COMMANDS) + "}")
    for name in COMMANDS if command is None else [command]:
        help_text, fn, arguments = COMMANDS[name]
        p = sub.add_parser(name, help=help_text)
        for flags, options in arguments:
            p.add_argument(*flags, **options)
        p.set_defaults(fn=fn)
    return ap


def main(argv: Optional[list[str]] = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # a command named right after the global flags gets the one-command
    # parser; anything else (top-level help, no or an unknown command)
    # prints the list of commands and needs them all
    rest = list(itertools.dropwhile("--json".__eq__, argv))
    ap = build_parser(rest[0] if rest and rest[0] in COMMANDS else None)
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return EXIT_ERROR if e.code not in (0, None) else 0
    try:
        return args.fn(args)
    except (InputError, ParseError, KeyError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR
    except RuntimeError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
