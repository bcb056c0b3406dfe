"""Command-line front end and batch verification runner.

Inputs may be registry names (case-insensitive), inline rule strings, graph
generator names (K3, C5, point, loop, G2, empty), or @file references to
JSON in the formats the library reads and writes.  Exit status: 0 for a
positive answer, 1 for a negative one, 2 for bad input, 3 for an internal
failure (a self-check of the library failed; the message says which).

Every command needs the formula and matrix modules; each command imports
the other modules it runs in its own body, so a one-shot invocation loads
(and, without a bytecode cache, compiles) only those.
"""

from __future__ import annotations

import argparse
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


def _emit(args, payload: dict, text_lines: list[str]) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload))
    else:
        for line in text_lines:
            print(line)


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
    _emit(args, {"blocks": blocks, "reduct": json.loads(red.to_json())},
          [f"blocks: {blocks}", f"reduct has {red.n} elements",
           red.to_json()])
    return EXIT_TRUE


def cmd_dual(args) -> int:
    from . import frame
    m = load_matrix(args.matrix)
    p = frame.dual_frame(m)
    _emit(args, json.loads(p.to_json()), [p.to_json()])
    return EXIT_TRUE


def cmd_complex(args) -> int:
    from . import frame
    p = load_frame(args.frame)
    m = frame.complex_matrix(p)
    _emit(args, json.loads(m.to_json()), [m.to_json()])
    return EXIT_TRUE


def cmd_mu(args) -> int:
    from . import bridge, graph
    t = bridge.TriplePresentation(
        load_graph(args.plus) if args.plus else graph.empty_graph(),
        load_graph(args.minus) if args.minus else graph.empty_graph(),
        args.k,
    )
    m = bridge.mu_triple(t)
    _emit(args, json.loads(m.to_json()),
          [f"matrix with {m.n} elements", m.to_json()])
    return EXIT_TRUE


def cmd_gamma(args) -> int:
    from . import bridge
    m = bridge.gamma(load_graph(args.graph))
    _emit(args, json.loads(m.to_json()),
          [f"matrix with {m.n} elements, flags {sorted(m.flags)}", m.to_json()])
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
    payload = {
        "plus": json.loads(t.plus_graph.to_json()),
        "minus": json.loads(t.minus_graph.to_json()),
        "singletons": t.singletons,
    }
    _emit(args, payload, [
        f"plus graph: {t.plus_graph.to_json()}",
        f"minus graph: {t.minus_graph.to_json()}",
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
    _emit(args, {"size": m.n, "matrix": json.loads(m.to_json())},
          [f"free algebra has {m.n} elements", m.to_json()])
    return EXIT_TRUE


def cmd_sstar(args) -> int:
    from . import graph
    start = graph.GraphPair(load_graph(args.graph), args.k)
    seen = {start.key(): (start, 0)}
    frontier = [start]
    depth = 0
    while frontier and (args.steps is None or depth < args.steps):
        depth += 1
        nxt = []
        for p in frontier:
            for q in graph.s_star_step(p):
                if q.key() not in seen:
                    seen[q.key()] = (q, depth)
                    nxt.append(q)
        frontier = nxt
    rows = sorted(
        (d, p.counter, p.graph.n, p.graph.to_json())
        for p, d in seen.values()
    )
    payload = {"reachable": [
        {"depth": d, "counter": c, "graph": json.loads(gj)}
        for d, c, _, gj in rows
    ]}
    _emit(args, payload,
          [f"depth {d}: counter={c} graph={gj}" for d, c, _, gj in rows])
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
    elif args.json:
        print(res.to_json())
    else:
        for a, b in res.hasse:
            print(f"{a} < {b}")
        for a, b in res.equivalent:
            print(f"{a} = {b}")
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
    _emit(args, {"separating": json.loads(found.to_json())},
          [f"separating matrix with {found.n} elements", found.to_json()])
    return EXIT_TRUE


def _matrix_pool(spec: str):
    s = spec.strip().lower()
    if s == "catalog":
        return list(matrix.catalog().values())
    m = re.fullmatch(r"muplus:(\d+)", s)
    if m:
        from . import bridge, graph
        bound = int(m.group(1))
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
    rows = []
    for r in results:
        rows.append(f"{r.number:2d} {'PASS' if r.passed else 'FAIL'} "
                    f"{r.name:<32} {r.seconds:6.1f}s  {r.detail}")
    if args.json:
        print(json.dumps([r.__dict__ for r in results]))
    else:
        for row in rows:
            print(row)
        ok = sum(1 for r in results if r.passed)
        print(f"{ok}/{len(results)} criteria passed")
    return EXIT_TRUE if all(r.passed for r in results) else EXIT_FALSE


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="demorgan-lab",
        description="Finite-model reasoning for Belnap-Dunn logic and friends",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="rule validity in a matrix")
    p.add_argument("--matrix", required=True)
    p.add_argument("--rule", required=True)
    p.add_argument("--mc", action="store_true",
                   help="insist the rule is multiple-conclusion")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("antitheorem", help="is a formula set never jointly designated")
    p.add_argument("--logic", required=True)
    p.add_argument("--formulas", nargs="+", required=True)
    p.set_defaults(fn=cmd_antitheorem)

    p = sub.add_parser("leibniz", help="Leibniz congruence and reduct")
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_leibniz)

    p = sub.add_parser("dual", help="dual frame of a matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_dual)

    p = sub.add_parser("complex", help="complex matrix of a frame")
    p.add_argument("--frame", required=True)
    p.set_defaults(fn=cmd_complex)

    p = sub.add_parser("mu", help="matrix of a graph-pair presentation")
    p.add_argument("--plus")
    p.add_argument("--minus")
    p.add_argument("--k", type=int, default=0)
    p.set_defaults(fn=cmd_mu)

    p = sub.add_parser("gamma", help="powerset matrix of a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_gamma)

    p = sub.add_parser("alpha", help="explosive rule of a graph")
    p.add_argument("--graph", required=True)
    p.set_defaults(fn=cmd_alpha)

    p = sub.add_parser("classify", help="graph presentation of a reduced matrix")
    p.add_argument("--matrix", required=True)
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("hom", help="graph homomorphism search")
    p.add_argument("source")
    p.add_argument("target")
    p.set_defaults(fn=cmd_hom)

    p = sub.add_parser("color", help="n-colorability")
    p.add_argument("graph")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_color)

    p = sub.add_parser("weakcolor", help="weak n-coloring search")
    p.add_argument("graph")
    p.add_argument("n", type=int)
    p.set_defaults(fn=cmd_weakcolor)

    p = sub.add_parser("free", help="free algebra modulo inequalities")
    p.add_argument("--gens", nargs="+", required=True)
    p.add_argument("--rel", nargs="*", default=[])
    p.set_defaults(fn=cmd_free)

    p = sub.add_parser("sstar", help="pairs reachable by the rewriting steps")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, default=0)
    p.add_argument("--steps", type=int, default=None)
    p.set_defaults(fn=cmd_sstar)

    p = sub.add_parser("logleq", help="is the target a model of the sources' logic")
    p.add_argument("--from", "--source", required=True, dest="source",
                   help="comma-separated matrix names")
    p.add_argument("--to", required=True)
    p.add_argument("--bound", type=int, default=None)
    p.set_defaults(fn=cmd_logleq)

    p = sub.add_parser("witness-kminus", help="consequence witness for the 8-element matrix")
    p.add_argument("--premises", nargs="*", default=[])
    p.add_argument("--conclusion", required=True)
    p.set_defaults(fn=cmd_witness_kminus)

    p = sub.add_parser("probe", help="inclusion probe over the registry")
    p.add_argument("--dot", action="store_true")
    p.set_defaults(fn=cmd_probe)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("separate", help="search a pool for a separating matrix")
    p.add_argument("--hold", nargs="*", default=[])
    p.add_argument("--fail", nargs="*", default=[])
    p.add_argument("--pool", default="catalog")
    p.set_defaults(fn=cmd_separate)

    return ap


def main(argv: Optional[list[str]] = None) -> int:
    ap = build_parser()
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
