"""Record the command line's answers as golden data.

    PYTHONPATH=src python tests/golden/make_golden.py [OUT_DIR]

writes the @file inputs below, golden.json and witnesses.json to OUT_DIR
(default: the directory of this script).  golden.json holds, for every
command of commands() without and with --json (argvs()), its stdout,
stderr and exit status, run from OUT_DIR so that "@name.json" reads the
inputs written there.  witnesses.json holds, for every (matrix, pool) of
witness_cases(), the witness of find_countervaluation for each rule of the
pool: a SHA-256 over them in order, or the witnesses themselves for the
named rules.  tests/test_golden.py replays the commands and the sweeps
against them, and checks that argvs(), witness_cases() and inputs() still
match the data; the test suite does not run this script.  Regenerating the data changes what the tests expect,
so a change that does must name the entries that changed and why.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import os
import random
import sys
from typing import Callable

from demorgan_lab import cli, logics
from demorgan_lab.bridge import alpha_rule, mu_plus
from demorgan_lab.frame import complex_matrix, random_frame
from demorgan_lab.graph import all_graphs
from demorgan_lab.matrix import bd4, catalog, cl2, etl4, find_countervaluation, k3, product

# named rules checked on every catalog matrix
RULES = (logics.ds_rule, logics.em_rule, logics.resolution_rule, logics.ecq_rule,
         logics.ko_rule)


def chain_json(n: int, designated_from: int) -> str:
    """An n-element De Morgan chain from its tables: n - 1 mask bits."""
    return json.dumps({
        "elements": [f"c{i}" for i in range(n)],
        "meet": [[min(x, y) for y in range(n)] for x in range(n)],
        "join": [[max(x, y) for y in range(n)] for x in range(n)],
        "neg": [n - 1 - x for x in range(n)],
        "top": n - 1, "bottom": 0,
        "designated": list(range(designated_from, n)),
        "flags": ["demorgan"],
    })


def petersen_json() -> str:
    """The Petersen graph: 3-colourable, not 2-colourable, no triangle."""
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return json.dumps({"vertices": [f"v{i}" for i in range(10)],
                       "edges": [[f"v{u}", f"v{v}"] for u, v in edges]})


def inputs() -> dict[str, str]:
    """The @file inputs, by file name."""
    p = random_frame(random.Random(5), 5)
    return {
        "complex5.json": complex_matrix(p).to_json(),
        "frame5.json": p.to_json(),
        # a matrix lacking keys
        "malformed.json": json.dumps({"elements": ["bot", "top"], "meet": [[0, 0], [0, 1]],
                                      "neg": [1, 0]}),
        "chain66.json": chain_json(66, 40),
        "petersen.json": petersen_json(),
    }


def commands() -> list[list[str]]:
    out = [[cmd, "--matrix", name] for cmd in ("leibniz", "dual", "classify")
           for name in catalog()]
    out += [
        ["complex", "--frame", "@frame5.json"],
        ["mu", "--plus", "K2"],
        ["mu", "--plus", "point", "--minus", "point", "--k", "1"],
        ["gamma", "--graph", "K3"],
        ["gamma", "--graph", "loop"],
        ["free", "--gens", "a"],
        ["free", "--gens", "a", "b", "--rel", "a<=~a", "b<=~b"],
    ]
    out += [[cmd, "--matrix", f"@{name}.json"] for cmd in ("leibniz", "dual")
            for name in ("complex5", "malformed", "chain66")]
    out += [["check", "--matrix", name, "--rule", str(rule())]
            for rule in RULES for name in catalog()]
    out += [
        ["check", "--matrix", "@complex5.json", "--rule", "p & ~p |- q | ~q"],
        ["check", "--matrix", "@complex5.json", "--rule", "p |- p & q"],
        # 8^5 valuations: the numpy block sweep, past its first block
        ["check", "--matrix", "KMINUS8", "--rule", "p & ~q, q | r, ~r | s |- s & t | ~p"],
        ["check", "--matrix", "KMINUS8", "--rule", "p | q, ~q | r, ~r | s, ~s | t |- p | t"],
        # 66^2 valuations on 65-bit masks: the sweep over object arrays
        ["check", "--matrix", "@chain66.json", "--rule", "p |- q | ~q"],
        ["check", "--matrix", "@chain66.json", "--rule", "p, ~p | q |- q"],
        ["check", "--matrix", "K3", "--rule", "p |- (q"],  # does not parse
    ]
    # graph searches: maps found by backtracking, and exhausted searches
    out += [["hom", g, h] for g, h in (
        ("C5", "K3"), ("K3", "C5"), ("C7", "C5"), ("C5", "C7"), ("C6", "K2"),
        ("G2", "loop"), ("loop", "K3"), ("@petersen.json", "K3"), ("@petersen.json", "C5"))]
    out += [[cmd, g, n] for cmd in ("color", "weakcolor")
            for g, n in (("C5", "2"), ("C5", "3"), ("K4", "3"), ("@petersen.json", "2"),
                         ("@petersen.json", "3"), ("C7", "0"))]
    out += [["alpha", "--graph", g] for g in ("K3", "C5", "loop", "G2")]
    out += [
        ["antitheorem", "--logic", "K", "--formulas", "p", "~p"],
        ["antitheorem", "--logic", "BD", "--formulas", "p & ~p"],
        ["witness-kminus", "--premises", "p & ~p | q", "~q | r", "--conclusion", "r"],
        ["witness-kminus", "--premises", "p", "--conclusion", "q"],
        ["witness-kminus", "--premises", "p | q | r", "--conclusion", "p | q | r | s"],
        ["witness-kminus", "--premises", "F", "--conclusion", "q"],  # inconsistent
        ["witness-kminus", "--premises", "p", "--conclusion", "T"],
        ["witness-kminus", "--premises", "p", "--conclusion", "F"],
        # nine DNF clauses of the premises: past logics.KMINUS_CLAUSE_GUARD
        ["witness-kminus", "--premises", " | ".join(f"p{i}" for i in range(9)),
         "--conclusion", "q"],
        ["sstar", "--graph", "K2", "--steps", "1"],
        ["sstar", "--graph", "G2", "--k", "1"],
        ["sstar", "--graph", "K2"],
        ["sstar", "--graph", "loop", "--k", "2"],
        ["sstar", "--graph", "C4", "--k", "1", "--steps", "2"],
        ["sstar", "--graph", "C5", "--steps", "1"],  # a 5-vertex graph's images
        ["sstar", "--graph", "@petersen.json"],  # ten vertices: past homomorphic_images' guard
        ["logleq", "--from", "K3", "--to", "BD4", "--bound", "2"],
        ["logleq", "--from", "BD4", "--to", "K3", "--bound", "1"],
        ["logleq", "--from", "K3,LP3", "--to", "CL2", "--bound", "1"],
        ["logleq", "--from", "K3", "--to", "BD4", "--bound", "4"],
        ["logleq", "--from", "KMINUS8", "--to", "BD4", "--bound", "2"],
        # "yes" only at power 2, after the frames of power 1 are visited
        ["logleq", "--from", "ETL4,K3", "--to", "KMINUS8", "--bound", "2"],
        ["separate", "--hold", "p, ~p | q |- q", "--fail", "|- p | ~p"],
        ["separate", "--hold", "|- p | ~p", "--fail", "p |- p"],
        # alpha(K2) holds in mu+ of the loop, the one graph of muplus:1, and
        # fails in mu+(K2), the second graph of muplus:2
        ["separate", "--fail", "pv0 & ~pv0 | pv1 & ~pv1 |-", "--pool", "muplus:1"],
        ["separate", "--fail", "pv0 & ~pv0 | pv1 & ~pv1 |-", "--pool", "muplus:2"],
        ["probe"],
        ["probe", "--dot"],  # --dot wins over --json
        # nested past formula.MAX_DEPTH: a parse error
        ["check", "--matrix", "BD4", "--rule", "~" * 257 + "p |- p"],
    ]
    return out


def argvs() -> list[list[str]]:
    """The argv of every golden entry, in order: each command without and
    with --json."""
    return [mode + argv for argv in commands() for mode in ([], ["--json"])]


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return {"argv": argv, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def witness_cases() -> list[tuple[str, str, Callable, Callable]]:
    """(matrix name, pool name, matrix, rules) per witnesses.json entry, in
    order; the matrix and the rules are built when called.  mu+(h) against
    the alpha rule of every graph of all_graphs(4, allow_isolated=False),
    one entry per h; the catalog and four products against clause_pool and
    mc_pool; the named rules on the catalog."""
    graphs = all_graphs(4, allow_isolated=False)
    alphas = functools.cache(lambda: [alpha_rule(g) for g in graphs])
    out = [(f"mu+({' '.join(f'{u}{v}' for u, v in h.edges())} n={h.n})", "alpha",
            functools.partial(mu_plus, h), alphas) for h in graphs]
    mats = {name: (lambda m=m: m) for name, m in catalog().items()}
    mats |= {"BD4^2": lambda: product([bd4(), bd4()]),
             "ETL4xBD4": lambda: product([etl4(), bd4()]),
             "CL2xBD4": lambda: product([cl2(), bd4()]),
             "BD4xETL4xK3": lambda: product([bd4(), etl4(), k3()])}
    pools = {"clause_pool": functools.cache(logics.clause_pool),
             "mc_pool": functools.cache(logics.mc_pool)}
    out += [(name, pool, m, rules) for name, m in mats.items() for pool, rules in pools.items()]
    named = functools.cache(lambda: list(logics.named_rules().values()))
    out += [(name, "named", (lambda m=m: m), named)
            for name, m in catalog().items()]
    return out


def witness_entry(case: tuple[str, str, Callable, Callable]) -> dict:
    """The witnesses.json entry of one witness_cases() case."""
    name, pool, m, rules = case
    m = m()
    found = [find_countervaluation(m, r) for r in rules()]
    entry = {"matrix": name, "pool": pool, "rules": len(found)}
    if pool == "named":
        entry["witnesses"] = dict(zip(logics.named_rules(), found))
    else:
        digest = hashlib.sha256()
        for w in found:
            digest.update(json.dumps(w, sort_keys=True).encode() + b"\n")
        entry["sha256"] = digest.hexdigest()
    return entry


def main(out_dir: str) -> None:
    for name, text in inputs().items():
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    os.chdir(out_dir)
    entries = [run(argv) for argv in argvs()]
    with open("golden.json", "w", encoding="utf-8") as fh:
        json.dump(entries, fh, indent=0)
        fh.write("\n")
    with open("witnesses.json", "w", encoding="utf-8") as fh:
        json.dump([witness_entry(case) for case in witness_cases()], fh, indent=0)
        fh.write("\n")


if __name__ == "__main__":
    main(os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(__file__)))
