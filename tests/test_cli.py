import importlib
import json
import os
import re
import subprocess
import sys

import pytest

import demorgan_lab
from demorgan_lab import cli
from demorgan_lab.cli import COMMANDS, build_parser, main
from demorgan_lab.bridge import TriplePresentation, mu_triple
from demorgan_lab.formula import MAX_DEPTH, parse_rule
from demorgan_lab.graph import complete, point
from demorgan_lab.logics import registry
from demorgan_lab.matrix import bd4, etl4, k3, product, validates


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_exit_codes(capsys):
    code, out, _ = run(capsys, "check", "--matrix", "ETL4", "--rule", "p, ~p|q |- q")
    assert code == 0 and "valid" in out
    code, out, _ = run(capsys, "check", "--matrix", "BD4", "--rule", "p, ~p|q |- q")
    assert code == 1
    assert "witness valuation" in out and "p=b" in out and "q=bot" in out


def test_check_json(capsys):
    code, out, _ = run(capsys, "--json", "check", "--matrix", "bd4",
                       "--rule", "p, ~p|q |- q")
    data = json.loads(out)
    assert code == 1 and data["valid"] is False and data["witness"]["p"] == "b"


def test_check_multiple_conclusion(capsys):
    code, _, _ = run(capsys, "check", "--matrix", "BD4", "--rule", "p|q |- p, q", "--mc")
    assert code == 0
    code, _, err = run(capsys, "check", "--matrix", "BD4", "--rule", "p |- p", "--mc")
    assert code == 2 and "mc" in err


def test_errors_exit_2(capsys):
    code, _, err = run(capsys, "check", "--matrix", "NOPE", "--rule", "p |- p")
    assert code == 2 and "unknown matrix" in err
    code, _, err = run(capsys, "check", "--matrix", "BD4", "--rule", "p & |- p")
    assert code == 2 and "syntax error" in err
    code, _, err = run(capsys, "hom", "K0", "K3")
    assert code == 2


def test_matrix_file_missing_key(tmp_path, capsys):
    data = json.loads(run(capsys, "--json", "leibniz", "--matrix", "K3")[1])["reduct"]
    del data["neg"]
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "check", "--matrix", f"@{path}", "--rule", "p |- p")
    assert code == 2 and "lacks the key(s) 'neg'" in err


def test_empty_premise(capsys):
    code, _, err = run(capsys, "check", "--matrix", "BD4", "--rule", "p,, q |- p")
    assert code == 2 and "empty premise" in err and "offset 2" in err


@pytest.mark.parametrize("text, problem", [
    ('{"points": ["a"], "leq": [], "designated": []}', "lacks the key(s) 'invol'"),
    ('["a", "b"]', "frame JSON must be an object"),
    ('{"points": ["a"], "leq": [], "invol": ["a"], "designated": []}',
     "'invol' item 'a' is not a point index"),
    ('{"points": ["a", "b"], "leq": [[0, 1, 1]], "invol": [1, 0], "designated": []}',
     "'leq' item [0, 1, 1] is not a pair of point indices"),
])
def test_frame_file_errors(tmp_path, capsys, text, problem):
    path = tmp_path / "f.json"
    path.write_text(text)
    code, out, err = run(capsys, "complex", "--frame", f"@{path}")
    assert code == 2 and out == "" and problem in err


def test_graph_file_missing_key(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text('{"vertices": ["u"]}')
    code, _, err = run(capsys, "hom", f"@{path}", "K2")
    assert code == 2 and "graph JSON lacks the key(s) 'edges'" in err


def test_antitheorem(capsys):
    code, _, _ = run(capsys, "antitheorem", "--logic", "ETL", "--formulas", "p", "~p")
    assert code == 0
    code, _, _ = run(capsys, "antitheorem", "--logic", "LP", "--formulas", "p", "~p")
    assert code == 1


def test_graph_commands(capsys):
    assert run(capsys, "hom", "K2", "K3")[0] == 0
    assert run(capsys, "hom", "K3", "K2")[0] == 1
    assert run(capsys, "color", "C5", "3")[0] == 0
    assert run(capsys, "color", "C5", "2")[0] == 1
    assert run(capsys, "weakcolor", "point", "1")[0] == 0
    assert run(capsys, "weakcolor", "G2", "3")[0] == 1


def test_colorings_of_long_cycles(capsys):
    # the backtracking keeps its own stack: no recursion per vertex
    assert run(capsys, "color", "C1200", "3")[0] == 0
    assert run(capsys, "color", "C1201", "2")[0] == 1
    code, out, _ = run(capsys, "--json", "hom", "C1201", "C5")
    assert code == 0 and len(json.loads(out)["homomorphism"]) == 1201


def test_alpha_rule_of_a_long_cycle(capsys):
    # conj and disj hash each node as they build it: hashing the 200-deep
    # disjunction of 198-deep conjunctions does not recurse per operand; and
    # printing folds each formula's program, with no recursion: C500 prints too
    for n in (200, 500):
        for argv in (["alpha"], ["--json", "alpha"]):
            code, out, err = run(capsys, *argv, "--graph", f"C{n}")
            assert code == 0 and err == ""
            rule = json.loads(out)["rule"] if argv[0] == "--json" else out
            assert len(set(re.findall(r"[a-z][a-z0-9_]*", rule))) == n


def from_depth(frames, fn):
    """fn() called from `frames` more stack frames."""
    return fn() if frames == 0 else from_depth(frames - 1, fn)


@pytest.mark.parametrize("shape", ["neg", "paren"])
def test_nesting_bound_is_bad_input(capsys, shape):
    def rule(depth):
        return {"neg": "~" * depth + "p",
                "paren": "(" * depth + "p" + ")" * depth}[shape] + " |- p"

    for matrix in ("BD4", "KMINUS8"):
        code, out, err = from_depth(120, lambda: run(
            capsys, "check", "--matrix", matrix, "--rule", rule(MAX_DEPTH)))
        assert code in (0, 1) and out and err == ""
        code, out, err = run(capsys, "check", "--matrix", matrix, "--rule", rule(MAX_DEPTH + 1))
        assert code == 2 and out == "" and f"nested deeper than {MAX_DEPTH}" in err


def test_a_chain_is_one_level_of_input(capsys):
    # a 3000-operand chain is good input, and a chain still passes the
    # bound by the levels of its operands
    for matrix in ("BD4", "KMINUS8"):
        code, out, err = from_depth(120, lambda: run(
            capsys, "check", "--matrix", matrix, "--rule", "|".join(["p"] * 3000) + " |- p"))
        assert code == 0 and out and err == ""
        code, out, err = run(capsys, "check", "--matrix", matrix,
                             "--rule", "~" * MAX_DEPTH + "p | p |- p")
        assert code == 2 and out == "" and f"nested deeper than {MAX_DEPTH}" in err


def test_constructions(capsys):
    code, out, _ = run(capsys, "--json", "mu", "--plus", "point")
    assert code == 0 and len(json.loads(out)["elements"]) == 4
    code, out, _ = run(capsys, "--json", "gamma", "--graph", "K2")
    assert code == 0 and len(json.loads(out)["elements"]) == 4
    code, out, _ = run(capsys, "alpha", "--graph", "loop")
    assert code == 0 and out.strip() == "pu |-"
    code, out, _ = run(capsys, "--json", "classify", "--matrix", "ETL4")
    data = json.loads(out)
    assert code == 0 and len(data["plus"]["vertices"]) == 1 and data["singletons"] == 0


def test_dual_complex_roundtrip_through_files(tmp_path, capsys):
    code, out, _ = run(capsys, "--json", "dual", "--matrix", "K3")
    frame_file = tmp_path / "frame.json"
    frame_file.write_text(out)
    code, out, _ = run(capsys, "--json", "complex", "--frame", f"@{frame_file}")
    assert code == 0
    assert len(json.loads(out)["elements"]) == 3


def test_leibniz_command(capsys):
    code, out, _ = run(capsys, "--json", "leibniz", "--matrix", "ETL4")
    data = json.loads(out)
    assert code == 0 and len(data["blocks"]) == 4


def test_free_command(capsys):
    code, out, _ = run(capsys, "--json", "free", "--gens", "a", "b",
                       "--rel", "b<=a", "a<=~a|b")
    assert code == 0 and json.loads(out)["size"] == 10


def test_free_command_refuses_bad_generators(capsys):
    for argv, err in [(["--gens", "T", "--rel", "T<=~T"], "generator 'T' is not an atom name"),
                      (["--gens", "a", "a"], "generator 'a' is given twice"),
                      (["--gens", "A"], "generator 'A' is not an atom name")]:
        code, out, stderr = run(capsys, "free", *argv)
        assert (code, out, stderr) == (2, "", f"error: {err}\n")


def test_logleq_command(capsys):
    assert run(capsys, "logleq", "--from", "BD4", "--to", "K3", "--bound", "1")[0] == 0
    assert run(capsys, "logleq", "--from", "K3", "--to", "LP3", "--bound", "2")[0] == 1


def test_witness_command(capsys):
    code, out, _ = run(capsys, "witness-kminus", "--premises", "p", "~p|q",
                       "--conclusion", "q")
    assert code == 0 and "psi:" in out
    code, out, _ = run(capsys, "witness-kminus", "--premises", "p",
                       "--conclusion", "q")
    assert code == 1 and "no witness" in out


def test_witness_command_refuses_too_many_atoms(capsys):
    premise = " & ".join(f"p{i}" for i in range(200))
    code, out, err = run(capsys, "witness-kminus", "--premises", premise, "--conclusion", "q")
    assert (code, out) == (2, "")
    assert err == "error: classical_status guard: at most 20 atoms, got 200\n"


@pytest.mark.parametrize("n", [10, 3000])
def test_witness_command_refuses_too_many_premise_clauses(capsys, n):
    # the witness recursion is exponential in the premises' DNF clauses and
    # one level deep per clause: past the guard the input is refused at once
    premise = " | ".join(f"p{i}" for i in range(n))
    code, out, err = run(capsys, "witness-kminus", "--premises", premise, "--conclusion", "q")
    assert (code, out) == (2, "")
    assert err == f"error: kminus_witness guard: at most 8 DNF clauses of the premises, got {n}\n"


def test_witness_command_refuses_an_exponential_premise_dnf(capsys):
    # 2^16 DNF clauses: refused at the conjunction that passes the cap
    premise = " & ".join(f"(a{i} | b{i})" for i in range(16))
    code, out, err = run(capsys, "witness-kminus", "--premises", premise, "--conclusion", "q")
    assert (code, out) == (2, "")
    assert err == ("error: kminus_witness guard: at most 8 DNF clauses of the premises, "
                   "got a conjunction of more than 512\n")


def test_internal_failure_exit_3(capsys, monkeypatch):
    from demorgan_lab import logics

    def broken(premises, conclusion):
        raise RuntimeError("internal: combined witness failed verification")

    monkeypatch.setattr(logics, "kminus_witness", broken)
    code, out, err = run(capsys, "witness-kminus", "--premises", "p", "--conclusion", "q")
    assert code == 3 and out == ""
    assert err == "internal error: internal: combined witness failed verification\n"


def test_failed_self_check_exit_3(capsys, monkeypatch):
    from demorgan_lab import bridge

    monkeypatch.setattr(bridge, "frame_isomorphic", lambda p, q: False)
    code, out, err = run(capsys, "classify", "--matrix", "BD4")
    assert code == 3 and out == ""
    assert err == "internal error: internal: classification failed its duality check\n"


def test_sstar_command(capsys):
    code, out, _ = run(capsys, "--json", "sstar", "--graph", "K2", "--k", "0",
                       "--steps", "1")
    data = json.loads(out)
    assert code == 0
    assert any(row["counter"] == 1 and not row["graph"]["vertices"]
               for row in data["reachable"])


def test_probe_command(capsys):
    code, out, _ = run(capsys, "probe")
    assert code == 0 and "BD < " in out
    code, out, _ = run(capsys, "probe", "--dot")
    assert out.startswith("digraph")


def test_separate_command(capsys):
    code, out, _ = run(capsys, "--json", "separate", "--hold", "|- p | ~p",
                       "--fail", "p, ~p |- q", "--pool", "catalog")
    assert code == 0 and len(json.loads(out)["separating"]["elements"]) == 3
    code, _, _ = run(capsys, "separate", "--hold", "p |- q", "--pool", "catalog")
    assert code == 1


def test_separate_bounds_the_muplus_pool(capsys):
    # alpha(K2) holds in mu+ of the loop, the one graph of muplus:1, and
    # fails in the 9-element mu+(K2), one of muplus:2
    alpha_k2 = "pv0 & ~pv0 | pv1 & ~pv1 |-"
    code, out, _ = run(capsys, "--json", "separate", "--fail", alpha_k2, "--pool", "muplus:1")
    assert code == 1 and json.loads(out) == {"separating": None}
    code, out, _ = run(capsys, "--json", "separate", "--fail", alpha_k2, "--pool", "muplus:2")
    assert code == 0 and len(json.loads(out)["separating"]["elements"]) == 9
    # all_graphs(6) would take minutes: refused before any graph is listed
    code, out, err = run(capsys, "separate", "--fail", alpha_k2, "--pool", "muplus:6")
    assert code == 2 and out == "" and "muplus pool guard exceeded (6 > 5)" in err
    code, out, err = run(capsys, "separate", "--fail", alpha_k2, "--pool", "muplus:x")
    assert code == 2 and out == "" and "unknown pool 'muplus:x'" in err


def test_verify_subset(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "1,6,10")
    assert code == 0
    assert out.count("PASS") == 3 and "3/3" in out


def test_dual_output_is_frozen(capsys):
    want = {
        "BD4": '{"points": ["n", "b"], "leq": [], "invol": [1, 0], "designated": [1]}',
        "K3": '{"points": ["n", "top"], "leq": [[1, 0]], "invol": [1, 0], "designated": [0, 1]}',
        "LP3": '{"points": ["n", "top"], "leq": [[1, 0]], "invol": [1, 0], "designated": [0]}',
        "CL2": '{"points": ["top"], "leq": [], "invol": [0], "designated": [0]}',
        "ETL4": '{"points": ["n", "b"], "leq": [], "invol": [1, 0], "designated": [0, 1]}',
        "KMINUS8": '{"points": ["x", "c", "a", "b"], "leq": [[2, 0], [3, 0], [3, 1]], '
                   '"invol": [3, 2, 1, 0], "designated": [0, 1, 2, 3]}',
    }
    for name, text in want.items():
        assert run(capsys, "--json", "dual", "--matrix", name) == (0, text + "\n", "")


# A fresh interpreter runs cli.main and reports the demorgan_lab modules it
# loaded, and which of numpy, dataclasses and inspect it did.  Every command
# needs formula and matrix (and _order under them); the rest each command
# imports itself.
CHILD = """
import contextlib, io, json, sys
from demorgan_lab import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = cli.main(json.loads(sys.argv[1]))
print(json.dumps([code, out.getvalue(),
                  sorted(m for m in sys.modules if m.split(".")[0] == "demorgan_lab")
                  + [m for m in ("numpy", "dataclasses", "inspect") if m in sys.modules]]))
"""
SRC = os.path.dirname(os.path.dirname(demorgan_lab.__file__))
BASE = {"demorgan_lab", "demorgan_lab._order", "demorgan_lab.cli",
        "demorgan_lab.formula", "demorgan_lab.matrix"}


def run_child(*argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run([sys.executable, "-c", CHILD, json.dumps(argv)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, out, modules = json.loads(proc.stdout)
    return code, out, set(modules)


CLASSIFY = {"demorgan_lab.bridge", "demorgan_lab.frame", "demorgan_lab.graph"}


# on a catalog or a small @file matrix, check runs the packed sweep, and
# leibniz, dual and classify the dual involution and the Leibniz congruence
# on Python ints: no numpy, no numpy block sweep (_sweep) and no
# constructions (_constructions); and no module of the package imports
# dataclasses (or inspect with it).  A grid of 8^5 valuations first goes
# through the packed sweep of its first block: a witness there loads no
# numpy, and on a miss the numpy block sweep imports numpy (and numpy
# inspect).
@pytest.mark.parametrize("argv, extra", [
    (["check", "--matrix", "ETL4", "--rule", "p, ~p|q |- q"], set()),
    (["check", "--matrix", "@{k3}", "--rule", "p, ~p |- q"], set()),
    (["leibniz", "--matrix", "KMINUS8"], set()),
    (["leibniz", "--matrix", "@{product}"], set()),
    (["dual", "--matrix", "BD4"], {"demorgan_lab.frame"}),
    (["dual", "--matrix", "@{product}"], {"demorgan_lab.frame"}),
    (["classify", "--matrix", "K3"], CLASSIFY),
    (["classify", "--matrix", "@{k3}"], CLASSIFY),
    (["classify", "--matrix", "@{mu}"], CLASSIFY),
    (["check", "--matrix", "KMINUS8", "--rule", "p & ~q, q | r, ~r | s |- s & t | ~p"],
     {"demorgan_lab._sweep", "numpy", "inspect"}),
    (["check", "--matrix", "KMINUS8", "--rule", "p | q, r | s |- t"], set()),
], ids=["check", "check-file", "leibniz", "leibniz-file", "dual", "dual-file", "classify",
        "classify-file", "classify-file-72", "check-blocks", "check-packed-block"])
def test_command_loads_only_its_modules(tmp_path, argv, extra):
    # the 16-element ETL4 x BD4, whose Leibniz congruence is no identity,
    # and a reduced matrix of 72 elements
    files = {"k3": k3(), "product": product([etl4(), bd4()]),
             "mu": mu_triple(TriplePresentation(complete(2), point(), 1))}
    for name, m in files.items():
        (tmp_path / f"{name}.json").write_text(m.to_json())
    argv = [a.format(**{name: tmp_path / f"{name}.json" for name in files}) for a in argv]
    code, out, modules = run_child("--json", *argv)
    assert code in (0, 1) and json.loads(out)
    assert modules == BASE | extra


def test_split_at_loads_constructions_but_no_frame():
    # the split witness is lifted by masks (matrix._lift), with no frame
    code = ("import sys; from demorgan_lab.matrix import bd4, split_at; "
            "print(split_at(bd4(), bd4().top)[2], "
            "sorted(m for m in sys.modules if m.startswith('demorgan_lab.')))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == ("(0, 1, 2, 3) ['demorgan_lab._constructions', 'demorgan_lab._order', "
                   "'demorgan_lab.formula', 'demorgan_lab.matrix']\n")


def test_registry_fallback_loads_logics(capsys):
    rule = "p, ~p |- q"
    want = validates(registry("LPVECQ").semantics[0], parse_rule(rule))
    code, out, modules = run_child("--json", "check", "--matrix", "lp_v_ecq", "--rule", rule)
    assert code == (0 if want else 1) and json.loads(out)["valid"] is want
    assert "demorgan_lab.logics" in modules
    code, _, err = run(capsys, "check", "--matrix", "KO", "--rule", rule)
    assert code == 2 and "several matrices" in err


# the flat API of the package, by the module each name comes from
EXPORTS = {
    "formula": "And Atom Formula Neg Or BOT TOP RuleInstance ParseError chi "
               "classical_status normal_form parse parse_rule rename_apart substitute",
    "matrix": "FinMatrix MatrixError Partition MatrixMap bd4 catalog cl2 etl4 evaluate "
              "find_countervaluation find_isomorphism free_dm_algebra k3 kminus8 "
              "leibniz_congruence leibniz_reduct lp3 principal_congruence product "
              "split_at submatrices validates",
    "frame": "Frame FrameError CompatiblePreorder complex_matrix dual_frame "
             "frame_isomorphic frame_isomorphism is_reduced_frame leibniz_subframe "
             "roundtrip_check",
    "graph": "Graph GraphError GraphPair graph_isomorphic hom_search is_n_colorable "
             "weak_n_coloring",
    "bridge": "TriplePresentation alpha_rule classify_reduced gamma mu_minus mu_plus "
              "mu_triple p_minus p_plus p_triple",
    "logics": "NamedLogic exp_validates is_antitheorem_of kminus_witness log_leq "
              "probe_lattice registry separation_search",
}


def test_package_api_resolves_on_first_access():
    names = dir(demorgan_lab)
    for module, exported in EXPORTS.items():
        home = importlib.import_module(f"demorgan_lab.{module}")
        assert getattr(demorgan_lab, module) is home and module in names
        for name in exported.split():
            ns = {}
            exec(f"from demorgan_lab import {name}", ns)
            assert ns[name] is getattr(home, name) and name in names, name
    assert demorgan_lab._order is importlib.import_module("demorgan_lab._order")
    assert demorgan_lab.__version__ == "0.1.0"
    # matrix resolves the names of its __all__ that live in _constructions
    # on first access, as the package does; each is one object by every route
    from demorgan_lab import _constructions, matrix
    exported = EXPORTS["matrix"].split()
    moved = set()
    for name in matrix.__all__:
        ns = {}
        exec(f"from demorgan_lab.matrix import {name}", ns)
        value = getattr(matrix, name)
        assert ns[name] is value and name in dir(matrix), name
        assert name not in exported or getattr(demorgan_lab, name) is value, name
        if value.__module__ == _constructions.__name__:
            moved.add(name)
            assert getattr(_constructions, name) is value
    assert len(moved) == 8 and set(exported) <= set(matrix.__all__)
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        matrix.nope
    # in a fresh interpreter: listed before _constructions loads, then kept
    code = ("import sys; from demorgan_lab import matrix; "
            "print(set(matrix.__all__) <= set(dir(matrix)), "
            "'demorgan_lab._constructions' in sys.modules, 'product' in vars(matrix), "
            "matrix.product is not None, 'product' in vars(matrix))")
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120).stdout
    assert out == "True False False True True\n"
    with pytest.raises(AttributeError, match="no attribute 'nope'"):
        demorgan_lab.nope
    with pytest.raises(ImportError):
        exec("from demorgan_lab import nope", {})


def test_one_command_parser_reads_as_the_full_one(capsys, monkeypatch):
    # main builds the subparser of the command it is given alone; help and
    # errors must read as those of the parser of every command
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda command=None: built.append(command) or build_parser(command))
    cases = [(["--help"], None), (["--json", "-h"], None), ([], None), (["--json"], None),
             (["nope"], None), (["--json", "CHECK"], None), (["-h", "check"], None),
             (["check", "--matrix", "K3", "--rule", "p |- p", "extra"], "check"),
             (["--json", "color", "K3", "three"], "color"),
             (["--json", "--json", "logleq", "--from", "K3"], "logleq")]
    for name in COMMANDS:
        cases += [([name, "--help"], name), (["--json", name, "--bogus", "x"], name)]
    for argv, command in cases:
        with pytest.raises(SystemExit) as stop:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        assert run(capsys, *argv) == (stop.value.code, want.out, want.err), argv
        assert built.pop() == command
        assert want.out.startswith("usage: ") or want.err.startswith("usage: ")
