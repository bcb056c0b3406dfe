"""Bad input at every entry point: each guard raises its module's error
class with a message that names the failed key or law, and on the command
line the same input exits 2 with that message."""

import os
import re

import pytest

from demorgan_lab.bridge import alpha_rule, classify_reduced, gamma
from demorgan_lab.cli import main
from demorgan_lab.formula import BOT, TOP, Atom, ParseError, normal_form, parse_rule
from demorgan_lab.frame import (CompatiblePreorder, Frame, FrameError, complex_matrix, dual_frame,
                                quotient)
from demorgan_lab.graph import Graph, GraphError, complete, cycle, empty_graph, hom_search, point
from demorgan_lab.logics import log_leq
from demorgan_lab.matrix import (FinMatrix, MatrixError, Partition, bd4, free_dm_algebra,
                                 principal_congruence, product, quotient_by, split_at)


def plain():
    """A two-element matrix without the demorgan flag."""
    return FinMatrix(["0", "1"], [1, 0], 1, 0, [1], enc=[0, 1])


def two_chain():
    """Points a <= b, swapped by the involution."""
    return Frame(["a", "b"], [(0, 1)], [1, 0], [1])


def antichain(n):
    """n incomparable points, each its own involution image."""
    return Frame([f"x{i}" for i in range(n)], [], list(range(n)), [])


CASES = {
    # FinMatrix
    "matrix-no-tables": (lambda: FinMatrix(["a"], [0], 0, 0, [0]),
                         MatrixError, "need meet and join tables or a powerset encoding"),
    "matrix-negative-mask": (lambda: FinMatrix(["a", "b"], [1, 0], 1, 0, [1], enc=[0, -1]),
                             MatrixError, "non-negative integer mask per element"),
    "matrix-missing-mask": (lambda: FinMatrix(["a", "b"], [1, 0], 1, 0, [1], enc=[0]),
                            MatrixError, "one mask per element"),
    "matrix-empty": (lambda: FinMatrix([], [], 0, 0, [], enc=[]), MatrixError, "empty carrier"),
    "matrix-negation": (lambda: FinMatrix(["a", "b"], [0], 1, 0, [1], enc=[0, 1]),
                        MatrixError, "bad negation vector"),
    "matrix-bounds": (lambda: FinMatrix(["a", "b"], [1, 0], 2, 0, [1], enc=[0, 1]),
                      MatrixError, "bad bounds"),
    "matrix-designated": (lambda: FinMatrix(["a", "b"], [1, 0], 1, 0, [5], enc=[0, 1]),
                          MatrixError, "bad designated set"),
    "matrix-mask-above-top": (
        lambda: FinMatrix(["a", "b", "c"], [1, 0, 2], 1, 0, [1], enc=[0, 1, 2]),
        MatrixError, "the mask of 'c' is not inside the top's"),
    "matrix-rows-not-iterable": (lambda: FinMatrix(["a"], [0], 0, 0, [0], meet=[0], join=[[0]]),
                                 MatrixError, "meet table is not an n x n table"),
    # congruences and constructions
    "quotient-partition-length": (lambda: quotient_by(bd4(), Partition.of([0, 0])),
                                  MatrixError, "partition of 2 elements for a carrier of 4"),
    "principal-congruence-flag": (lambda: principal_congruence(plain(), 0, 1),
                                  MatrixError, "principal congruences are for De Morgan"),
    "split-at-flag": (lambda: split_at(plain(), 1), MatrixError, "split_at needs a De Morgan"),
    "product-empty": (lambda: product([]), MatrixError, "product of an empty family"),
    "free-unsatisfiable": (lambda: free_dm_algebra(["p"], [(TOP, BOT)]),
                           MatrixError, "relations are unsatisfiable over DM4"),
    # frames
    "complex-too-large": (lambda: complex_matrix(antichain(21)),
                          FrameError, "complex matrix of 21 points would be too large"),
    "dual-frame-flag": (lambda: dual_frame(plain()), MatrixError, "dual_frame needs a De Morgan"),
    "frame-designated": (lambda: Frame(["a"], [], [0], [3]),
                         FrameError, "designated point out of range"),
    "restrict-not-closed": (lambda: two_chain().restrict([0]),
                            FrameError, "restriction set is not involution-closed"),
    "frame-json-key": (
        lambda: Frame.from_json('{"points": "ab", "leq": [], "invol": [], "designated": []}'),
        FrameError, "frame 'points' must be a list"),
    "preorder-not-extending": (lambda: CompatiblePreorder(two_chain(), []),
                               FrameError, "preorder must extend the frame order"),
    "preorder-not-compatible": (lambda: CompatiblePreorder(antichain(2), [(0, 1)]),
                                FrameError, "not compatible with the involution"),
    "quotient-other-frame": (lambda: quotient(two_chain(), CompatiblePreorder(antichain(2), [])),
                             FrameError, "preorder belongs to a different frame"),
    # graphs
    "edge-out-of-range": (lambda: Graph(["a"], [(0, 1)]), GraphError, "edge out of range"),
    "graph-json-key": (lambda: Graph.from_json('{"vertices": "ab", "edges": []}'),
                       GraphError, "graph 'vertices' must be a list"),
    "graph-json-duplicates": (lambda: Graph.from_json('{"vertices": ["a", "a"], "edges": []}'),
                              GraphError, "duplicate vertex labels"),
    "cycle-2": (lambda: cycle(2), GraphError, "cycle needs n >= 3"),
    "hom-into-empty": (lambda: hom_search(point(), empty_graph()), None, None),
    # bridge and logics
    "gamma-guard": (lambda: gamma(complete(7)), MatrixError, "gamma guard exceeded (7 > 6)"),
    "alpha-empty": (lambda: alpha_rule(empty_graph()),
                    MatrixError, "alpha rule needs a non-empty graph"),
    "classify-flag": (lambda: classify_reduced(plain()),
                      MatrixError, "classification needs a De Morgan matrix"),
    "log-leq-power": (lambda: log_leq([bd4()], bd4(), 0),
                      ValueError, "max_power must be at least 1"),
    "log-leq-flag": (lambda: log_leq([plain()], bd4(), 1),
                     MatrixError, "log_leq compares De Morgan matrices"),
    # formulas
    "rule-without-turnstile": (lambda: parse_rule("p, q"), ParseError, "expected one of |-"),
    "normal-form-mode": (lambda: normal_form(Atom("p"), "nf"),
                         ValueError, "mode must be 'cnf' or 'dnf'"),
    # the command line: exit 2 and the message on stderr
    "cli-unreadable-file": (["check", "--matrix", "@" + os.path.dirname(__file__),
                             "--rule", "p |- p"], None, "cannot read"),
    "cli-unknown-graph": (["hom", "NOPE", "K3"], None, "unknown graph 'NOPE'"),
    "cli-frame-not-a-file": (["complex", "--frame", "K3"], None, "frames are given as @file.json"),
    "cli-relation": (["free", "--gens", "p", "--rel", "p"],
                     None, "relation 'p' must look like 'lhs<=rhs'"),
    "cli-suite": (["verify", "--suite", "one"],
                  None, "--suite takes 'all' or criterion numbers"),
}


@pytest.mark.parametrize("call, error, fragment", CASES.values(), ids=CASES.keys())
def test_bad_input_names_what_failed(capsys, call, error, fragment):
    if isinstance(call, list):
        assert main(call) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith("error: ") and fragment in out.err
    elif error is None:
        assert call() is None
    else:
        with pytest.raises(error, match=re.escape(fragment)):
            call()
