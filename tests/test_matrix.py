import dataclasses
import itertools
import json
import random

import numpy as np
import pytest

from demorgan_lab.formula import BOT, TOP, And, Atom, Neg, Or, RuleInstance, parse, parse_rule
from demorgan_lab.matrix import (
    FinMatrix, MatrixError, MatrixMap, Partition, _find_isomorphism_generic,
    bd4, catalog, cl2, etl4, evaluate, find_countervaluation,
    find_isomorphism, free_dm_algebra, is_matrix_isomorphism, k3, kminus8,
    leibniz_congruence, leibniz_reduct, lp3, principal_congruence, product,
    quotient_by, split_at, submatrices, validates,
)


def struct_eval(m, v, f):
    """Value of f by structural recursion, independent of the package's
    compiled fold."""
    if isinstance(f, Atom):
        return v[f.name]
    if isinstance(f, Neg):
        return m.neg[struct_eval(m, v, f.arg)]
    if isinstance(f, And):
        return m.meet(struct_eval(m, v, f.left), struct_eval(m, v, f.right))
    if isinstance(f, Or):
        return m.join(struct_eval(m, v, f.left), struct_eval(m, v, f.right))
    assert f in (TOP, BOT)
    return m.top if f == TOP else m.bottom


def struct_atoms(f):
    if isinstance(f, Atom):
        return {f.name}
    return set().union(*(struct_atoms(getattr(f, x.name)) for x in dataclasses.fields(f)))


def brute_witness(m, r):
    """Reference sweep: the first refuting valuation in lexicographic order
    of the sorted atoms, by plain enumeration with structural evaluation."""
    names = sorted(set().union(*map(struct_atoms, r.premises | r.conclusions)))
    for vals in itertools.product(range(m.n), repeat=len(names)):
        v = dict(zip(names, vals))
        if all(struct_eval(m, v, g) in m.designated for g in r.premises):
            if not any(struct_eval(m, v, d) in m.designated for d in r.conclusions):
                return v
    return None


def brute_validates(m, r):
    return brute_witness(m, r) is None


RULES = [
    "p, ~p|q |- q",
    "p|q, ~q|r |- p|r",
    "|- p|~p",
    "p, ~p |- q",
    "p, ~p |- ",
    "p & ~p | q |- q | ~q",
    "p|q |- p, q",
    "p |- ",
    "|- T",
    "F |- ",
    "p & (q | ~p) |- q | r",
]


def test_engine_matches_brute_force():
    mats = [bd4(), k3(), lp3(), cl2(), etl4(), kminus8(), product([cl2(), lp3()])]
    for m in mats:
        for text in RULES:
            r = parse_rule(text)
            assert validates(m, r) == brute_validates(m, r), (m, text)


# rules with subformulas over the trailing atoms only, which the blocks after
# the first fold once per block shape (RuleInstance.sweep_split)
SPLIT_RULES = [
    "p & ~p | q & ~r | r & ~q |- ", "p | q & r |- s | q & ~r",
    "T & q | p & F | ~(r | s) & q |- s & (r | T)", "p | ~(q & r) & s |- ~(s & r) | q & p",
]

SWEEP_RULES = RULES + [
    "|- ", "T |- F", "|- p, q, r", "p, q, r, s |- ", "p, q, r, s |- p & q & r & s",
    "p|q, ~q|r, r|s |- p|s", "~p, ~q |- ~(p|q), r", "p & q, r |- s, ~s",
] + SPLIT_RULES


def test_sweep_blocks_keep_the_least_witness(monkeypatch):
    # blocks of 1, 2, 4 and then 7 valuations: every kind of block boundary
    # (ranged atom, realignment, capped blocks) falls inside small grids
    from demorgan_lab import matrix
    from demorgan_lab.frame import Frame, complex_matrix, random_frame
    monkeypatch.setattr(matrix, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(matrix, "_BLOCK_CAP", 7)
    rng = random.Random(7)
    mats = list(catalog().values()) + [product([cl2(), lp3()]), product([etl4(), bd4()])]
    mats += [complex_matrix(random_frame(rng, 5)) for _ in range(8)]
    chain = complex_matrix(Frame([f"c{i}" for i in range(17)],
                                 [(i, j) for i in range(17) for j in range(i, 17)],
                                 [16 - i for i in range(17)], range(5, 17)))
    assert chain.nbits == 17 and not matrix._engine(chain).mask_mode
    mats.append(chain)
    rules = [parse_rule(t) for t in SWEEP_RULES]
    assert {len(r.atom_names()) for r in rules} == {0, 1, 2, 3, 4}
    checked = 0
    for m in mats:
        for r in rules:
            if m.n ** len(r.atom_names()) <= 6000:
                assert find_countervaluation(m, r) == brute_witness(m, r), (m.labels, str(r))
                checked += 1
    assert checked > 250


def chain(points):
    """The complex matrix of a chain: one mask bit per point, so 9-16 points
    sweep in mask mode over uint16 values and 17 in table mode."""
    from demorgan_lab.frame import Frame, complex_matrix
    m = complex_matrix(Frame([f"c{i}" for i in range(points)],
                             [(i, j) for i in range(points) for j in range(i, points)],
                             [points - 1 - i for i in range(points)], range(5, points)))
    assert m.nbits == points
    return m


def check_sweep_folds_constants_negated_compounds_and_shared_subformulas():
    from demorgan_lab import matrix
    c12 = chain(12)
    # the same algebra with top alone designated: designation by comparison
    top12 = FinMatrix(c12.labels, c12.neg, c12.top, c12.bottom, [c12.top], c12.flags,
                      enc=c12.enc)
    mats = list(catalog().values()) + [c12, top12, chain(17)]
    dtypes = {matrix._engine(m).values.dtype.name for m in mats}
    assert dtypes == {"uint8", "uint16", "int32"}  # int32: table mode
    texts = [
        "~(p | q) |- ~p & ~q", "~(p & F) |- ~(q | ~T)", "T |- ~(~p | F) & (q | T)",
        "~(~(p & q) | r) |- ~r & F", "F | ~(p & ~p) |- ~(q | ~q), T & ~F",
        "~(p & ~(q | ~r)) |- ~~p | r", "~T, p |- ", "|- ~F, F",
    ]
    rules = [parse_rule(t) for t in texts]
    # one subformula object on both sides, and twice within one formula
    shared = parse("~(p & ~q) | T & ~r")
    rules += [RuleInstance.single([shared], shared),
              RuleInstance.of([shared, parse("q")], [And(shared, Neg(shared)), parse("~p")]),
              RuleInstance.of([Or(shared, Neg(shared))], [Neg(shared), BOT])]
    verdicts = set()
    for m in mats:
        for r in rules:
            w = find_countervaluation(m, r)
            assert w == brute_witness(m, r), (m.labels, str(r))
            verdicts.add((matrix._engine(m).mask_mode, w is None))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_sweep_folds_constants_negated_compounds_and_shared_subformulas():
    check_sweep_folds_constants_negated_compounds_and_shared_subformulas()


def test_sweep_folds_shared_subformulas_in_tiny_blocks(monkeypatch):
    # blocks of 1, 2, 4 and then 7 valuations: the blocks after the first
    # write in place through the workspace, where they meet shared
    # subformula objects, T and F, 0-d leaves of leading atoms and premises
    # over different atom sets
    from demorgan_lab import matrix
    monkeypatch.setattr(matrix, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(matrix, "_BLOCK_CAP", 7)
    buffers = []
    real = matrix._Workspace._buffer
    monkeypatch.setattr(matrix._Workspace, "_buffer", lambda ws: buffers.append(1) or real(ws))
    check_sweep_folds_constants_negated_compounds_and_shared_subformulas()
    assert buffers


def test_sweep_crossing_the_block_cap_agrees_with_hom_search(monkeypatch):
    from demorgan_lab import matrix
    from demorgan_lab.bridge import alpha_rule, mu_plus
    from demorgan_lab.graph import Graph, complete, cycle, hom_search
    # K4 has no homomorphism to C4, so the whole 35^4 grid is swept; the
    # second pair's witness lies near the end of its 41^4 grid
    loops = Graph("abcd", [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 3), (1, 2)])
    target = Graph("abcd", [(0, 0), (0, 1), (0, 3), (1, 2)])
    for h, g in [(complete(4), cycle(4)), (loops, target)]:
        m, r = mu_plus(h), alpha_rule(g)
        assert m.n ** len(r.atom_names()) > 2 * matrix._BLOCK_CAP
        w = find_countervaluation(m, r)
        assert (w is None) == (hom_search(h, g) is None)
    assert w is not None and all(evaluate(m, w, f) in m.designated for f in r.premises)
    # the same witness from blocks of whole 41^3 slices
    monkeypatch.setattr(matrix, "_FIRST_BLOCK", m.n ** 3)
    monkeypatch.setattr(matrix, "_BLOCK_CAP", m.n ** 3)
    assert find_countervaluation(m, r) == w


def test_sweep_allocates_buffers_per_sweep_not_per_block(monkeypatch):
    from demorgan_lab import matrix
    from demorgan_lab.bridge import alpha_rule, mu_plus
    from demorgan_lab.graph import complete, cycle
    m, r = mu_plus(complete(4)), alpha_rule(cycle(4))  # valid: the whole 35^4 grid
    buffers, blocks = [], []
    real_buffer, real_start = matrix._Workspace._buffer, matrix._Workspace.start
    monkeypatch.setattr(matrix._Workspace, "_buffer",
                        lambda ws: buffers.append(1) or real_buffer(ws))
    monkeypatch.setattr(matrix._Workspace, "start",
                        lambda ws, shape: blocks.append(shape) or real_start(ws, shape))

    def sweep(first: int, cap: int) -> tuple[int, int]:
        monkeypatch.setattr(matrix, "_FIRST_BLOCK", first)
        monkeypatch.setattr(matrix, "_BLOCK_CAP", cap)
        buffers.clear()
        blocks.clear()
        assert find_countervaluation(m, r) is None
        return len(buffers), 1 + len(blocks)

    default = (matrix._FIRST_BLOCK, matrix._BLOCK_CAP)
    # blocks of 12, 12 and 11 slices of 35^3 valuations
    three, n_blocks = sweep(12 * m.n ** 3, 12 * m.n ** 3)
    assert n_blocks == 3 and three >= 1
    for first, cap in [default, (m.n ** 3, m.n ** 3)]:
        made, n_blocks = sweep(first, cap)
        assert n_blocks > 3 and made <= three, (first, cap, made, n_blocks)


def split_rules():
    """SPLIT_RULES and rules whose formulas share subformula objects."""
    shared = parse("q & ~r | r")
    return [parse_rule(t) for t in SPLIT_RULES] + [
        RuleInstance.of([Or(parse("p & ~p"), shared), shared], [And(shared, Atom("s"))]),
        RuleInstance.single([And(Neg(shared), Or(shared, TOP))],
                            Or(BOT, Neg(And(shared, Atom("p"))))),
    ]


def test_split_sweep_keeps_the_least_witness(monkeypatch):
    # blocks of 1, 2, 4 and then 7 valuations: nearly every block comes
    # after the first and folds the split program, in both engine modes
    from demorgan_lab import matrix
    monkeypatch.setattr(matrix, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(matrix, "_BLOCK_CAP", 7)
    mats = [bd4(), k3(), lp3(), etl4(), product([cl2(), lp3()]), chain(12), chain(17)]
    rules = split_rules()
    modes = set()
    for m in mats:
        for r in rules:
            if m.n ** len(r.atom_names()) <= 6000:
                assert find_countervaluation(m, r) == brute_witness(m, r), (m.labels, str(r))
                modes.add(matrix._engine(m).mask_mode)
    assert modes == {True, False}
    for r in rules:
        assert any(inner.nodes for inner, _ in r.__dict__.get("_splits", {}).values()), str(r)


def test_one_block_sweeps_build_no_sweep_program():
    # a grid of at most _FIRST_BLOCK valuations folds r.program() alone: the
    # per-call cost of thousands of small checks
    from demorgan_lab import matrix
    from demorgan_lab.logics import clause_pool
    cases = [(m, r) for m in (bd4(), product([cl2(), lp3()]), chain(17))
             for r in clause_pool()[::97]]
    cases.append((chain(10), parse_rule("p, q, r, s |- p & q & r & s")))
    for m, r in cases:
        assert m.n ** len(r.atom_names()) <= matrix._FIRST_BLOCK
        validates(m, r)
        assert "_sweep" not in r.__dict__ and "_splits" not in r.__dict__, str(r)
    # one more element makes the last grid two blocks
    r = parse_rule("p, q, r, s |- p & q & r & s")
    assert validates(chain(11), r) and "_sweep" in r.__dict__


def inner_folds(monkeypatch, r):
    """A list that collects, for each fold of one of r's inner programs,
    the split's first leaf and the leaves from it on, as bytes."""
    from demorgan_lab import matrix
    seen = []
    real = matrix.fold

    def fold(prog, leaves, *ops):
        firsts = [s for s, (inner, _) in r.__dict__.get("_splits", {}).items() if inner is prog]
        if firsts:
            s = firsts[0]
            seen.append((s, tuple((np.shape(x), np.asarray(x).tobytes()) for x in leaves[s:])))
        return real(prog, leaves, *ops)

    monkeypatch.setattr(matrix, "fold", fold)
    return seen


def test_hoisted_subformulas_are_folded_once_per_block_shape(monkeypatch):
    from demorgan_lab import matrix
    from demorgan_lab.bridge import alpha_rule, mu_plus
    from demorgan_lab.graph import complete, cycle
    m, r = mu_plus(complete(4)), alpha_rule(cycle(4))  # valid: the whole 35^4 grid
    seen = inner_folds(monkeypatch, r)
    blocks = []
    real_start = matrix._Workspace.start
    monkeypatch.setattr(matrix._Workspace, "start",
                        lambda ws, shape: blocks.append(shape) or real_start(ws, shape))
    for first, cap in [(matrix._FIRST_BLOCK, matrix._BLOCK_CAP), (m.n ** 3, m.n ** 3)]:
        monkeypatch.setattr(matrix, "_FIRST_BLOCK", first)
        monkeypatch.setattr(matrix, "_BLOCK_CAP", cap)
        seen.clear()
        blocks.clear()
        assert find_countervaluation(m, r) is None
        # each block shape's inner values are computed from its leaves once
        assert seen and len(set(seen)) == len(seen) < len(blocks), (first, cap)
    # 35 one-slice blocks: the 34 after the first share one shape
    assert len(blocks) == 34 and len(seen) == 1


def test_memo_cap_recomputes_with_the_same_witnesses(monkeypatch):
    from demorgan_lab import matrix
    from demorgan_lab.bridge import alpha_rule, mu_plus
    from demorgan_lab.graph import Graph, complete, cycle
    loops = Graph("abcd", [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 3), (1, 2)])
    target = Graph("abcd", [(0, 0), (0, 1), (0, 3), (1, 2)])
    cases = [(mu_plus(complete(4)), alpha_rule(cycle(4))),
             (mu_plus(loops), alpha_rule(target))]
    cases += [(m, r) for m in (chain(12), chain(17)) for r in split_rules()]

    def sweep():
        witnesses, recomputed = [], []
        for m, r in cases:
            seen = inner_folds(monkeypatch, r)
            witnesses.append(find_countervaluation(m, r))
            recomputed.append(len(seen) - len(set(seen)))
        return witnesses, recomputed

    witnesses, recomputed = sweep()
    assert not any(recomputed) and witnesses[0] is None and witnesses[1] is not None
    monkeypatch.setattr(matrix, "_MEMO_CAP", 0)
    capped, recomputed = sweep()
    assert capped == witnesses and recomputed[0] > 0


def random_formula(rng, names, depth, pool):
    """A random formula over names, T and F, reusing objects from pool."""
    if depth == 0 or rng.random() < 0.15:
        return rng.choice(pool) if pool and rng.random() < 0.3 else \
            rng.choice([Atom(x) for x in names] + [TOP, BOT])
    kind = rng.randrange(5)
    if kind == 0:
        f = Neg(random_formula(rng, names, depth - 1, pool))
    else:
        f = (And if kind < 3 else Or)(random_formula(rng, names, depth - 1, pool),
                                      random_formula(rng, names, depth - 1, pool))
    pool.append(f)
    return f


def test_sweep_program_regroups_exactly():
    from demorgan_lab import matrix
    from demorgan_lab.formula import fold, substitute
    rng = random.Random(5)
    names = ["s", "q", "p", "r", "t"]
    rules = []
    for _ in range(60):
        pool = []
        side = lambda: [random_formula(rng, names, rng.randint(1, 5), pool)
                        for _ in range(rng.randint(0, 3))]
        rules.append(RuleInstance.of(side(), side()))
    sub = {"p": parse("q & ~s"), "r": TOP}
    before = [(str(r), r.atom_names(), [substitute(f, sub) for f in r.premises | r.conclusions])
              for r in rules]
    c17 = chain(17)
    eng = matrix._engine(c17)
    assert not eng.mask_mode
    for r in rules:
        prog, sweep = r.program(), r.sweep_program()
        k = len(prog.names)
        assert sweep.names == prog.names and sweep.n_premises == prog.n_premises
        for m in catalog().values():
            ops = (m.neg.__getitem__, m.meet, m.join, m.top, m.bottom)
            for _ in range(10):
                leaves = [rng.randrange(m.n) for _ in range(k)]
                want = fold(prog, leaves, *ops)
                assert fold(sweep, leaves, *ops) == want, (m.labels, str(r))
                for first in range(1, k + 1):
                    inner, outer = r.sweep_split(first)
                    assert fold(outer, leaves + fold(inner, leaves, *ops), *ops) == want
        leaves = [eng.values[np.array([rng.randrange(c17.n) for _ in range(50)])]
                  for _ in range(k)]
        want = fold(prog, leaves, *eng.ops)
        for got in (fold(sweep, leaves, *eng.ops),) + tuple(
                fold(outer, leaves + fold(inner, leaves, *eng.ops), *eng.ops)
                for inner, outer in map(r.sweep_split, range(1, k + 1))):
            assert all(np.array_equal(a, b) for a, b in zip(got, want, strict=True)), str(r)
    assert sum(bool(r.sweep_split(1)[0].nodes) for r in rules) > 30
    # a heavy alpha-like rule: the blocks that range pv1 keep one value for
    # the disjuncts without pv0 and one for the pv0-free part of the last
    from demorgan_lab.formula import _AND, _NEG, _OR
    r = parse_rule("pv0 & ~pv0 | pv1 & ~pv1 & ~pv2 | pv2 & ~pv0 & ~pv3 | pv3 & ~pv3 & ~pv1 |-")
    assert r.sweep_split(1)[1].nodes == (4, 0, 0, _NEG, _AND, _OR, 5, 0, _NEG, _AND, _OR)
    assert [(str(r), r.atom_names(), [substitute(f, sub) for f in r.premises | r.conclusions])
            for r in rules] == before


def test_evaluate_examples():
    m = bd4()
    b = m.labels.index("b")
    assert evaluate(m, {"p": b}, parse("p & ~p")) == b
    km = k3()
    n = km.labels.index("n")
    assert evaluate(km, {"p": n}, parse("p | ~p")) == n
    c = cl2()
    for x in range(2):
        assert evaluate(c, {"p": x}, parse("p | ~p")) == c.top
    with pytest.raises(KeyError):
        evaluate(m, {}, parse("p"))


def test_validates_examples():
    ds = parse_rule("p, ~p|q |- q")
    em = parse_rule("|- p|~p")
    res = parse_rule("p|q, ~q|r |- p|r")
    assert validates(etl4(), ds)
    assert not validates(bd4(), ds)
    assert validates(lp3(), em) and not validates(k3(), em)
    assert validates(k3(), res)
    assert validates(bd4(), parse_rule("p|q |- p, q"))
    expl = parse_rule("p, ~p |- ")
    assert validates(etl4(), expl) and not validates(lp3(), expl)


def test_countervaluation_is_reported_and_minimal():
    ds = parse_rule("p, ~p|q |- q")
    w = find_countervaluation(bd4(), ds)
    assert w == {"p": bd4().labels.index("b"), "q": bd4().labels.index("bot")}
    assert find_countervaluation(etl4(), ds) is None


def test_trivial_and_almost_trivial():
    m = bd4()
    trivial = FinMatrix(m.labels, m.neg, m.top, m.bottom, range(m.n), m.flags,
                        meet=[[m.meet(x, y) for y in range(m.n)] for x in range(m.n)],
                        join=[[m.join(x, y) for y in range(m.n)] for x in range(m.n)])
    # a trivial matrix validates everything except explosive rules
    assert validates(trivial, parse_rule("|- p"))
    assert not validates(trivial, parse_rule("p |- "))
    almost = FinMatrix(m.labels, m.neg, m.top, m.bottom, [], m.flags,
                       meet=[[m.meet(x, y) for y in range(m.n)] for x in range(m.n)],
                       join=[[m.join(x, y) for y in range(m.n)] for x in range(m.n)])
    assert validates(almost, parse_rule("p |- "))
    assert not validates(almost, parse_rule("|- p"))


def test_product_counts():
    p = product([cl2(), cl2()])
    assert p.n == 4
    assert len(p.designated) == 1
    pq = product([etl4(), bd4()])
    assert validates(pq, parse_rule("p, ~p |- q"))
    assert not validates(pq, parse_rule("p, ~p|q |- q"))


def _rule_pool():
    texts = [
        "p, ~p|q |- q", "p|q, ~q|r |- p|r", "|- p|~p", "p, ~p |- q",
        "p & ~p | q |- q | ~q", "p |- p | q", "p & q |- p", "~p |- ~(p & q)",
        "p, q |- p & q", "|- T", "p & ~p |- ", "p & ~p | (q & ~q) |- ",
        "p | q |- q | p", "~~p |- p", "p |- ~~p", "p & ~p | q |- q",
        "|- p", "p |- q", "p, ~p | q | ~q |- q | ~q", "~(p | q) |- ~p",
    ]
    return [parse_rule(t) for t in texts]


def test_product_logic_decomposition():
    # validity in A x B agrees with: (valid in A and valid in B) or the
    # premises are an antitheorem of A or of B
    mats = [bd4(), k3(), lp3(), cl2(), etl4()]
    pool = _rule_pool()
    for a, b in itertools.product(mats, repeat=2):
        ab = product([a, b])
        for r in pool:
            expect = (validates(a, r) and validates(b, r)) \
                or validates(a, RuleInstance.explosive(r.premises)) \
                or validates(b, RuleInstance.explosive(r.premises))
            assert validates(ab, r) == expect, (a, b, str(r))


def test_submatrices_of_bd4():
    # oracle: closure check over all 16 subsets of the carrier
    m = bd4()
    closed = []
    for bits in range(16):
        s = {i for i in range(4) if bits >> i & 1}
        if m.top not in s or m.bottom not in s:
            continue
        if all(m.meet(x, y) in s and m.join(x, y) in s and m.neg[x] in s
               for x in s for y in s):
            closed.append(frozenset(s))
    assert len(closed) == 4  # {bot,top}, {bot,n,top}, {bot,b,top}, all
    subs = list(submatrices(m))
    assert len(subs) == 4
    assert sorted(s.n for s in subs) == sorted(len(c) for c in closed)
    assert any(find_isomorphism(s, k3()) for s in subs if s.n == 3)
    assert any(find_isomorphism(s, lp3()) for s in subs if s.n == 3)
    assert any(find_isomorphism(s, cl2()) for s in subs if s.n == 2)


def test_submatrices_of_cl2():
    assert [s.n for s in submatrices(cl2())] == [2]


def brute_leibniz(m):
    """Reference Leibniz congruence: pairwise separation propagation."""
    n = m.n
    sep = [[(x in m.designated) != (y in m.designated) for y in range(n)] for x in range(n)]
    changed = True
    while changed:
        changed = False
        for x in range(n):
            for y in range(n):
                if sep[x][y]:
                    continue
                if sep[m.neg[x]][m.neg[y]]:
                    sep[x][y] = True
                    changed = True
                    continue
                for c in range(n):
                    if sep[m.meet(x, c)][m.meet(y, c)] or sep[m.join(x, c)][m.join(y, c)]:
                        sep[x][y] = True
                        changed = True
                        break
    ids = []
    for x in range(n):
        ids.append(next(y for y in range(n) if not sep[x][y]))
    return Partition.of(ids)


def test_leibniz_matches_pairwise_reference():
    four_chain = FinMatrix(
        ["bot", "a", "b", "top"], [3, 2, 1, 0], 3, 0, [1, 2, 3], ["demorgan"],
        meet=[[0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]],
        join=[[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]])
    for m in [bd4(), k3(), lp3(), etl4(), kminus8(), four_chain,
              product([etl4(), bd4()])]:
        assert leibniz_congruence(m).blocks == brute_leibniz(m).blocks


def test_leibniz_examples():
    assert leibniz_congruence(etl4()).is_identity()
    m = bd4()
    trivial = FinMatrix(m.labels, m.neg, m.top, m.bottom, range(m.n), m.flags,
                        meet=[[m.meet(x, y) for y in range(m.n)] for x in range(m.n)],
                        join=[[m.join(x, y) for y in range(m.n)] for x in range(m.n)])
    assert leibniz_congruence(trivial).n_blocks == 1
    four_chain = FinMatrix(
        ["bot", "a", "b", "top"], [3, 2, 1, 0], 3, 0, [1, 2, 3], ["demorgan"],
        meet=[[0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]],
        join=[[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]])
    part = leibniz_congruence(four_chain)
    assert part.same(1, 2) and not part.same(0, 1)
    assert find_isomorphism(leibniz_reduct(four_chain), lp3()) is not None


def test_leibniz_reduct_properties():
    # reduced input -> isomorphic output; reduct of a product with a trivial
    # singleton collapses the trivial factor
    for m in catalog().values():
        red = leibniz_reduct(m)
        assert find_isomorphism(red, m) is not None
        assert leibniz_congruence(red).is_identity()
    one = FinMatrix(["*"], [0], 0, 0, [0], ["demorgan"], meet=[[0]], join=[[0]])
    assert find_isomorphism(leibniz_reduct(product([etl4(), one])), etl4()) is not None


def _sankappanavar_congruent(m, a, b, x, y):
    nb, na = m.neg[b], m.neg[a]
    return (
        m.meet(m.meet(x, a), nb) == m.meet(m.meet(y, a), nb)
        and m.join(m.meet(x, a), na) == m.join(m.meet(y, a), na)
        and m.join(m.join(x, b), na) == m.join(m.join(y, b), na)
        and m.meet(m.join(x, b), nb) == m.meet(m.join(y, b), nb)
    )


def test_principal_congruence_identity():
    m = bd4()
    for x in range(m.n):
        assert principal_congruence(m, x, x).is_identity()


def test_principal_congruence_matches_sankappanavar_on_dm4():
    # exhaustive cross-check of the closure computation against the
    # four-equation characterization, for all pairs a <= b
    m = bd4()
    for a in range(m.n):
        for b in range(m.n):
            if not m.leq(a, b):
                continue
            part = principal_congruence(m, a, b)
            for x in range(m.n):
                for y in range(m.n):
                    assert part.same(x, y) == _sankappanavar_congruent(m, a, b, x, y)


def test_principal_congruence_dm4_collapses():
    # theta(n, top) forces n ~ ~n = n with ~top = bot, so everything merges;
    # the Sankappanavar equations give the same answer (DM4 is simple)
    m = bd4()
    n_idx, top = m.labels.index("n"), m.top
    assert principal_congruence(m, n_idx, top).n_blocks == 1


def test_principal_congruence_nontrivial_case():
    # on the 20-element algebra of the two-generated free case there are
    # proper nontrivial principal congruences
    a, b = parse("a"), parse("b")
    m = free_dm_algebra(["a", "b"], [(a, parse("~a")), (b, parse("~b"))])
    ai = m.labels.index("a")
    bi = m.labels.index("b")
    part = principal_congruence(m, m.meet(ai, bi), ai)
    assert 1 < part.n_blocks < m.n


def test_find_isomorphism():
    assert find_isomorphism(cl2(), cl2()) == (0, 1)
    assert find_isomorphism(bd4(), k3()) is None
    assert find_isomorphism(bd4(), etl4()) is None  # same algebra, other filter
    iso = find_isomorphism(product([cl2(), k3()]), product([k3(), cl2()]))
    assert iso is not None
    assert is_matrix_isomorphism(product([cl2(), k3()]), product([k3(), cl2()]), iso)


def test_generic_isomorphism_checks_negation_fixpoints():
    # ETL4's n and b are negation fixpoints; CL2 x CL2 has none, so no
    # bijection between them preserves negation
    m1, m2 = etl4(), product([cl2(), cl2()])
    assert _find_isomorphism_generic(m1, m2) is None
    assert find_isomorphism(m1, m2) is None
    mapping = _find_isomorphism_generic(bd4(), bd4())
    assert mapping is not None and is_matrix_isomorphism(bd4(), bd4(), mapping)


def test_isomorphism_checks_negation_both_ways():
    # negation need not be an involution, so a mapping must also agree with
    # it at points mapped after their negation; here the identity does not
    # and swapping the two atoms does
    m1 = FinMatrix(list("0123"), [1, 2, 1, 3], 3, 0, [3], enc=[0, 1, 2, 3])
    m2 = FinMatrix(list("0123"), [2, 2, 1, 3], 3, 0, [3], enc=[0, 1, 2, 3])
    assert not is_matrix_isomorphism(m1, m2, (0, 1, 2, 3))
    for mapping in (_find_isomorphism_generic(m1, m2), find_isomorphism(m1, m2)):
        assert mapping == (0, 2, 1, 3) and is_matrix_isomorphism(m1, m2, mapping)


def _small_lattices():
    """Birkhoff masks (bottom first, top last) of lattices of 1-8 elements."""
    chains = [[(1 << k) - 1 for k in range(n)] for n in range(1, 9)]
    grids = [sorted(x | y << (a - 1) for x in chains[a - 1] for y in chains[b - 1])
             for a, b in ((2, 2), (2, 3), (2, 4), (3, 2))]
    return chains + grids + [list(range(8)), sorted(kminus8().enc)]


def test_isomorphism_against_all_permutations():
    # matrices of at most 8 elements with arbitrary negations and
    # designated sets, against every permutation of the carrier
    rng = random.Random(5)
    perms = {n: np.array(list(itertools.permutations(range(n)))) for n in range(1, 9)}
    found = missed = 0
    for enc in _small_lattices() * 12:
        n = len(enc)
        neg = [rng.randrange(n) for _ in range(n)]
        des = [x for x in range(n) if rng.random() < 0.4]
        m1 = FinMatrix([f"e{x}" for x in range(n)], neg, n - 1, 0, des, enc=enc)
        perm = list(range(n))
        rng.shuffle(perm)
        inv = {p: i for i, p in enumerate(perm)}
        # a relabelled copy, with one negation value changed, or with
        # another negation
        neg2 = list(neg)
        kind = rng.randrange(3)
        if kind == 1:
            neg2[rng.randrange(n)] = rng.randrange(n)
        elif kind == 2:
            neg2 = [rng.randrange(n) for _ in range(n)]
        m2 = FinMatrix([f"e{p}" for p in perm], [inv[neg2[p]] for p in perm],
                       inv[n - 1], inv[0], [inv[d] for d in des],
                       enc=[enc[p] for p in perm])
        le = [np.array([[m.leq(x, y) for y in range(n)] for x in range(n)]) for m in (m1, m2)]
        ng = [np.array(m.neg) for m in (m1, m2)]
        ds = [np.array([x in m.designated for x in range(n)]) for m in (m1, m2)]
        P = perms[n]
        ok = ((le[1][P[:, :, None], P[:, None, :]] == le[0]).all(axis=(1, 2))
              & (P[:, ng[0]] == ng[1][P]).all(axis=1) & (ds[1][P] == ds[0]).all(axis=1))
        isos = {tuple(row) for row in P[ok].tolist()}
        for mapping in (_find_isomorphism_generic(m1, m2), find_isomorphism(m1, m2)):
            assert (mapping is not None) == bool(isos)
            assert mapping is None or mapping in isos
        found += bool(isos)
        missed += not isos
    assert found > 40 and missed > 40


def test_generic_isomorphism_has_no_size_limit():
    # 1536 elements, above the operation tables' TABLE_LIMIT
    m = product([kminus8(), bd4(), bd4(), bd4(), k3()])
    rng = random.Random(1)
    perm = list(range(m.n))
    rng.shuffle(perm)
    inv = {p: i for i, p in enumerate(perm)}
    copy = FinMatrix([m.labels[p] for p in perm], [inv[m.neg[p]] for p in perm],
                     inv[m.top], inv[m.bottom], [inv[d] for d in m.designated],
                     m.flags, enc=[m.enc[p] for p in perm])
    assert m.n > 1500
    mp = np.array(_find_isomorphism_generic(m, copy))
    le = [(e[:, None] & e[None, :]) == e[:, None] for e in (m._enc_np(), copy._enc_np())]
    assert sorted(mp.tolist()) == list(range(m.n))
    assert np.array_equal(le[1][mp[:, None], mp[None, :]], le[0])
    assert np.array_equal(mp[np.array(m.neg)], np.array(copy.neg)[mp])
    assert {int(mp[d]) for d in m.designated} == set(copy.designated)


def test_split_at():
    p = product([cl2(), cl2()])
    a = p.labels.index("(top,bot)")
    m1, m2, w = split_at(p, a)
    assert find_isomorphism(m1, cl2()) and find_isomorphism(m2, cl2())
    assert is_matrix_isomorphism(p, product([m1, m2]), w)
    # degenerate split at the top
    m1, m2, _ = split_at(bd4(), bd4().top)
    assert (m1.n, m2.n) == (4, 1)
    # eligible elements only
    with pytest.raises(MatrixError):
        split_at(bd4(), bd4().labels.index("b"))
    # DM4 x DM4 at (top, bot): two DM4 blocks
    q = product([bd4(), bd4()])
    at = q.labels.index("(top,bot)")
    s1, s2, w2 = split_at(q, at)
    assert s1.n == s2.n == 4
    assert is_matrix_isomorphism(q, product([s1, s2]), w2)


def test_failed_self_checks_are_internal_errors(monkeypatch):
    from demorgan_lab import frame, matrix
    k3_copy = FinMatrix.from_json(k3().to_json())
    monkeypatch.setattr(frame, "frame_isomorphism", lambda p, q: (1, 0))  # reverses a chain
    with pytest.raises(RuntimeError, match="internal: dual frame isomorphism did not lift"):
        find_isomorphism(k3(), k3_copy)
    monkeypatch.setattr(matrix, "is_matrix_isomorphism", lambda m1, m2, mapping: False)
    with pytest.raises(RuntimeError, match="internal: split witness failed verification"):
        split_at(bd4(), bd4().top)


def test_split_at_all_eligible_catalog_elements():
    for m in catalog().values():
        for a in range(m.n):
            if m.join(a, m.neg[a]) == m.top:
                m1, m2, w = split_at(m, a)  # witness verified inside
                assert is_matrix_isomorphism(m, product([m1, m2]), w)


def test_free_algebra_counts():
    a, b = parse("a"), parse("b")
    assert free_dm_algebra(["a", "b"], [(b, a), (a, parse("~a|b"))]).n == 10
    assert free_dm_algebra(["a", "b"], [(a, parse("~a")), (b, parse("~b"))]).n == 20
    # frozen from the subdirect-power oracle (projection tuple in DM4^4)
    assert free_dm_algebra(["a"], []).n == 6
    with pytest.raises(MatrixError):
        free_dm_algebra(["a", "b", "c", "d"], [])


def test_demorgan_laws_verified_exhaustively():
    for m in catalog().values():
        assert "demorgan" in m.flags
        for x in range(m.n):
            assert m.neg[m.neg[x]] == x
            for y in range(m.n):
                assert m.neg[m.join(x, y)] == m.meet(m.neg[x], m.neg[y])


def test_designated_sets_are_filters():
    for m in catalog().values():
        assert m.is_bd_model()


def test_explosive_validity_antitone_in_designation():
    m = bd4()
    smaller = FinMatrix(m.labels, m.neg, m.top, m.bottom, [m.top], m.flags,
                        meet=[[m.meet(x, y) for y in range(m.n)] for x in range(m.n)],
                        join=[[m.join(x, y) for y in range(m.n)] for x in range(m.n)])
    for text in ["p, ~p |- ", "p & ~p |- ", "p |- "]:
        r = parse_rule(text)
        if validates(m, r):
            assert validates(smaller, r)


def pairwise_is_bd_model(m):
    """The pairwise filter test is_bd_model ran before it was one mask test."""
    des = m.designated
    if "demorgan" not in m.flags or not des or m.top not in des:
        return False
    return all(m.meet(a, b) in des for a in des for b in des) and all(
        x in des for a in des for x in range(m.n) if m.leq(a, x))


def pairwise_is_prime_filter(m):
    return pairwise_is_bd_model(m) and all(
        a in m.designated or b in m.designated
        for a in range(m.n) for b in range(m.n) if m.join(a, b) in m.designated)


def test_filter_tests_match_the_pairwise_loops():
    from demorgan_lab.frame import complex_matrix, random_frame
    from demorgan_lab.matrix import _filter_generator, dm4_algebra
    rng = random.Random(13)
    mats = list(catalog().values()) + [dm4_algebra()]
    mats += [complex_matrix(random_frame(rng, 5)) for _ in range(40)]
    seen = set()
    for m in mats:
        upset = lambda a: [x for x in range(m.n) if m.leq(a, x)]
        variants = [m.designated, [], range(m.n), upset(rng.randrange(m.n)),
                    rng.sample(range(m.n), rng.randint(1, m.n))]
        variants += [upset(j) for j in m.join_irreducibles()[:3]]
        for des in variants:
            for flags in (m.flags, ()):
                mm = FinMatrix(m.labels, m.neg, m.top, m.bottom, des, flags, enc=m.enc)
                want = (pairwise_is_bd_model(mm), pairwise_is_prime_filter(mm))
                assert (mm.is_bd_model(), mm.designated_is_prime_filter()) == want, \
                    (m.labels, sorted(des), flags)
                gen = _filter_generator(mm)
                assert (gen is not None) == want[0]
                if gen is not None:
                    assert gen == np.bitwise_and.reduce([mm.enc[d] for d in mm.designated])
                seen.add(want)
    assert seen == {(False, False), (True, False), (True, True)}


def test_to_json_matches_the_per_pair_tables(monkeypatch):
    from demorgan_lab import matrix
    from demorgan_lab.frame import Frame, complex_matrix

    def per_pair_json(m):
        return json.dumps({
            "elements": list(m.labels),
            "meet": [[m.meet(x, y) for y in range(m.n)] for x in range(m.n)],
            "join": [[m.join(x, y) for y in range(m.n)] for x in range(m.n)],
            "neg": list(m.neg), "top": m.top, "bottom": m.bottom,
            "designated": sorted(m.designated), "flags": sorted(m.flags),
        })

    # 512 elements, read in uneven blocks of rows; and masks over 64 bits
    monkeypatch.setattr(matrix, "_PAIR_CHUNK", 5000)
    antichain = complex_matrix(Frame([f"a{i}" for i in range(9)], [], list(range(9)), [3]))
    n = 70
    idx = np.arange(n)
    chain = FinMatrix([f"c{i}" for i in range(n)], [n - 1 - i for i in range(n)], n - 1, 0,
                      range(40, n), ["demorgan"],
                      meet=np.minimum.outer(idx, idx).tolist(),
                      join=np.maximum.outer(idx, idx).tolist())
    assert antichain.n == 512 and chain.nbits > 64
    for m in [antichain, chain, *catalog().values()]:
        assert m.to_json() == per_pair_json(m)


def test_json_roundtrip():
    for m in [bd4(), kminus8()]:
        m2 = FinMatrix.from_json(m.to_json())
        assert find_isomorphism(m, m2) is not None
    # the loader re-verifies flags: an identity "negation" is rejected
    with pytest.raises(MatrixError):
        bad = bd4().to_json().replace('"neg": [3, 1, 2, 0]', '"neg": [0, 1, 2, 3]')
        assert '"neg": [0, 1, 2, 3]' in bad
        FinMatrix.from_json(bad)


def test_matrix_map_checks():
    # the diagonal embedding of CL2 into CL2 x CL2 is a strict homomorphism
    p = product([cl2(), cl2()])
    h = tuple(p.labels.index(f"({l},{l})") for l in cl2().labels)
    mm = MatrixMap(cl2(), p, h)
    assert mm.is_homomorphism() and mm.is_strict()
    # collapsing BD4 onto CL2 by designation is not an algebra homomorphism
    bad = MatrixMap(bd4(), cl2(), (0, 0, 1, 1))
    assert not bad.is_homomorphism()


# -- entry validation and the trusted constructions ----------------------------


def _tables_of_order(n, leq):
    """Meet and join tables of a lattice order given as a predicate."""
    def bound(x, y, up):
        common = [z for z in range(n)
                  if (leq(x, z) and leq(y, z) if up else leq(z, x) and leq(z, y))]
        return next(z for z in common if all((leq(z, w) if up else leq(w, z)) for w in common))
    return ([[bound(x, y, False) for y in range(n)] for x in range(n)],
            [[bound(x, y, True) for y in range(n)] for x in range(n)])


def test_entry_rejects_non_distributive_lattices():
    # the diamond M3 and the pentagon N5, each as 0, a, b, c, 1
    m3 = {(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4), (0, 4)}
    n5 = {(0, 1), (1, 2), (2, 4), (0, 3), (3, 4), (0, 2), (1, 4), (0, 4)}
    for order, pair in ((m3, "'a', 'b'"), (n5, "'a', 'c'")):
        meet, join = _tables_of_order(5, lambda x, y: x == y or (x, y) in order)
        with pytest.raises(MatrixError, match=rf"not closed under \| at \({pair}\)"):
            FinMatrix(["0", "a", "b", "c", "1"], range(5), 4, 0, [4], meet=meet, join=join)


def test_entry_rejects_non_commutative_table():
    m = bd4()
    meet = m.meet_table().tolist()
    n, b = m.labels.index("n"), m.labels.index("b")
    meet[n][b] = b  # the order read off the table is unchanged
    with pytest.raises(MatrixError, match=r"meet table is not the lattice meet at \('n', 'b'\)"):
        FinMatrix(m.labels, m.neg, m.top, m.bottom, m.designated, m.flags,
                  meet=meet, join=m.join_table().tolist())


def test_entry_rejects_bad_encodings():
    labels = ["bot", "a", "b", "top"]
    with pytest.raises(MatrixError, match="not injective: 'a' and 'b'"):
        FinMatrix(labels, [3, 1, 2, 0], 3, 0, [3], enc=[0, 1, 1, 3])
    with pytest.raises(MatrixError, match=r"not closed under \| at \('a', 'b'\)"):
        FinMatrix(labels, [3, 1, 2, 0], 3, 0, [3], enc=[0, 1, 2, 7])
    with pytest.raises(MatrixError, match="bottom's mask"):
        FinMatrix(labels, [3, 1, 2, 0], 3, 0, [3], enc=[4, 1, 2, 7])
    with pytest.raises(MatrixError, match="tables or a powerset encoding, not both"):
        FinMatrix(["*"], [0], 0, 0, [0], meet=[[0]], join=[[0]], enc=[0])


def test_entry_rejects_involution_breaking_de_morgan():
    # the four-chain with an involution that fixes a and b
    chain = ["bot", "a", "b", "top"]
    with pytest.raises(MatrixError, match=r"De Morgan law .* at \('a', 'b'\)"):
        FinMatrix(chain, [3, 1, 2, 0], 3, 0, [3], ["demorgan"], enc=[0, 1, 3, 7])
    FinMatrix(chain, [3, 1, 2, 0], 3, 0, [3], enc=[0, 1, 3, 7])  # fine without the flag


def test_catalog_rejects_non_lattice_order():
    from demorgan_lab.matrix import _lattice_from_order
    with pytest.raises(MatrixError, match="'a' and 'b' have no join"):
        _lattice_from_order(("bot", "a", "b"), (("bot", "a"), ("bot", "b")),
                            (("bot", "a"), ("b", "b")), ["a"], "a", "bot")


def test_trusted_constructions_validate():
    from demorgan_lab.bridge import TriplePresentation, gamma, mu_triple
    from demorgan_lab.frame import complex_matrix, random_frame
    from demorgan_lab.graph import complete, cycle, loop_graph, point
    rng = random.Random(11)
    out = [complex_matrix(random_frame(rng, 8)) for _ in range(40)]
    assert max(m.n for m in out) > 100
    out += [product([etl4(), bd4()]), product([kminus8(), cl2(), k3()])]
    out += [leibniz_reduct(m) for m in out[:30]]
    out += list(submatrices(product([bd4(), cl2()])))
    for m in catalog().values():
        for a in range(m.n):
            if m.join(a, m.neg[a]) == m.top:
                out += split_at(m, a)[:2]
    a, b = parse("a"), parse("b")
    out += [free_dm_algebra(["a"]), free_dm_algebra(["a", "b"], [(b, a), (a, parse("~a|b"))])]
    out += [gamma(g) for g in (point(), loop_graph(), complete(3), cycle(4))]
    out += [mu_triple(TriplePresentation(complete(2), point(), 1))]
    for m in out:
        m.validate()


def _is_congruence(m, blocks):
    same = lambda x, y: blocks[x] == blocks[y]
    return all(
        same(m.neg[x], m.neg[y]) and (x in m.designated) == (y in m.designated)
        and all(same(m.meet(x, c), m.meet(y, c)) and same(m.join(x, c), m.join(y, c))
                for c in range(m.n))
        for x in range(m.n) for y in range(m.n) if same(x, y))


def test_quotient_checks_the_partition_completely():
    rng = random.Random(5)
    mats = list(catalog().values()) + [product([cl2(), k3()]), product([lp3(), cl2()])]
    accepted = rejected = 0
    for _ in range(400):
        m = rng.choice(mats)
        if rng.random() < 0.5:
            blocks = [rng.randrange(3) for _ in range(m.n)]
        else:  # a principal congruence, coarsened at random
            a, b = rng.randrange(m.n), rng.randrange(m.n)
            blocks = list(principal_congruence(m, a, b).blocks)
            blocks = [x if rng.random() < 0.8 else 0 for x in blocks]
        part = Partition.of(blocks)
        if _is_congruence(m, part.blocks):
            q = quotient_by(m, part)
            q.validate()
            assert MatrixMap(m, q, part.blocks).is_strict()
            accepted += 1
        else:
            with pytest.raises(MatrixError):
                quotient_by(m, part)
            rejected += 1
    assert accepted > 50 and rejected > 50


def test_quotient_rejects_named_failures():
    m = bd4()  # bot, n, b, top with b and top designated
    # bot ~ n respects designation, but bot | b = b and n | b = top differ
    with pytest.raises(MatrixError, match="not a lattice congruence"):
        quotient_by(m, Partition.of([0, 0, 1, 2]))
    # {bot, n} and {b, top} is a lattice congruence, but ~bot = top, ~n = n
    with pytest.raises(MatrixError, match="negation"):
        quotient_by(m, Partition.of([0, 0, 1, 1]))


def test_chain_above_64_mask_bits():
    # 66 elements from tables: 65 join-irreducibles, so 65 mask bits and
    # the paths for masks wider than a machine word
    n = 66
    idx = np.arange(n)
    m = FinMatrix([f"c{i}" for i in range(n)], [n - 1 - i for i in range(n)], n - 1, 0,
                  range(40, n), ["demorgan"],
                  meet=np.minimum.outer(idx, idx).tolist(),
                  join=np.maximum.outer(idx, idx).tolist())
    assert m.nbits == 65
    assert np.array_equal(m.meet_table(), np.minimum.outer(idx, idx))
    assert np.array_equal(m.join_table(), np.maximum.outer(idx, idx))
    for text in ["p, ~p|q |- q", "|- p|~p", "p & ~p |- q | ~q", "p |- p & ~p"]:
        r = parse_rule(text)
        assert validates(m, r) == brute_validates(m, r), text
    assert leibniz_congruence(m) == brute_leibniz(m)
    # the order search reads the order off masks wider than 64 bits too
    copy = FinMatrix(m.labels[::-1], [n - 1 - x for x in m.neg[::-1]], 0, n - 1,
                     [n - 1 - d for d in m.designated], m.flags, enc=m.enc[::-1])
    mapping = find_isomorphism(m, copy)
    assert mapping == tuple(range(n - 1, -1, -1)) and is_matrix_isomorphism(m, copy, mapping)
