import collections
import hashlib
import itertools
import json
import math
import random

import numpy as np
import pytest

from demorgan_lab._constructions import _find_isomorphism_generic
from demorgan_lab.formula import BOT, TOP, And, Atom, Neg, Or, RuleInstance, parse, parse_rule
from demorgan_lab.frame import complex_matrix, dual_frame, random_frame
from demorgan_lab.matrix import (
    TABLE_LIMIT, FinMatrix, MatrixError, MatrixMap, Partition, _leibniz_refine,
    bd4, catalog, cl2, dm4_algebra, etl4, evaluate, find_countervaluation,
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
    if isinstance(f, Neg):
        return struct_atoms(f.arg)
    if isinstance(f, (And, Or)):
        return struct_atoms(f.left) | struct_atoms(f.right)
    return set()


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

# rules that the sweep program factors (formula._regrouped): disjuncts
# sharing their first-atom literals, nested shares, a disjunct equal to the
# shared part (absorption; in the third rule it drops s, so the rule is
# swept as written), the dual & of |, and constant operands
FACTOR_RULES = [
    "p & q & ~r | ~p & r & s | q & ~s & p | ~q & ~p |- r & ~p | s & p & q",
    "p | p & ~s | q & s, r |- ~r | ~q", "p & ~s | p, q |- ~r",
    "p & q & r | p & q & s | p & ~q |- r & s | ~p & s",
    "(p | q) & (p | ~r) & (~p | s) |- (~p | q) & (r | ~p | s), p & (p | r)",
    "p & T | p & q | F & ~p |- q & T | q & F, (T | r) & (T | ~s)",
]

SWEEP_RULES = RULES + [
    "|- ", "T |- F", "|- p, q, r", "p, q, r, s |- ", "p, q, r, s |- p & q & r & s",
    "p|q, ~q|r, r|s |- p|s", "~p, ~q |- ~(p|q), r", "p & q, r |- s, ~s",
] + SPLIT_RULES + FACTOR_RULES


def block_sizes(monkeypatch):
    """A list that collects the number of valuations of each block that
    the numpy block sweep folds, so that a test sees its block sizes take
    effect."""
    from demorgan_lab import _sweep
    sizes = []
    real = _sweep._Engine.first_bad

    def first_bad(eng, prog, leaves, ws=None):
        sizes.append(math.prod(np.broadcast_shapes(*map(np.shape, leaves))))
        return real(eng, prog, leaves, ws)

    monkeypatch.setattr(_sweep._Engine, "first_bad", first_bad)
    return sizes


def tiny_blocks(monkeypatch):
    """Blocks of 1, 2, 4 and then 7 valuations, and every grid through the
    numpy block sweep; returns block_sizes' list."""
    from demorgan_lab import _sweep, matrix
    monkeypatch.setattr(_sweep, "_FIRST_BLOCK", 1)
    monkeypatch.setattr(_sweep, "_BLOCK_CAP", 7)
    monkeypatch.setattr(matrix, "_packed", no_packing)
    return block_sizes(monkeypatch)


def no_packing(m):
    """matrix._packed for a test that sends every grid to the numpy block
    sweep."""
    return None


def whole_grids(monkeypatch):
    """Packed blocks as big as any grid: both caps raised, and each
    matrix's _Packed built afresh, so that it reads them."""
    from demorgan_lab import matrix
    monkeypatch.setattr(matrix, "_PACKED_BLOCK", 1 << 40)
    monkeypatch.setattr(matrix, "_PACKED_BLOCK_BITS", 1 << 40)
    monkeypatch.setattr(matrix, "_packed", matrix._Packed.of)


def sweep_matrices():
    """The catalog, two products, the complex matrices of eight random
    5-point frames and, last, that of a 17-point chain (17 mask bits)."""
    from demorgan_lab.frame import Frame
    rng = random.Random(7)
    mats = list(catalog().values()) + [product([cl2(), lp3()]), product([etl4(), bd4()])]
    mats += [complex_matrix(random_frame(rng, 5)) for _ in range(8)]
    mats.append(complex_matrix(Frame([f"c{i}" for i in range(17)],
                                     [(i, j) for i in range(17) for j in range(i, 17)],
                                     [16 - i for i in range(17)], range(5, 17))))
    return mats


def test_sweep_blocks_keep_the_least_witness(monkeypatch):
    # blocks of 1, 2, 4 and then 7 valuations: every kind of block boundary
    # (ranged atom, realignment, capped blocks) falls inside small grids
    from demorgan_lab import _sweep
    sizes = tiny_blocks(monkeypatch)
    mats = sweep_matrices()
    c17 = mats[-1]
    assert c17.nbits == 17 and _sweep._engine(c17).ranks is not None
    # the helper chain() builds the same matrix from its masks
    fields = ("enc", "neg", "top", "bottom", "designated", "flags")
    assert [getattr(c17, x) for x in fields] == [getattr(chain(17), x) for x in fields]
    rules = [parse_rule(t) for t in SWEEP_RULES]
    assert {len(r.atom_names()) for r in rules} == {0, 1, 2, 3, 4}
    checked = 0
    for m in mats:
        for r in rules:
            if m.n ** len(r.atom_names()) <= 6000:
                assert find_countervaluation(m, r) == brute_witness(m, r), (m.labels, str(r))
                checked += 1
    assert checked > 250 and max(sizes) == 7


def chain(points):
    """The complex matrix of a chain of points, designating the upsets that
    hold the points from 5 on, built from its masks: element i is the upset
    of the i greatest points, one mask bit per point.  So 9-16 points sweep
    over uint16 values with lookups indexed by the mask, 17-32 over uint32
    and 33-64 over uint64 values with lookups by rank, and more over Python
    ints in object arrays."""
    full = (1 << points) - 1
    m = FinMatrix([f"c{i}" for i in range(points + 1)], [points - i for i in range(points + 1)],
                  points, 0, range(points - 5, points + 1), ["demorgan"],
                  enc=[full ^ ((1 << (points - i)) - 1) for i in range(points + 1)])
    assert m.nbits == points
    return m


def check_sweep_folds_constants_negated_compounds_and_shared_subformulas():
    from demorgan_lab import _sweep
    c12 = chain(12)
    # the same algebra with top alone designated: designation by comparison
    top12 = FinMatrix(c12.labels, c12.neg, c12.top, c12.bottom, [c12.top], c12.flags,
                      enc=c12.enc)
    mats = list(catalog().values()) + [c12, top12, chain(17)]
    dtypes = {_sweep._engine(m).values.dtype.name for m in mats}
    assert dtypes == {"uint8", "uint16", "uint32"}  # uint32: lookups by rank
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
            verdicts.add((_sweep._engine(m).ranks is None, w is None))
    assert verdicts == {(True, True), (True, False), (False, True), (False, False)}


def test_sweep_folds_constants_negated_compounds_and_shared_subformulas():
    check_sweep_folds_constants_negated_compounds_and_shared_subformulas()


def test_sweep_folds_shared_subformulas_in_tiny_blocks(monkeypatch):
    # blocks of 1, 2, 4 and then 7 valuations: the blocks after the first
    # write in place through the workspace, where they meet shared
    # subformula objects, T and F, 0-d leaves of leading atoms and premises
    # over different atom sets
    from demorgan_lab import _sweep
    sizes = tiny_blocks(monkeypatch)
    buffers = []
    real = _sweep._Workspace._buffer
    monkeypatch.setattr(_sweep._Workspace, "_buffer", lambda ws: buffers.append(1) or real(ws))
    check_sweep_folds_constants_negated_compounds_and_shared_subformulas()
    assert buffers and max(sizes) == 7


def test_sweep_crossing_the_block_cap_agrees_with_hom_search(monkeypatch):
    from demorgan_lab import _sweep
    from demorgan_lab.bridge import alpha_rule, mu_plus
    from demorgan_lab.graph import Graph, complete, cycle, hom_search
    # K4 has no homomorphism to C4, so the whole 35^4 grid is swept; the
    # second pair's witness lies near the end of its 41^4 grid
    loops = Graph("abcd", [(0, 0), (1, 1), (2, 2), (3, 3), (0, 1), (0, 3), (1, 2)])
    target = Graph("abcd", [(0, 0), (0, 1), (0, 3), (1, 2)])
    for h, g in [(complete(4), cycle(4)), (loops, target)]:
        m, r = mu_plus(h), alpha_rule(g)
        assert m.n ** len(r.atom_names()) > 2 * _sweep._BLOCK_CAP
        w = find_countervaluation(m, r)
        assert (w is None) == (hom_search(h, g) is None)
    assert w is not None and all(evaluate(m, w, f) in m.designated for f in r.premises)
    # the same witness from blocks of whole 41^3 slices
    monkeypatch.setattr(_sweep, "_FIRST_BLOCK", m.n ** 3)
    monkeypatch.setattr(_sweep, "_BLOCK_CAP", m.n ** 3)
    sizes = block_sizes(monkeypatch)
    assert find_countervaluation(m, r) == w
    assert len(sizes) > 1 and set(sizes) == {m.n ** 3}


def test_sweep_allocates_buffers_per_sweep_not_per_block(monkeypatch):
    from demorgan_lab import _sweep
    from demorgan_lab.bridge import alpha_rule, mu_plus
    from demorgan_lab.graph import complete, cycle
    m, r = mu_plus(complete(4)), alpha_rule(cycle(4))  # valid: the whole 35^4 grid
    buffers, blocks = [], []
    real_buffer, real_start = _sweep._Workspace._buffer, _sweep._Workspace.start
    monkeypatch.setattr(_sweep._Workspace, "_buffer",
                        lambda ws: buffers.append(1) or real_buffer(ws))
    monkeypatch.setattr(_sweep._Workspace, "start",
                        lambda ws, shape: blocks.append(shape) or real_start(ws, shape))

    def sweep(first: int, cap: int) -> tuple[int, int]:
        monkeypatch.setattr(_sweep, "_FIRST_BLOCK", first)
        monkeypatch.setattr(_sweep, "_BLOCK_CAP", cap)
        buffers.clear()
        blocks.clear()
        assert find_countervaluation(m, r) is None
        return len(buffers), 1 + len(blocks)

    default = (_sweep._FIRST_BLOCK, _sweep._BLOCK_CAP)
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
    # after the first and folds the split program, with lookups indexed by
    # the mask and by its rank
    from demorgan_lab import _sweep
    sizes = tiny_blocks(monkeypatch)
    mats = [bd4(), k3(), lp3(), etl4(), product([cl2(), lp3()]), chain(12), chain(17)]
    rules = split_rules()
    modes = set()
    for m in mats:
        for r in rules:
            if m.n ** len(r.atom_names()) <= 6000:
                assert find_countervaluation(m, r) == brute_witness(m, r), (m.labels, str(r))
                modes.add(_sweep._engine(m).ranks is None)
    assert modes == {True, False} and max(sizes) == 7
    for r in rules:
        assert any(inner.nodes for inner, _ in r.__dict__.get("_splits", ())), str(r)


def spread(m, step):
    """m with mask bit b moved to bit step * b: the same matrix, on wider
    masks."""
    enc = [sum(1 << step * b for b in range(m.nbits) if x >> b & 1) for x in m.enc]
    return FinMatrix._trusted(m.label, m.neg, m.top, m.bottom, m.designated, m.flags, enc)


def test_wide_mask_sweeps_keep_the_least_witness(monkeypatch):
    # blocks of 1, 2, 4 and then 7 valuations on masks of 33 and 40 bits
    # (uint64 values, written through the workspace) and of more than 64
    # bits (object arrays of Python ints, fresh arrays in every block):
    # chains against brute force, and the 12-point chain re-encoded on
    # wider masks against the same chain on uint16 masks
    from demorgan_lab import _sweep
    sizes = tiny_blocks(monkeypatch)
    starts = []
    real_start = _sweep._Workspace.start
    monkeypatch.setattr(_sweep._Workspace, "start",
                        lambda ws, shape: starts.append(1) or real_start(ws, shape))
    rules = [parse_rule(t) for t in SWEEP_RULES] + split_rules()[len(SPLIT_RULES):]
    c12 = chain(12)
    cases = [(chain(points), brute_witness) for points in (33, 40, 70)]
    cases += [(spread(c12, step), lambda _, r: find_countervaluation(c12, r))
              for step in (3, 6)]
    for m, oracle in cases:
        wide = _sweep._engine(m).values.dtype == object
        assert m.nbits > 64 if wide else _sweep._engine(m).values.dtype.name == "uint64"
        checked = through_workspace = 0
        for r in rules:
            if m.n ** len(r.atom_names()) <= 6000:
                want = oracle(m, r)
                starts.clear()
                assert find_countervaluation(m, r) == want, (m.nbits, str(r))
                checked += 1
                through_workspace += bool(starts)
        assert checked >= 11 and bool(through_workspace) != wide, m.nbits
    assert max(sizes) == 7


def test_packed_and_numpy_sweeps_keep_the_least_witness(monkeypatch):
    # every rule on every matrix through both paths: the packed sweep for
    # every grid (caps above every grid) and for none
    from demorgan_lab import matrix
    from demorgan_lab.frame import complex_matrix, random_frame
    rng = random.Random(13)
    mats = list(catalog().values()) + [product([cl2(), lp3()]), product([etl4(), bd4()]),
                                       product([cl2(), bd4()]), product([k3(), k3()])]
    mats += [complex_matrix(random_frame(rng, points)) for points in (1, 2, 3, 4, 4, 5, 5, 6)]
    mats += [chain(12), chain(17)]
    assert all(matrix._Packed.of(m) is not None for m in mats)
    packed = []
    real = matrix._Packed.violation
    monkeypatch.setattr(matrix._Packed, "violation",
                        lambda p, prog, block: packed.append(1) or real(p, prog, block))
    whole_grids(monkeypatch)
    rules = [parse_rule(t) for t in SWEEP_RULES] + split_rules()
    checked = 0
    for m in mats:
        for r in rules:
            if m.n ** len(r.atom_names()) <= 4096:
                want = brute_witness(m, r)
                for packing, runs in ((matrix._Packed.of, 1), (no_packing, 0)):
                    monkeypatch.setattr(matrix, "_packed", packing)
                    packed.clear()
                    assert find_countervaluation(m, r) == want, (runs, m.labels, str(r))
                    assert len(packed) == runs
                checked += 1
    assert checked > 300


def test_packed_sweep_falls_back_to_the_numpy_engine(monkeypatch):
    # no `demorgan` flag; the 17-point chain with bit b at bit 4b, whose
    # negation permutes no planes (the planes between are empty); and a
    # designated set that is no filter
    from demorgan_lab import _sweep, matrix
    c17 = chain(17)
    flagless = FinMatrix._trusted(c17.label, c17.neg, c17.top, c17.bottom, c17.designated,
                                  [], c17.enc)
    wide = spread(c17, 4)
    nofilter = FinMatrix._trusted(c17.label, c17.neg, c17.top, c17.bottom, [3, c17.top],
                                  c17.flags, c17.enc)
    whole_grids(monkeypatch)
    engines = []
    real = _sweep._engine
    monkeypatch.setattr(_sweep, "_engine", lambda m: engines.append(m) or real(m))
    rules = [parse_rule(t) for t in SWEEP_RULES]
    for m in (flagless, wide, nofilter):
        assert matrix._Packed.of(m) is None
        for r in rules:
            if m.n ** len(r.atom_names()) <= 400:
                engines.clear()
                assert find_countervaluation(m, r) == brute_witness(m, r), str(r)
                assert engines == [m]
    # the same chain packs
    assert matrix._Packed.of(c17).invol == list(range(16, -1, -1))


def packed_blocks(monkeypatch, bits):
    """Every grid of at least one valuation through a packed first block
    of at most _PACKED_BLOCK valuations and `bits` plane bits (then the
    numpy blocks on a miss, when the block is not the whole grid); each
    matrix's _Packed is built afresh, so it reads the bounds set.  Returns
    a list collecting the size and the witness (None on a miss) of each
    packed block folded."""
    from demorgan_lab import matrix
    monkeypatch.setattr(matrix, "_FIRST_BLOCK", 0)
    monkeypatch.setattr(matrix, "_PACKED_BLOCK_BITS", bits)
    monkeypatch.setattr(matrix, "_packed", matrix._Packed.of)
    folded = []
    real = matrix._Packed.violation

    def violation(packed, prog, block):
        got = real(packed, prog, block)
        folded.append((block[2].bit_length(), got))
        return got

    monkeypatch.setattr(matrix._Packed, "violation", violation)
    return folded


def offset(w, n):
    """The position of the valuation w in the sweep's lexicographic order."""
    at = 0
    for name in sorted(w):
        at = at * n + w[name]
    return at


def test_packed_first_block_keeps_the_least_witness(monkeypatch):
    # packed first blocks of at most 1, 5, 40 or 300 valuations and 2^8
    # plane bits (15 valuations on the 17-bit chain): witnesses inside the
    # block, on its last valuation, on the first one after it and later,
    # and valid rules
    from demorgan_lab import matrix
    folded = packed_blocks(monkeypatch, 1 << 8)
    rules = [parse_rule(t) for t in SWEEP_RULES]
    where = collections.Counter()
    for m in sweep_matrices():
        assert matrix._Packed.of(m) is not None
        for r in rules:
            if m.n ** len(r.atom_names()) > 6000:
                continue
            want = brute_witness(m, r)
            for block in (1, 5, 40, 300):
                monkeypatch.setattr(matrix, "_PACKED_BLOCK", block)
                folded.clear()
                assert find_countervaluation(m, r) == want, (block, m.labels, str(r))
                ((size, got),) = folded
                assert size <= max(1, min(block, 256 // m.nbits))
                at = None if want is None else offset(want, m.n)
                assert got == (want if at is not None and at < size else None)
                where["valid" if at is None else "last" if at == size - 1 else
                      "next" if at == size else "inside" if at < size else "later"] += 1
    assert min(where[x] for x in ("valid", "inside", "last", "next", "later")) >= 20, where


def test_packed_first_block_on_alpha_rules_agrees_with_the_numpy_sweep():
    # a seeded sample of alpha rules on mu_plus matrices of graphs of at
    # most 4 vertices, grids above _FIRST_BLOCK valuations at the
    # default bounds: a witness in the packed first block and one found by
    # the numpy blocks after a miss are those of the numpy sweep alone
    from demorgan_lab import _sweep, matrix
    from demorgan_lab.bridge import alpha_rule, mu_plus
    from demorgan_lab.graph import all_graphs
    graphs = all_graphs(4, allow_isolated=False)
    rng = random.Random(28)
    hits = misses = 0
    for h, g in rng.sample([(h, g) for h in graphs for g in graphs], 60):
        m, r = mu_plus(h), alpha_rule(g)
        if m.n ** len(r.atom_names()) <= matrix._FIRST_BLOCK:
            continue
        packed = matrix._packed(m)
        block = packed.block(len(r.atom_names()))
        assert not block[4]  # not the whole grid
        in_block = packed.violation(r.program(), block)
        want = _sweep.violation(m, r)
        assert find_countervaluation(m, r) == want, (h, g)
        if in_block is None:
            misses += 1
        else:
            assert in_block == want
            hits += 1
    assert hits >= 5 and misses >= 5, (hits, misses)


def test_packed_routes_over_the_three_bands(monkeypatch):
    # at the default bounds: a grid that its packed block covers folds that
    # block alone, on a matrix of one element too; the 17-point chain at 3
    # atoms (5832 valuations, more than its block, at most _FIRST_BLOCK)
    # goes straight to numpy; and an alpha pair above _FIRST_BLOCK folds
    # its block, then on a miss numpy
    from demorgan_lab import _sweep, matrix
    from demorgan_lab.bridge import alpha_rule, mu_plus
    from demorgan_lab.frame import Frame
    from demorgan_lab.graph import Graph
    folded, numpy = [], []
    real_packed, real_numpy = matrix._Packed.violation, _sweep.violation
    monkeypatch.setattr(matrix._Packed, "violation", lambda p, prog, block: (
        folded.append(block[4]) or real_packed(p, prog, block)))
    monkeypatch.setattr(_sweep, "violation", lambda m, r: numpy.append(1) or real_numpy(m, r))

    def route(m, r, want):
        folded.clear()
        numpy.clear()
        assert find_countervaluation(m, r) == want, (m.labels, str(r))
        return folded[:], len(numpy)

    rules = [parse_rule(t) for t in ("p, ~p | q |- q", "p & ~p |- q", "p, q |- p & ~q",
                                     "p | q, ~p |- q", "|- p, ~p", "T |- F")]
    one = complex_matrix(Frame([], [], [], []))  # one element, no mask planes
    assert one.n == 1 and one.nbits == 0
    for m in (one, bd4(), etl4(), chain(17)):
        for r in rules:
            assert route(m, r, brute_witness(m, r)) == ([True], 0)
    c17 = chain(17)
    assert not matrix._packed(c17).block(3)[4] and 17 ** 3 <= matrix._FIRST_BLOCK
    for text in ("p, q, r |- p & q & r", "p, q, r |- ~p | ~q | r", "p, ~q, r |- q"):
        r = parse_rule(text)
        assert route(c17, r, brute_witness(c17, r)) == ([], 1)
    h = Graph("abc", [(0, 2), (1, 1)])
    m = mu_plus(h)
    for g, band in [(h, ([False], 0)), (Graph("abc", [(0, 0), (0, 1), (0, 2)]), ([False], 1))]:
        r = alpha_rule(g)
        assert m.n ** len(r.atom_names()) > matrix._FIRST_BLOCK
        want = real_numpy(m, r)
        assert want is not None and route(m, r, want) == band


def test_filter_designation_compares_masks_at_every_width(monkeypatch):
    # chains whose designated sets are filters of several elements: the
    # numpy engine tests (a & g) == g, no rank lookup, on uint32, uint64 and
    # object masks, in blocks of 1, 2, 4 and then 7 valuations; the packed
    # sweep ANDs g's planes, on blocks as big as the grid
    from demorgan_lab import _sweep, matrix
    sizes = tiny_blocks(monkeypatch)
    whole_grids(monkeypatch)
    rules = [parse_rule(t) for t in SWEEP_RULES] + split_rules()[len(SPLIT_RULES):]
    for points in (17, 33, 40, 70):
        m = chain(points)
        eng = _sweep._engine(m)
        assert len(m.designated) > 1 and eng.ranks is not None
        assert eng.des_g == eng.des_v == m._designated_meet()
        eng.des = eng.undes = None  # the lookups are not called
        checked = 0
        for r in rules:
            if m.n ** len(r.atom_names()) <= 6000:
                want = brute_witness(m, r)
                for packing in (no_packing, matrix._Packed.of):
                    monkeypatch.setattr(matrix, "_packed", packing)
                    assert find_countervaluation(m, r) == want, (points, packing, str(r))
                checked += 1
        assert checked >= 11
    assert max(sizes) == 7


def test_sweep_has_no_carrier_size_limit():
    # 2304 elements and 24 mask bits, above TABLE_LIMIT: the sweep needs no
    # operation table
    m = product([chain(17)] + [cl2()] * 7)
    assert m.n == 2304 > TABLE_LIMIT and m.nbits == 24
    assert validates(m, parse_rule("p, ~p | q |- q"))
    r = parse_rule("p, ~p | p |- ~p & (p | ~p)")
    w = find_countervaluation(m, r)
    assert w is not None and w == brute_witness(m, r)
    assert all(evaluate(m, w, f) in m.designated for f in r.premises)
    assert not any(evaluate(m, w, f) in m.designated for f in r.conclusions)
    with pytest.raises(MatrixError, match="refusing to materialize"):
        m.meet_table()


def test_one_block_sweeps_build_no_sweep_program():
    # a grid of at most _FIRST_BLOCK valuations folds r.program() alone: the
    # per-call cost of thousands of small checks
    from demorgan_lab import _sweep
    from demorgan_lab.logics import clause_pool
    cases = [(m, r) for m in (bd4(), product([cl2(), lp3()]), chain(17))
             for r in clause_pool()[::97]]
    cases.append((chain(10), parse_rule("p, q, r, s |- p & q & r & s")))
    for m, r in cases:
        assert m.n ** len(r.atom_names()) <= _sweep._FIRST_BLOCK
        validates(m, r)
        assert "_sweep_program" not in r.__dict__ and "_splits" not in r.__dict__, str(r)
    # one more element makes the last grid two blocks
    r = parse_rule("p, q, r, s |- p & q & r & s")
    assert validates(chain(11), r) and "_sweep_program" in r.__dict__


def inner_folds(monkeypatch, r):
    """A list that collects, for each fold of one of r's inner programs,
    the split's first leaf and the leaves from it on, as bytes."""
    from demorgan_lab import _sweep
    seen = []
    real = _sweep.fold

    def fold(prog, leaves, *ops):
        firsts = [s for s, (inner, _) in enumerate(r.__dict__.get("_splits", ()), 1)
                  if inner is prog]
        if firsts:
            s = firsts[0]
            seen.append((s, tuple((np.shape(x), np.asarray(x).tobytes()) for x in leaves[s:])))
        return real(prog, leaves, *ops)

    monkeypatch.setattr(_sweep, "fold", fold)
    return seen


def test_hoisted_subformulas_are_folded_once_per_block_shape(monkeypatch):
    from demorgan_lab import _sweep
    from demorgan_lab.bridge import alpha_rule, mu_plus
    from demorgan_lab.graph import complete, cycle
    m, r = mu_plus(complete(4)), alpha_rule(cycle(4))  # valid: the whole 35^4 grid
    seen = inner_folds(monkeypatch, r)
    blocks = []
    real_start = _sweep._Workspace.start
    monkeypatch.setattr(_sweep._Workspace, "start",
                        lambda ws, shape: blocks.append(shape) or real_start(ws, shape))
    for first, cap in [(_sweep._FIRST_BLOCK, _sweep._BLOCK_CAP), (m.n ** 3, m.n ** 3)]:
        monkeypatch.setattr(_sweep, "_FIRST_BLOCK", first)
        monkeypatch.setattr(_sweep, "_BLOCK_CAP", cap)
        seen.clear()
        blocks.clear()
        assert find_countervaluation(m, r) is None
        # each block shape's inner values are computed from its leaves once
        assert seen and len(set(seen)) == len(seen) < len(blocks), (first, cap)
    # 35 one-slice blocks: the 34 after the first share one shape
    assert len(blocks) == 34 and len(seen) == 1


def test_memo_cap_recomputes_with_the_same_witnesses(monkeypatch):
    from demorgan_lab import _sweep
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
    monkeypatch.setattr(_sweep, "_MEMO_CAP", 0)
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


def hoisted_operations(r):
    """The operations of r's outer program at split 1 with an operand that
    reads a hoisted value: in the blocks that range atom 1, the operations
    on block-shaped values."""
    from demorgan_lab.formula import fold
    outer = r.sweep_split(1)[1]
    count = 0

    def op(*reads):
        nonlocal count
        count += any(reads)
        return any(reads)

    k = len(outer.names)
    fold(outer, [False] * k + [True] * (max(outer.nodes) + 1 - k), lambda a: a, op, op,
         False, False)
    return count


def test_sweep_program_regroups_exactly():
    from demorgan_lab import _sweep
    from demorgan_lab.formula import _regrouped, fold, substitute
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
    eng = _sweep._engine(c17)
    assert eng.ranks is not None
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
    assert r.sweep_split(1)[1].nodes == (5, 0, 0, _NEG, _AND, 4, 0, _NEG, _AND, _OR, _OR)
    # the 4-atom alpha rules: the disjuncts with ~pv0 alone at leaf 0 share
    # it, so at most 4 operations per block read a hoisted value (7 for the
    # heaviest without the factoring)
    from demorgan_lab.bridge import alpha_rule
    from demorgan_lab.graph import all_graphs
    alphas = [alpha_rule(g) for g in all_graphs(4, allow_isolated=False)]
    assert max(map(hoisted_operations, alphas)) <= 4
    r = parse_rule("p & q & r | p & q & s | p & ~q | ~p |-")
    assert str(_regrouped(*r.premises, {"p": 0, "q": 1, "r": 2, "s": 3})[0]) == \
        "((s | r) & q | ~q) & p | ~p"
    assert [(str(r), r.atom_names(), [substitute(f, sub) for f in r.premises | r.conclusions])
            for r in rules] == before


def test_rule_programs_and_sweep_programs_are_frozen():
    # the programs and sweep programs of the rule pools, the alpha rules of
    # the 4-vertex graphs and seeded random rules: a change to compiling or
    # to regrouping that moves one node of one of them shows here
    from demorgan_lab.bridge import alpha_rule
    from demorgan_lab.graph import all_graphs
    from demorgan_lab.logics import clause_pool, mc_pool, named_rules, probe_pool
    rng = random.Random(23)
    names = ["s", "q", "p", "r", "t"]
    rules = clause_pool() + mc_pool() + probe_pool() + list(named_rules().values())
    rules += [alpha_rule(g) for g in all_graphs(4, allow_isolated=False)]
    for _ in range(200):
        pool = []
        side = lambda: [random_formula(rng, names, rng.randint(1, 6), pool)
                        for _ in range(rng.randint(0, 3))]
        rules.append(RuleInstance.of(side(), side()))
    digest = hashlib.sha256()
    for r in rules:
        digest.update(repr((r.program(), r.sweep_program())).encode())
    assert len(rules) == 5915 and digest.hexdigest()[:16] == "72f1939cf9a0dcd1"


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
    # oracle: closure check over all subsets of the carrier, on BD4 and on
    # two larger matrices; the sizes are listed in submatrices' order
    cases = [(bd4(), [2, 3, 3, 4]),
             (product([bd4(), cl2()]), [2, 4, 4, 4, 6, 6, 8]),
             (kminus8(), [2, 4, 4, 3, 3, 7, 5, 5, 8, 5, 6])]
    for m, sizes in cases:
        closed = []
        for bits in range(1 << m.n):
            s = {i for i in range(m.n) if bits >> i & 1}
            if m.top not in s or m.bottom not in s:
                continue
            if all(m.meet(x, y) in s and m.join(x, y) in s and m.neg[x] in s
                   for x in s for y in s):
                closed.append(frozenset(s))
        subs = list(submatrices(m))
        assert [s.n for s in subs] == sizes
        assert sorted(s.n for s in subs) == sorted(len(c) for c in closed)
        # each submatrix is the induced one on a closed subset, once
        got = {frozenset(m.enc.index(e) for e in s.enc) for s in subs}
        assert got == set(closed) and len(got) == len(subs)
        assert all(s.labels == tuple(m.labels[m.enc.index(e)] for e in s.enc) for s in subs)
    subs = list(submatrices(bd4()))
    assert len(subs) == 4  # {bot,top}, {bot,n,top}, {bot,b,top}, all
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


def test_catalog_masks_from_the_hasse_diagrams():
    encs = {name: m.enc for name, m in catalog().items()}
    encs["DM4"] = dm4_algebra().enc
    assert encs == {"BD4": (0, 1, 2, 3), "K3": (0, 1, 3), "LP3": (0, 1, 3), "CL2": (0, 1),
                    "ETL4": (0, 1, 2, 3), "KMINUS8": (0, 1, 2, 5, 3, 7, 11, 15),
                    "DM4": (0, 1, 2, 3)}


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


def brute_principal(m, a, b):
    """Reference principal congruence: (a, b) closed under every one-step
    context (negation, meet and join with each element), with a union-find."""
    parent = list(range(m.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(a, b)]
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        work.append((m.neg[x], m.neg[y]))
        for c in range(m.n):
            work.append((m.meet(x, c), m.meet(y, c)))
            work.append((m.join(x, c), m.join(y, c)))
    return Partition.of([find(i) for i in range(m.n)])


def congruence_matrices():
    rng = random.Random(23)
    return (list(catalog().values())
            + [product([bd4(), k3()]), product([etl4(), cl2(), lp3()]),
               dm4_algebra(), free_dm_algebra(["a"])]
            + [complex_matrix(random_frame(rng, 5)) for _ in range(12)])


def test_principal_congruence_matches_the_context_closure():
    triples = 0
    for m in congruence_matrices():
        for a, b in itertools.product(range(m.n), repeat=2):
            assert principal_congruence(m, a, b) == brute_principal(m, a, b), (m, a, b)
            triples += 1
    assert triples > 2000


def test_leibniz_reduct_is_the_quotient_by_the_leibniz_congruence():
    # leibniz_reduct builds the quotient from the kept bits unchecked;
    # quotient_by checks the partition first.  Also with random designated
    # sets, most of them no filters, and with the elements in random order,
    # so that the first element of a block need not be its least.
    rng = random.Random(29)
    mats = congruence_matrices() + mask_width_cases()
    for m in congruence_matrices():
        order = rng.sample(range(m.n), m.n)
        at = {x: i for i, x in enumerate(order)}
        des = rng.sample(range(m.n), rng.randint(0, m.n))
        mats.append(FinMatrix._trusted(m.label, m.neg, m.top, m.bottom, des, m.flags, m.enc))
        mats.append(FinMatrix._trusted(lambda i, m=m, order=order: m.label(order[i]),
                                       [at[m.neg[x]] for x in order], at[m.top], at[m.bottom],
                                       [at[x] for x in des], m.flags,
                                       [m.enc[x] for x in order]))
    merged = 0
    for m in mats:
        red = leibniz_reduct(m)
        red.validate()
        assert red.to_json() == quotient_by(m, leibniz_congruence(m)).to_json()
        merged += red.n < m.n
    assert merged > len(mats) // 3


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


def test_split_at_needs_a_designated_set_that_splits():
    # CL2 x CL2 designating its two atoms: top is not designated, though
    # its parts a & top and ~a & top, the atoms, are designated in the
    # intervals below a = (top,bot) and ~a = (bot,top)
    p = product([cl2(), cl2()])
    m = FinMatrix(p.labels, p.neg, p.top, p.bottom, [1, 2], p.flags, enc=p.enc)
    assert {m.labels[d] for d in m.designated} == {"(top,bot)", "(bot,top)"}
    with pytest.raises(MatrixError, match=r"does not split at \(top,bot\)$"):
        split_at(m, m.labels.index("(top,bot)"))


def test_failed_self_checks_are_internal_errors(monkeypatch):
    from demorgan_lab import _constructions, frame
    k3_copy = FinMatrix.from_json(k3().to_json())
    monkeypatch.setattr(frame, "frame_isomorphism", lambda p, q: (1, 0))  # reverses a chain
    with pytest.raises(RuntimeError, match="internal: dual frame isomorphism did not lift"):
        find_isomorphism(k3(), k3_copy)
    monkeypatch.setattr(_constructions, "_lift", lambda m1, images, m2: None)
    with pytest.raises(RuntimeError, match="internal: split witness failed verification"):
        split_at(bd4(), bd4().top)


def test_split_at_all_eligible_catalog_elements():
    for m in catalog().values():
        for a in range(m.n):
            if m.join(a, m.neg[a]) == m.top:
                m1, m2, w = split_at(m, a)  # witness verified inside
                assert is_matrix_isomorphism(m, product([m1, m2]), w)


def test_split_at_is_frozen():
    # every element of the catalog, of its 36 ordered products and of 40
    # random complex matrices, and the 66-element chain at its bounds (masks
    # wider than a machine word): the witness and both intervals' masks, or
    # the error; 346 splits, the rest refused
    cat = list(catalog().values())
    rng = random.Random(5)
    cases = [(m, range(m.n)) for m in [*cat, *(product([a, b]) for a in cat for b in cat),
                                       *(complex_matrix(random_frame(rng, 6)) for _ in range(40))]]
    chain = wide_chain()
    cases.append((chain, [chain.bottom, chain.top]))
    h = hashlib.sha256()
    for m, elems in cases:
        for a in elems:
            try:
                m1, m2, w = split_at(m, a)
                h.update(repr((w, m1.enc, m2.enc)).encode())
            except MatrixError as e:
                h.update(str(e).encode())
    assert h.hexdigest() == "95fdfc3cf9c7958fe0eae7280ed84ef8e3f3cb46d3acc4000311bc3f9b2b2456"


def test_submatrices_order_is_frozen():
    h = hashlib.sha256()
    for m, count in [(product([bd4(), etl4(), cl2()]), 132), (kminus8(), 11)]:
        subs = list(submatrices(m))
        assert len(subs) == count
        for s in subs:
            h.update(repr((s.labels, s.enc)).encode())
    assert h.hexdigest() == "de49ef73e1b9044fab5bec0726335267ea0ea8960f56f90b6f7c5b99a7e82468"


def test_free_algebra_counts():
    a, b = parse("a"), parse("b")
    assert free_dm_algebra(["a", "b"], [(b, a), (a, parse("~a|b"))]).n == 10
    assert free_dm_algebra(["a", "b"], [(a, parse("~a")), (b, parse("~b"))]).n == 20
    # frozen from the subdirect-power oracle (projection tuple in DM4^4)
    assert free_dm_algebra(["a"], []).n == 6
    with pytest.raises(MatrixError):
        free_dm_algebra(["a", "b", "c", "d"], [])


def test_free_algebra_generators_are_distinct_atom_names():
    # "T" would read as the constant in a relation, and "A" could not be
    # named in one at all
    for gens in (["T"], ["A"], ["a", "1b"]):
        with pytest.raises(MatrixError, match=f"^generator {gens[-1]!r} is not an atom name$"):
            free_dm_algebra(gens)
    with pytest.raises(MatrixError, match="^generator 'a' is given twice$"):
        free_dm_algebra(["a", "b", "a"])


def test_free_algebra_size_cap(monkeypatch):
    # the free algebra on one generator has 6 elements: a cap of 5 stops
    # its closure, a cap of 6 lets it through
    from demorgan_lab import _constructions
    monkeypatch.setattr(_constructions, "FREE_SIZE_CAP", 5)
    with pytest.raises(MatrixError, match="free algebra closure exceeded the size cap"):
        free_dm_algebra(["a"])
    monkeypatch.setattr(_constructions, "FREE_SIZE_CAP", 6)
    assert free_dm_algebra(["a"]).n == 6


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
    from demorgan_lab.matrix import dm4_algebra
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
                if want[0]:
                    assert mm._designated_meet() == np.bitwise_and.reduce(
                        [mm.enc[d] for d in mm.designated])
                elif not mm.designated:
                    assert mm._designated_meet() == mm.enc[mm.top]
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


def _laws_by_pairs(enc, neg):
    """Closure under & and | and ~(x | y) = ~x & ~y, on all pairs."""
    at = {s: x for x, s in enumerate(enc)}
    closed = all(s & t in at and s | t in at for s in enc for t in enc)
    return closed, closed and all(enc[neg[at[s | t]]] == enc[neg[x]] & enc[neg[y]]
                                  for x, s in enumerate(enc) for y, t in enumerate(enc))


def test_generator_law_check_matches_all_pairs():
    # random mask families, half of them closed under & and |, with random
    # involutions swapping the bounds, or with the negation of a random
    # involution on the bits where the family is closed under it
    rng = random.Random(17)
    seen = collections.Counter()
    for _ in range(12000):
        width = rng.randint(1, 5)
        full = (1 << width) - 1
        fam = {0, full} | {rng.randrange(full + 1) for _ in range(rng.randint(0, 9))}
        while rng.random() < 0.5 and any(s & t not in fam or s | t not in fam
                                         for s in fam for t in fam):
            fam |= {op(s, t) for s in fam for t in fam for op in (int.__and__, int.__or__)}
        enc = sorted(fam)
        n = len(enc)
        at = {s: x for x, s in enumerate(enc)}
        pi = list(range(width))
        for a in rng.sample(range(width), width):
            b = rng.randrange(width)
            if pi[a] == a and pi[b] == b:
                pi[a], pi[b] = b, a
        dual = [full ^ sum((s >> pi[j] & 1) << j for j in range(width)) for s in enc]
        if rng.random() < 0.5 and all(d in at for d in dual):
            neg = [at[d] for d in dual]
        else:
            rest = list(range(1, n - 1))
            rng.shuffle(rest)
            neg = list(range(n))
            neg[0], neg[n - 1] = n - 1, 0
            for i in range(0, len(rest) - 1, 2):
                if rng.random() < 0.7:
                    a, b = rest[i], rest[i + 1]
                    neg[a], neg[b] = b, a
        m = FinMatrix._trusted(str, neg, n - 1, 0, [n - 1], ["demorgan"], enc)
        closed, de_morgan = _laws_by_pairs(enc, neg)
        assert m._laws_hold(at, False, None) == closed, (enc,)
        assert m._laws_hold(at, True, None) == de_morgan, (enc, neg)
        seen[closed, de_morgan] += 1
    assert min(seen[False, False], seen[True, False], seen[True, True]) > 1000, seen


def test_entry_keeps_table_arrays():
    # meet_table() and join_table() are the int32 arrays of the element
    # indices, for matrices from masks, from the catalog's order and from
    # input tables
    for m in [*catalog().values(), dm4_algebra(), product([k3(), bd4()]), chain(12)]:
        meet = m.meet_table()
        assert meet.dtype == np.int32 and m.join_table().dtype == np.int32
        assert meet.tolist() == [[m.meet(x, y) for y in range(m.n)] for x in range(m.n)]
        assert m.join_table().tolist() == [[m.join(x, y) for y in range(m.n)]
                                           for x in range(m.n)]
        again = FinMatrix.from_json(m.to_json())
        for got, want in ((again.meet_table(), meet), (again.join_table(), m.join_table())):
            assert got.dtype == np.int32 and np.array_equal(got, want)
        tables = FinMatrix(m.labels, m.neg, m.top, m.bottom, m.designated, m.flags,
                           meet=np.array(meet, dtype=np.int64), join=m.join_table())
        assert tables.enc == again.enc and np.array_equal(tables.meet_table(), meet)


def test_entry_reads_tables_without_numpy():
    # a fresh interpreter builds the catalog, reads a matrix from JSON and
    # sweeps it without importing numpy
    import os
    import subprocess
    import sys
    from demorgan_lab import matrix
    code = ("import sys; from demorgan_lab import matrix, formula; "
            "m = matrix.FinMatrix.from_json(sys.argv[1]); "
            "r = formula.parse_rule('p |- p & q'); "
            "print(matrix.find_countervaluation(m, r), 'numpy' in sys.modules)")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(matrix.__file__)))
    out = subprocess.run([sys.executable, "-c", code, kminus8().to_json()], env=env,
                         capture_output=True, text=True, check=True).stdout
    want = find_countervaluation(kminus8(), parse_rule("p |- p & q"))
    assert want is not None and out == f"{want} False\n"


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


def wide_chain(n=66):
    """An n-element chain from tables, its elements from c40 up designated."""
    idx = np.arange(n)
    return FinMatrix([f"c{i}" for i in range(n)], [n - 1 - i for i in range(n)], n - 1, 0,
                     range(40, n), ["demorgan"],
                     meet=np.minimum.outer(idx, idx).tolist(),
                     join=np.maximum.outer(idx, idx).tolist())


def test_chain_above_64_mask_bits():
    # 66 elements from tables: 65 join-irreducibles, so 65 mask bits and
    # the paths for masks wider than a machine word
    m = wide_chain()
    n = m.n
    idx = np.arange(n)
    assert m.nbits == 65
    assert np.array_equal(m.meet_table(), np.minimum.outer(idx, idx))
    assert np.array_equal(m.join_table(), np.maximum.outer(idx, idx))
    for text in ["p, ~p|q |- q", "|- p|~p", "p & ~p |- q | ~q", "p |- p & ~p"]:
        r = parse_rule(text)
        assert validates(m, r) == brute_validates(m, r), text
    assert leibniz_congruence(m) == brute_leibniz(m) == _leibniz_refine(m)
    # the order search reads the order off masks wider than 64 bits too
    copy = FinMatrix(m.labels[::-1], [n - 1 - x for x in m.neg[::-1]], 0, n - 1,
                     [n - 1 - d for d in m.designated], m.flags, enc=m.enc[::-1])
    # both designate filters, so find_isomorphism lifts the isomorphism of
    # the 65-point dual frames
    assert m.is_bd_model() and copy.is_bd_model() and dual_frame(m).n == 65
    mapping = find_isomorphism(m, copy)
    assert mapping == tuple(range(n - 1, -1, -1)) and is_matrix_isomorphism(m, copy, mapping)
    assert mapping == _find_isomorphism_generic(m, copy)


def mask_width_cases():
    """Chains of 17, 33, 40 and 70 mask bits (uint32, uint64, and wider than
    a machine word), with their upsets designated and with random
    designated sets, most of them no filters."""
    rng = random.Random(41)
    cases = []
    for points in (17, 33, 40, 70):
        c = chain(points)
        cases.append(c)
        for _ in range(6):
            des = rng.sample(range(c.n), rng.randint(0, c.n))
            cases.append(FinMatrix._trusted(c.label, c.neg, c.top, c.bottom, des, c.flags, c.enc))
    return cases


def test_bit_leibniz_at_every_mask_width(monkeypatch):
    # the bit path against the refinement, which it no longer calls
    from demorgan_lab import matrix
    cases = mask_width_cases()
    want = [_leibniz_refine(m) for m in cases]
    assert len(set(want)) > len(cases) // 2

    def refuse(m):
        raise AssertionError("the refinement ran")

    monkeypatch.setattr(matrix, "_leibniz_refine", refuse)
    assert [leibniz_congruence(m) for m in cases] == want
