"""The duality fast paths of leibniz_congruence and find_isomorphism against
independent oracles: the generic refinement and pair elimination, and the
batched dual involution against one join-irreducible at a time.  The fast
and the generic isomorphism paths both run the order search of _order (on
the dual frames, on the matrices), so comparing them checks the lift from
frames to matrices; the search itself is checked against all permutations
in test_order, test_matrix and test_frame."""

import functools
import hashlib
import itertools
import os
import random
import subprocess
import sys

import numpy as np
import pytest

from demorgan_lab import _constructions, frame, matrix
from demorgan_lab._constructions import _find_isomorphism_generic
from demorgan_lab.bridge import TriplePresentation, mu_minus, mu_plus, mu_triple, p_triple
from demorgan_lab.frame import (MAX_COMPLEX_POINTS, Frame, FrameError, complex_matrix, dual_frame,
                                random_frame, roundtrip_check)
from demorgan_lab.graph import Graph, all_graphs
from demorgan_lab.matrix import (
    FinMatrix, MatrixError, Partition, _dual_partners, _leibniz_refine, _lift, bd4,
    catalog, cl2, etl4, find_isomorphism, is_matrix_isomorphism, k3, kminus8,
    leibniz_congruence, lp3, product, split_at,
)


def pair_elimination(m):
    """Leibniz congruence by separating pairs: designation splits a pair,
    and a pair is split once some one-step context maps it onto a split
    pair; what is never split is congruent."""
    des = np.zeros(m.n, dtype=bool)
    des[list(m.designated)] = True
    sep = des[:, None] != des[None, :]
    mt, jt, ng = m.meet_table(), m.join_table(), np.array(m.neg)
    while True:
        new = sep | sep[np.ix_(ng, ng)]
        for c in range(m.n):
            a, b = mt[:, c], jt[:, c]
            new |= sep[np.ix_(a, a)] | sep[np.ix_(b, b)]
        if np.array_equal(new, sep):
            return Partition.of([int(np.argmin(row)) for row in sep])
        sep = new


def filter_matrices():
    rng = random.Random(7)
    out = [complex_matrix(random_frame(rng, points))
           for points in range(1, 8) for _ in range(8)]
    for g in all_graphs(3, allow_isolated=True, allow_empty=True):
        out += [mu_plus(g), mu_minus(g)]
    out += list(catalog().values())
    out += [product([etl4(), bd4()]), product([cl2(), k3()]),
            product([lp3(), lp3()]), product([kminus8(), cl2()])]
    return out


def dm4_designating(labels):
    m = bd4()
    return FinMatrix(m.labels, m.neg, m.top, m.bottom,
                     [m.labels.index(x) for x in labels], m.flags,
                     meet=[[m.meet(x, y) for y in range(m.n)] for x in range(m.n)],
                     join=[[m.join(x, y) for y in range(m.n)] for x in range(m.n)])


def test_fast_leibniz_matches_refinement_and_pair_elimination():
    for m in filter_matrices():
        assert m.is_bd_model()
        fast = leibniz_congruence(m)
        assert fast == _leibniz_refine(m) == pair_elimination(m), m


def test_leibniz_bit_path_on_a_designated_set_that_is_no_filter():
    m = dm4_designating(["n", "b"])  # n & b = bot is not designated
    assert not m.is_bd_model()
    part = leibniz_congruence(m)
    assert part == _leibniz_refine(m) == pair_elimination(m)
    assert part.is_identity()  # e.g. the context x | n separates bot from top


def redesignated(m, designated):
    return FinMatrix._trusted(m.label, m.neg, m.top, m.bottom, designated, m.flags, m.enc)


def test_bit_leibniz_matches_refinement_on_designated_sets_that_are_no_filters():
    # complex matrices of random frames, each with a random designated
    # subset that is not a filter; then the 18-element chain, whose 17 mask
    # bits send the refinement through its search of the carrier
    rng = random.Random(29)
    chain = complex_matrix(Frame([str(i) for i in range(17)],
                                 [(i, j) for i in range(17) for j in range(i, 17)],
                                 list(range(16, -1, -1)), [16]))
    assert chain.nbits == 17
    cases = []
    for count, source in ((400, lambda: complex_matrix(random_frame(rng, 7))),
                          (420, lambda: chain)):
        while len(cases) < count:
            base = source()
            m = redesignated(base, rng.sample(range(base.n), rng.randint(0, base.n)))
            if not m.is_bd_model():
                cases.append(m)
    for m in cases:
        assert leibniz_congruence(m) == _leibniz_refine(m) == pair_elimination(m), \
            (m, sorted(m.designated))
    # the chain's 20 cases re-encoded with mask bit b at bit 4b: 65 bits,
    # so the refinement looks masks up by search of the carrier, against
    # pair elimination on the 17-bit original
    for m in cases[400:]:
        enc = [sum(1 << 4 * b for b in range(17) if x >> b & 1) for x in m.enc]
        wide = FinMatrix._trusted(m.label, m.neg, m.top, m.bottom, m.designated, m.flags, enc)
        assert wide.nbits == 65
        assert leibniz_congruence(wide) == pair_elimination(m), (m, sorted(m.designated))


def test_leibniz_congruence_of_a_demorgan_matrix_needs_no_refinement(monkeypatch):
    mats = [m for m in filter_matrices() + [dm4_designating(["n", "b"])]
            if "demorgan" in m.flags]
    want = [pair_elimination(m) for m in mats]

    def refuse(m):
        raise AssertionError("the refinement ran")

    monkeypatch.setattr(matrix, "_leibniz_refine", refuse)
    assert [leibniz_congruence(m) for m in mats] == want
    m = bd4()
    plain = FinMatrix(m.labels, m.neg, m.top, m.bottom, m.designated, (), enc=m.enc)
    with pytest.raises(AssertionError, match="refinement ran"):
        leibniz_congruence(plain)


def test_refinement_above_the_table_limit_matches_the_bit_path():
    # a presentation of 1512 elements, reduced, and the same matrix
    # designating the union of the upsets of two incomparable points, which
    # is no filter and whose congruence is not the identity
    vs = ["a", "b", "c"]
    m = mu_triple(TriplePresentation(Graph(vs, [(0, 1)]),
                                     Graph(vs, [(0, 1), (0, 2), (1, 1)]), 1))
    assert m.n == 1512 > matrix.TABLE_LIMIT
    a, b = next((a, b) for a, b in itertools.combinations(m.join_irreducibles(), 2)
                if not (m.leq(a, b) or m.leq(b, a)))
    other = redesignated(m, [x for x in range(m.n) if m.leq(a, x) or m.leq(b, x)])
    assert not other.is_bd_model()
    for mm, reduced in ((m, True), (other, False)):
        part = leibniz_congruence(mm)
        assert _leibniz_refine(mm) == part and part.is_identity() == reduced


def test_fast_isomorphism_agrees_with_generic_search():
    by_size: dict[int, list] = {}
    for m in filter_matrices() + [dm4_designating(["n", "b"])]:
        by_size.setdefault(m.n, []).append(m)
    found = missed = 0
    for group in by_size.values():
        for m1, m2 in itertools.combinations(group[:8], 2):
            fast = find_isomorphism(m1, m2)
            generic = _find_isomorphism_generic(m1, m2)
            assert (fast is None) == (generic is None)
            for mapping in (fast, generic):
                if mapping is not None:
                    assert is_matrix_isomorphism(m1, m2, mapping)
            found += fast is not None
            missed += fast is None
    assert found > 20 and missed > 20


def test_fast_isomorphism_of_relabelled_copies():
    rng = random.Random(3)
    for m in filter_matrices()[::3]:
        perm = list(range(m.n))
        rng.shuffle(perm)
        inv = {p: i for i, p in enumerate(perm)}
        copy = FinMatrix([m.labels[p] for p in perm],
                         [inv[m.neg[p]] for p in perm], inv[m.top], inv[m.bottom],
                         [inv[d] for d in m.designated], m.flags,
                         enc=[m.enc[p] for p in perm])
        mapping = find_isomorphism(m, copy)
        assert mapping is not None and is_matrix_isomorphism(m, copy, mapping)


def test_fast_isomorphism_maps_are_frozen():
    # the maps of the pairs of test_fast_isomorphism_agrees_with_generic_search
    by_size: dict[int, list] = {}
    for m in filter_matrices() + [dm4_designating(["n", "b"])]:
        by_size.setdefault(m.n, []).append(m)
    maps = [find_isomorphism(m1, m2) for group in by_size.values()
            for m1, m2 in itertools.combinations(group[:8], 2)]
    assert hashlib.sha256(repr(maps).encode()).hexdigest()[:16] == "b06d162de47a861f"


def roundtrip_corpus():
    """Matrices whose round trip is decided: the catalog, two products, the
    graph presentations of verify's criterion 4 of at most 100 elements,
    complex matrices of random frames, and complex matrices built unchecked
    with one designation flipped, two negation values swapped, a negation
    pair swapped into two fixpoints, or top's negation moved."""
    out = list(catalog().values())
    out += [product([etl4(), bd4()]), product([cl2(), lp3()])]
    graphs = all_graphs(3, allow_isolated=True, allow_empty=True)
    presented = (mu_triple(TriplePresentation(gp, gm, k))
                 for gp, gm, k in itertools.product(graphs, graphs, range(3)))
    out += [m for m in presented if m.n <= 100]
    rng = random.Random(5)
    out += [complex_matrix(random_frame(rng, 7)) for _ in range(30)]
    for _ in range(40):
        m = complex_matrix(random_frame(rng, 6))
        x, y = rng.randrange(m.n), rng.randrange(m.n)
        swapped, top_neg = list(m.neg), list(m.neg)
        swapped[x], swapped[y] = swapped[y], swapped[x]
        top_neg[m.top] = x
        mutants = [(m.designated ^ {x}, m.neg), (m.designated, swapped),
                   (m.designated, top_neg)]
        off = [a for a in range(m.n) if m.neg[a] != a]
        if off:
            a = rng.choice(off)
            pair = list(m.neg)
            pair[a], pair[m.neg[a]] = pair[m.neg[a]], pair[a]
            mutants.append((m.designated, pair))
        out += [FinMatrix._trusted(m.label, ng, m.top, m.bottom, des, m.flags, m.enc)
                for des, ng in mutants]
    return out


def test_roundtrip_verdicts_are_frozen_and_their_maps_are_isomorphisms():
    # where the round trip holds, the map sending each element to the
    # element of the complex matrix whose mask is its point set (the
    # join-irreducibles below it) is an isomorphism, checked on all pairs
    corpus = roundtrip_corpus()
    verdicts = [roundtrip_check(m) for m in corpus]
    assert (len(verdicts), sum(verdicts)) == (494, 358)
    digest = hashlib.sha256(bytes(verdicts)).hexdigest()[:16]
    assert digest == "3486d02ea4a6b449"
    assert max(m.n for m, ok in zip(corpus, verdicts) if ok) > 64
    for m, ok in zip(corpus, verdicts):
        if ok:
            c = complex_matrix(dual_frame(m))
            jis = [m.enc[j] for j in m.join_irreducibles()]
            at = {mask: i for i, mask in enumerate(c.enc)}
            h = [at[sum(1 << a for a, j in enumerate(jis) if j & x == j)] for x in m.enc]
            assert is_matrix_isomorphism(m, c, h), m


# A fresh interpreter runs the round trip and the dual-frame isomorphism
# search on a reduced matrix of 72 elements and a copy of it, and reports
# whether numpy.random was loaded.
RANDOM_CHILD = """
import sys
from demorgan_lab.bridge import TriplePresentation, mu_triple
from demorgan_lab.frame import roundtrip_check
from demorgan_lab.graph import complete, point
from demorgan_lab.matrix import FinMatrix, find_isomorphism
m = mu_triple(TriplePresentation(complete(2), point(), 1))
assert m.n == 72 and m.is_bd_model() and roundtrip_check(m)
assert find_isomorphism(m, FinMatrix.from_json(m.to_json())) is not None
print("numpy.random" in sys.modules)
"""


def test_lift_keys_each_element_by_the_points_below_it():
    # with point a sent to bit a, the lift sends x to the element of the
    # complex matrix whose mask holds bit a iff the a-th join-irreducible
    # lies below x, read off the order alone
    for m in filter_matrices():
        jis = m.join_irreducibles()
        c = complex_matrix(dual_frame(m))
        at = {mask: i for i, mask in enumerate(c.enc)}
        want = [at[sum(1 << a for a, j in enumerate(jis) if m.leq(j, x))] for x in range(m.n)]
        assert _lift(m, [1 << a for a in range(len(jis))], c) == tuple(want), m


# The same on a frame and a carrier small enough for the Python-int paths
# of complex_matrix and _lift, with no numpy at all.
SMALL_CHILD = """
import random, sys
from demorgan_lab import frame, matrix
from demorgan_lab.frame import complex_matrix, counit_check, random_frame, roundtrip_check
from demorgan_lab.matrix import FinMatrix, find_isomorphism
rng = random.Random(3)
ps = [random_frame(rng, frame._SMALL_COMPLEX_POINTS) for _ in range(20)]
for p in ps:
    m = complex_matrix(p)
    assert m.n <= matrix._SMALL_LIFT_ELEMENTS and roundtrip_check(m) and counit_check(p)
    assert find_isomorphism(m, FinMatrix.from_json(m.to_json())) is not None
assert max(p.n for p in ps) == frame._SMALL_COMPLEX_POINTS
print("numpy" in sys.modules)
"""


def test_duality_checks_load_no_numpy_random():
    src = os.path.dirname(os.path.dirname(matrix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", RANDOM_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_small_duality_loads_no_numpy():
    src = os.path.dirname(os.path.dirname(matrix.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SMALL_CHILD], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def complex_fields(p):
    """complex_matrix(p)'s fields, or the error it raises; the labels of
    carriers above 64 elements, which take the most time, at their ends."""
    try:
        m = complex_matrix(p)
    except FrameError as e:
        return str(e)
    labels = m.labels if m.n <= 64 else (m.label(0), m.label(1), m.label(m.n - 1))
    return m.enc, m.neg, m.top, m.bottom, m.designated, labels


def test_complex_matrix_on_ints_matches_the_numpy_sweep(monkeypatch):
    # random frames of 1-9 points, the frame of every presentation by graphs
    # of at most 3 vertices (up to 14 points), the 17-point chain, and rows
    # built unchecked that break a frame law: with the threshold at either
    # end, both paths build the same matrix, or raise the same error
    rng = random.Random(11)
    frames = [random_frame(rng, points) for points in range(1, 10) for _ in range(15)]
    graphs = all_graphs(3, allow_isolated=True, allow_empty=True)
    frames += [p_triple(TriplePresentation(gp, gm, k))
               for gp, gm, k in itertools.product(graphs, graphs, range(3))]
    frames.append(Frame([f"c{i}" for i in range(17)], itertools.combinations(range(17), 2),
                        range(16, -1, -1), range(9, 17)))
    assert max(p.n for p in frames) == 17 and {p.n for p in frames} >= set(range(10))
    bad = [Frame._of_rows("abc", [0b011, 0b110, 0b100], [0, 1, 2], [2]),  # not transitive
           Frame._of_rows("abc", [0b011, 0b110, 0b100], [2, 1, 0], [2]),
           Frame._of_rows("ab", [0b11, 0b11], [1, 0], []),  # not antisymmetric
           Frame._of_rows("ab", [0b01, 0b11], [0, 1], [1]),  # not order-inverting
           Frame._of_rows("abc", [0b001, 0b111, 0b101], [1, 0, 2], [2])]  # no upset
    swept = []
    sweep = frame._swept_upsets
    monkeypatch.setattr(frame, "_swept_upsets", lambda p: swept.append(p) or sweep(p))
    outcomes, fell_back = [], []
    for p in frames + bad:
        monkeypatch.setattr(frame, "_SMALL_COMPLEX_POINTS", MAX_COMPLEX_POINTS)
        ints = complex_fields(p)
        if swept:  # rows that no order of the points extends
            fell_back.append(swept.pop())
        monkeypatch.setattr(frame, "_SMALL_COMPLEX_POINTS", -1)
        assert complex_fields(p) == ints, p
        assert swept.pop() is p
        outcomes.append(ints if isinstance(ints, str) else "built")
    # the Python path answers every valid frame itself
    assert fell_back == bad[:3]
    assert outcomes[-len(bad):] == ["negation left the upset lattice", "built", "built",
                                    "negation left the upset lattice", "built"]


def wide_chain(n=71):
    """The n-element chain on n - 1 mask bits, c40 and above designated."""
    return FinMatrix([f"c{i}" for i in range(n)], range(n - 1, -1, -1), n - 1, 0, range(40, n),
                     ["demorgan"], enc=[(1 << n - 1) - (1 << n - 1 - i) for i in range(n)])


def test_lift_on_ints_matches_numpy(monkeypatch):
    # the lifts of the round trip on roundtrip_corpus (the catalog, two
    # products, presentations of up to 100 elements, random complex
    # matrices and mutants built unchecked) and on a presentation of 1296
    # elements, of split_at on every element of the catalog, its products,
    # random complex matrices and the ends of a 70-bit chain, and of
    # find_isomorphism on the pairs of
    # test_fast_isomorphism_agrees_with_generic_search: with the threshold
    # at either end, both paths give the same map or None
    calls = []

    def record(*args):
        calls.append(args)
        return _lift(*args)

    monkeypatch.setattr(_constructions, "_lift", record)
    cat = list(catalog().values())
    rng = random.Random(5)
    chain = wide_chain()
    for m, elems in [(m, range(m.n)) for m in [*cat, *(product([a, b]) for a in cat for b in cat),
                                               *(complex_matrix(random_frame(rng, 6))
                                                 for _ in range(20))]] + [(chain, [0, 70])]:
        for a in elems:
            try:
                split_at(m, a)
            except MatrixError:
                pass
    by_size: dict[int, list] = {}
    for m in filter_matrices() + [dm4_designating(["n", "b"])]:
        by_size.setdefault(m.n, []).append(m)
    for group in by_size.values():
        for m1, m2 in itertools.combinations(group[:8], 2):
            find_isomorphism(m1, m2)
    big = mu_triple(TriplePresentation(Graph("abc", [(0, 1)]), Graph("ab", [(0, 1)]), 2))
    for m in roundtrip_corpus() + [big]:
        try:
            p = dual_frame(m)
        except FrameError:
            continue
        calls.append((m, [1 << a for a in range(p.n)], complex_matrix(p)))
    found = []
    for args in calls:
        monkeypatch.setattr(matrix, "_SMALL_LIFT_ELEMENTS", 1 << 20)
        ints = _lift(*args)
        monkeypatch.setattr(matrix, "_SMALL_LIFT_ELEMENTS", -1)
        assert _lift(*args) == ints
        found.append(ints is not None)
    assert len(found) > 700 and 100 < found.count(False) < found.count(True)
    assert max(args[0].n for args in calls) == big.n == 1296
    assert max(args[0].nbits for args in calls) == 70


def dual_partner(m, ej):
    """The dual involution image of one join-irreducible, one numpy pass per
    call: the meet of the members of the prime filter {a : ~a not above j}."""
    e = m._enc_np()
    neg_e = e[np.array(m.neg, dtype=np.int64)]
    members = e[(neg_e & np.uint64(ej)) != np.uint64(ej)]
    return int(np.bitwise_and.reduce(members))


@pytest.mark.parametrize("chunk", [matrix._PAIR_CHUNK, 5])
def test_batched_dual_partners_match_one_at_a_time(monkeypatch, chunk):
    # a tiny chunk splits every matrix into blocks of a row or two
    monkeypatch.setattr(matrix, "_PAIR_CHUNK", chunk)
    rng = random.Random(17)
    for _ in range(200):
        m = complex_matrix(random_frame(rng, 8))
        jis = m.join_irreducibles()
        masks = [m.enc[j] for j in jis]
        assert _dual_partners(m, masks) == [dual_partner(m, ej) for ej in masks]
        assert _dual_partners(m, masks[::-1]) == [dual_partner(m, ej) for ej in masks[::-1]]


def test_join_irreducibles_and_their_bits_by_definition():
    # an element is join-irreducible iff it is not bottom and not the join
    # of the elements strictly below it; its representative bit lies in
    # exactly the masks of the elements above it.  Carriers of up to 576
    # elements, and a chain of 70 mask bits.
    vs = ["a", "b"]
    mats = filter_matrices() + [
        mu_triple(TriplePresentation(Graph(vs, [(0, 1)]), Graph(vs, [(1, 1)]), 1)),
        product([kminus8(), etl4(), lp3(), cl2(), k3()]),
        FinMatrix([f"c{i}" for i in range(71)], range(70, -1, -1), 70, 0, [70], ["demorgan"],
                  enc=[(1 << 70) - (1 << 70 - i) for i in range(71)])]
    assert max(m.n for m in mats) > 500 and max(m.nbits for m in mats) == 70
    for m in mats:
        want = [x for x in range(m.n) if x != m.bottom and functools.reduce(
            int.__or__, [s for s in m.enc if s & m.enc[x] == s != m.enc[x]], 0) != m.enc[x]]
        jis, reps = m._join_irreducibles()
        assert jis == want == m.join_irreducibles(), m
        for j, r in zip(jis, reps):
            assert [x for x in range(m.n) if m.enc[x] >> r & 1] == \
                [x for x in range(m.n) if m.leq(j, x)]


def below_partner(m, j):
    """The meet of the elements not below ~j, over every element: in any
    lattice, with no De Morgan law, the meet of the join-irreducibles not
    below ~j."""
    nj = m.enc[m.neg[j]]
    return functools.reduce(int.__and__, [s for s in m.enc if s & nj != s], m.enc[m.top])


def test_dual_partners_of_negations_that_break_de_morgan():
    # every catalog negation with one value moved or two values swapped
    # that breaks a law, as a matrix built unchecked.  The partners are the
    # meets of the elements not below ~j; only a De Morgan negation makes
    # them those of {a : ~a not above j} (dual_partner), so on such a
    # matrix they may differ, and the dual may still be a frame.  Either
    # way the round trip fails.
    mutants = []
    for m in catalog().values():
        for x, y in itertools.product(range(m.n), repeat=2):
            moved, swapped = list(m.neg), list(m.neg)
            moved[x] = y
            swapped[x], swapped[y] = swapped[y], swapped[x]
            for neg in (moved, swapped):
                try:
                    FinMatrix(m.labels, neg, m.top, m.bottom, m.designated, m.flags, enc=m.enc)
                except MatrixError:
                    mutants.append(FinMatrix._trusted(m.label, neg, m.top, m.bottom,
                                                      m.designated, m.flags, m.enc))
    assert len(mutants) > 150
    outcomes = set()
    for t in mutants:
        jis = t.join_irreducibles()
        assert _dual_partners(t, [t.enc[j] for j in jis]) == [below_partner(t, j) for j in jis]
        try:
            leibniz_congruence(t)
            outcomes.add("partition")
        except MatrixError as e:
            assert str(e) == "dual involution left the prime filters"
            outcomes.add("error")
        assert not roundtrip_check(t)
    assert outcomes == {"partition", "error"}
    # BD4 with n sent to bot: ~n is a join-irreducible no more, and the
    # partners are those of dual_partner too
    m = bd4()
    t = FinMatrix._trusted(m.label, [3, 0, 2, 0], m.top, m.bottom, m.designated, m.flags, m.enc)
    masks = [t.enc[j] for j in t.join_irreducibles()]
    assert _dual_partners(t, masks) == [dual_partner(t, ej) for ej in masks]
    assert 0 in _dual_partners(t, masks)  # bot, which no point generates
    with pytest.raises(MatrixError, match="^dual involution left the prime filters$"):
        leibniz_congruence(t)
    with pytest.raises(FrameError, match="^dual involution left the prime filters$"):
        dual_frame(t)
    assert not roundtrip_check(t)
