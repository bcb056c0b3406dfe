import itertools

import pytest

from demorgan_lab.bridge import (
    TriplePresentation, alpha_rule, classify_reduced, gamma,
    induced_matrix_map, mu_minus, mu_plus, mu_triple, p_minus, p_plus,
    p_triple,
)
from demorgan_lab.formula import RuleInstance, chi, parse, parse_rule
from demorgan_lab.frame import components as frame_components
from demorgan_lab.graph import (
    all_graphs, complete, cycle, disjoint_union, empty_graph, g2,
    graph_isomorphic, hom_search, loop_graph, point,
)
from demorgan_lab.matrix import (
    FinMatrix, MatrixError, _leibniz_refine, bd4, cl2, etl4, find_isomorphism, k3,
    kminus8, leibniz_reduct, product, quotient_by, validates,
)

E = empty_graph()


def test_p_plus_matches_figure_frame():
    # the two-vertex graph with a loop on one side: u below both images,
    # v below the image of u only, everything designated
    p = p_plus(g2())
    assert p.n == 4
    u, v, du, dv = 0, 1, 2, 3
    assert p.le(u, du) and p.le(u, dv) and p.le(v, du) and not p.le(v, dv)
    assert p.designated == frozenset(range(4))
    assert p.invol == (2, 3, 0, 1)


def test_graph_frames_hold_the_frame_laws():
    # p_plus and p_minus build their rows unchecked: each passes validate()
    # and has the order of the pairs u <= n + w for the edges u w
    from demorgan_lab.frame import Frame, singleton_frame
    for g in all_graphs(4, allow_empty=True):
        n = g.n
        leq = [(u, n + w) for u in range(n) for w in g.adj[u]]
        for p in (p_plus(g), p_minus(g)):
            p.validate()
            assert p.up == Frame(p.labels, leq, p.invol, p.designated).up
        assert p_minus(g).designated == frozenset(range(n, 2 * n))
    for designated in (True, False):
        singleton_frame(designated=designated).validate()


def test_p_minus_point():
    p = p_minus(point())
    assert p.n == 2 and p.designated == frozenset({1})
    assert not p.le(0, 1) and not p.le(1, 0)


def test_p_triple_counts_components():
    t = TriplePresentation(disjoint_union([complete(2), point()]), loop_graph(), 2)
    fr = p_triple(t)
    assert len(frame_components(fr)) == 2 + 1 + 2


def test_mu_identifications():
    assert find_isomorphism(mu_plus(point()), etl4()) is not None
    assert find_isomorphism(mu_plus(loop_graph()), k3()) is not None
    assert find_isomorphism(mu_minus(point()), bd4()) is not None
    for k in (1, 2, 3):
        m = mu_triple(TriplePresentation(E, E, k))
        assert find_isomorphism(m, product([cl2()] * k)) is not None
    km = mu_plus(g2())
    assert km.n == 8
    assert find_isomorphism(km, kminus8()) is not None


def test_mu_products_decompose():
    for ga, gb in [(point(), loop_graph()), (complete(2), point())]:
        lhs = mu_triple(TriplePresentation(disjoint_union([ga, gb]), E, 1))
        rhs = product([mu_plus(ga), mu_plus(gb), cl2()])
        assert find_isomorphism(lhs, rhs) is not None


def test_mu_plus_explosive_mu_minus_not():
    ecq = parse_rule("p, ~p |- ")
    for g in all_graphs(3):
        assert validates(mu_plus(g), ecq)
        assert not validates(mu_minus(g), ecq)


def test_gamma_examples():
    gl = gamma(loop_graph())
    u = gl.labels.index("{u}")
    assert gl.labels[gl.neg[u]] == "{}"
    assert validates(gl, RuleInstance.explosive([chi(1)]))
    gk2 = gamma(complete(2))
    assert not validates(gk2, RuleInstance.explosive([chi(2)]))
    gk3 = gamma(complete(3))
    assert validates(gk3, RuleInstance.explosive([chi(2)]))
    assert not validates(gk3, RuleInstance.explosive([chi(3)]))
    # each vertex has two neighbors in the triangle, so the negation is not
    # even an involution there
    assert "demorgan" not in gk3.flags
    with pytest.raises(MatrixError):
        gamma(E)


def test_gamma_flag_is_the_validators_verdict():
    # ~(U | V) = ~U & ~V holds for every graph, so gamma sets the flag when
    # its negation is an involution; on up to four vertices that agrees with
    # validating the matrix as De Morgan, on five with the involution alone
    graphs4 = all_graphs(4)
    flagged = 0
    for g in graphs4:
        m = gamma(g)
        try:
            FinMatrix(m.labels, m.neg, m.top, m.bottom, m.designated, ["demorgan"], enc=m.enc)
            valid = True
        except MatrixError:
            valid = False
        assert ("demorgan" in m.flags) == valid, g
        flagged += valid
    assert flagged > 0 and flagged < len(graphs4)
    for g in all_graphs(5):
        m = gamma(g)
        assert ("demorgan" in m.flags) == all(m.neg[m.neg[x]] == x for x in range(m.n)), g


def test_alpha_examples():
    r = alpha_rule(complete(2))
    assert r.conclusions == frozenset()
    (prem,) = r.premises
    # alpha of the single edge is the two-atom contradiction
    ren = {"pv0": parse("p1"), "pv1": parse("p2")}
    from demorgan_lab.formula import substitute
    assert substitute(prem, ren) == chi(2)
    (prem,) = alpha_rule(point()).premises
    assert prem == parse("pu & ~pu")
    (prem,) = alpha_rule(loop_graph()).premises
    assert prem == parse("pu")


def test_alpha_rule_of_a_long_cycle_parses_back():
    # its premise is a chain of 200 disjuncts, which `alpha` prints
    r = alpha_rule(cycle(200))
    assert parse_rule(str(r)) == r


def test_alpha_law_small():
    pool = [g for g in all_graphs(3, allow_isolated=False)]
    for g, h in itertools.product(pool, repeat=2):
        assert validates(mu_plus(h), alpha_rule(g)) == (hom_search(h, g) is None), (g, h)


def test_gamma_lemma_on_nnf_pool():
    # rules with negation only on atoms: plus-matrix validity implies
    # powerset-matrix validity; with a negation-free conclusion they agree
    rules = [
        parse_rule("p & ~q |- p | q"),
        parse_rule("p, ~p |- q"),
        parse_rule("p & ~p | (q & ~q) |- r"),
        parse_rule("~p | q, p |- q"),
        parse_rule("p | q |- p"),
        RuleInstance.explosive([chi(2)]),
        RuleInstance.explosive([chi(1)]),
    ]
    graphs = [g for g in all_graphs(3, allow_isolated=False)]
    for g in graphs:
        mp, gm = mu_plus(g), gamma(g)
        for r in rules:
            negfree_concl = all("~" not in str(c) for c in r.conclusions)
            mv, gv = validates(mp, r), validates(gm, r)
            if mv:
                assert gv, (g, str(r))
            if negfree_concl or not r.conclusions:
                assert mv == gv, (g, str(r))


def test_hom_induces_matrix_hom():
    pairs = [(complete(2), complete(3)), (point(), complete(2)),
             (complete(2), g2()), (cycle(4), complete(2))]
    for g, h in pairs:
        f = hom_search(g, h)
        assert f is not None
        mm = induced_matrix_map(g, h, f)
        assert mm.is_homomorphism()


def test_classify_reduced_examples():
    c = classify_reduced(etl4())
    assert graph_isomorphic(c.plus_graph, point())
    assert c.minus_graph.n == 0 and c.singletons == 0
    c = classify_reduced(bd4())
    assert c.plus_graph.n == 0 and graph_isomorphic(c.minus_graph, point())
    c = classify_reduced(product([cl2(), cl2()]))
    assert (c.plus_graph.n, c.minus_graph.n, c.singletons) == (0, 0, 2)
    c = classify_reduced(kminus8())
    assert graph_isomorphic(c.plus_graph, g2())
    # the product with a trivial singleton is already reduced (the trivial
    # factor contributes nothing) and classifies like its other factor
    from demorgan_lab.matrix import FinMatrix
    trivial = FinMatrix(["*"], [0], 0, 0, [0], ["demorgan"], meet=[[0]], join=[[0]])
    c = classify_reduced(product([etl4(), trivial]))
    assert graph_isomorphic(c.plus_graph, point())
    with pytest.raises(MatrixError):
        # a genuinely non-reduced matrix: the four-chain with three
        # designated elements collapses its middle pair
        chain = FinMatrix(
            ["bot", "a", "b", "top"], [3, 2, 1, 0], 3, 0, [1, 2, 3], ["demorgan"],
            meet=[[0, 0, 0, 0], [0, 1, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]],
            join=[[0, 1, 2, 3], [1, 1, 2, 3], [2, 2, 2, 3], [3, 3, 3, 3]])
        classify_reduced(chain)


def test_classify_reduced_past_eight_vertices():
    # 18 points, 5778 elements: its plus graph is sorted by canonical key
    c = classify_reduced(mu_plus(cycle(9)))
    assert graph_isomorphic(c.plus_graph, cycle(9))
    assert c.minus_graph.n == 0 and c.singletons == 0


def test_classify_roundtrip_small():
    gs = all_graphs(2, allow_isolated=True, allow_empty=True)
    for gp, gm in itertools.product(gs, repeat=2):
        for k in (0, 1):
            if gp.n == 0 and gm.n == 0 and k == 0:
                continue
            t = TriplePresentation(gp, gm, k)
            c = classify_reduced(mu_triple(t))
            assert graph_isomorphic(c.plus_graph, gp)
            assert graph_isomorphic(c.minus_graph, gm)
            assert c.singletons == k


def test_s_star_matches_matrix_side_submatrix_reducts():
    # dual-route check of the pair rewriting: the pairs reachable by the
    # five operations are exactly the classifications of Leibniz reducts of
    # submatrices, computed matrix-side without any graph rewriting
    from demorgan_lab.graph import GraphPair, s_star_reachable
    from demorgan_lab.matrix import submatrices

    def matrix_side(g, i):
        m = mu_triple(TriplePresentation(g, E, i))
        out = set()
        for s in submatrices(m):
            t = classify_reduced(leibniz_reduct(s))
            assert t.minus_graph.n == 0
            out.add((*t.plus_graph.canonical_key(), t.singletons))
        return out

    cases = [(complete(2), 0), (complete(2), 1), (loop_graph(), 1),
             (point(), 0), (point(), 1),
             (disjoint_union([point(), loop_graph()]), 0)]
    for g, i in cases:
        graph_side = {p.key() for p in s_star_reachable(GraphPair(g, i))}
        assert graph_side == matrix_side(g, i), (g.edges(), i)


def test_leibniz_reduct_idempotent_on_mu():
    # through the generic refinement: the public function reads the
    # congruence off the dual frame, whose Leibniz subframe is reduced by
    # construction.  The reduct is reduced iff reducing it again changes
    # nothing.
    gs = all_graphs(2, allow_isolated=True, allow_empty=True)
    for gp, gm in itertools.product(gs, repeat=2):
        for k in (0, 1, 2):
            if gp.n == 0 and gm.n == 0 and k == 0:
                continue
            m = mu_triple(TriplePresentation(gp, gm, k))
            r1 = quotient_by(m, _leibniz_refine(m))
            assert _leibniz_refine(r1).is_identity()
    # a deterministic slice of the three-vertex presentations
    g3 = all_graphs(3, allow_isolated=True, allow_empty=True)
    for gp, gm, k in zip(g3[::5], g3[::7], itertools.cycle((0, 1, 2))):
        m = mu_triple(TriplePresentation(gp, gm, k))
        r1 = quotient_by(m, _leibniz_refine(m))
        assert _leibniz_refine(r1).is_identity()
