import itertools
import random

import pytest

from demorgan_lab.graph import (
    Graph, GraphError, GraphPair,
    all_graphs, complete, components, contract_isolated_edge, cycle,
    disjoint_union, empty_graph, g2, graph_isomorphic, has_loop,
    hom_search, homomorphic_images, is_n_colorable, loop_graph, point,
    s_star_reachable, s_star_step, weak_n_coloring,
)


def brute_coloring(g, n):
    """Oracle: exhaustive scan over all maps into the n-clique."""
    for vals in itertools.product(range(n), repeat=g.n):
        if all(vals[u] != vals[v] for u, v in g.edges()):
            return True
    return g.n == 0


def brute_weak_coloring(g, n):
    """Oracle: all partial domains and all maps, requiring some vertex's
    neighborhood to be covered."""
    for bits in range(1 << g.n):
        dom = [u for u in range(g.n) if bits >> u & 1]
        if not any(g.adj[u] <= set(dom) for u in range(g.n)):
            continue
        for vals in itertools.product(range(n), repeat=len(dom)):
            c = dict(zip(dom, vals))
            if all(c[a] != c[b] for a, b in g.edges() if a in c and b in c):
                return True
    return False


def is_hom(g, h, f):
    return all(h.has_edge(f[u], f[v]) for u, v in g.edges())


def test_hom_search_examples():
    f = hom_search(complete(2), complete(3))
    assert f is not None and is_hom(complete(2), complete(3), f)
    assert hom_search(complete(3), complete(2)) is None
    f = hom_search(cycle(5), complete(3))
    assert f is not None and is_hom(cycle(5), complete(3), f)
    # loops must land on loops
    assert hom_search(loop_graph(), complete(2)) is None
    assert hom_search(loop_graph(), g2()) is not None


def test_hom_composition_property():
    pool = [point(), loop_graph(), complete(2), complete(3), g2(),
            disjoint_union([complete(2), point()]), cycle(4)]
    for a, b, c in itertools.product(pool, repeat=3):
        ab = hom_search(a, b)
        bc = hom_search(b, c)
        if ab is not None and bc is not None:
            assert hom_search(a, c) is not None


def test_colorability_against_oracle():
    for g in all_graphs(4):
        for n in (1, 2, 3):
            assert is_n_colorable(g, n) == brute_coloring(g, n), (g, n)


def test_colorability_monotone():
    for g in all_graphs(4):
        for n in (1, 2):
            if is_n_colorable(g, n):
                assert is_n_colorable(g, n + 1)


def test_colorability_examples():
    assert is_n_colorable(complete(2), 2)
    assert not any(is_n_colorable(loop_graph(), n) for n in (1, 2, 3, 4))
    assert not is_n_colorable(complete(4), 3)


def test_weak_coloring_against_oracle():
    for g in all_graphs(3):
        for n in (1, 2):
            got = weak_n_coloring(g, n)
            assert (got is not None) == brute_weak_coloring(g, n), (g, n)
            if got is not None:
                assert all(got[a] != got[b] for a, b in g.edges()
                           if a in got and b in got)
                assert any(g.adj[u] <= set(got) for u in range(g.n))


def test_weak_coloring_examples():
    assert weak_n_coloring(point(), 1) == {}
    for n in (1, 2, 3, 4):
        assert weak_n_coloring(g2(), n) is None
    for n in (1, 2):
        k = complete(n + 2)
        assert is_n_colorable(k, n + 2)
        assert weak_n_coloring(k, n) is None


def test_weak_coloring_iff_reflexive_neighbor():
    # bounded restatement of the unbounded fact: a graph has no weak
    # n-coloring for any n up to vertices+1 iff every irreflexive vertex
    # has a reflexive neighbor
    for g in all_graphs(4):
        bound = g.n + 1
        never = all(weak_n_coloring(g, n) is None for n in range(1, bound + 1))
        target = all(
            any(g.is_loop(v) for v in g.adj[u])
            for u in range(g.n) if not g.is_loop(u)
        )
        assert never == target, g


def test_contract_and_components():
    c = contract_isolated_edge(disjoint_union([complete(2), complete(3)]))
    assert c is not None
    assert graph_isomorphic(c, disjoint_union([point(), complete(3)]))
    assert contract_isolated_edge(complete(3)) is None
    assert contract_isolated_edge(g2()) is None  # edge not isolated: loop on u
    assert has_loop(g2()) and not has_loop(complete(2))
    assert len(components(disjoint_union([complete(2), point(), loop_graph()]))) == 3


def test_homomorphic_images_against_surjection_oracle():
    # oracle: enumerate every map onto 1..n vertices, keep surjective ones,
    # then all edge supersets of the image
    def oracle(g):
        seen = set()
        for k in range(1, g.n + 1):
            for vals in itertools.product(range(k), repeat=g.n):
                if set(vals) != set(range(k)):
                    continue
                base = {(min(vals[u], vals[v]), max(vals[u], vals[v]))
                        for u, v in g.edges()}
                pairs = [(i, j) for i in range(k) for j in range(i, k)]
                extra = [p for p in pairs if p not in base]
                for bits in range(1 << len(extra)):
                    edges = set(base) | {p for t, p in enumerate(extra)
                                         if bits >> t & 1}
                    seen.add(Graph([str(i) for i in range(k)], edges).canonical_key())
        return seen

    for g in [complete(2), loop_graph(), disjoint_union([point(), point()]),
              g2(), complete(3)]:
        got = {h.canonical_key() for h in homomorphic_images(g)}
        assert got == oracle(g), g


def test_homomorphic_images_examples():
    imgs = homomorphic_images(complete(2))
    assert any(h.n == 1 and h.is_loop(0) for h in imgs)
    # frozen via the oracle above: the edge, the edge with one loop, the
    # edge with two loops, and the loop singleton
    assert len(imgs) == 4
    assert any(h.n == 1 for h in homomorphic_images(disjoint_union([point(), point()])))
    with pytest.raises(GraphError):
        homomorphic_images(complete(6))


def test_s_star_step_examples():
    step = s_star_step(GraphPair(complete(2), 0))
    assert any(p.counter == 0 and graph_isomorphic(p.graph, point()) for p in step)
    assert any(p.counter == 1 and p.graph.n == 0 for p in step)
    step = s_star_step(GraphPair(loop_graph(), 1))
    assert any(p.counter == 0 and graph_isomorphic(p.graph, loop_graph()) for p in step)
    # a lone counter only drops through a loop
    step = s_star_step(GraphPair(complete(2), 1))
    assert not any(p.counter == 0 and graph_isomorphic(p.graph, complete(2)) for p in step)
    step = s_star_step(GraphPair(complete(3), 2))
    assert any(p.counter == 1 and graph_isomorphic(p.graph, complete(3)) for p in step)


def test_s_star_reachable_closure():
    # closed under steps
    reach = s_star_reachable(GraphPair(complete(2), 0))
    keys = {p.key() for p in reach}
    for p in reach:
        for q in s_star_step(p):
            assert q.key() in keys


def test_s_star_reachable_computes_the_images_of_a_graph_once(monkeypatch):
    from demorgan_lab import graph

    calls = []

    def counted(g):
        calls.append(g)
        return homomorphic_images(g)

    monkeypatch.setattr(graph, "homomorphic_images", counted)
    reach = s_star_reachable(GraphPair(cycle(4), 2))
    # pairs that differ only in the counter share their graph, and its
    # images are computed for the first of them
    assert len(calls) == len({id(g) for g in calls}) < len(reach) == 101
    g = cycle(4)
    a, b = homomorphic_images(g), homomorphic_images(g)  # each call a fresh list
    assert type(a) is list and a is not b and [h.to_json() for h in a] == [h.to_json() for h in b]


def test_graph_isomorphic():
    assert graph_isomorphic(complete(3), complete(3))
    assert not graph_isomorphic(complete(2), disjoint_union([point(), point()]))
    shuffled = Graph(["a", "b", "c", "d", "e", "f"],
                     [(1, 4), (4, 2), (2, 5), (5, 0), (0, 3), (3, 1)])
    assert graph_isomorphic(cycle(6), shuffled)
    assert not graph_isomorphic(cycle(6), disjoint_union([complete(3), complete(3)]))


def test_graph_isomorphic_against_canonical_keys():
    rng = random.Random(4)
    same = differ = 0
    for _ in range(400):
        n = rng.randint(0, 5)
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        g = Graph([f"v{i}" for i in range(n)], [e for e in pairs if rng.random() < 0.4])
        if rng.random() < 0.5:
            perm = list(range(n))
            rng.shuffle(perm)
            edges = [(perm[u], perm[v]) for u, v in g.edges()]
            if edges and rng.random() < 0.3:
                edges.pop(rng.randrange(len(edges)))
                edges.append(rng.choice(pairs))
        else:
            edges = rng.sample(pairs, len(g.edges()))
        h = Graph([f"w{i}" for i in range(n)], edges)
        agree = g.canonical_key() == h.canonical_key()
        assert graph_isomorphic(g, h) == agree
        same += agree
        differ += not agree
    assert same > 100 and differ > 100


def brute_key(g):
    """Oracle: the vertex count and the least edge mask over all n!
    relabellings, bit k of the mask standing for the k-th pair (i, j),
    i <= j, in lexicographic order."""
    pairs = [(i, j) for i in range(g.n) for j in range(i, g.n)]
    pos = {p: k for k, p in enumerate(pairs)}
    best = None
    for perm in itertools.permutations(range(g.n)):
        mask = 0
        for u, v in g.edges():
            a, b = sorted((perm[u], perm[v]))
            mask |= 1 << pos[(a, b)]
        if best is None or mask < best:
            best = mask
    return (g.n, best)


def test_canonical_key_orders_graphs_as_the_brute_force_key():
    # every labelled graph of at most 4 vertices, and a seeded sample of
    # 5 to 7 vertices, sorted by either key: the same sequence, with the
    # same ties
    graphs = []
    for n in range(5):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        graphs += [Graph([f"v{i}" for i in range(n)],
                         [p for t, p in enumerate(pairs) if mask >> t & 1])
                   for mask in range(1 << len(pairs))]
    rng = random.Random(11)
    for n in (5, 5, 5, 6, 6, 6, 7, 7) * 4:
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        density = rng.random()
        graphs.append(Graph([f"v{i}" for i in range(n)],
                            [p for p in pairs if rng.random() < density]))
    keys = [g.canonical_key() for g in graphs]
    brute = [brute_key(g) for g in graphs]
    by_key = sorted(range(len(graphs)), key=lambda i: (keys[i], i))
    assert by_key == sorted(range(len(graphs)), key=lambda i: (brute[i], i))
    for i, j in zip(by_key, by_key[1:]):
        assert (keys[i] == keys[j]) == (brute[i] == brute[j]), (graphs[i], graphs[j])
    # graphs with loops up to isomorphism: 1, 2, 6, 20 and 90 of 0 to 4 vertices
    assert len({k for k in keys if k[0] <= 4}) == 119


def petersen():
    edges = [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
    edges += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph([f"v{i}" for i in range(10)], edges)


def test_canonical_key_past_eight_vertices():
    g = petersen()
    perm = list(range(10))
    random.Random(2).shuffle(perm)
    relabelled = Graph([f"w{i}" for i in range(10)], [(perm[u], perm[v]) for u, v in g.edges()])
    assert g.canonical_key() == relabelled.canonical_key()
    # the pentagonal prism is cubic on ten vertices too, with 4-cycles
    prism = Graph([f"v{i}" for i in range(10)],
                  [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                  + [(5 + i, 5 + (i + 1) % 5) for i in range(5)])
    assert g.canonical_key() != prism.canonical_key()
    assert complete(12).canonical_key() != cycle(12).canonical_key()


def test_json_roundtrip():
    g = g2()
    h = Graph.from_json(g.to_json())
    assert graph_isomorphic(g, h)
    loaded = Graph.from_json('{"vertices": ["u", "v"], "edges": [["u", "u"], ["u", "v"]]}')
    assert graph_isomorphic(loaded, g2())
    with pytest.raises(GraphError):
        Graph.from_json('{"vertices": ["u"], "edges": [["u", "w"]]}')


def test_empty_graph_is_distinct_from_point():
    assert empty_graph().n == 0
    assert not graph_isomorphic(empty_graph(), point())
