"""Finite symmetric graphs with loops: homomorphism and coloring search,
plus the pair-rewriting steps that mirror submatrix closure on the matrix
side, and the breadth-first search of the pairs they reach, each with its
depth (s_star_reachable, which the sstar command prints)."""

from __future__ import annotations

import itertools
import json
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._order import Record, Structure, bits, canonical, closure, derived, explore, isomorphism
from .matrix import _json_object

__all__ = [
    "Graph", "GraphPair", "GraphError",
    "hom_search", "is_n_colorable", "weak_n_coloring",
    "disjoint_union", "contract_isolated_edge", "has_loop", "components",
    "homomorphic_images", "s_star_step", "s_star_reachable",
    "graph_isomorphic",
    "complete", "cycle", "point", "loop_graph", "g2", "empty_graph",
    "all_graphs",
]


class GraphError(ValueError):
    pass


class Graph:
    """Immutable symmetric graph; vertices 0..n-1 with labels, loops allowed."""

    def __init__(self, labels: Sequence[str], edges: Iterable[tuple[int, int]]):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise GraphError("edge out of range")
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(frozenset(s) for s in adj)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in range(self.n) for v in self.adj[u] if u <= v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def is_loop(self, u: int) -> bool:
        return u in self.adj[u]

    def is_isolated(self, u: int) -> bool:
        return not self.adj[u]

    def has_isolated_vertex(self) -> bool:
        return any(self.is_isolated(u) for u in range(self.n))

    def canonical_key(self) -> tuple:
        """Iso-invariant key: the vertex count, then the rows of the
        canonical form (_order.canonical), which order graphs of one size
        as their least edge masks over all relabellings do."""
        return (self.n, canonical(_structure(self)))

    def to_json(self) -> str:
        return json.dumps(self._as_dict())

    def _as_dict(self) -> dict:
        return {
            "vertices": list(self.labels),
            "edges": [[self.labels[u], self.labels[v]] for u, v in self.edges()],
        }

    @staticmethod
    def from_json(text: str) -> "Graph":
        d = _json_object(text, "graph", ("vertices", "edges"), GraphError)
        for key in ("vertices", "edges"):
            if not isinstance(d[key], list):
                raise GraphError(f"graph {key!r} must be a list")
        labels = [str(x) for x in d["vertices"]]
        pos = {l: i for i, l in enumerate(labels)}
        if len(pos) != len(labels):
            raise GraphError("duplicate vertex labels")
        edges = []
        for item in d["edges"]:
            if not (isinstance(item, list) and len(item) == 2 and all(str(x) in pos for x in item)):
                raise GraphError(f"'edges' item {item!r} is not a pair of vertex labels")
            edges.append((pos[str(item[0])], pos[str(item[1])]))
        return Graph(labels, edges)

    def __repr__(self) -> str:
        return f"<Graph n={self.n} edges={self.edges()}>"


class GraphPair(Record, frozen=True):
    """A graph with a designated-singleton counter, rewritten by s_star_step."""

    graph: Graph
    counter: int

    def __post_init__(self) -> None:
        if self.counter < 0:
            raise GraphError("counter must be non-negative")

    @derived
    def key(self) -> tuple:
        return (*self.graph.canonical_key(), self.counter)


# -- named graphs --------------------------------------------------------------


def empty_graph() -> Graph:
    return Graph([], [])


def point() -> Graph:
    return Graph(["u"], [])


def loop_graph() -> Graph:
    return Graph(["u"], [(0, 0)])


def complete(n: int) -> Graph:
    if n < 1:
        raise GraphError("complete graph needs n >= 1")
    return Graph([f"v{i}" for i in range(n)],
                 [(i, j) for i in range(n) for j in range(i + 1, n)])


def cycle(n: int) -> Graph:
    if n < 3:
        raise GraphError("cycle needs n >= 3")
    return Graph([f"v{i}" for i in range(n)], [(i, (i + 1) % n) for i in range(n)])


def g2() -> Graph:
    """A reflexive vertex adjacent to an irreflexive one."""
    return Graph(["u", "v"], [(0, 0), (0, 1)])


def disjoint_union(gs: Sequence[Graph]) -> Graph:
    labels: list[str] = []
    edges: list[tuple[int, int]] = []
    off = 0
    for k, g in enumerate(gs):
        suffix = "" if len(gs) == 1 else f".{k}"
        labels.extend(l + suffix for l in g.labels)
        edges.extend((u + off, v + off) for u, v in g.edges())
        off += g.n
    return Graph(labels, edges)


def has_loop(g: Graph) -> bool:
    return any(g.is_loop(u) for u in range(g.n))


def components(g: Graph) -> list[Graph]:
    # adjacency is symmetric, so its closure's rows are the components
    return [_induced(g, list(bits(r)))
            for r in sorted(set(closure(_rows(g))), key=lambda r: r & -r)]


def _induced(g: Graph, vs: Sequence[int]) -> Graph:
    """The subgraph of g on the vertices vs, renumbered in that order."""
    pos = {v: i for i, v in enumerate(vs)}
    return Graph([g.labels[v] for v in vs],
                 [(pos[u], pos[v]) for u, v in g.edges() if u in pos and v in pos])


def contract_isolated_edge(g: Graph) -> Optional[Graph]:
    """Replace one isolated two-vertex loopless component by a single
    isolated vertex; None when no such component exists."""
    for u, v in g.edges():
        if u != v and g.adj[u] == {v} and g.adj[v] == {u}:
            return _induced(g, [w for w in range(g.n) if w != v])
    return None


# -- homomorphisms and colorings ----------------------------------------------


def hom_search(g: Graph, h: Graph) -> Optional[dict[int, int]]:
    """Some edge-preserving map g -> h, or None, by backtracking: the
    vertices of g by decreasing degree, each trying the vertices of h in
    order.  The map lists g's vertices in that order.  The backtracking
    keeps an explicit stack, as _order.isomorphism does, so a long path
    of vertices costs no recursion."""
    if g.n == 0:
        return {}
    if h.n == 0:
        return None
    order = sorted(range(g.n), key=lambda u: -len(g.adj[u]))
    image = [-1] * g.n  # -1 while unmapped

    def options(u: int) -> Iterator[int]:
        loop = g.is_loop(u)
        for x in range(h.n):
            if loop and not h.is_loop(x):
                continue
            for w in g.adj[u]:
                if image[w] >= 0 and not h.has_edge(x, image[w]):
                    break
            else:
                yield x

    stack: list[Iterator[int]] = []  # the untried images of each mapped vertex
    it = options(order[0])
    while True:
        x = next(it, None)
        if x is None:
            if not stack:
                return None
            it = stack.pop()
            image[order[len(stack)]] = -1
            continue
        image[order[len(stack)]] = x
        if len(stack) == g.n - 1:
            return {u: image[u] for u in order}
        stack.append(it)
        it = options(order[len(stack)])


def is_n_colorable(g: Graph, n: int) -> bool:
    if n < 1:
        raise GraphError("colorings need n >= 1")
    return hom_search(g, complete(n)) is not None


def weak_n_coloring(g: Graph, n: int) -> Optional[dict[int, int]]:
    """A partial homomorphism to the n-clique defined on all neighbors of
    at least one vertex, or None.

    It suffices to try, for each vertex u, the induced subgraph on exactly
    the neighbors of u: any larger domain restricts to this one.
    """
    if n < 1:
        raise GraphError("colorings need n >= 1")
    for u in range(g.n):
        dom = sorted(g.adj[u])
        f = hom_search(_induced(g, dom), complete(n))
        if f is not None:
            return {dom[i]: f[i] for i in range(len(dom))}
    return None


def graph_isomorphic(g: Graph, h: Graph) -> bool:
    """True iff some vertex bijection preserves adjacency (see
    _order.isomorphism)."""
    return isomorphism(_structure(g), _structure(h)) is not None


def _rows(g: Graph) -> list[int]:
    """Adjacency as bitmask rows."""
    return [sum(1 << v for v in g.adj[u]) for u in range(g.n)]


def _structure(g: Graph) -> Structure:
    rows = _rows(g)
    return Structure(rows, rows, range(g.n), [0] * g.n)


# -- surjective images and the pair rewriting ---------------------------------


HOM_IMAGE_GUARD = 5


def _partitions(n: int) -> Iterator[list[int]]:
    """All set partitions of range(n) as restricted-growth block ids, in
    lexicographic order."""
    if n == 0:
        yield []
        return
    for ids in _partitions(n - 1):
        for b in range(max(ids, default=-1) + 2):
            yield ids + [b]


def homomorphic_images(g: Graph) -> list[Graph]:
    """All images of surjective homomorphisms, up to isomorphism: collapse
    vertices by a partition, then add any set of extra edges.  At most
    HOM_IMAGE_GUARD vertices."""
    if g.n > HOM_IMAGE_GUARD:
        raise GraphError(f"homomorphic_images guard exceeded ({g.n} > {HOM_IMAGE_GUARD})")
    images = (_supergraphs(max(ids) + 1 if ids else 0, "w",
                           {tuple(sorted((ids[u], ids[v]))) for u, v in g.edges()})
              for ids in _partitions(g.n))
    return _classes(itertools.chain.from_iterable(images), Graph.canonical_key)


@derived
def _images(g: Graph) -> tuple[Graph, ...]:
    """homomorphic_images(g), kept on g: s_star_step meets one graph in
    pairs that differ only in the counter."""
    return tuple(homomorphic_images(g))


def _supergraphs(k: int, prefix: str, base: set[tuple[int, int]]) -> Iterator[Graph]:
    """Every graph on the vertices prefix + "0", ... whose edges include base."""
    extra = [(i, j) for i in range(k) for j in range(i, k) if (i, j) not in base]
    for mask in range(1 << len(extra)):
        yield Graph([f"{prefix}{i}" for i in range(k)],
                    [*base, *(p for t, p in enumerate(extra) if mask >> t & 1)])


def _classes(items: Iterable, key: Callable) -> list:
    """The first item met of each class of key, in key order."""
    out: dict = {}
    for x in items:
        out.setdefault(key(x), x)
    return [out[k] for k in sorted(out)]


def s_star_step(pair: GraphPair) -> list[GraphPair]:
    """All pairs reachable by one rewriting step.

    The five moves: (1) replace the graph by a homomorphic image; (2)
    contract an isolated edge; (3) drop a non-empty group of components and
    bump the counter; (4) decrement a counter that stays >= 1; (5) drop the
    last counter when the graph has a loop.
    """
    g, i = pair.graph, pair.counter
    out = [GraphPair(h, i) for h in _images(g)]
    c = contract_isolated_edge(g)
    if c is not None:
        out.append(GraphPair(c, i))
    comps = components(g)
    for r in range(1, len(comps) + 1):
        for drop in itertools.combinations(range(len(comps)), r):
            keep = [comps[k] for k in range(len(comps)) if k not in drop]
            out.append(GraphPair(disjoint_union(keep) if keep else empty_graph(), i + 1))
    if i >= 2:
        out.append(GraphPair(g, i - 1))
    if i == 1 and has_loop(g):
        out.append(GraphPair(g, 0))
    return _classes(out, GraphPair.key)


def s_star_reachable(pair: GraphPair, steps: Optional[int] = None) -> dict[GraphPair, int]:
    """The pairs reachable from pair by at most `steps` rewriting steps (any
    number when None), up to isomorphism, each with its depth: the fewest
    steps that reach it.  Breadth first (_order.explore), each class kept
    as the pair that first reaches it; the dict lists them in key order.

    The counter is bounded by the start counter plus the component count,
    and graphs never grow, so the closure is finite.
    """
    return dict(sorted(explore([pair], s_star_step, GraphPair.key, steps), key=lambda t: t[0].key()))


def all_graphs(max_vertices: int, allow_isolated: bool = True,
               allow_empty: bool = False) -> list[Graph]:
    """All graphs with at most max_vertices, up to isomorphism; deterministic
    order.  Loops count as edges, so a reflexive vertex is not isolated."""
    graphs = itertools.chain([empty_graph()] if allow_empty else [],
                             *(_supergraphs(n, "v", set()) for n in range(1, max_vertices + 1)))
    return _classes((g for g in graphs if allow_isolated or not g.has_isolated_vertex()),
                    Graph.canonical_key)
