"""Graph-to-matrix constructions and the classification of finite reduced
matrices by graph pairs.

A graph G yields a two-level frame on X and its involution copy (u sits
below the image of each neighbor); designating everything or only the upper
copy gives the plus/minus variants, and adding designated fixpoint
singletons completes the picture: every finite reduced De Morgan matrix is
the complex matrix of such a frame, so it is classified by two graphs and a
count."""

from __future__ import annotations

import re
from typing import TYPE_CHECKING

from ._order import Record, bits
from .formula import Atom, Formula, Neg, RuleInstance, conj, disj
from .frame import Frame, complex_matrix, components, disjoint_union, dual_frame, frame_isomorphic, singleton_frame
from .graph import Graph, empty_graph
from .graph import components as graph_components, disjoint_union as graph_union
from .matrix import FinMatrix, MatrixError, leibniz_congruence

if TYPE_CHECKING:
    from .matrix import MatrixMap

__all__ = [
    "TriplePresentation",
    "p_plus", "p_minus", "p_triple",
    "mu_plus", "mu_minus", "mu_triple",
    "gamma", "alpha_rule", "classify_reduced", "induced_matrix_map",
    "GAMMA_GUARD",
]

GAMMA_GUARD = 6


class TriplePresentation(Record, frozen=True):
    """Two graphs and a designated-singleton count presenting a reduced
    matrix: fully designated components, half designated components, and
    two-valued factors."""

    plus_graph: Graph
    minus_graph: Graph
    singletons: int

    def __post_init__(self) -> None:
        if self.singletons < 0:
            raise ValueError("singleton count must be non-negative")


def p_plus(g: Graph) -> Frame:
    """Frame on X and its involution copy, everything designated."""
    return _p_frame(g, plus=True)


def p_minus(g: Graph) -> Frame:
    """Same frame with only the involution copy designated."""
    return _p_frame(g, plus=False)


def _p_frame(g: Graph, plus: bool) -> Frame:
    """The order has height two, u below the copy n + w of each neighbor w,
    and the involution swaps u and n + u: the laws hold for every graph,
    which was validated where it entered, so the frame is not checked."""
    n = g.n
    labels = list(g.labels) + [l + "'" for l in g.labels]
    up = [1 << u | sum(1 << (n + w) for w in g.adj[u]) for u in range(n)]
    up += [1 << (n + u) for u in range(n)]
    invol = [n + u for u in range(n)] + list(range(n))
    designated = range(2 * n) if plus else range(n, 2 * n)
    return Frame._of_rows(labels, up, invol, designated)


def p_triple(t: TriplePresentation) -> Frame:
    """Frame of a presentation; the empty presentation gives the empty
    frame, whose complex matrix is the trivial one-element matrix."""
    parts = []
    if t.plus_graph.n:
        parts.append(p_plus(t.plus_graph))
    if t.minus_graph.n:
        parts.append(p_minus(t.minus_graph))
    parts.extend(singleton_frame(f"s{i}") for i in range(t.singletons))
    return disjoint_union(parts)


def mu_plus(g: Graph) -> FinMatrix:
    return complex_matrix(p_plus(g))


def mu_minus(g: Graph) -> FinMatrix:
    return complex_matrix(p_minus(g))


def mu_triple(t: TriplePresentation) -> FinMatrix:
    return complex_matrix(p_triple(t))


def gamma(g: Graph) -> FinMatrix:
    """Powerset matrix of the vertex set: the negation of U is the set of
    vertices with no neighbor in U, and only the full set is designated.

    Usually not a De Morgan matrix; the flag is set only when the negation
    is an involution.  That alone decides it: the neighbors of a union are
    the union of the neighbors, so ~(U | V) = ~U & ~V for every graph.
    """
    if g.n == 0:
        raise MatrixError("gamma needs a non-empty graph")
    if g.n > GAMMA_GUARD:
        raise MatrixError(f"gamma guard exceeded ({g.n} > {GAMMA_GUARD})")
    n = g.n
    size = 1 << n
    full = size - 1
    nbr = [sum(1 << v for v in g.adj[u]) for u in range(n)]

    def neighbors_of(mask: int) -> int:
        out = 0
        for u in range(n):
            if mask >> u & 1:
                out |= nbr[u]
        return out

    neg = [full & ~neighbors_of(m) for m in range(size)]
    demorgan = all(neg[neg[m]] == m for m in range(size))

    def label(m: int) -> str:
        return "{" + ",".join(g.labels[u] for u in bits(m)) + "}"

    return FinMatrix._trusted(
        label, neg, full, 0, [full],
        ["demorgan"] if demorgan else [], range(size),
    )


def _atom_for(label: str, index: int) -> Atom:
    name = re.sub(r"[^a-z0-9_]", "", label.lower())
    return Atom(f"p{name}" if name else f"p{index}")


def alpha_rule(g: Graph) -> RuleInstance:
    """The explosive rule whose failure in a plus-matrix is a homomorphism
    into g: one conjunctive clause per vertex, with the vertex atom positive
    and one negated atom per non-neighbor.

    The hom-order correspondence is stated for graphs without isolated
    vertices; the rule itself makes sense for any non-empty graph (an
    isolated vertex contributes its own negated atom to its clause).
    """
    if g.n == 0:
        raise MatrixError("alpha rule needs a non-empty graph")
    atoms = [_atom_for(g.labels[u], u) for u in range(g.n)]
    if len({a.name for a in atoms}) != g.n:
        atoms = [Atom(f"p{u}") for u in range(g.n)]
    parts = []
    for u in range(g.n):
        lits: list[Formula] = [atoms[u]]
        lits.extend(Neg(atoms[v]) for v in range(g.n) if v not in g.adj[u])
        parts.append(conj(lits))
    return RuleInstance.explosive([disj(parts)])


def classify_reduced(m: FinMatrix) -> TriplePresentation:
    """Read the presentation off the dual frame's components.

    Verified before returning: the frame of the resulting triple is
    isomorphic to the dual frame of m, which by duality pins the matrix
    up to isomorphism.
    """
    if "demorgan" not in m.flags:
        raise MatrixError("classification needs a De Morgan matrix")
    if not leibniz_congruence(m).is_identity():
        raise MatrixError("classification needs a reduced matrix")
    p = dual_frame(m)
    plus_parts: list[Graph] = []
    minus_parts: list[Graph] = []
    k = 0
    for comp in components(p):
        if comp.n == 1:
            if 0 not in comp.designated or comp.invol[0] != 0:
                raise MatrixError("reduced frame with a bad singleton component")
            k += 1
            continue
        if comp.n == 2:
            chain = comp.le(0, 1) or comp.le(1, 0)
            vertex = Graph(["u"], [(0, 0)] if chain else [])
            if len(comp.designated) == 2:
                plus_parts.append(vertex)
            elif len(comp.designated) == 1:
                minus_parts.append(vertex)
            else:
                raise MatrixError("component with empty designated set")
            continue
        mins = sorted(comp.min_of(range(comp.n)))
        maxs = comp.max_of(range(comp.n))
        if set(mins) & set(maxs):
            raise MatrixError("reduced frame violates the min/max split")
        pos = {u: i for i, u in enumerate(mins)}
        edges = [
            (pos[u], pos[v]) for u in mins for v in mins
            if comp.le(u, comp.invol[v])
        ]
        graph = Graph([comp.labels[u] for u in mins], edges)
        if len(comp.designated) == comp.n:
            plus_parts.append(graph)
        elif set(comp.designated) == set(maxs):
            minus_parts.append(graph)
        else:
            raise MatrixError("designated set is neither everything nor the top level")
    result = TriplePresentation(
        _normalized_union(plus_parts), _normalized_union(minus_parts), k
    )
    if not frame_isomorphic(p_triple(result), p):
        raise RuntimeError("internal: classification failed its duality check")
    return result


def _normalized_union(parts: list[Graph]) -> Graph:
    pieces = sorted((c for g in parts for c in graph_components(g)), key=Graph.canonical_key)
    return graph_union(pieces) if pieces else empty_graph()


def induced_matrix_map(g: Graph, h: Graph, hom: dict[int, int]) -> MatrixMap:
    """The matrix homomorphism from the plus-matrix of h to the plus-matrix
    of g induced by a graph homomorphism g -> h (preimage of upsets under
    the frame map extending hom by involution)."""
    from .matrix import MatrixMap
    mg, mh = mu_plus(g), mu_plus(h)
    gn = g.n

    def frame_map(point: int) -> int:
        if point < gn:
            return hom[point]
        return h.n + hom[point - gn]

    mapping = []
    for mask in mh.enc:
        pre = 0
        for pt in range(2 * gn):
            if mask >> frame_map(pt) & 1:
                pre |= 1 << pt
        mapping.append(mg._enc_index()[pre])
    return MatrixMap(mh, mg, tuple(mapping))
