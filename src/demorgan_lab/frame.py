"""Finite posets with an order-inverting involution and a designated upset.

These are the duals of finite De Morgan matrices: the complex matrix of a
frame is its upset lattice with complement-of-involution-image negation, and
the dual frame of a matrix is its poset of prime filters.  At finite scale
the two constructions are mutually inverse; quotients of frames correspond
to submatrices, and the Leibniz reduct corresponds to a subframe.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .matrix import FinMatrix, MatrixError, _dual_partner, _point_sets

__all__ = [
    "Frame", "FrameError", "CompatiblePreorder",
    "complex_matrix", "dual_frame", "roundtrip_check", "counit_check",
    "leibniz_subframe", "is_reduced_frame",
    "quotient", "generate_preorder", "immediate_quotients",
    "components", "disjoint_union", "frame_isomorphic", "frame_isomorphism",
    "random_frame", "singleton_frame",
]

MAX_COMPLEX_POINTS = 20


class FrameError(ValueError):
    pass


class Frame:
    """Immutable involutive poset with designated upset; validated on build."""

    def __init__(
        self,
        labels: Sequence[str],
        leq: Iterable[tuple[int, int]],
        invol: Sequence[int],
        designated: Iterable[int],
        *,
        validate: bool = True,
    ):
        self.labels = tuple(labels)
        self.n = len(self.labels)
        rel = {(i, i) for i in range(self.n)} | {tuple(p) for p in leq}
        self.leq = frozenset(rel)
        self.invol = tuple(invol)
        self.designated = frozenset(designated)
        self.up = tuple(
            frozenset(j for j in range(self.n) if (i, j) in self.leq)
            for i in range(self.n)
        )
        if validate:
            self.validate()

    def le(self, i: int, j: int) -> bool:
        return (i, j) in self.leq

    def validate(self) -> None:
        n = self.n
        if len(self.invol) != n or sorted(self.invol) != list(range(n)):
            raise FrameError("involution is not a permutation")
        for i, j in self.leq:
            if not (0 <= i < n and 0 <= j < n):
                raise FrameError("order out of range")
            if (j, i) in self.leq and i != j:
                raise FrameError(f"antisymmetry fails at {i},{j}")
            if (self.invol[j], self.invol[i]) not in self.leq:
                raise FrameError("involution is not order-inverting")
            for k in range(n):
                if (j, k) in self.leq and (i, k) not in self.leq:
                    raise FrameError("order is not transitive")
        for i in range(n):
            if self.invol[self.invol[i]] != i:
                raise FrameError("involution is not an involution")
        for d in self.designated:
            if not (0 <= d < n):
                raise FrameError("designated point out of range")
            for j in self.up[d]:
                if j not in self.designated:
                    raise FrameError("designated set is not an upset")

    def min_of(self, points: Iterable[int]) -> frozenset[int]:
        pts = set(points)
        return frozenset(
            p for p in pts if not any(q != p and self.le(q, p) for q in pts)
        )

    def max_of(self, points: Iterable[int]) -> frozenset[int]:
        pts = set(points)
        return frozenset(
            p for p in pts if not any(q != p and self.le(p, q) for q in pts)
        )

    def restrict(self, points: Sequence[int]) -> "Frame":
        pts = sorted(points)
        if any(self.invol[p] not in pts for p in pts):
            raise FrameError("restriction set is not involution-closed")
        pos = {p: i for i, p in enumerate(pts)}
        return Frame(
            [self.labels[p] for p in pts],
            [(pos[i], pos[j]) for (i, j) in self.leq if i in pos and j in pos],
            [pos[self.invol[p]] for p in pts],
            [pos[p] for p in pts if p in self.designated],
        )

    def to_json(self) -> str:
        cover = [(i, j) for (i, j) in sorted(self.leq) if i != j]
        return json.dumps({
            "points": list(self.labels),
            "leq": [list(p) for p in cover],
            "invol": list(self.invol),
            "designated": sorted(self.designated),
        })

    @staticmethod
    def from_json(text: str) -> "Frame":
        d = json.loads(text)
        n = len(d["points"])
        rel = {(i, i) for i in range(n)} | {tuple(p) for p in d["leq"]}
        changed = True  # reflexive-transitive closure of the generating pairs
        while changed:
            changed = False
            for (i, j), (k, l) in itertools.product(list(rel), repeat=2):
                if j == k and (i, l) not in rel:
                    rel.add((i, l))
                    changed = True
        return Frame([str(x) for x in d["points"]], rel, d["invol"], d["designated"])

    def __repr__(self) -> str:
        return f"<Frame n={self.n} designated={sorted(self.designated)}>"


def singleton_frame(label: str = "*", designated: bool = True) -> Frame:
    return Frame([label], [], [0], [0] if designated else [])


def disjoint_union(ps: Sequence[Frame]) -> Frame:
    labels: list[str] = []
    leq: list[tuple[int, int]] = []
    invol: list[int] = []
    designated: list[int] = []
    off = 0
    for k, p in enumerate(ps):
        suffix = "" if len(ps) == 1 else f".{k}"
        labels.extend(l + suffix for l in p.labels)
        leq.extend((i + off, j + off) for (i, j) in p.leq)
        invol.extend(i + off for i in p.invol)
        designated.extend(d + off for d in p.designated)
        off += p.n
    return Frame(labels, leq, invol, designated)


def components(p: Frame) -> list[Frame]:
    """Subframes closed upward, downward and under the involution."""
    parent = list(range(p.n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for i, j in p.leq:
        union(i, j)
    for i in range(p.n):
        union(i, p.invol[i])
    groups: dict[int, list[int]] = {}
    for i in range(p.n):
        groups.setdefault(find(i), []).append(i)
    return [p.restrict(g) for _, g in sorted(groups.items())]


# -- complex matrices and dual frames ----------------------------------------


def complex_matrix(p: Frame) -> FinMatrix:
    """The matrix of all upsets: meet/join are intersection/union, the
    negation of U is the complement of the involution image of U, and the
    designated upsets are those containing the designated points."""
    n = p.n
    if n > MAX_COMPLEX_POINTS:
        raise FrameError(f"complex matrix of {n} points would be too large")
    masks = np.arange(1 << n, dtype=np.uint32)
    ok = np.ones(1 << n, dtype=bool)
    upmask = [sum(1 << j for j in p.up[i]) for i in range(n)]
    for u in range(n):
        has = (masks >> u & 1).astype(bool)
        closed = (masks & np.uint32(upmask[u])) == np.uint32(upmask[u])
        ok &= ~has | closed
    upsets = masks[ok]
    full = np.uint32((1 << n) - 1)

    img = np.zeros_like(upsets)
    for u in range(n):
        img |= ((upsets >> np.uint32(u)) & np.uint32(1)) << np.uint32(p.invol[u])
    negmasks = full & ~img
    neg_idx = np.searchsorted(upsets, negmasks)
    if not np.array_equal(upsets[neg_idx], negmasks):
        raise FrameError("negation left the upset lattice")
    dmask = np.uint32(sum(1 << d for d in p.designated))
    designated = np.flatnonzero((upsets & dmask) == dmask)

    elem = upsets.tolist()

    def lbl(m: int) -> str:
        return "{" + ",".join(p.labels[u] for u in range(n) if m >> u & 1) + "}"

    # set-notation labels are for reading; skip them on huge carriers
    if len(elem) <= 2048:
        labels = [lbl(m) for m in elem]
    else:
        labels = [f"U{i}" for i in range(len(elem))]
    return FinMatrix._trusted(
        labels, neg_idx.tolist(), len(elem) - 1, 0,
        designated.tolist(), ["demorgan"], elem,
    )


def dual_frame(m: FinMatrix) -> Frame:
    """Prime filters ordered by inclusion, with the involution sending a
    filter U to {a : ~a not in U}; designated are the filters containing
    the designated set of m.  Cached per matrix: both are immutable."""
    p = m._cache.get("dual_frame")
    if p is not None:
        return p
    if "demorgan" not in m.flags:
        raise MatrixError("dual_frame needs a De Morgan matrix")
    if m.nbits > 64:
        raise MatrixError("dual_frame needs a powerset encoding of at most 64 bits")
    jis = m.join_irreducibles()
    idx = m._enc_index()
    invol = [jis.index(idx[_dual_partner(m, m.enc[j])]) for j in jis]
    # up(j1) included in up(j2) iff j2 <= j1
    leq = [
        (a, b) for a, b in itertools.product(range(len(jis)), repeat=2)
        if m.leq(jis[b], jis[a])
    ]
    # a filter contains the designated set iff it contains its meet
    gen = m.enc[m.top]
    for d in m.designated:
        gen &= m.enc[d]
    designated = [a for a, j in enumerate(jis) if m.enc[j] & gen == m.enc[j]]
    p = m._cache["dual_frame"] = Frame([m.labels[j] for j in jis], leq, invol, designated)
    return p


def roundtrip_check(m: FinMatrix) -> bool:
    """True iff the complex matrix of the dual frame is isomorphic to m.

    The candidate isomorphism is the canonical one sending a to the set of
    prime filters containing a; it is checked to be a designation- and
    negation-preserving lattice bijection (on all pairs of elements up to
    64 elements, on a deterministic sample of 4096 pairs beyond that).
    """
    p = dual_frame(m)
    c = complex_matrix(p)
    if c.n != m.n:
        return False
    eta_np = _point_sets(m)
    eta = [int(x) for x in eta_np]
    if set(eta) != set(c.enc) or len(set(eta)) != m.n:
        return False
    idx = {mask: i for i, mask in enumerate(c.enc)}
    h = [idx[x] for x in eta]
    if h[m.top] != c.top or h[m.bottom] != c.bottom:
        return False
    for a in range(m.n):
        if h[m.neg[a]] != c.neg[h[a]]:
            return False
        if (a in m.designated) != (h[a] in c.designated):
            return False
    # Lattice-hom check for eta.  For matrices carried by a powerset
    # encoding this is a theorem (the bit below each join-irreducible
    # distributes over bitwise meets and joins), so a sample suffices.
    if m.n * m.n <= 4096:
        a, b = np.divmod(np.arange(m.n * m.n), m.n)
    else:
        a, b = np.random.default_rng(0).integers(0, m.n, size=(2, 4096), dtype=np.int64)
    e = m._enc_np()
    return (np.array_equal(eta_np[m._mask_lookup(e[a] & e[b])], eta_np[a] & eta_np[b])
            and np.array_equal(eta_np[m._mask_lookup(e[a] | e[b])], eta_np[a] | eta_np[b]))


def counit_check(p: Frame) -> bool:
    """True iff the dual frame of the complex matrix is isomorphic to p."""
    return frame_isomorphic(dual_frame(complex_matrix(p)), p)


# -- Leibniz subframes ---------------------------------------------------------


def leibniz_subframe(p: Frame) -> Frame:
    """Subframe on the minimal designated points and their involution
    images; its complex matrix is the Leibniz reduct of the complex of p."""
    mind = p.min_of(p.designated)
    keep = set(mind) | {p.invol[u] for u in mind}
    return p.restrict(sorted(keep))


def is_reduced_frame(p: Frame) -> bool:
    mind = p.min_of(p.designated)
    return set(range(p.n)) == set(mind) | {p.invol[u] for u in mind}


# -- quotients by compatible preorders ----------------------------------------


@dataclass(frozen=True)
class CompatiblePreorder:
    """A reflexive transitive relation extending the frame order, with
    u <= v implying invol(v) <= invol(u)."""

    frame: Frame
    rel: frozenset[tuple[int, int]]

    def __post_init__(self):
        p, r = self.frame, self.rel
        if not self.frame.leq <= r:
            raise FrameError("preorder must extend the frame order")
        for i, j in r:
            if (p.invol[j], p.invol[i]) not in r:
                raise FrameError("preorder not compatible with the involution")
            for k in range(p.n):
                if (j, k) in r and (i, k) not in r:
                    raise FrameError("preorder not transitive")

    def holds(self, i: int, j: int) -> bool:
        return (i, j) in self.rel


def _preorder_closure(n: int, invol: Sequence[int], base: Iterable[tuple[int, int]]):
    rel = {(i, i) for i in range(n)} | set(base)
    changed = True
    while changed:
        changed = False
        for i, j in list(rel):
            t = (invol[j], invol[i])
            if t not in rel:
                rel.add(t)
                changed = True
        for (i, j), (k, l) in itertools.product(list(rel), repeat=2):
            if j == k and (i, l) not in rel:
                rel.add((i, l))
                changed = True
    return frozenset(rel)


def generate_preorder(p: Frame, u: int, v: int) -> CompatiblePreorder:
    """Least compatible preorder containing the frame order and (u, v)."""
    return CompatiblePreorder(p, _preorder_closure(p.n, p.invol, set(p.leq) | {(u, v)}))


def quotient(p: Frame, q: CompatiblePreorder) -> Frame:
    """Points are the equivalence classes of q, ordered by q; designated is
    the q-upward closure of the designated points."""
    if q.frame is not p and q.frame.leq != p.leq:
        raise FrameError("preorder belongs to a different frame")
    rel = q.rel
    classes: list[list[int]] = []
    cls = [-1] * p.n
    for i in range(p.n):
        if cls[i] >= 0:
            continue
        members = [j for j in range(p.n) if (i, j) in rel and (j, i) in rel]
        for j in members:
            cls[j] = len(classes)
        classes.append(members)
    leq = [
        (cls[i], cls[j]) for (i, j) in rel
    ]
    invol = [cls[p.invol[c[0]]] for c in classes]
    designated = [
        k for k, c in enumerate(classes)
        if any((d, c[0]) in rel for d in p.designated)
    ]
    labels = ["+".join(p.labels[j] for j in sorted(c)) for c in classes]
    return Frame(labels, leq, invol, designated)


def immediate_quotients(p: Frame) -> Iterator[Frame]:
    """Quotients by the atoms of the compatible-preorder lattice.

    Every compatible preorder properly extending the order contains the one
    generated by any of its new pairs, so the atoms are the minimal
    single-pair-generated preorders.
    """
    gen: dict[frozenset, CompatiblePreorder] = {}
    for u, v in itertools.product(range(p.n), repeat=2):
        if (u, v) in p.leq:
            continue
        q = generate_preorder(p, u, v)
        gen.setdefault(q.rel, q)
    rels = sorted(gen, key=sorted)
    for r in rels:
        if not any(other < r for other in rels):
            yield quotient(p, gen[r])


# -- isomorphism and random generation ----------------------------------------


def frame_isomorphic(p: Frame, q: Frame) -> bool:
    return frame_isomorphism(p, q) is not None


def frame_isomorphism(p: Frame, q: Frame) -> Optional[tuple[int, ...]]:
    """A point bijection preserving order, involution and designation, or
    None; backtracking over points with the fewest candidates first."""
    if p.n != q.n or len(p.designated) != len(q.designated):
        return None
    if len(p.leq) != len(q.leq):
        return None

    def key(f: Frame, u: int):
        below = sum(1 for v in range(f.n) if f.le(v, u))
        above = len(f.up[u])
        return (u in f.designated, below, above, f.invol[u] == u,
                f.invol[u] in f.designated)

    if sorted(key(p, u) for u in range(p.n)) != sorted(key(q, u) for u in range(q.n)):
        return None
    cands = [[v for v in range(q.n) if key(q, v) == key(p, u)] for u in range(p.n)]
    order = sorted(range(p.n), key=lambda u: len(cands[u]))
    mapping: list[Optional[int]] = [None] * p.n
    used = [False] * q.n

    def ok(u: int, v: int) -> bool:
        mi = mapping[p.invol[u]]
        if mi is not None and mi != q.invol[v]:
            return False
        for w in range(p.n):
            mw = mapping[w]
            if mw is None:
                continue
            if p.le(u, w) != q.le(v, mw) or p.le(w, u) != q.le(mw, v):
                return False
        return True

    def extend(i: int) -> bool:
        if i == p.n:
            return True
        u = order[i]
        if mapping[u] is not None:
            return extend(i + 1)
        for v in cands[u]:
            if used[v] or not ok(u, v):
                continue
            mapping[u] = v
            used[v] = True
            if extend(i + 1):
                return True
            mapping[u] = None
            used[v] = False
        return False

    return tuple(mapping) if extend(0) else None  # type: ignore[arg-type]


def random_frame(rng: random.Random, max_points: int = 8) -> Frame:
    """A pseudo-random valid frame: random involution, a compatible-preorder
    closure of random pairs (resampled until antisymmetric), and the upward
    closure of a random point set as designated upset."""
    while True:
        n = rng.randint(1, max_points)
        pts = list(range(n))
        rng.shuffle(pts)
        invol = [0] * n
        k = rng.randint(0, n // 2)
        for i in range(k):
            a, b = pts[2 * i], pts[2 * i + 1]
            invol[a], invol[b] = b, a
        for i in range(2 * k, n):
            invol[pts[i]] = pts[i]
        base = set()
        for _ in range(rng.randint(0, n)):
            base.add((rng.randrange(n), rng.randrange(n)))
        rel = _preorder_closure(n, invol, base)
        if any((i, j) in rel and (j, i) in rel and i != j
               for i, j in itertools.product(range(n), repeat=2)):
            continue
        seed = {u for u in range(n) if rng.random() < 0.5}
        designated = {v for u in seed for v in range(n) if (u, v) in rel}
        return Frame([f"u{i}" for i in range(n)], rel, invol, designated)
