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
from typing import Iterable, Iterator, Optional, Sequence

from ._order import Structure, bits, closure, derived, isomorphism, pairs, transpose
from .matrix import (FinMatrix, MatrixError, _is_index, _json_object, _LazyModule, _lift, _pack,
                     _point_involution)

# numpy on first use, as in matrix: dual_frame and the frame operations run
# without it; complex_matrix above _SMALL_COMPLEX_POINTS points loads it
np = _LazyModule(globals(), "np", "numpy")

__all__ = [
    "Frame", "FrameError", "CompatiblePreorder",
    "complex_matrix", "dual_frame", "roundtrip_check", "counit_check",
    "leibniz_subframe", "is_reduced_frame",
    "quotient", "generate_preorder", "immediate_quotients",
    "components", "disjoint_union", "frame_isomorphic", "frame_isomorphism",
    "random_frame", "singleton_frame",
]

MAX_COMPLEX_POINTS = 20
# Frames of at most this many points list their upsets on Python ints, at
# a cost that grows with the upsets; numpy's sweep grows with the 2^n point
# sets.  Per call on a 2-core VM (Python 3.11, numpy 2.4), ints were faster
# on every frame of at most 6 points measured, the 6-point antichain's 64
# upsets included (25 vs 35 us), and not on 7-point frames with 128 upsets
# (42-44 vs 39-42 us).
_SMALL_COMPLEX_POINTS = 6


class FrameError(ValueError):
    pass


def _rows(n: int, leq: Iterable[tuple[int, int]]) -> list[int]:
    """Reflexive bitmask rows of a relation given as pairs of points."""
    up = [1 << i for i in range(n)]
    for item in leq:
        if not (isinstance(item, (list, tuple)) and len(item) == 2
                and all(_is_index(x, n) for x in item)):
            raise FrameError(f"'leq' item {item!r} is not a pair of point indices")
        up[item[0]] |= 1 << item[1]
    return up


def _mirror(up: Sequence[int], invol: Sequence[int]) -> list[int]:
    """Rows of the relation {(invol(j), invol(i)) : i R j}."""
    out = [0] * len(up)
    for i, r in enumerate(up):
        for j in bits(r):
            out[invol[j]] |= 1 << invol[i]
    return out


def _compatible_closure(up: Sequence[int], invol: Sequence[int]) -> list[int]:
    """Least compatible preorder containing a relation: the relation and its
    involution mirror, closed.  The closure of a mirror-closed relation is
    mirror-closed, since a chain u <= w <= v mirrors to a chain."""
    return closure([a | b for a, b in zip(up, _mirror(up, invol))])


class Frame:
    """Immutable involutive poset with designated upset.

    The order is held as bitmask rows: bit j of up[i] is set iff i <= j.
    The constructor takes the order as pairs, adds reflexivity and
    validates; so does from_json.  Frames that this package builds from
    frames or graphs it already holds (restrictions, unions, quotients,
    random frames, singletons, the frames of graphs) hold the laws by
    construction and go through _of_rows, unchecked.
    """

    def __init__(self, labels: Sequence[str], leq: Iterable[tuple[int, int]],
                 invol: Sequence[int], designated: Iterable[int]):
        self._init(labels, _rows(len(labels), leq), invol, designated)
        self.validate()

    def _init(self, labels, up, invol, designated) -> None:
        self.labels = tuple(labels)
        self.n = len(self.labels)
        self.up = tuple(up)
        self.invol = tuple(invol)
        self.designated = frozenset(designated)

    @classmethod
    def _of_rows(cls, labels: Sequence[str], up: Sequence[int], invol: Sequence[int],
                 designated: Iterable[int]) -> "Frame":
        """A frame from reflexive bitmask rows whose laws hold by
        construction; not validated."""
        p = cls.__new__(cls)
        p._init(labels, up, invol, designated)
        return p

    @property
    def leq(self) -> frozenset[tuple[int, int]]:
        """The order as a set of pairs."""
        return pairs(self.up)

    def le(self, i: int, j: int) -> bool:
        return bool(self.up[i] >> j & 1)

    def validate(self) -> None:
        n, up, invol = self.n, self.up, self.invol
        points = set(range(n))
        if len(invol) != n or set(invol) != points:
            raise FrameError("involution is not a permutation")
        if any(invol[invol[i]] != i for i in range(n)):
            raise FrameError("involution is not an involution")
        if not self.designated <= points:
            raise FrameError("designated point out of range")
        for i, r in enumerate(up):
            for j in bits(r & ~(1 << i)):  # i < j in the order
                if up[j] >> i & 1:
                    raise FrameError(f"antisymmetry fails at {i},{j}")
                if up[j] & ~r:
                    raise FrameError("order is not transitive")
                if not up[invol[j]] >> invol[i] & 1:
                    raise FrameError("involution is not order-inverting")
        dmask = sum(1 << d for d in self.designated)
        if any(up[d] & ~dmask for d in self.designated):
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
        pos = {p: i for i, p in enumerate(pts)}
        if len(pos) != len(pts) or not all(_is_index(p, self.n) for p in pts):
            raise FrameError("restriction set needs distinct point indices")
        if any(self.invol[p] not in pos for p in pts):
            raise FrameError("restriction set is not involution-closed")
        return Frame._of_rows(
            [self.labels[p] for p in pts],
            _pack([self.up[p] for p in pts], sum(1 << p for p in pts)),
            [pos[self.invol[p]] for p in pts],
            [pos[p] for p in pts if p in self.designated],
        )

    def to_json(self) -> str:
        return json.dumps(self._as_dict())

    def _as_dict(self) -> dict:
        return {
            "points": list(self.labels),
            "leq": [[i, j] for (i, j) in sorted(self.leq) if i != j],
            "invol": list(self.invol),
            "designated": sorted(self.designated),
        }

    @staticmethod
    def from_json(text: str) -> "Frame":
        """A frame from JSON; "leq" may be any generating pairs, whose
        reflexive-transitive closure is the order.  FrameError names the
        missing key or the bad item."""
        keys = ("points", "leq", "invol", "designated")
        d = _json_object(text, "frame", keys, FrameError)
        for key in keys:
            if not isinstance(d[key], list):
                raise FrameError(f"frame {key!r} must be a list")
        for key in ("invol", "designated"):
            bad = [x for x in d[key] if not _is_index(x, len(d["points"]))]
            if bad:
                raise FrameError(f"{key!r} item {bad[0]!r} is not a point index")
        p = Frame._of_rows([str(x) for x in d["points"]],
                           closure(_rows(len(d["points"]), d["leq"])),
                           d["invol"], d["designated"])
        p.validate()
        return p

    def __repr__(self) -> str:
        return f"<Frame n={self.n} designated={sorted(self.designated)}>"


def singleton_frame(label: str = "*", designated: bool = True) -> Frame:
    return Frame._of_rows([label], [1], [0], [0] if designated else [])


def disjoint_union(ps: Sequence[Frame]) -> Frame:
    labels: list[str] = []
    up: list[int] = []
    invol: list[int] = []
    designated: list[int] = []
    off = 0
    for k, p in enumerate(ps):
        suffix = "" if len(ps) == 1 else f".{k}"
        labels.extend(l + suffix for l in p.labels)
        up.extend(r << off for r in p.up)
        invol.extend(i + off for i in p.invol)
        designated.extend(d + off for d in p.designated)
        off += p.n
    return Frame._of_rows(labels, up, invol, designated)


def components(p: Frame) -> list[Frame]:
    """Subframes closed upward, downward and under the involution."""
    # the closure of a symmetric relation is an equivalence: its rows, by
    # least point, are the components
    link = [r | d | 1 << p.invol[i] for i, (r, d) in enumerate(zip(p.up, transpose(p.up)))]
    return [p.restrict(list(bits(r))) for r in sorted(set(closure(link)), key=lambda r: r & -r)]


# -- complex matrices and dual frames ----------------------------------------


def complex_matrix(p: Frame) -> FinMatrix:
    """The matrix of all upsets: meet/join are intersection/union, the
    negation of U is the complement of the involution image of U, and the
    designated upsets are those containing the designated points.  The
    elements are the upsets' point masks in ascending order.  A frame of at
    most _SMALL_COMPLEX_POINTS points lists its upsets on Python ints
    (_int_upsets); a larger one sweeps all 2^n point sets with numpy
    (_swept_upsets)."""
    n = p.n
    if n > MAX_COMPLEX_POINTS:
        raise FrameError(f"complex matrix of {n} points would be too large")
    found = _int_upsets(p) if n <= _SMALL_COMPLEX_POINTS else None
    elem, neg, designated = found or _swept_upsets(p)
    names = p.labels

    def label(i: int) -> str:
        return "{" + ",".join(names[u] for u in bits(elem[i])) + "}"

    # set-notation labels are for reading; skip them on huge carriers
    return FinMatrix._trusted(
        label if len(elem) <= 2048 else "U{}".format, neg, len(elem) - 1, 0,
        designated, ["demorgan"], elem,
    )


def _int_upsets(p: Frame) -> Optional[tuple[list[int], list[int], list[int]]]:
    """complex_matrix's carrier on Python ints: the upset masks in ascending
    order, the index of each one's negation, and the designated indices.
    The points are taken maximal first (fewest points above them), each
    upset arising once, from the upset of the points taken before its last
    point, which is minimal in it; each carries its involution image.  None
    when that order is no linear extension, which happens only to rows
    built unchecked that are no partial order."""
    up, invol = p.up, p.invol
    image = {0: 0}  # each upset of the points taken so far: its involution image
    taken = 0
    for u in sorted(range(p.n), key=lambda u: up[u].bit_count()):
        bit, above = 1 << u, up[u] & taken
        if up[u] ^ above != bit:
            return None
        flip = 1 << invol[u]
        image.update([(s | bit, i | flip) for s, i in image.items() if s & above == above])
        taken |= bit
    elem = sorted(image)
    at = {s: k for k, s in enumerate(elem)}
    neg = [at.get(taken ^ image[s]) for s in elem]
    if None in neg:
        raise FrameError("negation left the upset lattice")
    dmask = sum(1 << d for d in p.designated)
    return elem, neg, [k for k, s in enumerate(elem) if s & dmask == dmask]


def _swept_upsets(p: Frame) -> tuple[list[int], list[int], list[int]]:
    """_int_upsets by a numpy sweep over all 2^n point sets."""
    n = p.n
    # for every point set S, indexed by its mask and built up one point at a
    # time: the union of the principal upsets of its points, which is S iff
    # S is an upset, and its involution image
    hull = img = np.zeros(1, dtype=np.uint32)
    for u in range(n):
        hull = np.concatenate((hull, hull | np.uint32(p.up[u])))
        img = np.concatenate((img, img | np.uint32(1 << p.invol[u])))
    upsets = np.flatnonzero(hull == np.arange(1 << n, dtype=np.uint32)).astype(np.uint32)
    negmasks = np.uint32((1 << n) - 1) & ~img[upsets]
    neg_idx = np.searchsorted(upsets, negmasks)
    if not np.array_equal(upsets[neg_idx], negmasks):
        raise FrameError("negation left the upset lattice")
    dmask = np.uint32(sum(1 << d for d in p.designated))
    designated = np.flatnonzero((upsets & dmask) == dmask)
    return upsets.tolist(), neg_idx.tolist(), designated.tolist()


@derived
def dual_frame(m: FinMatrix) -> Frame:
    """Prime filters ordered by inclusion, with the involution sending a
    filter U to {a : ~a not in U}; designated are the filters containing
    the designated set of m.  Kept per matrix: both are immutable."""
    if "demorgan" not in m.flags:
        raise MatrixError("dual_frame needs a De Morgan matrix")
    jis = m.join_irreducibles()
    masks = [m.enc[j] for j in jis]
    invol = _point_involution(m)
    if invol is None:
        raise FrameError("dual involution left the prime filters")
    # up(j1) included in up(j2) iff j2 <= j1
    up = [sum(1 << b for b, eb in enumerate(masks) if eb & ea == eb) for ea in masks]
    # a filter contains the designated set iff it contains its meet
    gen = m._designated_meet()
    designated = [a for a, j in enumerate(jis) if m.enc[j] & gen == m.enc[j]]
    p = Frame._of_rows([m.label(j) for j in jis], up, invol, designated)
    # m may be a matrix built unchecked (FinMatrix._trusted) whose negation
    # breaks a De Morgan law; then its dual may be no frame (and where it
    # is one, roundtrip_check still fails on the negation)
    p.validate()
    return p


def roundtrip_check(m: FinMatrix) -> bool:
    """True iff the complex matrix of the dual frame is isomorphic to m, by
    the canonical map sending a to the set of prime filters containing a:
    matrix._lift keys each element by the points below it, bit a for point
    a as in the complex matrix's masks, and checks the map; it says why
    meet and join need no check.  False also when the dual is not a frame,
    which happens only to a matrix built unchecked whose negation breaks a
    De Morgan law."""
    try:
        p = dual_frame(m)
    except FrameError:
        return False
    return _lift(m, [1 << a for a in range(p.n)], complex_matrix(p)) is not None


def counit_check(p: Frame) -> bool:
    """True iff the dual frame of the complex matrix is isomorphic to p, by
    the canonical map sending point u to the prime filter of the upsets
    holding u: the dual point whose join-irreducible is the principal upset
    of u, mask p.up[u].  It must be a bijection carrying each order row
    onto the image's row, and keeping the involution and designation.  On
    a valid frame the duality theorem makes that map an isomorphism, so
    the verdict is frame_isomorphic's, without its search.  A FrameError
    from complex_matrix or dual_frame (rows built unchecked that break a
    law) propagates."""
    c = complex_matrix(p)
    q = dual_frame(c)
    at = {c.enc[j]: a for a, j in enumerate(c.join_irreducibles())}
    h = [at.get(row) for row in p.up]
    return (None not in h and len(set(h)) == q.n == p.n
            and all(q.up[h[u]] == sum(1 << h[v] for v in bits(row)) for u, row in enumerate(p.up))
            and all(q.invol[a] == h[v] for a, v in zip(h, p.invol))
            and {h[d] for d in p.designated} == q.designated)


# -- Leibniz subframes ---------------------------------------------------------


def leibniz_subframe(p: Frame) -> Frame:
    """Subframe on the minimal designated points and their involution
    images; its complex matrix is the Leibniz reduct of the complex of p."""
    mind = p.min_of(p.designated)
    keep = set(mind) | {p.invol[u] for u in mind}
    return p.restrict(sorted(keep))


def is_reduced_frame(p: Frame) -> bool:
    return leibniz_subframe(p).n == p.n


# -- quotients by compatible preorders ----------------------------------------


class CompatiblePreorder:
    """A reflexive transitive relation extending the frame order, with
    u <= v implying invol(v) <= invol(u); held as bitmask rows like the
    frame order.  The constructor takes pairs and checks all three laws."""

    def __init__(self, frame: Frame, rel: Iterable[tuple[int, int]]):
        up = _rows(frame.n, rel)
        if any(a & ~b for a, b in zip(frame.up, up)):
            raise FrameError("preorder must extend the frame order")
        if _compatible_closure(up, frame.invol) != up:
            raise FrameError("preorder is not transitive or not compatible with the involution")
        self.frame, self.up = frame, tuple(up)

    @classmethod
    def _of_rows(cls, frame: Frame, up: Sequence[int]) -> "CompatiblePreorder":
        """A preorder that holds the laws by construction; not checked."""
        q = cls.__new__(cls)
        q.frame, q.up = frame, tuple(up)
        return q

    @property
    def rel(self) -> frozenset[tuple[int, int]]:
        """The preorder as a set of pairs."""
        return pairs(self.up)


def generate_preorder(p: Frame, u: int, v: int) -> CompatiblePreorder:
    """Least compatible preorder containing the frame order and (u, v)."""
    up = list(p.up)
    up[u] |= 1 << v
    return CompatiblePreorder._of_rows(p, _compatible_closure(up, p.invol))


def quotient(p: Frame, q: CompatiblePreorder) -> Frame:
    """Points are the equivalence classes of q, ordered by q; designated is
    the q-upward closure of the designated points."""
    if q.frame is not p and q.frame.up != p.up:
        raise FrameError("preorder belongs to a different frame")
    up, down = q.up, transpose(q.up)
    eq = [r & d for r, d in zip(up, down)]  # the class of each point
    masks = sorted(set(eq), key=lambda c: c & -c)  # by least member
    cls = [masks.index(c) for c in eq]
    classes = [list(bits(c)) for c in masks]
    rows = [sum(1 << k for k in {cls[j] for j in bits(up[c[0]])}) for c in classes]
    invol = [cls[p.invol[c[0]]] for c in classes]
    dmask = sum(1 << d for d in p.designated)
    designated = [k for k, c in enumerate(classes) if down[c[0]] & dmask]
    labels = ["+".join(p.labels[j] for j in c) for c in classes]
    return Frame._of_rows(labels, rows, invol, designated)


def immediate_quotients(p: Frame) -> Iterator[Frame]:
    """Quotients by the atoms of the compatible-preorder lattice.

    Every compatible preorder properly extending the order contains the one
    generated by any of its new pairs, so the atoms are the minimal
    single-pair-generated preorders.
    """
    gen: dict[tuple[int, ...], CompatiblePreorder] = {}
    for u, v in itertools.product(range(p.n), repeat=2):
        if not p.le(u, v):
            q = generate_preorder(p, u, v)
            gen.setdefault(q.up, q)
    rels = sorted(gen, key=lambda up: sorted(pairs(up)))
    for r in rels:
        if not any(o != r and all(a & ~b == 0 for a, b in zip(o, r)) for o in rels):
            yield quotient(p, gen[r])


# -- isomorphism and random generation ----------------------------------------


def frame_isomorphic(p: Frame, q: Frame) -> bool:
    return frame_isomorphism(p, q) is not None


def frame_isomorphism(p: Frame, q: Frame) -> Optional[tuple[int, ...]]:
    """A point bijection preserving order, involution and designation, or
    None (see _order.isomorphism)."""
    return isomorphism(_structure(p), _structure(q))


def _structure(p: Frame) -> Structure:
    return Structure(p.up, transpose(p.up), p.invol, [u in p.designated for u in range(p.n)])


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
        up = [0] * n
        for _ in range(rng.randint(0, n)):
            i = rng.randrange(n)
            up[i] |= 1 << rng.randrange(n)
        up = _compatible_closure(up, invol)
        if any(r & d != 1 << i for i, (r, d) in enumerate(zip(up, transpose(up)))):
            continue
        seed = [u for u in range(n) if rng.random() < 0.5]
        designated = {v for u in seed for v in bits(up[u])}
        return Frame._of_rows([f"u{i}" for i in range(n)], up, invol, designated)
