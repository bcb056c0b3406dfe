"""Constructions on matrices and matrix isomorphism: products,
submatrices, interval splitting, free De Morgan algebras, DM4, and
find_isomorphism with its generic order search.  They are names of
demorgan_lab.matrix, which loads this module on the first read of one, so
the commands that run none of them (check, leibniz, dual, classify) do not
compile it.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._order import Record, Structure, explore, isomorphism
from .formula import Atom, Formula
from .matrix import FinMatrix, MatrixError, _dm4, _LazyModule, _lift, _pack, _row_chunks, evaluate

np = _LazyModule(globals(), "np", "numpy")


# -- products and submatrices ----------------------------------------------


def product(ms: Sequence[FinMatrix]) -> FinMatrix:
    """Direct product; designated tuples are the products of designated
    sets.  A tuple's mask is its components' masks side by side."""
    ms = tuple(ms)  # the labels read it later
    if not ms:
        raise MatrixError("product of an empty family")
    if len(ms) == 1:
        return ms[0]
    sizes = [m.n for m in ms]
    index = list(itertools.product(*(range(s) for s in sizes)))
    pos = {t: i for i, t in enumerate(index)}
    neg = [pos[tuple(m.neg[i] for m, i in zip(ms, t))] for t in index]
    top = pos[tuple(m.top for m in ms)]
    bottom = pos[tuple(m.bottom for m in ms)]
    designated = [pos[t] for t in index
                  if all(i in m.designated for m, i in zip(ms, t))]
    flags = ["demorgan"] if all("demorgan" in m.flags for m in ms) else []
    shifts = list(itertools.accumulate((m.nbits for m in ms[:-1]), initial=0))
    enc = [sum(m.enc[i] << sh for m, i, sh in zip(ms, t, shifts)) for t in index]
    return FinMatrix._trusted(
        lambda x: "(" + ",".join(m.label(i) for m, i in zip(ms, index[x])) + ")",
        neg, top, bottom, designated, flags, enc)


def submatrices(m: FinMatrix) -> Iterator[FinMatrix]:
    """All submatrices: subuniverses containing top and bottom, closed under
    the three operations, with the induced designated sets.

    Breadth first (_order.explore) from the least one, each closed set
    extended by each element outside it in index order: a fixed order.
    """
    neg = {m.enc[x]: m.enc[y] for x, y in enumerate(m.neg)}.__getitem__
    base = _closed([m.enc[m.top], m.enc[m.bottom]], neg)
    for s, _ in explore([base], lambda s: (_closed(s | {x}, neg) for x in m.enc if x not in s),
                        frozenset):
        yield _induced_submatrix(m, sorted(map(m._enc_index().__getitem__, s)))


def _closed(seed: Iterable[int], neg: Callable[[int], int],
            cap: Optional[int] = None) -> frozenset[int]:
    """The closure of a set of masks under &, | and neg: the subalgebra
    they generate.  MatrixError when it would pass cap elements (the free
    algebra's guard)."""
    elems = set(seed)
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        for t in [neg(x), *(x & y for y in elems), *(x | y for y in elems)]:
            if t not in elems:
                if cap is not None and len(elems) >= cap:
                    raise MatrixError("free algebra closure exceeded the size cap")
                elems.add(t)
                frontier.append(t)
    return frozenset(elems)


def _induced_submatrix(m: FinMatrix, elems: Sequence[int]) -> FinMatrix:
    pos = {e: i for i, e in enumerate(elems)}
    return FinMatrix._trusted(
        lambda x: m.label(elems[x]),
        [pos[m.neg[e]] for e in elems],
        pos[m.top], pos[m.bottom],
        [pos[e] for e in elems if e in m.designated],
        m.flags,
        [m.enc[e] for e in elems],
    )


# -- isomorphism --------------------------------------------------------------


def find_isomorphism(m1: FinMatrix, m2: FinMatrix) -> Optional[tuple[int, ...]]:
    """A bijection preserving tables, constants and designation, or None.

    When both are De Morgan matrices whose non-empty designated sets are
    filters (FinMatrix.is_bd_model), each is the complex matrix of its
    dual frame, so an isomorphism of the dual frames, lifted to elements
    by sending the join-irreducibles below each element to their images,
    is one of the matrices.  matrix._lift finds each element's image by
    its mask and checks the lift; it keeps the order both ways, so meet
    and join need no check.  Other pairs go through
    _find_isomorphism_generic.
    """
    if m1 is m2:
        return tuple(range(m1.n))
    if m1.n != m2.n or len(m1.designated) != len(m2.designated):
        return None
    if not (m1.is_bd_model() and m2.is_bd_model()):
        return _find_isomorphism_generic(m1, m2)
    from .frame import dual_frame, frame_isomorphism
    phi = frame_isomorphism(dual_frame(m1), dual_frame(m2))
    if phi is None:
        return None
    jis2 = m2.join_irreducibles()
    mp = _lift(m1, [m2.enc[jis2[b]] for b in phi], m2)
    if mp is None:
        raise RuntimeError("internal: dual frame isomorphism did not lift to the matrices")
    return mp


def _find_isomorphism_generic(m1: FinMatrix, m2: FinMatrix) -> Optional[tuple[int, ...]]:
    """find_isomorphism for any pair of matrices: an order isomorphism that
    preserves negation and designation.  A lattice bijection is an
    isomorphism iff it preserves the order, and then it keeps the bounds.
    No operation tables are built, so there is no size limit."""
    return isomorphism(_order_structure(m1), _order_structure(m2))


def _order_structure(m: FinMatrix) -> Structure:
    """The order of m as bitmask rows read off the masks, a chunk of rows at
    a time, with negation as the map and designation as the colour."""
    e = m._enc_np()
    up: list[int] = []
    down: list[int] = []
    for rows in _row_chunks(m.n, m.n):
        x = e[rows, None]
        meets = x & e[None, :]
        for le, out in ((meets == x, up), (meets == e[None, :], down)):
            packed = np.packbits(le, axis=1, bitorder="little")
            out.extend(int.from_bytes(row.tobytes(), "little") for row in packed)
    return Structure(up, down, m.neg, [x in m.designated for x in range(m.n)])


def is_matrix_isomorphism(m1: FinMatrix, m2: FinMatrix, mapping: Sequence[int]) -> bool:
    """True iff mapping is a bijection and a strict homomorphism, checked on
    all pairs of elements."""
    return (m1.n == m2.n and sorted(mapping) == list(range(m2.n))
            and MatrixMap(m1, m2, tuple(mapping)).is_strict())


class MatrixMap(Record):
    """An element map between matrices, checkable for the hom properties."""

    source: FinMatrix
    target: FinMatrix
    mapping: tuple[int, ...]

    def is_homomorphism(self) -> bool:
        h, s, t = self.mapping, self.source, self.target
        if h[s.top] != t.top or h[s.bottom] != t.bottom:
            return False
        for x in range(s.n):
            if h[s.neg[x]] != t.neg[h[x]]:
                return False
            for y in range(s.n):
                if h[s.meet(x, y)] != t.meet(h[x], h[y]):
                    return False
                if h[s.join(x, y)] != t.join(h[x], h[y]):
                    return False
        return all(h[x] in t.designated for x in s.designated)

    def is_strict(self) -> bool:
        h, s, t = self.mapping, self.source, self.target
        return self.is_homomorphism() and all(
            (x in s.designated) == (h[x] in t.designated) for x in range(s.n)
        )


# -- interval splitting -------------------------------------------------------


def split_at(m: FinMatrix, a: int) -> tuple[FinMatrix, FinMatrix, tuple[int, ...]]:
    """Split along a with a | ~a = top.

    Returns the interval matrices [bottom, a] and [bottom, ~a], whose
    negations are a & ~x and ~a & ~x, and the witness mapping sending x to
    the product element (a & x, ~a & x), found by matrix._lift: each
    join-irreducible's image is its mask's bits under a beside those under
    ~a, packed, which keeps and reflects containment as a | ~a = top, so
    the lift's order argument covers meet and join.  MatrixError unless x
    is designated exactly when a & x and ~a & x are designated in their
    intervals.
    """
    if "demorgan" not in m.flags:
        raise MatrixError("split_at needs a De Morgan matrix")
    na = m.neg[a]
    if m.join(a, na) != m.top:
        raise MatrixError("split_at needs a | ~a = top")
    des = {c: {m.meet(c, f) for f in m.designated} for c in (a, na)}  # of the intervals
    if any((x in m.designated) != (m.meet(a, x) in des[a] and m.meet(na, x) in des[na])
           for x in range(m.n)):
        raise MatrixError(f"split_at: the designated set does not split at {m.label(a)}")

    def interval(c: int) -> FinMatrix:
        elems = [x for x in range(m.n) if m.leq(x, c)]
        pos = {e: i for i, e in enumerate(elems)}
        neg = [pos[m.meet(c, m.neg[x])] for x in elems]
        designated = sorted(pos[f] for f in des[c])
        return FinMatrix._trusted(
            lambda x: m.label(elems[x]), neg, pos[c], pos[m.bottom], designated,
            ["demorgan"], _pack([m.enc[e] for e in elems], m.enc[c]))

    m1, m2 = interval(a), interval(na)
    ji_masks = [m.enc[j] for j in m.join_irreducibles()]
    halves = zip(_pack(ji_masks, m.enc[a]), _pack(ji_masks, m.enc[na]))
    witness = _lift(m, [x | y << m1.nbits for x, y in halves], product([m1, m2]))
    if witness is None:
        raise RuntimeError("internal: split witness failed verification")
    return m1, m2, witness


# -- free De Morgan algebras --------------------------------------------------


FREE_SIZE_CAP = 50_000


def free_dm_algebra(
    gens: Sequence[str],
    relations: Sequence[tuple[Formula, Formula]] = (),
) -> FinMatrix:
    """Free De Morgan algebra on the generators, distinct atom names (else
    MatrixError), modulo inequalities lhs <= rhs.

    Realized as the subalgebra of DM4^S generated by the generator
    projections, where S is the set of DM4 valuations of the generators
    satisfying the relations.  (Every De Morgan algebra is a subdirect power
    of the four-element one, so this is the free object.)  The designated
    set is left empty: only the algebra part is meaningful.
    """
    if len(gens) > 3:
        raise MatrixError("free algebra guard: at most 3 generators")
    for i, g in enumerate(gens):
        try:
            Atom(g)  # a relation names g only as an atom
        except ValueError:
            raise MatrixError(f"generator {g!r} is not an atom name") from None
        if g in gens[:i]:
            raise MatrixError(f"generator {g!r} is given twice")
    dm4 = dm4_algebra()
    S = []
    for vals in itertools.product(range(4), repeat=len(gens)):
        v = dict(zip(gens, vals))
        if all(dm4.leq(evaluate(dm4, v, l), evaluate(dm4, v, r)) for l, r in relations):
            S.append(v)
    if not S:
        raise MatrixError("relations are unsatisfiable over DM4")
    # An element of DM4^S is its coordinates' 2-bit DM4 masks side by side,
    # the first coordinate highest so that masks sort like tuples; meet and
    # join are bitwise, and negation swaps and complements each bit pair.
    width = 2 * len(S)
    full = (1 << width) - 1
    low = full // 3  # the low bit of every coordinate

    def neg(x: int) -> int:
        return full & ~((x >> 1 & low) | (x & low) << 1)

    names = {sum(dm4.enc[v[g]] << (width - 2 - 2 * i) for i, v in enumerate(S)): g
             for g in gens}
    order = sorted(_closed([0, full, *names], neg, FREE_SIZE_CAP))
    pos = {t: i for i, t in enumerate(order)}
    return FinMatrix._trusted(lambda i: names.get(order[i], "e%d" % i),
                              [pos[neg(t)] for t in order], pos[full], 0,
                              [], ["demorgan"], order)


# -- DM4 ---------------------------------------------------------------------


@functools.cache
def dm4_algebra() -> FinMatrix:
    """The four-element De Morgan algebra with everything designated; used
    as a term-function oracle, not as a logic."""
    return _dm4(range(4))
