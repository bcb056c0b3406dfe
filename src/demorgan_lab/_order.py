"""Relations as bitmask rows (bit j of up[i] is set iff i R j), their
closure, and the one isomorphism search for frames, matrices and graphs:
each is a relation, a unary map and a colour per point.  Beside it, one
canonical form of such a structure, whose value is the same exactly for
isomorphic ones: graphs and frames are listed and compared up to
isomorphism by it (Graph.canonical_key, log_leq).  Also explore, the one
breadth-first search (s_star_reachable, log_leq, submatrices), Record,
the base of the package's record classes, which writes their __init__,
__eq__ and hash from the annotated fields, and derived, its memo."""

from __future__ import annotations

import functools
from collections import Counter, deque
from typing import Any, Callable, Hashable, Iterable, Iterator, NamedTuple, Optional, Sequence

#: sets a field of a frozen Record, in the record's __init__
set_field = object.__setattr__


class Record:
    """Base of the package's record classes: a class whose fields are the
    names annotated in its body, in order.  Its __init__ takes them by
    position or keyword (a field's class attribute is its default), sets
    them in order, through set_field when the class is frozen, and last
    calls __post_init__ if the class has one.  Records are equal when they
    are of one class and their fields are equal.  A class made with
    `frozen=True`, and its subclasses, refuse assignment and hash as the
    tuple of their fields; other records are unhashable.  repr is
    Name(field=value, ...).  As dataclasses does, each class compiles its
    __init__, __eq__ and hash from source."""

    _fields: tuple[str, ...] = ()
    _frozen = False

    def __init_subclass__(cls, frozen: bool = False, **kwargs):
        super().__init_subclass__(**kwargs)
        fields = cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        if frozen:
            cls._frozen = True
            cls.__setattr__ = cls.__delattr__ = _refuse
        params = "".join(f", {f}=cls.{f}" if f in cls.__dict__ else f", {f}" for f in fields)
        sets = [f"set_field(self, {f!r}, {f})" if cls._frozen else f"self.{f} = {f}" for f in fields]
        if hasattr(cls, "__post_init__"):
            sets.append("self.__post_init__()")
        mine, theirs = (f"({''.join(f'{x}.{f}, ' for f in fields)})" for x in ("self", "other"))
        made = {"cls": cls, "set_field": set_field, "builtin_hash": hash}
        exec(_compiled(f"def __init__(self{params}):\n    {'; '.join(sets) or 'pass'}\n"
                       "def __eq__(self, other):\n"
                       f"    return {mine} == {theirs} if other.__class__ is self.__class__"
                       " else NotImplemented\n"
                       f"def hash(self):\n    return builtin_hash({mine})\n"), made)
        for name in ("__init__", "__eq__", "hash"):
            made[name].__qualname__ = f"{cls.__qualname__}.{name}"
        cls.__init__ = made["__init__"]
        cls.__eq__ = made["__eq__"]
        cls.__hash__ = made["hash"] if cls._frozen else None

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


_UNSET = object()  # a derived key's class attribute: no value kept


def derived(fn: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """fn(x) of an immutable object x, computed on the first call and kept
    in x.__dict__ under "_" + fn.__name__ (so Formula.__getstate__ drops
    it), None included; an exception is not kept.  A hit reads the
    attribute named by the key, which the interpreter specializes (reading
    x.__dict__ would make x's values a dict and slow its other reads).  A
    class's first miss raises AttributeError and sets the key on the class
    to _UNSET, so later misses compare."""
    key = "_" + fn.__name__

    def get(x):
        try:
            value = x._derived_key  # renamed to the key below
            if value is not _UNSET:
                return value
        except AttributeError:
            setattr(type(x), key, _UNSET)
        value = fn(x)
        set_field(x, key, value)
        return value

    code = get.__code__
    get.__code__ = code.replace(co_names=tuple(
        key if name == "_derived_key" else name for name in code.co_names))
    return functools.wraps(fn)(get)


@functools.cache
def _compiled(source: str) -> Any:
    """The code of a Record class's methods, compiled once per source:
    classes of one shape (And and Or, the field-less formulas) share it."""
    return compile(source, "<record>", "exec")


def _refuse(self: Record, name: str, value: object = None) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def bits(x: int) -> Iterator[int]:
    """Positions of the set bits of x, lowest first."""
    while x:
        low = x & -x
        yield low.bit_length() - 1
        x ^= low


def explore(starts: Iterable[Any], moves: Callable[[Any], Iterable[Any]],
            key: Callable[[Any], Hashable], steps: Optional[int] = None) -> Iterator[tuple[Any, int]]:
    """Each item reachable from the starts, one per key, with its depth:
    the fewest moves from its start.  Breadth first from each start in
    turn; an item whose key was met before, a start's included, is
    skipped.  An item is yielded before its moves are computed, and items
    at depth `steps` are not moved on from."""
    seen: set[Hashable] = set()

    def fresh(item: Any) -> bool:  # set.add returns None
        k = key(item)
        return k not in seen and not seen.add(k)

    for start in filter(fresh, starts):
        queue = deque([(start, 0)])
        while queue:
            item, depth = queue.popleft()
            yield item, depth
            if steps is None or depth < steps:
                queue.extend((nxt, depth + 1) for nxt in moves(item) if fresh(nxt))


def closure(up: Sequence[int]) -> list[int]:
    """Reflexive-transitive closure of a relation (Warshall on rows)."""
    up = [r | 1 << i for i, r in enumerate(up)]
    for k in range(len(up)):
        bit, row = 1 << k, up[k]
        for i, r in enumerate(up):
            if r & bit:
                up[i] = r | row
    return up


def transpose(up: Sequence[int]) -> list[int]:
    """Rows of the converse relation."""
    down = [0] * len(up)
    for i, r in enumerate(up):
        for j in bits(r):
            down[j] |= 1 << i
    return down


def pairs(up: Sequence[int]) -> frozenset[tuple[int, int]]:
    """The relation as a set of pairs."""
    return frozenset((i, j) for i, r in enumerate(up) for j in bits(r))


class Structure(NamedTuple):
    """A relation, its converse (transpose(up)), a map and colours."""

    up: Sequence[int]
    down: Sequence[int]
    f: Sequence[int]
    colours: Sequence[Hashable]


def _keys(s: Structure) -> list[tuple]:
    """Per point, invariants that any isomorphism preserves."""
    return [(s.colours[u], s.up[u].bit_count(), s.down[u].bit_count(),
             s.up[u] >> u & 1, s.f[u] == u, s.colours[s.f[u]],
             s.up[u] >> s.f[u] & 1, s.down[u] >> s.f[u] & 1)
            for u in range(len(s.up))]


def _search_order(p: Structure, cands: list[list[int]], pre: list[list[int]]) -> list[int]:
    """The points of p in search order: each next point is tied (by the
    relation either way, or by the map either way) to the latest point
    ordered that still has unordered ties, so that its choice meets an
    earlier one at once; among those, fewest candidates first."""
    n = len(p.up)
    tied = [p.up[u] | p.down[u] | 1 << p.f[u] | sum(1 << w for w in pre[u]) for u in range(n)]
    groups = [sum(1 << u for u, c in enumerate(cands) if len(c) == k)
              for k in sorted({len(c) for c in cands})]
    left = (1 << n) - 1
    order: list[int] = []
    trail: list[int] = []
    while left:
        while trail and not tied[trail[-1]] & left:
            trail.pop()
        near = tied[trail[-1]] & left if trail else left
        pick = next(g & near for g in groups if g & near)
        u = (pick & -pick).bit_length() - 1
        order.append(u)
        trail.append(u)
        left ^= 1 << u
    return order


def isomorphism(p: Structure, q: Structure) -> Optional[tuple[int, ...]]:
    """A bijection phi with u R v iff phi(u) R phi(v), phi(f(u)) = f(phi(u))
    and equal colours, or None.

    Backtracking over the points of p in _search_order; the candidates of
    a point are the points of q with the same _keys.  A candidate for u
    must agree with the points already mapped on both rows and on the map
    both ways: with the image of f(u) and with those of the preimages of u
    under f, as f need not be an involution.  So a complete assignment is
    an isomorphism.
    """
    n = len(p.up)
    if len(q.up) != n:
        return None
    if n == 0:
        return ()
    kp, kq = _keys(p), _keys(q)
    if Counter(kp) != Counter(kq):
        return None
    by_key: dict[tuple, list[int]] = {}
    for v, k in enumerate(kq):
        by_key.setdefault(k, []).append(v)
    cands = [by_key[k] for k in kp]
    pre: list[list[int]] = [[] for _ in range(n)]
    for u, w in enumerate(p.f):
        pre[w].append(u)
    order = _search_order(p, cands, pre)
    phi = [-1] * n
    placed = img = 0  # the points of p mapped so far, and their images

    def options(u: int) -> Iterator[int]:
        up_img = down_img = 0
        for w in bits(p.up[u] & placed):
            up_img |= 1 << phi[w]
        for w in bits(p.down[u] & placed):
            down_img |= 1 << phi[w]
        # f(v) must be phi(f(u)): unknown (-1) while f(u) is unmapped, as
        # always when f(u) = u, but the keys pair fixpoints with fixpoints
        want_f = phi[p.f[u]]
        forced = {q.f[phi[w]] for w in pre[u] if phi[w] >= 0}
        if len(forced) > 1:
            return
        for v in forced or cands[u]:
            if (img >> v & 1 or q.up[v] & img != up_img or q.down[v] & img != down_img
                    or kq[v] != kp[u] or want_f >= 0 and q.f[v] != want_f):
                continue
            yield v

    stack: list[Iterator[int]] = []  # the untried options of each mapped point
    it = options(order[0])
    while True:
        v = next(it, None)
        if v is None:
            if not stack:
                return None
            it = stack.pop()
            u = order[len(stack)]
            placed ^= 1 << u
            img ^= 1 << phi[u]
            phi[u] = -1
            continue
        u = order[len(stack)]
        phi[u] = v
        placed |= 1 << u
        img |= 1 << v
        if len(stack) == n - 1:
            return tuple(phi)
        stack.append(it)
        it = options(order[len(stack)])


def canonical(s: Structure) -> tuple[int, ...]:
    """The points' rows in the order that makes the sequence least, equal
    exactly for isomorphic structures.  A row holds the point's colour (an
    int or bool), whether the map fixes it, four bits per point placed
    before it (the relation and the map, either way; the first placed
    highest) and its loop bit.  Filling the positions from the last down,
    graphs of one size order as their least edge masks over pairs i <= j.
    Breadth first: placements tying for the least row are kept, and merged
    when their unplaced points have the same rows so far.  Placing p appends
    four[p][u] to u's row (kept above its loop bit); -1 marks placed points."""
    n = len(s.up)
    four = [[-1 if u == p else ((s.up[u] >> p & 1) << 3 | (s.up[p] >> u & 1) << 2
                                | (s.f[u] == p) << 1 | (s.f[p] == u)) << 1 | (s.up[u] >> u & 1)
             for u in range(n)] for p in range(n)]
    states = {tuple((int(c) << 1 | (s.f[u] == u)) << 1 | (s.up[u] >> u & 1)
                    for u, c in enumerate(s.colours))}
    out = []
    for _ in range(n):
        best = min(x for st in states for x in st if x >= 0)
        states = {tuple(y >> 1 << 5 | b if y >= 0 else -1 for y, b in zip(st, four[p]))
                  for st in states for p, x in enumerate(st) if x == best}
        out.append(best)
    return tuple(out)
