"""Finite logical matrices over the bounded-lattice-with-negation signature.

A matrix is a finite algebra (meet, join, negation, top, bottom) together
with a set of designated elements.  Rule validity is decided by exhaustive
valuation of the rule's atoms.  A rule is compiled once to a straight-line
program (formula.compile_program) and one fold (formula.fold) runs every
program: evaluate's over the elements, the packed sweep's over Python ints
that hold a small grid's values bit by bit (classical_status is its
two-element case), and the numpy block sweep's over arrays of masks for
every other grid.

Every matrix here is a bounded distributive lattice, so it embeds into a
powerset lattice (Birkhoff).  That embedding is the only representation a
FinMatrix stores: one bitmask per element, a Python int of any width.  Meet
and join are bitwise AND/OR, and the n x n operation tables are caches
derived from the masks when something asks for them.  So is the tuple of
element names: a matrix keeps a function naming one element.  A congruence
of a De Morgan matrix is the set of mask bits it keeps (see "congruences"):
principal and Leibniz congruences are found on the masks, and a quotient's
masks are the kept bits, packed.  The maps along the duality
(roundtrip_check, find_isomorphism, split_at) find each element's image by
its mask, through one lift (_lift).

Data from outside is checked once, where it enters: the public constructor
(and so from_json and the catalog, written as masks) runs
FinMatrix.validate, on Python ints in O(n * bits) for the laws.  Matrices
that this package builds from matrices it already holds (products,
quotients, submatrices, split intervals, free algebras, complex matrices,
gamma) hold the laws by construction and go through FinMatrix._trusted,
unchecked.

Code that a one-shot command may not run lives in modules of its own,
loaded on first use, so that a cold command neither imports nor compiles
it: the numpy block sweep in demorgan_lab._sweep, which _violation reaches
through the _sweep handle (_LazyModule) for the grids the packed sweep does
not decide; and the constructions and matrix isomorphism (product,
submatrices, split_at, free_dm_algebra, dm4_algebra, find_isomorphism,
is_matrix_isomorphism, MatrixMap) in demorgan_lab._constructions, whose
names this module resolves on first read (__getattr__).  Isomorphism
search there needs no tables: it compares the orders read off the masks
(_order).  numpy too is imported on first use (_LazyModule), so entry, the
catalog, the packed sweep, the dual involution, the congruences and
quotients of a De Morgan matrix, the lift of a carrier of at most
_SMALL_LIFT_ELEMENTS elements and to_json run without it: a cold
`demorgan-lab check` on a catalog or small @file matrix loads neither
numpy nor the two modules (nor on a bigger grid whose witness lies in the
packed first block), nor do `leibniz`, `dual` and `classify` on a De
Morgan matrix of any size.
"""

from __future__ import annotations

import bisect
import functools
import json
import operator
import sys
from importlib import import_module
from itertools import compress
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

from ._order import Record, bits, derived
from .formula import Formula, Program, RuleInstance, fold, grid_leaves


class _LazyModule:
    """A module imported on the first attribute read, which also rebinds
    the global `name` of the module holding this object (its globals dict)
    to the module itself: later reads in that module cost what they always
    did."""

    def __init__(self, namespace: dict, name: str, module: str):
        self.namespace, self.name, self.module = namespace, name, module

    def __getattr__(self, attr: str):
        module = self.namespace[self.name] = import_module(self.module)
        return getattr(module, attr)


np = _LazyModule(globals(), "np", "numpy")
# the numpy block sweep, for the grids the packed sweep does not take
_sweep = _LazyModule(globals(), "_sweep", f"{__package__}._sweep")

__all__ = [
    "FinMatrix", "MatrixError", "Partition", "MatrixMap",
    "evaluate", "validates", "find_countervaluation",
    "product", "submatrices",
    "leibniz_congruence", "leibniz_reduct", "quotient_by", "principal_congruence",
    "find_isomorphism", "is_matrix_isomorphism", "split_at", "free_dm_algebra",
    "bd4", "k3", "lp3", "cl2", "etl4", "kminus8", "dm4_algebra", "catalog",
]

# the names of __all__ that live in a module of their own, loaded on their
# first read (PEP 562) and then kept in this module's dict
_ELSEWHERE = {name: "_constructions" for name in (
    "MatrixMap", "product", "submatrices", "find_isomorphism", "is_matrix_isomorphism",
    "split_at", "free_dm_algebra", "dm4_algebra")}


def __getattr__(name: str):
    if name not in _ELSEWHERE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f"{__package__}.{_ELSEWHERE[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _ELSEWHERE.keys())


# Operation tables are derived from the masks up to TABLE_LIMIT elements,
# for callers that ask for them; no sweep does, nor any other path here.
TABLE_LIMIT = 1500
# cells per block when numpy works through a rows x columns grid a block of
# rows at a time (pairs of elements, elements x join-irreducibles)
_PAIR_CHUNK = 1 << 18
# masks of at most this many bits are looked up in tables of 2^bits entries
# (_leibniz_refine, _sweep._Engine); wider ones among the sorted masks
_LUT_BITS = 16
# Carriers of at most this many elements are lifted on Python ints.  Per
# round-trip lift on a 2-core VM (Python 3.11, numpy 2.4), ints were faster
# up to here (65-100 elements: 60 vs 69 us) and slower above (101-128: 82
# vs 80 us, 161-200: 130 vs 94 us).
_SMALL_LIFT_ELEMENTS = 100


class MatrixError(ValueError):
    pass


def _row_chunks(n: int, width: int) -> Iterator[slice]:
    """Slices of range(n), each a block of rows of about _PAIR_CHUNK cells
    when a row has width cells."""
    rows = max(1, _PAIR_CHUNK // max(1, width))
    return (slice(start, start + rows) for start in range(0, n, rows))


class Partition(Record, frozen=True):
    """Element-indexed block ids, normalized by first occurrence."""

    blocks: tuple[int, ...]

    @staticmethod
    def of(ids: Sequence[int]) -> "Partition":
        # dict.fromkeys keeps the ids in order of first occurrence
        first = {b: i for i, b in enumerate(dict.fromkeys(ids))}
        return Partition(tuple(map(first.__getitem__, ids)))

    @property
    def n_blocks(self) -> int:
        return max(self.blocks) + 1 if self.blocks else 0

    def block_sets(self) -> list[frozenset[int]]:
        out: list[set[int]] = [set() for _ in range(self.n_blocks)]
        for i, b in enumerate(self.blocks):
            out[b].add(i)
        return [frozenset(s) for s in out]

    def is_identity(self) -> bool:
        return self.n_blocks == len(self.blocks)

    def same(self, a: int, b: int) -> bool:
        return self.blocks[a] == self.blocks[b]


def _int_type(t: type) -> bool:
    """int or a subclass, or a numpy integer type (there is none before
    numpy is loaded)."""
    return issubclass(t, int) or "numpy" in sys.modules and issubclass(t, np.integer)


def _is_index(v: object, n: int) -> bool:
    return _int_type(type(v)) and 0 <= v < n


class FinMatrix:
    """Immutable finite matrix, carried by the Birkhoff masks `enc`.

    The constructor takes the masks, or meet and join tables from which it
    derives them, and validates; see validate.
    """

    def __init__(
        self,
        labels: Sequence[str],
        neg: Sequence[int],
        top: int,
        bottom: int,
        designated: Iterable[int],
        flags: Iterable[str] = (),
        *,
        meet: Optional[Sequence[Sequence[int]]] = None,
        join: Optional[Sequence[Sequence[int]]] = None,
        enc: Optional[Sequence[int]] = None,
    ):
        labels = tuple(labels)
        tables = None
        if enc is None:
            if meet is None or join is None:
                raise MatrixError("need meet and join tables or a powerset encoding")
            tables = (_index_table(meet, len(labels), "meet"),
                      _index_table(join, len(labels), "join"))
            enc = _masks_from_tables(*tables, bottom)
        elif meet is not None or join is not None:
            raise MatrixError("give operation tables or a powerset encoding, not both")
        else:
            enc = list(enc)
            if not all(_int_type(type(v)) and v >= 0 for v in enc):
                raise MatrixError("the encoding needs a non-negative integer mask per element")
            if len(enc) != len(labels):
                raise MatrixError("the encoding needs one mask per element")
        self._init(labels.__getitem__, neg, top, bottom, designated, flags, [int(v) for v in enc])
        self._labels = labels  # the labels property's derived value
        self._validate(tables)

    def _init(self, label, neg, top, bottom, designated, flags, enc) -> None:
        self._label = label
        self.enc = tuple(enc)
        self.n = len(self.enc)
        self.neg = tuple(neg)
        self.top = top
        self.bottom = bottom
        self.designated = frozenset(designated)
        self.flags = frozenset(flags)
        self.nbits = max(self.enc, default=0).bit_length()

    @classmethod
    def _trusted(cls, label: Callable[[int], str], neg: Sequence[int], top: int, bottom: int,
                 designated: Iterable[int], flags: Iterable[str],
                 enc: Sequence[int]) -> "FinMatrix":
        """A matrix built by this package from matrices it already holds,
        whose laws hold by construction; it is not validated again.  The
        carrier has one element per mask, and label names element i."""
        m = cls.__new__(cls)
        m._init(label, neg, top, bottom, designated, flags, enc)
        return m

    @property
    @derived
    def labels(self) -> tuple[str, ...]:
        """The element names, derived on first read like the tables."""
        return tuple(map(self._label, range(self.n)))

    def label(self, x: int) -> str:
        """The name of element x, without building the label tuple."""
        return self._label(x)

    # -- basic operations ------------------------------------------------

    def meet(self, x: int, y: int) -> int:
        return self._enc_index()[self.enc[x] & self.enc[y]]

    def join(self, x: int, y: int) -> int:
        return self._enc_index()[self.enc[x] | self.enc[y]]

    def leq(self, x: int, y: int) -> bool:
        return self.enc[x] & self.enc[y] == self.enc[x]

    @derived
    def _enc_index(self) -> dict[int, int]:
        return {m: i for i, m in enumerate(self.enc)}

    @derived
    def meet_table(self) -> np.ndarray:
        return self._table(np.bitwise_and)

    @derived
    def join_table(self) -> np.ndarray:
        return self._table(np.bitwise_or)

    def _table(self, op: np.ufunc) -> np.ndarray:
        if self.n > TABLE_LIMIT:
            raise MatrixError(f"refusing to materialize {self.n}x{self.n} table")
        e = self._enc_np()
        return self._mask_lookup(op(e[:, None], e[None, :]))

    @derived
    def _enc_np(self) -> np.ndarray:
        """The masks as an array: uint64 up to 64 bits, Python ints (object
        dtype) beyond; bitwise operators and searchsorted work on both."""
        return np.array(self.enc, dtype=np.uint64 if self.nbits <= 64 else object)

    @derived
    def _sorted_masks(self) -> tuple[np.ndarray, np.ndarray]:
        """The masks in ascending order, and the element of each."""
        order = np.argsort(self._enc_np(), kind="stable")
        return self._enc_np()[order], order.astype(np.int32)

    def _positions(self, masks: np.ndarray) -> np.ndarray:
        """Element index of each mask in the array, -1 where a mask is not
        one of the carrier's."""
        sorted_masks, order = self._sorted_masks()
        pos = np.minimum(np.searchsorted(sorted_masks, masks), self.n - 1)
        return np.where(sorted_masks[pos] == masks, order[pos], np.int32(-1))

    def _mask_lookup(self, masks: np.ndarray) -> np.ndarray:
        """Map an array of masks to element indices."""
        idx = self._positions(masks)
        if (idx < 0).any():
            raise MatrixError("operation left the carrier (encoding not closed)")
        return idx

    def join_irreducibles(self) -> list[int]:
        """Indices of join-irreducible elements (the least element containing
        each encoding bit)."""
        return list(self._join_irreducibles()[0])

    @derived
    def _join_irreducibles(self) -> tuple[list[int], list[int]]:
        """The join-irreducibles in index order, and for each its lowest
        representative bit: a mask bit whose least containing element it
        is.  So join-irreducible a lies below x iff x's mask holds bit
        reps[a]."""
        first = self._least_elements()
        jis = sorted(first)
        return jis, [first[j] for j in jis]

    def _least_elements(self) -> dict[int, int]:
        """The least element containing each mask bit, a join-irreducible,
        mapped to the lowest such bit.  A mask inside another is the
        smaller number, so the least element containing bit b is the first
        mask in ascending order that holds b.  One scan of the sorted
        masks finds them all, skipping the masks below the lowest bit not
        met yet, which hold met bits alone."""
        idx, masks = self._enc_index(), sorted(self.enc)
        first: dict[int, int] = {}
        unmet, i = self.enc[self.top], 0
        while unmet:
            s = masks[i]
            for b in bits(s & unmet):
                first.setdefault(idx[s], b)
            unmet &= ~s
            i = max(i + 1, bisect.bisect_left(masks, unmet & -unmet))
        return first

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check the matrix exhaustively; MatrixError names what fails.

        The masks must be distinct, bottom's must be 0, each must lie inside
        top's, and the carrier must be closed under & and | on all pairs.
        An injective map into a powerset that preserves & and | is a lattice
        embedding, so this implies every bounded-distributive-lattice law.
        With the `demorgan` flag the negation must be an involution swapping
        the bounds with ~(x | y) = ~x & ~y on all pairs.  The laws are
        checked on generators (_laws_hold); only when one fails does the
        all-pairs scan (_name_failure) run, to name the first failing pair.
        """
        self._validate(None)

    def _validate(self, tables: Optional[tuple[list, list]]) -> None:
        """validate; the constructor's input tables, when given, must also
        be the meet and join of the masks."""
        n = self.n
        if n == 0:
            raise MatrixError("empty carrier")
        if len(self.neg) != n or not all(_is_index(v, n) for v in self.neg):
            raise MatrixError("bad negation vector")
        if not (_is_index(self.top, n) and _is_index(self.bottom, n)):
            raise MatrixError("bad bounds")
        if not all(_is_index(d, n) for d in self.designated):
            raise MatrixError("bad designated set")
        if self.enc[self.bottom] != 0:
            raise MatrixError("encoding bounds broken: the bottom's mask is not 0")
        full = self.enc[self.top]
        first: dict[int, int] = {}
        for x, mask in enumerate(self.enc):
            if first.setdefault(mask, x) != x:
                raise MatrixError(f"encoding not injective: {self.label(first[mask])!r} "
                                  f"and {self.label(x)!r} share a mask")
            if mask & ~full:
                raise MatrixError(f"encoding bounds broken: the mask of {self.label(x)!r} "
                                  "is not inside the top's")
        demorgan = "demorgan" in self.flags
        if demorgan:
            if any(self.neg[y] != x for x, y in enumerate(self.neg)):
                raise MatrixError("negation is not an involution")
            if self.neg[self.top] != self.bottom:
                raise MatrixError("negation must swap the bounds")
        if not self._laws_hold(first, demorgan, tables):
            self._name_failure(demorgan, tables)
            raise RuntimeError("internal: a law failed on generators but on no pair")

    def _laws_hold(self, index: dict[int, int], demorgan: bool,
                   tables: Optional[tuple[list, list]]) -> bool:
        """The lattice laws (and the De Morgan law) on Python ints in
        O(n * bits), given the element of each mask.  Every mask s is the
        join of the D(b) for its bits b, D(b) the meet of the masks holding
        bit b, and so is s & t for its own bits (bottom's mask is 0).  So
        the carrier is closed under & and | iff every D(b) and every
        s | D(b) is a mask, and then ~(x | y) = ~x & ~y holds on all pairs
        iff ~(s | D(b)) = ~s & ~D(b) does, by induction on the generators
        of y (~bottom is top, whose mask holds every other).  Input tables
        are compared with the masks row by row."""
        enc = self.enc
        negs = [enc[y] for y in self.neg] if demorgan else None
        for b in bits(enc[self.top]):
            d = functools.reduce(int.__and__, [s for s in enc if s >> b & 1])
            joins = list(map(index.get, map(d.__or__, enc)))
            if d not in index or None in joins:
                return False
            if demorgan:
                nd = negs[index[d]]
                if any(negs[y] != ns & nd for y, ns in zip(joins, negs)):
                    return False
        for table, op in zip(tables or (), ("__and__", "__or__")):
            for s, row in zip(enc, table):
                if list(map(index.__getitem__, map(getattr(s, op), enc))) != row:
                    return False
        return True

    def _name_failure(self, demorgan: bool, tables: Optional[tuple[list, list]]) -> None:
        """The all-pairs scan in numpy, a block of rows at a time: raises
        MatrixError at the first pair in row-major order (within a block,
        closure under &, then |, the tables, then De Morgan) that breaks a
        law."""
        n = self.n
        e = self._enc_np()
        if demorgan:
            neg_e = e[np.array(self.neg, dtype=np.int64)]
        tables = [np.array(t, dtype=np.int32) for t in tables] if tables else [None, None]
        for rows in _row_chunks(n, n):
            x = np.arange(*rows.indices(n))
            meets = self._positions(e[x, None] & e[None, :])
            joins = self._positions(e[x, None] | e[None, :])
            for name, sym, got, table in (("meet", "&", meets, tables[0]),
                                          ("join", "|", joins, tables[1])):
                self._fail_at(got < 0, x, f"carrier not closed under {sym}")
                if table is not None:
                    self._fail_at(table[x] != got, x, f"{name} table is not the lattice {name}")
            if demorgan:
                self._fail_at(neg_e[joins] != (neg_e[x, None] & neg_e[None, :]), x,
                              "De Morgan law ~(x | y) = ~x & ~y fails")

    def _fail_at(self, bad: np.ndarray, rows: np.ndarray, what: str) -> None:
        if bad.any():
            i, j = np.argwhere(bad)[0]
            raise MatrixError(f"{what} at ({self.label(rows[i])!r}, {self.label(j)!r})")

    def designated_is_prime_filter(self) -> bool:
        """Lattice filter with a | b designated only if a or b is: the upset
        of a join-irreducible, or of bottom (the whole carrier)."""
        if not self.is_bd_model():
            return False
        gen = self._designated_meet()
        return gen == 0 or self._enc_index()[gen] in self.join_irreducibles()

    def is_bd_model(self) -> bool:
        """De Morgan matrix whose designated set is a lattice filter, that
        is, the upset of the meet of its members."""
        return "demorgan" in self.flags and self._designated_filter() is not None

    def _designated_meet(self) -> int:
        """The mask of the meet of the designated elements (top's when there
        is none)."""
        return functools.reduce(int.__and__, (self.enc[d] for d in self.designated),
                                self.enc[self.top])

    def _designated_filter(self) -> Optional[int]:
        """The mask g of the meet of the designated elements when they are
        exactly the elements above it, a lattice filter; else None (also for
        an empty designated set)."""
        if not self.designated:
            return None
        g, des = self._designated_meet(), self.designated
        ok = all((mask & g == g) == (x in des) for x, mask in enumerate(self.enc))
        return g if ok else None

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps(self._as_dict())

    def _as_dict(self) -> dict:
        """The JSON object of to_json, its meet and join tables read off the
        masks row by row through the element index of each mask."""
        idx, enc = self._enc_index(), self.enc
        return {
            "elements": list(self.labels),
            "meet": [[idx[s & t] for t in enc] for s in enc],
            "join": [[idx[s | t] for t in enc] for s in enc],
            "neg": list(self.neg),
            "top": self.top,
            "bottom": self.bottom,
            "designated": sorted(self.designated),
            "flags": sorted(self.flags),
        }

    @staticmethod
    def from_json(text: str) -> "FinMatrix":
        d = _json_object(text, "matrix", ("elements", "meet", "join", "neg", "top",
                                          "bottom", "designated"), MatrixError)
        return FinMatrix(
            [str(x) for x in d["elements"]],
            d["neg"], d["top"], d["bottom"], d["designated"], d.get("flags", []),
            meet=d["meet"], join=d["join"],
        )

    def __repr__(self) -> str:
        return f"<FinMatrix n={self.n} designated={sorted(self.designated)} flags={sorted(self.flags)}>"


def _json_object(text: str, what: str, keys: Sequence[str],
                 error: type[ValueError]) -> dict:
    """Parsed JSON text that must be an object with the given keys; error
    names what is missing."""
    d = json.loads(text)
    if not isinstance(d, dict):
        raise error(f"{what} JSON must be an object")
    missing = [k for k in keys if k not in d]
    if missing:
        raise error(f"{what} JSON lacks the key(s) " + ", ".join(map(repr, missing)))
    return d


def _index_table(rows: Sequence[Sequence[int]], n: int, name: str) -> list[list[int]]:
    """An input operation table as n rows of n element indices (ints, or
    numpy integers; not bools)."""
    try:
        t = [list(row) for row in rows]
    except TypeError:  # not rows of entries
        t = []
    if not (t and len(t) == n and all(len(row) == n and _index_row(row, n) for row in t)):
        raise MatrixError(f"{name} table is not an n x n table of element indices")
    return [list(map(int, row)) for row in t]


def _index_row(row: list, n: int) -> bool:
    """Every entry an int (not a bool) or a numpy integer, in range(n)."""
    return (all(t is not bool and _int_type(t) for t in set(map(type, row)))
            and min(row) >= 0 and max(row) < n)


def _masks_from_tables(mt: list[list[int]], jt: list[list[int]], bottom: int) -> list[int]:
    """Birkhoff masks read off input tables: bit b of a mask says the b-th
    join-irreducible (an element other than bottom that is not the join of
    the elements strictly below it) lies below the element.  validate then
    checks that the tables are the lattice these masks describe."""
    n = len(mt)
    below: list[list[int]] = [[] for _ in range(n)]  # y < x: y & x == y, y != x
    for y, row in enumerate(mt):
        for x in compress(range(n), map(y.__eq__, row)):
            if x != y:
                below[x].append(y)
    jis = [x for x in range(n) if x != bottom and (
        not below[x] or functools.reduce(lambda a, b: jt[a][b], below[x]) != x)]
    masks = [0] * n
    for b, j in enumerate(jis):
        for x in compress(range(n), map(j.__eq__, mt[j])):
            masks[x] |= 1 << b
    return masks


# -- evaluation and validity ----------------------------------------------


def evaluate(m: FinMatrix, v: Mapping[str, int], f: Formula) -> int:
    """Value of f under the valuation v: the fold of f's program over the
    matrix's operations."""
    prog = f.program()
    for name in prog.names:
        if name not in v:
            raise KeyError(f"valuation missing atom {name!r}")
    (value,) = fold(prog, [v[name] for name in prog.names],
                    m.neg.__getitem__, m.meet, m.join, m.top, m.bottom)
    return value


# grids of at most this many valuations go through the packed sweep
# (_Packed) when the matrix allows it; the rest through the numpy block
# sweep (_sweep)
_PACKED_GRID = 1 << 12
# A grid of more than _PACKED_BLOCK_ABOVE valuations first folds its first
# block packed (_Packed.block), of at most _PACKED_BLOCK valuations
# and _PACKED_BLOCK_BITS plane bits, and goes on to the numpy blocks on a
# miss.  Measured on the alpha-sweep and small-checks benchmark jobs
# (2-core VM, Python 3.11, numpy 2.4; BENCH_28.json): packed first blocks
# on the grids of 2^12 to 2^14 valuations too took the 17-bit chain checks
# from 7.9 to 15.0 ms per pass; blocks of 2048-4096 valuations were best on
# alpha-sweep's 8-plane matrices, 8192 lost and 16384 more than doubled its
# median operation.
_PACKED_BLOCK_ABOVE = 1 << 14
_PACKED_BLOCK = 1 << 12
_PACKED_BLOCK_BITS = 1 << 15


class _Packed:
    """The packed sweep on Python ints, for a De Morgan matrix whose
    designated set is a filter (the upset of a mask g) and whose negation
    permutes its mask planes: of a whole small grid at once, or of the
    first block of a big one.

    A value over N valuations (the whole grid of n^k, or a block of them)
    is one int of bits * N bits: plane j (bits j*N to j*N + N - 1) holds
    bit j of the value's mask at each valuation, in the sweep's
    lexicographic order (see formula.grid_leaves).  So & and | are one int
    operation each.  Plane j of ~a is the complement of plane invol[j] of
    a, which is a few shifts, one per distinct offset j - invol[j]: in a De
    Morgan lattice whose mask bits are its points, invol is the dual
    involution on the points.  A value is designated where every plane of
    g is set, and the least witness is the lowest set bit of the "bad"
    int.

    `planes[j]` is the set of elements (bit x for element x) whose mask
    holds bit j; `grids` and `blocks` keep, per atom count k, the leaves
    and the operations of the whole grid and of the first block, a few
    ints of bits * N bits each."""

    def __init__(self, n: int, planes: list[int], invol: list[int], g: int):
        self.n, self.planes, self.invol = n, planes, invol
        self.des = [j for j in range(len(planes)) if g >> j & 1]
        self.grids: dict[int, tuple] = {}
        self.blocks: dict[int, tuple] = {}

    @staticmethod
    def of(m: FinMatrix) -> Optional[_Packed]:
        """The packed sweep of m, or None when m does not allow one: it
        needs the `demorgan` flag, a filter designated, and a plane invol[j]
        for each plane j whose complement is plane j of the negated masks
        (so every bit below m.nbits is one of top's)."""
        g = m._designated_filter() if "demorgan" in m.flags else None
        if g is None:
            return None
        planes = _planes(m.enc, m.nbits)
        at = {p: j for j, p in enumerate(planes)}
        everything = (1 << m.n) - 1
        invol = [at.get(everything ^ p) for p in _planes([m.enc[y] for y in m.neg], m.nbits)]
        return None if None in invol else _Packed(m.n, planes, invol, g)

    def grid(self, k: int) -> tuple:
        """(leaves, fold's operations, ones over N bits, shifts of the
        designating planes) for the whole grid of k atoms, N = n^k."""
        got = self.grids.get(k)
        if got is None:
            got = self.grids[k] = self._prepared(k, self.n ** k)
        return got

    def block(self, k: int) -> tuple:
        """grid(k) for the first block of the grid of k atoms: the most
        valuations c * n^t, c <= n, at most _PACKED_BLOCK and at most
        _PACKED_BLOCK_BITS plane bits, that leave t trailing atoms free."""
        got = self.blocks.get(k)
        if got is None:
            cap = max(1, min(_PACKED_BLOCK, _PACKED_BLOCK_BITS // len(self.planes)))
            t = 0  # as many trailing atoms free as fit, at most k - 1
            while t + 1 < k and self.n ** (t + 1) <= cap:
                t += 1
            stride = self.n ** t
            size = min(self.n ** k, cap // stride * stride)
            got = self.blocks[k] = self._prepared(k, size)
        return got

    def _prepared(self, k: int, size: int) -> tuple:
        """grid(k)'s tuple for the first `size` valuations of k atoms."""
        ones = (1 << size) - 1
        full = (1 << len(self.planes) * size) - 1
        moves: dict[int, int] = {}  # offset -> the planes moved by it
        for j, src in enumerate(self.invol):
            moves[j - src] = moves.get(j - src, 0) | ones << src * size
        if not any(moves):
            neg = full.__xor__
        else:
            parts = [(mask, d * size) for d, mask in moves.items()]

            def neg(a: int) -> int:
                out = full
                for mask, shift in parts:
                    out ^= (a & mask) << shift if shift >= 0 else (a & mask) >> -shift
                return out
        return (grid_leaves(self.n, k, self.planes, size),
                (neg, operator.and_, operator.or_, full, 0),
                ones, [j * size for j in self.des])

    def violation(self, prog: Program, first_block: bool = False) -> Optional[dict[str, int]]:
        """_violation over the whole grid of prog's atoms in one fold; or,
        first_block set, the least witness in the grid's first block
        (block), None when the block holds none.  The block holds the
        grid's first valuations, so an offset in either reads off its
        digits in base n."""
        k = len(prog.names)
        leaves, ops, ones, shifts = self.block(k) if first_block else self.grid(k)
        bad = ones
        for i, v in enumerate(fold(prog, leaves, *ops)):
            des = ones
            for shift in shifts:
                des &= v >> shift
            bad = bad & des if i < prog.n_premises else bad & ~des
            if not bad:
                return None
        hit = (bad & -bad).bit_length() - 1
        out = {}
        for name in reversed(prog.names):
            hit, out[name] = divmod(hit, self.n)
        return out


def _planes(masks: Sequence[int], width: int) -> list[int]:
    """Per mask bit j < width, the set of indices x (bit x) of the masks
    holding it."""
    planes = [0] * width
    for x, mask in enumerate(masks):
        for j in bits(mask):
            planes[j] |= 1 << x
    return planes


@derived
def _packed(m: FinMatrix) -> Optional[_Packed]:
    return _Packed.of(m)


def _violation(m: FinMatrix, r: RuleInstance) -> Optional[dict[str, int]]:
    """The lexicographically least valuation of the sorted atoms, element 0
    first, that designates all premises but no conclusion; or None.

    A grid of at most _PACKED_GRID valuations, on at most as many
    elements, goes through the packed sweep (_Packed) when the matrix
    allows one: it folds r.program() once over the whole grid.  Every
    other grid goes through the numpy block sweep (_sweep.violation), and
    one of more than _PACKED_BLOCK_ABOVE valuations first through the
    packed sweep of its first block when the matrix allows one: a witness
    there is the least one, and on a miss the numpy sweep starts again from
    the first valuation, so its blocks keep their alignment.
    """
    prog = r.program()
    size = m.n ** len(prog.names)
    if max(size, m.n) <= _PACKED_GRID:
        packed = _packed(m)
        if packed is not None:
            return packed.violation(prog)
    elif size > _PACKED_BLOCK_ABOVE and (packed := _packed(m)) is not None:
        hit = packed.violation(prog, first_block=True)
        if hit is not None:
            return hit
    return _sweep.violation(m, r)


def validates(m: FinMatrix, r: RuleInstance) -> bool:
    """True iff every valuation designating all premises designates some
    conclusion (none may exist for explosive rules)."""
    return _violation(m, r) is None


def find_countervaluation(m: FinMatrix, r: RuleInstance) -> Optional[dict[str, int]]:
    """Witness valuation refuting r in m, or None when r is valid."""
    return _violation(m, r)


# -- congruences -------------------------------------------------------------
#
# The congruences of a finite De Morgan algebra are "lie above the same
# points of S" for the sets S of dual-frame points closed under the
# involution.  Point a lies below x iff x's mask holds a's representative
# bit (FinMatrix._join_irreducibles), so such a congruence is held as the
# mask `keep` of the bits of S: elements are congruent iff their masks
# agree on keep, and the quotient's masks are the kept bits, packed.


def _dual_partners(m: FinMatrix, masks: Sequence[int]) -> list[int]:
    """Per join-irreducible mask ej, the mask of the join-irreducible
    generating the prime filter {a : a not below ~j}: the dual involution
    image of j.  The generator is the meet of the filter's members.  Every
    element is the join of the join-irreducibles below it, so that meet is
    the meet of the join-irreducibles not below ~j (top when there is
    none): O(|J|^2) on Python ints.  That step uses no De Morgan law; a De
    Morgan negation makes the filter {a : ~a not above j} as well.  A
    partner that is no mask of a join-irreducible means the negation
    breaks a De Morgan law."""
    idx, enc = m._enc_index(), m.enc
    jis, reps = m._join_irreducibles()
    out = []
    for ej in masks:
        below = enc[m.neg[idx[ej]]]
        meet = enc[m.top]
        for j, r in zip(jis, reps):
            if not below >> r & 1:
                meet &= enc[j]
        out.append(meet)
    return out


@derived
def _point_involution(m: FinMatrix) -> Optional[list[int]]:
    """The dual involution on points: a goes to the index of the dual partner
    of the a-th join-irreducible; None when a partner is no join-irreducible
    (the negation breaks a De Morgan law)."""
    masks = [m.enc[j] for j in m.join_irreducibles()]
    at = {mask: a for a, mask in enumerate(masks)}
    invol = [at.get(x) for x in _dual_partners(m, masks)]
    return None if None in invol else invol


@derived
def _orbits(m: FinMatrix) -> list[int]:
    """The dual involution's orbits in point order, each as the mask of its
    points' representative bits."""
    invol = _point_involution(m)
    if invol is None:
        raise MatrixError("dual involution left the prime filters")
    reps = m._join_irreducibles()[1]
    return [1 << reps[a] | 1 << reps[b] for a, b in enumerate(invol) if a <= b]


def _kept_partition(m: FinMatrix, keep: int) -> Partition:
    return Partition.of([mask & keep for mask in m.enc])


def _kept_quotient(m: FinMatrix, keep: int) -> FinMatrix:
    """The quotient by the congruence keeping the bits in keep, m itself
    when that is the identity; a block is named by its first element.
    Unchecked: keep comes from this package, or quotient_by checks it."""
    bid = _kept_partition(m, keep).blocks
    reps = _first_elements(bid)
    if len(reps) == m.n:
        return m
    return FinMatrix._trusted(
        lambda b: m.label(reps[b]), [bid[m.neg[r]] for r in reps],
        bid[m.top], bid[m.bottom],
        [b for b, r in enumerate(reps) if r in m.designated], m.flags,
        _pack([m.enc[r] for r in reps], keep))


def _first_elements(bid: Sequence[int]) -> list[int]:
    """The first element of each block, given the block ids of a
    partition normalized by first occurrence (Partition.of)."""
    first = dict(zip(reversed(bid), reversed(range(len(bid)))))
    return [first[b] for b in range(len(first))]


def leibniz_congruence(m: FinMatrix) -> Partition:
    """Largest congruence compatible with the designated set: the one
    keeping _leibniz_keep's bits for a De Morgan matrix, of any width and
    designated set; _leibniz_refine for other matrices."""
    if "demorgan" not in m.flags:
        return _leibniz_refine(m)
    return _kept_partition(m, _leibniz_keep(m))


def _leibniz_keep(m: FinMatrix) -> int:
    """The kept bits of the Leibniz congruence of a De Morgan matrix.  The
    congruence keeping S respects designation iff the designated and
    undesignated elements restricted to S (their masks & keep, down-sets of
    S) stay apart.  Those S are closed upward and under intersection, so
    dropping orbits from all points while that holds ends at the least, in
    any order; on a filter, it is the Leibniz subframe.  Dropping an orbit
    merges a designated and an undesignated element iff two such differ in
    one of the orbit's bits alone: two elements that differ in the orbit's
    bits alone are linked by elements each differing from the next in one
    of them (down to their meet and up again, a point at a time).  So each
    test looks up the values of the smaller side, with one of those bits
    flipped, among the other side's."""
    orbits = _orbits(m)
    keep = sum(orbits)  # the orbits' bits are disjoint
    # an element is the join of the join-irreducibles below it, so its
    # restriction to all points is one no other element has
    des = {m.enc[x] & keep for x in m.designated}
    undes = {mask & keep for mask in m.enc} - des
    for orbit in orbits:
        flips = [1 << b for b in bits(orbit)]
        small, big = sorted((des, undes), key=len)
        if not any(x ^ f in big for x in small for f in flips):
            keep &= ~orbit
            des, undes = {x & keep for x in des}, {x & keep for x in undes}
    return keep


def _leibniz_refine(m: FinMatrix) -> Partition:
    """Leibniz congruence for any matrix, as the greatest fixpoint of
    signature refinement: two elements stay together while designation and
    all one-step contexts (meet/join with a fixed argument, negation) agree
    blockwise, as in pairwise separation propagation.  A round reads a chunk
    of rows at a time off the masks and keys each signature row by its
    bytes; no table is built.  It serves matrices without the `demorgan`
    flag, and is the oracle of leibniz_congruence.
    """
    n, e, ng = m.n, m._enc_np(), np.array(m.neg)
    colours = np.array([i in m.designated for i in range(n)], dtype=np.int32)
    count = len(set(colours.tolist()))
    index = m._mask_lookup
    if m.nbits <= _LUT_BITS:
        at = np.zeros(1 << m.nbits, dtype=np.int32)
        at[e] = np.arange(n)
        index = at.__getitem__
    while True:
        ids: dict[bytes, int] = {}
        new: list[int] = []
        for rows in _row_chunks(n, n):
            x = e[rows, None]
            sig = np.concatenate([colours[rows, None], colours[ng[rows], None],
                                  colours[index(x & e)], colours[index(x | e)]], axis=1)
            new += [ids.setdefault(row.tobytes(), len(ids)) for row in sig]
        if len(ids) == count:
            return Partition.of(new)
        colours, count = np.array(new, dtype=np.int32), len(ids)


def quotient_by(m: FinMatrix, part: Partition) -> FinMatrix:
    """Quotient matrix; part must be a congruence compatible with designation.

    Each mask bit marks a prime filter of m, and the prime filters of a
    quotient are those of m that are unions of blocks, so part is a lattice
    congruence exactly when the mask bits constant on every block tell all
    blocks apart.  Those are the kept bits of _kept_quotient; negation and
    designation must be constant on blocks.
    """
    if len(part.blocks) != m.n:
        raise MatrixError(f"partition of {len(part.blocks)} elements for a carrier of {m.n}")
    if part.is_identity():
        return m
    bid = Partition.of(part.blocks).blocks
    reps = _first_elements(bid)
    # a bit varies on a block iff some element there differs from the first
    keep = m.enc[m.top] & ~functools.reduce(
        int.__or__, (m.enc[x] ^ m.enc[reps[b]] for x, b in enumerate(bid)), 0)
    first: dict[int, int] = {}
    for b, r in enumerate(reps):
        other = reps[first.setdefault(m.enc[r] & keep, b)]
        if other != r:
            raise MatrixError(f"partition is not a lattice congruence: the blocks of "
                              f"{m.label(other)!r} and {m.label(r)!r} are not separated")
    for x, b in enumerate(bid):
        if bid[m.neg[x]] != bid[m.neg[reps[b]]]:
            raise MatrixError(f"partition not compatible with negation at {m.label(x)!r}")
        if (x in m.designated) != (reps[b] in m.designated):
            raise MatrixError("partition not compatible with designation")
    return _kept_quotient(m, keep)


def _pack(masks: Sequence[int], keep: int) -> list[int]:
    """Each mask's bits at the positions set in keep, moved down in order
    into the lowest bits."""
    bits = [b for b in range(keep.bit_length()) if keep >> b & 1]
    return [sum((mask >> b & 1) << i for i, b in enumerate(bits)) for mask in masks]


def leibniz_reduct(m: FinMatrix) -> FinMatrix:
    """Quotient by the Leibniz congruence; the result is reduced."""
    if "demorgan" not in m.flags:
        return quotient_by(m, _leibniz_refine(m))
    return _kept_quotient(m, _leibniz_keep(m))


def principal_congruence(m: FinMatrix, a: int, b: int) -> Partition:
    """Smallest congruence identifying a and b: the one keeping the
    involution orbits with no point below exactly one of them."""
    if "demorgan" not in m.flags:
        raise MatrixError("principal congruences are for De Morgan matrices here")
    differ = m.enc[a] ^ m.enc[b]
    return _kept_partition(m, sum(orbit for orbit in _orbits(m) if not orbit & differ))


# -- the lift along the duality ----------------------------------------------


def _lift(m1: FinMatrix, images: Sequence[int], m2: FinMatrix) -> Optional[tuple[int, ...]]:
    """The map sending each element x of m1 to the element of m2 whose mask
    is the OR of images[a] over the points a below x (those whose
    representative bit x's mask holds, FinMatrix._join_irreducibles), if
    it is a bijection keeping the bounds, negation and designation; else
    None.  The images (points' own bits, masks of their frame-isomorphism
    images, or packed interval masks) keep and reflect containment, so a
    bijection matching keys keeps the order both ways, and an order
    isomorphism of lattices keeps meet and join.  Carriers of at most
    _SMALL_LIFT_ELEMENTS elements are keyed on Python ints and find their
    images in m2's mask index; larger ones go through numpy
    (_lift_swept)."""
    if m1.n > _SMALL_LIFT_ELEMENTS:
        return _lift_swept(m1, images, m2)
    pairs = list(zip(m1._join_irreducibles()[1], images))
    at = m2._enc_index()
    h = []
    for s in m1.enc:
        key = 0
        for r, image in pairs:
            if s >> r & 1:
                key |= image
        h.append(at.get(key))
    ok = (None not in h and len(set(h)) == len(h) == m2.n
          and h[m1.top] == m2.top and h[m1.bottom] == m2.bottom
          and all(h[y] == m2.neg[hx] for hx, y in zip(h, m1.neg))
          and {h[d] for d in m1.designated} == m2.designated)
    return tuple(h) if ok else None


def _lift_swept(m1: FinMatrix, images: Sequence[int], m2: FinMatrix) -> Optional[tuple[int, ...]]:
    """_lift on numpy arrays: the keys by a masked OR per point, the images
    by a binary search over m2's sorted masks (FinMatrix._positions)."""
    e = m1._enc_np()
    keys = np.zeros(m1.n, dtype=m2._enc_np().dtype)
    for r, image in zip(m1._join_irreducibles()[1], images):
        keys[e >> r & 1 == 1] |= image
    h = m2._positions(keys)
    ok = ((h >= 0).all()
          and np.array_equal(np.bincount(h, minlength=m2.n), np.ones(m2.n))
          and h[m1.top] == m2.top and h[m1.bottom] == m2.bottom
          and np.array_equal(h[np.array(m1.neg)], np.array(m2.neg)[h])
          and np.array_equal(np.sort(h[list(m1.designated)]), sorted(m2.designated)))
    return tuple(h.tolist()) if ok else None


# -- the catalog: masks, validated by the public constructor -----------------


def _dm4(designated: Sequence[int]) -> FinMatrix:
    """The four-element De Morgan lattice bot < n, b < top, its negation
    fixing n and b."""
    return FinMatrix(("bot", "n", "b", "top"), (3, 1, 2, 0), 3, 0, designated, ["demorgan"],
                     enc=(0, 1, 2, 3))


def _chain3(designated: Sequence[int]) -> FinMatrix:
    """The chain bot < n < top, its negation fixing n."""
    return FinMatrix(("bot", "n", "top"), (2, 1, 0), 2, 0, designated, ["demorgan"],
                     enc=(0, 1, 3))


@functools.cache
def bd4() -> FinMatrix:
    """Four truth values, the top and the 'both' fixpoint designated."""
    return _dm4([2, 3])


@functools.cache
def etl4() -> FinMatrix:
    """Four truth values, only the top designated."""
    return _dm4([3])


@functools.cache
def k3() -> FinMatrix:
    """Three-element chain with the middle fixpoint, top designated."""
    return _chain3([2])


@functools.cache
def lp3() -> FinMatrix:
    """Three-element chain, middle and top designated."""
    return _chain3([1, 2])


@functools.cache
def cl2() -> FinMatrix:
    """The two-element Boolean matrix."""
    return FinMatrix(("bot", "top"), (1, 0), 1, 0, [1], ["demorgan"], enc=(0, 1))


@functools.cache
def kminus8() -> FinMatrix:
    """The eight-element matrix with top designated whose logic sits just
    below the resolution logic.  Its order: bot < x, c; x < a, d; c < d;
    a, d < e; d < b; e, b < top.  Its negation swaps bot and top, x and e,
    c and b, and fixes a and d."""
    return FinMatrix(("bot", "x", "c", "a", "d", "e", "b", "top"), (7, 5, 6, 3, 4, 1, 2, 0),
                     7, 0, [7], ["demorgan"], enc=(0, 1, 2, 5, 3, 7, 11, 15))


def catalog() -> dict[str, FinMatrix]:
    """The named matrices used throughout: BD4, K3, LP3, CL2, ETL4, Kminus8."""
    return {
        "BD4": bd4(), "K3": k3(), "LP3": lp3(),
        "CL2": cl2(), "ETL4": etl4(), "KMINUS8": kminus8(),
    }
