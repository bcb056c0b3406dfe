"""Finite logical matrices over the bounded-lattice-with-negation signature.

A matrix is a finite algebra (meet, join, negation, top, bottom) together
with a set of designated elements.  Rule validity is decided by exhaustive
valuation of the rule's atoms; the enumeration is vectorized with numpy.
A rule is compiled once to a straight-line program (formula.compile_program)
and one fold (formula.fold) runs every program: the sweep's in both engine
modes, evaluate's over the elements, and classical_status's over truth tables.

Every matrix here is a bounded distributive lattice, so it embeds into a
powerset lattice (Birkhoff).  That embedding is the only representation a
FinMatrix stores: one bitmask per element, a Python int of any width.  Meet
and join are bitwise AND/OR, and the n x n operation tables are caches
derived from the masks when something asks for them.  So is the tuple of
element names: a matrix keeps a function naming one element.  Isomorphism
search needs no tables: it compares the orders read off the masks (_order).

Data from outside is checked once, where it enters: the public constructor
(and so from_json and the catalog) runs FinMatrix.validate.  Matrices that
this package builds from matrices it already holds (products, quotients,
submatrices, split intervals, free algebras, complex matrices, gamma) hold
the laws by construction and go through FinMatrix._trusted, unchecked.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from ._order import Structure, closure, isomorphism, transpose
from .formula import Formula, Program, RuleInstance, fold

__all__ = [
    "FinMatrix", "MatrixError", "Partition", "MatrixMap",
    "evaluate", "validates", "find_countervaluation",
    "product", "submatrices",
    "leibniz_congruence", "leibniz_reduct", "quotient_by", "principal_congruence",
    "find_isomorphism", "is_matrix_isomorphism", "split_at", "free_dm_algebra",
    "bd4", "k3", "lp3", "cl2", "etl4", "kminus8", "dm4_algebra", "catalog",
]

# Operation tables are derived from the masks only up to TABLE_LIMIT
# elements; larger matrices work from the masks alone.
TABLE_LIMIT = 1500
# cells per block when numpy works through a rows x columns grid a block of
# rows at a time (pairs of elements, elements x join-irreducibles)
_PAIR_CHUNK = 1 << 18


class MatrixError(ValueError):
    pass


def _row_chunks(n: int, width: int) -> Iterator[slice]:
    """Slices of range(n), each a block of rows of about _PAIR_CHUNK cells
    when a row has width cells."""
    rows = max(1, _PAIR_CHUNK // max(1, width))
    return (slice(start, start + rows) for start in range(0, n, rows))


@dataclass(frozen=True)
class Partition:
    """Element-indexed block ids, normalized by first occurrence."""

    blocks: tuple[int, ...]

    @staticmethod
    def of(ids: Sequence[int]) -> "Partition":
        seen: dict[int, int] = {}
        out = []
        for b in ids:
            if b not in seen:
                seen[b] = len(seen)
            out.append(seen[b])
        return Partition(tuple(out))

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


def _is_index(v: object, n: int) -> bool:
    return isinstance(v, (int, np.integer)) and 0 <= v < n


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
            if not all(isinstance(v, (int, np.integer)) and v >= 0 for v in enc):
                raise MatrixError("the encoding needs a non-negative integer mask per element")
            if len(enc) != len(labels):
                raise MatrixError("the encoding needs one mask per element")
        self._init(labels.__getitem__, neg, top, bottom, designated, flags, [int(v) for v in enc])
        self._cache["labels"] = labels
        if tables is not None:
            self._cache["meet"], self._cache["join"] = tables
        self.validate()

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
        self._cache: dict[str, object] = {}

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
    def labels(self) -> tuple[str, ...]:
        """The element names, a cache derived on first read like the tables."""
        t = self._cache.get("labels")
        if t is None:
            t = self._cache["labels"] = tuple(map(self._label, range(self.n)))
        return t

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

    def _enc_index(self) -> dict[int, int]:
        idx = self._cache.get("enc_index")
        if idx is None:
            idx = {m: i for i, m in enumerate(self.enc)}
            self._cache["enc_index"] = idx
        return idx

    def meet_table(self) -> np.ndarray:
        return self._table("meet", np.bitwise_and)

    def join_table(self) -> np.ndarray:
        return self._table("join", np.bitwise_or)

    def _table(self, name: str, op: np.ufunc) -> np.ndarray:
        t = self._cache.get(name)
        if t is None:
            if self.n > TABLE_LIMIT:
                raise MatrixError(f"refusing to materialize {self.n}x{self.n} table")
            e = self._enc_np()
            t = self._mask_lookup(op(e[:, None], e[None, :]))
            self._cache[name] = t
        return t

    def _enc_np(self) -> np.ndarray:
        """The masks as an array: uint64 up to 64 bits, Python ints (object
        dtype) beyond; bitwise operators and searchsorted work on both."""
        e = self._cache.get("np_enc")
        if e is None:
            e = np.array(self.enc, dtype=np.uint64 if self.nbits <= 64 else object)
            self._cache["np_enc"] = e
        return e

    def _positions(self, masks: np.ndarray) -> np.ndarray:
        """Element index of each mask in the array, -1 where a mask is not
        one of the carrier's."""
        lut = self._cache.get("mask_lut")
        if lut is None:
            order = np.argsort(self._enc_np(), kind="stable")
            lut = (self._enc_np()[order], order.astype(np.int32))
            self._cache["mask_lut"] = lut
        sorted_masks, order = lut
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
        jis = self._cache.get("jis")
        if jis is None:
            jis = self._compute_join_irreducibles()
            self._cache["jis"] = jis
        return list(jis)

    def _compute_join_irreducibles(self) -> list[int]:
        idx = self._enc_index()
        if self.nbits <= 64 and self.n > 64:
            e = self._enc_np()
            seen = int(np.bitwise_or.reduce(e)) if self.n else 0
            out = set()
            for b in range(self.nbits):
                if not seen >> b & 1:
                    continue
                members = e[(e >> np.uint64(b) & np.uint64(1)) == 1]
                out.add(idx[int(np.bitwise_and.reduce(members))])
            return sorted(out)
        bits_seen = 0
        for m in self.enc:
            bits_seen |= m
        out = set()
        for b in range(self.nbits):
            if not bits_seen >> b & 1:
                continue
            acc = None
            for m in self.enc:
                if m >> b & 1:
                    acc = m if acc is None else acc & m
            out.add(idx[acc])
        return sorted(out)

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check the matrix exhaustively; MatrixError names what fails.

        The masks must be distinct, bottom's must be 0, each must lie inside
        top's, and the carrier must be closed under & and | on all pairs.
        An injective map into a powerset that preserves & and | is a lattice
        embedding, so this implies every bounded-distributive-lattice law.
        Cached operation tables (the constructor's input tables) must agree
        with the masks.  With the `demorgan` flag the negation must be an
        involution swapping the bounds with ~(x | y) = ~x & ~y on all pairs.
        """
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
        e = self._enc_np()
        if demorgan:
            ng = np.array(self.neg, dtype=np.int64)
            if not np.array_equal(ng[ng], np.arange(n)):
                raise MatrixError("negation is not an involution")
            if self.neg[self.top] != self.bottom:
                raise MatrixError("negation must swap the bounds")
            neg_e = e[ng]
        for rows in _row_chunks(n, n):
            x = np.arange(*rows.indices(n))
            meets = self._positions(e[x, None] & e[None, :])
            joins = self._positions(e[x, None] | e[None, :])
            for name, sym, got in (("meet", "&", meets), ("join", "|", joins)):
                self._fail_at(got < 0, x, f"carrier not closed under {sym}")
                table = self._cache.get(name)
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
        if "demorgan" not in self.flags or not self.designated:
            return False
        e = self._enc_np()
        gen = self._designated_meet()
        des = np.zeros(self.n, dtype=bool)
        des[list(self.designated)] = True
        return np.array_equal((e & gen) == gen, des)

    def _designated_meet(self) -> int:
        """The mask of the meet of the designated elements."""
        return functools.reduce(int.__and__, (self.enc[d] for d in self.designated))

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        e = self._enc_np()
        meet: list[list[int]] = []
        join: list[list[int]] = []
        for rows in _row_chunks(self.n, self.n):
            meet += self._mask_lookup(e[rows, None] & e).tolist()
            join += self._mask_lookup(e[rows, None] | e).tolist()
        return json.dumps({
            "elements": list(self.labels),
            "meet": meet,
            "join": join,
            "neg": list(self.neg),
            "top": self.top,
            "bottom": self.bottom,
            "designated": sorted(self.designated),
            "flags": sorted(self.flags),
        })

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


def _index_table(rows: Sequence[Sequence[int]], n: int, name: str) -> np.ndarray:
    """An input operation table as an n x n array of element indices."""
    try:
        t = np.array(rows)
        ok = t.shape == (n, n) and t.dtype.kind in "iu" and bool(((0 <= t) & (t < n)).all())
    except ValueError:  # ragged rows
        ok = False
    if not ok:
        raise MatrixError(f"{name} table is not an n x n table of element indices")
    return t.astype(np.int32)


def _masks_from_tables(mt: np.ndarray, jt: np.ndarray, bottom: int) -> list[int]:
    """Birkhoff masks read off input tables: bit b of a mask says the b-th
    join-irreducible (an element other than bottom that is not the join of
    the elements strictly below it) lies below the element.  validate then
    checks that the tables are the lattice these masks describe."""
    n = len(mt)
    leq = mt == np.arange(n)[:, None]  # leq[x, y]: x & y == x
    jis = []
    for x in range(n):
        below = [y for y in np.flatnonzero(leq[:, x]) if y != x]
        if x != bottom and (not below or functools.reduce(lambda a, b: jt[a, b], below) != x):
            jis.append(x)
    return [sum(1 << b for b, j in enumerate(jis) if leq[j, x]) for x in range(n)]


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


# Sweep block sizes in valuations: the first block is small, so a witness
# near the start of the grid costs little; blocks then double up to a cap
# whose uint8/uint16 intermediates stay in cache.  In mask mode, the blocks
# after the first write their block-shaped intermediates into one set of
# buffers per sweep (_Workspace): malloc serves a fresh array of this size
# with a new mmap that is zero-filled page by page, so fresh arrays made the
# big sweeps fault in every page of every intermediate of every block.
_FIRST_BLOCK = 1 << 14
_BLOCK_CAP = 1 << 19
# bytes of hoisted subformula values one sweep keeps (see _violation); a key
# that would pass the cap is recomputed at each of its blocks
_MEMO_CAP = 1 << 21


class _Engine:
    """Vectorized valuation sweeps for one matrix, one block of the grid at
    a time.  `_violation` takes contiguous blocks in lexicographic order,
    growing from _FIRST_BLOCK to _BLOCK_CAP valuations, and stops at the
    first block with a refuting valuation, so the witness is the least one.

    Values are carried either as powerset masks (meet/join are bitwise ops;
    needs <= 16 mask bits so negation/designation fit in lookup tables) or
    as element indices with table gathers.  The mode fixes the operations
    `ops` once; a block folds the rule's program over them.
    """

    def __init__(self, m: FinMatrix):
        self.mask_mode = m.nbits <= 16
        if self.mask_mode:
            size = 1 << m.nbits
            # the narrowest dtype that holds the masks: big sweeps move a
            # lot of these arrays around
            dt = np.uint8 if m.nbits <= 8 else np.uint16
            neg_lut = np.zeros(size, dtype=dt)
            self.des_lut = np.zeros(size, dtype=bool)
            for i, mask in enumerate(m.enc):
                neg_lut[mask] = m.enc[m.neg[i]]
                self.des_lut[mask] = i in m.designated
            self.values = np.array(m.enc, dtype=dt)
            ops = (neg_lut.__getitem__, operator.and_, operator.or_)
        else:
            n = np.int32(m.n)
            meet_flat = m.meet_table().astype(np.int32).ravel()
            join_flat = m.join_table().astype(np.int32).ravel()
            self.des_lut = np.zeros(m.n, dtype=bool)
            for d in m.designated:
                self.des_lut[d] = True
            self.values = np.arange(m.n, dtype=np.int32)
            ops = (np.array(m.neg, dtype=np.int32).__getitem__,
                   lambda a, b: meet_flat[a * n + b], lambda a, b: join_flat[a * n + b])
        # a conclusion's mask is one gather, not a gather and a negation
        self.undes_lut = ~self.des_lut
        # neg, meet, join, top, bottom: the arguments fold takes after the leaves
        self.ops = ops + (self.values[m.top], self.values[m.bottom])
        # one designated value: a comparison beats a lookup-table gather
        self.des_v = self.values[next(iter(m.designated))] if len(m.designated) == 1 else None

    def designated_mask(self, arr: np.ndarray, premise: bool,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
        """Where arr is designated, or for a conclusion where it is not.  A
        comparison writes to out when one is given; a gather makes a fresh
        array."""
        if self.des_v is not None:
            return (np.equal if premise else np.not_equal)(arr, self.des_v, out=out)
        return (self.des_lut if premise else self.undes_lut)[arr]

    def first_bad(self, prog: Program, leaves: Sequence[np.ndarray],
                  ws: Optional[_Workspace] = None) -> Optional[int]:
        """C-order offset of the first valuation in a block refuting the
        rule compiled to prog, given the block's value array per atom.  Each
        atom occurs in some mask, so `bad` has the block's whole shape.
        With a workspace, the block's intermediates go to its buffers."""
        if ws is not None:
            bad = ws.bad(prog, leaves)
        else:
            vals = fold(prog, leaves, *self.ops)
            masks = [self.designated_mask(v, i < prog.n_premises) for i, v in enumerate(vals)]
            # & commutes, so the order of the masks does not matter; numpy's
            # bool & with a scalar operand is slow, so the fold starts from a mask
            bad = functools.reduce(np.logical_and, masks) if masks else np.True_
        hit = int(bad.argmax())
        return hit if bad.flat[hit] else None


class _Workspace:
    """The buffers of one mask-mode sweep, reused by every block after the
    first.  A buffer is flat, _BLOCK_CAP values long, and viewed in the
    block's shape.  A fold step whose result has the block's whole shape
    writes it through the ufunc's `out=`, into an operand the workspace
    owns (the step consumes its operands) or into a free buffer; a consumed
    operand's buffer is free again.  Leaves and constants are never
    written: they are views of the engine's values, or scalars.  Negation
    still gathers into a fresh array.  A block-shaped designation mask
    overwrites its one-byte value, or goes to a buffer viewed as bool, and
    the masks are ANDed as uint8 through the same steps."""

    def __init__(self, eng: _Engine):
        self.eng = eng
        self.owned: dict[int, np.ndarray] = {}  # id -> every buffer
        self.free: list[np.ndarray] = []

    def _buffer(self) -> np.ndarray:
        return np.empty(_BLOCK_CAP, dtype=self.eng.values.dtype)

    def start(self, shape: tuple[int, ...]) -> None:
        """Free every buffer for a block of the given shape."""
        self.shape, self.size = shape, math.prod(shape)
        self.free = list(self.owned.values())

    def _take(self, dtype) -> np.ndarray:
        if self.free:
            flat = self.free.pop()
        else:
            flat = self._buffer()
            self.owned[id(flat)] = flat
        return flat.view(dtype)[:self.size].reshape(self.shape)

    def _release(self, a) -> None:
        flat = self.owned.get(id(a.base))
        if flat is not None:
            self.free.append(flat)

    def neg(self, a):
        out = self.eng.ops[0](a)
        self._release(a)
        return out

    def _step(self, ufunc, a, b):
        if a.size * b.size < self.size:  # the result is smaller than the block
            return ufunc(a, b)
        if id(a.base) in self.owned:
            self._release(b)
            return ufunc(a, b, out=a)
        if id(b.base) in self.owned:
            return ufunc(a, b, out=b)
        sa, sb = a.shape, b.shape
        # operands are scalars or arrays with one axis per free atom
        if (tuple(map(max, sa, sb)) if sa and sb else sa or sb) != self.shape:
            return ufunc(a, b)
        return ufunc(a, b, out=self._take(a.dtype))

    def bad(self, prog: Program, leaves: Sequence[np.ndarray]) -> np.ndarray:
        """The block's valuations designating every premise and no
        conclusion, as 0/1 bytes.  The masks are combined by uint8 &, which
        stays fast with a broadcast operand where bool & does not."""
        bad = None
        step = self._step
        vals = fold(prog, leaves, self.neg, functools.partial(step, np.bitwise_and),
                    functools.partial(step, np.bitwise_or), *self.eng.ops[3:])
        for i, v in enumerate(vals):
            mask = self._designated(v, i < prog.n_premises).view(np.uint8)
            bad = mask if bad is None else step(np.bitwise_and, bad, mask)
        return bad

    def _designated(self, v, premise: bool) -> np.ndarray:
        """The designation mask of v (see designated_mask); a block-shaped
        comparison goes to v's own buffer when that holds one-byte values,
        else to a free one.  A small mask is made at v's own shape:
        comparing into a block-shaped output from a broadcast operand is
        slow."""
        out = None
        if self.eng.des_v is not None and v.shape == self.shape:
            own = v.itemsize == 1 and id(v.base) in self.owned
            out = v.view(bool) if own else self._take(bool)
        mask = self.eng.designated_mask(v, premise, out)
        if out is None or out.base is not v.base:
            self._release(v)
        return mask


def _engine(m: FinMatrix) -> _Engine:
    e = m._cache.get("engine")
    if e is None:
        e = _Engine(m)
        m._cache["engine"] = e
    return e


def _violation(m: FinMatrix, r: RuleInstance) -> Optional[dict[str, int]]:
    """First valuation designating all premises but no conclusion, or None.

    The grid of valuations of the sorted atoms, element 0 first, is swept
    in contiguous blocks in lexicographic order, so the witness is the
    lexicographically least one.  A block fixes the leading atoms, gives
    the next one a range of values and leaves the rest free; blocks grow by
    doubling from _FIRST_BLOCK valuations (a smaller grid is one block) to
    _BLOCK_CAP.  In mask mode the blocks after the first share one
    _Workspace, which lives as long as this call.

    The first block folds r.program().  A later one, whose ranged atom is
    j, folds the outer part of r.sweep_split(s), s = max(j, 1): the
    subformulas over the atoms from s on depend only on the block's shape
    (t, and for j >= 1 the range lo..hi), not on the fixed leading atoms, so
    their values are computed once per shape, by plain numpy operations
    into fresh arrays that the workspace never writes, and kept up to
    _MEMO_CAP bytes.
    """
    eng = _engine(m)
    prog = r.program()
    k, n = len(prog.names), m.n
    total, pos, size = n ** k, 0, _FIRST_BLOCK
    ws = None
    memo: dict[tuple[int, ...], list] = {}
    kept = 0
    while pos < total:
        # free as many trailing atoms as fit in the block and keep it aligned
        t = 0
        while t + 1 < k and n ** (t + 1) <= size and pos % n ** (t + 1) == 0:
            t += 1
        stride = n ** t
        lo = pos // stride % n
        hi = min(n, lo + size // stride)
        j = k - 1 - t  # the ranged atom
        leaves = [eng.values[pos // n ** (k - 1 - i) % n] for i in range(j)]
        for i in range(min(k, t + 1)):
            v = eng.values[lo:hi] if i == 0 else eng.values
            leaves.append(v.reshape((1,) * i + (-1,) + (1,) * (t - i)))
        if pos:
            inner, prog = r.sweep_split(max(j, 1))
            if inner.nodes:
                key = (t, lo, hi) if j else (t,)
                hoisted = memo.get(key)
                if hoisted is None:
                    hoisted = fold(inner, leaves, *eng.ops)
                    cost = sum(v.nbytes for v in hoisted)
                    if kept + cost <= _MEMO_CAP:
                        memo[key], kept = hoisted, kept + cost
                leaves += hoisted
            if eng.mask_mode:
                ws = ws or _Workspace(eng)
                ws.start((hi - lo,) + (n,) * t)
        hit = eng.first_bad(prog, leaves, ws)
        if hit is not None:
            hit += pos
            out = {}
            for name in reversed(prog.names):
                hit, out[name] = divmod(hit, n)
            return out
        pos += (hi - lo) * stride
        size = min(2 * size, _BLOCK_CAP)
    return None


def validates(m: FinMatrix, r: RuleInstance) -> bool:
    """True iff every valuation designating all premises designates some
    conclusion (none may exist for explosive rules)."""
    return _violation(m, r) is None


def find_countervaluation(m: FinMatrix, r: RuleInstance) -> Optional[dict[str, int]]:
    """Witness valuation refuting r in m, or None when r is valid."""
    return _violation(m, r)


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

    Enumerated by breadth-first extension of closed sets, largest first is
    not guaranteed; order is deterministic.
    """
    def close(seed: frozenset[int]) -> frozenset[int]:
        cur = set(seed)
        frontier = list(cur)
        while frontier:
            x = frontier.pop()
            for y in list(cur):
                for z in (m.meet(x, y), m.join(x, y)):
                    if z not in cur:
                        cur.add(z)
                        frontier.append(z)
            z = m.neg[x]
            if z not in cur:
                cur.add(z)
                frontier.append(z)
        return frozenset(cur)

    base = close(frozenset([m.top, m.bottom]))
    seen = {base}
    queue = [base]
    while queue:
        s = queue.pop(0)
        yield _induced_submatrix(m, sorted(s))
        for x in range(m.n):
            if x not in s:
                t = close(s | {x})
                if t not in seen:
                    seen.add(t)
                    queue.append(t)


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


# -- congruences -------------------------------------------------------------


def _filter_generator(m: FinMatrix) -> Optional[int]:
    """Mask of the meet of the designated set when m qualifies for the
    duality fast paths, else None.

    It qualifies when it is a De Morgan matrix with a powerset encoding of at
    most 64 bits whose non-empty designated set is the upset of its meet,
    that is, a filter; then m is the complex matrix of its dual frame.
    """
    if m.nbits > 64 or not m.is_bd_model():
        return None
    return m._designated_meet()


def _dual_partners(m: FinMatrix, masks: Sequence[int]) -> list[int]:
    """Per join-irreducible mask ej, the mask of the join-irreducible
    generating the prime filter {a : ~a not above j}: the dual involution
    image of j.  The generator is the meet of the filter's members; top is
    one of them, so the meets start from its mask.  All masks in one numpy
    pass, a chunk of elements at a time.  A partner that is not the mask of
    a join-irreducible means the negation breaks a De Morgan law; the
    callers check."""
    if not masks:
        return []
    e = m._enc_np()
    neg_e = e[np.array(m.neg)]
    ej = np.array(masks, dtype=np.uint64)
    return functools.reduce(np.bitwise_and, [
        np.bitwise_and.reduce(np.where((neg_e[rows, None] & ej) != ej, e[rows, None], e[m.top]),
                              axis=0)
        for rows in _row_chunks(m.n, len(ej))]).tolist()


def leibniz_congruence(m: FinMatrix) -> Partition:
    """Largest congruence compatible with the designated set.

    When the designated set is a filter (see _filter_generator) this is
    read off the dual frame: two elements are congruent iff they lie above
    the same points of the Leibniz subframe, which are the join-irreducibles
    maximal below the filter's generator and their dual involution images.
    Other matrices go through _leibniz_refine.
    """
    gen = _filter_generator(m)
    if gen is None:
        return _leibniz_refine(m)
    below = [m.enc[j] for j in m.join_irreducibles() if m.enc[j] & gen == m.enc[j]]
    tops = [a for a in below if not any(b != a and a & b == a for b in below)]
    partners = _dual_partners(m, tops)
    if not {m.enc[j] for j in m.join_irreducibles()}.issuperset(partners):
        raise MatrixError("dual involution left the prime filters")
    points = set(tops) | set(partners)
    e = m._enc_np()
    k = np.array(sorted(points), dtype=np.uint64)
    _, ids = np.unique((e[:, None] & k) == k, axis=0, return_inverse=True)
    return Partition.of(ids.ravel().tolist())


def _leibniz_refine(m: FinMatrix) -> Partition:
    """Leibniz congruence for any matrix, as the greatest fixpoint of
    signature refinement: two elements stay together while designation and
    all one-step contexts (meet/join with a fixed argument, negation) agree
    blockwise.  This reaches the same fixpoint as pairwise separation
    propagation.
    """
    n = m.n
    colours = np.array([1 if i in m.designated else 0 for i in range(n)], dtype=np.int64)
    if n <= TABLE_LIMIT:
        mt, jt = m.meet_table(), m.join_table()
        ng = np.array(m.neg, dtype=np.int32)
        while True:
            sig = np.concatenate(
                [colours[:, None], colours[ng][:, None], colours[mt], colours[jt]],
                axis=1,
            )
            _, new = np.unique(sig, axis=0, return_inverse=True)
            if len(np.unique(new)) == len(np.unique(colours)):
                return Partition.of(colours.tolist())
            colours = new
    # large carriers: same refinement, hashing rows chunk by chunk
    import hashlib
    e = m._enc_np()
    neg_idx = np.array(m.neg)
    while True:
        digests = []
        for start in range(0, n, 256):
            chunk = slice(start, min(start + 256, n))
            meets = m._mask_lookup(e[chunk, None] & e[None, :])
            joins = m._mask_lookup(e[chunk, None] | e[None, :])
            block = np.concatenate(
                [colours[chunk][:, None], colours[neg_idx[chunk]][:, None],
                 colours[meets], colours[joins]],
                axis=1,
            )
            for row in block:
                digests.append(hashlib.blake2b(row.tobytes(), digest_size=16).digest())
        uniq = {d: i for i, d in enumerate(dict.fromkeys(digests))}
        new = np.array([uniq[d] for d in digests], dtype=np.int64)
        if len(uniq) == len(np.unique(colours)):
            return Partition.of(colours.tolist())
        colours = new


def quotient_by(m: FinMatrix, part: Partition) -> FinMatrix:
    """Quotient matrix; part must be a congruence compatible with designation.

    Each mask bit marks a prime filter of m, and the prime filters of a
    quotient are those of m that are unions of blocks, so part is a lattice
    congruence exactly when the mask bits constant on every block tell all
    blocks apart.  Those bits, packed, are the quotient's masks; negation
    and designation must be constant on blocks.
    """
    if len(part.blocks) != m.n:
        raise MatrixError(f"partition of {len(part.blocks)} elements for a carrier of {m.n}")
    if part.is_identity():
        return m
    bid = Partition.of(part.blocks).blocks
    reps: list[int] = []  # the first element of each block
    ors: list[int] = []
    ands: list[int] = []
    for x, b in enumerate(bid):
        if b == len(reps):
            reps.append(x)
            ors.append(0)
            ands.append(m.enc[x])
        ors[b] |= m.enc[x]
        ands[b] &= m.enc[x]
    varying = functools.reduce(int.__or__, (o ^ a for o, a in zip(ors, ands)), 0)
    codes = _pack([m.enc[r] for r in reps], m.enc[m.top] & ~varying)
    first: dict[int, int] = {}
    for b, code in enumerate(codes):
        if first.setdefault(code, b) != b:
            raise MatrixError(f"partition is not a lattice congruence: the blocks of "
                              f"{m.label(reps[first[code]])!r} and {m.label(reps[b])!r} "
                              "are not separated")
    for x, b in enumerate(bid):
        if bid[m.neg[x]] != bid[m.neg[reps[b]]]:
            raise MatrixError(f"partition not compatible with negation at {m.label(x)!r}")
        if (x in m.designated) != (reps[b] in m.designated):
            raise MatrixError("partition not compatible with designation")
    return FinMatrix._trusted(
        lambda b: m.label(reps[b]), [bid[m.neg[r]] for r in reps],
        bid[m.top], bid[m.bottom],
        [b for b, r in enumerate(reps) if r in m.designated], m.flags, codes)


def _pack(masks: Sequence[int], keep: int) -> list[int]:
    """Each mask's bits at the positions set in keep, moved down in order
    into the lowest bits."""
    bits = [b for b in range(keep.bit_length()) if keep >> b & 1]
    return [sum((mask >> b & 1) << i for i, b in enumerate(bits)) for mask in masks]


def leibniz_reduct(m: FinMatrix) -> FinMatrix:
    """Quotient by the Leibniz congruence; the result is reduced."""
    return quotient_by(m, leibniz_congruence(m))


def principal_congruence(m: FinMatrix, a: int, b: int) -> Partition:
    """Smallest congruence identifying a and b, by one-step-context closure."""
    if "demorgan" not in m.flags:
        raise MatrixError("principal congruences are for De Morgan matrices here")
    parent = list(range(m.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    work = [(a, b)]
    while work:
        x, y = work.pop()
        rx, ry = find(x), find(y)
        if rx == ry:
            continue
        parent[max(rx, ry)] = min(rx, ry)
        work.append((m.neg[x], m.neg[y]))
        for c in range(m.n):
            work.append((m.meet(x, c), m.meet(y, c)))
            work.append((m.join(x, c), m.join(y, c)))
    return Partition.of([find(i) for i in range(m.n)])


# -- isomorphism --------------------------------------------------------------


def _point_sets(m: FinMatrix) -> np.ndarray:
    """Per element, the points of the dual frame below it, as a bitmask: bit
    a is set iff the a-th join-irreducible lies below the element."""
    e = m._enc_np()
    ej = e[m.join_irreducibles()]
    shifts = np.arange(len(ej), dtype=np.uint64)
    out = np.empty(m.n, dtype=np.uint64)
    for rows in _row_chunks(m.n, len(ej)):
        out[rows] = (((e[rows, None] & ej) == ej) << shifts).sum(axis=1, dtype=np.uint64)
    return out


def find_isomorphism(m1: FinMatrix, m2: FinMatrix) -> Optional[tuple[int, ...]]:
    """A bijection preserving tables, constants and designation, or None.

    When both matrices qualify for the duality fast path (see
    _filter_generator) each is the complex matrix of its dual frame, so an
    isomorphism of the dual frames, lifted to elements by permuting the
    join-irreducibles below each element, is one of the matrices.  Other
    pairs go through _find_isomorphism_generic.
    """
    if m1 is m2:
        return tuple(range(m1.n))
    if m1.n != m2.n or len(m1.designated) != len(m2.designated):
        return None
    if _filter_generator(m1) is None or _filter_generator(m2) is None:
        return _find_isomorphism_generic(m1, m2)
    from .frame import dual_frame, frame_isomorphism
    phi = frame_isomorphism(dual_frame(m1), dual_frame(m2))
    if phi is None:
        return None
    src, dst = _point_sets(m1), _point_sets(m2)
    moved = np.zeros_like(src)
    for a, b in enumerate(phi):
        moved |= (src >> np.uint64(a) & np.uint64(1)) << np.uint64(b)
    order = np.argsort(dst)
    pos = np.minimum(np.searchsorted(dst[order], moved), m2.n - 1)
    mp = order[pos]
    ng1, ng2 = np.array(m1.neg), np.array(m2.neg)
    des1 = np.array([x in m1.designated for x in range(m1.n)])
    des2 = np.array([x in m2.designated for x in range(m2.n)])
    if not (np.array_equal(dst[mp], moved)
            and np.array_equal(np.bincount(mp, minlength=m2.n), np.ones(m2.n))
            and mp[m1.top] == m2.top and mp[m1.bottom] == m2.bottom
            and np.array_equal(mp[ng1], ng2[mp]) and np.array_equal(des2[mp], des1)):
        raise RuntimeError("internal: dual frame isomorphism did not lift to the matrices")
    return tuple(mp.tolist())


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


@dataclass
class MatrixMap:
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
    the product element (a & x, ~a & x); the witness is verified to be an
    isomorphism before returning.
    """
    if "demorgan" not in m.flags:
        raise MatrixError("split_at needs a De Morgan matrix")
    na = m.neg[a]
    if m.join(a, na) != m.top:
        raise MatrixError("split_at needs a | ~a = top")

    def interval(c: int) -> tuple[FinMatrix, dict[int, int]]:
        elems = [x for x in range(m.n) if m.leq(x, c)]
        pos = {e: i for i, e in enumerate(elems)}
        neg = [pos[m.meet(c, m.neg[x])] for x in elems]
        designated = sorted({pos[m.meet(c, f)] for f in m.designated})
        mm = FinMatrix._trusted(
            lambda x: m.label(elems[x]), neg, pos[c], pos[m.bottom], designated,
            ["demorgan"], _pack([m.enc[e] for e in elems], m.enc[c]),
        )
        return mm, pos

    m1, pos1 = interval(a)
    m2, pos2 = interval(na)
    prod = product([m1, m2])
    pair_pos = {}
    for i, t in enumerate(itertools.product(range(m1.n), range(m2.n))):
        pair_pos[t] = i
    witness = tuple(
        pair_pos[(pos1[m.meet(a, x)], pos2[m.meet(na, x)])] for x in range(m.n)
    )
    if not is_matrix_isomorphism(m, prod, witness):
        raise RuntimeError("internal: split witness failed verification")
    return m1, m2, witness


# -- free De Morgan algebras --------------------------------------------------


FREE_SIZE_CAP = 50_000


def free_dm_algebra(
    gens: Sequence[str],
    relations: Sequence[tuple[Formula, Formula]] = (),
) -> FinMatrix:
    """Free De Morgan algebra on the generators modulo inequalities lhs <= rhs.

    Realized as the subalgebra of DM4^S generated by the generator
    projections, where S is the set of DM4 valuations of the generators
    satisfying the relations.  (Every De Morgan algebra is a subdirect power
    of the four-element one, so this is the free object.)  The designated
    set is left empty: only the algebra part is meaningful.
    """
    if len(gens) > 3:
        raise MatrixError("free algebra guard: at most 3 generators")
    gen_list = list(gens)
    dm4 = dm4_algebra()
    S = []
    for vals in itertools.product(range(4), repeat=len(gen_list)):
        v = dict(zip(gen_list, vals))
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
             for g in gen_list}
    elems = {0, full, *names}
    frontier = list(elems)
    while frontier:
        x = frontier.pop()
        new = [neg(x)] + [x & y for y in elems] + [x | y for y in elems]
        for t in new:
            if t not in elems:
                if len(elems) >= FREE_SIZE_CAP:
                    raise MatrixError("free algebra closure exceeded the size cap")
                elems.add(t)
                frontier.append(t)
    order = sorted(elems)
    pos = {t: i for i, t in enumerate(order)}
    return FinMatrix._trusted(lambda i: names.get(order[i], "e%d" % i),
                              [pos[neg(t)] for t in order], pos[full], 0,
                              [], ["demorgan"], order)


# -- the catalog --------------------------------------------------------------


def _lattice_from_order(labels, hasse, neg_pairs, designated, name_top, name_bot):
    """Build tables from a Hasse diagram given as label pairs (a < b)."""
    pos = {l: i for i, l in enumerate(labels)}
    n = len(labels)
    up = [0] * n
    for a, b in hasse:
        up[pos[a]] |= 1 << pos[b]
    up = closure(up)
    if len(set(up)) != n:
        raise MatrixError("not a lattice: the Hasse diagram has a cycle")
    tables = []
    # the meet of x and y is the element whose downset is their common
    # downset, if there is one; the join likewise with upsets
    for rows, name in ((transpose(up), "meet"), (up, "join")):
        of_row = {r: z for z, r in enumerate(rows)}
        for x, y in itertools.product(range(n), repeat=2):
            if rows[x] & rows[y] not in of_row:
                raise MatrixError(f"not a lattice: {labels[x]!r} and {labels[y]!r} have no {name}")
        tables.append([[of_row[rows[x] & rows[y]] for y in range(n)] for x in range(n)])
    neg = [None] * n
    for a, b in neg_pairs:
        neg[pos[a]] = pos[b]
        neg[pos[b]] = pos[a]
    return FinMatrix(
        labels, neg, pos[name_top], pos[name_bot],
        [pos[d] for d in designated], ["demorgan"], meet=tables[0], join=tables[1],
    )


_DM4_LABELS = ("bot", "n", "b", "top")
_DM4_HASSE = (("bot", "n"), ("bot", "b"), ("n", "top"), ("b", "top"))
_DM4_NEGP = (("bot", "top"), ("n", "n"), ("b", "b"))


def _cached(name: str, build: Callable[[], FinMatrix]) -> FinMatrix:
    got = _CATALOG_CACHE.get(name)
    if got is None:
        got = build()
        _CATALOG_CACHE[name] = got
    return got


_CATALOG_CACHE: dict[str, FinMatrix] = {}


def bd4() -> FinMatrix:
    """Four truth values, the top and the 'both' fixpoint designated."""
    return _cached("BD4", lambda: _lattice_from_order(
        _DM4_LABELS, _DM4_HASSE, _DM4_NEGP, ["b", "top"], "top", "bot"))


def etl4() -> FinMatrix:
    """Four truth values, only the top designated."""
    return _cached("ETL4", lambda: _lattice_from_order(
        _DM4_LABELS, _DM4_HASSE, _DM4_NEGP, ["top"], "top", "bot"))


def k3() -> FinMatrix:
    """Three-element chain with the middle fixpoint, top designated."""
    return _cached("K3", lambda: _lattice_from_order(
        ("bot", "n", "top"), (("bot", "n"), ("n", "top")),
        (("bot", "top"), ("n", "n")), ["top"], "top", "bot"))


def lp3() -> FinMatrix:
    """Three-element chain, middle and top designated."""
    return _cached("LP3", lambda: _lattice_from_order(
        ("bot", "n", "top"), (("bot", "n"), ("n", "top")),
        (("bot", "top"), ("n", "n")), ["n", "top"], "top", "bot"))


def cl2() -> FinMatrix:
    """The two-element Boolean matrix."""
    return _cached("CL2", lambda: _lattice_from_order(
        ("bot", "top"), (("bot", "top"),), (("bot", "top"),), ["top"], "top", "bot"))


def kminus8() -> FinMatrix:
    """The eight-element matrix with top designated whose logic sits just
    below the resolution logic; built from its Hasse diagram."""
    labels = ("bot", "x", "c", "a", "d", "e", "b", "top")
    hasse = (("bot", "x"), ("bot", "c"), ("x", "a"), ("x", "d"), ("c", "d"),
             ("a", "e"), ("d", "e"), ("d", "b"), ("e", "top"), ("b", "top"))
    negp = (("bot", "top"), ("x", "e"), ("c", "b"), ("a", "a"), ("d", "d"))
    return _cached("KMINUS8", lambda: _lattice_from_order(
        labels, hasse, negp, ["top"], "top", "bot"))


def dm4_algebra() -> FinMatrix:
    """The four-element De Morgan algebra with everything designated; used
    as a term-function oracle, not as a logic."""
    return _cached("DM4", lambda: _lattice_from_order(
        _DM4_LABELS, _DM4_HASSE, _DM4_NEGP, ["bot", "n", "b", "top"], "top", "bot"))


def catalog() -> dict[str, FinMatrix]:
    """The named matrices used throughout: BD4, K3, LP3, CL2, ETL4, Kminus8."""
    return {
        "BD4": bd4(), "K3": k3(), "LP3": lp3(),
        "CL2": cl2(), "ETL4": etl4(), "KMINUS8": kminus8(),
    }
