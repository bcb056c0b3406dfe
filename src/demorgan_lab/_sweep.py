"""The numpy block sweep of matrix._violation, for the grids that the
packed sweep (matrix._Packed) does not decide: more than _PACKED_GRID
valuations, except a grid of more than _PACKED_BLOCK_ABOVE whose packed
first block holds a witness, or a matrix it cannot pack (no `demorgan`
flag, a designated set that is no filter, or a negation that permutes no
mask planes).  matrix loads this module, and numpy with it, on the first
such grid."""

from __future__ import annotations

import functools
import math
import operator
from typing import Optional, Sequence

import numpy as np

from ._order import derived
from .formula import Program, RuleInstance, fold
from .matrix import _LUT_BITS, FinMatrix

# Sweep block sizes in valuations: the first block is small, so a witness
# near the start of the grid costs little; blocks then double up to a cap
# whose uint8/uint16 intermediates stay in cache.  The blocks after the
# first write their block-shaped intermediates into one set of buffers per
# sweep (_Workspace): malloc serves a fresh array of this size with a new
# mmap that is zero-filled page by page, so fresh arrays made the big
# sweeps fault in every page of every intermediate of every block.
_FIRST_BLOCK = 1 << 14
_BLOCK_CAP = 1 << 19
# bytes of hoisted subformula values one sweep keeps (see violation); a key
# that would pass the cap is recomputed at each of its blocks
_MEMO_CAP = 1 << 21


class _Engine:
    """Vectorized valuation sweeps for one matrix, one block of the grid at
    a time.  `violation` takes contiguous blocks in lexicographic order,
    growing from _FIRST_BLOCK to _BLOCK_CAP valuations, and stops at the
    first block with a refuting valuation, so the witness is the least one.

    Values are the powerset masks, so meet and join are bitwise at every
    width.  They take the narrowest unsigned dtype that holds them (object
    arrays of Python ints above 64 bits): big sweeps move a lot of them
    around.  Negation reads a lookup table (`take`, which gathers faster
    than fancy indexing at every size) indexed by the mask itself up to
    _LUT_BITS mask bits, and by the mask's rank among the sorted carrier
    masks (`ranks`) above that.  Designation is a comparison with `des_v`
    when one element is designated, or (a & g) == g (`des_g` = `des_v` =
    g) when the designated set is the filter above g, at every width;
    other designated sets read lookup tables like negation.  `ops` holds
    the operations a block's fold runs.
    """

    def __init__(self, m: FinMatrix):
        dt = next((t for t in (np.uint8, np.uint16, np.uint32, np.uint64)
                   if m.nbits <= np.iinfo(t).bits), object)
        self.values = np.array(m.enc, dtype=dt)
        if m.nbits <= _LUT_BITS:
            self.ranks, slots, size = None, self.values, 1 << m.nbits
            lookup = np.ndarray.take
        else:
            ranks = self.ranks = np.sort(self.values)
            slots, size = ranks.searchsorted(self.values), m.n
            lookup = lambda lut, arr: lut.take(ranks.searchsorted(arr))
        neg_lut = np.zeros(size, dtype=dt)
        neg_lut[slots] = self.values[list(m.neg)]
        des_lut = np.zeros(size, dtype=bool)
        des_lut[slots[list(m.designated)]] = True
        # a conclusion's mask is one lookup, not a lookup and a negation
        neg, self.des, self.undes = (functools.partial(lookup, lut)
                                     for lut in (neg_lut, des_lut, ~des_lut))
        # neg, meet, join, top, bottom: the arguments fold takes after the leaves
        self.ops = (neg, operator.and_, operator.or_, self.values[m.top], self.values[m.bottom])
        # one designated value, or a filter: a comparison beats a lookup
        self.des_g = self.des_v = None
        if len(m.designated) == 1:
            self.des_v = self.values[next(iter(m.designated))]
        elif (g := m._designated_filter()) is not None:
            self.des_g = self.des_v = g if dt is object else dt(g)

    def designated_mask(self, arr: np.ndarray, premise: bool) -> np.ndarray:
        """Where arr is designated, or for a conclusion where it is not."""
        if self.des_v is None:
            return (self.des if premise else self.undes)(arr)
        if self.des_g is not None:
            arr = arr & self.des_g
        return (np.equal if premise else np.not_equal)(arr, self.des_v)

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
    """The buffers of one sweep over fixed-width masks, reused by every
    block after the first.  A buffer is flat, _BLOCK_CAP values long, and
    viewed in the block's shape.  A fold step whose result has the block's
    whole shape writes it through the ufunc's `out=`, into an operand the
    workspace owns (the step consumes its operands) or into a free buffer;
    a consumed operand's buffer is free again.  Leaves and constants are
    never written: they are views of the engine's values, or scalars.
    Negation still looks up into a fresh array.  A block-shaped designation
    mask overwrites its one-byte value, or goes to a buffer viewed as bool,
    and the masks are ANDed as uint8 through the same steps."""

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
        """The designation mask of v (see designated_mask).  For a filter, v
        is first ANDed with g in its own buffer or into a free one; a
        block-shaped comparison goes to v's own buffer when that holds
        one-byte values, else to a free one.  A small mask is made at v's
        own shape: comparing into a block-shaped output from a broadcast
        operand is slow."""
        eng = self.eng
        if eng.des_v is None or v.shape != self.shape:
            mask = eng.designated_mask(v, premise)
            self._release(v)
            return mask
        if eng.des_g is not None:
            v = self._step(np.bitwise_and, v, eng.des_g)
        own = v.itemsize == 1 and id(v.base) in self.owned
        mask = (np.equal if premise else np.not_equal)(
            v, eng.des_v, out=v.view(bool) if own else self._take(bool))
        if not own:
            self._release(v)
        return mask


@derived
def _engine(m: FinMatrix) -> _Engine:
    return _Engine(m)


def violation(m: FinMatrix, r: RuleInstance) -> Optional[dict[str, int]]:
    """matrix._violation by numpy blocks: the first valuation designating
    all premises but no conclusion, or None.

    The grid of valuations of the sorted atoms, element 0 first, is swept
    in contiguous blocks in lexicographic order, so the witness is the
    lexicographically least one.  A block fixes the leading atoms, gives
    the next one a range of values and leaves the rest free; blocks grow by
    doubling from _FIRST_BLOCK valuations (a smaller grid is one block) to
    _BLOCK_CAP.  The blocks after the first share one _Workspace, which
    lives as long as this call, unless the values are object arrays.

    The first block folds r.program().  A later one, whose ranged atom is
    j, folds the outer part of r.sweep_split(s), s = max(j, 1).  The sweep
    program is r's formulas factored and re-nested (formula._regrouped) to
    the same values, so that operands over few atoms combine before
    block-sized ones and disjuncts sharing their literals at the least atom
    meet them once; the witness is the same.  Its subformulas over the
    atoms from s on depend only on the block's shape
    (t, and for j >= 1 the range lo..hi), not on the fixed leading atoms, so
    their values are computed once per shape, by plain numpy operations
    into fresh arrays that the workspace never writes, and kept up to
    _MEMO_CAP bytes.  A key naming a range is kept only at _BLOCK_CAP
    valuations and for a range starting at a multiple of its width; the
    others never recur.
    """
    prog = r.program()
    k, n = len(prog.names), m.n
    total, pos, size = n ** k, 0, _FIRST_BLOCK
    eng = _engine(m)
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
                    cost = sum(np.size(v) for v in hoisted) * eng.values.itemsize
                    recurs = not j or size == _BLOCK_CAP and lo % (size // stride) == 0
                    if recurs and kept + cost <= _MEMO_CAP:
                        memo[key], kept = hoisted, kept + cost
                leaves += hoisted
            if eng.values.dtype != object:
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
