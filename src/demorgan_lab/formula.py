"""Propositional formulas over meet, join, negation and the two constants.

The object language is the one all rules in this package are written in:
atoms, ``~``, ``&``, ``|``, ``T`` and ``F``, with precedence ``~ > & > |``.
Compiling (compile_program) is the one walk down a formula: it writes a
postfix program, and everything else that reads a formula (evaluation,
printing, nnf, clause sets, substitution, atoms) is one fold of that
program.  A rule compiles each side in the order of its formulas'
programs, so its program does not depend on str hashes.  Normal forms are
built from clause lists (_normal_clauses), which the consequence witness
of logics walks.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from typing import AbstractSet, Any, Callable, Iterable, Mapping, NamedTuple, Sequence

from ._order import Record, derived

__all__ = [
    "Formula", "Atom", "Neg", "And", "Or", "TOP", "BOT",
    "RuleInstance", "Substitution", "ParseError",
    "parse", "parse_rule", "substitute", "rename_apart", "fresh_renaming",
    "normal_form", "nnf", "classical_status", "chi", "atoms",
    "TAUTOLOGY", "CONTRADICTION", "CONTINGENT",
    "conj", "disj", "Program", "compile_program", "fold",
]


class Formula(Record, frozen=True):
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Neg(self)

    @derived
    def __str__(self) -> str:
        """The formula printed (_print), on first call, and kept."""
        return _print(self)

    def __repr__(self) -> str:
        return f"parse({str(self)!r})"

    @derived
    def program(self) -> Program:
        """The formula compiled, on first call, and kept."""
        return compile_program([self])

    def __getstate__(self) -> dict:
        # derived data (its keys start with "_") stays behind: a str hash
        # differs between processes
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


def _node(cls: type) -> type:
    """A formula class, whose field hash (Record's, a function named hash,
    so kept as "_hash"), a walk of the whole tree, is computed on first
    call and kept like the program.  Equality stays field by field, but an
    &/| node walks the nodes down both left sides by a loop while they keep
    its connective, as _emit_chain does, comparing their right operands."""
    cls.__hash__ = derived(cls.__hash__)
    if cls._fields == ("left", "right"):
        field_eq = cls.__eq__

        def __eq__(self, other):
            if other.__class__ is not cls:
                return NotImplemented
            while self is not other and self.left.__class__ is cls and other.left.__class__ is cls:
                if self.right is not other.right and self.right != other.right:
                    return False
                self, other = self.left, other.left
            return field_eq(self, other)

        cls.__eq__ = __eq__
    return cls


# the operation nodes of a compiled program; an atom's node is its leaf index
_NEG, _AND, _OR, _TOP, _BOT = range(-1, -6, -1)


@_node
class Atom(Formula):
    name: str

    def __post_init__(self) -> None:
        if not re.fullmatch(r"[a-z][a-z0-9_]*", self.name):
            raise ValueError(f"bad atom name: {self.name!r}")

    def _emit(self, nodes: list) -> None:
        nodes.append(self.name)


@_node
class Neg(Formula):
    arg: Formula

    def _emit(self, nodes: list) -> None:
        self.arg._emit(nodes)
        nodes.append(_NEG)


@_node
class And(Formula):
    left: Formula
    right: Formula

    def _emit(self, nodes: list) -> None:
        if type(self.left) is And:
            return _emit_chain(self, nodes, _AND)
        self.left._emit(nodes)
        self.right._emit(nodes)
        nodes.append(_AND)


@_node
class Or(Formula):
    left: Formula
    right: Formula

    def _emit(self, nodes: list) -> None:
        if type(self.left) is Or:
            return _emit_chain(self, nodes, _OR)
        self.left._emit(nodes)
        self.right._emit(nodes)
        nodes.append(_OR)


def _emit_chain(f: Formula, nodes: list, op: int) -> None:
    """f._emit for an &/| node whose left operand has its connective: the
    nodes of that chain down its left side are walked by a loop, so a long
    conj or disj costs no recursion per operand."""
    rights = []
    chain = type(f)
    while type(f) is chain:
        rights.append(f.right)
        f = f.left
    f._emit(nodes)
    for right in reversed(rights):
        right._emit(nodes)
        nodes.append(op)


@_node
class _Top(Formula):
    def _emit(self, nodes: list) -> None:
        nodes.append(_TOP)


@_node
class _Bot(Formula):
    def _emit(self, nodes: list) -> None:
        nodes.append(_BOT)


TOP = _Top()
BOT = _Bot()

#: result values of classical_status
TAUTOLOGY = "tautology"
CONTRADICTION = "contradiction"
CONTINGENT = "contingent"


def atoms(f: Formula) -> frozenset[str]:
    """Set of atom names occurring in f."""
    return frozenset(f.program().names)


class Program(NamedTuple):
    """Formulas compiled to straight-line postfix code for a stack machine
    (see fold).  An atom's node is its leaf, the index of its name in the
    sorted `names`, and pushes the leaf's value; an operation's node is a
    negative opcode and replaces its operands on the stack by its value.
    The code leaves one value per formula, the first `n_premises` of them
    premises."""

    names: tuple[str, ...]
    nodes: tuple[int, ...]
    n_premises: int


def compile_program(premises: Sequence[Formula], conclusions: Sequence[Formula] = ()) -> Program:
    """The program of the formulas, one node per occurrence of a subformula;
    each formula class appends its own nodes, operands first, in `_emit`.
    Repeated subformulas are not merged: most rules are swept in one or a
    few blocks, so a merge would cost more at each compile than it saves."""
    nodes: list[int | str] = []
    for f in (*premises, *conclusions):
        f._emit(nodes)
    # atoms were emitted as their names; make those leaf indices
    atom_at = [k for k, node in enumerate(nodes) if type(node) is str]
    names = tuple(sorted({nodes[k] for k in atom_at}))
    leaf = {name: i for i, name in enumerate(names)}
    for k in atom_at:
        nodes[k] = leaf[nodes[k]]
    return Program(names, tuple(nodes), len(premises))


def fold(prog: Program, leaves: Sequence[Any], neg: Callable[[Any], Any],
         meet: Callable[[Any, Any], Any], join: Callable[[Any, Any], Any],
         top: Any, bot: Any) -> list:
    """The value of each formula of prog, premises first, given a value per
    atom name in leaves and the operations of the algebra the values live
    in.  An operand leaves the stack when it is used, so a large
    intermediate value is freed as soon as it is consumed."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for op in prog.nodes:
        if op >= 0:
            push(leaves[op])
        elif op == _NEG:
            stack[-1] = neg(stack[-1])
        elif op == _AND:
            stack[-1] = meet(stack[-2], pop())
        elif op == _OR:
            stack[-1] = join(stack[-2], pop())
        else:
            push(top if op == _TOP else bot)
    return stack


def _regrouped(f: Formula, leaf: Mapping[str, int]) -> tuple[Formula, int]:
    """f rewritten for the block sweep (see split_program), and f's least
    leaf index (atomless formulas count as after every atom).  Each &/|
    chain is flattened (_term) and rebuilt by two rewrites that hold in
    every distributive lattice, as every matrix is (its meet and join are &
    and | on masks); negation is left alone, so the value of f is the same
    in every algebra a rule is swept in.
    1. A chain's operands are nested to the left by their least leaf,
       latest first, and the operands sharing a least leaf form one
       subtree: (H & p) & ~p becomes H & (p & ~p), so each part of a chain
       over the atoms from some leaf on is one subtree, and operands over
       few atoms combine at their small shape first.
    2. Operands of a |-chain that are &-chains with the same least-leaf
       group E are factored, (L1 & E) | (L2 & E) to (L1 | L2) & E, where
       L1 | L2 is over later atoms than E; E | (L & E) is E.  Dually for &
       of |."""
    term = _term(f, leaf)
    return _built(term), term[0]


# A term is f flattened: (least leaf, None, f) for an atom, a constant or a
# negation, and (least leaf, chain, operands) for an &/| chain, whose
# operands are terms and never chains of the same connective.


def _term(f: Formula, leaf: Mapping[str, int]) -> tuple:
    """The term of f, each chain factored by _chain."""
    if isinstance(f, Atom):
        return leaf[f.name], None, f
    if isinstance(f, Neg):
        arg, lo = _regrouped(f.arg, leaf)
        return lo, None, Neg(arg)
    if not isinstance(f, (And, Or)):
        return len(leaf), None, f
    chain, operands, todo = type(f), [], [f]
    while todo:
        g = todo.pop()
        if type(g) is chain:
            todo += (g.right, g.left)
        else:
            operands.append(_term(g, leaf))
    return _chain(chain, operands)


def _parts(chain: type, term: tuple) -> tuple:
    """The operands of a chain term, or the term alone."""
    return term[2] if term[1] is chain else (term,)


def _joined(chain: type, operands: Sequence[tuple]) -> tuple:
    """The term of the chain of operands, flattened; one operand is itself."""
    flat = tuple(x for t in operands for x in _parts(chain, t))
    return flat[0] if len(flat) == 1 else (min(t[0] for t in flat), chain, flat)


def _chain(chain: type, operands: Sequence[tuple]) -> tuple:
    """The term of the chain of operands, factored by rewrite 2: the
    operands that are chains of the dual connective are grouped by the set
    of their operands at their least leaf (E; an operand of another kind is
    its own E), and a group of several becomes dual(chain(L1, L2, ...), E),
    or E when some Li is empty."""
    dual = Or if chain is And else And
    groups: dict[frozenset, list] = {}
    for t in (x for t in operands for x in _parts(chain, t)):
        parts = _parts(dual, t)
        e = [p for p in parts if p[0] == t[0]]
        groups.setdefault(frozenset(e), []).append((t, e, [p for p in parts if p[0] != t[0]]))
    out = []
    for members in groups.values():
        t, e, rest = members[0]
        if len(members) > 1:
            if all(rest for _, _, rest in members):
                t = _joined(dual, [_chain(chain, [_joined(dual, rest) for _, _, rest in members]),
                                   *e])
            else:
                t = _joined(dual, e)
        out.append(t)
    return _joined(chain, out)


def _built(term: tuple) -> Formula:
    """The formula of a term, each chain nested by rewrite 1."""
    _, chain, parts = term
    if chain is None:
        return parts
    ordered = sorted(parts, key=operator.itemgetter(0), reverse=True)
    return functools.reduce(chain, (
        functools.reduce(chain, map(_built, group))
        for _, group in itertools.groupby(ordered, operator.itemgetter(0))))


def split_program(prog: Program, first: int) -> tuple[Program, Program]:
    """prog cut into an inner program, whose formulas are the maximal
    operation subtrees with every atom (if any) at leaf `first` or later,
    and an outer one, prog with those subtrees read as extra leaves
    len(prog.names), len(prog.names) + 1, ...: the fold of the outer program
    over the leaves followed by the inner program's values is the fold of
    prog.  The outer program keeps prog's premises."""
    k = len(prog.names)
    inner: list[int] = []
    roots = itertools.count(k)

    def emit(vals: Sequence[tuple[list[int], int, bool]]) -> list[int]:
        # a value is (the subtree's code, its least leaf, whether it is an
        # operation subtree over the leaves from `first` on); such a subtree
        # goes to the inner program, and its leaf takes its place
        return [x for code, _, up in vals
                for x in ((inner.extend(code) or [next(roots)]) if up else code)]

    def node(op: int, *args: tuple[list[int], int, bool]) -> tuple[list[int], int, bool]:
        lo = min(a[1] for a in args)
        if lo >= first:
            return [x for a in args for x in a[0]] + [op], lo, True
        return emit(args) + [op], lo, False

    vals = fold(prog, [([i], i, False) for i in range(k)],
                lambda a: node(_NEG, a), lambda a, b: node(_AND, a, b),
                lambda a, b: node(_OR, a, b), ([_TOP], k, False), ([_BOT], k, False))
    outer = emit(vals)
    return Program(prog.names, tuple(inner), 0), Program(prog.names, tuple(outer), prog.n_premises)


def _print(f: Formula) -> str:
    """The text of f, parenthesized so parse(_print(f)) == f: the fold of
    f's program whose value is the text of a formula that is no &/| chain,
    and for a chain its separator and its operands' texts, a list that
    grows in place, so a long conj or disj costs no copy per operand.  An
    operand is parenthesized when it is a chain binding looser than its
    context, or one of its chain's connective on the right: the parser
    associates to the left."""
    prog = f.program()
    return _text(fold(prog, prog.names, _print_neg, _print_and, _print_or, "T", "F")[0])


Printed = str | tuple[str, list[str]]


def _text(v: Printed) -> str:
    return v if type(v) is str else v[0].join(v[1])


def _print_neg(a: Printed) -> Printed:
    return "~" + a if type(a) is str else "~(" + _text(a) + ")"


def _print_and(a: Printed, b: Printed) -> Printed:
    if type(a) is str or a[0] != " & ":
        a = " & ", [a if type(a) is str else "(" + _text(a) + ")"]
    a[1].append(b if type(b) is str else "(" + _text(b) + ")")
    return a


def _print_or(a: Printed, b: Printed) -> Printed:
    if type(a) is str or a[0] != " | ":
        a = " | ", [_text(a)]
    a[1].append("(" + _text(b) + ")" if type(b) is tuple and b[0] == " | " else _text(b))
    return a


class ParseError(ValueError):
    """Syntax error; carries the byte offset and the expected-token set
    (empty when no token would do: see MAX_DEPTH)."""

    def __init__(self, text: str, pos: int, expected: Iterable[str], problem: str = ""):
        self.pos = pos
        self.expected = sorted(set(expected))
        got = text[pos:pos + 10] or "end of input"
        parts = [problem] if problem else []
        if self.expected:
            parts.append(f"expected one of {', '.join(self.expected)}")
        super().__init__(f"syntax error at offset {pos} (near {got!r}): " + "; ".join(parts))


# The parser rejects a formula with more levels than this on a path from
# the root to a leaf, or with more ~ and ( open at once.  A ~ is a level,
# and so is a chain of & or of |, however long: compiling a formula
# recurses once per level and walks a chain by a loop, and printing and
# the normal forms fold the program it writes.  (Hashing recurses through
# a chain's nodes down to one already hashed: conj and disj hash every
# 64th, the parser each chain it builds, and substitute every node.)
MAX_DEPTH = 256


_FORMULA_START = ("atom", "~", "(", "T", "F")
_TOKEN = re.compile(r"\s*(?:(?P<atom>[a-z][a-z0-9_]*)|(?P<op>[~&|()])|(?P<const>[TF]))")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    i = 0
    while i < len(text):
        m = _TOKEN.match(text, i)
        if not m:
            if text[i:].strip() == "":
                break
            raise ParseError(text, i, _FORMULA_START)
        kind = m.lastgroup
        toks.append((kind, m.group(kind), m.start(kind)))
        i = m.end()
    return toks


class _Parser:
    """Recursive descent; each method returns a formula and its depth (the
    levels, ~ or chains, on its longest path to a leaf), and `open` counts
    the ~ and ( that the descent is inside."""

    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.open = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def pos(self) -> int:
        return self.toks[self.i][2] if self.i < len(self.toks) else len(self.text)

    def eat(self, value: str) -> bool:
        t = self.peek()
        if t and t[0] == "op" and t[1] == value:
            self.i += 1
            return True
        return False

    def too_deep(self, token: int) -> ParseError:
        """The error of a formula passing MAX_DEPTH at the given token."""
        return ParseError(self.text, self.toks[token][2], (),
                          f"formula nested deeper than {MAX_DEPTH}")

    def chain(self, op: str = "|") -> tuple[Formula, int]:
        """The operands joined by op, read into a list and built by disj
        (op "|", operands & chains) or conj (op "&", operands negations):
        a chain counts as one level however long it is."""
        f, top = self.chain("&") if op == "|" else self.neg()
        fs = [f]
        while self.eat(op):
            at = self.i - 1
            g, d = self.chain("&") if op == "|" else self.neg()
            fs.append(g)
            if d > top:
                top = d
            if top >= MAX_DEPTH:
                raise self.too_deep(at)
        if len(fs) == 1:
            return f, top
        f = (disj if op == "|" else conj)(fs)
        hash(f)  # kept: hashing a chain around f stops at f (see MAX_DEPTH)
        return f, top + 1

    def neg(self) -> tuple[Formula, int]:
        t = self.peek()
        if t is None:
            raise ParseError(self.text, self.pos(), _FORMULA_START)
        kind, value, pos = t
        if kind == "atom":
            self.i += 1
            return Atom(value), 0
        if kind == "const":
            self.i += 1
            return TOP if value == "T" else BOT, 0
        if not (self.eat("~") or self.eat("(")):
            raise ParseError(self.text, pos, _FORMULA_START)
        at, self.open = self.i - 1, self.open + 1
        if self.open > MAX_DEPTH:
            raise self.too_deep(at)
        if value == "~":
            f, depth = self.neg()
            f, depth = Neg(f), depth + 1
            if depth > MAX_DEPTH:
                raise self.too_deep(at)
        else:
            f, depth = self.chain()
            if not self.eat(")"):
                raise ParseError(self.text, self.pos(), [")", "|", "&"])
        self.open -= 1
        return f, depth


def parse(text: str) -> Formula:
    """Parse a formula; grammar: disjunction of conjunctions of negations,
    at most MAX_DEPTH deep."""
    p = _Parser(text)
    f, _ = p.chain()
    if p.peek() is not None:
        raise ParseError(text, p.pos(), ["|", "&", "end of input"])
    return f


class RuleInstance(Record, frozen=True):
    """A rule with a finite premise set and a finite conclusion set.

    An empty conclusion set encodes an explosive rule, a singleton an
    ordinary rule, anything larger a multiple-conclusion rule.
    """

    premises: frozenset[Formula]
    conclusions: frozenset[Formula]

    @staticmethod
    def of(premises: Iterable[Formula], conclusions: Iterable[Formula]) -> "RuleInstance":
        return RuleInstance(frozenset(premises), frozenset(conclusions))

    @staticmethod
    def single(premises: Iterable[Formula], conclusion: Formula) -> "RuleInstance":
        return RuleInstance(frozenset(premises), frozenset([conclusion]))

    @staticmethod
    def explosive(premises: Iterable[Formula]) -> "RuleInstance":
        return RuleInstance(frozenset(premises), frozenset())

    def atom_names(self) -> frozenset[str]:
        """The atoms of all premises and conclusions."""
        return frozenset(self.program().names)

    @derived
    def program(self) -> Program:
        """The premises and conclusions compiled, in _sides' order, on first
        call, and kept."""
        return compile_program(*self._sides())

    def _sides(self) -> list[list[Formula]]:
        """The premises and the conclusions, a side of several formulas in
        the order of their programs (atom names, then code).  A frozenset
        lists formulas in an order set by str hashes, which differ between
        processes; this order does not, so neither does program()."""
        return [sorted(side, key=Formula.program) if len(side) > 1 else list(side)
                for side in (self.premises, self.conclusions)]

    @derived
    def sweep_program(self) -> Program:
        """The rule's formulas rewritten by _regrouped and compiled, in
        program()'s order over the same leaves; built on first call and kept
        like program().  Only the valuation sweep folds it, so printing,
        substitution and atoms see the rule as written.  Where absorption
        drops an atom, this is program(): the sweep reads a witness off
        designation masks with an axis per atom."""
        leaf = {name: i for i, name in enumerate(self.program().names)}
        prog = compile_program(*([_regrouped(f, leaf)[0] for f in side] for side in self._sides()))
        return prog if len(prog.names) == len(leaf) else self.program()

    @derived
    def splits(self) -> dict[int, tuple[Program, Program]]:
        """sweep_split's splits, by `first`; kept like program()."""
        return {}

    def sweep_split(self, first: int) -> tuple[Program, Program]:
        """split_program(self.sweep_program(), first), kept per `first`."""
        splits = self.splits()
        out = splits.get(first)
        if out is None:
            out = splits[first] = split_program(self.sweep_program(), first)
        return out

    def __str__(self) -> str:
        lhs = ", ".join(sorted(str(f) for f in self.premises))
        rhs = ", ".join(sorted(str(f) for f in self.conclusions))
        return f"{lhs} |- {rhs}".strip()


def parse_rule(text: str) -> RuleInstance:
    """Parse ``premises |- conclusions`` with comma-separated lists.

    An empty right-hand side is an explosive rule; several conclusions make
    a multiple-conclusion rule.  Example: ``p, ~p | q |- q``.
    """
    if "|-" not in text:
        raise ParseError(text, len(text), ["|-"])
    lhs, rhs = text.split("|-", 1)
    return RuleInstance.of(_rule_side(text, lhs, 0, "premise"),
                           _rule_side(text, rhs, len(lhs) + 2, "conclusion"))


def _rule_side(text: str, side: str, start: int, what: str) -> list[Formula]:
    """The formulas of one side of a rule, which starts at offset start of
    text.  A blank side is an empty list; a blank list item is an error."""
    if not side.strip():
        return []
    out = []
    for item in side.split(","):
        if not item.strip():
            raise ParseError(text, start, _FORMULA_START, f"empty {what}")
        out.append(parse(item))
        start += len(item) + 1
    return out


Substitution = Mapping[str, Formula]


def _substituted(prog: Program, s: Substitution) -> list[Formula]:
    """The homomorphic images of prog's formulas: the fold that rebuilds
    each formula, with the atoms in s replaced.  Each node is hashed as it
    is built, from its operands' kept hashes, so hashing an image later
    costs no recursion (compare _chained)."""
    return fold(prog, [s[name] if name in s else Atom(name) for name in prog.names],
                lambda a: _hashed(Neg(a)), lambda a, b: _hashed(And(a, b)),
                lambda a, b: _hashed(Or(a, b)), TOP, BOT)


def _hashed(f: Formula) -> Formula:
    hash(f)
    return f


def substitute(f: Formula, s: Substitution) -> Formula:
    """Homomorphic image of f; atoms not in s are left alone."""
    (out,) = _substituted(f.program(), s)
    return out


def _substitute_rule(r: RuleInstance, s: Substitution) -> RuleInstance:
    prog = r.program()
    images = _substituted(prog, s)
    return RuleInstance.of(images[:prog.n_premises], images[prog.n_premises:])


def fresh_renaming(names: Iterable[str], avoid: Iterable[str]) -> dict[str, str]:
    """Deterministic bijective renaming of `names` to fresh ``g<k>`` atoms.

    The grammar requires atoms to start with a lowercase letter, so the
    generator prefix is ``g`` with collisions skipped via `avoid`.
    """
    taken = set(avoid) | set(names)
    out = {}
    k = 0
    for n in sorted(names):
        while f"g{k}" in taken:
            k += 1
        out[n] = f"g{k}"
        taken.add(out[n])
        k += 1
    return out


def rename_apart(r1: RuleInstance, r2: RuleInstance) -> tuple[RuleInstance, RuleInstance]:
    """Variants of r1, r2 with disjoint atom sets.

    r1 is returned unchanged; clashing atoms of r2 are renamed to fresh
    atoms by a bijection (recoverable via :func:`fresh_renaming`, which is
    deterministic).  Already-disjoint inputs come back as given.
    """
    a1, a2 = r1.atom_names(), r2.atom_names()
    if not (a1 & a2):
        return r1, r2
    ren = fresh_renaming(a2, a1 | a2)
    sub = {old: Atom(new) for old, new in ren.items()}
    return r1, _substitute_rule(r2, sub)


def nnf(f: Formula) -> Formula:
    """Push negations to atoms using the De Morgan laws and involution: the
    fold of f's program whose value is (nnf(g), nnf(~g)).  Each node is
    hashed as it is built, as in _substituted."""
    prog = f.program()
    ((out, _),) = fold(prog, [_literals(name) for name in prog.names], operator.itemgetter(1, 0),
                       lambda a, b: (_hashed(And(a[0], b[0])), _hashed(Or(a[1], b[1]))),
                       lambda a, b: (_hashed(Or(a[0], b[0])), _hashed(And(a[1], b[1]))),
                       (TOP, BOT), (BOT, TOP))
    return out


@functools.lru_cache(maxsize=1 << 12)
def _literals(name: str) -> tuple[Formula, Formula]:
    """The atom of name and its negation, kept for the names last used."""
    a = Atom(name)
    return a, Neg(a)


# A literal is (name, positive); clauses are frozensets of literals, and a
# clause set is a set of them, or None for the absorbing constant; inside
# _clauses also a _Clause, the literals of one clause.
Literal = tuple[str, bool]
Clauses = AbstractSet[frozenset[Literal]] | None


class ClauseCapError(ValueError):
    """A capped clause build (_normal_clauses with a cap) passed its cap."""


def _clauses(f: Formula, mode: str,
             cap: int | None = None) -> frozenset[frozenset[Literal]] | None:
    """Clause sets of nnf(f); None encodes the absorbing constant.

    For CNF the result is a set of disjunctive clauses (empty set = T,
    None = F); for DNF a set of conjunctive clauses (empty set = F,
    None = T).  The fold of nnf(f)'s program, where ~ meets atoms only:
    the outer connective unites its operands' clause sets, the inner one
    distributes them.  With a cap, a distribution that would build more
    than cap clauses raises ClauseCapError (_capped_distribute).
    """
    prog = nnf(f).program()
    pos = [frozenset([frozenset([(name, True)])]) for name in prog.names]
    neg = {p: frozenset([frozenset([(name, False)])]) for p, name in zip(pos, prog.names)}
    inner = _distribute if cap is None else functools.partial(_capped_distribute, cap)
    meet, join, top, bot = ((_unite, inner, frozenset(), None) if mode == "cnf" else
                            (inner, _unite, None, frozenset()))
    (cs,) = fold(prog, pos, neg.__getitem__, meet, join, top, bot)
    return None if cs is None else _minimal(_clause_set(cs))


class _Clause(set):
    """A value of _clauses holding one clause, which no other value holds:
    the clause's literals, a set that the inner connective grows in place
    (_distribute)."""


def _clause_set(a: Clauses) -> Clauses:
    """a as a set of clauses."""
    return {frozenset(a)} if type(a) is _Clause else a


def _unite(a: Clauses, b: Clauses) -> Clauses:
    """The clauses of a and b, None if either is.  The larger set grows in
    place, unless it is a frozenset: a leaf's, shared by its occurrences."""
    if a is None or b is None:
        return None
    a, b = _clause_set(a), _clause_set(b)
    a, b = (a, b) if len(a) >= len(b) else (b, a)
    a = a if type(a) is set else set(a)
    a |= b
    return a


def _distribute(a: Clauses, b: Clauses) -> Clauses:
    """The unions of a clause of a with one of b; None, absorbing for the
    outer connective, is the unit of the inner one.  The union of two
    single clauses is a _Clause, grown in place if either operand is one,
    so a chain of the inner connective takes linear time."""
    if a is None or b is None:
        return a if b is None else b
    if type(b) is _Clause:
        a, b = b, a
    if type(a) is _Clause:
        if type(b) is _Clause or len(b) == 1:
            a |= b if type(b) is _Clause else next(iter(b))
            return a
        a = {frozenset(a)}
    elif len(a) == 1 and len(b) == 1:
        a = _Clause(next(iter(a)))
        a |= next(iter(b))
        return a
    return {cl | cr for cl in a for cr in b}


def _capped_distribute(cap: int, a: Clauses, b: Clauses) -> Clauses:
    """_distribute, raising ClauseCapError before it would build more than
    cap clauses from its operands' clauses, each set taken after
    absorption; so no step builds more than cap clauses."""
    if a is not None and b is not None and _count(a) * _count(b) > cap:
        a, b = _minimal(_clause_set(a)), _minimal(_clause_set(b))
        if len(a) * len(b) > cap:
            raise ClauseCapError(f"more than {cap} clauses")
    return _distribute(a, b)


def _count(a: Clauses) -> int:
    """The number of clauses of a, which is not None."""
    return 1 if type(a) is _Clause else len(a)


def _minimal(cs: AbstractSet[frozenset[Literal]]) -> frozenset[frozenset[Literal]]:
    """The clauses of cs with no proper subset in cs (absorption:
    x & (x | y) = x, dually for joins).  Taken smallest first, each clause
    is compared with the smaller clauses kept alone: a proper subset is
    smaller, and a dropped one contains a kept one."""
    kept: list[frozenset[Literal]] = []
    for _, same_size in itertools.groupby(sorted(cs, key=len), len):
        kept += [c for c in same_size if not any(d < c for d in kept)]
    return frozenset(kept)


def normal_form(f: Formula, mode: str = "cnf") -> Formula:
    """Canonical conjunctive or disjunctive normal form: the conjunction or
    disjunction of _normal_clauses(f, mode), so structurally equal inputs
    give structurally equal outputs.  The empty conjunction is T and the
    empty disjunction is F."""
    return (conj if mode == "cnf" else disj)(_normal_clauses(f, mode))


def _normal_clauses(f: Formula, mode: str, cap: int | None = None) -> list[Formula]:
    """The clauses of f's normal form, as formulas: duplicate-free sorted
    literal sets, listed in sorted order.  The absorbing constant (F for
    "cnf", T for "dnf") is the one clause of its own normal form.  A cap
    bounds each distribution step (_clauses)."""
    if mode not in ("cnf", "dnf"):
        raise ValueError("mode must be 'cnf' or 'dnf'")
    cs = _clauses(f, mode, cap)
    if cs is None:
        return [BOT if mode == "cnf" else TOP]
    inner = disj if mode == "cnf" else conj
    return [inner(_literals(n)[not pos] for n, pos in sorted(c)) for c in sorted(cs, key=sorted)]


def grid_leaves(n: int, k: int, planes: Sequence[int], size: int | None = None) -> list[int]:
    """The leaves of a packed sweep: the first `size` valuations of k atoms
    over n elements at once (all n^k by default), valuation v (its digits
    in base n, atom 0 the most significant) at bit v of each plane.  A
    size is a block c * n^t, 1 <= c <= n, t < k: the leading atoms at
    element 0, atom k - 1 - t over the elements below c and the t trailing
    atoms free; the whole grid is c = n, t = k - 1.  An element is a mask
    of len(planes) bits, planes[j] the set of elements (bit x for element
    x) whose mask has bit j; a value is one int holding its planes side by
    side, plane j at bits j * size to (j + 1) * size - 1."""
    s = n ** k
    size = s if size is None else size
    full = (1 << size) - 1
    leaves = []
    for _ in range(k):
        s //= n  # this atom's digit is constant on runs of s valuations
        leaf = 0
        if s == 1 and n <= size:  # a one at the start of each run of n, times the plane
            rep = full // ((1 << n) - 1)
            for j, p in enumerate(planes):
                leaf |= p * rep << j * size
        else:  # runs of s ones where the digit is 0, shifted once per element
            if n * s <= size:  # a free atom: its digit runs through all n elements
                base = full // (((1 << n * s) - 1) // ((1 << s) - 1))
            else:  # one run of each element: below c for the ranged atom, 0 for a leading one
                base = (1 << min(s, size)) - 1
            occurs = (1 << min(n, -(-size // s))) - 1
            for j, p in enumerate(planes):
                p &= occurs
                while p:
                    low = p & -p
                    leaf |= base << (low.bit_length() - 1) * s + j * size
                    p ^= low
        leaves.append(leaf)
    return leaves


# a value of the two-valued sweep holds 2^k bits: 128 KiB at 20 atoms
_CLASSICAL_ATOM_LIMIT = 20


@functools.cache
def _truth_leaves(k: int) -> tuple[int, ...]:
    """The leaves of the two-element matrix's packed sweep (one plane
    holding its top, element 1) for k atoms, built on first use and kept."""
    if k > _CLASSICAL_ATOM_LIMIT:
        raise ValueError(f"classical_status guard: at most {_CLASSICAL_ATOM_LIMIT} atoms, got {k}")
    return tuple(grid_leaves(2, k, (0b10,)))


def classical_status(f: Formula) -> str:
    """Tautology/contradiction/contingent by exhaustive two-valued evaluation:
    the packed sweep of the two-element matrix, whose negation complements
    its one plane.  ValueError above _CLASSICAL_ATOM_LIMIT atoms."""
    prog = f.program()
    k = len(prog.names)
    leaves = _truth_leaves(k)  # the guard, before full takes 2^k bits
    full = (1 << (1 << k)) - 1
    (table,) = fold(prog, leaves, full.__xor__, operator.and_, operator.or_, full, 0)
    return TAUTOLOGY if table == full else CONTRADICTION if table == 0 else CONTINGENT


def chi(n: int) -> Formula:
    """(p1 & ~p1) | ... | (pn & ~pn), the n-atom classical contradiction."""
    if n < 1:
        raise ValueError("chi requires n >= 1")
    return disj(And(Atom(f"p{i}"), Neg(Atom(f"p{i}"))) for i in range(1, n + 1))


def _chained(op: type, fs: Iterable[Formula], empty: Formula) -> Formula:
    """The left-associated chain of fs.  Every 64th node is hashed as it is
    built, so hashing the chain later recurses through at most 64 of its
    operators at a time, not through all of them; a shorter chain, often
    never hashed, costs nothing more."""
    out = None
    for i, f in enumerate(fs, 1):
        out = f if out is None else op(out, f)
        if i % 64 == 0:
            hash(out)
    return empty if out is None else out


def conj(fs: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty = T."""
    return _chained(And, fs, TOP)


def disj(fs: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; empty = F."""
    return _chained(Or, fs, BOT)
