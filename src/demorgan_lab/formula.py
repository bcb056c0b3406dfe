"""Propositional formulas over meet, join, negation and the two constants.

The object language is the one all rules in this package are written in:
atoms, ``~``, ``&``, ``|``, ``T`` and ``F``, with precedence ``~ > & > |``.
"""

from __future__ import annotations

import functools
import itertools
import operator
import re
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, NamedTuple, Sequence

__all__ = [
    "Formula", "Atom", "Neg", "And", "Or", "TOP", "BOT",
    "RuleInstance", "Substitution", "ParseError",
    "parse", "parse_rule", "substitute", "rename_apart", "fresh_renaming",
    "normal_form", "nnf", "classical_status", "chi", "atoms",
    "TAUTOLOGY", "CONTRADICTION", "CONTINGENT",
    "conj", "disj", "Program", "compile_program", "fold",
]


@dataclass(frozen=True)
class Formula:
    def __and__(self, other: "Formula") -> "Formula":
        return And(self, other)

    def __or__(self, other: "Formula") -> "Formula":
        return Or(self, other)

    def __invert__(self) -> "Formula":
        return Neg(self)

    def __str__(self) -> str:
        return _print(self)

    def __repr__(self) -> str:
        return f"parse({_print(self)!r})"

    def program(self) -> Program:
        """The formula compiled, on first call, and kept in the instance
        dict; equality and hashing use only the fields."""
        out = self.__dict__.get("_program")
        if out is None:
            out = self.__dict__["_program"] = compile_program([self])
        return out

    def __getstate__(self) -> dict:
        # the kept program and hash stay behind: a str hash differs between
        # processes
        return {k: v for k, v in self.__dict__.items() if not k.startswith("_")}


def _node(cls: type) -> type:
    """A formula class: a frozen dataclass whose field hash, a walk of the
    whole tree, is computed on first call and kept in the instance dict
    like the program.  Equality stays field by field."""
    cls = dataclass(frozen=True, repr=False)(cls)
    field_hash = cls.__hash__

    def __hash__(self) -> int:
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = field_hash(self)
        return h

    cls.__hash__ = __hash__
    return cls


# the operation nodes of a compiled program; an atom's node is its leaf index
_NEG, _AND, _OR, _TOP, _BOT = range(-1, -6, -1)


@_node
class Atom(Formula):
    name: str

    def __post_init__(self):
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
        self.left._emit(nodes)
        self.right._emit(nodes)
        nodes.append(_AND)


@_node
class Or(Formula):
    left: Formula
    right: Formula

    def _emit(self, nodes: list) -> None:
        self.left._emit(nodes)
        self.right._emit(nodes)
        nodes.append(_OR)


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
    return frozenset(compile_program([f]).names)


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
    """f with each &/| chain flattened and re-nested to the left with its
    operands ordered by their least leaf index, latest first (atomless
    operands count as after every atom), and f's least leaf index.  Both
    operations are associative and commutative, so the value is the same
    in every algebra a rule is swept in; each part of a chain over the
    atoms from some leaf on becomes one subtree (see split_program)."""
    if isinstance(f, Atom):
        return f, leaf[f.name]
    if isinstance(f, Neg):
        arg, lo = _regrouped(f.arg, leaf)
        return Neg(arg), lo
    if not isinstance(f, (And, Or)):
        return f, len(leaf)
    chain, operands, todo = type(f), [], [f]
    while todo:
        g = todo.pop()
        if type(g) is chain:
            todo += (g.right, g.left)
        else:
            operands.append(_regrouped(g, leaf))
    operands.sort(key=operator.itemgetter(1), reverse=True)
    return functools.reduce(chain, (g for g, _ in operands)), operands[-1][1]


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
    # Parenthesize so parse(print(f)) == f: same-operator right nesting needs
    # parens because the parser associates to the left.
    def go(g: Formula, level: int) -> str:
        # level: 0 = or-context, 1 = and-context, 2 = neg-context
        if isinstance(g, Atom):
            return g.name
        if isinstance(g, _Top):
            return "T"
        if isinstance(g, _Bot):
            return "F"
        if isinstance(g, Neg):
            return "~" + go(g.arg, 2)
        if isinstance(g, And):
            s = go(g.left, 1) + " & " + go(g.right, 2 if isinstance(g.right, And) else 1)
            return "(" + s + ")" if level >= 2 else s
        if isinstance(g, Or):
            s = go(g.left, 0) + " | " + go(g.right, 1 if isinstance(g.right, Or) else 0)
            return "(" + s + ")" if level >= 1 else s
        raise TypeError(g)

    return go(f, 0)


class ParseError(ValueError):
    """Syntax error; carries the byte offset and the expected-token set."""

    def __init__(self, text: str, pos: int, expected: Iterable[str], problem: str = ""):
        self.pos = pos
        self.expected = sorted(set(expected))
        got = text[pos:pos + 10] or "end of input"
        super().__init__(
            f"syntax error at offset {pos} (near {got!r}): "
            + (f"{problem}; " if problem else "")
            + f"expected one of {', '.join(self.expected)}"
        )


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
    def __init__(self, text: str):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

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

    def form(self) -> Formula:
        f = self.conj()
        while self.eat("|"):
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.neg()
        while self.eat("&"):
            f = And(f, self.neg())
        return f

    def neg(self) -> Formula:
        if self.eat("~"):
            return Neg(self.neg())
        t = self.peek()
        if t is None:
            raise ParseError(self.text, self.pos(), _FORMULA_START)
        kind, value, _ = t
        if kind == "atom":
            self.i += 1
            return Atom(value)
        if kind == "const":
            self.i += 1
            return TOP if value == "T" else BOT
        if self.eat("("):
            f = self.form()
            if not self.eat(")"):
                raise ParseError(self.text, self.pos(), [")", "|", "&"])
            return f
        raise ParseError(self.text, self.pos(), _FORMULA_START)


def parse(text: str) -> Formula:
    """Parse a formula; grammar: disjunction of conjunctions of negations."""
    p = _Parser(text)
    f = p.form()
    if p.peek() is not None:
        raise ParseError(text, p.pos(), ["|", "&", "end of input"])
    return f


@dataclass(frozen=True)
class RuleInstance:
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

    def program(self) -> Program:
        """The premises and conclusions compiled, on first call, and kept in
        the instance dict; equality and hashing use only the fields."""
        out = self.__dict__.get("_program")
        if out is None:
            out = self.__dict__["_program"] = compile_program(tuple(self.premises),
                                                              tuple(self.conclusions))
        return out

    def sweep_program(self) -> Program:
        """The rule's formulas re-nested by _regrouped and compiled, in
        program()'s order over the same leaves; built on first call and kept
        like program().  Only the valuation sweep folds it, so printing,
        substitution and atoms see the rule as written."""
        out = self.__dict__.get("_sweep")
        if out is None:
            leaf = {name: i for i, name in enumerate(self.program().names)}
            out = self.__dict__["_sweep"] = compile_program(
                *([_regrouped(f, leaf)[0] for f in side]
                  for side in (self.premises, self.conclusions)))
        return out

    def sweep_split(self, first: int) -> tuple[Program, Program]:
        """split_program(self.sweep_program(), first), kept per `first`."""
        splits = self.__dict__.setdefault("_splits", {})
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
    each formula, with the atoms in s replaced."""
    return fold(prog, [s[name] if name in s else Atom(name) for name in prog.names],
                Neg, And, Or, TOP, BOT)


def substitute(f: Formula, s: Substitution) -> Formula:
    """Homomorphic image of f; atoms not in s are left alone."""
    (out,) = _substituted(compile_program([f]), s)
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
    """Push negations to atoms using the De Morgan laws and involution."""
    def go(g: Formula, negated: bool) -> Formula:
        if isinstance(g, Atom):
            return Neg(g) if negated else g
        if isinstance(g, _Top):
            return BOT if negated else TOP
        if isinstance(g, _Bot):
            return TOP if negated else BOT
        if isinstance(g, Neg):
            return go(g.arg, not negated)
        if isinstance(g, And):
            l, r = go(g.left, negated), go(g.right, negated)
            return Or(l, r) if negated else And(l, r)
        if isinstance(g, Or):
            l, r = go(g.left, negated), go(g.right, negated)
            return And(l, r) if negated else Or(l, r)
        raise TypeError(g)

    return go(f, False)


# A literal is (name, positive); clauses are frozensets of literals.
Literal = tuple[str, bool]


def _clauses(f: Formula, mode: str) -> frozenset[frozenset[Literal]] | None:
    """Clause sets of nnf(f); None encodes the absorbing constant.

    For CNF the result is a set of disjunctive clauses (empty set = T,
    None = F); for DNF a set of conjunctive clauses (empty set = F,
    None = T).
    """
    outer_and = mode == "cnf"

    def go(g: Formula) -> frozenset[frozenset[Literal]] | None:
        if isinstance(g, Atom):
            return frozenset([frozenset([(g.name, True)])])
        if isinstance(g, Neg):  # nnf: argument is an atom
            return frozenset([frozenset([(g.arg.name, False)])])
        if isinstance(g, _Top):
            return frozenset() if outer_and else None
        if isinstance(g, _Bot):
            return None if outer_and else frozenset()
        outer = And if outer_and else Or
        if isinstance(g, outer):
            l, r = go(g.left), go(g.right)
            if l is None or r is None:
                return None
            return l | r
        # inner connective: distribute
        l, r = go(g.left), go(g.right)
        if l is None:
            return r
        if r is None:
            return l
        return frozenset(cl | cr for cl in l for cr in r)

    cs = go(nnf(f))
    if cs is None:
        return None
    # drop subsumed clauses (absorption: x & (x | y) = x, dually for joins)
    minimal = frozenset(c for c in cs if not any(d < c for d in cs))
    return minimal


def _clause_formula(clause: frozenset[Literal], inner_or: bool) -> Formula:
    return (disj if inner_or else conj)(
        Atom(n) if pos else Neg(Atom(n)) for n, pos in sorted(clause))


def normal_form(f: Formula, mode: str = "cnf") -> Formula:
    """Canonical conjunctive or disjunctive normal form.

    Clauses are duplicate-free sorted literal sets, listed in sorted order,
    so structurally equal inputs give structurally equal outputs.  The empty
    conjunction is T and the empty disjunction is F.
    """
    if mode not in ("cnf", "dnf"):
        raise ValueError("mode must be 'cnf' or 'dnf'")
    cs = _clauses(f, mode)
    if cs is None:
        return BOT if mode == "cnf" else TOP
    if not cs:
        return TOP if mode == "cnf" else BOT
    return (conj if mode == "cnf" else disj)(
        _clause_formula(c, inner_or=(mode == "cnf")) for c in sorted(cs, key=sorted))


def classical_status(f: Formula) -> str:
    """Tautology/contradiction/contingent by exhaustive two-valued evaluation."""
    prog = compile_program([f])
    # one fold over whole truth tables: bit v of a value is its truth under
    # valuation v, whose bit i is the truth of atom i, so the table of atom i
    # is runs of 2^i zeros and 2^i ones
    size = 1 << len(prog.names)
    full = (1 << size) - 1
    leaves = [full // ((1 << (1 << i)) + 1) << (1 << i) for i in range(len(prog.names))]
    (table,) = fold(prog, leaves, full.__xor__, operator.and_, operator.or_, full, 0)
    return TAUTOLOGY if table == full else CONTRADICTION if table == 0 else CONTINGENT


def chi(n: int) -> Formula:
    """(p1 & ~p1) | ... | (pn & ~pn), the n-atom classical contradiction."""
    if n < 1:
        raise ValueError("chi requires n >= 1")
    return disj(And(Atom(f"p{i}"), Neg(Atom(f"p{i}"))) for i in range(1, n + 1))


def conj(fs: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty = T."""
    fs = list(fs)
    return functools.reduce(And, fs) if fs else TOP


def disj(fs: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; empty = F."""
    fs = list(fs)
    return functools.reduce(Or, fs) if fs else BOT
