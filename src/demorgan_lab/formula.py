"""Propositional formulas over meet, join, negation and the two constants.

The object language is the one all rules in this package are written in:
atoms, ``~``, ``&``, ``|``, ``T`` and ``F``, with precedence ``~ > & > |``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Mapping

__all__ = [
    "Formula", "Atom", "Neg", "And", "Or", "TOP", "BOT",
    "RuleInstance", "Substitution", "ParseError",
    "parse", "parse_rule", "substitute", "rename_apart", "fresh_renaming",
    "normal_form", "nnf", "classical_status", "chi", "atoms",
    "TAUTOLOGY", "CONTRADICTION", "CONTINGENT",
    "conj", "disj", "neg_literal",
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


@dataclass(frozen=True, repr=False)
class Atom(Formula):
    name: str

    def __post_init__(self):
        if not re.fullmatch(r"[a-z][a-z0-9_]*", self.name):
            raise ValueError(f"bad atom name: {self.name!r}")


@dataclass(frozen=True, repr=False)
class Neg(Formula):
    arg: Formula


@dataclass(frozen=True, repr=False)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True, repr=False)
class _Top(Formula):
    pass


@dataclass(frozen=True, repr=False)
class _Bot(Formula):
    pass


TOP = _Top()
BOT = _Bot()

#: result values of classical_status
TAUTOLOGY = "tautology"
CONTRADICTION = "contradiction"
CONTINGENT = "contingent"


def atoms(f: Formula) -> frozenset[str]:
    """Set of atom names occurring in f."""
    out: set[str] = set()
    stack = [f]
    while stack:
        g = stack.pop()
        if isinstance(g, Atom):
            out.add(g.name)
        elif isinstance(g, Neg):
            stack.append(g.arg)
        elif isinstance(g, (And, Or)):
            stack.append(g.left)
            stack.append(g.right)
    return frozenset(out)


def _print(f: Formula) -> str:
    # Parenthesize so parse(print(f)) == f: same-operator right nesting needs
    # parens because the parser associates to the left.
    def go(g: Formula, level: int) -> str:
        # level: 0 = or-context, 1 = and-context, 2 = neg-context
        if isinstance(g, Atom):
            return g.name
        if g is TOP or isinstance(g, _Top):
            return "T"
        if g is BOT or isinstance(g, _Bot):
            return "F"
        if isinstance(g, Neg):
            return "~" + go(g.arg, 2)
        if isinstance(g, And):
            s = go(g.left, 1) + " & " + _wrap(g.right, And, 1)
            return "(" + s + ")" if level >= 2 else s
        if isinstance(g, Or):
            s = go(g.left, 0) + " | " + _wrap(g.right, Or, 0)
            return "(" + s + ")" if level >= 1 else s
        raise TypeError(g)

    def _wrap(g: Formula, op: type, level: int) -> str:
        s = go(g, level + 1 if isinstance(g, op) else level)
        return s

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
        """The atoms of all premises and conclusions, computed on first call
        and kept in the instance dict; equality and hashing use only the
        fields."""
        out = self.__dict__.get("_atom_names")
        if out is None:
            out = self.__dict__["_atom_names"] = frozenset().union(
                *map(atoms, self.premises | self.conclusions))
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


def substitute(f: Formula, s: Substitution) -> Formula:
    """Homomorphic image of f; atoms not in s are left alone."""
    if isinstance(f, Atom):
        return s.get(f.name, f)
    if isinstance(f, Neg):
        return Neg(substitute(f.arg, s))
    if isinstance(f, And):
        return And(substitute(f.left, s), substitute(f.right, s))
    if isinstance(f, Or):
        return Or(substitute(f.left, s), substitute(f.right, s))
    return f


def _substitute_rule(r: RuleInstance, s: Substitution) -> RuleInstance:
    return RuleInstance(
        frozenset(substitute(f, s) for f in r.premises),
        frozenset(substitute(f, s) for f in r.conclusions),
    )


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


def _literal_key(lit: Literal) -> tuple[str, bool]:
    return lit


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
    lits = sorted(clause, key=_literal_key)
    parts = [Atom(n) if pos else Neg(Atom(n)) for n, pos in lits]
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p) if inner_or else And(out, p)
    return out


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
    clause_forms = sorted(
        (sorted(c, key=_literal_key), c) for c in cs
    )
    parts = [_clause_formula(c, inner_or=(mode == "cnf")) for _, c in clause_forms]
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p) if mode == "cnf" else Or(out, p)
    return out


def _eval2(f: Formula, v: Mapping[str, bool]) -> bool:
    if isinstance(f, Atom):
        return v[f.name]
    if isinstance(f, Neg):
        return not _eval2(f.arg, v)
    if isinstance(f, And):
        return _eval2(f.left, v) and _eval2(f.right, v)
    if isinstance(f, Or):
        return _eval2(f.left, v) or _eval2(f.right, v)
    return isinstance(f, _Top)


def classical_status(f: Formula) -> str:
    """Tautology/contradiction/contingent by exhaustive two-valued evaluation."""
    names = sorted(atoms(f))
    seen_true = seen_false = False
    for bits in range(1 << len(names)):
        v = {n: bool(bits >> i & 1) for i, n in enumerate(names)}
        if _eval2(f, v):
            seen_true = True
        else:
            seen_false = True
        if seen_true and seen_false:
            return CONTINGENT
    return TAUTOLOGY if seen_true else CONTRADICTION


def chi(n: int) -> Formula:
    """(p1 & ~p1) | ... | (pn & ~pn), the n-atom classical contradiction."""
    if n < 1:
        raise ValueError("chi requires n >= 1")
    parts = [And(Atom(f"p{i}"), Neg(Atom(f"p{i}"))) for i in range(1, n + 1)]
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def conj(fs: Iterable[Formula]) -> Formula:
    """Left-associated conjunction; empty = T."""
    fs = list(fs)
    if not fs:
        return TOP
    out = fs[0]
    for f in fs[1:]:
        out = And(out, f)
    return out


def disj(fs: Iterable[Formula]) -> Formula:
    """Left-associated disjunction; empty = F."""
    fs = list(fs)
    if not fs:
        return BOT
    out = fs[0]
    for f in fs[1:]:
        out = Or(out, f)
    return out


def neg_literal(f: Formula) -> Formula:
    """Negation that cancels a leading ~ instead of stacking one."""
    return f.arg if isinstance(f, Neg) else Neg(f)
