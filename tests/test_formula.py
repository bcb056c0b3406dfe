import dataclasses
import itertools

import pytest
from hypothesis import given, strategies as st

from demorgan_lab.formula import (
    And, Atom, Neg, Or, BOT, TOP, ParseError, RuleInstance,
    CONTINGENT, CONTRADICTION, TAUTOLOGY,
    atoms, chi, classical_status, fresh_renaming, nnf, normal_form,
    parse, parse_rule, rename_apart, substitute,
)

# Independent DM4 oracle: the four-element De Morgan algebra as plain dicts,
# used to check that normal forms denote the same term function.
_BOT, _N, _B, _TOP = range(4)
_MEET = [[0, 0, 0, 0], [0, 1, 0, 1], [0, 0, 2, 2], [0, 1, 2, 3]]
_JOIN = [[0, 1, 2, 3], [1, 1, 3, 3], [2, 3, 2, 3], [3, 3, 3, 3]]
_NEG = [3, 1, 2, 0]


def dm4_eval(f, v):
    if isinstance(f, Atom):
        return v[f.name]
    if isinstance(f, Neg):
        return _NEG[dm4_eval(f.arg, v)]
    if isinstance(f, And):
        return _MEET[dm4_eval(f.left, v)][dm4_eval(f.right, v)]
    if isinstance(f, Or):
        return _JOIN[dm4_eval(f.left, v)][dm4_eval(f.right, v)]
    return _TOP if f is TOP else _BOT


def dm4_equivalent(f, g):
    names = sorted(atoms(f) | atoms(g))
    for vals in itertools.product(range(4), repeat=len(names)):
        v = dict(zip(names, vals))
        if dm4_eval(f, v) != dm4_eval(g, v):
            return False
    return True


def test_parse_precedence():
    assert parse("p & ~p | q") == Or(And(Atom("p"), Neg(Atom("p"))), Atom("q"))
    assert parse("~(p|q)") == Neg(Or(Atom("p"), Atom("q")))
    assert parse("T") is TOP
    assert parse("F") is BOT


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as e:
        parse("p & ")
    assert e.value.pos == 4
    with pytest.raises(ParseError) as e:
        parse("p | (q")
    assert ")" in e.value.expected
    with pytest.raises(ParseError):
        parse("P")  # uppercase atoms are not in the grammar


formulas = st.deferred(
    lambda: st.one_of(
        st.sampled_from([Atom("p"), Atom("q"), Atom("r"), TOP, BOT]),
        st.builds(Neg, formulas),
        st.builds(And, formulas, formulas),
        st.builds(Or, formulas, formulas),
    )
)


@given(formulas)
def test_print_parse_roundtrip(f):
    assert parse(str(f)) == f


@given(formulas)
def test_nnf_is_dm4_equivalent_and_negation_free_inside(f):
    g = nnf(f)
    assert dm4_equivalent(f, g)

    def negs_on_atoms_only(h):
        if isinstance(h, Neg):
            return isinstance(h.arg, Atom)
        if isinstance(h, (And, Or)):
            return negs_on_atoms_only(h.left) and negs_on_atoms_only(h.right)
        return True

    assert negs_on_atoms_only(g)


@given(formulas)
def test_evaluate_is_the_dm4_term_function(f):
    from demorgan_lab.matrix import dm4_algebra, evaluate

    m = dm4_algebra()  # elements bot, n, b, top, as in the oracle
    for vals in itertools.product(range(4), repeat=3):
        v = dict(zip("pqr", vals))
        assert evaluate(m, v, f) == dm4_eval(f, v)


def test_evaluate_compiles_a_formula_once(monkeypatch):
    from demorgan_lab import formula
    from demorgan_lab.matrix import dm4_algebra, evaluate

    compiled = []
    real = formula.compile_program
    monkeypatch.setattr(formula, "compile_program",
                        lambda *fs: compiled.append(fs) or real(*fs))
    m = dm4_algebra()
    f, twin = parse("~(r & q) | p & ~r"), parse("~(r & q) | p & ~r")
    # the first missing atom in sorted order is named, before and after the
    # program is kept
    for _ in range(2):
        with pytest.raises(KeyError, match="missing atom 'q'"):
            evaluate(m, {"p": 0}, f)
    for vals in itertools.product(range(4), repeat=3):
        v = dict(zip("pqr", vals))
        assert evaluate(m, v, f) == dm4_eval(f, v)
    assert len(compiled) == 1
    # the kept program is no field: equality and hashing ignore it
    assert f == twin and hash(f) == hash(twin) and str(f) == str(twin)


def test_formula_hash_is_kept_and_equality_stays_structural():
    import pickle

    text = "~(r & q) | p & ~r"
    f, twin = parse(text), parse(text)
    assert f is not twin and f == twin and hash(f) == hash(twin)
    assert len({f, twin, parse("p & ~r | ~(r & q)"), Or(Neg(And(Atom("r"), Atom("q"))),
                                                       And(Atom("p"), Neg(Atom("r"))))}) == 2
    rules = {parse_rule(f"{text}, q |- p"), parse_rule(f"q, {text} |- p"), parse_rule("q |- p")}
    assert len(rules) == 2
    # the hash is computed once and kept in the instance dict, like the
    # program; what is kept is what hash returns
    assert f.__dict__["_hash"] == hash(f)
    f.__dict__["_hash"] = 12345
    assert hash(f) == 12345 and f == twin
    # a pickle carries the fields only: a str hash differs between processes
    g = pickle.loads(pickle.dumps(twin))
    assert "_hash" not in g.__dict__ and g == twin and hash(g) == hash(twin)


@given(formulas)
def test_classical_status_is_the_two_valued_brute_force(f):
    # DM4 restricted to {bot, top} is the two-element Boolean algebra
    values = {dm4_eval(f, dict(zip("pqr", vals)))
              for vals in itertools.product((_BOT, _TOP), repeat=3)}
    want = {frozenset([_TOP]): TAUTOLOGY, frozenset([_BOT]): CONTRADICTION}.get(
        frozenset(values), CONTINGENT)
    assert classical_status(f) == want


def struct_substitute(f, s):
    if isinstance(f, Atom):
        return s.get(f.name, f)
    if isinstance(f, Neg):
        return Neg(struct_substitute(f.arg, s))
    if isinstance(f, (And, Or)):
        return type(f)(struct_substitute(f.left, s), struct_substitute(f.right, s))
    return f


def struct_atoms(f):
    if isinstance(f, Atom):
        return {f.name}
    return set().union(*(struct_atoms(getattr(f, x.name)) for x in dataclasses.fields(f)))


@given(formulas, formulas)
def test_substitute_and_atoms_match_structural_recursion(f, g):
    assert atoms(f) == struct_atoms(f)
    for s in ({}, {"p": g}, {"q": TOP, "r": Neg(g)}):
        assert substitute(f, s) == struct_substitute(f, s)


def test_substitute():
    assert substitute(parse("p|q"), {"p": TOP}) == parse("T|q")
    assert substitute(parse("~p"), {"p": parse("q&r")}) == parse("~(q&r)")
    f = parse("p & (q | ~p)")
    assert substitute(f, {}) == f


def test_rename_apart():
    r1 = parse_rule("p |- q")
    r2 = parse_rule("p |- r")
    s1, s2 = rename_apart(r1, r2)
    assert not (s1.atom_names() & s2.atom_names())
    assert s1 == r1
    # the renaming is a recoverable bijection
    ren = fresh_renaming(r2.atom_names(), r1.atom_names() | r2.atom_names())
    assert len(set(ren.values())) == len(ren)
    inv = {v: k for k, v in ren.items()}
    back = {n: Atom(inv[n]) for n in s2.atom_names()}
    restored = RuleInstance(
        frozenset(substitute(f, back) for f in s2.premises),
        frozenset(substitute(f, back) for f in s2.conclusions),
    )
    assert restored == r2


def test_rename_apart_disjoint_unchanged():
    r1 = parse_rule("p |- q")
    r2 = parse_rule("a |- b")
    assert rename_apart(r1, r2) == (r1, r2)


def test_normal_form_distributes():
    assert normal_form(parse("p | q & r"), "cnf") == parse("(p|q) & (p|r)")


def test_nnf_de_morgan_step():
    assert nnf(parse("~(p|q)")) == parse("~p & ~q")


def test_dnf_of_neg_chi1():
    # frozen from the DM4 oracle: check all 16 two-atom valuations agree
    f = parse("~(p & ~p)")
    g = normal_form(f, "dnf")
    assert g == parse("~p | p")
    assert dm4_equivalent(f, g)


@given(formulas)
def test_normal_forms_preserve_dm4_term_function(f):
    for mode in ("cnf", "dnf"):
        assert dm4_equivalent(f, normal_form(f, mode))


@given(formulas)
def test_normal_form_idempotent(f):
    for mode in ("cnf", "dnf"):
        g = normal_form(f, mode)
        assert normal_form(g, mode) == g


def test_normal_form_shapes():
    def is_literal(h):
        return isinstance(h, Atom) or (isinstance(h, Neg) and isinstance(h.arg, Atom))

    def is_clause(h, inner):
        if is_literal(h):
            return True
        return isinstance(h, inner) and is_clause(h.left, inner) and is_clause(h.right, inner)

    def is_nf(h, outer, inner):
        if h in (TOP, BOT) or is_clause(h, inner):
            return True
        return isinstance(h, outer) and is_nf(h.left, outer, inner) and is_clause(h.right, inner)

    for text in ["p", "~(p|q) & (r | ~r)", "p & ~p", "T & p", "F | ~q", "~(p & (q | ~r))"]:
        f = parse(text)
        assert is_nf(normal_form(f, "cnf"), And, Or)
        assert is_nf(normal_form(f, "dnf"), Or, And)


def test_classical_status():
    assert classical_status(parse("p | ~p")) == TAUTOLOGY
    assert classical_status(chi(2)) == CONTRADICTION
    assert classical_status(parse("p | q")) == CONTINGENT
    assert classical_status(TOP) == TAUTOLOGY
    assert classical_status(BOT) == CONTRADICTION


def test_chi():
    assert chi(1) == parse("p1 & ~p1")
    assert chi(2) == parse("p1 & ~p1 | p2 & ~p2")
    assert classical_status(chi(3)) == CONTRADICTION
    with pytest.raises(ValueError):
        chi(0)


def test_contradiction_iff_bd_entails_substituted_chi():
    # Cross-check at desk scale: f is a classical contradiction iff
    # f |-(BD4) sigma(chi_n) for a substitution built from f's DNF clauses;
    # non-contradictions admit no atom-to-atom substitution at all.
    from demorgan_lab.matrix import bd4, validates

    m = bd4()

    def bd_entails(f, g):
        return validates(m, RuleInstance.single([f], g))

    pool = [
        "p & ~p", "(p & ~p) | (q & ~q)", "p & ~p & q", "(p | q) & ~p & ~q",
        "p", "p | ~p", "p & q", "(p & ~p) | q", "~(p & ~p)",
    ]
    for text in pool:
        f = parse(text)
        names = sorted(atoms(f))
        is_contra = classical_status(f) == CONTRADICTION
        found = False
        for n in range(1, len(names) + 1):
            for combo in itertools.product(names, repeat=n):
                sub = {f"p{i + 1}": Atom(a) for i, a in enumerate(combo)}
                if bd_entails(f, substitute(chi(n), sub)):
                    found = True
                    break
            if found:
                break
        if is_contra:
            assert found, f"no chi-substitution found for contradiction {text}"
        else:
            assert not found, f"spurious chi-substitution for {text}"


def test_rule_parsing():
    r = parse_rule("p, ~p | q |- q")
    assert r.premises == frozenset([parse("p"), parse("~p|q")])
    assert r.conclusions == frozenset([parse("q")])
    assert parse_rule("p, ~p |- ").conclusions == frozenset()
    assert parse_rule("|- p | ~p").premises == frozenset()
    mc = parse_rule("p|q |- p, q")
    assert len(mc.conclusions) == 2
    assert mc.atom_names() == frozenset(["p", "q"])
