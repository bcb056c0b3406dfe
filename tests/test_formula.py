import itertools
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import demorgan_lab
from demorgan_lab import formula
from demorgan_lab.formula import (
    And, Atom, Neg, Or, BOT, TOP, MAX_DEPTH, ParseError, RuleInstance,
    CONTINGENT, CONTRADICTION, TAUTOLOGY,
    atoms, chi, classical_status, conj, disj, fresh_renaming, nnf, normal_form,
    parse, parse_rule, rename_apart, substitute, _OR, _clauses, _minimal,
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


@st.composite
def formula_trees(draw, max_nodes):
    """A formula with a drawn number of operation nodes (~, & and |), at
    most max_nodes, in a random shape: each node draws its kind and, if
    binary, how many of the nodes below it go to its left."""
    def build(nodes):
        if nodes == 0:
            return draw(st.sampled_from([Atom("p"), Atom("q"), Atom("r"), TOP, BOT]))
        kind = draw(st.sampled_from([Neg, And, Or]))
        if kind is Neg:
            return Neg(build(nodes - 1))
        left = draw(st.integers(0, nodes - 1))
        return kind(build(left), build(nodes - 1 - left))

    return build(draw(st.integers(0, max_nodes)))


formulas = formula_trees(70)
# a normal form multiplies its operands' clause sets at every node, so the
# normal-form tests draw smaller formulas
small_formulas = formula_trees(40)


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
    if isinstance(f, Neg):
        return struct_atoms(f.arg)
    if isinstance(f, (And, Or)):
        return struct_atoms(f.left) | struct_atoms(f.right)
    return set()


@given(formulas, formulas)
def test_substitute_and_atoms_match_structural_recursion(f, g):
    assert atoms(f) == struct_atoms(f)
    for s in ({}, {"p": g}, {"q": TOP, "r": Neg(g)}):
        assert substitute(f, s) == struct_substitute(f, s)


def struct_print(g, level=0):
    # level 0 inside |, 1 inside &, 2 under ~; a chain's connective nested
    # on its right keeps its parentheses, as the parser associates left
    if isinstance(g, Atom):
        return g.name
    if isinstance(g, Neg):
        return "~" + struct_print(g.arg, 2)
    if isinstance(g, And):
        right = struct_print(g.right, 2 if isinstance(g.right, And) else 1)
        s = struct_print(g.left, 1) + " & " + right
        return "(" + s + ")" if level >= 2 else s
    if isinstance(g, Or):
        right = struct_print(g.right, 1 if isinstance(g.right, Or) else 0)
        s = struct_print(g.left, 0) + " | " + right
        return "(" + s + ")" if level >= 1 else s
    return "T" if g is TOP else "F"


def struct_nnf(g, negated=False):
    if isinstance(g, Atom):
        return Neg(g) if negated else g
    if isinstance(g, Neg):
        return struct_nnf(g.arg, not negated)
    if isinstance(g, (And, Or)):
        op = type(g) if not negated else (Or if isinstance(g, And) else And)
        return op(struct_nnf(g.left, negated), struct_nnf(g.right, negated))
    return (BOT if g is TOP else TOP) if negated else g


def struct_clauses(f, mode):
    # the clause sets of struct_nnf(f) node by node: the outer connective
    # unites, the inner one distributes (None, absorbing for the outer, is
    # the inner one's unit); then the clauses without a proper subset
    outer = And if mode == "cnf" else Or

    def go(g):
        if isinstance(g, Atom):
            return {frozenset([(g.name, True)])}
        if isinstance(g, Neg):
            return {frozenset([(g.arg.name, False)])}
        if isinstance(g, (And, Or)):
            a, b = go(g.left), go(g.right)
            if isinstance(g, outer):
                return None if a is None or b is None else a | b
            return a if b is None else b if a is None else {x | y for x in a for y in b}
        return set() if (g is TOP) == (mode == "cnf") else None

    cs = go(struct_nnf(f))
    return None if cs is None else frozenset(c for c in cs if not any(d < c for d in cs))


@given(formulas)
def test_print_and_nnf_match_structural_recursion(f):
    assert str(f) == struct_print(f) and repr(f) == f"parse({struct_print(f)!r})"
    g = nnf(f)
    assert g == struct_nnf(f) and hash(g) == hash(struct_nnf(f))


@given(small_formulas)
def test_clauses_match_structural_recursion(f):
    for mode in ("cnf", "dnf"):
        assert _clauses(f, mode) == struct_clauses(f, mode)


def test_pickles_leave_the_derived_data_behind():
    import pickle

    f = parse("~(r & q) | p & ~r")
    kept = (str(f), f.program(), hash(f))
    assert {"___str__", "_program", "_hash"} <= set(f.__dict__)
    state = f.__getstate__()
    assert state == {"left": f.left, "right": f.right}
    g = pickle.loads(pickle.dumps(f))
    assert not [k for k in g.__dict__ if k.startswith("_")]
    assert g == f and (str(g), g.program(), hash(g)) == kept


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


@given(small_formulas)
def test_normal_forms_preserve_dm4_term_function(f):
    for mode in ("cnf", "dnf"):
        assert dm4_equivalent(f, normal_form(f, mode))


@given(small_formulas)
def test_normal_form_idempotent(f):
    for mode in ("cnf", "dnf"):
        g = normal_form(f, mode)
        assert normal_form(g, mode) == g


@given(small_formulas)
def test_minimal_clauses_match_the_all_pairs_scan(f):
    # the clause sets before subsumption (_clauses with _minimal switched
    # off), reduced by the all-pairs scan as the oracle
    for mode in ("cnf", "dnf"):
        with mock.patch.object(formula, "_minimal", lambda cs: cs):
            raw = _clauses(f, mode)
        if raw is not None:
            want = frozenset(c for c in raw if not any(d < c for d in raw))
            assert _minimal(raw) == want and _clauses(f, mode) == want


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


def test_classical_status_guards_its_atom_count():
    # past the precomputed leaves the sweep builds its own, up to the
    # guard; beyond it a value would hold 2^k bits, and 200 atoms overflow
    assert classical_status(chi(12)) == CONTRADICTION
    assert classical_status(conj(Atom(f"p{i}") for i in range(12))) == CONTINGENT
    for n in (21, 200):
        with pytest.raises(ValueError, match=f"classical_status guard: at most 20 atoms, got {n}"):
            classical_status(chi(n))


def test_grid_leaves_of_first_blocks():
    # every block c * n^t of small grids, the whole grid included: bit v of
    # plane j of atom i's leaf is bit j of the mask of valuation v's digit i
    for n, k in itertools.product(range(1, 5), range(4)):
        masks = [(5 * x + 3) % 8 for x in range(n)]
        planes = [sum(1 << x for x in range(n) if masks[x] >> j & 1) for j in range(3)]
        sizes = [c * n ** t for t in range(k) for c in range(1, n + 1)]
        for size in sizes or [1]:
            leaves = formula.grid_leaves(n, k, planes, size)
            for v, digits in zip(range(size), itertools.product(range(n), repeat=k)):
                for leaf, d in zip(leaves, digits):
                    assert [leaf >> (j * size + v) & 1 for j in range(3)] == \
                        [masks[d] >> j & 1 for j in range(3)], (n, k, size, v)
            assert all(leaf >> 3 * size == 0 for leaf in leaves)
        assert formula.grid_leaves(n, k, planes) == formula.grid_leaves(n, k, planes, n ** k)


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


def nested(shape, depth):
    """A formula of the given depth: stacked ~, or nested ()."""
    return {"neg": "~" * depth + "p", "paren": "(" * depth + "p" + ")" * depth}[shape]


@pytest.mark.parametrize("shape, offset", [("neg", MAX_DEPTH), ("paren", MAX_DEPTH)])
def test_parse_bounds_the_nesting(shape, offset):
    # hashing and compiling recurse once per level (printing folds the
    # program): the parser refuses what they could not take
    f = parse(nested(shape, MAX_DEPTH))
    assert parse(str(f)) == f and f.program() and isinstance(hash(f), int)
    with pytest.raises(ParseError) as e:
        parse(nested(shape, MAX_DEPTH + 1))
    assert e.value.pos == offset and e.value.expected == []
    assert f"nested deeper than {MAX_DEPTH}" in str(e.value)
    # inside ~( ... ), each passes the bound at its own 255th level (the
    # 257th ~ or ( open)
    with pytest.raises(ParseError) as e:
        parse("~(" + nested(shape, MAX_DEPTH) + ")")
    assert e.value.pos == MAX_DEPTH


def test_parse_counts_a_chain_as_one_level():
    # a chain of | or & is one level however long, as hashing and compiling
    # walk it by a loop; an operand's own levels still count
    lits = [Atom(f"p{i}") for i in range(3000)]
    for chained in (disj, conj):
        f = parse(str(chained(lits)))
        assert f == chained(lits) and parse(str(f)) == f
        assert hash(f) == hash(chained(lits)) and len(f.program().nodes) == 2 * 3000 - 1
    text = "~" * MAX_DEPTH + "p | p"
    with pytest.raises(ParseError) as e:
        parse(text)
    assert e.value.pos == text.index("|") and e.value.expected == []
    assert f"nested deeper than {MAX_DEPTH}" in str(e.value)
    # chains nested in one another, none hashed by conj or disj (63
    # operands each), hash and compare within the recursion limit
    text = "p"
    for _ in range(MAX_DEPTH - 1):
        text = "(" + text + ")|" + "|".join(["q"] * 62)
    f = parse(text)
    assert hash(f) == hash(parse(str(f))) and f == parse(str(f))


def test_long_chains_print_and_compile_without_recursion():
    # printing and compiling walk a chain's left side by a loop: chains of
    # 3000 operands, nested inside one another, pass the recursion limit
    lits = [Atom(f"p{i}") for i in range(3000)]
    for chained, op in ((conj, " & "), (disj, " | ")):
        f = chained(lits)
        assert str(f) == op.join(f"p{i}" for i in range(3000))
        assert len(f.program().nodes) == 2 * 3000 - 1
    f = disj([conj(lits[:3]), conj([Neg(a) for a in lits]), Or(lits[0], Or(lits[1], lits[2]))])
    text = str(f)
    assert text.startswith("p0 & p1 & p2 | ~p0 & ~p1") and text.endswith(" | (p1 | p2))")
    prog = f.program()
    leaves = tuple(map(prog.names.index, ("p0", "p1", "p2")))
    assert prog.nodes[-6:] == leaves + (_OR, _OR, _OR)
    # right nesting keeps its parentheses, as before
    assert str(And(lits[0], And(lits[1], lits[2]))) == "p0 & (p1 & p2)"


def test_long_chains_hash_and_compare_without_recursion():
    # a substitution hashes the nodes it builds, and &/| equality walks a
    # chain's left side by a loop, as printing does
    lits = [Atom(f"p{i}") for i in range(3000)]
    f = substitute(disj(lits), {"p1": TOP})
    assert hash(f) == hash(substitute(disj(lits), {"p1": TOP}))
    assert disj(lits) == disj(list(lits)) and conj(lits) == conj(list(lits))
    assert disj(lits) != disj(lits[:-1] + [Atom("q")]) and disj(lits) != conj(lits)
    assert disj(lits) != f and disj(lits[1:]) != disj(lits)
    # a two-operand node keeps its field hash and equality
    p, q = lits[:2]
    assert hash(Or(p, q)) == hash((p, q)) and Or(Or(p, q), q) != Or(Or(p, q), p)


def test_nnf_and_normal_forms_of_long_chains():
    # nnf and the clause sets walk a chain's left side by a loop; nnf
    # rebuilds it with disj/conj, so its result hashes without recursion
    lits = [Atom(f"p{i}") for i in range(3000)]
    chain = disj(lits)
    assert nnf(chain) == chain and hash(nnf(chain)) == hash(chain)
    negated = nnf(Neg(chain))
    assert negated == conj([Neg(a) for a in lits]) and isinstance(hash(negated), int)
    ordered = disj(sorted(lits, key=lambda a: a.name))
    assert normal_form(chain, "cnf") == ordered and normal_form(chain, "dnf") == ordered


def test_an_inner_chain_grows_one_clause_in_place(monkeypatch):
    # the one clause of disj(p0..pn-1) as "cnf" (conj as "dnf") is made
    # once and grown by each operand, so the build is linear in n
    made = []

    class Counted(formula._Clause):
        def __init__(self, *args):
            made.append(1)
            super().__init__(*args)

    monkeypatch.setattr(formula, "_Clause", Counted)
    lits = [Atom(f"p{i}") for i in range(3000)]
    ordered = sorted(lits, key=lambda a: a.name)
    for chain, mode in ((disj, "cnf"), (conj, "dnf")):
        made.clear()
        assert normal_form(chain(lits), mode) == chain(ordered)
        assert len(made) == 1, mode


def test_rule_programs_do_not_depend_on_str_hashes():
    # a frozenset lists formulas in an order set by str hashes; program()
    # and sweep_program() order each side by its formulas' programs, so two
    # hash seeds give one digest
    code = ("import hashlib\n"
            "from demorgan_lab import logics\n"
            "h = hashlib.sha256()\n"
            "for r in logics.clause_pool()[:600] + logics.mc_pool():\n"
            "    h.update(repr((r.program(), r.sweep_program())).encode())\n"
            "print(h.hexdigest())\n")
    src = os.path.dirname(os.path.dirname(demorgan_lab.__file__))
    digests = {subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed),
                              capture_output=True, text=True, check=True,
                              timeout=120).stdout
               for seed in ("0", "1")}
    assert len(digests) == 1
