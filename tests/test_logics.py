import itertools

import pytest

from demorgan_lab.formula import (
    Atom, ClauseCapError, Neg, Or, RuleInstance, _normal_clauses, chi, conj, disj, parse,
    parse_rule,
)
from demorgan_lab.logics import (
    LOG_LEQ_NOT_FOUND, LOG_LEQ_YES,
    chi_explosive, clause_pool, ds_rule, ecq_rule, em_rule, etlplus_rule,
    exp_validates, is_antitheorem_of, kminus_witness, ko_rule, log_leq,
    lp_cap_etl_rule, mc_pool, named_rules, probe_lattice, probe_pool,
    product_pool, registry, registry_names, resolution_rule,
    separation_search,
)
from demorgan_lab.frame import (
    disjoint_union as frame_union, dual_frame, frame_isomorphic, immediate_quotients,
    leibniz_subframe,
)
from demorgan_lab.matrix import (
    bd4, catalog, cl2, etl4, k3, kminus8, leibniz_reduct, lp3, product, validates,
)
from demorgan_lab.bridge import mu_plus
from demorgan_lab.graph import all_graphs


def test_registry_contents():
    assert registry("ECQ").semantics[0].n == 16  # ETL4 x BD4
    assert {m.n for m in registry("KOvECQ").semantics} == {6, 3}
    assert registry("Kminus").semantics[0].n == 8
    assert registry("kminus").name == "KMINUS"  # case-insensitive
    assert registry("ECQ_omega").name == "ECQW"
    with pytest.raises(KeyError):
        registry("nope")


def test_registry_axioms_sound():
    for name in registry_names():
        l = registry(name)
        for ax in l.axioms:
            for m in l.semantics:
                assert validates(m, ax), (name, str(ax))


def test_antitheorem_examples():
    assert is_antitheorem_of(registry("ETL"), [parse("p"), parse("~p")])
    assert not is_antitheorem_of(registry("LP"), [parse("p"), parse("~p")])
    assert is_antitheorem_of(registry("CL"), [chi(3)])


def test_exp_validates_examples():
    etl, bd, lp = registry("ETL"), registry("BD"), registry("LP")
    assert exp_validates(etl, bd, parse_rule("p, ~p |- q"))
    assert not exp_validates(etl, bd, ds_rule())
    pool = clause_pool()[::97]
    for r in pool:
        assert exp_validates(lp, bd, r) == validates(bd4(), r)
    with pytest.raises(ValueError):
        exp_validates(etl, bd, parse_rule("p |- q, r"))


def test_kminus_witness_examples():
    w = kminus_witness([Or(chi(1), Atom("q")), Or(Neg(Atom("q")), Atom("r"))],
                       Atom("r"))
    assert w is not None
    assert validates(kminus8(), etlplus_rule(1))
    # the disjunctive syllogism holds in the eight-element matrix (its top
    # is the only designated value), so a witness exists for it as well
    assert validates(kminus8(), ds_rule())
    assert kminus_witness([parse("p"), parse("~p | q")], parse("q")) is not None
    # reflexivity always has the trivial witness path
    f = parse("p & (q | ~r)")
    assert kminus_witness([f], f) is not None
    # resolution fails in the matrix and gets no witness
    assert not validates(kminus8(), resolution_rule())
    assert kminus_witness(resolution_rule().premises, parse("p | r")) is None


def test_kminus_witness_certificate_shape():
    from demorgan_lab.formula import CONTRADICTION, classical_status
    gamma = [parse("p & ~p | q"), parse("~q | r")]
    psi, chif = kminus_witness(gamma, parse("r"))
    assert classical_status(chif) == CONTRADICTION
    assert validates(bd4(), RuleInstance.single(gamma, Or(chif, psi)))
    assert validates(bd4(), RuleInstance.single(gamma, Or(Neg(psi), parse("r"))))


def test_kminus_witness_refuses_an_exponential_premise_dnf_while_building_it():
    # (a0 | b0) & ... & (a15 | b15) has 2^16 DNF clauses, and its first nine
    # conjuncts with a 3000-atom disjunction have 1.5 million: the
    # conjunction cap refuses both before building them, where counting
    # them after took seconds; the normal form itself stays uncapped
    pairs = [disj([Atom(f"a{i}"), Atom(f"b{i}")]) for i in range(16)]
    wide = conj(pairs[:9] + [disj([Atom(f"p{i}") for i in range(3000)])])
    for f in (conj(pairs), wide):
        with pytest.raises(ValueError, match=r"^kminus_witness guard: at most 8 DNF clauses of "
                                             r"the premises, got a conjunction of more than 512$"):
            kminus_witness([f], Atom("q"))
    assert len(_normal_clauses(conj(pairs[:10]), "dnf")) == 1024
    # the cap counts clauses after absorption: (a | b0) & ... & (a | b11)
    # has two DNF clauses, a and b0 & ... & b11, though distributing it
    # operand by operand makes more than 512 before absorbing them
    g = conj([disj([Atom("a"), Atom(f"b{i}")]) for i in range(12)])
    assert _normal_clauses(g, "dnf", 512) == _normal_clauses(g, "dnf") == [
        Atom("a"), conj([Atom(f"b{i}") for i in sorted(range(12), key=str)])]
    with pytest.raises(ClauseCapError):
        _normal_clauses(conj(pairs[:4]), "dnf", 15)


def test_kminus_equivalence_sample():
    km = kminus8()
    for r in clause_pool()[::41]:
        w = kminus_witness(r.premises, next(iter(r.conclusions)))
        assert (w is not None) == validates(km, r), str(r)


def test_lp_cap_etl_axiom():
    r = lp_cap_etl_rule()
    assert validates(lp3(), r) and validates(etl4(), r)


def test_log_leq_examples():
    assert log_leq([bd4()], k3(), 1) == LOG_LEQ_YES
    assert log_leq([kminus8()], k3(), 1) == LOG_LEQ_YES
    assert log_leq([k3()], lp3(), 3) == LOG_LEQ_NOT_FOUND
    assert log_leq([bd4()], lp3(), 1) == LOG_LEQ_YES
    assert log_leq([lp3()], cl2(), 1) == LOG_LEQ_YES  # CL2 <= LP3 as submatrix
    assert log_leq([cl2()], etl4(), 2) == LOG_LEQ_NOT_FOUND


def _add_new(frames, p):
    """The list search of frames up to isomorphism: add p to frames (kept
    by a shape that isomorphic frames share, so that fewer are compared)
    unless some frame there is isomorphic to it; True when it was added."""
    shape = (p.n, len(p.designated), tuple(sorted(r.bit_count() for r in p.up)))
    bucket = frames.setdefault(shape, [])
    if any(frame_isomorphic(p, q) for q in bucket):
        return False
    bucket.append(p)
    return True


def reduced_frames_reached(start):
    """Oracle for log_leq: the Leibniz subframes of every frame reached
    from start by Leibniz subframes and immediate quotients, up to
    isomorphism, found by the pairwise isomorphism scan."""
    seen, reached = {}, {}
    frontier = [start]
    while frontier:
        f = frontier.pop()
        if _add_new(seen, f):
            for nxt in [leibniz_subframe(f), *immediate_quotients(f)]:
                _add_new(reached, leibniz_subframe(nxt))
                frontier.append(nxt)
    return [p for bucket in reached.values() for p in bucket]


def test_log_leq_against_the_list_search():
    # every ordered pair of catalog matrices at bound 2: with one source,
    # the powers 1 and 2 of its dual frame are the start frames
    cat = catalog()
    reached = {name: [p for k in (1, 2) for p in reduced_frames_reached(
        frame_union([dual_frame(m)] * k))] for name, m in cat.items()}
    yes = 0
    for a, b in itertools.permutations(cat, 2):
        target = dual_frame(leibniz_reduct(cat[b]))
        found = any(frame_isomorphic(p, target) for p in reached[a])
        assert log_leq([cat[a]], cat[b], 2) == (LOG_LEQ_YES if found else LOG_LEQ_NOT_FOUND), (a, b)
        yes += found
    assert yes == 12


def test_separation_search():
    lem = em_rule()
    pool = list(catalog().values())
    found = separation_search([lem], [ecq_rule()], pool)
    assert found is not None and found.n == 3 and len(found.designated) == 2
    # ETL+2 holds but chi4 fails on the plus-matrix of the 4-clique
    mats = [mu_plus(g) for g in all_graphs(4, allow_isolated=False)]
    found = separation_search([etlplus_rule(2)], [chi_explosive(4)], mats)
    assert found is not None
    assert validates(found, etlplus_rule(2))
    assert not validates(found, chi_explosive(4))
    assert separation_search([ecq_rule()], [ecq_rule()], pool) is None


def test_consequence_reductions_via_bd():
    # validity over the three-element matrices reduces to four-valued
    # validity with one canonical tautology (or contradiction) built from
    # the rule's atoms
    pool = [r for r in clause_pool()[::53]] + [ds_rule(), resolution_rule(),
                                               em_rule(), ko_rule()]
    for r in pool:
        names = sorted(r.atom_names())
        concl = next(iter(r.conclusions))
        if not names:
            continue
        tau = conj([Or(Atom(a), Neg(Atom(a))) for a in names])
        with_tau = RuleInstance.single(list(r.premises) + [tau], concl)
        assert validates(lp3(), r) == validates(bd4(), with_tau), str(r)
        chi_f = disj([conj([Atom(a), Neg(Atom(a))]) for a in names])
        weakened = RuleInstance.single(r.premises, Or(concl, chi_f))
        assert validates(k3(), r) == validates(bd4(), weakened), str(r)
        psi = conj(sorted(r.premises, key=str)) if r.premises else None
        if psi is not None:
            etl_red = validates(bd4(), RuleInstance.single([psi], Or(Neg(psi), concl)))
            assert validates(etl4(), r) == etl_red, str(r)


def test_exp_cl_bd_agrees_with_product():
    cl, bd = registry("CL"), registry("BD")
    m = product([cl2(), bd4()])
    for r in clause_pool()[::89]:
        assert exp_validates(cl, bd, r) == validates(m, r)


def test_probe_recovers_figures():
    res = probe_lattice()
    for a, b in [("BD", "KO"), ("KO", "LP"), ("KO", "K"), ("LP", "CL"),
                 ("K", "CL"), ("ECQ", "ETL"), ("ETL", "ETL2")]:
        assert res.includes(a, b), (a, b)
        assert not res.includes(b, a), (b, a)
    for a, b in [("LP", "K"), ("K", "LP"), ("LP", "ETL"), ("ETL", "LP")]:
        assert not res.includes(a, b), (a, b)
    dot = res.to_dot()
    assert dot.startswith("digraph") and '"BD"' in dot


def test_probe_sweeps_each_matrix_rule_pair_once(monkeypatch):
    from demorgan_lab import logics
    pool = probe_pool()
    sweeps = []
    monkeypatch.setattr(logics, "validates",
                        lambda m, r: sweeps.append((id(m), id(r))) or validates(m, r))
    # the per-logic definition, each logic sweeping its own matrices
    valid = {n: frozenset(i for i, r in enumerate(pool) if registry(n).valid(r))
             for n in logics.PROBE_NAMES}
    want = [(a, b) for a in logics.PROBE_NAMES for b in logics.PROBE_NAMES
            if a != b and valid[a] <= valid[b]]
    per_logic, sweeps[:] = sweeps[:], []
    res = probe_lattice(pool)
    # the same pairs as the per-logic sweeps, each once, and fewer sweeps:
    # KO, KOVECQ and KOMINUS share matrix objects with K, LP, LPVECQ and KMINUS
    assert sorted(sweeps) == sorted(set(per_logic))
    assert len(sweeps) < len(per_logic)
    # and no matrix is built twice, so the memo by identity misses no pair
    mats = {id(m): m for n in logics.PROBE_NAMES for m in registry(n).semantics}
    keys = [(tuple(m.enc), m.neg, m.designated) for m in mats.values()]
    assert len(set(keys)) == len(keys)
    # inclusions fix the Hasse edges and the equivalences
    assert res.inclusions == want
    monkeypatch.undo()
    assert probe_lattice(pool) == res


def test_clause_pool_shares_its_formula_sets():
    # 4872 distinct rules over 232 premise sets and 21 conclusion sets, each
    # one object however many rules hold it
    pool = clause_pool()
    assert len(set(pool)) == len(pool) == 4872
    assert len({id(r.premises) for r in pool}) == len({r.premises for r in pool}) == 232
    assert len({id(r.conclusions) for r in pool}) == len({r.conclusions for r in pool}) == 21
    assert pool == [RuleInstance.single(r.premises, next(iter(r.conclusions))) for r in pool]


def test_pools_are_deterministic():
    assert [str(r) for r in clause_pool()[:3]] == [str(r) for r in clause_pool()[:3]]
    assert len(product_pool()) == 40
    assert len(probe_pool()) == len(probe_pool())
    assert all(len(r.conclusions) == 1 for r in clause_pool())
    assert any(not r.conclusions for r in mc_pool())
    names = named_rules()
    assert str(names["DS"]) == "p, ~p | q |- q"
