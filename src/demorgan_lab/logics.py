"""Named logics with finite matrix semantics, rule pools, explosive-part
computations, and the witness algorithm for consequence in the logic of the
eight-element matrix, which walks the clause lists of the premises' DNF
and the conclusion's CNF (formula._normal_clauses).

Semantics are exact where an exact finite semantics exists (the classical
completeness pairings); the two-variable explosive extensions by the
two-atom contradiction have no exact finite semantics, so they carry a
sound stand-in that is faithful at rule-pool resolution.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Optional, Sequence

from ._order import Record, canonical, explore
from .formula import (
    Atom, BOT, CONTRADICTION, ClauseCapError, Formula, Neg, Or, RuleInstance, TOP,
    _normal_clauses, chi, classical_status, conj, disj, nnf, parse_rule,
)
from .frame import (
    Frame, _structure as frame_structure, disjoint_union as frame_union,
    dual_frame, immediate_quotients, leibniz_subframe,
)
from .graph import complete
from .matrix import (
    FinMatrix, MatrixError, bd4, cl2, etl4, k3, kminus8, leibniz_reduct,
    lp3, product, validates,
)

__all__ = [
    "NamedLogic", "registry", "registry_names",
    "named_rules", "ds_rule", "resolution_rule", "em_rule", "ecq_rule",
    "ko_rule", "chi_explosive", "etlplus_rule", "kominus_rule",
    "lp_cap_etl_rule", "etl_omega_splitting_rule", "bd_mc_rules",
    "clause_pool", "probe_pool", "product_pool", "mc_pool",
    "is_antitheorem_of", "exp_validates", "kminus_witness",
    "log_leq", "LOG_LEQ_YES", "LOG_LEQ_NOT_FOUND",
    "separation_search", "probe_lattice", "ProbeResult",
]


# -- named rules ---------------------------------------------------------------


def ds_rule() -> RuleInstance:
    return parse_rule("p, ~p | q |- q")


def resolution_rule() -> RuleInstance:
    return parse_rule("p | q, ~q | r |- p | r")


def em_rule() -> RuleInstance:
    return parse_rule("|- p | ~p")


def ecq_rule() -> RuleInstance:
    return parse_rule("p, ~p |- q")


def ecq_explosive() -> RuleInstance:
    return parse_rule("p, ~p |- ")


def ko_rule() -> RuleInstance:
    return parse_rule("p & ~p | q |- q | ~q")


def k_axiom() -> RuleInstance:
    return parse_rule("p & ~p | q |- q")


def lp_cap_etl_rule() -> RuleInstance:
    return parse_rule("p, ~p | q | ~q |- q | ~q")


def etl_omega_splitting_rule() -> RuleInstance:
    return parse_rule("p & ~p | q | ~q, q & ~q | p | ~p |- p | ~p")


def chi_explosive(n: int) -> RuleInstance:
    """The n-atom classical contradiction as an explosive rule."""
    return RuleInstance.explosive([chi(n)])


def etlplus_rule(n: int) -> RuleInstance:
    """The n-explosive disjunctive syllogism: chi_n | q, ~q | r entail r."""
    q, r = Atom("q"), Atom("r")
    return RuleInstance.single([Or(chi(n), q), Or(Neg(q), r)], r)


def kominus_rule(n: int) -> RuleInstance:
    q, r = Atom("q"), Atom("r")
    return RuleInstance.single(
        [Or(chi(n), q), Or(Neg(q), Or(r, Neg(r)))], Or(r, Neg(r)))


def bd_mc_rules() -> list[RuleInstance]:
    """The multiple-conclusion axiomatization of the base logic."""
    texts = [
        "p, q |- p & q", "p & q |- p", "p & q |- q",
        "p | q |- p, q", "p |- p | q", "q |- p | q",
        "~p, ~q |- ~(p | q)", "~(p | q) |- ~p", "~(p | q) |- ~q",
        "~(p & q) |- ~p, ~q", "~p |- ~(p & q)", "~q |- ~(p & q)",
        "p |- ~~p", "~~p |- p", "|- T", "F |- ",
    ]
    return [parse_rule(t) for t in texts]


def lp_mc_rule() -> RuleInstance:
    return parse_rule("|- p, ~p")


def k_mc_rule() -> RuleInstance:
    return parse_rule("p, ~p |- ")


def ko_mc_rule() -> RuleInstance:
    return parse_rule("p, ~p |- q, ~q")


def named_rules() -> dict[str, RuleInstance]:
    out = {
        "DS": ds_rule(),
        "RESOLUTION": resolution_rule(),
        "EM": em_rule(),
        "ECQ": ecq_rule(),
        "ECQ_EXPLOSIVE": ecq_explosive(),
        "KO": ko_rule(),
        "K_AXIOM": k_axiom(),
        "LP_CAP_ETL": lp_cap_etl_rule(),
        "ETL_OMEGA_SPLITTING": etl_omega_splitting_rule(),
        "LP_MC": lp_mc_rule(),
        "K_MC": k_mc_rule(),
        "KO_MC": ko_mc_rule(),
    }
    for n in range(1, 5):
        out[f"CHI{n}_EXPLOSIVE"] = chi_explosive(n)
        out[f"ETLPLUS{n}"] = etlplus_rule(n)
        out[f"KOMINUS{n}"] = kominus_rule(n)
    for i, r in enumerate(bd_mc_rules()):
        out[f"BD_MC{i}"] = r
    return out


# -- rule pools ----------------------------------------------------------------


def _clause_menu(atom_names: Sequence[str]) -> list[Formula]:
    lits: list[Formula] = []
    for a in atom_names:
        lits.append(Atom(a))
        lits.append(Neg(Atom(a)))
    menu = list(lits)
    for i in range(len(lits)):
        for j in range(i + 1, len(lits)):
            menu.append(Or(lits[i], lits[j]))
    return menu


def clause_pool() -> list[RuleInstance]:
    """The versioned pool: every rule with at most two premises drawn from
    the one- and two-literal disjunctive clauses over p, q, r, and a single
    clause conclusion.  Deterministic order."""
    menu = _clause_menu(["p", "q", "r"])
    # the rules share their premise and conclusion sets: a small frozenset
    # takes more memory than the rule holding it, so sharing them cuts the
    # pool from 2.5 MB to 0.5 MB
    prem_sets = [frozenset()] + [frozenset([c]) for c in menu]
    prem_sets += [frozenset([menu[i], menu[j]])
                  for i in range(len(menu)) for j in range(i + 1, len(menu))]
    concl_sets = [frozenset([c]) for c in menu]
    return [RuleInstance(prem, concl) for prem in prem_sets for concl in concl_sets]


def _small_named_rules() -> list[RuleInstance]:
    keep = ["DS", "RESOLUTION", "EM", "ECQ", "ECQ_EXPLOSIVE", "KO", "K_AXIOM",
            "LP_CAP_ETL", "ETL_OMEGA_SPLITTING", "CHI1_EXPLOSIVE",
            "CHI2_EXPLOSIVE", "CHI3_EXPLOSIVE", "ETLPLUS1", "KOMINUS1"]
    rules = named_rules()
    return [rules[k] for k in keep]


def probe_pool() -> list[RuleInstance]:
    """Pool for the lattice probe: the named axioms plus every one- or
    two-premise rule over the two-atom clause menu."""
    menu = _clause_menu(["p", "q"])
    out = _small_named_rules()
    prem_sets: list[tuple[Formula, ...]] = [()]
    prem_sets += [(c,) for c in menu]
    prem_sets += [(menu[i], menu[j]) for i in range(len(menu)) for j in range(i + 1, len(menu))]
    for prem in prem_sets:
        for concl in menu:
            out.append(RuleInstance.single(prem, concl))
    return out


def product_pool() -> list[RuleInstance]:
    """The fixed forty-rule pool used for the product-decomposition sweep."""
    out = _small_named_rules()
    gen = clause_pool()
    # deterministic straggle through the clause pool for variety
    step = len(gen) // (40 - len(out)) or 1
    for i in range(0, len(gen), step):
        if len(out) >= 40:
            break
        out.append(gen[i])
    return out[:40]


def mc_pool() -> list[RuleInstance]:
    """Multiple-conclusion pool: literal premises/conclusion sets over p, q,
    plus the named multiple-conclusion rules."""
    lits = [Atom("p"), Neg(Atom("p")), Atom("q"), Neg(Atom("q"))]
    out = bd_mc_rules() + [lp_mc_rule(), k_mc_rule(), ko_mc_rule()]
    concl_sets: list[tuple[Formula, ...]] = [()]
    concl_sets += [(l,) for l in lits]
    concl_sets += [(lits[i], lits[j]) for i in range(4) for j in range(i + 1, 4)]
    prem_sets = concl_sets
    for prem in prem_sets:
        for concl in concl_sets:
            out.append(RuleInstance.of(prem, concl))
    return out


# -- the registry --------------------------------------------------------------


class NamedLogic(Record, frozen=True):
    name: str
    semantics: tuple[FinMatrix, ...]
    axioms: tuple[RuleInstance, ...]
    exact: bool = True  # False: sound finite stand-in, faithful on the pools

    def valid(self, r: RuleInstance) -> bool:
        return all(validates(m, r) for m in self.semantics)


@functools.cache
def _build_registry() -> dict[str, NamedLogic]:
    chis = tuple(chi_explosive(n) for n in range(1, 5))
    etlpluses = tuple(etlplus_rule(n) for n in range(1, 5))
    kominuses = tuple(kominus_rule(n) for n in range(1, 5))
    # shared like K3 and LP3, so a memo keyed by matrix identity sweeps it once
    cl2_lp3 = product([cl2(), lp3()])
    from .bridge import mu_plus
    mu_k3 = mu_plus(complete(3))

    defs: list[NamedLogic] = [
        NamedLogic("BD", (bd4(),), ()),
        NamedLogic("KO", (k3(), lp3()), (ko_rule(),)),
        NamedLogic("K", (k3(),), (resolution_rule(), k_axiom())),
        NamedLogic("LP", (lp3(),), (em_rule(),)),
        NamedLogic("ETL", (etl4(),), (ds_rule(),)),
        NamedLogic("CL", (cl2(),), (ds_rule(), em_rule())),
        NamedLogic("ECQ", (product([etl4(), bd4()]),), (ecq_rule(),)),
        NamedLogic("ECQW", (product([cl2(), bd4()]),), chis),
        NamedLogic("ETLW", (product([cl2(), etl4()]),), (ds_rule(),) + chis),
        NamedLogic("LPVECQ", (cl2_lp3,), (em_rule(), ecq_rule())),
        NamedLogic("KOVECQ", (cl2_lp3, k3()), (ko_rule(), ecq_rule())),
        NamedLogic("KMINUS", (kminus8(),), etlpluses),
        NamedLogic("KOMINUS", (lp3(), kminus8()), kominuses),
        NamedLogic("ETL2", (product([mu_k3, etl4()]),),
                   (ds_rule(), chi_explosive(2)), exact=False),
        NamedLogic("ECQ2", (product([mu_k3, bd4()]),),
                   (chi_explosive(2),), exact=False),
    ]
    return {l.name: l for l in defs}


_ALIASES = {
    "ECQOMEGA": "ECQW", "ECQ_OMEGA": "ECQW",
    "ETLOMEGA": "ETLW", "ETL_OMEGA": "ETLW",
    "LPORECQ": "LPVECQ", "LP_V_ECQ": "LPVECQ",
    "KOORECQ": "KOVECQ", "KO_V_ECQ": "KOVECQ",
    "K-": "KMINUS", "KO-": "KOMINUS",
}


def registry(name: str) -> NamedLogic:
    """Look up a named logic (case-insensitive)."""
    key = name.upper().replace("∨", "V")
    key = _ALIASES.get(key, key)
    reg = _build_registry()
    if key not in reg:
        raise KeyError(f"unknown logic {name!r}; known: {', '.join(sorted(reg))}")
    return reg[key]


def registry_names() -> list[str]:
    return sorted(_build_registry())


# -- antitheorems and explosive parts ------------------------------------------


def is_antitheorem_of(l: NamedLogic, gamma: Iterable[Formula]) -> bool:
    """No valuation on any semantics matrix designates all of gamma.

    All registry semantics are non-trivial matrices, where this coincides
    with entailing a fresh atom.
    """
    r = RuleInstance.explosive(gamma)
    return all(validates(m, r) for m in l.semantics)


def exp_validates(upper: NamedLogic, base: NamedLogic, r: RuleInstance) -> bool:
    """Validity in the explosive part of `upper` relative to `base`: the
    rule holds in the base, or its premises are an antitheorem of `upper`."""
    if len(r.conclusions) != 1:
        raise ValueError("explosive parts are defined for single-conclusion rules")
    return base.valid(r) or is_antitheorem_of(upper, r.premises)


# -- the witness algorithm for the eight-element matrix ------------------------


def _certifies(premises: Sequence[Formula], conclusion: Formula, psi: Formula,
               chif: Formula) -> bool:
    """True iff (psi, chi) certifies the consequence: chi is a classical
    contradiction, and the premises entail chi | psi and ~psi | conclusion
    in the base four-valued logic."""
    return (classical_status(chif) == CONTRADICTION
            and validates(bd4(), RuleInstance.single(premises, Or(chif, psi)))
            and validates(bd4(), RuleInstance.single(premises, Or(Neg(psi), conclusion))))


# clause_witness recurses on three lists of n - 1 of its n DNF clauses, and
# psi grows fourfold per clause: for f = p0 | ... | p{n-1},
# kminus_witness([f], f) takes 0.6-0.9 s at n = 8 and 14 s at n = 10 on a
# 2-core VM.  Every clause_pool rule has at most 4 clauses.
KMINUS_CLAUSE_GUARD = 8
# The premises' DNF can be exponential in the premises:
# (a0 | b0) & ... & (a{n-1} | b{n-1}) has 2^n clauses.  So its build refuses
# a conjunction whose operands' clause sets, after absorption, would make
# more than this many clauses.  A clause set shrinks past a conjunction
# only where other operands' clauses absorb its own, so with the cap far
# above the guard it refuses no premises the guard would take but for such
# absorption.
KMINUS_CONJUNCTION_CAP = 512


def kminus_witness(
    gamma: Iterable[Formula], phi: Formula
) -> Optional[tuple[Formula, Formula]]:
    """A pair (psi, chi) certifying consequence in the eight-element-matrix
    logic (see _certifies), or None when no such pair exists.

    Follows the completeness proof's recursion on the clause lists of a
    disjunctive normal form of the premises and a conjunctive normal form
    of the conclusion (formula._normal_clauses): a three-way split on
    disjunctions combining via
    psi = (psi1|psi2) & (psi2|psi3) & (psi3|psi1), chi = chi1|chi2|chi3,
    a conjunction split combining componentwise, and clause-level base
    cases.  Every returned pair is re-verified before being handed back.
    ValueError when the premises' DNF has more than KMINUS_CLAUSE_GUARD
    clauses, or when a conjunction met in building it would make more than
    KMINUS_CONJUNCTION_CAP.
    """
    gamma = sorted(set(gamma), key=str)
    try:
        clauses = _normal_clauses(conj(gamma), "dnf", KMINUS_CONJUNCTION_CAP)
    except ClauseCapError:
        raise ValueError(f"kminus_witness guard: at most {KMINUS_CLAUSE_GUARD} DNF clauses "
                         f"of the premises, got a conjunction of more than "
                         f"{KMINUS_CONJUNCTION_CAP}") from None
    if len(clauses) > KMINUS_CLAUSE_GUARD:
        raise ValueError(f"kminus_witness guard: at most {KMINUS_CLAUSE_GUARD} DNF clauses "
                         f"of the premises, got {len(clauses)}")
    if not clauses:
        # inconsistent premises in the base logic: anything follows
        if not _certifies(gamma, phi, TOP, BOT):
            raise RuntimeError("internal: trivial witness failed verification")
        return TOP, BOT

    def clause_witness(cs: list[Formula], d: Formula) -> Optional[tuple[Formula, Formula]]:
        gf = disj(cs)
        if len(cs) > 2:
            groups = ([cs[1]] + cs[2:], cs[2:] + [cs[0]], [cs[0], cs[1]])
            subs = []
            for delta in groups:
                w = clause_witness(delta, d)
                if w is None:
                    return None
                subs.append(w)
            (p1, c1), (p2, c2), (p3, c3) = subs
            psi = conj([Or(p1, p2), Or(p2, p3), Or(p3, p1)])
            chif = disj([c1, c2, c3])
            if not _certifies([gf], d, psi, chif):
                raise RuntimeError("internal: three-way combination failed")
            return psi, chif
        first, last = cs[0], cs[-1]
        candidates = []
        if classical_status(gf) == CONTRADICTION:
            candidates.append((nnf(Neg(gf)), gf))
        candidates.append((gf, BOT))
        if classical_status(first) == CONTRADICTION and len(cs) == 2:
            candidates.append((last, first))
        if classical_status(last) == CONTRADICTION and len(cs) == 2:
            candidates.append((first, last))
        for psi, chif in candidates:
            if _certifies([gf], d, psi, chif):
                return psi, chif
        return None

    parts = []
    for d in _normal_clauses(phi, "cnf"):
        w = clause_witness(clauses, d)
        if w is None:
            return None
        parts.append(w)
    psi, chif = conj([p for p, _ in parts]), disj([c for _, c in parts])  # T, F when none
    if not _certifies(gamma, phi, psi, chif):
        raise RuntimeError("internal: combined witness failed verification")
    return psi, chif


# -- comparing logics -----------------------------------------------------------


LOG_LEQ_YES = "yes"
LOG_LEQ_NOT_FOUND = "not-found-up-to-bound"


def log_leq(a: Sequence[FinMatrix], b: FinMatrix, max_power: Optional[int] = None) -> str:
    """Search for the reduct of b among the submatrix-reducts of finite
    products of matrices from a; finding one proves that b models the logic
    of a.

    The search runs dually: the reduct of a submatrix corresponds to the
    Leibniz subframe of a quotient frame, and products to disjoint unions
    of dual frames.  _order.explore searches breadth first from the union
    of each combination and power in turn, built when reached, skipping a
    frame whose canonical form (_order.canonical) it met before: a frame
    explored without reaching the target reaches nothing new later.  A
    negative answer is only "not found up to the bound": no effective
    bound is known, so none is invented.
    """
    if max_power is None:
        max_power = b.n
    if max_power < 1:
        raise ValueError("max_power must be at least 1")
    if "demorgan" not in b.flags or any("demorgan" not in m.flags for m in a):
        raise MatrixError("log_leq compares De Morgan matrices")

    def key(f: Frame) -> tuple[int, ...]:
        return canonical(frame_structure(f))

    target = key(dual_frame(leibniz_reduct(b)))
    duals = [dual_frame(m) for m in a]
    unions = (frame_union([duals[i] for i in combo]) for power in range(1, max_power + 1)
              for combo in itertools.combinations_with_replacement(range(len(a)), power))
    reached = explore(unions, lambda f: [leibniz_subframe(f), *immediate_quotients(f)], key)
    found = any(key(leibniz_subframe(f)) == target for f, _ in reached)
    return LOG_LEQ_YES if found else LOG_LEQ_NOT_FOUND


def separation_search(
    hold: Sequence[RuleInstance],
    fail: Sequence[RuleInstance],
    pool: Iterable[FinMatrix],
) -> Optional[FinMatrix]:
    """First matrix in the pool validating everything in `hold` and
    refuting everything in `fail`."""
    for m in pool:
        if all(validates(m, r) for r in hold) and not any(validates(m, r) for r in fail):
            return m
    return None


# -- the lattice probe -----------------------------------------------------------


PROBE_NAMES = ["BD", "KO", "K", "LP", "CL", "ECQ", "ETL", "ETL2",
               "ECQW", "ETLW", "LPVECQ", "KOVECQ", "KMINUS", "KOMINUS"]


class ProbeResult(Record):
    names: list[str]
    inclusions: list[tuple[str, str]]  # L1 included in L2, at pool resolution
    hasse: list[tuple[str, str]]       # covering edges between classes
    equivalent: list[tuple[str, str]]  # pool-indistinguishable pairs

    def includes(self, a: str, b: str) -> bool:
        return (a, b) in set(self.inclusions)

    def to_json(self) -> str:
        import json
        return json.dumps({
            "names": self.names,
            "inclusions": [list(e) for e in self.inclusions],
            "hasse": [list(e) for e in self.hasse],
            "equivalent": [list(e) for e in self.equivalent],
        })

    def to_dot(self) -> str:
        lines = ["digraph lattice {", "  rankdir=BT;"]
        shown = {n for e in self.hasse for n in e} | set(self.names)
        for n in sorted(shown):
            lines.append(f'  "{n}";')
        for a, b in self.hasse:
            lines.append(f'  "{a}" -> "{b}";')
        lines.append("}")
        return "\n".join(lines)


def probe_lattice(pool: Optional[Sequence[RuleInstance]] = None) -> ProbeResult:
    """Compare the PROBE_NAMES logics of the registry by their pool-valid
    rule sets and report the induced inclusion preorder and its Hasse
    diagram."""
    if pool is None:
        pool = probe_pool()
    names = PROBE_NAMES
    # registry logics share matrix objects (KO, KOVECQ and KOMINUS reuse
    # those of K, LP and KMINUS), so each (matrix, rule) pair is swept once;
    # all() keeps NamedLogic.valid's order and short circuit
    memo: dict[tuple[int, int], bool] = {}

    def holds(m: FinMatrix, i: int) -> bool:
        key = (id(m), i)
        if key not in memo:
            memo[key] = validates(m, pool[i])
        return memo[key]

    valid = {n: frozenset(i for i in range(len(pool))
                          if all(holds(m, i) for m in registry(n).semantics))
             for n in names}
    inclusions = [
        (a, b) for a in names for b in names
        if a != b and valid[a] <= valid[b]
    ]
    incl = set(inclusions)
    equivalent = [(a, b) for (a, b) in inclusions if (b, a) in incl and a < b]
    # Hasse edges on representatives of the equivalence classes
    rep = {}
    for n in names:
        rep[n] = min([n] + [b for (a, b) in equivalent if a == n]
                     + [a for (a, b) in equivalent if b == n])
    strict = {(rep[a], rep[b]) for (a, b) in inclusions if rep[a] != rep[b]}
    hasse = sorted(
        (a, b) for (a, b) in strict
        if not any((a, c) in strict and (c, b) in strict for c in set(rep.values()))
    )
    return ProbeResult(list(names), inclusions, hasse, equivalent)
