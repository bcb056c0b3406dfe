"""The acceptance suite: one callable per criterion, plus a batch runner.

Each check returns (passed, detail).  The runner prints one line per
criterion and is exposed through the command line as `verify`.
"""

from __future__ import annotations

import itertools
import random
import time
from typing import Callable, Optional, Sequence

from ._constructions import _find_isomorphism_generic
from ._order import Record
from .bridge import TriplePresentation, alpha_rule, gamma, mu_plus, mu_triple
from .formula import RuleInstance, disj, parse, parse_rule
from .frame import complex_matrix, counit_check, leibniz_subframe, random_frame, roundtrip_check
from .graph import all_graphs, complete, g2, hom_search, loop_graph, point
from .logics import (
    bd_mc_rules, chi_explosive, clause_pool, ds_rule, ecq_rule, em_rule,
    etlplus_rule, exp_validates, kminus_witness, ko_rule, mc_pool,
    probe_lattice, product_pool, registry, resolution_rule,
)
from .matrix import (
    _leibniz_refine, bd4, catalog, cl2, etl4, find_isomorphism, free_dm_algebra, k3,
    kminus8, lp3, product, quotient_by, validates,
)

__all__ = ["run_all", "CRITERIA", "VerifyResult"]


class VerifyResult(Record):
    number: int
    name: str
    passed: bool
    detail: str
    seconds: float


def _c01_catalog_validity() -> tuple[bool, str]:
    ds, em, res, ecq, ko = (ds_rule(), em_rule(), resolution_rule(),
                            ecq_rule(), ko_rule())
    cl2xlp3 = product([cl2(), lp3()])
    etl4xbd4 = product([etl4(), bd4()])
    table = [
        (ds, etl4(), True), (ds, bd4(), False), (ds, lp3(), False),
        (ds, cl2xlp3, False),
        (em, lp3(), True), (em, cl2(), True), (em, bd4(), False),
        (em, k3(), False), (em, etl4(), False),
        (res, k3(), True), (res, cl2(), True), (res, bd4(), False),
        (res, lp3(), False),
        (ecq, etl4xbd4, True), (ecq, k3(), True), (ecq, cl2(), True),
        (ecq, lp3(), False), (ecq, bd4(), False),
        (ko, k3(), True), (ko, lp3(), True),
    ]
    t0 = time.perf_counter()
    bad = [(str(r), m.labels) for r, m, expect in table if validates(m, r) != expect]
    elapsed = time.perf_counter() - t0
    per = elapsed / len(table)
    ok = not bad and per < 1e-3
    return ok, f"{len(table)} checks, {len(bad)} wrong, {per * 1000:.2f} ms each"


def _c02_explosive_parts() -> tuple[bool, str]:
    pool = clause_pool()
    lp, etl, cl, bd = registry("LP"), registry("ETL"), registry("CL"), registry("BD")
    bd_m = bd4()
    ecq_m = product([etl4(), bd4()])
    ecqw_m = product([cl2(), bd4()])
    bad = 0
    for r in pool:
        if exp_validates(lp, bd, r) != validates(bd_m, r):
            bad += 1
        if exp_validates(etl, bd, r) != validates(ecq_m, r):
            bad += 1
        if exp_validates(cl, bd, r) != validates(ecqw_m, r):
            bad += 1
    return bad == 0, f"{len(pool)} rules x 3 identities, {bad} mismatches"


def _c03_product_identity() -> tuple[bool, str]:
    t0 = time.perf_counter()
    mats = list(catalog().values())
    pool = product_pool()
    bad = 0
    products = {}
    for i, a in enumerate(mats):
        for j, b in enumerate(mats):
            products[i, j] = product([a, b])
    for (i, j), ab in products.items():
        a, b = mats[i], mats[j]
        for r in pool:
            expl = RuleInstance.explosive(r.premises)
            expect = (validates(a, r) and validates(b, r)) \
                or validates(a, expl) or validates(b, expl)
            if validates(ab, r) != expect:
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 10.0
    return ok, f"{len(products)} pairs x {len(pool)} rules, {bad} mismatches, {elapsed:.1f}s"


def _sweep_frames(seed: int) -> list:
    rng = random.Random(seed)
    return [random_frame(rng, 8) for _ in range(100)]


def _c04_duality_roundtrips(seed: int = 0) -> tuple[bool, str]:
    bad = []
    for name, m in catalog().items():
        if not roundtrip_check(m):
            bad.append(name)
    graphs = all_graphs(3, allow_isolated=True, allow_empty=True)
    cases = 0
    for g_plus in graphs:
        for g_minus in graphs:
            for k in range(3):
                m = mu_triple(TriplePresentation(g_plus, g_minus, k))
                if not roundtrip_check(m):
                    bad.append(f"mu({g_plus.edges()},{g_minus.edges()},{k})")
                cases += 1
    frames = _sweep_frames(seed)
    counit_bad = sum(0 if counit_check(p) else 1 for p in frames)
    ok = not bad and counit_bad == 0
    return ok, (f"catalog + {cases} graph presentations + {len(frames)} random "
                f"frames; {len(bad)} matrix failures, {counit_bad} frame failures")


def _c05_leibniz_commutation(seed: int = 0) -> tuple[bool, str]:
    # the generic refinement and isomorphism search, not the public
    # functions: those compute through the dual frame, which would make
    # this comparison hold by construction
    frames = _sweep_frames(seed)
    bad = 0
    for p in frames:
        m = complex_matrix(p)
        lhs = quotient_by(m, _leibniz_refine(m))
        rhs = complex_matrix(leibniz_subframe(p))
        if _find_isomorphism_generic(lhs, rhs) is None:
            bad += 1
    return bad == 0, f"{len(frames)} frames, {bad} failures"


def _c06_construction_identifications() -> tuple[bool, str]:
    from .bridge import mu_minus
    from .graph import empty_graph
    checks = [
        ("mu+(point)=ETL4", find_isomorphism(mu_plus(point()), etl4())),
        ("mu+(loop)=K3", find_isomorphism(mu_plus(loop_graph()), k3())),
        ("mu-(point)=BD4", find_isomorphism(mu_minus(point()), bd4())),
    ]
    for k in (1, 2, 3):
        m = mu_triple(TriplePresentation(empty_graph(), empty_graph(), k))
        checks.append((f"mu(0,0,{k})=CL2^{k}",
                       find_isomorphism(m, product([cl2()] * k))))
    km = mu_plus(g2())
    checks.append(("mu+(G2) has 8 elements", km.n == 8 or None))
    checks.append(("mu+(G2)=Kminus8", find_isomorphism(km, kminus8())))
    bad = [name for name, witness in checks if witness is None or witness is False]
    return not bad, f"{len(checks)} identifications, failing: {bad or 'none'}"


def _brute_colorable(g, n: int) -> bool:
    if g.n == 0:
        return True
    for vals in itertools.product(range(n), repeat=g.n):
        if all(vals[u] != vals[v] for u, v in g.edges()):
            return True
    return False


def _brute_weakly_colorable(g, n: int) -> bool:
    for bits in range(1 << g.n):
        dom = [u for u in range(g.n) if bits >> u & 1]
        if not any(g.adj[u] <= set(dom) for u in range(g.n)):
            continue
        for vals in itertools.product(range(n), repeat=len(dom)):
            c = dict(zip(dom, vals))
            if all(c[a] != c[b] for a, b in g.edges() if a in c and b in c):
                return True
    return False


def _c07_colorability() -> tuple[bool, str]:
    graphs = all_graphs(4, allow_isolated=False)
    bad = 0
    for g in graphs:
        gm = gamma(g)
        for n in (1, 2, 3):
            if validates(gm, chi_explosive(n)) != (not _brute_colorable(g, n)):
                bad += 1
        for n in (1, 2):
            if validates(gm, etlplus_rule(n)) != (not _brute_weakly_colorable(g, n)):
                bad += 1
    return bad == 0, f"{len(graphs)} graphs x 5 rules, {bad} mismatches"


def _c08_alpha_law() -> tuple[bool, str]:
    t0 = time.perf_counter()
    graphs = all_graphs(4, allow_isolated=False)
    mats = [mu_plus(g) for g in graphs]
    rules = [alpha_rule(g) for g in graphs]
    bad = 0
    for hi, h in enumerate(graphs):
        for gi, g in enumerate(graphs):
            if validates(mats[hi], rules[gi]) != (hom_search(h, g) is None):
                bad += 1
    elapsed = time.perf_counter() - t0
    ok = bad == 0 and elapsed < 60.0
    return ok, f"{len(graphs)}^2 pairs, {bad} mismatches, {elapsed:.1f}s"


def _c09_separation_witnesses() -> tuple[bool, str]:
    checks = []
    m4 = mu_plus(complete(4))
    checks.append(("mu+(K4) |= etlplus2", validates(m4, etlplus_rule(2))))
    checks.append(("mu+(K4) refutes chi4", not validates(m4, chi_explosive(4))))
    km = kminus8()
    for n in range(1, 5):
        checks.append((f"Kminus8 |= etlplus{n}", validates(km, etlplus_rule(n))))
    checks.append(("Kminus8 refutes resolution", not validates(km, resolution_rule())))
    bad = [name for name, ok in checks if not ok]
    return not bad, f"{len(checks)} witnesses, failing: {bad or 'none'}"


def _c10_free_algebra_counts() -> tuple[bool, str]:
    a, b = parse("a"), parse("b")
    n1 = free_dm_algebra(["a", "b"], [(b, a), (a, parse("~a|b"))]).n
    n2 = free_dm_algebra(["a", "b"], [(a, parse("~a")), (b, parse("~b"))]).n
    return (n1, n2) == (10, 20), f"counts ({n1}, {n2}), expected (10, 20)"


def _c11_kminus_witness_equivalence() -> tuple[bool, str]:
    pool = clause_pool()
    km = kminus8()
    bad = 0
    for r in pool:
        w = kminus_witness(r.premises, next(iter(r.conclusions)))
        if (w is not None) != validates(km, r):
            bad += 1
    return bad == 0, f"{len(pool)} rules, {bad} mismatches"


def _c12_multiple_conclusion() -> tuple[bool, str]:
    bad = []
    for i, r in enumerate(bd_mc_rules()):
        if not validates(bd4(), r):
            bad.append(f"BD_mc axiom {i}")
    pairs = [
        ("|- p, ~p", lp3(), True), ("|- p, ~p", k3(), False),
        ("p, ~p |- ", k3(), True), ("p, ~p |- ", lp3(), False),
        ("p, ~p |- q, ~q", k3(), True), ("p, ~p |- q, ~q", lp3(), True),
    ]
    for text, m, expect in pairs:
        if validates(m, parse_rule(text)) != expect:
            bad.append(text)
    # Multiple conclusions collapse to the single disjunction exactly on the
    # matrices whose designated sets are prime filters (the empty conclusion
    # set collapses to the falsum conclusion).  That is the four-matrix part
    # of the catalog; the exactly-true matrices are not prime and genuinely
    # separate the two readings, so both facts are asserted.
    prime = {n for n, m in catalog().items() if m.designated_is_prime_filter()}
    if prime != {"BD4", "K3", "LP3", "CL2"}:
        bad.append(f"prime-filter set {sorted(prime)}")
    mismatches = 0
    pool = mc_pool()
    for name, m in catalog().items():
        if name not in prime:
            continue
        for r in pool:
            folded = RuleInstance.single(
                r.premises, disj(sorted(r.conclusions, key=str)))
            if validates(m, r) != validates(m, folded):
                mismatches += 1
    if mismatches:
        bad.append(f"{mismatches} fold mismatches")
    split = parse_rule("p | q |- p, q")
    for name in ("ETL4", "KMINUS8"):
        m = catalog()[name]
        folded = RuleInstance.single(split.premises, disj(sorted(split.conclusions, key=str)))
        if validates(m, split) or not validates(m, folded):
            bad.append(f"expected fold counterexample on {name}")
    return not bad, (f"mc axioms + {len(pool)} pool rules on the prime-filter "
                     f"matrices; failing: {bad or 'none'}")


FIGURE_EDGES_5 = {("BD", "KO"), ("KO", "LP"), ("KO", "K"), ("LP", "CL"), ("K", "CL")}

# inclusion truth among the probed names, from the lattice figures
TRUE_LEQ_8 = {
    "BD": {"BD", "KO", "LP", "K", "CL", "ECQ", "ETL", "ETL2"},
    "KO": {"KO", "LP", "K", "CL"},
    "LP": {"LP", "CL"},
    "K": {"K", "CL"},
    "CL": {"CL"},
    "ECQ": {"ECQ", "ETL", "ETL2", "K", "CL"},
    "ETL": {"ETL", "ETL2", "K", "CL"},
    "ETL2": {"ETL2", "K", "CL"},
}


def _c13_lattice_probe() -> tuple[bool, str]:
    res = probe_lattice()
    incl = set(res.inclusions)
    names5 = ["BD", "KO", "LP", "K", "CL"]
    strict5 = {(a, b) for a in names5 for b in names5
               if a != b and (a, b) in incl and (b, a) not in incl}
    hasse5 = {
        (a, b) for (a, b) in strict5
        if not any((a, c) in strict5 and (c, b) in strict5 for c in names5)
    }
    bad = []
    if hasse5 != FIGURE_EDGES_5:
        bad.append(f"five-logic edges {sorted(hasse5)}")
    for chain in [("ECQ", "ETL"), ("ETL", "ETL2")]:
        if chain not in incl or (chain[1], chain[0]) in incl:
            bad.append(f"chain {chain}")
    names8 = list(TRUE_LEQ_8)
    for a in names8:
        for b in names8:
            got = (a, b) in incl or a == b
            if got != (b in TRUE_LEQ_8[a]):
                bad.append(f"{a} vs {b}")
    return not bad, f"probe over {len(res.names)} logics; failing: {bad or 'none'}"


CRITERIA: list[tuple[int, str, Callable[..., tuple[bool, str]]]] = [
    (1, "catalog validity table", _c01_catalog_validity),
    (2, "explosive-part identities", _c02_explosive_parts),
    (3, "product-logic identity", _c03_product_identity),
    (4, "duality round trips", _c04_duality_roundtrips),
    (5, "Leibniz commutation", _c05_leibniz_commutation),
    (6, "construction identifications", _c06_construction_identifications),
    (7, "colorability correspondence", _c07_colorability),
    (8, "alpha_G law", _c08_alpha_law),
    (9, "separation witnesses", _c09_separation_witnesses),
    (10, "free-algebra counts", _c10_free_algebra_counts),
    (11, "K-minus witness equivalence", _c11_kminus_witness_equivalence),
    (12, "multiple-conclusion suite", _c12_multiple_conclusion),
    (13, "lattice probe", _c13_lattice_probe),
]


def run_all(seed: int = 0, only: Optional[Sequence[int]] = None) -> list[VerifyResult]:
    results = []
    for number, name, fn in CRITERIA:
        if only and number not in only:
            continue
        t0 = time.perf_counter()
        if fn in (_c04_duality_roundtrips, _c05_leibniz_commutation):
            passed, detail = fn(seed)
        else:
            passed, detail = fn()
        results.append(VerifyResult(number, name, passed, detail,
                                    time.perf_counter() - t0))
    return results
