"""Seeded inputs, operations and oracles for the four benchmark workloads.

`build(name, seed)` returns a Job: the operations of one pass (zero-argument
callables, run one after another by a single caller), an oracle `check` for
the first result of each operation, and facts about the inputs.

Inputs are generated here, from the seed, and handed to `demorgan_lab`
through its public functions only.  Graphs and random frames are generated
by this file rather than by the package, so that a change to the package's
own generators cannot change what the benchmark measures; graphs are
identified by a canonical key computed here.
"""

from __future__ import annotations

import collections
import contextlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from demorgan_lab import bridge, cli, frame, graph, logics, matrix, verify
from demorgan_lab.bridge import TriplePresentation
from demorgan_lab.formula import RuleInstance
from demorgan_lab.frame import Frame
from demorgan_lab.graph import Graph
from demorgan_lab.matrix import Partition

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_DIR = os.path.join(ROOT, ".bench_work")

# Carrier-size thresholds of the package at the time the benchmark was
# defined (law checks, operation tables and find_isomorphism).  Kept here so
# that the size bands, and the layer splits that use them, stay the same
# across versions of the package.
FULL_LAW_LIMIT = 100
TABLE_LIMIT = 1500
MASK_BITS = 16

WHY = {
    "alpha-sweep": (
        "Nearly all time is in mask-mode valuation sweeps (1-4 atoms, carriers"
        " of 3-81 elements, heavy tail); construction, Leibniz and isomorphism"
        " changes should leave it unchanged."),
    "small-checks": (
        "Thousands of cheap checks put the sweep layer's per-call overhead,"
        " not grid size, on the critical path; a big-grid gain that adds"
        " per-call cost shows up here as a loss."),
    "duality": (
        "Construction, FinMatrix.validate, Leibniz refinement and isomorphism"
        " search do the work and no valuation sweep runs; carriers straddle"
        " the 100-element law-check and 1500-element table limits."),
    "cli-oneshot": (
        "Single-command latency of cold `python -m demorgan_lab.cli` children;"
        " import, catalog build and argument parsing dominate it and no other"
        " workload measures them."),
}


@dataclass
class Job:
    ops: list[Callable[[], object]]
    check: Callable[[int, object], Optional[str]]
    facts: dict = field(default_factory=dict)
    # Operations run in child processes: they are scaled by a child-start
    # reference, their time is the fastest execution (interference only
    # slows a child), and their memory is the children's.
    in_children: bool = False
    # operations run under tracing when they differ from `ops` (spans stop
    # at a child process, so the CLI workload traces in-process calls)
    trace_ops: Optional[list[Callable[[], object]]] = None
    cleanup: Callable[[], None] = lambda: None


def histogram(values) -> dict[str, int]:
    """Counts in power-of-two buckets, e.g. '5-8'."""
    out: collections.Counter = collections.Counter()
    for v in values:
        hi = 1
        while hi < v:
            hi *= 2
        out[f"{hi // 2 + 1}-{hi}" if hi > 1 else "1"] += 1
    return dict(sorted(out.items(), key=lambda kv: int(kv[0].split("-")[-1])))


def stratified(items: list, quota: int, rng: random.Random, fixed_top: int = 0) -> list:
    """One member from each of `quota` consecutive equal blocks of `items`
    (sorted by expected cost), so every seed gets the same cost profile.
    The `fixed_top` heaviest blocks give their middle member for every seed:
    the tail is made of few operations, and letting the seed pick them would
    make the tail percentile measure the draw instead of the code."""
    out = []
    for b in range(quota):
        block = items[b * len(items) // quota:(b + 1) * len(items) // quota]
        out.append(block[len(block) // 2] if b >= quota - fixed_top else rng.choice(block))
    return out


# -- graphs and frames generated by the benchmark -----------------------------


def canonical_graphs(max_vertices: int, allow_isolated: bool) -> list[tuple[str, Graph]]:
    """All graphs with at most `max_vertices` vertices up to isomorphism,
    as (key, graph) sorted by key; the empty graph is included when isolated
    vertices are allowed.  The key is 'n:mask' with the least edge mask over
    all vertex permutations, and the graph is drawn in that labelling."""
    found: dict[str, list[tuple[int, int]]] = {}
    if allow_isolated:
        found["0:0"] = []
    for n in range(1, max_vertices + 1):
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        pos = {p: k for k, p in enumerate(pairs)}
        perm_maps = [
            [pos[(min(p[i], p[j]), max(p[i], p[j]))] for i, j in pairs]
            for p in itertools.permutations(range(n))
        ]
        for bits in range(1 << len(pairs)):
            edges = [p for k, p in enumerate(pairs) if bits >> k & 1]
            if not allow_isolated and any(
                    not any(u in e for e in edges) for u in range(n)):
                continue
            best = min(
                sum(1 << pm[k] for k in range(len(pairs)) if bits >> k & 1)
                for pm in perm_maps
            )
            key = f"{n}:{best}"
            if key not in found:
                found[key] = [p for k, p in enumerate(pairs) if best >> k & 1]
    out = []
    for key in sorted(found, key=lambda k: tuple(map(int, k.split(":")))):
        n = int(key.split(":")[0])
        out.append((key, Graph([f"v{i}" for i in range(n)], found[key])))
    return out


def plus_frame_upsets(g: Graph) -> int:
    """Upsets of the two-level frame of g (lower points below the upper
    copies of their neighbours): sum over lower sets L of 2^(n - |N(L)|)."""
    total = 0
    for bits in range(1 << g.n):
        nbrs = set()
        for u in range(g.n):
            if bits >> u & 1:
                nbrs |= g.adj[u]
        total += 1 << (g.n - len(nbrs))
    return total


def frame_upsets(up: list[int]) -> int:
    """Upsets of an order given by up-set bit rows, by brute force."""
    n = len(up)
    return sum(
        1 for s in range(1 << n)
        if all(s & up[i] == up[i] for i in range(n) if s >> i & 1)
    )


def random_frame(rng: random.Random, points: int) -> tuple[Frame, int]:
    """A random frame on `points` points and its number of upsets: random
    involution, the least involution-compatible order containing random
    pairs (redrawn until antisymmetric), and a random designated upset."""
    n = points
    while True:
        pts = list(range(n))
        rng.shuffle(pts)
        invol = list(range(n))
        for i in range(rng.randint(0, n // 2)):
            a, b = pts[2 * i], pts[2 * i + 1]
            invol[a], invol[b] = b, a
        up = [1 << i for i in range(n)]
        for _ in range(rng.randint(0, n)):
            i, j = rng.randrange(n), rng.randrange(n)
            up[i] |= 1 << j
        changed = True
        while changed:
            changed = False
            for i in range(n):
                for j in range(n):
                    if up[i] >> j & 1:
                        if up[i] | up[j] != up[i]:
                            up[i] |= up[j]
                            changed = True
                        # i <= j forces invol(j) <= invol(i)
                        a, b = invol[j], invol[i]
                        if not up[a] >> b & 1:
                            up[a] |= 1 << b
                            changed = True
        if any(up[i] >> j & 1 and up[j] >> i & 1 for i in range(n) for j in range(i)):
            continue
        designated = 0
        for u in range(n):
            if rng.random() < 0.5:
                designated |= up[u]
        leq = [(i, j) for i in range(n) for j in range(n) if up[i] >> j & 1]
        p = Frame([f"u{i}" for i in range(n)], leq, invol,
                  [u for u in range(n) if designated >> u & 1])
        return p, frame_upsets(up)


# -- scalar oracles ------------------------------------------------------------


def brute_valid(m: matrix.FinMatrix, r: RuleInstance) -> bool:
    """Rule validity by a scalar sweep with `matrix.evaluate`."""
    names = sorted(r.atom_names())
    for vals in itertools.product(range(m.n), repeat=len(names)):
        v = dict(zip(names, vals))
        if all(matrix.evaluate(m, v, f) in m.designated for f in r.premises) and not any(
                matrix.evaluate(m, v, f) in m.designated for f in r.conclusions):
            return False
    return True


def brute_leibniz(m: matrix.FinMatrix) -> set[frozenset[int]]:
    """Leibniz congruence by pair elimination (a different algorithm from
    the package's signature refinement): drop a pair when designation
    separates it or a one-step context maps it to a dropped pair."""
    n = m.n
    same = {(a, b) for a in range(n) for b in range(n)
            if (a in m.designated) == (b in m.designated)}
    changed = True
    while changed:
        changed = False
        for a, b in list(same):
            if (m.neg[a], m.neg[b]) not in same or any(
                    (m.meet(a, c), m.meet(b, c)) not in same
                    or (m.join(a, c), m.join(b, c)) not in same for c in range(n)):
                same.discard((a, b))
                changed = True
    return {frozenset(b for b in range(n) if (a, b) in same) for a in range(n)}


def iso_confirmed(m1: matrix.FinMatrix, m2: matrix.FinMatrix, mapping) -> bool:
    """`is_matrix_isomorphism` on small carriers; above FULL_LAW_LIMIT the
    same conditions checked on whole operation tables at once."""
    if m1.n <= FULL_LAW_LIMIT:
        return matrix.is_matrix_isomorphism(m1, m2, mapping)
    h = np.array(mapping, dtype=np.int64)
    if m1.n != m2.n or sorted(mapping) != list(range(m2.n)):
        return False
    if h[m1.top] != m2.top or h[m1.bottom] != m2.bottom:
        return False
    des1 = np.array([x in m1.designated for x in range(m1.n)])
    des2 = np.array([y in m2.designated for y in range(m2.n)])
    neg1, neg2 = np.array(m1.neg), np.array(m2.neg)
    return bool(
        np.array_equal(des1, des2[h]) and np.array_equal(h[neg1], neg2[h])
        and np.array_equal(h[m1.meet_table()], m2.meet_table()[h[:, None], h[None, :]])
        and np.array_equal(h[m1.join_table()], m2.join_table()[h[:, None], h[None, :]]))


# -- alpha-sweep ---------------------------------------------------------------

ALPHA_TABLE = os.path.join(HERE, "alpha_work.json")
ALPHA_QUOTA = 792      # about one pair in ten of the 89 x 89
ALPHA_FIXED_TOP = 40   # heaviest 5% of the blocks


def alpha_graphs() -> list[tuple[str, Graph]]:
    return canonical_graphs(4, allow_isolated=False)


def _alpha(seed: int, tiny: bool) -> Job:
    rng = random.Random(seed)
    graphs = alpha_graphs()
    mats = [bridge.mu_plus(g) for _, g in graphs]
    rules = [bridge.alpha_rule(g) for _, g in graphs]
    with open(ALPHA_TABLE, encoding="utf-8") as fh:
        table = json.load(fh)
    keys = [k for k, _ in graphs]
    if table["keys"] != keys:
        raise RuntimeError("alpha_work.json does not list the benchmark's graphs")
    work = table["work"]
    pairs = sorted((work[h][g], h, g) for h in range(len(keys)) for g in range(len(keys)))
    if tiny:
        chosen = pairs[:: len(pairs) // 12][:12]
    else:
        chosen = stratified(pairs, ALPHA_QUOTA, rng, ALPHA_FIXED_TOP)
    rng.shuffle(chosen)
    ops = [lambda m=mats[h], r=rules[g]: matrix.validates(m, r) for _, h, g in chosen]

    def check(i: int, got) -> Optional[str]:
        _, h, g = chosen[i]
        want = graph.hom_search(graphs[h][1], graphs[g][1]) is None
        return None if got == want else f"validates={got}, hom_search says {want}"

    facts = {
        "carrier_sizes": histogram(mats[h].n for _, h, _ in chosen),
        "atom_counts": dict(sorted(collections.Counter(
            graphs[g][1].n for _, _, g in chosen).items())),
    }
    return Job(ops, check, facts)

# -- small-checks --------------------------------------------------------------

SMALL_QUOTA = {"clause": 700, "mc_points": range(1, 9), "mc_frames": 2, "mc_rules": 20,
               "chain": 300, "kminus": 150, "oracle_clause": 40, "oracle_mc": 15,
               "oracle_chain": 3}
SMALL_TINY = {"clause": 4, "mc_points": range(1, 4), "mc_frames": 1, "mc_rules": 2,
              "chain": 3, "kminus": 3, "oracle_clause": 4, "oracle_mc": 2,
              "oracle_chain": 1}
# More than MASK_BITS points, so sweeps run in table mode; fixed, because
# complex_matrix enumerates all 2^points subsets and a longer chain would
# change setup time and peak memory with the seed.
CHAIN_POINTS = 17


def chain_frame(points: int, cut: int) -> Frame:
    """A chain with the order-reversing involution, designated from `cut` up."""
    return Frame([f"c{i}" for i in range(points)],
                 [(i, j) for i in range(points) for j in range(i, points)],
                 [points - 1 - i for i in range(points)], range(cut, points))


def _small(seed: int, tiny: bool) -> Job:
    rng = random.Random(seed)
    q = SMALL_TINY if tiny else SMALL_QUOTA
    pool = sorted(logics.clause_pool(), key=str)
    cases: list[tuple[str, matrix.FinMatrix, RuleInstance]] = []
    clause_mats = [matrix.bd4(), matrix.product([matrix.etl4(), matrix.bd4()]),
                   matrix.product([matrix.cl2(), matrix.bd4()])]
    for r in rng.sample(pool, q["clause"]):
        cases.extend(("clause", m, r) for m in clause_mats)
    mc = sorted(logics.mc_pool(), key=str)
    for points in q["mc_points"]:
        for _ in range(q["mc_frames"]):
            m = frame.complex_matrix(random_frame(rng, points)[0])
            cases.extend(("mc", m, r) for r in rng.sample(mc, q["mc_rules"]))
    chain = frame.complex_matrix(chain_frame(CHAIN_POINTS, rng.randrange(1, CHAIN_POINTS)))
    cases.extend(("chain", chain, r) for r in rng.sample(pool, q["chain"]))
    # kminus_witness costs are heavy-tailed (1% of the pool takes 15x the
    # median) and its slowest calls set this workload's tail, so its sample
    # is the same for every seed: evenly spaced through the pool
    krules = pool[::len(pool) // q["kminus"]][:q["kminus"]]

    oracle: set[int] = set()
    for kind, count in (("clause", q["oracle_clause"]), ("mc", q["oracle_mc"]),
                        ("chain", q["oracle_chain"])):
        # a scalar sweep is slow: at most 32 elements, except the chain's 18
        idx = [i for i, (k, m, _) in enumerate(cases)
               if k == kind and (m.n <= 32 or k == "chain")]
        oracle.update(rng.sample(idx, min(count, len(idx))))

    ops: list[tuple[tuple, Callable[[], object]]] = [
        (("validates", i), lambda m=m, r=r: matrix.validates(m, r))
        for i, (_, m, r) in enumerate(cases)]
    ops += [(("kminus", r), lambda r=r: logics.kminus_witness(
        r.premises, next(iter(r.conclusions))) is not None) for r in krules]
    ops.append((("probe", None), lambda: frozenset(logics.probe_lattice().inclusions)))
    rng.shuffle(ops)
    tags = [t for t, _ in ops]

    def check(i: int, got) -> Optional[str]:
        kind, data = tags[i]
        if kind == "validates":
            if data not in oracle:
                return None
            _, m, r = cases[data]
            want = brute_valid(m, r)
            return None if got == want else f"validates={got}, scalar sweep says {want}"
        if kind == "kminus":
            want = matrix.validates(matrix.kminus8(), data)
            return None if got == want else f"witness found={got}, Kminus8 validates={want}"
        bad = [(a, b) for a in verify.TRUE_LEQ_8 for b in verify.TRUE_LEQ_8
               if ((a, b) in got or a == b) != (b in verify.TRUE_LEQ_8[a])]
        return f"probe inclusions disagree on {bad}" if bad else None

    facts = {
        "operations": dict(collections.Counter(t[0] if t[0] != "validates" else cases[t[1]][0]
                                               for t in tags)),
        "carrier_sizes": histogram(m.n for _, m, _ in cases),
        "atom_counts": dict(sorted(collections.Counter(
            len(r.atom_names()) for _, _, r in cases).items())),
        "table_mode_carrier": {"points": CHAIN_POINTS, "elements": chain.n},
        "oracle_checked_sweeps": len(oracle),
    }
    return Job([op for _, op in ops], check, facts)


# -- duality -------------------------------------------------------------------

# Presentations by carrier size: (band, smallest excluded, largest
# included, drawn, of which fixed).  The heavy bands and the heaviest
# blocks of the light one are few, costly operations that make up the
# tail, so they are the same for every seed.
DUALITY_BANDS = (("exhaustive", 0, FULL_LAW_LIMIT, 24, 4),
                 ("sampled", FULL_LAW_LIMIT, 400, 8, 8),
                 ("untabled", TABLE_LIMIT, 1650, 1, 1))
DUALITY_TINY_BANDS = (("exhaustive", 0, 40, 2, 0),)
# random frames kept per point count: the 3-point group is large enough
# that the median operation falls inside it, among operations of similar
# cost, for every seed
DUALITY_FRAMES = {1: 12, 2: 16, 3: 36, 4: 12, 5: 4, 6: 4}
DUALITY_FRAME_CANDIDATES = 3  # drawn per kept frame, kept by carrier size


def duality_pipeline(m: matrix.FinMatrix, p: Frame) -> tuple:
    """Round trips, Leibniz reduct and the reduct-vs-subframe isomorphism.
    find_isomorphism refuses carriers above TABLE_LIMIT, so it is not called
    on them."""
    rt = frame.roundtrip_check(m)
    cu = frame.counit_check(p)
    part = matrix.leibniz_congruence(m)
    red = matrix.quotient_by(m, part)
    mapping = None
    if red.n <= TABLE_LIMIT:
        rhs = frame.complex_matrix(frame.leibniz_subframe(p))
        mapping = matrix.find_isomorphism(red, rhs)
    return m.n, rt, cu, part.blocks, mapping


def _duality(seed: int, tiny: bool) -> Job:
    rng = random.Random(seed)
    graphs = canonical_graphs(3, allow_isolated=True)
    ups = [plus_frame_upsets(g) for _, g in graphs]
    cands = sorted(
        (ups[a] * ups[b] << k, graphs[a][0], graphs[b][0], k, a, b)
        for a in range(len(graphs)) for b in range(len(graphs)) for k in range(3))
    cases: list[tuple[str, int, object]] = []  # (kind, expected carrier, input)
    for _, lo, hi, quota, fixed in (DUALITY_TINY_BANDS if tiny else DUALITY_BANDS):
        band = [c for c in cands if lo < c[0] <= hi]
        for n, _, _, k, a, b in stratified(band, quota, rng, fixed):
            cases.append(("presentation", n, TriplePresentation(graphs[a][1], graphs[b][1], k)))
    for points, keep in ({1: 1, 2: 1, 3: 1, 4: 1} if tiny else DUALITY_FRAMES).items():
        drawn = sorted((random_frame(rng, points) for _ in range(keep * DUALITY_FRAME_CANDIDATES)),
                       key=lambda pu: (pu[1], sorted(pu[0].leq), pu[0].invol))
        cases.extend(("frame", n, p) for p, n in stratified(drawn, keep, rng))
    rng.shuffle(cases)

    def op(kind: str, x):
        if kind == "presentation":
            return duality_pipeline(bridge.mu_triple(x), bridge.p_triple(x))
        return duality_pipeline(frame.complex_matrix(x), x)

    ops = [lambda kind=kind, x=x: op(kind, x) for kind, _, x in cases]

    def check(i: int, got) -> Optional[str]:
        kind, want_n, x = cases[i]
        n, rt, cu, blocks, mapping = got
        if n != want_n:
            return f"carrier has {n} elements, the frame has {want_n} upsets"
        if not (rt and cu):
            return f"roundtrip_check={rt}, counit_check={cu}"
        p = bridge.p_triple(x) if kind == "presentation" else x
        m = frame.complex_matrix(p)
        part = Partition(blocks)
        if kind == "presentation" and not part.is_identity():
            return "complex matrix of a reduced frame is not reduced"
        red = matrix.quotient_by(m, part)
        if red.n > TABLE_LIMIT:
            return None if mapping is None else "isomorphism searched above TABLE_LIMIT"
        rhs = frame.complex_matrix(frame.leibniz_subframe(p))
        if mapping is None or not iso_confirmed(red, rhs, mapping):
            return "no confirmed isomorphism between the reduct and the subframe's matrix"
        return None

    facts = {
        "operations": dict(collections.Counter(kind for kind, _, _ in cases)),
        "carrier_sizes": histogram(n for _, n, _ in cases),
        "frame_points": dict(sorted(collections.Counter(
            (bridge.p_triple(x) if kind == "presentation" else x).n
            for kind, _, x in cases).items())),
        "isomorphism_skipped_above_table_limit": sum(n > TABLE_LIMIT for _, n, _ in cases),
    }
    return Job(ops, check, facts)


# -- cli-oneshot ---------------------------------------------------------------

# Rule validity from the paper's catalog table: (rule, matrix, valid).
CHECK_CASES = (
    ("ds_rule", "ETL4", True), ("ds_rule", "BD4", False), ("ds_rule", "LP3", False),
    ("em_rule", "LP3", True), ("em_rule", "CL2", True), ("em_rule", "BD4", False),
    ("em_rule", "K3", False), ("em_rule", "ETL4", False),
    ("resolution_rule", "K3", True), ("resolution_rule", "CL2", True),
    ("resolution_rule", "BD4", False), ("resolution_rule", "LP3", False),
    ("ecq_rule", "K3", True), ("ecq_rule", "CL2", True), ("ecq_rule", "LP3", False),
    ("ecq_rule", "BD4", False), ("ko_rule", "K3", True), ("ko_rule", "LP3", True),
)
CLI_QUOTA = {"valid": 4, "invalid": 4, "leibniz": 4, "classify": 4, "dual": 4, "file": 4}
CLI_TINY = {"valid": 1, "invalid": 1, "leibniz": 1, "classify": 1, "dual": 1, "file": 1}
CHILD_TIMEOUT_S = 60


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], env: dict[str, str]) -> tuple[int, object]:
    proc = subprocess.run([sys.executable, "-m", "demorgan_lab.cli", "--json", *argv],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return proc.returncode, json.loads(proc.stdout) if proc.stdout.strip() else None


def run_in_process(argv: list[str]) -> tuple[int, object]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["--json", *argv])
    text = out.getvalue()
    return code, json.loads(text) if text.strip() else None


def _cli(seed: int, tiny: bool) -> Job:
    rng = random.Random(seed)
    q = CLI_TINY if tiny else CLI_QUOTA
    cat = matrix.catalog()
    cmds: list[tuple[list[str], tuple]] = []
    for want in (True, False):
        for rule, name, _ in rng.sample([c for c in CHECK_CASES if c[2] == want],
                                        q["valid" if want else "invalid"]):
            r = getattr(logics, rule)()
            cmds.append((["check", "--matrix", name, "--rule", str(r)],
                         ("check", cat[name], r, want)))
    for cmd in ("leibniz", "classify", "dual"):
        for name in rng.sample(sorted(cat), q[cmd]):
            cmds.append(([cmd, "--matrix", name], (cmd, cat[name])))
    fm = frame.complex_matrix(random_frame(rng, rng.randint(3, 5))[0])
    os.makedirs(WORK_DIR, exist_ok=True)
    path = os.path.join(WORK_DIR, f"matrix-{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(fm.to_json())
    two_atom = sorted((r for r in logics.clause_pool() if r.atom_names() <= {"p", "q"}), key=str)
    for r in rng.sample(two_atom, q["file"]):
        cmds.append((["check", "--matrix", "@" + os.path.relpath(path, ROOT), "--rule", str(r)],
                     ("check", fm, r, None)))
    rng.shuffle(cmds)
    env = child_env()
    # one untimed cold start, so the first timed child does not also pay for
    # filling the file cache
    run_child(["check", "--matrix", "CL2", "--rule", "p |- p"], env)

    def check(i: int, got) -> Optional[str]:
        code, payload = got
        kind, m, *rest = cmds[i][1]
        if payload is None:
            return f"exit {code} without a JSON payload"
        if kind == "check":
            r, want = rest
            if want is None:
                want = brute_valid(m, r)
            if code != (0 if want else 1) or payload.get("valid") is not want:
                return f"exit {code}, valid={payload.get('valid')}, expected {want}"
            if not want:
                v = {a: m.labels.index(lbl) for a, lbl in payload["witness"].items()}
                refutes = all(matrix.evaluate(m, v, f) in m.designated for f in r.premises) \
                    and not any(matrix.evaluate(m, v, f) in m.designated for f in r.conclusions)
                if not refutes:
                    return f"witness {payload['witness']} does not refute {r}"
            return None
        if code != 0:
            return f"exit {code}"
        if kind == "leibniz":
            want = {frozenset(m.labels[x] for x in b) for b in brute_leibniz(m)}
            got_blocks = {frozenset(b) for b in payload["blocks"]}
            if got_blocks != want or len(payload["reduct"]["elements"]) != len(want):
                return f"blocks {payload['blocks']}, pair elimination gives {sorted(map(sorted, want))}"
            return None
        if kind == "classify":
            t = TriplePresentation(Graph.from_json(json.dumps(payload["plus"])),
                                   Graph.from_json(json.dumps(payload["minus"])),
                                   payload["singletons"])
            other = bridge.mu_triple(t)
        else:
            other = frame.complex_matrix(Frame.from_json(json.dumps(payload)))
        mapping = matrix.find_isomorphism(other, m)
        if mapping is None or not iso_confirmed(other, m, mapping):
            return f"{kind} output does not give back a matrix isomorphic to the input"
        return None

    def cleanup() -> None:
        with contextlib.suppress(OSError):
            os.remove(path)
            os.rmdir(WORK_DIR)

    facts = {
        "commands": [" ".join(argv) for argv, _ in cmds],
        "carrier_sizes": histogram(c[1][1].n for c in cmds),
    }
    return Job([lambda a=argv: run_child(a, env) for argv, _ in cmds], check, facts,
               in_children=True,
               trace_ops=[lambda a=argv: run_in_process(a) for argv, _ in cmds],
               cleanup=cleanup)


BUILDERS = {"alpha-sweep": _alpha, "small-checks": _small,
            "duality": _duality, "cli-oneshot": _cli}


def build(name: str, seed: int, tiny: bool = False) -> Job:
    """Inputs and operations of one workload; `tiny` is for the smoke test."""
    return BUILDERS[name](seed, tiny)
