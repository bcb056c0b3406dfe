import hashlib
import itertools
import random

import pytest

from demorgan_lab._order import canonical, pairs
from demorgan_lab.frame import (
    CompatiblePreorder, Frame, FrameError,
    complex_matrix, components, counit_check, disjoint_union, dual_frame,
    _structure, frame_isomorphic, frame_isomorphism, generate_preorder, immediate_quotients,
    is_reduced_frame, leibniz_subframe, quotient, random_frame,
    roundtrip_check, singleton_frame,
)
from demorgan_lab.matrix import (
    FinMatrix, MatrixError, MatrixMap, bd4, catalog, cl2, etl4, find_isomorphism, k3,
    leibniz_reduct, lp3, product,
)
from demorgan_lab.verify import _sweep_frames


def antichain_pair(designated):
    return Frame(["u", "v"], [], [1, 0], designated)


def test_frame_validation():
    with pytest.raises(FrameError):
        Frame(["a", "b"], [(0, 1), (1, 0)], [0, 1], [])  # antisymmetry
    with pytest.raises(FrameError):
        # involution swaps 0,1 but only one direction is ordered with 2
        Frame(["a", "b", "c"], [(0, 2)], [1, 0, 2], [])
    with pytest.raises(FrameError):
        Frame(["a", "b"], [(0, 1)], [0, 1], [])  # identity is not inverting here
    with pytest.raises(FrameError):
        # designated not an upset (chain with only the bottom designated)
        Frame(["a", "b"], [(0, 1)], [1, 0], [0])
    # the two-point chain with swapping involution is a valid frame
    Frame(["a", "b"], [(0, 1)], [1, 0], [0, 1])
    Frame(["a", "b", "c"], [(0, 1), (1, 2), (0, 2)], [2, 1, 0], [2])


def test_complex_matrix_identifications():
    assert find_isomorphism(complex_matrix(singleton_frame()), cl2()) is not None
    assert find_isomorphism(complex_matrix(antichain_pair([0, 1])), etl4()) is not None
    assert find_isomorphism(complex_matrix(antichain_pair([1])), bd4()) is not None
    chain = Frame(["u", "v"], [(0, 1)], [1, 0], [0, 1])
    assert find_isomorphism(complex_matrix(chain), k3()) is not None


def test_dual_frames():
    d = dual_frame(cl2())
    assert d.n == 1 and d.designated == {0} and d.invol == (0,)
    d = dual_frame(bd4())
    assert d.n == 2 and d.invol == (1, 0) and len(d.designated) == 1
    assert all(not d.le(i, j) for i in range(2) for j in range(2) if i != j)
    d = dual_frame(k3())
    assert d.n == 2 and len(d.designated) == 2
    assert sum(1 for i in range(2) for j in range(2) if i != j and d.le(i, j)) == 1
    # frames are immutable, so each matrix builds its dual frame once
    m = complex_matrix(random_frame(random.Random(3), 5))
    assert dual_frame(m) is dual_frame(m) and dual_frame(k3()) is d


def test_roundtrip_on_catalog():
    for name, m in catalog().items():
        assert roundtrip_check(m), name


def test_roundtrip_on_products():
    assert roundtrip_check(product([etl4(), bd4()]))
    assert roundtrip_check(product([cl2(), lp3()]))


def designation_is_filter(m):
    """The designated set is non-empty and the upset of its meet."""
    if not m.designated:
        return False
    gen = m.enc[m.top]
    for d in m.designated:
        gen &= m.enc[d]
    return m.designated == {x for x in range(m.n) if m.enc[x] & gen == gen}


def swapped(neg, x, y):
    out = list(neg)
    out[x], out[y] = out[y], out[x]
    return out


def test_roundtrip_rejects_trusted_mutants():
    # one designation flipped, the negation values of two elements swapped,
    # a negation pair off a fixpoint swapped into two fixpoints, or top's
    # negation moved off bottom (the dual frame stays the same, so only the
    # comparison of negations sees it): the mutant is a complex matrix iff
    # its negation still passes validate and its designated set is a filter
    rng = random.Random(9)
    seen = {"designation": set(), "negation": set(), "pair": set(), "top": set()}
    for _ in range(150):
        m = complex_matrix(random_frame(rng, 6))
        x, y = rng.randrange(m.n), rng.randrange(m.n)
        top_neg = list(m.neg)
        top_neg[m.top] = x
        mutants = [("designation", m.designated ^ {x}, m.neg),
                   ("negation", m.designated, swapped(m.neg, x, y)),
                   ("top", m.designated, top_neg)]
        off = [a for a in range(m.n) if m.neg[a] != a]
        if off:
            a = rng.choice(off)
            mutants.append(("pair", m.designated, swapped(m.neg, a, m.neg[a])))
        for kind, des, ng in mutants:
            mutant = FinMatrix._trusted(m.label, ng, m.top, m.bottom, des, m.flags, m.enc)
            try:
                FinMatrix(m.labels, ng, m.top, m.bottom, des, m.flags, enc=m.enc)
                want = designation_is_filter(mutant)
            except MatrixError:
                want = False
            assert roundtrip_check(mutant) == want, (kind, m.enc, ng, sorted(des))
            seen[kind].add(want)
    assert seen == {"designation": {False, True}, "negation": {False, True},
                    "pair": {False, True}, "top": {False, True}}


def test_complex_matrix_does_not_seed_its_dual_frame():
    # a seeded cache would make counit_check compare p with itself
    p = random_frame(random.Random(4), 6)
    m = complex_matrix(p)
    assert "_dual_frame" not in m.__dict__
    assert dual_frame(m) is not p and frame_isomorphic(dual_frame(m), p)


def test_counit_on_random_frames():
    rng = random.Random(7)
    for _ in range(60):
        assert counit_check(random_frame(rng, 8))


def counit_by_search(p):
    """counit_check as an isomorphism search between the dual frame of the
    complex matrix and p, the reference for the canonical map."""
    return frame_isomorphic(dual_frame(complex_matrix(p)), p)


def verdict(check, p):
    try:
        return check(p)
    except FrameError as e:
        return str(e)


BROKEN_LAWS = ("order is not transitive", "involution is not order-inverting",
               "involution is not an involution", "designated set is not an upset")


def broken_frames(rng, count):
    """For each of BROKEN_LAWS, count frames that break it (validate names
    it), built unchecked from random frames of up to 6 points with an order
    pair dropped or added, a new random involution or permutation, or a
    random designated set."""
    out = {law: [] for law in BROKEN_LAWS}
    while min(map(len, out.values())) < count:
        p = random_frame(rng, 6)
        up, invol, designated = list(p.up), list(p.invol), p.designated
        u, v = rng.randrange(p.n), rng.randrange(p.n)
        pts = list(range(p.n))
        rng.shuffle(pts)
        how = rng.randrange(5)
        if how < 2 and u != v:
            up[u] ^= 1 << v
        elif how == 2:
            for a, b in zip(pts[::2], pts[1::2]):
                invol[a], invol[b] = (b, a) if rng.random() < 0.5 else (a, b)
        elif how == 3:
            invol = pts
        elif how == 4:
            designated = [a for a in pts if rng.random() < 0.4]
        q = Frame._of_rows(p.labels, up, invol, designated)
        try:
            q.validate()
        except FrameError as e:
            if str(e) in out:
                out[str(e)].append(q)
    return out


def test_counit_by_its_canonical_map_matches_the_search():
    # valid frames: random ones of 1-8 points and those of verify's
    # criterion 4, where both hold; frames built unchecked that break a
    # law, where both raise the same error or both answer False
    rng = random.Random(19)
    frames = [random_frame(rng, points) for points in range(1, 9) for _ in range(25)]
    frames += _sweep_frames(0)
    assert {p.n for p in frames} == set(range(1, 9))
    for p in frames:
        assert counit_check(p) and counit_by_search(p)
    left = "negation left the upset lattice"
    want = {"order is not transitive": {left, False},
            "involution is not order-inverting": {left},
            "involution is not an involution": {left, "involution is not an involution"},
            "designated set is not an upset": {False}}
    for law, broken in broken_frames(rng, 60).items():
        outcomes = set()
        for p in broken:
            got = verdict(counit_check, p)
            assert got == verdict(counit_by_search, p), (law, p)
            outcomes.add(got)
        assert outcomes == want[law]


def test_leibniz_subframe_reduced_frame_is_itself():
    p = antichain_pair([0, 1])
    q = leibniz_subframe(p)
    assert frame_isomorphic(p, q)
    assert is_reduced_frame(p)


def test_leibniz_subframe_drops_nonminimal_points():
    # a designated fixpoint with an involution pair around it (v < a < u):
    # the minimal designated point is a alone, so u and v drop out
    p = Frame(["a", "u", "v"], [(0, 1), (2, 0), (2, 1)], [0, 2, 1], [0, 1])
    q = leibniz_subframe(p)
    assert q.n == 1 and q.labels == ("a",)
    assert not is_reduced_frame(p)
    # an undesignated involution pair next to designated singletons drops too
    p2 = Frame(["a", "b", "u", "v"], [], [0, 1, 3, 2], [0, 1])
    q2 = leibniz_subframe(p2)
    assert q2.n == 2 and set(q2.labels) == {"a", "b"}
    assert not is_reduced_frame(p2)


def test_is_reduced_frame():
    assert is_reduced_frame(antichain_pair([0, 1]))
    assert is_reduced_frame(singleton_frame())
    extra = disjoint_union([antichain_pair([0, 1]), antichain_pair([])])
    assert not is_reduced_frame(extra)
    for m in catalog().values():
        assert is_reduced_frame(dual_frame(leibniz_reduct(m)))


def test_leibniz_commutation_on_random_frames():
    rng = random.Random(3)
    for _ in range(60):
        p = random_frame(rng, 8)
        lhs = leibniz_reduct(complex_matrix(p))
        rhs = complex_matrix(leibniz_subframe(p))
        assert find_isomorphism(lhs, rhs) is not None


def test_complex_reduced_iff_frame_reduced():
    rng = random.Random(11)
    from demorgan_lab.matrix import leibniz_congruence
    for _ in range(40):
        p = random_frame(rng, 7)
        reduced_matrix = leibniz_congruence(complex_matrix(p)).is_identity()
        assert reduced_matrix == is_reduced_frame(p)


def test_reduced_frame_structure():
    # connected reduced frames with more than two points: minimal and
    # maximal points are disjoint and the designated set is everything or
    # exactly the maximal points
    rng = random.Random(5)
    seen = 0
    for _ in range(200):
        p = random_frame(rng, 8)
        q = leibniz_subframe(p)
        for comp in components(q):
            if comp.n <= 2:
                continue
            seen += 1
            mins = comp.min_of(range(comp.n))
            maxs = comp.max_of(range(comp.n))
            assert not (mins & maxs)
            assert comp.designated in (frozenset(range(comp.n)), maxs)
    assert seen > 0


def test_quotient_by_order_itself_is_isomorphic():
    p = Frame(["a", "b", "c", "d"], [(0, 2), (1, 3)], [2, 3, 0, 1], [2, 3])
    q = quotient(p, CompatiblePreorder(p, p.leq))
    assert frame_isomorphic(p, q)


def test_generate_preorder_and_quotient():
    # the 4-point frame of the one-edge graph: u1,u2 below the swapped
    # images of each other
    p = Frame(["u1", "u2", "d1", "d2"], [(0, 3), (1, 2)], [2, 3, 0, 1],
              [0, 1, 2, 3])
    # adding u1 <= d2 is already present: preorder equals the order
    q = generate_preorder(p, 0, 3)
    assert q.rel == p.leq
    # adding u1 <= u2 collapses nothing but adds comparabilities
    q2 = generate_preorder(p, 0, 1)
    assert (0, 1) in q2.rel and (3, 2) in q2.rel
    fr = quotient(p, q2)
    assert fr.n == 4
    # adding u1 <= d1 makes u1 comparable with its own image
    q3 = generate_preorder(p, 0, 2)
    fr3 = quotient(p, q3)
    assert fr3.n == 4 and fr3.le(fr3.labels.index("u1"), fr3.labels.index("d1"))


def test_quotients_dualize_to_strict_submatrix_embeddings():
    # for every immediate quotient pi: P -> Q, the preimage map embeds the
    # complex of Q into the complex of P strictly
    rng = random.Random(13)
    for _ in range(12):
        p = random_frame(rng, 6)
        mp = complex_matrix(p)
        for q in immediate_quotients(p):
            mq = complex_matrix(q)
            # match points of q to classes: rebuild the projection by labels
            proj = []
            for u in range(p.n):
                cls = [k for k in range(q.n)
                       if p.labels[u] in q.labels[k].split("+")]
                assert len(cls) == 1
                proj.append(cls[0])
            mapping = []
            for mask in mq.enc:
                pre = 0
                for u in range(p.n):
                    if mask >> proj[u] & 1:
                        pre |= 1 << u
                mapping.append(mp._enc_index()[pre])
            mm = MatrixMap(mq, mp, tuple(mapping))
            assert mm.is_homomorphism()
            assert len(set(mapping)) == mq.n  # injective: a submatrix copy
            # strictness on the image: designation is reflected
            assert all(
                (i in mq.designated) == (mapping[i] in mp.designated)
                for i in range(mq.n)
            )


def test_components_and_disjoint_union():
    s = singleton_frame
    u = disjoint_union([s("a"), s("b")])
    assert u.n == 2 and len(components(u)) == 2
    p = disjoint_union([antichain_pair([0, 1]), s("c")])
    assert len(components(p)) == 2
    # complex of a disjoint union is the product of the complexes
    lhs = complex_matrix(p)
    rhs = product([complex_matrix(antichain_pair([0, 1])), complex_matrix(s("c"))])
    assert find_isomorphism(lhs, rhs) is not None


def test_complex_of_union_is_product_random():
    rng = random.Random(17)
    for _ in range(10):
        p1 = random_frame(rng, 4)
        p2 = random_frame(rng, 4)
        lhs = complex_matrix(disjoint_union([p1, p2]))
        rhs = product([complex_matrix(p1), complex_matrix(p2)])
        assert find_isomorphism(lhs, rhs) is not None


def test_frame_json_roundtrip():
    p = Frame(["a", "b", "c", "d"], [(0, 2), (1, 3)], [2, 3, 0, 1], [2, 3])
    q = Frame.from_json(p.to_json())
    assert frame_isomorphic(p, q)
    # loader computes the reflexive-transitive closure
    import json
    raw = json.dumps({
        "points": ["a", "b", "c"],
        "leq": [[0, 1], [1, 2]],
        "invol": [2, 1, 0],
        "designated": [2],
    })
    fr = Frame.from_json(raw)
    assert fr.le(0, 2)
    with pytest.raises(FrameError):
        Frame.from_json(raw.replace('"invol": [2, 1, 0]', '"invol": [0, 1, 2]'))


def test_trusted_constructions_validate():
    # the frames built through Frame._of_rows, unchecked, hold the laws
    rng = random.Random(13)
    frames = [random_frame(rng, 7) for _ in range(60)]
    out = list(frames)
    out += [p.restrict(sorted({u, p.invol[u]})) for p in frames[:20] for u in range(p.n)]
    out += [c for p in frames for c in components(p)]
    out += [leibniz_subframe(p) for p in frames]
    out += [disjoint_union(frames[i:i + 3]) for i in range(0, 30, 3)]
    out += [q for p in frames[:20] for q in immediate_quotients(p)]
    out += [dual_frame(m) for m in catalog().values()]
    assert len(out) > 400
    for p in out:
        p.validate()
    with pytest.raises(FrameError, match="distinct point indices"):
        frames[0].restrict([0, 0])
    with pytest.raises(FrameError, match="distinct point indices"):
        frames[0].restrict([frames[0].n])


def _frames_digest(frames, with_labels=False):
    h = hashlib.sha256()
    for p in frames:
        data = (sorted(p.leq), p.invol, sorted(p.designated))
        h.update(repr((p.labels, *data) if with_labels else data).encode())
    return h.hexdigest()


def test_random_frames_and_quotients_are_frozen():
    # random_frame draws the inputs of the duality criteria and
    # immediate_quotients' order fixes later searches: both stay put
    want = ["f3e250b083c8f3c317b2d2aeb88abb315b9ac2b8b72bdeb1dbd88515a465115a",
            "178c058ee628b6ebbfb06c0abba3a81e0e2f28cad21966df25fc0e7b801ebdf0",
            "2494ea670c442cce2700c9692c583f485429701346345de26907e7279c2901ff"]
    for seed, digest in enumerate(want):
        rng = random.Random(seed)
        assert _frames_digest([random_frame(rng, 8) for _ in range(100)]) == digest
    rng = random.Random(0)
    quotients = [q for _ in range(30) for q in immediate_quotients(random_frame(rng, 7))]
    assert len(quotients) == 133
    assert (_frames_digest(quotients, with_labels=True)
            == "0ca91334932b263eaab4d32fed05e7176db169e29cf546b92832dc9ae70dd190")


def test_immediate_quotients_against_every_pair():
    # the search without the mirror-pair cut: every pair outside the order
    # generates a compatible preorder, and the atoms among them give the
    # quotients, in the same order
    rng = random.Random(29)
    for _ in range(150):
        p = random_frame(rng, 8)
        gen = {}
        for u, v in itertools.product(range(p.n), repeat=2):
            if not p.le(u, v):
                q = generate_preorder(p, u, v)
                gen.setdefault(q.up, q)
        rels = sorted(gen, key=lambda up: sorted(pairs(up)))
        want = [quotient(p, gen[r]) for r in rels
                if not any(o != r and all(a & ~b == 0 for a, b in zip(o, r)) for o in rels)]
        assert [q.to_json() for q in immediate_quotients(p)] == [q.to_json() for q in want]


def _relabelled(p, perm):
    inv = {u: i for i, u in enumerate(perm)}
    return Frame([p.labels[u] for u in perm], [(inv[i], inv[j]) for i, j in p.leq],
                 [inv[p.invol[u]] for u in perm], [inv[d] for d in p.designated])


def test_frame_isomorphism_against_all_permutations():
    rng = random.Random(9)
    found = missed = 0
    for _ in range(150):
        p = random_frame(rng, 6)
        perm = list(range(p.n))
        rng.shuffle(perm)
        q = _relabelled(p, perm) if rng.random() < 0.5 else random_frame(rng, 6)
        isos = {
            s for s in itertools.permutations(range(p.n)) if q.n == p.n
            and all(p.le(i, j) == q.le(s[i], s[j]) for i in range(p.n) for j in range(p.n))
            and all(s[p.invol[u]] == q.invol[s[u]]
                    and (u in p.designated) == (s[u] in q.designated) for u in range(p.n))
        }
        mapping = frame_isomorphism(p, q)
        assert (mapping is not None) == bool(isos) == frame_isomorphic(p, q)
        assert mapping is None or mapping in isos
        found += bool(isos)
        missed += not isos
    assert found > 40 and missed > 40


def test_frame_keys_are_equal_exactly_for_isomorphic_frames():
    # the canonical form of a frame's structure, which log_leq compares,
    # against the isomorphism search: relabelled copies, and frames of one
    # size drawn apart
    rng = random.Random(12)
    frames = [random_frame(rng, 7) for _ in range(300)]
    isomorphic = 0
    for p in frames:
        perm = list(range(p.n))
        rng.shuffle(perm)
        q = _relabelled(p, perm)
        assert canonical(_structure(p)) == canonical(_structure(q))
    by_size = {}
    for p in frames:
        by_size.setdefault(p.n, []).append(p)
    for same_size in by_size.values():
        for p, q in itertools.combinations(same_size[:25], 2):
            agree = canonical(_structure(p)) == canonical(_structure(q))
            assert agree == frame_isomorphic(p, q), (p, q)
            isomorphic += agree
    assert isomorphic > 20
