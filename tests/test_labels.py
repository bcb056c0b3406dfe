"""Element labels are a derived cache: trusted constructions keep a function
naming element i, `labels` builds the tuple on first read and `label(i)`
names one element.  Each construction is checked against the eager
comprehension it replaced, and the labels and JSON of all of them are
pinned by a digest recorded when labels were still built eagerly."""

import hashlib
import itertools
import random

from demorgan_lab.bridge import TriplePresentation, gamma, mu_plus, mu_triple, p_plus, p_triple
from demorgan_lab.frame import Frame, complex_matrix, random_frame
from demorgan_lab.graph import all_graphs
from demorgan_lab.matrix import (
    catalog, cl2, etl4, bd4, leibniz_congruence, leibniz_reduct, lp3, product, split_at,
    submatrices,
)

# the digest was recorded with the JSON of matrices up to this size and the
# labels alone beyond; test_matrix checks to_json on larger matrices
JSON_LIMIT = 256


def set_labels(names, masks):
    """The eager labels of complex_matrix and gamma: set notation up to
    2048 elements, U<i> beyond."""
    if len(masks) > 2048:
        return tuple(f"U{i}" for i in range(len(masks)))
    return tuple("{" + ",".join(names[u] for u in range(len(names)) if x >> u & 1) + "}"
                 for x in masks)


def antichain(points):
    return Frame([f"a{i}" for i in range(points)], [], list(range(points)), [])


def label_cases():
    """(matrix, eager labels) for every construction that names elements."""
    rng = random.Random(11)
    out = []
    for points in range(1, 12):
        for _ in range(3):
            p = random_frame(rng, points)
            m = complex_matrix(p)
            out.append((m, set_labels(p.labels, m.enc)))
    big = complex_matrix(antichain(12))
    out.append((big, set_labels(antichain(12).labels, big.enc)))
    for g in all_graphs(3, allow_isolated=True, allow_empty=True):
        m = mu_plus(g)
        out.append((m, set_labels(p_plus(g).labels, m.enc)))
        t = TriplePresentation(g, g, 1)
        m = mu_triple(t)
        out.append((m, set_labels(p_triple(t).labels, m.enc)))
        if g.n:
            m = gamma(g)
            out.append((m, set_labels(g.labels, range(1 << g.n))))
    # Leibniz reducts: block b is named after its first element
    for m, labels in list(out):
        if m.n <= 2048:
            part = leibniz_congruence(m)
            out.append((leibniz_reduct(m), tuple(labels[min(b)] for b in part.block_sets())))
    cat = list(catalog().values())
    small = [m for m, _ in out if 5 <= m.n <= 20][:3]
    pairs = [(a, b) for a in cat for b in cat] + [(small[0], etl4()), (bd4(), small[1])]
    for a, b in pairs:
        out.append((product([a, b]), tuple("(" + x + "," + y + ")"
                                           for x, y in itertools.product(a.labels, b.labels))))
    out.append((product([cl2(), lp3(), bd4()]),
                tuple(f"({x},{y},{z})" for x, y, z in
                      itertools.product(cl2().labels, lp3().labels, bd4().labels))))
    # a submatrix names each element as its source does; masks are kept
    for m in cat + [product([cl2(), lp3()]), small[2]]:
        at = {x: i for i, x in enumerate(m.enc)}
        for s in submatrices(m):
            out.append((s, tuple(m.labels[at[x]] for x in s.enc)))
    # a split interval [bottom, c] lists the elements below c in order
    for m in cat + [product([cl2(), lp3()]), product([etl4(), bd4()])]:
        for a in range(m.n):
            if m.join(a, m.neg[a]) == m.top:
                for c, part in zip((a, m.neg[a]), split_at(m, a)):
                    out.append((part, tuple(m.labels[x] for x in range(m.n) if m.leq(x, c))))
    return out


def labels_digest(ms):
    h = hashlib.sha256()
    for m in ms:
        h.update(repr(m.labels).encode())
        if m.n <= JSON_LIMIT:
            h.update(m.to_json().encode())
    return h.hexdigest()


def test_lazy_labels_equal_the_eager_ones():
    cases = label_cases()
    assert len(cases) == 347
    assert any(m.n > 2048 for m, _ in cases)
    for m, want in cases:
        assert m.labels == want
        assert [m.label(i) for i in range(m.n)] == list(want)


def test_labels_are_built_on_first_read():
    m = complex_matrix(random_frame(random.Random(3), 6))
    assert "_labels" not in m.__dict__
    assert m.label(m.top) == m.labels[m.top]
    assert m.__dict__["_labels"] is m.labels
    assert "_labels" in bd4().__dict__  # given to the public constructor


def test_labels_and_json_are_frozen():
    assert (labels_digest(m for m, _ in label_cases())
            == "7378134b4afd716115a5175d5968cef8bddc850bc211a55bfac5549ad98192be")
