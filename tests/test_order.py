"""The bitmask-row closure and isomorphism search on arbitrary relations,
against a pair-set fixpoint and against all permutations."""

import itertools
import random

from demorgan_lab._order import Structure, closure, isomorphism, pairs, transpose


def test_closure_matches_pair_fixpoint():
    rng = random.Random(2)
    for _ in range(300):
        n = rng.randint(1, 9)
        rel = {(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))}
        want = rel | {(i, i) for i in range(n)}
        while True:
            more = {(i, l) for i, j in want for k, l in want if j == k} - want
            if not more:
                break
            want |= more
        up = [sum(1 << j for i2, j in rel if i2 == i) for i in range(n)]
        assert pairs(closure(up)) == want
        assert pairs(transpose(closure(up))) == {(j, i) for i, j in want}


def test_isomorphism_against_all_permutations():
    # directed relations, maps that need not be bijective (or the
    # identity), and colours (or none)
    rng = random.Random(6)
    found = missed = 0
    for _ in range(3000):
        n = rng.randint(0, 5)
        up = [sum(1 << j for j in range(n) if rng.random() < 0.4) for _ in range(n)]
        f = [rng.randrange(n) for _ in range(n)] if rng.random() < 0.5 else list(range(n))
        colours = [rng.randrange(2) if rng.random() < 0.3 else 0 for _ in range(n)]
        perm = list(range(n))
        rng.shuffle(perm)
        inv = {p: i for i, p in enumerate(perm)}
        up2 = [sum(1 << inv[j] for j in range(n) if up[p] >> j & 1) for p in perm]
        f2 = [inv[f[p]] for p in perm]
        colours2 = [colours[p] for p in perm]
        if n and rng.random() < 0.6:  # maybe no longer a copy
            if rng.random() < 0.5:
                up2[rng.randrange(n)] ^= 1 << rng.randrange(n)
            else:
                f2[rng.randrange(n)] = rng.randrange(n)
        p = Structure(up, transpose(up), f, colours)
        q = Structure(up2, transpose(up2), f2, colours2)
        isos = {
            s for s in itertools.permutations(range(n))
            if all((up[i] >> j & 1) == (up2[s[i]] >> s[j] & 1)
                   for i in range(n) for j in range(n))
            and all(s[f[u]] == f2[s[u]] and colours[u] == colours2[s[u]] for u in range(n))
        }
        mapping = isomorphism(p, q)
        assert (mapping is not None) == bool(isos)
        assert mapping is None or mapping in isos
        found += bool(isos)
        missed += not isos
    assert found > 1000 and missed > 500
