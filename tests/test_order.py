"""The bitmask-row closure, isomorphism search and canonical form on
arbitrary relations, against a pair-set fixpoint and against all
permutations; and the record classes on the Record base, and the derived
memo."""

import itertools
import pickle
import random

import pytest

from demorgan_lab._order import (
    Record, Structure, canonical, closure, derived, explore, isomorphism, pairs, set_field,
    transpose,
)


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
        assert (canonical(p) == canonical(q)) == bool(isos)
        found += bool(isos)
        missed += not isos
    assert found > 1000 and missed > 500


def record_cases():
    """(class, its fields by keyword in order, frozen) for every record
    class of the package."""
    from demorgan_lab.bridge import TriplePresentation
    from demorgan_lab.formula import And, Atom, Neg, Or, RuleInstance
    from demorgan_lab.graph import GraphPair, complete, point
    from demorgan_lab.logics import NamedLogic, ProbeResult
    from demorgan_lab.matrix import MatrixMap, Partition, k3
    from demorgan_lab.verify import VerifyResult
    p, q = Atom("p"), Atom("q")
    return [
        (Atom, {"name": "p"}, True),
        (Neg, {"arg": p}, True),
        (And, {"left": p, "right": q}, True),
        (Or, {"left": p, "right": q}, True),
        (RuleInstance, {"premises": frozenset([p]), "conclusions": frozenset([q])}, True),
        (Partition, {"blocks": (0, 1, 0)}, True),
        (GraphPair, {"graph": complete(2), "counter": 1}, True),
        (TriplePresentation, {"plus_graph": complete(2), "minus_graph": point(),
                              "singletons": 1}, True),
        (NamedLogic, {"name": "K", "semantics": (k3(),), "axioms": (), "exact": False}, True),
        (MatrixMap, {"source": k3(), "target": k3(), "mapping": (0, 1, 2)}, False),
        (ProbeResult, {"names": ["K"], "inclusions": [], "hasse": [], "equivalent": []}, False),
        (VerifyResult, {"number": 1, "name": "catalog", "passed": True, "detail": "ok",
                        "seconds": 0.25}, False),
    ]


@pytest.mark.parametrize("case", record_cases(), ids=lambda c: c[0].__name__)
def test_records_keep_the_dataclass_contract(case):
    cls, fields, frozen = case
    values = tuple(fields.values())
    x, y = cls(*values), cls(**fields)
    assert x == y and not x != y and x is not y
    assert tuple(getattr(x, name) for name in fields) == values
    assert x != object() and x.__eq__(object()) is NotImplemented
    name = next(iter(fields))
    if frozen:
        assert hash(x) == hash(y) == hash(values)
        for attr in fields:
            with pytest.raises(AttributeError):
                setattr(x, attr, getattr(y, attr))
            with pytest.raises(AttributeError):
                delattr(x, attr)
        assert x == y
    else:
        with pytest.raises(TypeError):
            hash(x)
        setattr(x, name, None)
        assert getattr(x, name) is None and x != y
    with pytest.raises(TypeError):
        cls(*values, None)


def test_record_cases_name_every_record_class():
    # a record class added later cannot skip the contract above; the
    # field-less Formula, _Top and _Bot are checked below
    import importlib
    import pkgutil

    import demorgan_lab

    for info in pkgutil.iter_modules(demorgan_lab.__path__):
        importlib.import_module(f"demorgan_lab.{info.name}")
    found, todo = set(), [Record]
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls._fields and cls.__module__.startswith("demorgan_lab."):
                found.add(cls)
    assert found == {cls for cls, _, _ in record_cases()}


def test_record_equality_checks_and_reprs():
    from demorgan_lab.bridge import TriplePresentation
    from demorgan_lab.formula import BOT, TOP, And, Atom, Or, parse_rule
    from demorgan_lab.graph import GraphError, GraphPair, complete, point
    from demorgan_lab.logics import NamedLogic
    from demorgan_lab.matrix import Partition, k3
    from demorgan_lab.verify import VerifyResult
    p, q = Atom("p"), Atom("q")
    # equality holds within one class only
    assert And(p, q) != Or(p, q) and TOP != BOT and TOP == TOP and hash(TOP) == hash(())
    assert len({And(p, q), Or(p, q), And(p, q)}) == 2
    # the checks of the former __post_init__
    with pytest.raises(ValueError, match="bad atom name"):
        Atom("P")
    with pytest.raises(GraphError, match="non-negative"):
        GraphPair(complete(2), -1)
    with pytest.raises(ValueError, match="non-negative"):
        TriplePresentation(complete(2), point(), -1)
    assert NamedLogic("K", (k3(),), ()).exact is True
    assert NamedLogic(name="K", semantics=(k3(),), axioms=()) == NamedLogic("K", (k3(),), (), True)
    assert repr(parse_rule("p |- q")) == ("RuleInstance(premises=frozenset({parse('p')}), "
                                          "conclusions=frozenset({parse('q')}))")
    assert repr(Partition((0, 1, 0))) == "Partition(blocks=(0, 1, 0))"
    assert repr(VerifyResult(1, "catalog", True, "ok", 0.25)) == (
        "VerifyResult(number=1, name='catalog', passed=True, detail='ok', seconds=0.25)")


# -- the derived memo -------------------------------------------------------


class Box:
    def __init__(self, value):
        self.value = value


def counted(fn):
    """fn, wrapped to list the objects it is called on, and that list."""
    calls = []

    def wrapped(x):
        calls.append(x)
        return fn(x)

    wrapped.__name__ = fn.__name__
    return wrapped, calls


def test_derived_computes_once_per_object():
    def double(box):
        return 2 * box.value

    fn, calls = counted(double)
    get = derived(fn)
    a, b = Box(1), Box(5)
    assert get(a) == 2 and "_double" not in b.__dict__  # objects never share values
    assert [get(b), get(a), get(b), get(a)] == [10, 2, 10, 2]
    assert calls == [a, b]
    assert a.__dict__["_double"] == 2 and b.__dict__["_double"] == 10
    b.value = 7  # what is kept stays: derived data is for immutable objects
    assert get(b) == 10 and calls == [a, b]
    assert get.__name__ == "double" and get.__wrapped__ is fn


def test_derived_keeps_none_but_no_exception():
    def nothing(box):
        return None

    fn, calls = counted(nothing)
    get = derived(fn)
    a = Box(0)
    assert get(a) is None and get(a) is None and calls == [a]
    assert a.__dict__["_nothing"] is None

    def inverse(box):
        return 1 / box.value

    fn, calls = counted(inverse)
    get = derived(fn)
    for _ in range(2):
        with pytest.raises(ZeroDivisionError):
            get(a)
    assert calls == [a, a] and "_inverse" not in a.__dict__
    a.value = 4
    assert get(a) == 0.25 and get(a) == 0.25 and calls == [a, a, a]


def test_derived_methods_of_frozen_records():
    class Pair(Record, frozen=True):
        left: int
        right: int

        def __init__(self, left, right):
            set_field(self, "left", left)
            set_field(self, "right", right)

        @derived
        def total(self):
            return self.left + self.right

    p, q, r = Pair(1, 2), Pair(1, 2), Pair(3, 4)
    assert p.total() == 3 and "_total" not in q.__dict__
    # equality, hashing and repr read the fields alone
    assert p == q and hash(p) == hash(q) and repr(p).endswith("Pair(left=1, right=2)")
    assert r.total() == 7 and p.total() == 3 and q.total() == 3
    with pytest.raises(AttributeError):
        p.left = 5


def test_a_pickled_formula_carries_no_derived_data():
    from demorgan_lab.formula import parse

    f = parse("p & ~q | r")
    assert f.program().names == ("p", "q", "r") and isinstance(hash(f), int)
    assert {"_program", "_hash"} <= set(f.__dict__) and "_hash" in f.left.__dict__
    g = pickle.loads(pickle.dumps(f))
    assert g == f and g.program() == f.program()
    for h in (pickle.loads(pickle.dumps(f)), pickle.loads(pickle.dumps(f)).left.right):
        assert not [k for k in h.__dict__ if k.startswith("_")]


def test_catalog_and_registry_are_built_once():
    from demorgan_lab.logics import registry
    from demorgan_lab.matrix import bd4, catalog, dm4_algebra, k3, lp3

    assert bd4() is bd4() and catalog()["BD4"] is bd4() and dm4_algebra() is dm4_algebra()
    # registry logics share the catalog's matrices: probe_lattice keys its
    # memo by matrix identity
    assert registry("KO").semantics[0] is k3() and registry("KO").semantics[1] is lp3()
    assert registry("ko") is registry("KO") and registry("KOVECQ").semantics[1] is k3()


# a small move graph: 3 is reached from 0 by two paths, 4 is a dead end
MOVES = {0: [1, 2], 1: [3], 2: [3, 4], 3: [0], 4: [], 5: [4, 6], 6: []}


def test_explore_is_breadth_first_with_depths():
    assert list(explore([0], MOVES.__getitem__, lambda x: x)) == [
        (0, 0), (1, 1), (2, 1), (3, 2), (4, 2)]
    # one item per key: 3 shares 2's key, and 2 is met first
    assert list(explore([0], MOVES.__getitem__, {0: 0, 1: 1, 2: 2, 3: 2, 4: 4}.get)) == [
        (0, 0), (1, 1), (2, 1), (4, 2)]


def test_explore_does_not_move_on_from_depth_steps():
    def moves(x):
        assert x < 2, x  # the chain's item at depth 2 is never moved on from
        return [x + 1]

    assert list(explore([0], moves, lambda x: x, steps=2)) == [(0, 0), (1, 1), (2, 2)]
    assert list(explore([0], moves, lambda x: x, steps=0)) == [(0, 0)]


def test_explore_skips_a_start_whose_key_was_met():
    # 3 was reached from 0 and 0 was the first start; 5 is new, and its
    # move to 4 is known
    assert list(explore([0, 3, 0, 5], MOVES.__getitem__, lambda x: x)) == [
        (0, 0), (1, 1), (2, 1), (3, 2), (4, 2), (5, 0), (6, 1)]


def test_explore_yields_before_computing_moves():
    def moves(x):
        raise AssertionError("moves computed")

    def starts():
        yield "a"
        raise AssertionError("second start built")

    search = explore(starts(), moves, lambda x: x)
    assert next(search) == ("a", 0)
