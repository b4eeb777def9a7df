import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc.eqform import EMPTY_EQ, EqFormula, Partition
from clhavoc.logic import Var
from reference import all_partitions, models

A, B, C, D, E = (Var(n) for n in "abcde")


def test_qelim_example():
    phi = EqFormula.make(pairs=[(A, B), (A, C)])
    assert phi.qelim([A]) == EqFormula.make(pairs=[(B, C)])
    assert EMPTY_EQ.qelim([A]) == EMPTY_EQ


def test_qelim_keeps_singletons():
    phi = EqFormula.make(vars=[A, B], pairs=[(A, B)])
    out = phi.qelim([B])
    assert out.vars == frozenset([A])
    assert out.entails(A, A)


def test_entails_basics():
    assert EqFormula.make(pairs=[(A, B)]).entails(A, B)
    assert not EMPTY_EQ.entails(A, B)
    assert EMPTY_EQ.entails(A, A)


def test_exhaustive_vs_brute_force_small():
    """qelim and entails agree with semantic checks on all 4-var partitions."""
    vars = [A, B, C, D]
    for phi in all_partitions(vars):
        sem = models(phi, vars, 4)
        for x, y in itertools.combinations(vars, 2):
            i, j = vars.index(x), vars.index(y)
            sem_entails = all(m[i] == m[j] for m in sem)
            assert phi.entails(x, y) == sem_entails
        for k in range(len(vars) + 1):
            for drop in itertools.combinations(vars, k):
                keep = [v for v in vars if v not in drop]
                proj = {tuple(m[vars.index(v)] for v in keep) for m in sem}
                got = models(phi.qelim(drop), keep, 4)
                assert got == proj, (phi, drop)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from([A, B, C, D, E]),
                          st.sampled_from([A, B, C, D, E])), max_size=6))
def test_random_partitions_vs_brute_force(pairs):
    phi = EqFormula.make(vars=[A, B, C, D, E], pairs=pairs)
    vars = [A, B, C, D, E]
    sem = models(phi, vars, 3)
    for x, y in itertools.combinations(vars, 2):
        i, j = vars.index(x), vars.index(y)
        assert phi.entails(x, y) == all(m[i] == m[j] for m in sem)


# The equality closures that Partition replaced, kept verbatim as references:
# EqFormula.make, logic._classes_of, oracle._base_classes and
# analysis._x1_closure.

def reference_make(vars=(), pairs=()):
    parent = {}

    def find(v):
        parent.setdefault(v, v)
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for v in vars:
        find(v)
    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in parent:
        groups.setdefault(find(v), set()).add(v)
    return EqFormula(frozenset(frozenset(g) for g in groups.values()))


def reference_classes_of(vars, eqs):
    index = {}
    parent = []

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def slot(v):
        if v not in index:
            index[v] = len(parent)
            parent.append(len(parent))
        return find(index[v])

    for v in vars:
        slot(v)
    for a, b in eqs:
        ra, rb = slot(a), slot(b)
        if ra != rb:
            parent[ra] = rb
    return {v: find(i) for v, i in index.items()}


def reference_base_classes(allvars, eqs):
    idx = {v: i for i, v in enumerate(allvars)}
    parent = list(range(len(allvars)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for a, b in eqs:
        ra, rb = find(idx[a]), find(idx[b])
        if ra != rb:
            parent[ra] = rb
    by_root = {}
    for v, i in idx.items():
        by_root.setdefault(find(i), set()).add(v)
    return [by_root[r] for r in sorted(by_root)]


def reference_x1_closure(x1, eqs):
    cls = {x1}
    changed = True
    while changed:
        changed = False
        for a, b in eqs:
            if a in cls and b not in cls:
                cls.add(b)
                changed = True
            if b in cls and a not in cls:
                cls.add(a)
                changed = True
    return cls


_pool = st.sampled_from([Var(n) for n in "abcdefgh"] + [Var("x", (1,)), Var("x", (2,))])


@settings(max_examples=400, deadline=None)
@given(st.lists(_pool, max_size=6), st.lists(st.tuples(_pool, _pool), max_size=10))
def test_partition_matches_reference_closures(items, pairs):
    # pairs may name items that `items` does not list
    first_seen = list(dict.fromkeys(items + [v for p in pairs for v in p]))

    assert Partition(items, pairs).roots() == reference_classes_of(items, pairs)

    # same classes in the same order, members in first-seen order
    assert Partition(items, pairs).classes() == [
        [v for v in first_seen if v in c] for c in reference_base_classes(first_seen, pairs)]

    assert EqFormula.make(items, pairs) == reference_make(items, pairs)

    for x1 in first_seen or [A]:
        roots = Partition([x1], pairs).roots()
        assert {v for v, r in roots.items() if r == roots[x1]} == reference_x1_closure(x1, pairs)

