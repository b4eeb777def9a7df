import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from clhavoc.eqform import EMPTY_EQ, EqFormula, Partition
from clhavoc.logic import Var

A, B, C, D, E = (Var(n) for n in "abcde")


def all_partitions(vars):
    """Every partition of `vars`, as a list of EqFormula."""
    vars = list(vars)
    if not vars:
        return [EMPTY_EQ]
    out = []

    def go(i, blocks):
        if i == len(vars):
            out.append(EqFormula(frozenset(frozenset(b) for b in blocks)))
            return
        v = vars[i]
        for b in blocks:
            b.add(v)
            go(i + 1, blocks)
            b.remove(v)
        blocks.append({v})
        go(i + 1, blocks)
        blocks.pop()

    go(0, [])
    return out


def models(phi: EqFormula, universe, domain_size):
    """All assignments of the universe consistent with the partition."""
    universe = sorted(universe)
    out = []
    for values in itertools.product(range(domain_size), repeat=len(universe)):
        nu = dict(zip(universe, values))
        if all(nu[x] == nu[y]
               for cls in phi.classes
               for x in cls for y in cls
               if x in nu and y in nu):
            out.append(tuple(nu[v] for v in universe))
    return set(out)


def test_conjoin_transitivity():
    a = EqFormula.make(pairs=[(A, B)])
    b = EqFormula.make(pairs=[(B, C)])
    j = a.conjoin(b)
    assert j.entails(A, C)


def test_conjoin_unit():
    a = EqFormula.make(pairs=[(A, B)])
    assert a.conjoin(EMPTY_EQ) == a


def test_marker_chain_closure():
    a = EqFormula.make(pairs=[(Var("b1"), A), (Var("e1"), B)])
    b = EqFormula.make(pairs=[(A, B)])
    assert a.conjoin(b).entails(Var("b1"), Var("e1"))


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


def test_exhaustive_conjoin_vs_intersection():
    vars = [A, B, C]
    parts = all_partitions(vars)
    for p1 in parts:
        for p2 in parts:
            sem = models(p1, vars, 3) & models(p2, vars, 3)
            assert models(p1.conjoin(p2), vars, 3) == sem


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


def test_rename():
    phi = EqFormula.make(pairs=[(A, B)])
    out = phi.rename({A: C})
    assert out.entails(C, B)
    assert A not in out.vars


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

