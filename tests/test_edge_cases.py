"""Cross-validation on systems that stress less-traveled transducer paths:
nondeterministic behaviors, ternary interaction types with several rewrites
at one node, and steps through absent components."""

from conftest import FIXTURES

from clhavoc.frontend import parse_system
from clhavoc.oracle import cross_validate_reduction, havoc_invariant_bounded
from clhavoc.reduction import reduce_havoc_to_entailment

NONDET_RING = """
# tokens may stick: firing out either passes the token or keeps it
behavior {
  ports in, out;
  states H, T;
  trans T -out-> H;
  trans T -out-> T;
  trans H -in-> T;
}
sid {
  Ring[h=0..1, t=0..1]() <- exists x, y . <x.out, y.in> * Chain[h, t](y, x);
  Chain[h=0..1, t=0..1](x, y) <- exists z . comp(x : H) * <x.out, z.in> * Chain[max(h-1, 0), t](z, y);
  Chain[h=0..1, t=0..1](x, y) <- exists z . comp(x : T) * <x.out, z.in> * Chain[h, max(t-1, 0)](z, y);
  Chain[0, 1](x, y) <- x = y * comp(x : T);
  Chain[1, 0](x, y) <- x = y * comp(x : H);
  Chain[0, 0](x, y) <- x = y * comp(x);
}
"""

TRIPLE = """
# one ternary synchronization; all three parties are pinned
behavior {
  ports p, q, r;
  states s0, s1;
  trans s0 -p-> s1;
  trans s0 -q-> s1;
  trans s1 -r-> s0;
}
sid {
  Triple() <- exists a, b, c . <a.p, b.q, c.r> * comp(a : s0) * comp(b : s0) * comp(c : s1);
  Cell(x) <- comp(x : s0);
  Wide() <- exists a, b, c . <a.p, b.q, c.r> * comp(c : s1) * Cell(a) * Cell(b);
}
"""


def test_nondeterministic_ring_cross_validation():
    sf = parse_system(NONDET_RING)
    result = reduce_havoc_to_entailment(sf.sid, "Ring_1_1", assume_tight=True)
    cross = cross_validate_reduction(sf.sid, "Ring_1_1", 4, result)
    assert cross.equal, (cross.left_only, cross.right_only)
    # sticking tokens can drain the last hole, so invariance fails here
    rep = havoc_invariant_bounded(sf.sid, "Ring_1_1", 4)
    assert not rep.invariant


def test_ternary_interaction_single_node():
    sf = parse_system(TRIPLE)
    result = reduce_havoc_to_entailment(sf.sid, "Triple", assume_tight=True)
    cross = cross_validate_reduction(sf.sid, "Triple", 2, result)
    assert cross.equal, (cross.left_only, cross.right_only)
    assert cross.left_size == 1  # exactly the fired (s1, s1, s0) configuration
    rep = havoc_invariant_bounded(sf.sid, "Triple", 2)
    assert not rep.invariant


def test_ternary_interaction_split_across_children():
    sf = parse_system(TRIPLE)
    result = reduce_havoc_to_entailment(sf.sid, "Wide", assume_tight=True)
    cross = cross_validate_reduction(sf.sid, "Wide", 3, result)
    assert cross.equal, (cross.left_only, cross.right_only)
    assert cross.left_size == 1


def test_step_through_absent_component():
    # the dangling config fires through an absent id whose state is tracked
    sf = parse_system((FIXTURES / "misc.clsys").read_text())
    from clhavoc.core import havoc_closure
    g = sf.configs["dangling"]
    reach = havoc_closure(sf.behavior, g)
    assert len(reach) == 2
    assert any(h.state_map["ghost"] == "idle" for h in reach)
