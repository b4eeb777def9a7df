"""The havoc-to-entailment pipeline and class equivalence."""

import hashlib
import json

import pytest
from conftest import FIXTURES, load, reduced_text, source_fixtures
from reference import reference_class_equiv

from clhavoc import transducer
from clhavoc.core import Behavior
from clhavoc.eqform import EqFormula
from clhavoc.frontend import Query, SystemFile, parse_system, render_system
from clhavoc.logic import Comp, Eq, Inter, Neq, Pred, Rule, SID, StateAtom, Var
from clhavoc.oracle import cross_validate_reduction, entails_bounded
from clhavoc.reduction import (TightnessNotEstablished,
                               UnallocatedStateAtom, class_equiv, manifest_dict,
                               reduce_havoc_to_entailment)


@pytest.fixture(scope="module")
def ring_reduction(ring):
    return reduce_havoc_to_entailment(ring.sid, "Ring_1_1", assume_tight=True)


@pytest.fixture(scope="module")
def tll_reduction(tll):
    return reduce_havoc_to_entailment(tll.sid, "Root", assume_tight=True)


@pytest.fixture(scope="module")
def ring3():
    """The token ring with budgets h, t = 0..3."""
    text = (FIXTURES / "ring.clsys").read_text().replace("=0..1", "=0..3")
    return parse_system(text)


@pytest.fixture(scope="module")
def ring3_reduction(ring3):
    return reduce_havoc_to_entailment(ring3.sid, "Ring_3_3", assume_tight=True)


def test_gate_requires_tightness_evidence(ring):
    with pytest.raises(TightnessNotEstablished):
        reduce_havoc_to_entailment(ring.sid, "Ring_1_1")


def test_state_atom_on_a_shadowing_binder_is_refused():
    # the inner x is not the allocated outer x: it is bound as the fresh x_1
    sid = parse_system("""
    behavior { ports in, out; states H, T; trans T -out-> H; trans H -in-> T; }
    sid {
      R() <- exists x, y . comp(x : H) * comp(y : T) * <x.in, y.out>
                           * (exists x . state(x : H));
    }
    """).sid
    with pytest.raises(UnallocatedStateAtom, match="rule 1 of R has a state atom on x_1,"):
        reduce_havoc_to_entailment(sid, "R", assume_tight=True)


def test_pcr_sid_unlocks_gate(pcring):
    result = reduce_havoc_to_entailment(pcring.sid, "PcRing_1_1")
    assert result.tightness == "pcr"


def test_targets_have_matching_arity(ring_reduction, tll_reduction, pcring):
    for result in (ring_reduction, tll_reduction,
                   reduce_havoc_to_entailment(pcring.sid, "PcRing_1_1")):
        base_arity = result.base_sid.arity(result.predicate)
        for t in result.targets:
            assert result.derived_sid.arity(t) == base_arity


def test_ring_entailments_hold(ring, ring_reduction):
    assert ring_reduction.targets
    for lhs, rhs in ring_reduction.entailments:
        assert entails_bounded(ring_reduction.combined_sid, lhs, rhs, 4).holds


def test_th_reduction_entailment_fails(bad):
    result = reduce_havoc_to_entailment(bad.sid, "TH", assume_tight=True)
    assert result.targets
    held = [entails_bounded(result.combined_sid, lhs, rhs, 1).holds
            for lhs, rhs in result.entailments]
    assert not all(held)


def test_no_interaction_atoms_vacuous():
    sid = SID((Rule("A", (Var("x1"),), (), (Comp(Var("x1")), StateAtom(Var("x1"), "q"))),),
              Behavior.make(["p"], ["q"], []))
    result = reduce_havoc_to_entailment(sid, "A")
    assert result.targets == ()
    assert result.entailments == ()


def test_cross_validation_ring(ring, ring_reduction):
    cross = cross_validate_reduction(ring.sid, "Ring_1_1", 3, ring_reduction)
    assert cross.equal, (cross.left_only, cross.right_only)


def test_cross_validation_pcring_bare_comp_boundary(pcring):
    """The rewrite needs a component atom with a state pin; pcRing anchors the
    chain on a parameter, so successors whose only witness unfolding ends in
    the bare-comp base rule are missed by the image.  The image side stays
    sound: it never produces a model that is not a one-step successor."""
    result = reduce_havoc_to_entailment(pcring.sid, "PcRing_1_1")
    cross = cross_validate_reduction(pcring.sid, "PcRing_1_1", 3, result)
    assert cross.right_only == []
    assert cross.left_only  # the documented under-approximation


def test_cross_validation_no_interactions():
    sid = SID((Rule("A", (Var("x1"),), (), (Comp(Var("x1")), StateAtom(Var("x1"), "q"))),),
              Behavior.make(["p"], ["q"], []))
    result = reduce_havoc_to_entailment(sid, "A")
    cross = cross_validate_reduction(sid, "A", 2, result)
    assert cross.equal
    assert cross.left_size == cross.right_size == 0


def test_manifest_is_deterministic(ring_reduction):
    a = json.dumps(manifest_dict(ring_reduction), sort_keys=True)
    b = json.dumps(manifest_dict(ring_reduction), sort_keys=True)
    assert a == b
    m = manifest_dict(ring_reduction)
    assert m["predicate"] == "Ring_1_1"
    assert m["tightness"] == "assumed"
    assert set(m["targets"]) <= set(m["states"])


# sha256 of the reduced text and of the sorted-key manifest JSON; the
# reduced texts pass tied variables straight to each call (no glue equalities)
PINNED_DIGESTS = {
    "PcRing_1_1": ("7b675f50ccc496cc4c8ee80c00b076391ebcd9f7fb3dd46ec79c1d657203f7b5",
                   "d3d0c800a904592b5bd26de439779eef6495267121f6acc450ab41acb1c4d57c"),
    "Ring_1_1": ("3041a960121fafbb9b4bfa3af79e11fa4bebcb72c6359f4452d1a021571eed6a",
                 "a8d4461ea6059f7369a8ca2be2a6ae444f416f085386127344d7875a87eb8175"),
    "Ring_3_3": ("d96479f2d684990625d43c8094d579caa68371921d2017253a5d0fd9fd6ff409",
                 "fe3cf84e0291f60752e23d4859eef088d64d55ed19140ec4fa2e0544c746ff3c"),
    "Root": ("5d48b4fee0a0b91644a92d4acf74685c2d62cdba4994016cca0d0a3cc8c45023",
             "b8a58e18253f63d985544ba40ee844da5fc978029b79ce2daa7530445a7166f3"),
    "Ring_5_5": ("3d2e4dc7a509a2c7fff8fcae41bf34a29ff5c34c3c6f64991afaad6ba355d91c",
                 "d1de7e1ecf00d7657697e2e39bea4ade78d529750c7a27c7f50d881a88e5a8e9"),
}


def test_reduction_output_pinned(pcring, ring, ring_reduction, ring3, ring3_reduction,
                                 tll, tll_reduction):
    """Reduction output must not drift between versions, not only between runs."""
    pcring_reduction = reduce_havoc_to_entailment(pcring.sid, "PcRing_1_1", assume_tight=True)
    ring5 = parse_system((FIXTURES / "ring.clsys").read_text().replace("=0..1", "=0..5"))
    ring5_reduction = reduce_havoc_to_entailment(ring5.sid, "Ring_5_5", assume_tight=True)
    for sf, result in ((pcring, pcring_reduction), (ring, ring_reduction),
                       (ring3, ring3_reduction), (tll, tll_reduction),
                       (ring5, ring5_reduction)):
        manifest = json.dumps(manifest_dict(result), sort_keys=True)
        got = tuple(hashlib.sha256(t.encode()).hexdigest()
                    for t in (reduced_text(sf, result), manifest))
        assert got == PINNED_DIGESTS[result.predicate]


def test_manifest_renders_each_partition_once(monkeypatch):
    """On Ring_5_5 the reduction renders each of the 11 distinct partitions
    of its 191 states once, to name the states, and the manifest reuses
    those texts: its bytes stay pinned."""
    ring5 = parse_system((FIXTURES / "ring.clsys").read_text().replace("=0..1", "=0..5"))
    renders = []
    real_render = EqFormula.render
    monkeypatch.setattr(EqFormula, "render",
                        lambda self, vt: renders.append(self) or real_render(self, vt))
    result = reduce_havoc_to_entailment(ring5.sid, "Ring_5_5", assume_tight=True)
    assert len(result.state_names) == 191
    assert len(renders) == len(set(renders)) == 11
    renders.clear()
    manifest = json.dumps(manifest_dict(result), sort_keys=True)
    assert renders == []
    assert hashlib.sha256(manifest.encode()).hexdigest() == PINNED_DIGESTS["Ring_5_5"][1]


def test_image_steps_each_distinct_input_once(ring3, monkeypatch):
    calls = []
    real_step = transducer.transducer_step

    def counting_step(tau, alpha, child_states, behavior, maxarity):
        calls.append((tau, alpha, tuple(child_states)))
        return real_step(tau, alpha, child_states, behavior, maxarity)

    monkeypatch.setattr(transducer, "transducer_step", counting_step)
    reduce_havoc_to_entailment(ring3.sid, "Ring_3_3", assume_tight=True)
    assert len(calls) == len(set(calls)) == 59


def test_witnesses_follow_the_derived_rules(ring3_reduction, tll_reduction):
    """The witnesses key one transition per derived rule, in rule order: its
    result names the rule's head, and its children the rule's calls."""
    for result in (ring3_reduction, tll_reduction):
        names = result.state_names
        rules = result.derived_sid.rules
        assert len(result.witnesses) == len(rules)
        for (tr, wits), rule in zip(result.witnesses.items(), rules):
            assert wits
            assert rule.head == names[tr.result]
            assert [rule.atoms[i].name for i in rule.calls] == [names[c] for c in tr.children]


def test_namespaces_disjoint(ring_reduction):
    base = set(ring_reduction.base_sid.predicates)
    derived = set(ring_reduction.derived_sid.predicates)
    assert not base & derived


# ---------------------------------------------------------------------------
# class equivalence

def test_class_equiv_identity(ring):
    res = class_equiv(ring.sid, ring.sid)
    assert res.verdict == "equivalent"
    assert res.pairing


def test_class_equiv_ring_reduction(ring, ring_reduction):
    res = class_equiv(ring.sid, ring_reduction.derived_sid)
    assert res.verdict == "equivalent"
    assert len(res.pairing) == len(ring.sid.rules)


def test_class_equiv_tll_reduction(tll, tll_reduction):
    res = class_equiv(tll.sid, tll_reduction.derived_sid)
    assert res.verdict == "equivalent"


def test_class_equiv_ring_family(ring3, ring3_reduction):
    assert class_equiv(ring3.sid, ring3_reduction.derived_sid).verdict == "equivalent"


def test_class_equiv_shared_body_needs_matching_arities():
    """Both P rules and both Q rules normalise to the body comp(x1); only the
    parameter counts and the arity of the predicate head tell them apart."""
    x, y, z = Var("x"), Var("y"), Var("z")
    beh = Behavior.make(["p"], ["q"], [])

    def sid(q_params):
        q_args = (y, z)[:len(q_params)]
        return SID((Rule("P", (x,), q_args, (Comp(x), Pred("Q", q_args))),
                    Rule("Q", q_params, (), (Comp(q_params[0]),))), beh)

    unary, binary = sid((y,)), sid((y, z))
    assert class_equiv(unary, unary).verdict == "equivalent"
    assert class_equiv(unary, binary).verdict == "inequivalent"
    assert class_equiv(binary, unary).verdict == "inequivalent"


def test_class_equiv_detects_port_change(ring):
    text = render_system(SystemFile(ring.behavior, ring.sid, {}, []))
    altered = text.replace("<x.out, y.in> * Chain_1_1", "<x.in, y.out> * Chain_1_1")
    assert altered != text
    other = parse_system(altered)
    assert class_equiv(ring.sid, other.sid).verdict == "inequivalent"


def test_class_equiv_ignores_states(ring):
    text = render_system(SystemFile(ring.behavior, ring.sid, {}, []))
    swapped = (text.replace(": H", ": @").replace(": T", ": H")
               .replace(": @", ": T"))
    other = parse_system(swapped)
    assert class_equiv(ring.sid, other.sid).verdict == "equivalent"


# ---------------------------------------------------------------------------
# emitted file round trip

def test_reduced_file_reparses_and_rereduces(ring, ring_reduction, tmp_path):
    queries = [Query("entail", lhs, rhs) for lhs, rhs in ring_reduction.entailments]
    out = SystemFile(ring.behavior, ring_reduction.combined_sid, {}, queries)
    text = render_system(out)
    back = parse_system(text)
    assert back.sid.predicates == ring_reduction.combined_sid.predicates
    again = reduce_havoc_to_entailment(back.sid, "Ring_1_1", assume_tight=True)
    assert again.stats["product_states"] == ring_reduction.stats["product_states"]
    assert again.stats["product_transitions"] == ring_reduction.stats["product_transitions"]
    assert len(again.targets) == len(ring_reduction.targets)
    assert class_equiv(ring_reduction.derived_sid, again.derived_sid).verdict == "equivalent"


def assert_agrees_with_reference(d1: SID, d2: SID) -> None:
    got, want = class_equiv(d1, d2), reference_class_equiv(d1, d2)
    assert (got.verdict, got.pairing, got.relation) == \
        (want.verdict, want.pairing, want.relation)


@pytest.mark.parametrize("path", source_fixtures(), ids=lambda p: p.name)
def test_class_equiv_matches_reference_on_fixture_reductions(path):
    """The fixture against itself, and every predicate's reduction against
    its source in both directions."""
    sid = load(path.name).sid
    assert_agrees_with_reference(sid, sid)
    for pred in sid.predicates:
        derived = reduce_havoc_to_entailment(sid, pred, assume_tight=True).derived_sid
        assert_agrees_with_reference(sid, derived)
        assert_agrees_with_reference(derived, sid)


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_class_equiv_matches_reference_on_ring_family(k):
    sid = parse_system((FIXTURES / "ring.clsys").read_text()
                       .replace("=0..1", f"=0..{k}")).sid
    result = reduce_havoc_to_entailment(sid, f"Ring_{k}_{k}", assume_tight=True)
    assert class_equiv(sid, result.derived_sid).verdict == "equivalent"
    assert_agrees_with_reference(sid, result.derived_sid)


def test_class_equiv_is_syntactic_in_atom_order():
    """Bodies are compared atom by atom as written: the reference matched
    atoms as multisets, the key lookup does not."""
    x, y = Var("x"), Var("y")
    beh = Behavior.make(["p"], ["q"], [])
    link = Inter(((x, "p"), (y, "p")))
    written = SID((Rule("P", (x,), (y,), (Comp(x), Comp(y), link)),), beh)
    reordered = SID((Rule("P", (x,), (y,), (Comp(y), Comp(x), link)),), beh)
    assert class_equiv(written, reordered).verdict == "inequivalent"
    assert reference_class_equiv(written, reordered).verdict == "equivalent"


def _key_edge_cases():
    """Pairs of one-predicate SIDs whose rule bodies differ in one thing the
    class key must see."""
    x, y = Var("x"), Var("y")
    beh = Behavior.make(["p", "q"], ["s"], [])

    def one(params, binders, *atoms):
        return SID((Rule("P", params, binders, atoms),), beh)

    def calling(*args):
        return SID((Rule("P", (x,), (y,), (Comp(x), Comp(y), Pred("Q", args))),
                    Rule("Q", (x, y), (), (Comp(x), Inter(((x, "p"), (y, "q")))))), beh)

    return {
        "eq-vs-neq": (one((x, y), (), Comp(x), Eq(x, y)),
                      one((x, y), (), Comp(x), Neq(x, y))),
        "comp-vs-unary-interaction": (one((x,), (), Comp(x)),
                                      one((x,), (), Inter(((x, "p"),)))),
        "parameter-vs-binder": (one((x, y), (), Comp(x), Comp(y)),
                                one((x,), (y,), Comp(x), Comp(y))),
        "permuted-ports": (one((x, y), (), Inter(((x, "p"), (y, "q")))),
                           one((x, y), (), Inter(((x, "q"), (y, "p"))))),
        "swapped-call-arguments": (calling(x, y), calling(y, x)),
    }


@pytest.mark.parametrize("case", sorted(_key_edge_cases()))
def test_class_equiv_key_edge_cases(case):
    d1, d2 = _key_edge_cases()[case]
    for a, b in ((d1, d2), (d2, d1)):
        assert class_equiv(a, b).verdict == "inequivalent"
        assert reference_class_equiv(a, b).verdict == "inequivalent"
    assert class_equiv(d1, d1).verdict == "equivalent"
    assert class_equiv(d2, d2).verdict == "equivalent"
