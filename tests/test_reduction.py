"""The havoc-to-entailment pipeline and class equivalence."""

import hashlib
import json

import pytest
from conftest import FIXTURES, reduced_text

from clhavoc import transducer
from clhavoc.core import Behavior
from clhavoc.frontend import Query, SystemFile, parse_system, render_system
from clhavoc.logic import (Comp, Inter, Pred, Rule, SID, StateAtom, Var, comp_in,
                           exists, sep)
from clhavoc.oracle import cross_validate_reduction, entails_bounded
from clhavoc.reduction import (TightnessNotEstablished, UnallocatedStateAtom,
                               class_equiv, manifest_dict,
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


def test_state_atom_on_a_shadowing_binder_is_refused(ring):
    # the inner x is not the allocated outer x
    x, y = Var("x"), Var("y")
    body = exists([x, y], sep(comp_in(x, "H"), comp_in(y, "T"),
                              Inter(((x, "in"), (y, "out"))),
                              exists([x], StateAtom(x, "H"))))
    sid = SID((Rule("R", (), body),), ring.behavior)
    with pytest.raises(UnallocatedStateAtom, match="rule 1 of R has a state atom on x,"):
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
    sid = SID((Rule("A", (Var("x1"),), comp_in(Var("x1"), "q")),),
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
    sid = SID((Rule("A", (Var("x1"),), comp_in(Var("x1"), "q")),),
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


# sha256 of the reduced text and of the sorted-key manifest JSON
PINNED_DIGESTS = {
    "PcRing_1_1": ("e5d3f05b503407eecc70b91c9ac332f9ef55fcf54eed63e3ab5ade07af135a32",
                   "d3d0c800a904592b5bd26de439779eef6495267121f6acc450ab41acb1c4d57c"),
    "Ring_1_1": ("19636553348b6134be0e466fcc5e24a28d29a9d9484ef40a545226c7ecb975dd",
                 "a8d4461ea6059f7369a8ca2be2a6ae444f416f085386127344d7875a87eb8175"),
    "Ring_3_3": ("0eb4cf60c4e50bec692ffa2f77b45230ada45f56c81401649109443bfeb85ac9",
                 "fe3cf84e0291f60752e23d4859eef088d64d55ed19140ec4fa2e0544c746ff3c"),
    "Root": ("9e56fd551911d8b8bf36af53c0deeade03d223396212fc5b7b5153e956d89747",
             "b8a58e18253f63d985544ba40ee844da5fc978029b79ce2daa7530445a7166f3"),
    "Ring_5_5": ("31b941166432fea0e9f18990fa13e590aa62f5d4526d3d0b8ffdee355af36c51",
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


def test_image_steps_each_distinct_input_once(ring3, monkeypatch):
    calls = []
    real_step = transducer.transducer_step

    def counting_step(tau, alpha, child_states, behavior, maxarity):
        calls.append((tau, alpha, tuple(child_states)))
        return real_step(tau, alpha, child_states, behavior, maxarity)

    monkeypatch.setattr(transducer, "transducer_step", counting_step)
    reduce_havoc_to_entailment(ring3.sid, "Ring_3_3", assume_tight=True)
    assert len(calls) == len(set(calls)) == 59


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
        return SID((Rule("P", (x,), exists(q_args, sep(Comp(x), Pred("Q", q_args)))),
                    Rule("Q", q_params, Comp(q_params[0]))), beh)

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
