"""Configuration-logic havoc invariance toolkit."""

from .core import (Behavior, Configuration, Interaction, compose, degree,
                   havoc_closure, is_tight, step, successors)
from .eqform import EqFormula
from .logic import (Comp, Emp, Eq, Exists, Formula, Inter, Neq, Pred, Rule,
                    SID, SepConj, StateAtom, Var, comp_in, eval_bounded,
                    eval_pf, exists, free_vars, sep, substitute, unfold)
from .frontend import parse_system, render_system
from .automata import (AlphabetSymbol, Tree, TreeAutomaton, char_formula,
                       char_formula_closed, is_sid_compatible, sid_to_ta,
                       ta_membership, ta_to_sid, ta_trim)
from .transducer import image, interaction_types, transducer_step
from .analysis import check_pcr, degree_sample, profile, sid_metrics
from .oracle import (cross_validate_reduction, entails_bounded,
                     enumerate_models, havoc_invariant_bounded)
from .reduction import class_equiv, reduce_havoc_to_entailment
