"""Configuration-logic havoc invariance toolkit."""

from .core import (Behavior, Configuration, Interaction, compose, degree,
                   havoc_closure, is_tight, step, successors)
from .eqform import EqFormula
from .logic import (Comp, Eq, Inter, Neq, Pred, Rule, SID, StateAtom, Var,
                    eval_bounded, eval_pf, substitute)
from .frontend import parse_system, render_system
from .automata import AlphabetSymbol, TreeAutomaton, sid_to_ta, ta_to_sid, ta_trim
from .transducer import image, interaction_types, transducer_step
from .analysis import check_pcr, profile, sid_metrics
from .oracle import (cross_validate_reduction, entails_bounded,
                     enumerate_models, havoc_invariant_bounded)
from .reduction import class_equiv, reduce_havoc_to_entailment
