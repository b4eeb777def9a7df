"""Source guards: checks on the text and syntax trees of the library and the
tests, not on their behaviour.  Each names what it finds as path:line."""

import ast
import re

from conftest import FIXTURES

ROOT = FIXTURES.parent
SRC = sorted((ROOT / "src" / "clhavoc").glob("*.py"))
ORACLE = ROOT / "src" / "clhavoc" / "oracle.py"


def rel(path):
    return path.relative_to(ROOT)


def test_no_unused_imports():
    # a name a module imports and never uses is left over from deleted
    # code; __init__.py is skipped, as its imports are the package's API
    bad = []
    for path in sorted([*SRC, *(ROOT / "tests").glob("*.py")]):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        imports = [n for n in ast.walk(tree) if isinstance(n, (ast.Import, ast.ImportFrom))
                   and getattr(n, "module", "") != "__future__"]
        for node in imports:
            for a in node.names:
                name = (a.asname or a.name).split(".")[0]
                if name not in used:
                    bad.append(f"{rel(path)}:{node.lineno}: {name} is never used")
    assert not bad, "\n".join(bad)


def test_symbols_carry_their_call_arguments():
    # an alphabet symbol stores the variables its rule passes to each
    # child; a child-parameter variable, and the glue equality that ties
    # it to such a variable, would say the same thing twice
    glue = re.compile(r"\bchildparam\b|[\"']%out[\"']")
    bad = [f"{rel(path)}:{n}: {line.strip()}"
           for path in SRC
           for n, line in enumerate(path.read_text().splitlines(), start=1)
           if glue.search(line)]
    assert not bad, "\n".join(bad)


def test_library_keeps_what_the_commands_run():
    # the paper's tree semantics (trees, characteristic formulas, tree
    # enumeration, automaton dumps) is the tests' reference and lives in
    # tests/reference.py; TA membership, the second arity check, degree
    # sampling and the enumeration of one predicate-free formula had no
    # caller.  A formula is its prenex form (binders, atoms), as a rule body
    # is, so no formula tree (emp, separating conjunction, existential) and
    # no walk over one is defined, and no module can prenex or walk a rule
    # body again.  A bounded model set is a dict from key to model, and a
    # shape hangs on its plan merge, so no model set class and no SID table
    # of shapes is defined.  Equality formulas are read through their
    # classes, and a configuration's carrier is fixed when it is made, so
    # the partition queries, the projection and carrier extension had no
    # caller either.  A symbol is its rule under one renaming, which Rule
    # has checked, so no symbol builder re-checks the layout and no arity
    # tuple is kept; the lexer is one regular-expression scan with no digit
    # set, and the empty configuration is the tests' own
    gone = {"Tree", "char_formula", "enumerate_trees", "dump_ta", "ta_membership",
            "is_sid_compatible", "degree_sample", "nodevar", "nodeex",
            "Emp", "SepConj", "Exists", "Formula", "sep", "exists", "free_vars",
            "atoms_of", "_prenex_into", "satisfies", "enumerate_pf_models",
            "ModelSet", "_shapes", "vars", "class_of", "entails", "qelim", "EMPTY_EQ",
            "extend_carrier", "make_symbol", "arities", "_DIGITS", "EMPTY"}

    def names(node):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            return [node.name]
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            return [t.id for t in targets if isinstance(t, ast.Name)]
        return []

    bad = [f"{rel(path)}:{node.lineno}: {name}"
           for path in SRC
           for node in ast.walk(ast.parse(path.read_text()))
           for name in names(node) if name in gone]
    assert not bad, "\n".join(bad)


def test_fixpoints_go_through_derive():
    # the profile, the least completion heights and the productive and
    # useful states are Horn derivations, each a call of the one kernel
    # logic.derive; none of these functions keeps a loop of its own
    kernel_only = {"profile", "least_heights", "ta_trim"}
    bad = [f"{rel(path)}:{inner.lineno}: {node.name} loops with while"
           for path in SRC
           for node in ast.walk(ast.parse(path.read_text()))
           if isinstance(node, ast.FunctionDef) and node.name in kernel_only
           for inner in ast.walk(node) if isinstance(inner, ast.While)]
    assert not bad, "\n".join(bad)


def test_one_keying_path():
    # a candidate is keyed through its shape: in the bounded oracle only
    # Shape.key and canonical_model call state_key, and only Shape and
    # canonical_model call skeleton_form.  A candidate is its shape and
    # its column, so only Model.config and a havoc counterexample's
    # successor build a Configuration
    allowed = {"state_key": ("Shape.key", "canonical_model"),
               "skeleton_form": ("Shape", "canonical_model")}
    builds = ("Model.config", "havoc_invariant_bounded")
    bad = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if isinstance(child, ast.Name) and child.id in allowed and not any(
                    scope == a or scope.startswith(a + ".") for a in allowed[child.id]):
                bad.append(f"{rel(ORACLE)}:{child.lineno}: {scope or 'module'} uses {child.id}")
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Name)
                    and child.func.id == "Configuration" and scope not in builds):
                bad.append(f"{rel(ORACLE)}:{child.lineno}: {scope or 'module'} "
                           "builds a Configuration")
            visit(child, scope)

    visit(ast.parse(ORACLE.read_text()), "")
    assert not bad, "\n".join(bad)


def test_plans_live_on_skeleton_nodes():
    # a plan hangs on the skeleton node of the unfolding walk, built on
    # first use and kept as long as the root SID: in the bounded oracle
    # only _node_plan calls _plan, and no function keeps plans of its own
    # in a plans parameter
    bad = []
    for path in SRC:
        tree = ast.parse(path.read_text())
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            a = fn.args
            if any(arg.arg == "plans" for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs]):
                bad.append(f"{rel(path)}:{fn.lineno}: {getattr(fn, 'name', 'lambda')} "
                           "takes plans")
        if path.name != "oracle.py":
            continue
        for fn in ast.walk(tree):
            if isinstance(fn, ast.FunctionDef) and fn.name != "_node_plan":
                for call in ast.walk(fn):
                    if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                            and call.func.id == "_plan"):
                        bad.append(f"{rel(path)}:{call.lineno}: {fn.name} calls _plan")
    assert not bad, "\n".join(bad)


def test_syntax_checks_read_rule_positions():
    # a rule reads its body once, when it is built, into `calls`, `skeleton`
    # and `state_slots`: the SID's checks, the state-atom gate and the type
    # scan read those fields and sort no atom by kind, and Rule computes
    # nothing on first read
    readers = {"logic.py": "SID.__post_init__", "reduction.py": "check_state_atoms",
               "transducer.py": "interaction_types"}
    bad = []

    def visit(path, node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
                if scope == "Rule" and isinstance(child, ast.FunctionDef) and any(
                        "cached_property" in ast.unparse(d) for d in child.decorator_list):
                    bad.append(f"{rel(path)}:{child.lineno}: Rule.{child.name} "
                               "is a cached_property")
                visit(path, child, inner)
                continue
            if (scope == readers.get(path.name) and isinstance(child, ast.Call)
                    and isinstance(child.func, ast.Name) and child.func.id == "isinstance"):
                bad.append(f"{rel(path)}:{child.lineno}: {scope} calls isinstance")
            visit(path, child, scope)

    for path in SRC:
        visit(path, ast.parse(path.read_text()), "")
    assert not bad, "\n".join(bad)
