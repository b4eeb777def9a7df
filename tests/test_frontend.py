import re
import sys

import pytest

from clhavoc.frontend import ParseError, _lex, parse_system, render_system

from conftest import FIXTURES, corpus, corpus_text, load, sha256, source_fixtures
from reference import reference_lex


def test_ring_expansion_arithmetic(ring):
    # 4 Ring instances + 2 q-variants x 4 Chain instances + 3 base rules
    assert len(ring.sid.rules) == 4 + 8 + 3
    assert len(ring.sid.predicates) == 8
    assert "Chain_0_1" in ring.sid.predicates
    assert ring.sid.arity("Ring_1_1") == 0


def test_macro_guard_clamps_at_zero(ring):
    # Chain_0_t recursion via q=H stays at h'=max(-1,0)=0
    heads = [r for r in ring.sid.rules_of("Chain_0_1")]
    rec = [r for r in heads if r.calls]
    callees = {a.name for r in rec for a in r.preds}
    assert callees == {"Chain_0_1", "Chain_0_0"}


def test_wider_instantiation_arithmetic():
    text = """
    behavior { ports in, out; states H, T;
               trans T -out-> H; trans H -in-> T; }
    sid {
      Ring[h=0..2, t=0..2]() <- exists x, y . <x.out, y.in> * Chain[h, t](y, x);
      Chain[h=0..2, t=0..2](x, y) <- exists z . comp(x : H) * <x.out, z.in> * Chain[max(h-1, 0), t](z, y);
      Chain[h=0..2, t=0..2](x, y) <- exists z . comp(x : T) * <x.out, z.in> * Chain[h, max(t-1, 0)](z, y);
      Chain[0, 1](x, y) <- x = y * comp(x : T);
      Chain[1, 0](x, y) <- x = y * comp(x : H);
      Chain[0, 0](x, y) <- x = y * comp(x);
    }
    """
    sf = parse_system(text)
    assert len(sf.sid.rules) == 9 + 9 * 2 + 3
    assert len(sf.sid.predicates) == 9 + 9


def test_empty_sid_is_valid():
    sf = parse_system("behavior { ports p; states q; } sid { }")
    assert sf.sid.rules == ()


def test_tll_parses_to_four_rules(tll_original):
    assert len(tll_original.sid.rules) == 4
    assert tll_original.sid.predicates == ("Root", "Node")


def test_inner_exists_requires_parens():
    ok = ("behavior { ports p; states q; } "
          "sid { A(x) <- comp(x) * (exists y . comp(y) * x != y); }")
    assert len(parse_system(ok).sid.rules) == 1
    with pytest.raises(ParseError):
        parse_system("behavior { ports p; states q; } "
                     "sid { A(x) <- comp(x) * exists y . comp(y); }")


def test_missing_comma_is_a_syntax_error():
    text = "behavior { ports in, out; states q; } sid { A(x, y) <- <x.out y.in>; }"
    with pytest.raises(ParseError) as err:
        parse_system(text)
    assert "','" in str(err.value) or "'>'" in str(err.value)


def test_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_system("behavior { ports p; states q; }\nsid { A() <- $; }")
    assert err.value.line == 2


def test_arity_mismatch_rejected():
    text = ("behavior { ports p; states q; } "
            "sid { A(x) <- comp(x); B() <- exists z . comp(z) * A(z, z); }")
    with pytest.raises(ParseError):
        parse_system(text)


def test_undeclared_state_rejected():
    with pytest.raises(ParseError):
        parse_system("behavior { ports p; states q; } sid { A(x) <- comp(x : bogus); }")


def test_undefined_predicate_rejected():
    with pytest.raises(ParseError):
        parse_system("behavior { ports p; states q; } sid { A(x) <- B(x); }")


def test_duplicate_rule_params_rejected():
    with pytest.raises(ParseError):
        parse_system("behavior { ports p; states q; } sid { A(x, x) <- comp(x); }")


@pytest.mark.parametrize("name", corpus())
def test_parse_render_parse_fixpoint(name):
    sf1 = parse_system(corpus_text(name))
    text1 = render_system(sf1)
    sf2 = parse_system(text1)
    assert render_system(sf2) == text1


@pytest.mark.parametrize("name", corpus())
def test_render_deterministic(name):
    a = render_system(parse_system(corpus_text(name)))
    b = render_system(parse_system(corpus_text(name)))
    assert a == b


def test_configs_parse(ring):
    g = ring.configs["ring3"]
    assert len(g.components) == 3
    assert len(g.interactions) == 3
    assert g.state_map["c3"] == "T"


def test_query_names_must_be_defined():
    text = ("behavior { ports p; states q; } sid { A(x) <- comp(x); } "
            "query invariant Bogus;")
    with pytest.raises(ParseError):
        parse_system(text)


# sha256 of the canonical text (`clhavoc parse`) of every source fixture
RENDER_DIGESTS = {
    "bad.clsys": "86c9d1eef07ae3da504e6dc9d5451417f29f23a02c5055f401f0bc0e000a5c98",
    "chain.clsys": "79dfc7a5fdbbe49d0a2c4f2927088aaf54302b48171495b37847db2bfcae0107",
    "misc.clsys": "967160aeb1e8f91ca365b6d9b1fd5df2be4561968f8044cea09a0712a63d5666",
    "pcring.clsys": "ef9ce24d8bb6c291b9bd811b575d9a8251630945d9e01f3e4d7184fc6f1d1c21",
    "ring.clsys": "10ae1f96a4a98771618518e0474bdea2314a553e44eed9b0ca9a1c652c8a9b61",
    "tll.clsys": "4a9237962c261a4a5783069f4fd803c5786adda35fe392fdabe73ef4e5a234be",
    "tll_original.clsys": "3f64ec45a8d3cad190565efd804716ebc12e62bf6539f1db7978d0b241d0a090",
    "tll_pcr.clsys": "59a3f6d468c0599ca14dcc58713409ddf5b89e4543f76a59a476d6a2333bbfaa",
}


@pytest.mark.parametrize("path", source_fixtures(), ids=lambda p: p.name)
def test_render_pinned(path):
    assert sha256(render_system(load(path.name))) == RENDER_DIGESTS[path.name]


# ---------------------------------------------------------------------------
# SID-level errors point at the offending rule's head

BEHAVIOR = "behavior { ports a, b; states q; }\n"


def parse_error(text):
    with pytest.raises(ParseError) as err:
        parse_system(text)
    return err.value


@pytest.mark.parametrize("rule, message", [
    ("  B(x) <- comp(x) * Nope(x);", "Nope used in B but never defined"),
    ("  A(x, y) <- comp(x) * comp(y);", "A defined with arities 1 and 2"),
    ("  B(x) <- comp(x : bogus);", "undeclared state 'bogus'"),
    ("  B(x) <- comp(x) * <x.bogus>;", "undeclared port 'bogus'"),
])
def test_sid_error_is_reported_at_the_rule_head(rule, message):
    text = BEHAVIOR + "sid {\n  A(x) <- comp(x);\n" + rule + "\n  C(x) <- comp(x);\n}\n"
    err = parse_error(text)
    assert (err.line, err.col) == (4, 3)
    assert message in str(err)


def test_sid_error_in_an_indexed_family_points_at_its_head():
    text = BEHAVIOR + "sid {\n  A(x) <- comp(x);\n  B[i=0..1](x) <- comp(x) * B[i+1](x);\n}\n"
    err = parse_error(text)
    assert (err.line, err.col) == (4, 3)
    assert "B_2 used in B_1 but never defined" in str(err)


def test_undefined_query_is_reported_at_the_query():
    text = (BEHAVIOR + "sid {\n  A(x) <- comp(x);\n}\n"
            "query invariant Nope;\n\n\n# trailing comment\n\n")
    err = parse_error(text)
    assert (err.line, err.col) == (5, 1)
    assert "'Nope'" in str(err)


# ---------------------------------------------------------------------------
# binders keep their written names; a clashing one gets a fresh name

SHADOW = (BEHAVIOR + "sid {\n"
          "  P(x, y) <- exists y . comp(x) * <x.a, y.b> * Q(y);\n"
          "  Q(x) <- comp(x);\n}\n")


def test_shadowing_binder_renders_fresh_and_reparses_equal():
    sf = parse_system(SHADOW)
    text = render_system(sf)
    assert "P(x, y) <- exists y_1 . comp(x) * <x.a, y_1.b> * Q(y_1);" in text
    again = parse_system(text)
    assert again.sid == sf.sid
    assert render_system(again) == text


def test_shadowing_binder_has_the_models_of_a_renamed_one():
    from clhavoc.oracle import enumerate_models
    renamed = parse_system(SHADOW.replace("exists y . comp(x) * <x.a, y.b> * Q(y)",
                                          "exists z . comp(x) * <x.a, z.b> * Q(z)"))
    sid = parse_system(SHADOW).sid
    for depth in range(4):
        got = enumerate_models(sid, ((), (sid.atom("P"),)), depth)
        want = enumerate_models(renamed.sid, ((), (renamed.sid.atom("P"),)), depth)
        assert set(got) == set(want)
        assert len(got) == len(want)


def test_fresh_binder_name_does_not_capture_a_written_variable():
    text = (BEHAVIOR + "sid {\n"
            "  P(x) <- exists y . comp(x) * (exists y . comp(y)) * <x.a, y_1.b>;\n}\n")
    err = parse_error(text)
    assert "unbound variable 'y_1'" in str(err)
    assert (err.line, err.col) == (3, 61)


def test_an_exists_group_binds_only_inside_its_scope():
    err = parse_error(BEHAVIOR + "sid { P(x) <- comp(x) * (exists y . comp(y)) * y != x; }")
    assert "unbound variable 'y'" in str(err)


def test_nested_exists_groups_render_as_one():
    text = (BEHAVIOR + "sid {\n"
            "  P(x) <- exists y . comp(x) * <x.a, y.b> * (exists y . comp(y) * <y.a, x.b>);\n}\n")
    sf = parse_system(text)
    (rule,) = sf.sid.rules
    assert [v.name for v in rule.binders] == ["y", "y_1"]
    assert ("P(x) <- exists y, y_1 . comp(x) * <x.a, y.b> * comp(y_1) * <y_1.a, x.b>;"
            in render_system(sf))
    assert parse_system(render_system(sf)).sid == sf.sid


# ---------------------------------------------------------------------------
# the lexer is one regular-expression scan; it reads what the character
# loop of tests/reference.py reads

ROOT = FIXTURES.parent


def lexed(lex, text):
    """The tokens of `text`, or the message of the error that refuses it."""
    try:
        return lex(text)
    except ParseError as err:
        return str(err)


def test_lex_matches_reference_on_every_input_file():
    paths = [*source_fixtures(), *sorted((ROOT / "perfbench" / "inputs").glob("*.clsys"))]
    assert len(paths) == 14
    for path in paths:
        text = path.read_text()
        assert lexed(_lex, text) == lexed(reference_lex, text), path.name


def test_lex_matches_reference_on_every_code_point_in_context():
    # a lone character, a name's first and later characters, a character
    # after a literal, in a comment and after punctuation, between lines,
    # and inside a name that ends in a digit
    contexts = [lambda c: c, lambda c: "a" + c, lambda c: c + "a", lambda c: "1" + c,
                lambda c: "#" + c, lambda c: "<" + c, lambda c: "x " + c + "\n y",
                lambda c: "_" + c + "1"]
    for code in range(0x3000):
        c = chr(code)
        for context in contexts:
            text = context(c)
            assert lexed(_lex, text) == lexed(reference_lex, text), (hex(code), text)


def test_word_class_is_alnum_or_underscore():
    # the scan reads a name with \w, the character loop with str.isalnum:
    # the two must agree on every code point of this interpreter's tables
    word = re.compile(r"\w").fullmatch
    bad = [hex(code) for code in range(sys.maxunicode + 1)
           if bool(word(chr(code))) != (chr(code).isalnum() or chr(code) == "_")]
    assert not bad


def test_comment_takes_no_column():
    assert str(parse_error("# only a comment")).startswith("1:1: ")
    err = parse_error("behavior { ports p; states q; }\nsid { A() <- emp  # no semicolon")
    assert (err.line, err.col) == (2, 19)
