"""Exit-code contract and output determinism of the command-line driver."""

import json
import shutil

import pytest

from clhavoc.cli import main

from conftest import FIXTURES, sha256, source_fixtures


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_parse_dumps_canonical_text(capsys):
    code, out, err = run(capsys, "parse", str(FIXTURES / "ring.clsys"))
    assert code == 0
    assert "sid {" in out and "behavior {" in out


@pytest.mark.parametrize("body, error", [
    ("A() <- <x.out y.in>;", "1:54: expected"),
    # int() refuses the superscript; the Arabic-Indic three read as 3
    ("P[h=0..\u00b2]() <- emp;", "1:47: unexpected character"),
    ("P[\u0663]() <- emp;", "1:42: unexpected character"),
], ids=["missing-comma", "superscript", "arabic-indic"])
def test_parse_error_exit_3(tmp_path, capsys, body, error):
    bad = tmp_path / "broken.clsys"
    bad.write_text("behavior { ports in; states q; } sid { " + body + " }", encoding="utf-8")
    code, out, err = run(capsys, "parse", str(bad))
    assert code == 3 and out == ""
    assert error in err


def test_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "parse", "no_such_file.clsys")
    assert code == 3


def test_unknown_predicate_exit_3(capsys):
    code, _, err = run(capsys, "check", str(FIXTURES / "ring.clsys"),
                       "--pred", "Nope", "--depth", "2")
    assert code == 3
    assert "Nope" in err


RING = str(FIXTURES / "ring.clsys")


@pytest.mark.parametrize("argv", [
    ("check", RING),
    ("check", RING, "--pred", "Ring_1_1", "--depth", "x"),
    ("check", RING, "--pred", "Ring_1_1", "--depth", "-1"),
    ("oracle", RING, "--pred", "Ring_1_1", "--depth", "-1", "--assume-tight"),
    ("bogus", RING),
    (),
], ids=["no-pred", "depth-x", "depth-negative", "oracle-depth-negative",
        "unknown-command", "no-command"])
def test_usage_error_exit_3(argv, capsys):
    """A usage error is an input error, not the unknown verdict argparse's
    own exit code 2 would claim."""
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert out == ""
    assert "usage: clhavoc" in err and "error:" in err


@pytest.mark.parametrize("argv", [("--help",), ("check", "--help")],
                         ids=["help", "check-help"])
def test_help_exit_0(argv, capsys):
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert out.startswith("usage: clhavoc")


@pytest.mark.parametrize("argv", [
    ("parse", RING),
    ("reduce", RING, "--pred", "Ring_0_0", "--assume-tight"),
    ("check", RING, "--pred", "Ring_0_0", "--depth", "2", "--assume-tight"),
], ids=["parse", "reduce", "check"])
def test_unwritable_output_exit_3(argv, tmp_path, capsys):
    path = tmp_path / "missing" / "out.clsys"
    code, out, err = run(capsys, *argv, "-o", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith(f"{path}: ") and err.count("\n") == 1
    assert not path.parent.exists()


def test_analyze_table(capsys):
    code, out, _ = run(capsys, "analyze", str(FIXTURES / "ring.clsys"))
    assert code == 0
    assert "pcr=n" in out
    assert "metrics:" in out


def test_reduce_gate_exit_2(tmp_path, capsys):
    src = tmp_path / "ring.clsys"
    shutil.copy(FIXTURES / "ring.clsys", src)
    code, out, err = run(capsys, "reduce", str(src), "--pred", "Ring_1_1")
    assert code == 2
    assert "TightnessNotEstablished" in err


def test_reduce_writes_outputs(tmp_path, capsys):
    src = tmp_path / "ring.clsys"
    shutil.copy(FIXTURES / "ring.clsys", src)
    code, out, err = run(capsys, "reduce", str(src), "--pred", "Ring_1_1",
                         "--assume-tight")
    assert code == 0
    reduced = tmp_path / "ring.reduced.clsys"
    manifest = tmp_path / "ring.manifest.json"
    assert reduced.exists() and manifest.exists()
    data = json.loads(manifest.read_text())
    assert data["predicate"] == "Ring_1_1"
    assert data["tightness"] == "assumed"
    code2, out2, _ = run(capsys, "parse", str(reduced))
    assert code2 == 0


def test_reduce_byte_identical_across_runs(tmp_path, capsys):
    texts = []
    for i in range(2):
        d = tmp_path / f"run{i}"
        d.mkdir()
        src = d / "ring.clsys"
        shutil.copy(FIXTURES / "ring.clsys", src)
        code, *_ = run(capsys, "reduce", str(src), "--pred", "Ring_1_1",
                       "--assume-tight")
        assert code == 0
        texts.append(((d / "ring.reduced.clsys").read_text(),
                      (d / "ring.manifest.json").read_text()))
    assert texts[0] == texts[1]


def test_check_ring_positive(capsys, tmp_path):
    src = tmp_path / "ring.clsys"
    shutil.copy(FIXTURES / "ring.clsys", src)
    code, out, _ = run(capsys, "check", str(src), "--pred", "Ring_1_1",
                       "--depth", "4", "--assume-tight")
    assert code == 0
    assert "verdict: InvariantUpToDepth(4)" in out


def test_check_bad_negative(capsys, tmp_path):
    src = tmp_path / "bad.clsys"
    shutil.copy(FIXTURES / "bad.clsys", src)
    code, out, _ = run(capsys, "check", str(src), "--pred", "TH",
                       "--depth", "2", "--assume-tight")
    assert code == 1
    assert "verdict: Counterexample" in out


def test_check_gated_unknown(capsys, tmp_path):
    src = tmp_path / "ring.clsys"
    shutil.copy(FIXTURES / "ring.clsys", src)
    code, out, err = run(capsys, "check", str(src), "--pred", "Ring_1_1",
                         "--depth", "2")
    assert code == 2
    assert "verdict: Unknown" in out


def test_check_gated_unknown_to_output_file(capsys, tmp_path):
    # the gated verdict goes to -o like every other verdict of check
    src = tmp_path / "ring.clsys"
    shutil.copy(FIXTURES / "ring.clsys", src)
    dest = tmp_path / "out.txt"
    code, out, err = run(capsys, "check", str(src), "--pred", "Ring_1_1",
                         "--depth", "2", "-o", str(dest))
    assert code == 2
    assert out == ""
    assert dest.read_text() == "verdict: Unknown\n"
    assert "TightnessNotEstablished" in err


def test_check_without_entailments_unknown(capsys, tmp_path):
    # the reduction of tll_pcr's Leaf leaves no target: a positive verdict
    # would rest on zero checked entailments
    src = tmp_path / "tll_pcr.clsys"
    shutil.copy(FIXTURES / "tll_pcr.clsys", src)
    code, out, _ = run(capsys, "check", str(src), "--pred", "Leaf", "--depth", "3")
    assert code == 2
    assert out == "verdict: Unknown (no entailment to check)\n"


INCOMPLETE = "no unfolding of Ring_2_2 completes within depth 3; least height 5"


def ring2_file(tmp_path):
    """ring.clsys with budgets 0..2, whose Ring_2_2 has least height 5."""
    src = tmp_path / "ring2.clsys"
    src.write_text((FIXTURES / "ring.clsys").read_text().replace("=0..1", "=0..2"))
    return str(src)


def test_check_without_complete_unfoldings_unknown(capsys, tmp_path):
    # no model within the depth: every entailment would hold vacuously
    code, out, _ = run(capsys, "check", ring2_file(tmp_path), "--pred", "Ring_2_2",
                       "--depth", "3", "--assume-tight")
    assert code == 2
    assert out == f"verdict: Unknown ({INCOMPLETE})\n"


def test_check_without_models_unknown(capsys):
    # Ring_0_0 has least height 2, but its height-2 unfolding has no model:
    # every entailment would hold on zero models
    code, out, _ = run(capsys, "check", RING, "--pred", "Ring_0_0", "--depth", "2",
                       "--assume-tight")
    assert code == 2
    assert out == "verdict: Unknown (no model of Ring_0_0 within depth 2)\n"


# ring.clsys's behavior with a predicate R whose rewritten component x has a
# second state atom: a repeat on x, one on a variable equal to x, one in a
# called rule; the expected refusal names the rule and the variable
STATE_PINS = {
    "repeat": ("R() <- exists x, y . comp(x : H) * state(x : H) * comp(y : T) "
               "* <x.in, y.out>;", None),
    "equal": ("R() <- exists x, y, w . comp(x : H) * x = w * state(w : H) "
              "* comp(y : T) * <x.in, y.out>;", "rule 1 of R has a state atom on w,"),
    "called": ("R() <- exists x, y . comp(x : H) * comp(y : T) * <x.in, y.out> * P(x);\n"
               "  P(z) <- state(z : H);", "rule 1 of P has a state atom on z,"),
}


@pytest.mark.parametrize("name", sorted(STATE_PINS))
def test_second_state_pin_is_never_invariant(name, capsys, tmp_path):
    rules, refusal = STATE_PINS[name]
    behavior = (FIXTURES / "ring.clsys").read_text().split("sid {")[0]
    src = tmp_path / f"{name}.clsys"
    src.write_text(f"{behavior}sid {{\n  {rules}\n}}\n")
    args = (str(src), "--pred", "R", "--depth", "2", "--assume-tight")
    code, out, err = run(capsys, "check", *args)
    if refusal is None:
        assert code == 1 and "verdict: Counterexample" in out
    else:
        assert code == 2 and "verdict: Unknown" in out
        assert f"UnallocatedStateAtom: {refusal}" in err
    code, out, _ = run(capsys, "oracle", *args)
    assert code == 1 and "direct: Counterexample" in out
    assert ("cross-validation: PASS (left=1, right=1)" if refusal is None
            else "cross-validation: Unknown (state atom gate)") in out


def test_simulate_ring3(capsys):
    code, out, _ = run(capsys, "simulate", str(FIXTURES / "ring.clsys"),
                       "--config", "ring3")
    assert code == 0
    assert out.startswith("reachable: 3")


def test_simulate_loose_config(capsys):
    code, out, _ = run(capsys, "simulate", str(FIXTURES / "misc.clsys"),
                       "--config", "dangling")
    assert code == 0
    assert out.startswith("reachable: 2")
    assert "ghost: idle" in out


def test_simulate_unknown_config(capsys):
    code, _, err = run(capsys, "simulate", str(FIXTURES / "misc.clsys"),
                       "--config", "nope")
    assert code == 3


def test_oracle_ring(capsys, tmp_path):
    src = tmp_path / "ring.clsys"
    shutil.copy(FIXTURES / "ring.clsys", src)
    code, out, _ = run(capsys, "oracle", str(src), "--pred", "Ring_1_1",
                       "--depth", "3", "--assume-tight")
    assert code == 0
    assert "direct: InvariantUpToDepth(3)" in out
    assert "cross-validation: PASS" in out


def test_oracle_bad_counterexample(capsys, tmp_path):
    src = tmp_path / "bad.clsys"
    shutil.copy(FIXTURES / "bad.clsys", src)
    code, out, _ = run(capsys, "oracle", str(src), "--pred", "TH",
                       "--depth", "1", "--assume-tight")
    assert code == 1
    assert "direct: Counterexample" in out


@pytest.mark.parametrize("name, pred, model", [
    ("bad.clsys", "TH", "  comps n0, n1;\n"
                        "  inters <n0.out, n1.in>;\n"
                        "  states n0: T, n1: H;\n"),
    ("misc.clsys", "Linked", "  comps n0, n1;\n"
                             "  inters <n0.ping, n1.pong>;\n"
                             "  states n0: idle, n1: busy;\n"),
])
def test_direct_counterexample_shows_its_store(name, pred, model, capsys):
    # the store says which id each parameter names, in argument order
    code, out, _ = run(capsys, "oracle", str(FIXTURES / name), "--pred", pred,
                       "--depth", "3", "--assume-tight")
    assert code == 1
    assert ("direct: Counterexample\nconfig model {\n" + model
            + "}\nstore: x1 = n0, x2 = n1\nfires ") in out


@pytest.mark.parametrize("name, pred, config", [
    ("bad.clsys", "TH", "  comps n0, n1;\n"
                        "  inters <n0.out, n1.in>;\n"
                        "  states n0: H, n1: T;\n"),
    ("misc.clsys", "Linked", "  comps n0, n1;\n"
                             "  inters <n0.ping, n1.pong>;\n"
                             "  states n0: busy, n1: idle;\n"),
])
def test_check_counterexample_shows_its_store(name, pred, config, capsys):
    code, out, _ = run(capsys, "check", str(FIXTURES / name), "--pred", pred,
                       "--depth", "3", "--assume-tight")
    assert code == 1
    assert out.endswith("verdict: Counterexample\nconfig counterexample {\n" + config
                        + "}\nstore: x1 = n0, x2 = n1\n")


def test_zero_arity_counterexample_has_no_store(capsys, tmp_path):
    # bad.clsys's token edge under a closed predicate: no store to show
    src = tmp_path / "closed.clsys"
    src.write_text((FIXTURES / "bad.clsys").read_text().replace(
        "TH(x, y) <-", "TH() <- exists x, y ."))
    args = (str(src), "--pred", "TH", "--depth", "3", "--assume-tight")
    code, out, _ = run(capsys, "oracle", *args)
    assert code == 1
    assert ("config model {\n  comps n0, n1;\n  inters <n0.out, n1.in>;\n"
            "  states n0: T, n1: H;\n}\nfires ") in out
    code, out, _ = run(capsys, "check", *args)
    assert code == 1
    assert out.endswith("verdict: Counterexample\nconfig counterexample {\n  comps n0, n1;\n"
                        "  inters <n0.out, n1.in>;\n  states n0: H, n1: T;\n}\n")
    assert "store" not in out


def test_oracle_without_targets_unknown(capsys):
    # the reduction of tll_pcr's Leaf leaves no target: an empty right side
    # says nothing about the reduction
    code, out, _ = run(capsys, "oracle", str(FIXTURES / "tll_pcr.clsys"), "--pred", "Leaf",
                       "--depth", "3")
    assert code == 2
    assert out.endswith("direct: InvariantUpToDepth(3)\n"
                        "cross-validation: Unknown (no target)\n")


def test_oracle_without_complete_unfoldings_unknown(capsys, tmp_path):
    # no model within the depth: both the direct check and the comparison
    # of two empty sides would pass vacuously
    code, out, _ = run(capsys, "oracle", ring2_file(tmp_path), "--pred", "Ring_2_2",
                       "--depth", "3", "--assume-tight")
    assert code == 2
    assert out == ("models(Ring_2_2, depth=3): 0\n"
                   f"direct: Unknown ({INCOMPLETE})\n"
                   f"cross-validation: Unknown ({INCOMPLETE})\n")


def test_oracle_without_models_unknown(capsys):
    # an unfolding completes, but none has a model: the direct check and the
    # comparison of two empty sides would pass vacuously
    code, out, _ = run(capsys, "oracle", RING, "--pred", "Ring_0_0", "--depth", "2",
                       "--assume-tight")
    assert code == 2
    assert out == ("models(Ring_0_0, depth=2): 0\n"
                   "direct: Unknown (no model of Ring_0_0 within depth 2)\n"
                   "cross-validation: Unknown (no model of Ring_0_0 within depth 2)\n")


def test_oracle_predicate_that_never_completes(capsys, tmp_path):
    src = tmp_path / "loop.clsys"
    src.write_text((FIXTURES / "ring.clsys").read_text().split("sid {")[0]
                   + "sid {\n  Loop() <- exists x . comp(x : H) * Loop();\n}\n")
    code, out, _ = run(capsys, "oracle", str(src), "--pred", "Loop", "--depth", "3",
                       "--assume-tight")
    assert code == 2
    assert "direct: Unknown (no unfolding of Loop completes within depth 3; " \
        "none ever completes)\n" in out


def test_trace_transducer_emits_witnesses(capsys, tmp_path):
    src = tmp_path / "bad.clsys"
    shutil.copy(FIXTURES / "bad.clsys", src)
    code, out, err = run(capsys, "reduce", str(src), "--pred", "TH",
                         "--assume-tight", "--trace-transducer")
    assert code == 0
    assert "trace:" in err


@pytest.mark.parametrize("command", ["check", "oracle"])
def test_trace_transducer_on_every_reducing_command(command, capsys, tmp_path):
    src = tmp_path / "bad.clsys"
    shutil.copy(FIXTURES / "bad.clsys", src)
    code, _, err = run(capsys, command, str(src), "--pred", "TH", "--depth", "2",
                       "--assume-tight", "--trace-transducer")
    assert code == 1
    assert err.startswith("trace: ")


# sha256 of `clhavoc analyze` stdout for every source fixture
ANALYZE_DIGESTS = {
    "bad.clsys": "59e7ce2d37c0a3a363ca06e5d1f976ca645d7fad793f9cfd6e06e9e60841fa63",
    "chain.clsys": "04a0a2e26740b7cd248827f9143a397279acadb7e4b2201506b7d342c006818f",
    "misc.clsys": "a5273b2ab55b2ac28ade8bf9799f7d5767d4101d01bd1bd7dfdc632cf445df89",
    "pcring.clsys": "bef92592d1fd29c18c22c6dacbda3e264f6f1528bfc774f171f29200a2e331f0",
    "ring.clsys": "ee846f275619e5f84143e691ae744ce79964423baa62c9714d70a5513a47e44d",
    "tll.clsys": "b91d8ee4ef573dacd8e2cfe5d7819b179040c9ace3554ebef8a24092445a75f7",
    "tll_original.clsys": "22a48794cbb0a4c701aa4858ccec7a6440a01e71d5c0c204f4594efa39e26550",
    "tll_pcr.clsys": "b0727be8a5afc953099a1c145f4b322292e4bf3b69b220a2c643c0bfcc0a940d",
}


@pytest.mark.parametrize("path", source_fixtures(), ids=lambda p: p.name)
def test_analyze_pinned(path, capsys):
    code, out, _ = run(capsys, "analyze", str(path))
    assert code == 0
    assert sha256(out) == ANALYZE_DIGESTS[path.name]


@pytest.mark.parametrize("path", source_fixtures(), ids=lambda p: p.name)
def test_outputs_show_no_canonical_names(path, capsys):
    # canonical variables all start with %; rules keep their written names
    for cmd in ("parse", "analyze"):
        code, out, _ = run(capsys, cmd, str(path))
        assert code == 0
        assert "%" not in out, cmd


def test_trace_transducer_pinned(capsys, tmp_path):
    src = tmp_path / "ring.clsys"
    shutil.copy(FIXTURES / "ring.clsys", src)
    code, _, err = run(capsys, "reduce", str(src), "--pred", "Ring_1_1",
                       "--assume-tight", "--trace-transducer")
    assert code == 0
    assert err.count("\n") == 133
    assert sha256(err) == "8a9c5e9b994561e93c031ef559f8f2d8b41c2039cb18bb8370f45f14027adf8e"


# `clhavoc oracle` arguments, exit code and sha256 of stdout for every source
# fixture; tll_original stops at the tightness gate
ORACLE_RUNS = {
    "bad.clsys": (("TH", "2", "--assume-tight"), 1,
                  "3f9fe0aeb2a08bc8020d3f7cdeaa5b21bd9c477d2bd3f8f77676b3c493d28f92"),
    "chain.clsys": (("Chain_1_1", "3"), 1,
                    "118a4d9cef1af0f2192076c9e2e663a8397ea3babf48898161ec218652a525f1"),
    "misc.clsys": (("Linked", "3", "--assume-tight"), 1,
                   "d4a7729cb195260d8d79b0c461792229a438766e3a897c4f9998a2f67737b745"),
    "pcring.clsys": (("PcRing_1_1", "3"), 1,
                     "3ea7ecc68846b8c698be87f7be0b888b3d0387c74df01270da48a4e94d59c0e0"),
    "ring.clsys": (("Ring_1_1", "3", "--assume-tight"), 0,
                   "e11ef90cbbc9107011efdfd81f4973c9cf6335fe98efc06bd411cb5fd8a33b10"),
    "tll.clsys": (("Node", "3", "--assume-tight"), 0,
                  "d55783da543224f25aa19c5f2228f4db9f189324623234cc3ceca6559ed85505"),
    "tll_original.clsys": (("Root", "2"), 2,
                           "129a0701aaf6e1749884ca868a9438f059cd16952483b2c61edb5560ea20b746"),
    "tll_pcr.clsys": (("Root", "3"), 2,
                      "ce3c12d27f3cd6b0e7e74bd259f1ac82435bac4a846a57a5f6ff157128820886"),
}


@pytest.mark.parametrize("path", source_fixtures(), ids=lambda p: p.name)
def test_oracle_pinned(path, capsys):
    (pred, depth, *flags), want_code, digest = ORACLE_RUNS[path.name]
    code, out, _ = run(capsys, "oracle", str(path), "--pred", pred, "--depth", depth, *flags)
    assert code == want_code
    assert sha256(out) == digest
