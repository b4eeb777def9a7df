"""The README's examples run as written."""

import re

from conftest import FIXTURES

README = FIXTURES.parent / "README.md"


def test_library_example_prints_its_results(monkeypatch, capsys):
    """The `python` block of "Library use" prints the direct verdict, one
    holding entailment and the cross-validation result."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## Library use"):]
    code = re.search(r"```python\n(.*?)```", section, re.S)[1]
    monkeypatch.chdir(README.parent)
    exec(compile(code, str(README), "exec"), {})
    assert capsys.readouterr().out.splitlines() == [
        "True", "Ring_1_1__h21 |= Ring_1_1 True", "True"]
