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


def test_public_names_are_the_package_exports():
    """The list under "Library use" names exactly what `clhavoc` exports,
    each under the module that defines it."""
    import inspect

    import clhavoc

    text = README.read_text(encoding="utf-8")
    section = text[text.index("The package exports these names"):text.index("## Repository layout")]
    listed = {}
    for item in re.findall(r"^- `(\w+)`: (.*?)(?=^- |\Z)", section, re.S | re.M):
        module, names = item
        listed.update((name, module) for name in re.findall(r"`(\w+)`", names))
    exported = {name: getattr(value, "__module__", None) for name, value in vars(clhavoc).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(listed) == set(exported)
    for name, module in listed.items():
        if exported[name] is not None and exported[name].startswith("clhavoc."):
            assert exported[name] == f"clhavoc.{module}", name
