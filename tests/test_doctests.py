import doctest
import importlib
import re
from pathlib import Path

import pytest

MODULES = [
    "arcdiag.perms",
    "arcdiag.arcs",
    "arcdiag.diagrams",
    "arcdiag.congruences",
    "arcdiag.counting",
    "arcdiag.textforms",
    "arcdiag.render",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{name} lost its doctests"
    assert result.failed == 0


def test_readme_doctests():
    # fences become blank lines, or a closing fence would be read as expected output
    readme = Path(__file__).resolve().parent.parent / "README.md"
    text = re.sub(r"^```.*$", "", readme.read_text(encoding="utf-8"), flags=re.M)
    runner = doctest.DocTestRunner()
    runner.run(doctest.DocTestParser().get_doctest(text, {}, "README.md", str(readme), 0))
    result = runner.summarize(verbose=False)
    assert result.attempted > 0, "README.md lost its examples"
    assert result.failed == 0
