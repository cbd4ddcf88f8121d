"""Every package name the README cites in inline code still exists.

A backticked ``analysis.*``, ``netbuild.*``, ``landscape.*``, ``frames.*``
or ``cli.*`` name (with or without a leading ``framelets.``) must resolve to
an attribute of that module, or name a config field: a key of the block of
``cli.SCHEMAS`` that shares the module's name, such as
``landscape.samples``.  Fenced code blocks are left out; the session they
hold is run by ``tests/test_cli.py``.
"""

import re
from pathlib import Path

import pytest

from framelets import analysis, cli, frames, landscape, netbuild

README = Path(__file__).resolve().parents[1] / "README.md"
MODULES = {"analysis": analysis, "cli": cli, "frames": frames, "landscape": landscape,
           "netbuild": netbuild}
NAME = re.compile(r"(?<![\w.])(?:framelets\.)?(%s)\.(\w+(?:\.\w+)*)" % "|".join(MODULES))


def cited_names() -> list:
    text = re.sub(r"```.*?```", "", README.read_text(), flags=re.S)
    return sorted({f"{module}.{path}" for span in re.findall(r"`([^`]+)`", text)
                   for module, path in NAME.findall(span)})


def resolves(name: str) -> bool:
    module, *path = name.split(".")
    obj = MODULES[module]
    for attr in path:
        if not hasattr(obj, attr):
            break
        obj = getattr(obj, attr)
    else:
        return True
    fields = cli.SCHEMAS.get(module, ())
    return len(path) == 1 and any(field.key == path[0] for field in fields)


def test_readme_cites_package_names():
    assert len(cited_names()) >= 10


@pytest.mark.parametrize("name", cited_names())
def test_cited_name_resolves(name):
    assert resolves(name), f"README.md cites `{name}`, which the package does not define"
