"""Every function the benchmark tracer wraps, and every name a module
exports, still exists in the package.

``perfbench/tracer.py`` names its targets as "<module>.<function>" strings
and looks them up when a traced run starts, so a rename in ``src/`` would
only show as a failed ``perfbench/run.py --trace 1``.  The list is read
from the tracer's source, not imported, so the test runs without the
benchmark on the path.  A stale ``__all__`` entry shows only on a star
import, so each module's list is checked here too.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import framelets

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def tracer_targets() -> tuple:
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "TARGETS" for t in targets):
                return ast.literal_eval(node.value)
    raise AssertionError(f"no TARGETS assignment in {TRACER}")


def test_targets_are_listed():
    assert len(tracer_targets()) >= 10


@pytest.mark.parametrize("target", tracer_targets())
def test_target_resolves(target):
    module_name, func_name = target.rsplit(".", 1)
    module = importlib.import_module(f"framelets.{module_name}")
    assert callable(getattr(module, func_name, None)), f"framelets.{target} is gone"


#: the package and each of its modules
MODULES = ["framelets", *sorted(f"framelets.{info.name}"
                                for info in pkgutil.iter_modules(framelets.__path__))]


def test_modules_are_listed():
    assert {"framelets.analysis", "framelets.cli", "framelets.netbuild"} <= set(MODULES)


@pytest.mark.parametrize("module_name", MODULES)
def test_exports_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names missing {missing}"
