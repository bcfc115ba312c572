"""Documentation-coverage checks: every public item carries a docstring."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).resolve().parents[1]
#: The plan file's name, spelled so this file does not match itself.
PLAN = "ROAD" + "MAP"

PACKAGES = [
    "repro",
    "repro.nn",
    "repro.datagen",
    "repro.network",
    "repro.features",
    "repro.core",
    "repro.baselines",
    "repro.system",
    "repro.eval",
    "repro.obs",
]


def iter_modules() -> list[str]:
    names = set(PACKAGES)
    for package_name in PACKAGES:
        package = importlib.import_module(package_name)
        if hasattr(package, "__path__"):
            for info in pkgutil.iter_modules(package.__path__):
                if not info.name.startswith("_"):
                    names.add(f"{package_name}.{info.name}")
    return sorted(names)


@pytest.mark.parametrize("module_name", iter_modules())
def test_module_has_docstring(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and module.__doc__.strip(), module_name


@pytest.mark.parametrize("module_name", PACKAGES)
def test_public_api_documented(module_name):
    """Everything exported via __all__ has a non-trivial docstring."""
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    undocumented: list[str] = []
    for name in exported:
        obj = getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            doc = inspect.getdoc(obj)
            if not doc or len(doc.strip()) < 10:
                undocumented.append(f"{module_name}.{name}")
    assert not undocumented, undocumented


@pytest.mark.parametrize("module_name", PACKAGES)
def test_public_classes_document_their_methods(module_name):
    """Public (non-dunder) methods of exported classes are documented."""
    module = importlib.import_module(module_name)
    undocumented: list[str] = []
    for name in getattr(module, "__all__", []):
        obj = getattr(module, name)
        if not inspect.isclass(obj):
            continue
        for method_name, method in inspect.getmembers(obj, inspect.isfunction):
            if method_name.startswith("_"):
                continue
            if method.__qualname__.split(".")[0] != obj.__name__:
                continue  # inherited elsewhere; documented at the source
            if not inspect.getdoc(method):
                undocumented.append(f"{module_name}.{name}.{method_name}")
    assert not undocumented, undocumented


def test_version_exported():
    assert repro.__version__


def test_no_pointers_into_the_plan():
    """Code and docs state the reason, never an item of the plan file.

    The plan is renumbered as work lands, so such a pointer goes stale
    silently.  The plan itself, the change log and ``bench/`` are exempt.
    """
    files = [ROOT / "DESIGN.md", ROOT / "README.md"] + [
        path
        for folder in ("src", "tests", "docs")
        for path in sorted((ROOT / folder).rglob("*"))
        if path.suffix in {".py", ".md"}
    ]
    found = [
        f"{path.relative_to(ROOT)}:{number}"
        for path in files
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if PLAN in line
    ]
    assert found == []
