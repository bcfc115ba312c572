"""Documentation checks: every public item carries a docstring, and the
prose names only code and files that exist."""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import re
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


#: The prose checked for stale names: ``docs/*.md``, DESIGN.md and README.md.
PROSE = sorted((ROOT / "docs").glob("*.md")) + [ROOT / "DESIGN.md", ROOT / "README.md"]
#: A path in a backticked span is a repo path when it starts at one of these.
TOP_DIRS = ("src", "tests", "docs", "benchmarks", "bench", "examples")


def backticked_spans() -> list[tuple[str, str]]:
    """``(file, span)`` for every inline code span outside fenced blocks."""
    spans = []
    for path in PROSE:
        text = re.sub(r"^```.*?^```", "", path.read_text(), flags=re.M | re.S)
        spans += [(path.name, m.group(2).strip()) for m in re.finditer(r"(`+)(.+?)\1", text)]
    return spans


def defines_member(cls: type, name: str) -> bool:
    """Whether ``cls`` (or a base) sets ``self.<name>`` or declares a field."""
    for klass in cls.__mro__:
        if name in getattr(klass, "__dataclass_fields__", {}):
            return True
        try:
            source = inspect.getsource(klass)
        except (OSError, TypeError):
            continue
        if re.search(rf"self\.{name}\b\s*(:[^=\n]*)?=", source):
            return True
    return False


def resolves(dotted: str) -> bool:
    parts = dotted.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
            break
        except ImportError:
            continue
    rest = parts[i:]
    for j, name in enumerate(rest):
        if hasattr(obj, name):
            obj = getattr(obj, name)
        else:
            return inspect.isclass(obj) and j == len(rest) - 1 and defines_member(obj, name)
    return True


def test_backticked_names_resolve():
    """Every backticked ``repro.…`` name imports or resolves as an attribute."""
    missing = [
        f"{doc}: {name}"
        for doc, span in backticked_spans()
        for name in re.findall(r"(?<![\w/.-])repro(?:\.[A-Za-z_]\w*)+", span)
        if not resolves(name)
    ]
    assert missing == []


def test_backticked_paths_exist():
    """Every backticked repo path exists; a path with ``*`` matches a file."""
    missing = []
    for doc, span in backticked_spans():
        if not re.fullmatch(r"[\w.*-]+(/[\w.*-]*)*", span):
            continue
        rooted = "/" in span and span.split("/")[0] in TOP_DIRS
        if not (rooted or re.fullmatch(r"[A-Z][\w*]*\.(md|json|jsonl)", span)):
            continue
        if not (any(ROOT.glob(span)) if "*" in span else (ROOT / span).exists()):
            missing.append(f"{doc}: {span}")
    assert missing == []


#: ``docs/PERFORMANCE.md`` may not grow: each section keeps its contract, its
#: current figure and one line naming the change that set it, and the history
#: lives in the change log.  A change may lower the ceiling; one that raises it
#: says why in the change log.
PERFORMANCE_MD_MAX_LINES = 1880


def test_performance_doc_stays_under_its_line_ceiling():
    lines = len((ROOT / "docs" / "PERFORMANCE.md").read_text().splitlines())
    assert lines <= PERFORMANCE_MD_MAX_LINES, lines
