"""The shipped surface checks itself: every line of ``src/`` earns its keep.

A name in a module's ``__all__`` must be referenced from ``src/`` outside
its own module (package ``__init__`` re-exports do not count), or from
``benchmarks/``, ``bench/`` or ``examples/``, or have a row in the tables of
``docs/PAPER_MAP.md``'s "Surface kept for the paper" section.  An export
that only ``tests/`` reach fails here.  The runtime dependencies in
``pyproject.toml`` are exactly the third-party packages ``src/`` imports.
Only ``system/fork_pool.py`` forks, no module maps shared memory, no
``*_reference`` oracle ships, and one network class takes the writes.
"""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = [p for p in (ROOT / "src").rglob("*.py") if p.name != "__init__.py"]


def words(paths) -> set[str]:
    return {w for p in paths for w in re.findall(r"[A-Za-z_]\w*", p.read_text())}


def exported(module: Path) -> list[str]:
    for node in ast.parse(module.read_text()).body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def test_every_export_is_reached_or_justified():
    section = (ROOT / "docs" / "PAPER_MAP.md").read_text().split(
        "## Surface kept for the paper", 1
    )[1]
    justified = set(re.findall(r"^\| `(\w+)` \|", section, flags=re.M))
    outside = words(
        p for d in ("benchmarks", "bench", "examples") for p in (ROOT / d).rglob("*.py")
    )
    by_module = {module: words([module]) for module in MODULES}
    unreached = {
        name
        for module in MODULES
        for name in exported(module)
        if name not in outside
        and not any(name in by_module[other] for other in MODULES if other != module)
    }
    assert unreached - justified == set(), "exported, reached only by tests"
    assert justified - unreached == set(), "stale rows in docs/PAPER_MAP.md"


def third_party_imports() -> set[str]:
    found = set()
    for module in ROOT.joinpath("src").rglob("*.py"):
        for node in ast.walk(ast.parse(module.read_text())):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"repro"}


def test_runtime_dependencies_are_exactly_what_src_imports():
    block = re.search(
        r"^dependencies = \[(.*?)\]", (ROOT / "pyproject.toml").read_text(), re.M | re.S
    )
    declared = set(re.findall(r'"([A-Za-z0-9_]+)', block.group(1)))
    assert declared == third_party_imports()


def test_importing_the_package_loads_no_networkx():
    script = (
        "import pkgutil, sys, repro, repro.cli\n"
        "for info in pkgutil.iter_modules(repro.__path__, 'repro.'):\n"
        "    if info.ispkg:\n"
        "        __import__(info.name)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'networkx'))\n"
    )
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def process_primitives(module: Path) -> set[str]:
    """The forking and shared-memory primitives ``module``'s code uses."""
    found = set()
    for node in ast.walk(ast.parse(module.read_text())):
        if isinstance(node, ast.Import):
            found.update(
                a.name for a in node.names if a.name.startswith("multiprocessing")
            )
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "").startswith("multiprocessing"):
                found.update(f"{node.module}.{a.name}" for a in node.names)
        elif isinstance(node, ast.Attribute) and (
            node.attr == "get_context"
            or (node.attr == "fork" and getattr(node.value, "id", None) == "os")
        ):
            found.add(f"{getattr(node.value, 'id', '')}.{node.attr}")
    return found


def test_one_module_forks_and_none_maps_shared_memory():
    pool = "system/fork_pool.py"
    src = ROOT / "src" / "repro"
    uses = {
        (primitive, module.relative_to(src).as_posix())
        for module in src.rglob("*.py")
        for primitive in process_primitives(module)
    }
    shared = ("multiprocessing.shared_memory", "multiprocessing.resource_tracker")
    assert {m for p, m in uses if not p.startswith(shared)} == {pool}
    assert {(p, m) for p, m in uses if p.startswith(shared)} == set()


def test_no_oracle_ships():
    """Reference loops live in ``tests/oracles/``, not in ``src/``."""
    shipped = {
        node.name
        for module in MODULES
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.endswith("_reference")
    }
    assert shipped == set()


def test_one_network_class_takes_the_writes():
    """Shards partition the reads only: one class defines ``add_weights``,
    and the write-side facade and its per-shard index blocks stay out."""
    classes = [
        node
        for module in MODULES
        for node in ast.walk(ast.parse(module.read_text()))
        if isinstance(node, ast.ClassDef)
    ]
    writers = [
        node.name
        for node in classes
        if any(
            isinstance(item, ast.FunctionDef) and item.name == "add_weights"
            for item in node.body
        )
    ]
    assert writers == ["BehaviorNetwork"]
    assert {node.name for node in classes} & {"ShardBlock", "ShardedBehaviorNetwork"} == set()
