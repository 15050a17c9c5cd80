"""Source-tree hygiene (scripts/check_tree.py).

A directory whose only contents are ``__pycache__`` bytecode keeps
resolving as an importable package locally while a fresh checkout
breaks — the fate that briefly befell ``src/repro/serve``.  The gate
under test walks the source trees and fails on any such hollow
directory; CI runs it in the lint job.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

_SPEC = importlib.util.spec_from_file_location(
    "check_tree", REPO / "scripts" / "check_tree.py")
check_tree = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_tree)


def test_the_serve_package_is_real_not_hollow():
    """``src/repro/serve`` was once a hollow ``__pycache__``-only husk;
    today it is the serving runtime.  Real sources must be present —
    the general gate below still fails if it ever hollows out again."""
    serve = REPO / "src" / "repro" / "serve"
    assert (serve / "__init__.py").is_file()
    assert {"shard.py", "journal.py", "worker.py", "supervise.py"} <= \
        {path.name for path in serve.glob("*.py")}


def test_repo_source_trees_are_clean():
    assert check_tree.main([str(REPO / "src"), str(REPO / "tests"),
                            str(REPO / "scripts")]) == 0


def test_pycache_only_package_is_flagged(tmp_path, capsys):
    hollow = tmp_path / "pkg" / "__pycache__"
    hollow.mkdir(parents=True)
    (hollow / "mod.cpython-312.pyc").write_bytes(b"\x00")
    assert check_tree.main([str(tmp_path)]) == 1
    assert "HOLLOW" in capsys.readouterr().err


def test_only_the_topmost_hollow_directory_is_reported(tmp_path):
    nested = tmp_path / "pkg" / "sub" / "__pycache__"
    nested.mkdir(parents=True)
    (nested / "mod.cpython-312.pyc").write_bytes(b"\x00")
    offenders = check_tree.hollow_directories(str(tmp_path))
    assert offenders == [str(tmp_path)]


def test_directory_with_sources_passes(tmp_path):
    pkg = tmp_path / "pkg"
    (pkg / "__pycache__").mkdir(parents=True)
    (pkg / "__pycache__" / "mod.cpython-312.pyc").write_bytes(b"\x00")
    (pkg / "mod.py").write_text("x = 1\n")
    assert check_tree.hollow_directories(str(tmp_path)) == []


def test_empty_directory_is_flagged(tmp_path):
    (tmp_path / "abandoned").mkdir()
    offenders = check_tree.hollow_directories(str(tmp_path))
    assert offenders == [str(tmp_path)]


def _imports_reference_oracle(path: Path) -> bool:
    import ast

    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            continue
        if any(name.startswith("repro.testing.reference") for name in names):
            return True
    return False


def test_the_reference_oracle_is_test_equipment_only():
    """One execution core: the ``isinstance`` evaluator and the polling
    loop live in ``repro.testing.reference`` and no shipped module may
    reach for them (nor for the deleted mode switch)."""
    import repro.runtime

    package = REPO / "src" / "repro"
    offenders = [
        str(path.relative_to(REPO)) for path in package.rglob("*.py")
        if package / "testing" not in path.parents
        and _imports_reference_oracle(path)
    ]
    assert offenders == []
    assert not {"reference_mode", "reference_active"} & \
        set(repro.runtime.__all__)
    assert not (package / "runtime" / "mode.py").exists()


# -- docs name only commands, flags, files and names that exist ---------------
#
# Checked: README.md, DESIGN.md, EXPERIMENTS.md and docs/*.md.  Not
# checked: CHANGES.md and ROADMAP.md (history and plans name
# what is gone or not yet there), PAPER*.md and SNIPPETS.md (other
# people's text), and bench/README.md (frozen with ``bench/``; it has
# its own CLI).

#: Long options the checked documents quote from other programs.
_FOREIGN_FLAGS = {"--workload"}      # bench/run.py


def _documents() -> list[Path]:
    return [REPO / "README.md", REPO / "DESIGN.md", REPO / "EXPERIMENTS.md",
            *sorted((REPO / "docs").glob("*.md"))]


def test_docs_name_only_cli_commands_and_flags_that_exist():
    """Every ``--long-flag`` and ``repro <subcommand>`` the documents
    name is in ``build_parser()`` — a deleted flag cannot live on in
    prose."""
    import re

    # The parser's surface, which ``test_cli_surface`` holds to
    # ``build_parser()`` option for option.
    from test_cli import CLI_SURFACE

    flags = {option for options in CLI_SURFACE.values()
             for option in options.split()} | _FOREIGN_FLAGS
    flag = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")
    # A command is quoted: after a backtick or ``-m``, or opening a line
    # of a code block — "its repro one-liner" is prose, not a command.
    command = re.compile(r"(?:`|-m |^\s*)repro ([a-z][a-z_-]*)", re.M)
    stale = []
    for path in _documents():
        text = path.read_text(encoding="utf-8")
        stale += [f"{path.name}: {name}" for name in flag.findall(text)
                  if name not in flags]
        stale += [f"{path.name}: repro {name}"
                  for name in command.findall(text)
                  if name not in CLI_SURFACE]
    assert stale == []


def _resolves(dotted: str) -> bool:
    """``repro.a.b[.Attr…]`` imports as a module and its tail resolves
    as attributes of it."""
    import importlib

    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def test_docs_name_only_files_and_names_that_exist():
    """Every repo path under ``src/``, ``tests/``, ``bench/``,
    ``examples/``, ``scripts/`` or ``docs/``, every bare ``test_*.py``
    (under ``tests/``), every ``path::name`` (a ``def`` or ``class`` of
    that file), every top-level ``NAME.json`` / ``NAME.md`` (a committed
    record such as ``BENCH_headline.json``) and every back-ticked
    ``repro.a.b[.Attr]`` (imports and resolves) that the documents name
    exists — a renamed test file, a deleted record or a deleted module
    cannot live on in prose."""
    import re

    roots = "src|tests|bench|examples|scripts|docs"
    path_ref = re.compile(
        rf"(?<![\w./-])((?:{roots})/[\w./-]*\w|test_\w+\.py)(?:::(\w+))?")
    top_ref = re.compile(r"(?<![\w./-])([A-Z][\w-]*\.(?:json|md))(?![\w/])")
    module_ref = re.compile(r"`(repro(?:\.\w+)+)")
    stale = []
    for document in _documents():
        text = document.read_text(encoding="utf-8")
        stale += [f"{document.name}: {name}"
                  for name in top_ref.findall(text)
                  if not (REPO / name).exists()]
        for ref, name in path_ref.findall(text):
            path = REPO / ref if "/" in ref else REPO / "tests" / ref
            if not path.exists():
                stale.append(f"{document.name}: {ref}")
            elif name and not re.search(
                    rf"^\s*(?:def|class) {name}\b",
                    path.read_text(encoding="utf-8"), re.M):
                stale.append(f"{document.name}: {ref}::{name}")
        stale += [f"{document.name}: {dotted}"
                  for dotted in module_ref.findall(text)
                  if not _resolves(dotted)]
    assert stale == []


# -- every public function in src/ has a caller in src/ ----------------------

#: The public names that may stand without a caller in ``src/``, each
#: with the reader it has instead.
_CALLER_EXEMPT = {
    "shard_oracle": "bench/ runs it as the serving benchmarks' oracle",
    "TrafficGenerator.mixed_stream": "ROADMAP item 8 gives it a caller",
    "measure_replication": "examples/ and the §5 and §2.2 tables read it; "
                           "ROADMAP item 18's replication fuzz leg gives "
                           "it a caller",
    "WarmStartCache": "bench/compiling.py reads it; ROADMAP item 5 deletes it",
}


def _references(node, attributes_only: bool = False) -> list[str]:
    import ast

    return [sub.attr if isinstance(sub, ast.Attribute) else sub.id
            for sub in ast.walk(node)
            if isinstance(sub, ast.Attribute)
            or not attributes_only and isinstance(sub, ast.Name)]


def _uncalled(package: Path) -> list[str]:
    """Public module-level functions, classes and class methods under
    ``package`` (its ``testing/`` subpackage aside) that nothing under
    ``package`` references, as ``path: name`` or ``path: Class.name``.

    A reference is a name read or an attribute access anywhere under
    ``package``, ``testing/`` included (imports and ``__all__`` strings
    do not count); a method's is an attribute access only, so a local
    variable of its name does not hide it.  One inside the definition's
    own body — recursion — does not count either.  The check is by name,
    so a method shares references with any same-named attribute."""
    import ast
    from collections import Counter

    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    referenced, attributes, recursive = Counter(), Counter(), Counter()
    definitions = []
    for path in sorted(package.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        referenced.update(_references(tree))
        attributes.update(_references(tree, attributes_only=True))
        if package / "testing" in path.parents:
            continue
        for node in tree.body:
            if isinstance(node, functions):
                members, owner = [node], ""
            elif isinstance(node, ast.ClassDef):
                members = [node] + [item for item in node.body
                                    if isinstance(item, functions)]
                owner = f"{node.name}."
            else:
                continue
            for member in members:
                method = member is not node
                recursive[method, member.name] += _references(
                    member, method).count(member.name)
                if not member.name.startswith("_"):
                    qualified = (f"{owner}{member.name}" if method
                                 else member.name)
                    definitions.append(
                        (f"{path.relative_to(package)}: {qualified}",
                         method, member.name))
    return [label for label, method, name in definitions
            if (attributes if method else referenced)[name]
            == recursive[method, name]]


def test_every_public_analysis_function_has_a_caller_in_src():
    """A public function, class or method of any package but
    ``repro.testing``, or of a top-level module, that only tests reach is
    dead weight: give it a shipped caller, move it to its reader, or
    delete it.  The one way out is :data:`_CALLER_EXEMPT`, whose every
    entry must still be needed."""
    uncalled = _uncalled(REPO / "src" / "repro")
    assert [label for label in uncalled
            if label.partition(": ")[2] not in _CALLER_EXEMPT] == []
    assert sorted(label.partition(": ")[2] for label in uncalled) == \
        sorted(_CALLER_EXEMPT)


def test_the_caller_scan_flags_plain_and_recursive_orphans(tmp_path):
    package = tmp_path / "pkg"
    (package / "testing").mkdir(parents=True)
    (package / "top.py").write_text(
        "def used():\n    return 1\n\nVALUE = used()\n")
    (package / "testing" / "kit.py").write_text(
        "def helper():\n    return 2\n")
    assert _uncalled(package) == []

    (package / "sub").mkdir()
    (package / "sub" / "mod.py").write_text(
        "class Walker:\n"
        "    def walk(self, node):\n"
        "        return [self.walk(child) for child in node]\n\n"
        "WALKER = Walker()\n\n"
        "class Leaf:\n"
        "    def copy(self):\n"
        "        return Leaf()\n\n"
        "def orphan():\n    return used()\n")
    assert _uncalled(package) == ["sub/mod.py: Walker.walk",
                                  "sub/mod.py: Leaf",
                                  "sub/mod.py: Leaf.copy",
                                  "sub/mod.py: orphan"]

    # A local variable that shares a method's name does not call it; an
    # attribute access of that name does.
    (package / "meter.py").write_text(
        "class Meter:\n"
        "    def total(self):\n"
        "        return 0\n\n"
        "    def reset(self):\n"
        "        return 0\n\n"
        "METER = Meter()\n\n"
        "def tally(values):\n"
        "    total = sum(values)\n"
        "    return total + METER.reset()\n\n"
        "TALLY = tally([1])\n")
    assert _uncalled(package)[:1] == ["meter.py: Meter.total"]
