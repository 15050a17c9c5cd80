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


# -- docs name only commands and flags that exist -----------------------------

#: Long options the checked documents quote from other programs.
_FOREIGN_FLAGS = {"--workload"}      # bench/run.py


def test_docs_name_only_cli_commands_and_flags_that_exist():
    """Every ``--long-flag`` and ``repro <subcommand>`` that README.md,
    DESIGN.md, EXPERIMENTS.md and docs/*.md name is in ``build_parser()``
    — a deleted flag cannot live on in prose.  Not checked: CHANGES.md,
    ISSUE.md and ROADMAP.md (history and plans name what is gone or not
    yet there), PAPER*.md and SNIPPETS.md (other people's text), and
    bench/README.md (frozen with ``bench/``; it has its own CLI)."""
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
    documents = [REPO / "README.md", REPO / "DESIGN.md",
                 REPO / "EXPERIMENTS.md",
                 *sorted((REPO / "docs").glob("*.md"))]
    stale = []
    for path in documents:
        text = path.read_text(encoding="utf-8")
        stale += [f"{path.name}: {name}" for name in flag.findall(text)
                  if name not in flags]
        stale += [f"{path.name}: repro {name}"
                  for name in command.findall(text)
                  if name not in CLI_SURFACE]
    assert stale == []
