"""Repository tooling sanity checks.

Keeps the source tree importable at the bytecode level: every module
under ``src/`` must byte-compile (the ``python -m compileall src``
sanity step, run in-process so it is part of tier-1).

Also keeps the tree *lint-clean*: ``repro lint src/`` (the
reprolint static-analysis pass, :mod:`repro.staticcheck`) must report
zero unsuppressed findings, every suppression must carry a reason, and
the ``REPRO_*`` knob registry must stay in sync with the docs.  Running
the self-lint here makes a new violation fail tier-1 locally, not just
the CI lint leg.

Every file that ``docs/reproduction_map.md`` names as a claim's
verification must exist, and no package module may import
``repro.sharedmem``: sweeps use the pool's own pickle pipe.
"""

from __future__ import annotations

import ast
import compileall
import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
ROOT = SRC.parent


def test_src_tree_byte_compiles():
    assert SRC.is_dir()
    ok = compileall.compile_dir(str(SRC), quiet=2, force=False, workers=1)
    assert ok, "a module under src/ failed to byte-compile"


def test_cli_entry_point_resolves():
    """The console script named in pyproject actually imports."""
    from repro.cli import main

    assert callable(main)


def test_src_tree_is_lint_clean():
    """`repro lint src/` reports zero unsuppressed findings."""
    from repro import staticcheck

    result = staticcheck.analyze_paths([SRC], root=ROOT)
    assert result.files_scanned > 50
    report = staticcheck.render_text(result)
    assert result.clean, f"src/ has lint findings:\n{report}"


def test_every_suppression_carries_a_reason():
    """In-tree `# repro: allow-*` markers all justify themselves."""
    from repro import staticcheck

    result = staticcheck.analyze_paths([SRC], root=ROOT)
    assert result.suppressed, "expected the known in-tree suppressions"
    for finding, reason in result.suppressed:
        assert reason, f"{finding.path}:{finding.line} has a bare marker"


def test_knob_registry_matches_docs():
    """Every repro.env knob is documented, and vice versa."""
    from repro import staticcheck

    docs = staticcheck.find_docs_dir(ROOT)
    assert docs is not None
    drift = staticcheck.check_knob_docs(docs)
    assert drift == [], "\n".join(f.message for f in drift)


def test_reproduction_map_names_existing_files():
    """Every file in the map's verification column exists.

    ``bench_*.py`` names resolve under ``benchmarks/``, ``tests/...``
    names from the repository root and any other ``.py`` name under
    ``src/repro/``, so an abbreviated or renamed file cannot hide.
    """
    named = []
    text = (ROOT / "docs" / "reproduction_map.md").read_text()
    for line in text.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 3:
            named += re.findall(r"`([^`]*\.py)`", cells[2])
    assert len(named) >= 8

    def where(name):
        if name.startswith("bench_"):
            return ROOT / "benchmarks" / name
        if name.startswith("tests/"):
            return ROOT / name
        return SRC / "repro" / name

    missing = [name for name in named if not where(name).is_file()]
    assert not missing, f"docs/reproduction_map.md names {missing}"


def _imported_names(path: Path) -> set[str]:
    """Absolute dotted names *path* imports, relative imports resolved
    against its package (``from . import x`` yields ``pkg`` and
    ``pkg.x``)."""
    parts = path.relative_to(SRC).with_suffix("").parts[:-1]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = parts[: len(parts) - node.level + 1] if node.level else ()
            module = ".".join((*base, *filter(None, [node.module])))
            names.add(module)
            names.update(f"{module}.{alias.name}" for alias in node.names)
    return names


def test_no_package_module_imports_sharedmem():
    """``repro.sharedmem`` is kept only for the e2e layer tracer."""
    offenders = [
        str(path.relative_to(ROOT))
        for path in sorted((SRC / "repro").rglob("*.py"))
        if any(
            name == "repro.sharedmem" or name.startswith("repro.sharedmem.")
            for name in _imported_names(path)
        )
    ]
    assert offenders == [], f"{offenders} import repro.sharedmem"
