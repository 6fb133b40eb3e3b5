"""Every public name has a program path.

A name exported in ``ortho_szego.__all__`` must be read somewhere in the
package's own modules (not the export table in ``__init__``) or in the
benchmark harness: as a bare name or as an attribute, or for the
``errors`` module as the source of a ``from ... import``.  A name that only
the tests reach is surface to delete.  The two paper corollaries below
are the exception: they are reproduced formulas of the paper, which
the test suite checks and no command needs.
"""

import ast
from pathlib import Path

import ortho_szego

ROOT = Path(__file__).resolve().parent.parent

PAPER_FORMULAS = {"antiassoc_order1_cfun_secondkind", "antiassoc_order2_sfun_matrix"}


def _names_read(paths) -> set[str]:
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module:
                seen.add(node.module.rsplit(".", 1)[-1])
    return seen


def test_every_export_has_a_program_path():
    package = ROOT / "src" / "ortho_szego"
    sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    unread = set(ortho_szego.__all__) - _names_read(sources) - PAPER_FORMULAS
    assert not unread, f"exported but read by no program path: {sorted(unread)}"
