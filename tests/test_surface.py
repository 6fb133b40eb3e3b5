"""Every public name has a program path, and only kernels skip the checks.

Every public module-level function and class of the package (a ``def`` or
``class`` at the top of one of its modules, named without a leading
underscore) must be read somewhere in the package's modules or in the
benchmark harness, as a bare name or as an attribute.  A name that only
the tests reach is surface to delete.  The two paper corollaries below
are the exception: they are reproduced formulas of the paper, which
the test suite checks and no command needs.

``_value._unchecked`` builds a value without its constructor's checks.
Only the kernels in UNCHECKED_SITES may call it, each because its own
guards already establish what the constructor checks.  Whatever comes from
outside the program (coefficient and spec files, argv) must go through the
constructors, so the file and spec readers and the CLI are never on the
list.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAPER_FORMULAS = {"antiassoc_order1_cfun_secondkind", "antiassoc_order2_sfun_matrix"}

# module.function of every caller of _value._unchecked
UNCHECKED_SITES = frozenset({
    "szego.geronimus_forward",
    "szego.invert_from",
    "szego.alpha_from_v",
    "szego.v_from_alpha",
    "szego.v_from_recurrence",
    "oprl.shift_coefficients",
    "oprl.prepend_coefficients",
    "opuc.shift_verblunsky",
    "perturb.sieve2_recurrence",
    "perturb.sieved_kmod_recurrence",
})

# The readers of outside input: whole modules, and the spec field readers.
INPUT_MODULES = ("serialize", "cli")
SPEC_READERS = {"perturb._real_from_obj", "perturb._int_from_obj",
                "perturb._complex_from_obj", "perturb._antiassoc_from_obj"}


def _public_defs(paths) -> dict[str, str]:
    """module.name -> name of every public module-level def and class."""
    defs = {}
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs[f"{path.stem}.{node.name}"] = node.name
    return defs


def _names_read(paths) -> set[str]:
    seen = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                seen.add(node.id)
            elif isinstance(node, ast.Attribute):
                seen.add(node.attr)
    return seen


def test_every_export_has_a_program_path():
    modules = sorted((ROOT / "src" / "ortho_szego").glob("*.py"))
    defs = _public_defs(modules)
    assert PAPER_FORMULAS <= set(defs.values())
    read = _names_read(modules + sorted((ROOT / "perfbench").glob("*.py")))
    unread = {dotted for dotted, name in defs.items()
              if name not in read and name not in PAPER_FORMULAS}
    assert not unread, f"defined but read by no program path: {sorted(unread)}"


def _unchecked_uses(path) -> set[str]:
    """The dotted scope (module, then enclosing classes, functions and
    lambdas) of every reference to _unchecked in one source file; an
    import of it under another name counts as a use at its scope."""
    uses = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Lambda):
                visit(child, f"{scope}.<lambda>")
                continue
            if ((isinstance(child, ast.Name) and child.id == "_unchecked")
                    or (isinstance(child, ast.Attribute) and child.attr == "_unchecked")
                    or (isinstance(child, ast.Constant) and child.value == "_unchecked")
                    or (isinstance(child, ast.alias) and child.name == "_unchecked"
                        and child.asname not in (None, "_unchecked"))):
                uses.add(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return uses


def test_only_the_listed_kernels_skip_the_constructor_checks():
    package = ROOT / "src" / "ortho_szego"
    uses = set().union(*(_unchecked_uses(p) for p in sorted(package.glob("*.py"))))
    assert uses - UNCHECKED_SITES == set(), "_unchecked used outside the allowlist"
    assert UNCHECKED_SITES - uses == set(), "allowlisted sites that no longer use _unchecked"


def test_no_reader_of_outside_input_is_allowlisted():
    for site in UNCHECKED_SITES:
        assert site.split(".")[0] not in INPUT_MODULES, site
        assert site not in SPEC_READERS, site
