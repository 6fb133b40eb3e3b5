"""Every public name has a program path, and only kernels skip the checks.

Every public module-level function and class of the package (a ``def`` or
``class`` at the top of one of its modules, named without a leading
underscore), and every public method of a package class, must be read
somewhere in the package's modules or in the benchmark harness, as a bare
name or as an attribute.  A name that only the tests reach is surface to
delete.  The two paper corollaries below
are the exception: they are reproduced formulas of the paper, which
the test suite checks and no command needs.

Every parameter with a default, of a public def or of a public class's
``__init__``, must likewise be passed by some call in those files: by
position, by keyword, or through ``functools.partial``.  An option that no
program path sets is surface too.  The Chebyshev fixture sizes in
FIXTURE_OPTIONS are the exception: the program always reads the default
64 coefficients, and the tests ask for shorter fixtures.

``_value._unchecked`` builds a value without its constructor's checks.
Only the kernels in UNCHECKED_SITES may call it, each because its own
guards already establish what the constructor checks.  Whatever comes from
outside the program (coefficient and spec files, argv) must go through the
constructors, so the file and spec readers and the CLI are never on the
list.

Only ``cli.run``, the program's entry point, may end the process with
``os._exit``; ``cli.main`` and every library function return to their
caller.

Only ``_value`` writes a value's slots with ``object.__setattr__``: the
one constructor ``Value.__init__`` and ``_unchecked``.  A subclass passes
its coerced fields to ``Value.__init__``.
"""

import ast
import math
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAPER_FORMULAS = {"antiassoc_order1_cfun_secondkind", "antiassoc_order2_sfun_matrix"}

FIXTURE_OPTIONS = {"oprl.chebyshev_t.n", "oprl.chebyshev_u.n"}

# module.function of every caller of _value._unchecked
UNCHECKED_SITES = frozenset({
    "szego.geronimus_forward",
    "szego.geronimus_inverse",
    "szego.alpha_from_v",
    "oprl.shift_coefficients",
    "oprl.prepend_coefficients",
    "opuc.shift_verblunsky",
    # check_xi reads each xi_i, vs was checked when built, and
    # _check_moduli re-reads the prepended entries as stored
    "opuc.prepend_verblunsky",
    # KModification's eta guard read eta, vs was checked when built, and
    # _check_moduli re-reads entry k as stored
    "perturb.copuc_apply",
    # the zeros and the checked entries of vs, in its storage kind
    "perturb.sieve",
    # rc was checked when built; the one changed entry is coerced to float,
    # and zero-checked after a dilation
    "perturb.coprl_apply",
    # odd k only: floats from real_view and the bridge kernels; each d-hat
    # joins three factors in [2^-160, 2], so it is positive and finite; the
    # window is 0.0 and the floats in (-1, 1) that real_view gave
    "perturb.assoc_opuc_to_recurrence",
    # the support guard on every odd entry; the even ones are 0.0
    "perturb._symmetric_from",
    # the zeros are floats; d is coerced and zero-checked as the constructor does
    "perturb._symmetric_line",
    "perturb.sieve2_recurrence",
    "perturb.sieved_kmod_recurrence",
})

# The readers of outside input: every JSON number passes through serialize.
INPUT_MODULES = ("serialize", "cli")


def _public_defs(paths) -> dict[str, str]:
    """module.name -> name of every public module-level def and class, and
    module.Class.name -> name of every public method of a class."""
    defs = {}
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        defs[f"{path.stem}.{node.name}.{sub.name}"] = sub.name
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


def _options(paths) -> dict[str, tuple[str, int | None]]:
    """module.callee.param -> (callee, position or None if keyword-only) of
    every defaulted parameter of a public module-level def, of a public
    class's __init__ (callee: the class) and of its public methods."""
    options = {}
    for path in paths:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.FunctionDef):
                defs = [(node.name, node, 0)]
            elif isinstance(node, ast.ClassDef):
                defs = [(node.name if sub.name == "__init__" else sub.name, sub, 1)
                        for sub in node.body if isinstance(sub, ast.FunctionDef)
                        and (sub.name == "__init__" or not sub.name.startswith("_"))]
            else:
                continue
            if node.name.startswith("_"):
                continue
            for callee, func, skip in defs:
                args = func.args
                positional = (args.posonlyargs + args.args)[skip:]
                defaulted = positional[len(positional) - len(args.defaults):]
                for arg in defaulted:
                    options[f"{path.stem}.{callee}.{arg.arg}"] = (callee, positional.index(arg))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        options[f"{path.stem}.{callee}.{arg.arg}"] = (callee, None)
    return options


def _calls(paths) -> dict[str, list[tuple[int, set[str]]]]:
    """callee name -> (positional count, keywords) of every call, with
    functools.partial(f, ...) read as a call of f; a *args counts as every
    later position and a **kwargs as every keyword."""
    calls = {}
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call):
                continue
            func, args = node.func, node.args
            name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name == "partial" and args:
                func, args = args[0], args[1:]
                name = getattr(func, "id", None) or getattr(func, "attr", None)
            if name is None:
                continue
            starred = any(isinstance(a, ast.Starred) for a in args)
            keywords = {k.arg for k in node.keywords}
            calls.setdefault(name, []).append((math.inf if starred else len(args), keywords))
    return calls


def test_every_option_has_a_program_caller():
    modules = sorted((ROOT / "src" / "ortho_szego").glob("*.py"))
    options = _options(modules)
    assert FIXTURE_OPTIONS <= set(options)
    calls = _calls(modules + sorted((ROOT / "perfbench").glob("*.py")))
    unset = sorted(
        dotted for dotted, (callee, position) in options.items()
        if dotted not in FIXTURE_OPTIONS
        and not any((position is not None and count > position)
                    or dotted.rsplit(".", 1)[1] in keywords or None in keywords
                    for count, keywords in calls.get(callee, ())))
    assert not unset, f"options that no program path passes: {unset}"


def _uses(path, name: str) -> set[str]:
    """The dotted scope (module, then enclosing classes, functions and
    lambdas) of every reference to name in one source file; an import of
    it under another name counts as a use at its scope."""
    uses = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if isinstance(child, ast.Lambda):
                visit(child, f"{scope}.<lambda>")
                continue
            if ((isinstance(child, ast.Name) and child.id == name)
                    or (isinstance(child, ast.Attribute) and child.attr == name)
                    or (isinstance(child, ast.Constant) and child.value == name)
                    or (isinstance(child, ast.alias) and child.name == name
                        and child.asname not in (None, name))):
                uses.add(scope)
            visit(child, scope)

    visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    return uses


def test_only_the_listed_kernels_skip_the_constructor_checks():
    package = ROOT / "src" / "ortho_szego"
    uses = set().union(*(_uses(p, "_unchecked") for p in sorted(package.glob("*.py"))))
    assert uses - UNCHECKED_SITES == set(), "_unchecked used outside the allowlist"
    assert UNCHECKED_SITES - uses == set(), "allowlisted sites that no longer use _unchecked"


def test_only_the_entry_point_ends_the_process():
    # cli.main returns its exit code to in-process callers (the tests, the
    # benchmark's probes, library users); os._exit anywhere else would end
    # their process
    package = ROOT / "src" / "ortho_szego"
    uses = set().union(*(_uses(p, "_exit") for p in sorted(package.glob("*.py"))))
    assert uses == {"cli.run"}


def test_only_value_sets_slots():
    # a value class that set its own slots would skip Value.__init__'s
    # field-count check and could leave a slot unset
    package = ROOT / "src" / "ortho_szego"
    uses = set().union(*(_uses(p, "__setattr__") for p in sorted(package.glob("*.py"))))
    assert uses == {"_value.Value.__init__", "_value._unchecked"}


def test_no_reader_of_outside_input_is_allowlisted():
    for site in UNCHECKED_SITES:
        assert site.split(".")[0] not in INPUT_MODULES, site


def test_only_serialize_reads_json():
    # one module owns the file formats and the number rule; a second json
    # reader would bring in numbers under rules of its own
    readers = []
    for path in sorted((ROOT / "src" / "ortho_szego").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "json" for name in names):
                readers.append(path.stem)
    assert readers == ["serialize"], readers


def test_no_list_is_extended_with_a_tuple_display():
    # `lst += (x, y)` builds a tuple and goes through list.__iadd__ on every
    # step; two lst.append calls are specialized instructions on CPython 3.11
    found = []
    for path in sorted((ROOT / "src" / "ortho_szego").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if (isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add)
                    and isinstance(node.value, ast.Tuple)):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, f"a list extended with a tuple display: {found}"
