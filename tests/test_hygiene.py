"""Source hygiene: no module of the package or the tests imports a name it
never uses, and every top-level function and class of the package, and
every method of a reached class, is reached from a command.  Ast scans, so
they need neither pyflakes nor ruff."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "heckezero"
FILES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement and never read in the module."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in used]


def test_scan_finds_unused():
    assert unused_imports("import os\nfrom a import b, c as d\nd()\n") == \
        ["b (line 2)", "os (line 1)"]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def unreached_defs(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes, as "module.name", and the methods
    of reached classes, as "module.Class.name", that no command reaches;
    sources maps each module name of the package to its text.

    The roots are cli.main, the cmd_* functions of cli and commands
    (run_command looks them up by name) and every module-level statement
    that is not a def, a class or an import.  Reached code reaches each
    top-level def or class that it names, in its own module or through
    `from .m import x`.  A reached class reaches its bases, its class-level
    statements and its dunder methods; any other method is reached once
    reached code names it as an attribute (`.name`), on whatever object.
    """
    trees = {mod: ast.parse(text) for mod, text in sources.items()}
    defs, aliases, stack = {}, {}, []
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs[mod, node.name] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                stack.append((mod, node))
        aliases[mod] = {alias.asname or alias.name:
                        (node.module or "__init__", alias.name)
                        for node in ast.walk(tree)
                        if isinstance(node, ast.ImportFrom) and node.level == 1
                        for alias in node.names}
    reached = {key for key in defs if key == ("cli", "main") or (
        key[0] in ("cli", "commands") and key[1].startswith("cmd_"))}
    stack += [(key[0], defs[key]) for key in reached]
    # pending[name]: (module, class, method node) of reached classes whose
    # method `name` no reached code has named yet
    pending, attrs = {}, set()
    while stack:
        mod, node = stack.pop()
        if isinstance(node, ast.ClassDef):
            stack += [(mod, sub) for sub in node.bases + node.decorator_list]
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)) \
                        or item.name.startswith("__") or item.name in attrs:
                    stack.append((mod, item))
                else:
                    pending.setdefault(item.name, []).append(
                        (mod, node.name, item))
            continue
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                key = (mod, sub.id) if (mod, sub.id) in defs \
                    else aliases[mod].get(sub.id)
                if key in defs and key not in reached:
                    reached.add(key)
                    stack.append((key[0], defs[key]))
            elif isinstance(sub, ast.Attribute):
                attrs.add(sub.attr)
                stack += [(m, item) for m, _, item in
                          pending.pop(sub.attr, ())]
    return sorted([f"{mod}.{name}" for mod, name in defs.keys() - reached]
                  + [f"{mod}.{cls}.{item.name}"
                     for left in pending.values() for mod, cls, item in left])


def test_scan_finds_unreached():
    sources = {
        "cli": "from .a import f as g\n"
               "def main(): g()\n"
               "def cmd_x(): pass\n"
               "def helper(): pass\n",
        "a": "def f(): h()\n"
             "def h(): pass\n"
             "def dead(): pass\n"
             "class K(Base):\n"
             "    def m(self): via_method()\n"
             "    def unnamed(self): via_unnamed()\n"
             "    def __len__(self): via_dunder()\n"
             "class Base: pass\n"
             "def via_method(): pass\n"
             "def via_unnamed(): pass\n"
             "def via_dunder(): pass\n"
             "TABLE = K().m\n",
        "commands": "def cmd_y(): pass\n"
                    "def helper(): pass\n",
    }
    assert unreached_defs(sources) == ["a.K.unnamed", "a.dead",
                                       "a.via_unnamed", "cli.helper",
                                       "commands.helper"]


def test_every_definition_reached():
    # the oracles the tests compare against live in tests/oracles.py;
    # argparse calls _Parser.error by name, never through code of ours
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    assert unreached_defs(sources) == ["cli._Parser.error"]


def test_engine_reached_without_selftest():
    # the rational references that only selftest checks live in acceptance:
    # with acceptance left out, a command still reaches every def of the
    # engine modules
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")
               if path.stem != "acceptance"}
    assert [name for name in unreached_defs(sources)
            if name.split(".")[0] in ("kernels", "shintani", "linearity")] \
        == []


def test_unit_group_read_in_characters_only():
    # every character sum builds a chi-free residue table and folds it with
    # characters.chi_weights, so no other module reads the discrete logs
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                yield node.id
            elif isinstance(node, ast.Attribute):
                yield node.attr
            elif isinstance(node, ast.alias):
                yield node.asname or node.name
                yield node.name
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "characters.py"
            and "_unit_group" in names(ast.parse(path.read_text()))] == []


def test_cyclo_element_is_a_plain_value():
    # every chi-value is one fold of an integer table: CycloElement defines
    # no arithmetic, subclasses nothing (a tuple would add by
    # concatenating), and only characters builds one
    tree = ast.parse((PACKAGE / "characters.py").read_text())
    cls = next(node for node in tree.body if isinstance(node, ast.ClassDef)
               and node.name == "CycloElement")
    defined = {node.name for node in cls.body
               if isinstance(node, ast.FunctionDef)} | {
        target.id for node in cls.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)}
    arithmetic = {f"__{p}{op}__" for p in ("", "r", "i") for op in (
        "add", "sub", "mul", "truediv", "floordiv", "mod", "pow", "matmul")}
    assert defined & (arithmetic | {"__neg__", "__pos__"}) == set()
    assert cls.bases == []

    def builds(path):
        return any(isinstance(node, ast.Call) and "CycloElement" in (
            getattr(node.func, "id", None), getattr(node.func, "attr", None))
            for node in ast.walk(ast.parse(path.read_text())))
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if path.name != "characters.py" and builds(path)] == []


def test_no_module_imports_cli():
    # `python -m heckezero.cli` runs cli as __main__, so a module of the
    # package that imported cli would compile and run a second copy of it
    def imports_cli(path):
        return any(isinstance(node, ast.ImportFrom) and node.level == 1 and (
            node.module == "cli" or node.module is None
            and "cli" in {alias.name for alias in node.names})
            for node in ast.walk(ast.parse(path.read_text())))
    assert [path.name for path in sorted(PACKAGE.glob("*.py"))
            if imports_cli(path)] == []
