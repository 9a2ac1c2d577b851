"""Dead-code guards: every function, class and method in src/fiocalc has a
caller outside the tests, every class member is read, and every CLI option
is read by its command; and README's command table lists what the CLI
declares.

A name counts as used where src/ (apart from the package's __init__
re-exports) or benchmarks/ loads it in code: an ast.Name or ast.Attribute
load, or an import alias, outside the definition of that name.  Strings,
comments and docstrings do not count.  The check goes by name, so it misses:
- names that are also loaded on other objects: a method apply would pass
  on any x.apply;
- names whose only callers are themselves uncalled, such as a helper called
  only by a function that only tests call.
"""

import argparse
import ast
from pathlib import Path

from fiocalc import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fiocalc"

# test-only names kept on purpose, each with the reason
ALLOWED: dict = {}

# class members that nothing in src/ or benchmarks/ reads, kept on purpose,
# each with the reason
UNREAD_ALLOWED = {
    "_Parser.error": "argparse calls it on a usage error",
}


def _defined_names():
    """(name, module) for each top-level function, class and non-dunder method."""
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield node.name, path.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if (isinstance(item, ast.FunctionDef)
                            and not (item.name.startswith("__") and item.name.endswith("__"))):
                        yield item.name, path.name


def _loaded_names(node, inside=frozenset()) -> set:
    """Names the code under node loads: ast.Name and ast.Attribute loads and
    import aliases, each outside the definitions (inside) of that name."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        inside = inside | {node.name}
    name = None
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        name = node.id
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name.rsplit(".", 1)[-1]
    loaded = {name} - inside if name else set()
    for child in ast.iter_child_nodes(node):
        loaded |= _loaded_names(child, inside)
    return loaded


def test_every_name_has_a_caller_outside_the_tests():
    paths = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    paths += sorted((ROOT / "benchmarks").glob("*.py"))
    used = set().union(*(_loaded_names(ast.parse(p.read_text())) for p in paths))
    unused = sorted(f"{module}:{name}" for name, module in set(_defined_names())
                    if name not in used and name not in ALLOWED)
    assert not unused, f"only tests call: {', '.join(unused)}"


def test_every_allowance_names_a_definition():
    defined = {name for name, _module in _defined_names()}
    members = {f"{cls}.{name}" for cls, name, _module in _class_members()}
    stale = sorted((ALLOWED.keys() - defined) | (UNREAD_ALLOWED.keys() - members))
    assert not stale, f"allowed but not defined: {', '.join(stale)}"


def _class_members():
    """(class, member, module) for each method, property and dataclass field
    of every class in src/fiocalc, and each self.<name> its methods set;
    dunder names excluded."""
    for path in sorted(PACKAGE.glob("*.py")):
        for cls in ast.parse(path.read_text()).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = set()
            for item in cls.body:
                if isinstance(item, ast.FunctionDef):
                    names.add(item.name)
                    names.update(node.attr for node in ast.walk(item)
                                 if isinstance(node, ast.Attribute)
                                 and isinstance(node.ctx, ast.Store)
                                 and isinstance(node.value, ast.Name)
                                 and node.value.id == "self")
                elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    names.add(item.target.id)
            for name in sorted(names):
                if not (name.startswith("__") and name.endswith("__")):
                    yield cls.name, name, path.name


def test_every_class_member_is_read():
    """Each member's name is loaded as an attribute, `.name`, somewhere in
    src/ or benchmarks/.

    The check is by name, not by class, so it cannot see a member whose name
    is read on other objects: SizeGuardError.entries would pass on any
    chi.entries.  A member read only by its own class's methods counts as
    read."""
    loaded = set()
    for path in [*PACKAGE.glob("*.py"), *(ROOT / "benchmarks").glob("*.py")]:
        loaded.update(node.attr for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load))
    unread = [f"{module}:{cls}.{name}" for cls, name, module in _class_members()
              if name not in loaded and f"{cls}.{name}" not in UNREAD_ALLOWED]
    assert not unread, f"never read: {', '.join(unread)}"


def test_every_command_takes_exactly_the_options_its_handler_reads():
    """The options a subcommand registers equal the args.<name> attributes
    its handler reads, apart from the inputs, --out and the command name."""
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    handlers = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    mismatched = []
    for name, (func, _nargs) in cli._COMMANDS.items():
        reads = {node.attr for node in ast.walk(handlers[func.__name__])
                 if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                 and node.value.id == "args"} - {"inputs", "out", "command"}
        registered = {a.dest for a in sub.choices[name]._actions} - {"help", "inputs", "out"}
        if reads != registered:
            mismatched.append(f"{name}: reads {sorted(reads)}, takes {sorted(registered)}")
    assert not mismatched, "; ".join(mismatched)


def test_the_readme_command_table_matches_the_commands():
    """Each row of README's "Command line" table lists its command's
    inputs (comma-separated, or none) and options (or none) as _COMMANDS
    declares them, and the rows are exactly the commands, in order."""
    text = (ROOT / "README.md").read_text()
    table = text.split("| Command | Inputs | Options |\n| --- | --- | --- |\n")[1]
    rows = {}
    for line in table.splitlines():
        if not line.startswith("|"):
            break
        command, inputs, options = (cell.strip() for cell in line.strip("|").split("|"))
        rows[command.strip("`")] = (
            0 if inputs == "none" else len(inputs.split(",")),
            [] if options == "none" else [opt.strip().strip("`") for opt in options.split(",")])
    declared = {name: (nargs, ["--" + key.replace("_", "-") for key in options])
                for name, (_func, (nargs, *options)) in cli._COMMANDS.items()}
    assert list(rows) == list(declared)
    assert rows == declared
