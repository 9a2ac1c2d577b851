"""Dead-code guards: every function, class and method in src/fiocalc has a
caller outside the tests, and every CLI option is read by its command.

A name counts as used when a word-boundary match for it appears in src/
outside its own definition and the package's __init__ re-exports, or
anywhere in benchmarks/.  This is a word-level check, so it misses:
- names that also show up in strings or comments: a function named
  mu_fourier would pass on the acceptance case label "mu_fourier|fourier";
- names whose only callers are themselves uncalled, such as a helper called
  only by a function that only tests call.
"""

import argparse
import ast
import re
from pathlib import Path

from fiocalc import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fiocalc"

# test-only names kept on purpose, each with the reason
ALLOWED = {
    "chirp_invariance_check": "ROADMAP item 1",
    "fio_on_lagrangian_check": "ROADMAP item 1",
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


def test_every_name_has_a_caller_outside_the_tests():
    src = "\n".join(p.read_text() for p in sorted(PACKAGE.glob("*.py"))
                    if p.name != "__init__.py")
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "benchmarks").glob("*.py")))
    names = sorted(set(_defined_names()))
    unused = []
    for name, module in names:
        if name in ALLOWED:
            continue
        word = re.compile(rf"\b{re.escape(name)}\b")
        definitions = len(re.findall(rf"^\s*(?:def|class)\s+{re.escape(name)}\b",
                                     src, flags=re.MULTILINE))
        if len(word.findall(src)) <= definitions and not word.search(bench):
            unused.append(f"{module}:{name}")
    assert not unused, f"only tests call: {', '.join(unused)}"


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
