"""Every name a module imports is used in that module; every top-level
function or class of the package, and every public method of its classes,
is used by the package or the benchmark; each defaulted parameter of a
package function is set by some call in the package or the benchmark and
left out by another; no function of the package takes a parameter it
never reads, but the `cmd_*` handlers' `(args, g)`; the package draws no random integer through
`randint` or `randrange`; the package orders no class's members with
`sorted`, `min` or `max`; no module of the package but `__main__.py`
tests `__name__ == "__main__"`; every module of the package parses at
the Python floor that `pyproject.toml` declares; every code name the
README or a docstring or comment of the package cites still exists; and
the README's CLI section cites exactly the flags the subcommands
register; and importing the CLI loads no `typing`."""

import argparse
import ast
import io
import os
import re
import subprocess
import sys
import tokenize
from pathlib import Path

import pytest

from qsemi import cli

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "qsemi").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
USERS = PACKAGE + sorted((ROOT / "bench").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nfrom a.b import c, d as e\ne()\n") == [
        "c (line 2)", "os (line 1)"]
    assert unused_imports("import a.b\na.b.f()\n") == []


@pytest.mark.parametrize("path", MODULES,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
DEFS = FUNCS + (ast.ClassDef,)


def referenced_names(source: str) -> set[str]:
    """Names a module refers to: loads, attributes, imported names and string
    constants (the bench patches functions by name), each top-level
    definition's references to itself left out."""
    found = set()
    for top in ast.parse(source).body:
        own = top.name if isinstance(top, DEFS) else None
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name.split(".")[-1]
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name != own:
                found.add(name)
    return found


def definitions(source: str):
    """(dotted name, name) of each top-level function or class and of each
    public (not dunder) method of a top-level class."""
    for top in ast.parse(source).body:
        if not isinstance(top, DEFS):
            continue
        yield top.name, top.name
        if isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, FUNCS) and not node.name.startswith("__"):
                    yield f"{top.name}.{node.name}", node.name


def dead_names(defining: dict[str, str], users: list[str]) -> list[str]:
    """`module.name` for each definition of the `defining` sources (module ->
    source) that no source in `users` refers to."""
    used = set().union(*map(referenced_names, users))
    return sorted(f"{module}.{dotted}" for module, source in defining.items()
                  for dotted, name in definitions(source) if name not in used)


def test_detects_a_dead_name():
    lib = ("def used():\n    return Kept().size()\n"
           "def dead(n):\n    return dead(n - 1)\n"
           "class Gone:\n    pass\n"
           "class Kept:\n    def __len__(self):\n        return 0\n"
           "    def size(self):\n        return 1\n"
           "    def unread(self):\n        return 2\n")
    caller = "from lib import used\nused()\n"
    assert dead_names({"lib": lib}, [lib, caller]) == [
        "lib.Gone", "lib.Kept.unread", "lib.dead"]
    assert dead_names({"lib": lib}, [lib, caller, "x.dead\n", "'Gone'\n",
                                     "y.unread()\n"]) == []


def test_no_dead_top_level_names():
    # tests are not users: a definition only tests reach belongs in tests
    defining = {path.stem: path.read_text() for path in PACKAGE}
    assert dead_names(defining, [path.read_text() for path in USERS]) == []


def defaulted_parameters(source: str):
    """(function, parameter, position) of each parameter with a default of
    every function and method of a module: its index among the positional
    arguments of a call (a method's `self` not counted), or None for a
    keyword-only parameter."""
    tree = ast.parse(source)
    methods = {id(node) for top in ast.walk(tree)
               if isinstance(top, ast.ClassDef)
               for node in top.body if isinstance(node, FUNCS)}
    for node in ast.walk(tree):
        if not isinstance(node, FUNCS):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        first, skip = len(positional) - len(args.defaults), id(node) in methods
        for i, arg in enumerate(positional[first:], first):
            yield node.name, arg.arg, i - skip
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield node.name, arg.arg, None


def passes(call: ast.Call, param: str, position: int | None) -> bool:
    """Whether a call passes the parameter: by keyword, through `**kwargs`,
    or by position, where a `*args` may reach any position."""
    if any(kw.arg in (param, None) for kw in call.keywords):
        return True
    return position is not None and (
        position < len(call.args)
        or any(isinstance(a, ast.Starred) for a in call.args))


def idle_defaults(defining: dict[str, str], users: list[str]) -> list[str]:
    """`module.function(parameter): ...` for each defaulted parameter of
    the `defining` sources (module -> source) that no call in `users`
    passes ("never set": the default is a constant) or that every call
    passes ("never left out": the default is unused).  Calls match a
    function by its bare name, as `dead_names` matches references."""
    calls: dict[str, list[ast.Call]] = {}
    for source in users:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name) else
                        f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    found = []
    for module, source in defining.items():
        for func, param, position in defaulted_parameters(source):
            passed = {passes(call, param, position)
                      for call in calls.get(func, ())}
            if True not in passed:
                found.append(f"{module}.{func}({param}): never set")
            elif False not in passed:
                found.append(f"{module}.{func}({param}): never left out")
    return sorted(found)


def test_detects_an_idle_default():
    lib = ("def f(a, b=1, *, c=2, d=3):\n    pass\n"
           "def g(a, b=1):\n    pass\n"
           "class K:\n    def m(self, a, b=None):\n        pass\n")
    # d is set only through **opts, which counts
    caller = ("f(0, 5, c=1)\nf(0, c=4)\ng(0)\nx.m(0, 1)\nx.m(0)\n"
              "f(0, **opts)\n")
    assert idle_defaults({"lib": lib}, [lib, caller]) == [
        "lib.f(c): never left out", "lib.g(b): never set"]
    assert idle_defaults({"lib": lib}, [caller, "g(0, *rest)\nf(0)\n"]) == []
    assert idle_defaults({"lib": lib}, [lib, "x.m(0, 1)\n"]) == [
        "lib.f(b): never set", "lib.f(c): never set", "lib.f(d): never set",
        "lib.g(b): never set", "lib.m(b): never left out"]


def test_every_default_is_both_set_and_left_out():
    # a default that every call overrides is dead weight, and one that no
    # call overrides is a constant: the command line owns the check
    # parameters, and tests pass theirs in full
    defining = {path.stem: path.read_text() for path in PACKAGE}
    assert idle_defaults(defining, [path.read_text() for path in USERS]) == []


def unread_parameters(source: str) -> list[str]:
    """`function(parameter)` for each parameter of each function and method
    of a module that its body never reads, but `args` and `g` of the
    `cmd_*` handlers, which the CLI calls all alike as handler(args, g).
    A parameter threaded through but no longer read (a generator nothing
    draws from) shows here."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, FUNCS):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *filter(None, [a.vararg]),
                  *a.kwonlyargs, *filter(None, [a.kwarg])]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name)}
        exempt = {"args", "g"} if node.name.startswith("cmd_") else set()
        found += [(node.lineno, f"{node.name}({p.arg}) (line {node.lineno})")
                  for p in params if p.arg not in read | exempt]
    return [text for _, text in sorted(found, key=lambda hit: hit[0])]


def test_detects_an_unread_parameter():
    source = ("def f(a, b, *rest, c=1, **opts):\n    return a + len(opts)\n"
              "def g(rng):\n    return lambda: rng.random()\n"
              "class K:\n    def m(self, x):\n        return x\n"
              "def cmd_show(args, g):\n    return True\n"
              "def cmd_seed(args, g, rng):\n    return args\n")
    assert unread_parameters(source) == [
        "f(b) (line 1)", "f(rest) (line 1)", "f(c) (line 1)",
        "m(self) (line 6)", "cmd_seed(rng) (line 10)"]


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_package_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


SLOW_DRAWS = {"randint", "randrange"}


def slow_draws(source: str) -> list[str]:
    """Each `.randint(` or `.randrange(` call of a module.  They go through
    three Python frames per integer; `words.draw` makes the same
    `getrandbits` calls in one, and `words.word_sampler` and the
    zero-divisor search inline them, a word or an element per frame."""
    return sorted(f"{node.func.attr} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in SLOW_DRAWS)


def test_detects_a_slow_draw():
    assert slow_draws("rng.randint(1, 8)\nx = rng.random()\n"
                      "f(random.Random(0).randrange(3))\n") == [
        "randint (line 1)", "randrange (line 3)"]
    assert slow_draws("draw(rng, 1, 8)\n'rng.randint(1, 8)'\n") == []


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_package_draws_through_getrandbits(path):
    assert slow_draws(path.read_text()) == []


ORDERINGS = {"sorted", "min", "max"}


def member_orderings(source: str) -> list[str]:
    """Each `sorted`, `min` or `max` call of a module with an argument that
    ends in `.members` or is a name `members`.  `words.class_of` lists a
    class's members in ascending order, so a caller that orders them again
    makes a second owner of that order."""
    return sorted(f"{node.func.id} (line {node.lineno})"
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ORDERINGS
                  and any(isinstance(a, ast.Attribute) and a.attr == "members"
                          or isinstance(a, ast.Name) and a.id == "members"
                          for a in node.args))


def test_detects_a_member_ordering():
    assert member_orderings("sorted(cls.members)\n"
                            "min(class_of(w, g, cfg).members)\n"
                            "x = max(members, key=len)\n") == [
        "max (line 3)", "min (line 2)", "sorted (line 1)"]
    assert member_orderings("cls.members[0]\nlen(cls.members)\n"
                            "sorted(cls.members_of)\nsorted(words)\n"
                            "min(members[0])\nw.sorted(cls.members)\n") == []


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_package_orders_no_class_members(path):
    assert member_orderings(path.read_text()) == []


def main_guards(source: str) -> list[int]:
    """The line of each `__name__ == "__main__"` comparison of a module,
    either way round."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Compare):
            sides = [node.left, *node.comparators]
            names = {x.id for x in sides if isinstance(x, ast.Name)}
            values = {x.value for x in sides if isinstance(x, ast.Constant)}
            if "__name__" in names and "__main__" in values:
                lines.append(node.lineno)
    return sorted(lines)


def test_detects_a_main_guard():
    assert main_guards('def main():\n    pass\n\n'
                       'if __name__ == "__main__":\n    main()\n'
                       'if "__main__" == __name__:\n    main()\n') == [4, 6]
    assert main_guards('name = __name__\nx = "__main__"\n'
                       'if __name__ == "qsemi":\n    pass\n') == []


def test_only_dunder_main_runs_as_a_script():
    # the console script and `python -m qsemi` are the entry points; a
    # module that also runs as a script is a third, undocumented one
    guarded = {path.name: main_guards(path.read_text()) for path in PACKAGE
               if path.name != "__main__.py"}
    assert {name: lines for name, lines in guarded.items() if lines} == {}


def python_floor() -> tuple[int, int]:
    """The (major, minor) of `requires-python = ">=X.Y"` in pyproject.toml."""
    found = re.search(r'^requires-python\s*=\s*">=(\d+)\.(\d+)"$',
                      (ROOT / "pyproject.toml").read_text(), re.MULTILINE)
    return int(found[1]), int(found[2])


def test_floor_parse_rejects_newer_syntax():
    # the running interpreter may be newer than the floor, so the parse
    # pins its grammar to the floor's: `match` came in 3.10, `except*` in
    # 3.11
    assert python_floor() == (3, 10)
    ast.parse("match x:\n    case 1:\n        pass\n",
              feature_version=python_floor())
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n",
                  feature_version=python_floor())


@pytest.mark.parametrize("path", PACKAGE,
                         ids=lambda p: p.relative_to(ROOT).as_posix())
def test_package_parses_at_the_declared_floor(path):
    ast.parse(path.read_text(), feature_version=python_floor())


# `name`, `module.name` or `name(args)`, all lowercase
CITED = re.compile(r"`(?:[a-z_][a-z0-9_]*\.)*([a-z_][a-z0-9_]*)(?:\([^`]*\))?`")


def stale_citations(text: str, sources: list[str],
                    stems: list[str]) -> list[str]:
    """Each backticked lowercase identifier of `text` holding an underscore
    (the last part of a dotted name) that no source defines or refers to
    and no module is named after."""
    known = set(stems).union(*map(referenced_names, sources), *(
        {name for _, name in definitions(source)} for source in sources))
    return sorted({name for name in CITED.findall(text)
                   if "_" in name} - known)


def test_detects_a_stale_citation():
    text = ("`kept_name`, `mod.gone_name(x, y)`, `_private`, `F_p`, `plain`, "
            "`a_stem`, `def_name`, `tests/a_stem.py`")
    sources = ["kept_name()\n", "def def_name():\n    pass\n"]
    assert stale_citations(text, sources, ["a_stem"]) == [
        "_private", "gone_name"]


def prose(source: str) -> str:
    """The docstrings and comments of a module."""
    docs = [ast.get_docstring(node) for node in ast.walk(ast.parse(source))
            if isinstance(node, (ast.Module,) + DEFS)]
    comments = [tok.string for tok in
                tokenize.generate_tokens(io.StringIO(source).readline)
                if tok.type == tokenize.COMMENT]
    return "\n".join(filter(None, docs + comments))


def test_prose_is_docstrings_and_comments():
    source = ('"""`mod_doc`"""\nx = "`not_prose`"  # `a_comment`\n'
              'class C:\n    """`class_doc`"""\n'
              '    def f(self):\n        """`func_doc`"""\n')
    assert CITED.findall(prose(source)) == [
        "mod_doc", "class_doc", "func_doc", "a_comment"]


CODE = MODULES + sorted((ROOT / "bench").glob("*.py"))


def stale_in(text: str) -> list[str]:
    """`stale_citations` of text against every module of the repo."""
    return stale_citations(text, [path.read_text() for path in CODE],
                           [path.stem for path in CODE])


def test_readme_cites_only_live_names():
    assert stale_in((ROOT / "README.md").read_text()) == []


def test_package_prose_cites_only_live_names():
    assert stale_in("\n".join(prose(path.read_text())
                              for path in PACKAGE)) == []


# a `--flag` not preceded by a letter, digit or dash
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def flag_drift(text: str, parser: argparse.ArgumentParser) -> list[str]:
    """Each option string a subcommand of parser registers (`-h`/`--help`
    left out) that text never cites, and each `--flag` text cites that no
    subcommand registers."""
    subs = next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
    registered = {flag for sub in subs.choices.values()
                  for action in sub._actions
                  for flag in action.option_strings} - {"-h", "--help"}
    cited = set(FLAG.findall(text))
    return sorted([f"{flag}: not cited" for flag in registered - cited]
                  + [f"{flag}: not registered" for flag in cited - registered])


def test_detects_flag_drift():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers().add_parser("run")
    sub.add_argument("--kept")
    sub.add_argument("--quiet", action="store_true")
    sub.add_argument("word")
    assert flag_drift("`--kept`, --gone and x--y or `--help`", parser) == [
        "--gone: not registered", "--help: not registered",
        "--quiet: not cited"]
    assert flag_drift("--kept --quiet", parser) == []


def test_readme_cli_section_cites_every_registered_flag():
    section = (ROOT / "README.md").read_text().split("\n## CLI\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    assert flag_drift(section, cli._build_parser()) == []


def test_the_cli_imports_no_typing():
    # the bench runs each job in `python -S`, where nothing else loads
    # `typing`: importing it would cost every command a few milliseconds
    fresh = subprocess.run(
        [sys.executable, "-S", "-c",
         "import sys, qsemi.cli\nprint('typing' in sys.modules)"],
        capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert fresh.stdout.split() == ["False"]
