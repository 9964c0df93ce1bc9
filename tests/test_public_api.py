"""Every name the package re-exports has a use outside the unit tests,
and so does every defaulted parameter of the public functions, methods
and classes that its modules define, re-exported or not, and every
defaulted field of its dataclasses.

A use of a name is a name or attribute in the package's own modules, the
demos or the benchmark (whose string constants count too, so the names
the tracer wraps are uses), or a word inside a fenced code block of the
README.  Docstrings and README prose do not count: describing a name
does not use it.  No test counts, the acceptance checks included: code
that only tests call is a test oracle and lives under ``tests/`` (the
paper's linearized model is ``tests/paper_model.py``).  A use of a defaulted
parameter is a call in those files, or in the README Quick start, that
passes it; a value no caller passes belongs in a constant.  A dataclass
field is a parameter of the class's generated ``__init__``, and a named
tuple's field one of its generated ``__new__``, so a field with a
default or a ``default_factory`` needs a call of the class that passes
it.  A ``fndam.config`` block's fields are set: ``config._load`` builds
each block from a JSON document through ``cls(**given)``.

A dataclass is kept where its generated ``__init__`` does work: it
validates in ``__post_init__``, or ``fndam.config`` builds it from its
fields.  A pure record is a named tuple.
"""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import fndam

ROOT = Path(__file__).resolve().parents[1]
INIT = ROOT / "src" / "fndam" / "__init__.py"
WORD = re.compile(r"[A-Za-z_]\w*")


def exported_names() -> set[str]:
    """The names fndam/__init__.py imports from the package's modules."""
    tree = ast.parse(INIT.read_text(encoding="utf-8"))
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def names_used_in(path: Path) -> set[str]:
    """Names, attributes and words of string constants in one Python file."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    docstrings = {
        id(node.body[0].value) for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in docstrings):
            used.update(WORD.findall(node.value))
    return used


def files_outside_unit_tests() -> list[Path]:
    """The package's own modules, the demos and the benchmark."""
    files = [p for p in (ROOT / "src").rglob("*.py") if p != INIT]
    return files + [*(ROOT / "demos").glob("*.py"), *(ROOT / "bench").rglob("*.py")]


def readme_code_words() -> set[str]:
    """Words inside the README's fenced code blocks."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme, re.S | re.M)
    return {word for block in blocks for word in WORD.findall(block)}


def names_used_outside_unit_tests() -> set[str]:
    used = readme_code_words()
    for path in files_outside_unit_tests():
        used |= names_used_in(path)
    return used


def test_every_export_is_used_outside_the_unit_tests():
    assert sorted(exported_names() - names_used_outside_unit_tests()) == []


# Defaulted parameters that no call outside the unit tests sets, each with
# the reason it stays settable (the fndam.config blocks are built_from_json).
_PASSED_BY_CLI = "cli.main passes --experiment through _COMMANDS"
UNSET_ALLOWED = {
    "run_characterize.experiment": _PASSED_BY_CLI,
    "run_train.experiment": _PASSED_BY_CLI,
}


def quick_start_tree() -> ast.Module:
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick start", 1)[1]
    return ast.parse(re.search(r"```python\n(.*?)```", section, re.S).group(1))


def calls_outside_unit_tests() -> dict[str, list[ast.Call]]:
    """The calls in files_outside_unit_tests and the README Quick start, by
    the name they call."""
    trees = [ast.parse(p.read_text(encoding="utf-8")) for p in files_outside_unit_tests()]
    trees.append(quick_start_tree())
    calls: dict[str, list[ast.Call]] = {}
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = getattr(func, "id", None) or getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    return calls


def package_definitions():
    """(module name, name, object) of every function and class defined in a
    module of the package."""
    for info in pkgutil.iter_modules(fndam.__path__, "fndam."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (inspect.isfunction(obj) or inspect.isclass(obj)) and obj.__module__ == info.name:
                yield info.name, name, obj


def package_classes():
    """Every class defined in a module of the package, with its module's name."""
    for module, _, obj in package_definitions():
        if inspect.isclass(obj):
            yield module, obj


def public_signatures():
    """(called name, qualified name, parameters) of each public function,
    public method and constructor defined in a module of the package, a
    method's receiver dropped.  The constructor is ``__init__``,
    hand-written or a dataclass's, or a named tuple's ``__new__``, whose
    receiver is the class."""
    for _, name, obj in package_definitions():
        if name.startswith("_"):
            continue
        if inspect.isfunction(obj):
            yield name, name, list(inspect.signature(obj).parameters.values())
            continue
        for attr, member in vars(obj).items():
            if attr in ("__init__", "__new__"):
                called = name
            elif attr.startswith("_"):
                continue
            else:
                called = attr
            func = getattr(member, "__func__", member)  # classmethod, staticmethod
            if inspect.isfunction(func):
                params = list(inspect.signature(func).parameters.values())
                if attr == "__new__" or not isinstance(member, staticmethod):
                    params = params[1:]
                yield called, f"{name}.{attr}", params


def built_from_json() -> set[str]:
    """The constructor parameters of the fndam.config blocks, in
    ``public_signatures``'s qualified names."""
    return {f"{cls.__qualname__}.__init__.{f.name}" for module, cls in package_classes()
            if module == "fndam.config" and dataclasses.is_dataclass(cls)
            for f in dataclasses.fields(cls)}


def defaulted_parameters_no_caller_sets() -> list[str]:
    """A parameter is set by a call that passes it by keyword or by position."""
    calls = calls_outside_unit_tests()
    unset = []
    for called, qualname, params in public_signatures():
        sites = calls.get(called, [])
        for i, param in enumerate(params):
            if param.default is param.empty:
                continue
            by_position = param.kind != param.KEYWORD_ONLY and any(
                sum(not isinstance(a, ast.Starred) for a in c.args) > i for c in sites)
            by_keyword = any(k.arg == param.name for c in sites for k in c.keywords)
            if not (by_position or by_keyword):
                unset.append(f"{qualname}.{param.name}")
    return unset


def test_every_defaulted_parameter_is_set_outside_the_unit_tests():
    unset = sorted(set(defaulted_parameters_no_caller_sets()) - built_from_json())
    new = [name for name in unset if name not in UNSET_ALLOWED]
    assert not new, f"{len(new)} defaulted parameters no caller sets: {', '.join(new)}"
    stale = sorted(set(UNSET_ALLOWED) - set(unset))
    assert not stale, f"allowed but set or gone: {', '.join(stale)}"


def test_every_dataclass_validates_or_is_a_config_block():
    records = sorted(cls.__qualname__ for module, cls in package_classes()
                     if dataclasses.is_dataclass(cls) and module != "fndam.config"
                     and "__post_init__" not in vars(cls))
    assert not records, f"dataclasses that only hold values: {', '.join(records)}"
