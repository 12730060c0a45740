"""Guards: every function and class in ``src/kggan`` has a caller there,
every defaulted parameter is passed there, every ``ExperimentConfig``
field is read there, every dataclass field and instance attribute is
read there, every import is used by its module, no module reads
another's private attribute, and only ``checkpoint.write_atomic`` opens
a file for writing.

A definition that only tests reach is dead weight for the program: the
tests pin behaviour nothing else uses. Names are matched by spelling, so
any reference anywhere in the package (a call, an attribute, an import)
counts, except one inside the definition itself. Dunder methods are called
by the interpreter, and ``cli.main`` by the ``kggan`` console script.

A parameter with a default that no call in the package passes is a knob
only tests turn, or none at all: the package always runs the default.
A call passes it by keyword, or by position when it has enough
positional arguments; ``*args`` and ``**kwargs`` pass everything. Calls
are matched to definitions by name, as above; a method's ``self`` or
``cls`` is not counted, and ``Class(...)`` calls ``Class.__init__``.

A config field that only ``config.py`` touches (validates, serializes,
hashes) changes nothing but the config hash. A field counts as read when a
module other than ``config.py`` loads it as ``config.<field>`` or
``<obj>.config.<field>``.

A dataclass field that nothing reads as an attribute is state written
for no one, and so is an instance attribute a class's methods store as
``self.<name> = ...``. As with definitions, either counts as read when
any module in the package loads an attribute of its spelling.

An import its module never spells is a dependency nothing needs, in the
package and in the tests alike. The package's ``__init__`` imports to
re-export, and an import marked ``# noqa`` is kept on purpose, so both
are exempt.

A ``_private`` name is its module's own. Another module that reads it,
as ``module._name`` through a ``from . import module``, depends on what
the owner may change without notice; a helper two modules share is
public. Only attribute loads in code count, so a docstring naming one
does not.

Every artifact goes through the one atomic writer, which the disk-full
test in ``test_checkpoint.py`` breaks to show a failed write keeps the
previous file. An ``open`` elsewhere with a write, append, exclusive or
update mode (or a mode not spelled as a literal) would bypass both.
"""

import ast
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "kggan"
TESTS = Path(__file__).resolve().parent
EXEMPT = {"cli.main"}


def _definitions(tree):
    """(qualified name, node) of each module-level def and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item


def _names(node):
    """How often each name is spelled in ``node``: names, attributes, imports."""
    counts = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            counts[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            counts[sub.attr] += 1
        elif isinstance(sub, ast.alias):
            counts[sub.name] += 1
    return counts


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def unreferenced():
    trees = _trees()
    everywhere = sum((_names(tree) for tree in trees.values()), Counter())
    found = []
    for module, tree in sorted(trees.items()):
        for qualname, node in _definitions(tree):
            name = node.name
            if f"{module}.{qualname}" in EXEMPT or (name.startswith("__") and name.endswith("__")):
                continue
            # a definition never spells its own name, only its body can
            if everywhere[name] == _names(node)[name]:
                found.append(f"{module}.{qualname}")
    return found


def test_every_definition_has_a_caller_in_the_package():
    assert unreferenced() == []


def _calls(trees):
    """Every call in the package, keyed by the name it calls."""
    calls = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                if isinstance(func, ast.Name):
                    calls[func.id].append(node)
                elif isinstance(func, ast.Attribute):
                    calls[func.attr].append(node)
    return calls


def _passes(call, index, name):
    """Whether ``call`` passes parameter ``name``, at positional ``index``
    (None for a keyword-only parameter)."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    return index is not None and index < len(call.args)


def _defaulted(node, skip):
    """(positional index or None, name) of each parameter with a default;
    ``skip`` leading parameters (``self``, ``cls``) are not counted."""
    args = node.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    found = [(i - skip, p.arg) for i, p in enumerate(positional) if i >= first]
    found += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return found


def unpassed_parameters():
    trees = _trees()
    calls = _calls(trees)
    found = []
    for module, tree in sorted(trees.items()):
        for qualname, node in _definitions(tree):
            if isinstance(node, ast.ClassDef) or f"{module}.{qualname}" in EXEMPT:
                continue
            name, skip = node.name, 0
            if "." in qualname:
                decorators = {d.id for d in node.decorator_list if isinstance(d, ast.Name)}
                skip = 0 if "staticmethod" in decorators else 1
                if name == "__init__":
                    name = qualname.split(".")[0]
                elif name.startswith("__") and name.endswith("__"):
                    continue
            for index, param in _defaulted(node, skip):
                if not any(_passes(call, index, param) for call in calls[name]):
                    found.append(f"{module}.{qualname}({param})")
    return found


def test_every_keyword_parameter_is_passed_in_the_package():
    assert unpassed_parameters() == []


def _is_config(node):
    return (isinstance(node, ast.Name) and node.id == "config") or (
        isinstance(node, ast.Attribute) and node.attr == "config"
    )


def unread_config_fields():
    tree = ast.parse((PACKAGE / "config.py").read_text(encoding="utf-8"))
    cls = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "ExperimentConfig")
    declared = [n.target.id for n in cls.body if isinstance(n, ast.AnnAssign)]
    read = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if _is_config(node.value):
                    read.add(node.attr)
    return [name for name in declared if name not in read]


def test_every_config_field_is_read_outside_config():
    assert unread_config_fields() == []


def _attribute_loads(trees):
    """Every attribute name any module loads, as in ``obj.<name>``."""
    return {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def unread_dataclass_fields():
    """``module.Class.field`` of each ``@dataclass`` field no module loads as an attribute."""
    trees = _trees()
    read = _attribute_loads(trees)
    found = []
    for module, tree in sorted(trees.items()):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
            if not any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators):
                continue
            for item in cls.body:
                if isinstance(item, ast.AnnAssign) and item.target.id not in read:
                    found.append(f"{module}.{cls.name}.{item.target.id}")
    return found


def test_every_dataclass_field_is_read_in_the_package():
    assert unread_dataclass_fields() == []


def unread_instance_attributes(trees=None):
    """``module.Class.attribute`` of each ``self.<attribute>`` a class's
    methods store that no module loads as an attribute."""
    trees = trees or _trees()
    read = _attribute_loads(trees)
    found = []
    for module, tree in sorted(trees.items()):
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            stored = {
                node.attr
                for node in ast.walk(cls)
                if isinstance(node, ast.Attribute)
                and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            }
            found += [f"{module}.{cls.name}.{name}" for name in sorted(stored - read)]
    return found


def test_every_instance_attribute_is_read_in_the_package():
    assert unread_instance_attributes() == []


def test_instance_attribute_guard_sees_stores_against_loads():
    source = '''
class Model:
    def __init__(self, size, width):
        self.size = size
        self.width = width
        self.count = 0

    def grow(self):
        self.count += 1
        return self.size
'''
    assert unread_instance_attributes({"gan": ast.parse(source)}) == ["gan.Model.count", "gan.Model.width"]


def unused_imports():
    """``module:name`` of each name an import binds that its module, of the
    package or of the tests, never uses."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py")):
        if path.name == "__init__.py":
            continue
        source = path.read_text(encoding="utf-8")
        lines = source.splitlines()
        tree = ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if getattr(node, "module", None) == "__future__":
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if name not in used:
                    found.append(f"{path.stem}:{name}")
    return found


def test_every_import_is_used_by_its_module():
    assert unused_imports() == []


def private_reads(trees=None):
    """``module:other._name`` of each private attribute a module reads from
    a sibling module it imported by name."""
    found = []
    for module, tree in sorted((trees or _trees()).items()):
        siblings = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module is None
            for alias in node.names
        }
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in siblings
                and node.attr.startswith("_")
                and not node.attr.endswith("__")
            ):
                found.append(f"{module}:{node.value.id}.{node.attr}")
    return found


def test_no_module_reads_another_modules_private_attribute():
    assert private_reads() == []


def test_private_read_guard_sees_code_not_docstrings():
    source = '''
"""Docstrings may name gan._make_optimizers."""
from . import gan, regressor as reg
from .optim import _private_helper


def run(model, config):
    reg.__doc__
    return gan._make_optimizers(model, config, None, None), _private_helper
'''
    assert private_reads({"cli": ast.parse(source)}) == ["cli:gan._make_optimizers"]


def _open_mode(call):
    """The mode of an ``open(...)`` call: a string, or None when not a literal."""
    mode = call.args[1] if len(call.args) > 1 else None
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return "r"
    return mode.value if isinstance(mode, ast.Constant) and isinstance(mode.value, str) else None


def writing_opens():
    """``module.function:line`` of each writing ``open`` outside the atomic writer."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {}  # each node to the innermost function around it
        for qualname, node in _definitions(tree):
            for sub in ast.walk(node):
                owners[sub] = qualname
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)):
                continue
            if node.func.id != "open":
                continue
            mode = _open_mode(node)
            where = f"{path.stem}.{owners.get(node, '<module>')}"
            if (mode is None or set(mode) & set("wax+")) and where != "checkpoint.write_atomic":
                found.append(f"{where}:{node.lineno}")
    return found


def test_only_the_atomic_writer_opens_files_for_writing():
    assert writing_opens() == []
