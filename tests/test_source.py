import ast
import pathlib

import equiangular


def test_no_assert_statements_in_the_package():
    """Checks in the library raise explicitly: python -O strips assert."""
    found = []
    for path in sorted(pathlib.Path(equiangular.__path__[0]).rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Assert):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def _unused_imports(path: pathlib.Path) -> list[str]:
    """The names a file imports and never reads; a name listed in the file's
    own ``__all__`` (the package's re-exports) counts as read."""
    tree = ast.parse(path.read_text(), str(path))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(elt.value for elt in node.value.elts)
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in read]


def test_no_unused_imports():
    """Every name imported by a module of the package or a test file is read
    there."""
    package = pathlib.Path(equiangular.__path__[0])
    paths = sorted(package.glob("*.py")) + sorted(pathlib.Path(__file__).parent.glob("*.py"))
    assert [found for path in paths for found in _unused_imports(path)] == []


def _unused_parameters(path: pathlib.Path) -> list[str]:
    """The parameters of each function in a file that its body never reads;
    ``self`` and ``cls`` are exempt."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [*a.posonlyargs, *a.args, *a.kwonlyargs, *filter(None, (a.vararg, a.kwarg))]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt) if isinstance(n, ast.Name)}
        found += [f"{path.name}:{node.lineno} {p.arg}" for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")]
    return found


def test_no_unused_parameters():
    """Every parameter of a function in the package is read by its body."""
    package = pathlib.Path(equiangular.__path__[0])
    assert [found for path in sorted(package.glob("*.py")) for found in _unused_parameters(path)] == []


def _defaulted_parameters(path: pathlib.Path) -> list[tuple[str, str, int | None, str]]:
    """(call name, parameter, position or None, location) for each parameter
    with a default of each function in a file.  A method is called through
    its instance, so its first parameter takes no position; ``__init__`` is
    called by its class's name."""
    found = []
    tree = ast.parse(path.read_text(), str(path))
    methods = {id(f): c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
               for f in c.body if isinstance(f, ast.FunctionDef)}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = node.args
        positional = [*a.posonlyargs, *a.args]
        static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in node.decorator_list)
        offset = 1 if id(node) in methods and not static else 0
        name = methods[id(node)] if node.name == "__init__" else node.name
        where = f"{path.name}:{node.lineno}"
        first = len(positional) - len(a.defaults)
        found += [(name, p.arg, k - offset, where)
                  for k, p in enumerate(positional) if k >= first]
        found += [(name, p.arg, None, where)
                  for p, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    return found


def _passed_arguments(path: pathlib.Path) -> set[tuple[str, str | int]]:
    """(call name, keyword) and (call name, position) for every argument of
    every call in a file, the name being the called name or attribute."""
    passed = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        name = f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else None
        passed |= {(name, k) for k, arg in enumerate(node.args) if not isinstance(arg, ast.Starred)}
        passed |= {(name, kw.arg) for kw in node.keywords if kw.arg is not None}
    return passed


def test_every_parameter_default_is_overridden_somewhere():
    """Each defaulted parameter of a package function is passed, by keyword
    or by position, by some call in the package, its tests or its benchmark;
    a default that nothing changes is a constant."""
    package = pathlib.Path(equiangular.__path__[0])
    root = pathlib.Path(__file__).parent.parent
    callers = [*package.glob("*.py"), *root.glob("tests/*.py"), *root.glob("perfbench/*.py")]
    passed = set().union(*map(_passed_arguments, callers))
    assert [f"{where} {name} {param}"
            for path in sorted(package.glob("*.py"))
            for name, param, k, where in _defaulted_parameters(path)
            if (name, param) not in passed and (name, k) not in passed] == []
