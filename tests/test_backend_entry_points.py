"""The ``backend`` and ``field_kernel`` names stop at the public entry points.

There is one cell store and one GF(p) field kernel, so neither name selects
anything.  The entry points that callers still pass them to check them
(:func:`repro.iblt.backends.check_backend`,
:func:`repro.field.kernels.check_field_kernel`) and drop them; nothing below
them takes, stores, forwards or reads them.  This walks the syntax tree of
every module under ``src/repro`` and fails on any function parameter,
class-level field, attribute, property, keyword argument or dict key named
``backend`` / ``field_kernel`` (or ``_backend`` / ``_field_kernel``) outside
:data:`ENTRY_POINTS` / :data:`FIELD_KERNEL_ENTRY_POINTS`.
"""

import ast
from pathlib import Path

import repro

SOURCE = Path(repro.__file__).parent
NAMES = {"backend", "_backend"}
FIELD_KERNEL_NAMES = {"field_kernel", "_field_kernel"}

#: ``(module, qualified name)`` of every scope the name may appear in: the
#: keyword's entry points, the ``.backend`` properties that report the
#: store's name, the hello's option table and the store config's wire form.
ENTRY_POINTS = {
    ("iblt/table.py", "IBLT.__init__"),
    ("iblt/table.py", "IBLT.backend"),
    ("iblt/table.py", "IBLT.from_items"),
    ("iblt/table.py", "IBLT.deserialize"),
    ("iblt/multi.py", "IBLTArray.__init__"),
    ("iblt/multi.py", "IBLTArray.backend"),
    ("protocols/options.py", "ReconcileOptions"),
    ("protocols/options.py", "ReconcileOptions.__post_init__"),
    ("store/config.py", "SketchConfig"),
    ("store/config.py", "SketchConfig.__post_init__"),
    ("cluster/cluster.py", "Cluster.__init__"),
    ("service/hello.py", ""),
    ("store/config.py", "SketchConfig.to_wire"),
}

#: The same for ``field_kernel``: the option, the hello's option table (a
#: module-level dict) and the kernel's resolution.
FIELD_KERNEL_ENTRY_POINTS = {
    ("protocols/options.py", "ReconcileOptions"),
    ("protocols/options.py", "ReconcileOptions.__post_init__"),
    ("service/hello.py", ""),
    ("field/kernels.py", "kernel_for"),
    ("field/kernels.py", "check_field_kernel"),
}


class _Uses(ast.NodeVisitor):
    """Every ``(qualified scope, line, what)`` that uses one of ``names``."""

    def __init__(self, names=NAMES) -> None:
        self.names = names
        self.scope: list[str] = []
        self.found: list[tuple[str, int, str]] = []

    def _note(self, node: ast.AST, what: str) -> None:
        self.found.append((".".join(self.scope), node.lineno, what))

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self.scope.append(node.name)
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                targets = statement.targets
            elif isinstance(statement, ast.AnnAssign):
                targets = [statement.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and target.id in self.names:
                    self._note(statement, f"class field {target.id}")
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self.scope.append(node.name)
        if node.name in self.names:
            self._note(node, f"property or method {node.name}")
        arguments = node.args
        for arg in [
            *arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs,
            arguments.vararg, arguments.kwarg,
        ]:
            if arg is not None and arg.arg in self.names:
                self._note(arg, f"parameter {arg.arg}")
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if node.attr in self.names:
            self._note(node, f"attribute .{node.attr}")
        self.generic_visit(node)

    def visit_keyword(self, node: ast.keyword) -> None:
        if node.arg in self.names:
            self._note(node, f"keyword {node.arg}=")
        self.generic_visit(node)

    def visit_Dict(self, node: ast.Dict) -> None:
        for key in node.keys:
            if isinstance(key, ast.Constant) and key.value in self.names:
                self._note(key, f"dict key {key.value!r}")
        self.generic_visit(node)


def uses_of_the_name(names=NAMES):
    for path in sorted(SOURCE.rglob("*.py")):
        module = path.relative_to(SOURCE).as_posix()
        visitor = _Uses(names)
        visitor.visit(ast.parse(path.read_text(), filename=str(path)))
        for scope, line, what in visitor.found:
            yield module, scope, line, what


def test_no_scope_below_the_entry_points_names_a_backend():
    stray = [
        f"{module}:{line} {scope or '<module>'}: {what}"
        for module, scope, line, what in uses_of_the_name()
        if (module, scope) not in ENTRY_POINTS
    ]
    assert not stray, "backend threaded below the entry points:\n" + "\n".join(stray)


def test_every_entry_point_still_takes_the_name():
    """The list is exact: an entry point whose keyword goes is struck from it."""
    used = {(module, scope) for module, scope, _, _ in uses_of_the_name()}
    assert ENTRY_POINTS <= used, sorted(ENTRY_POINTS - used)


def test_no_scope_below_the_entry_points_names_a_field_kernel():
    stray = [
        f"{module}:{line} {scope or '<module>'}: {what}"
        for module, scope, line, what in uses_of_the_name(FIELD_KERNEL_NAMES)
        if (module, scope) not in FIELD_KERNEL_ENTRY_POINTS
    ]
    assert not stray, "field_kernel threaded below the entry points:\n" + "\n".join(stray)


def test_every_field_kernel_entry_point_still_takes_the_name():
    used = {(module, scope) for module, scope, _, _ in uses_of_the_name(FIELD_KERNEL_NAMES)}
    assert FIELD_KERNEL_ENTRY_POINTS <= used, sorted(FIELD_KERNEL_ENTRY_POINTS - used)


def test_the_guard_sees_each_kind_of_use():
    source = '''
class Context:
    backend: str | None = None

def build(table, backend=None):
    table.backend = backend
    return make(backend=table._backend, options={"backend": 1})
'''
    visitor = _Uses()
    visitor.visit(ast.parse(source))
    assert sorted(what for _, _, what in visitor.found) == [
        "attribute ._backend", "attribute .backend", "class field backend",
        "dict key 'backend'", "keyword backend=", "parameter backend",
    ]
