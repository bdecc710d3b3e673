"""Import layering: ``trace`` reads only the leaf modules, and ``intcore`` sits below ``series``.

Every reader of a core name binds it from ``intcore``.  A name read through
``series`` is a second binding: patching one of them leaves the other, so a
test's fault could miss the code it meant to reach.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "padic_ladders"
SOURCES = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), str(path))


def _core_names() -> set:
    names = set()
    for node in _tree(PACKAGE / "intcore.py").body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


CORE = _core_names()


def _package_module(node: ast.ImportFrom, path: Path):
    """The padic_ladders module an ImportFrom reads from (None outside the package)."""
    if node.level == 1 and path.parent == PACKAGE:
        return node.module or ""
    if node.level == 0 and node.module and node.module.split(".")[0] == "padic_ladders":
        return node.module[len("padic_ladders."):] if "." in node.module else ""
    return None


def test_intcore_imports_only_padics_and_trace():
    tree = _tree(PACKAGE / "intcore.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("padic_ladders") for a in node.names), node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = _package_module(node, PACKAGE / "intcore.py")
            assert module in (None, "padics", "trace"), (node.lineno, module)


def test_trace_imports_only_padics_errors_and_report():
    # trace holds the suite's trace-level checks, which checks binds: an import of checks,
    # or of any module that imports trace, would make the two modules import each other
    tree, seen = _tree(PACKAGE / "trace.py"), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            assert not any(a.name.startswith("padic_ladders") for a in node.names), node.lineno
        elif isinstance(node, ast.ImportFrom):
            module = _package_module(node, PACKAGE / "trace.py")
            assert module in (None, "padics", "errors", "report"), (node.lineno, module)
            seen.add(module)
    assert "padics" in seen  # the walk reached the package imports


def test_no_core_name_is_read_through_series():
    assert {"poly_mul", "poly_divmod", "append_factor", "_phi_exact", "Poly"} <= CORE
    found = []
    for path in SOURCES:
        tree, aliases = _tree(path), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and _package_module(node, path) == "series":
                found += [(path.name, node.lineno, a.name) for a in node.names if a.name in CORE]
            if isinstance(node, ast.ImportFrom) and _package_module(node, path) == "":
                aliases |= {a.asname or a.name for a in node.names if a.name == "series"}
        found += [(path.name, node.lineno, node.attr) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in aliases and node.attr in CORE]
    assert not found


def test_series_imports_only_the_core_names_it_calls():
    tree = _tree(PACKAGE / "series.py")
    imported = {a.asname or a.name for node in tree.body if isinstance(node, ast.ImportFrom)
                and _package_module(node, PACKAGE / "series.py") == "intcore"
                for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    assert imported and imported <= used, imported - used
    assert not any(isinstance(t, ast.Name) and t.id == "__all__"
                   for node in tree.body if isinstance(node, ast.Assign) for t in node.targets)


def test_checks_reach_the_coleman_layer_only_through_its_kernel():
    # the suite's Coleman checks call the coefficient-list kernel (_image, _killed, _peel,
    # _generators, _projection); a public op or LambdaPair in checks would put the
    # per-trial object building back, and a fault patched into the kernel would miss it
    public = {"LambdaPair", "phi_apply", "decompose", "kernel_member", "kernel_basis",
              "projection_compatibility_check"}
    path = PACKAGE / "checks.py"
    found = []
    for node in ast.walk(_tree(path)):
        if isinstance(node, ast.ImportFrom) and _package_module(node, path) is not None:
            found += [(node.lineno, a.name) for a in node.names if a.name in public]
        elif isinstance(node, ast.Attribute) and node.attr in public:  # coleman.phi_apply
            found.append((node.lineno, node.attr))
    assert not found
