"""Source-level rules for the package."""

import ast
import pathlib

import halfmed

SRC = pathlib.Path(halfmed.__file__).parent


def _nodes():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path, node


def test_no_assert_statements_in_package():
    # invariants must raise real exceptions: ``assert`` vanishes under ``python -O``
    found = [f"{path.name}:{node.lineno}" for path, node in _nodes() if isinstance(node, ast.Assert)]
    assert found == []


def test_no_raise_assertion_error_in_package():
    # a broken invariant is a RuntimeError or ValueError, not a test failure
    found = []
    for path, node in _nodes():
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if isinstance(exc, ast.Name) and exc.id == "AssertionError":
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_float_angles_in_package():
    # angular order is exact: it comes from ``geometry.angular_cmp`` or
    # ``depth._sort_by_angle``, never from a float angle
    found = []
    for path, node in _nodes():
        name = node.attr if isinstance(node, ast.Attribute) else (
            node.id if isinstance(node, ast.Name) else getattr(node, "name", None))
        if name in ("atan2", "arctan2"):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_denominators_are_cleared_only_in_geometry():
    # ``geometry.int_point`` is the one routine that clears the denominators
    # of a rational vector; elsewhere an lcm over denominators is a copy of it
    found = []
    for path, node in _nodes():
        if path.name == "geometry.py" or not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "lcm" and any(
            isinstance(sub, ast.Attribute) and sub.attr == "denominator" for sub in ast.walk(node)
        ):
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_halfspaces_are_built_only_in_geometry():
    # ``Halfspace`` stores a reduced integer row, which its equality relies
    # on; elsewhere one comes from ``halfspace`` or ``Halfspace.of_row``
    found = []
    for path, node in _nodes():
        if path.name == "geometry.py" or not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "Halfspace":
            found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_no_loop_iterates_an_unsorted_set():
    # a set's iteration order is a hash order, which must not reach an
    # output: a ``for`` loop or comprehension over ``set(...)`` or
    # ``frozenset(...)`` sorts it first
    found = []
    for path, node in _nodes():
        if isinstance(node, (ast.For, ast.comprehension)):
            it = node.iter
            if isinstance(it, ast.Call) and getattr(it.func, "id", None) in ("set", "frozenset"):
                found.append(f"{path.name}:{getattr(node, 'lineno', it.lineno)}")
    assert found == []


_LAYERS = ["geometry", "polytope", "depth", "regions", "breakdown", "distributions",
           "experiments", "cli"]


def _imported_modules(node):
    """Package modules named by an import statement, relative or absolute."""
    if isinstance(node, ast.Import):
        names = [a.name.removeprefix("halfmed.") for a in node.names]
    elif isinstance(node, ast.ImportFrom) and (
        node.level or (node.module or "").split(".")[0] == "halfmed"
    ):
        module = (node.module or "").removeprefix("halfmed").lstrip(".")
        names = [module] if module else [a.name for a in node.names]
    else:
        return []
    return [m for m in names if m in _LAYERS]


def test_modules_import_only_lower_layers():
    # geometry < polytope < depth < regions < breakdown < distributions <
    # experiments < cli, for imports at any nesting level; ``__init__`` re-exports all
    found = []
    for path, node in _nodes():
        if path.stem == "__init__":
            continue
        rank = _LAYERS.index(path.stem)
        for mod in _imported_modules(node):
            if _LAYERS.index(mod) >= rank:
                found.append(f"{path.name}:{node.lineno} imports {mod}")
    assert found == []
