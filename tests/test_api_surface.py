"""The package exports what the program uses, and no name in src lives on
only for the tests."""

import ast
import dataclasses
import inspect
import tomllib
from pathlib import Path

import biphoton as bp

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "biphoton"

# library names whose only callers were tests; tests/reference.py keeps the oracles
REMOVED = [
    "SymmetryDecomposition",
    "antisymmetric_weight",
    "build_model_spectrum",
    "exchange_overlap",
    "from_function",
    "resolve_grid",
    "swap",
    "symmetry_decompose",
]


def test_exports_are_few_and_resolve():
    assert len(bp.__all__) <= 40
    assert len(set(bp.__all__)) == len(bp.__all__)
    for name in bp.__all__:
        assert getattr(bp, name) is not None, name


def test_removed_names_are_gone():
    for name in REMOVED:
        assert not hasattr(bp, name), name
    assert not hasattr(bp.BiphotonSpectrum, "norm_squared")
    assert not hasattr(bp.ShihModel, "from_path_difference")
    assert "in_place" not in inspect.signature(bp.BiphotonSpectrum._normalized).parameters
    assert not hasattr(bp.ScanSpec, "resolved_evaluation")


def test_scan_spec_fields():
    assert [f.name for f in dataclasses.fields(bp.ScanSpec)] == [
        "model", "swept", "start", "stop", "n_steps", "fixed", "grid_points",
        "grid_span_sigmas", "include_w_antisym",
    ]


def _script_names() -> set[str]:
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return {target.rpartition(":")[2] for target in scripts.values()}


def _used_names(tree: ast.AST, skip: ast.AST | None = None) -> set[str]:
    """Names read or assigned in ``tree``, outside the subtree ``skip``."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        stack.extend(ast.iter_child_nodes(node))
    return names


def _top_level_names(node: ast.stmt) -> list[str]:
    """Names that a module-level def, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def test_every_public_definition_is_used():
    # a top-level def, class or constant, private ones included, must be
    # exported, used elsewhere in src, or be a console script; imports and
    # docstrings do not count
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    allowed = set(bp.__all__) | _script_names() | {"__all__", "__version__"}
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            for name in _top_level_names(node):
                if name in allowed:
                    continue
                if not any(name in _used_names(t, skip=node) for t in trees.values()):
                    unused.append(f"{module}:{name}")
    assert unused == []
