"""The package exports what the program uses, and no name in src lives on
only for the tests."""

import ast
import dataclasses
import inspect
import tomllib
from collections import Counter
from pathlib import Path

import pytest

import biphoton as bp
from biphoton import scans
from biphoton.cli import _SOURCE_FLAGS
from biphoton.scans import MODELS, REQUIRED

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "biphoton"

# library names whose only callers were tests; tests/reference.py keeps the oracles
REMOVED = [
    "SymmetryDecomposition",
    "antisymmetric_weight",
    "build_model_spectrum",
    "delta_pump_spectrum",
    "evaluate_scan_point",
    "exchange_overlap",
    "from_function",
    "resolve_grid",
    "separability_rank1_fraction",
    "shih_spectrum",
    "swap",
    "symmetry_decompose",
]


def test_exports_are_few_and_resolve():
    assert len(bp.__all__) <= 36
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
    assert not hasattr(bp.BeamSplitterParams, "phi")


def test_gaussian_pair_builder_takes_no_paths():
    # path delays go on through apply_path_delays
    assert list(inspect.signature(bp.gaussian_pair_spectrum).parameters) == ["m", "grid"]


def test_builders_take_no_test_only_knobs():
    # warnings come from the model builders and a time step from the time axis
    assert list(inspect.signature(bp.BiphotonSpectrum.from_array).parameters) == ["grid", "raw"]
    assert not hasattr(bp.TimeWavepacket, "spacing")


def test_shih_model_is_the_source_only():
    # the half path difference and the paths are row values: the closed forms
    # take delta_l, and an old positional delta_l cannot become c_light
    fields = dataclasses.fields(bp.ShihModel)
    assert [f.name for f in fields] == ["center", "sigma", "sigma_p", "c_light"]
    assert [f.name for f in fields if f.kw_only] == ["c_light"]
    with pytest.raises(TypeError):
        bp.ShihModel(90.0, 1.0, 0.1, 20.0)
    with pytest.raises(TypeError):
        bp.shih_exact(bp.ShihModel(90.0, 1.0, 0.1), 0.0)


def test_scan_spec_fields():
    assert [f.name for f in dataclasses.fields(bp.ScanSpec)] == [
        "model", "swept", "start", "stop", "n_steps", "fixed", "grid_points",
        "grid_span_sigmas", "include_w_antisym",
    ]


def test_model_params():
    # every fixed key of each model with its default: REQUIRED keys must be
    # given, and a key whose default is None means something when left out
    assert {name: list(entry.params.items()) for name, entry in MODELS.items()} == {
        "gaussian_pair": [("center", 0.0), ("sigma", 1.0), ("pump_sigma", None), ("c_light", 1.0)],
        "shih": [("center", REQUIRED), ("sigma", 1.0), ("sigma_p", REQUIRED), ("delta_l", 0.0),
                 ("dz", None), ("c_light", 1.0)],
        "delta_pump": [("center", 0.0), ("sigma", 1.0), ("dl", 0.0), ("parity", "even"),
                       ("c_light", 1.0)],
        "bell": [("omega_a", REQUIRED), ("omega_b", REQUIRED), ("c_light", 1.0)],
        "spectrum_file": [("path", REQUIRED), ("c_light", 1.0)],
    }
    defaults = [d for entry in MODELS.values() for d in entry.params.values()]
    assert {type(d) for d in defaults} == {float, str, type(None), type(REQUIRED)}
    # a source flag writes one default into every model it sets a key of, and
    # natural units one c_light: the models agree on each
    for keys, default in [(("sigma",), 1.0), (("center",), 0.0), (("delta_l", "dl"), 0.0),
                          (("parity",), "even"), (("c_light",), 1.0)]:
        assert {entry.params[key] for entry in MODELS.values() for key in keys
                if entry.params.get(key) not in (None, REQUIRED)} == {default}, keys
    assert [_SOURCE_FLAGS[dest].default for dest in ("sigma", "center", "dl", "parity")] == [
        1.0, 0.0, 0.0, "even"]


def _script_names() -> set[str]:
    scripts = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]["scripts"]
    return {target.rpartition(":")[2] for target in scripts.values()}


def _name_counts(tree: ast.AST) -> Counter:
    """How often each name is read or assigned in ``tree``, as a name or an attribute."""
    return Counter(
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, (ast.Name, ast.Attribute))
    )


def _top_level_names(node: ast.stmt) -> list[str]:
    """Names that a module-level def, class or assignment defines."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _unused_definitions(trees: dict[str, ast.Module], allowed: set[str]) -> list[str]:
    """``module:name`` of every top-level definition in ``trees``, other than
    the ``allowed`` names, that no tree names outside the definition itself."""
    total = Counter()
    for tree in trees.values():
        total.update(_name_counts(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            names = [name for name in _top_level_names(node) if name not in allowed]
            own = _name_counts(node) if names else Counter()
            unused += [f"{module}:{name}" for name in names if total[name] == own[name]]
    return unused


def test_every_public_definition_is_used():
    # a top-level def, class or constant, private ones included, must be
    # exported, used elsewhere in src, or be a console script; imports and
    # docstrings do not count
    trees = {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    allowed = set(bp.__all__) | _script_names() | {"__all__", "__version__"}
    assert _unused_definitions(trees, allowed) == []


def test_exports_are_used_by_the_program():
    # an exported name counts only where the program itself uses it, not
    # where __init__ re-exports it; save_spectrum writes the spectrum-file
    # format that the program reads
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    assert _unused_definitions(trees, {"save_spectrum"}) == []


def test_an_unused_definition_is_flagged():
    # a def named only inside itself, beside a def and a constant used elsewhere
    trees = {
        "lib.py": ast.parse(
            "LIMIT = 3\n"
            "def used(x):\n    return min(x, LIMIT)\n"
            "def unused(n):\n    return unused(n - 1) if n else 0\n"
        ),
        "main.py": ast.parse("from lib import used\nprint(used(4))\n"),
    }
    assert _unused_definitions(trees, set()) == ["lib.py:unused"]


def _frequency_readers(node: ast.AST, owner: str, found: set[str]) -> set[str]:
    """``module.function`` of every innermost def under ``node`` that names
    ``.frequencies``; ``owner`` outside any def."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = f"{owner.partition('.')[0]}.{node.name}"
    elif isinstance(node, ast.Attribute) and node.attr == "frequencies":
        found.add(owner)
    for child in ast.iter_child_nodes(node):
        _frequency_readers(child, owner, found)
    return found


def test_only_frequency_axis_writers_read_absolute_frequencies():
    # every envelope and phase is built from the grid offsets and the scalar
    # center; absolute frequencies, and the float-resolution refusal of
    # FrequencyGrid.frequencies, belong to the two writers of a frequency axis
    found = set()
    for path in sorted(SRC.glob("*.py")):
        _frequency_readers(ast.parse(path.read_text()), path.stem, found)
    assert found == {"fileio.save_spectrum", "cli.cmd_wavepacket"}


def _callers(name: str) -> set[str]:
    """``module.function`` of every top-level def in src that calls ``name``."""
    found = set()
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.FunctionDef) and any(
                isinstance(call, ast.Call)
                and getattr(call.func, "id", getattr(call.func, "attr", None)) == name
                for call in ast.walk(node)
            ):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_one_path_for_a_path_difference():
    # a fixed dl and a swept one both scale the dl = 0 state by the model's
    # row factor: the plane waves are formed by the one helper that applies
    # it to a state and by the scan reduction that applies it to a base
    assert _callers("_plane_waves") == {"models._path_difference", "spectrum.exchange_sweep"}
    # and every source, a delta pump as any other, gets its fixed dl in one place
    assert _callers("_path_difference") == {"scans._delayed_state"}
    assert [f.name for f in dataclasses.fields(scans._Model)] == [
        "params", "base", "grid", "dl_key", "scan_params", "row_factor", "row_floor",
        "closed_form", "metadata",
    ]
