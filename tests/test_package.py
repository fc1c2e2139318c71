"""The package namespace, and four rules its source keeps."""

import importlib
import pathlib
import re

import skeinvol

SOURCES = sorted(pathlib.Path(skeinvol.__file__).parent.rglob("*.py"))


def source_lines(pattern):
    """'file:line: text' for every source line of the package matching pattern."""
    return [f"{path.name}:{n}: {line.strip()}" for path in SOURCES
            for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
            if re.search(pattern, line)]


def test_engine_modules_resolve_to_modules():
    for name in ("skeinvol.bracket", "skeinvol.yokota"):
        assert importlib.import_module(name) is getattr(skeinvol, name.split(".")[1])


def test_exported_names_exist():
    for name in skeinvol.__all__:
        assert getattr(skeinvol, name) is not None


def test_package_reads_no_environment():
    # the package takes its settings from arguments only
    assert len(SOURCES) > 1
    assert source_lines(r"os\.environ|getenv") == []


def test_every_mpmath_precision_change_holds_mp_lock():
    # mpmath's working precision is process-global, so every change of it
    # in the package holds qnum.MP_LOCK, taken on the same line
    changes = source_lines(r"mp\.workprec")
    assert changes
    assert [line for line in changes if "MP_LOCK" not in line] == []


def test_package_forks_without_multiprocessing():
    # scans._fork_shares forks with os.fork, a pipe and pickle, so the
    # first fork of a process imports nothing
    assert source_lines(r"\bmultiprocessing\b") == []


def test_graph_engine_imports_no_random():
    # the engine's reduction order is a function of the labeled graph, and
    # planar.relabel draws from the caller's generator
    engine = {"bracket.py", "yokota.py", "planar.py"}
    assert engine <= {path.name for path in SOURCES}
    imports = source_lines(r"^\s*(import|from)\s+random\b")
    assert [line for line in imports if line.split(":")[0] in engine] == []
