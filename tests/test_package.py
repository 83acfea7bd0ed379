"""The package's lazy exports, what a `tempo-sep solve` process imports, and
that src defines nothing it never uses."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import temposep
import temposep.solvers
from temposep.cli import REDUCTION_KINDS
from temposep.core import build
from temposep.fileio import dump_tg
from temposep.generators import GenSpec, UnitIntervalConstraint, generate

PACKAGES = [temposep, temposep.solvers]


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_every_export_is_its_defining_modules_attribute(package):
    for name in package.__all__:
        obj = getattr(package, name)
        module = "temposep.solvers.auto" if name == "DEFAULT_WORK_CAP" else obj.__module__
        assert module.startswith("temposep."), name
        assert obj is getattr(sys.modules[module], name), name


def test_exports_follow_a_patched_submodule_attribute(monkeypatch):
    import temposep.solvers.auto as auto

    sentinel = object()
    monkeypatch.setattr(auto, "solve_auto", sentinel)
    assert temposep.solve_auto is sentinel
    assert temposep.solvers.solve_auto is sentinel


@pytest.mark.parametrize("package", PACKAGES, ids=lambda p: p.__name__)
def test_dir_lists_all_and_unknown_names_raise(package):
    assert set(package.__all__) <= set(dir(package))
    assert package.__all__ == sorted(package.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        package.no_such_name
    assert not hasattr(package, "solve_everything")


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from temposep import *", namespace)
    assert set(temposep.__all__) <= set(namespace)
    assert namespace["Instance"] is temposep.reachability.Instance


# Defined in src but referenced nowhere in it, each kept for a reader outside.
UNREFERENCED_IN_SRC = {
    # perfbench/test_perfbench.py checks its reachability against this oracle.
    "temporal_path_exists_exhaustive",
    # perfbench/tracer.py reads it to record the decomposition width.
    "NiceTreeDecomposition.width",
    # perfbench/tracer.py times them, and its test expects every target present.
    "TemporalGraph.delete_vertices",
    "distance_to_temporality",
}


def _defined_and_referenced(src: Path) -> tuple[dict[str, str], set[str]]:
    """Non-dunder functions, classes and methods of `src` (qualified by their
    class, with where they are defined), and every name src refers to, as a
    name or as an attribute.  A name in a package's export table is not a use."""
    defined: dict[str, str] = {}
    referenced: set[str] = set()

    def collect(node, owner, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    defined[f"{owner}.{child.name}" if owner else child.name] = f"{where}:{child.lineno}"
                collect(child, child.name if isinstance(child, ast.ClassDef) else owner, where)
            else:
                collect(child, owner, where)

    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        collect(tree, None, path.relative_to(src))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    return defined, referenced


def test_src_defines_nothing_that_src_never_references():
    defined, referenced = _defined_and_referenced(Path(temposep.__file__).parent)
    unused = {name: where for name, where in defined.items() if name.rsplit(".", 1)[-1] not in referenced}
    assert set(unused) - UNREFERENCED_IN_SRC == set(), f"unreferenced in src (move to tests/ or delete): {unused}"
    assert UNREFERENCED_IN_SRC <= set(unused), "an allowed name is now referenced in src: drop it from the list"


def test_every_unreferenced_name_is_used_by_perfbench():
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    text = "\n".join(path.read_text() for path in sorted(perfbench.glob("*.py")))
    # A method or property counts only as `.member`, not as a local of that name.
    patterns = {
        name: (r"\." if "." in name else r"\b") + name.rsplit(".", 1)[-1] + r"\b" for name in UNREFERENCED_IN_SRC
    }
    stale = {name for name, pattern in patterns.items() if not re.search(pattern, text)}
    assert stale == set(), f"no perfbench file uses these any more: drop them from the list: {stale}"


# Underscore names that one src module imports from another, each kept for a reason.
PRIVATE_IMPORTS = {
    # temposep.solvers builds its lazy exports with the package's own helper.
    ("temposep", "_lazy_exports"),
}


def _private_imports(src: Path) -> dict[tuple[str, str], str]:
    """Each (src module, underscore name) that a src module imports from
    another, with where the first such import is."""
    found: dict[tuple[str, str], str] = {}
    for path in sorted(src.rglob("*.py")):
        package = ("temposep",) + path.relative_to(src).parent.parts
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            base = ".".join(package[: len(package) - node.level + 1]) if node.level else ""
            source = ".".join(filter(None, (base, node.module)))
            if source.split(".")[0] != "temposep":
                continue
            for alias in node.names:
                if alias.name.startswith("_") and not alias.name.startswith("__"):
                    found.setdefault((source, alias.name), f"{path.relative_to(src)}:{node.lineno}")
    return found


def test_src_modules_import_no_private_name_of_another_but_the_listed_ones():
    found = _private_imports(Path(temposep.__file__).parent)
    unlisted = {key: where for key, where in found.items() if key not in PRIVATE_IMPORTS}
    assert unlisted == {}, f"a src module imports another's private name (make it public or move it): {unlisted}"
    assert PRIVATE_IMPORTS <= set(found), "a listed private import is gone: drop it from the list"


def test_reduce_kinds_are_the_registered_reductions():
    from temposep.reductions import REDUCTIONS

    assert REDUCTION_KINDS == tuple(sorted(REDUCTIONS))


OFF_THE_SOLVE_PATH = [
    "dataclasses",
    "temposep.generators",
    "temposep.oracle",
    "temposep.reductions",
    "temposep.solvers.interval_dp",
    "temposep.solvers.treewidth_dp",
    "temposep.solvers.decomposition",
]

# Solves one general instance, records which of OFF_THE_SOLVE_PATH got
# imported, then runs the commands and backends that import them.
CHILD = """
import json, sys
import temposep.cli as cli

general, interval, out = sys.argv[1:]
codes = [cli.main(["solve", general, "--s", "0", "--z", "11", "--k", "8", "--quiet"])]
loaded = [m for m in json.loads(sys.stdin.read()) if m in sys.modules]
for argv in (
    ["solve", general, "--s", "0", "--z", "11", "--k", "8", "--algo", "treewidth", "--quiet"],
    ["solve", interval, "--s", "0", "--z", "7", "--k", "2", "--algo", "interval", "--quiet"],
    ["gen", "--n", "6", "--tau", "3", "--p", "0.4", "--class", "periodic:1,3", "-o", out],
    ["reduce", general, "--kind", "universal", "--s", "0", "--z", "11", "-o", out],
):
    codes.append(cli.main(argv))
print(json.dumps({"loaded": loaded, "codes": codes}))
"""


def _run_child(script, args, modules):
    """Run `script` in a fresh interpreter with `modules` on stdin; its stdout lines."""
    src = str(Path(temposep.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(str, args)],
        input=json.dumps(modules),
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_a_solve_imports_no_generator_reduction_or_unused_backend(tmp_path):
    general = tmp_path / "general.tg"
    dump_tg(generate(GenSpec(n=12, tau=4, edge_prob=0.3, seed=7)).g, general)
    interval = tmp_path / "interval.tg"
    dump_tg(generate(GenSpec(n=8, tau=3, edge_prob=0.5, constraint=UnitIntervalConstraint(), seed=3)).g, interval)
    report = json.loads(_run_child(CHILD, [general, interval, tmp_path / "out.tg"], OFF_THE_SOLVE_PATH)[-1])
    assert report["loaded"] == []
    assert report["codes"][:2] == [0, 0]  # the minimum separator has 8 vertices
    assert report["codes"][2] in (0, 1)
    assert report["codes"][3:] == [0, 0]


# Solves with a decomposition twice, auto (which picks the treewidth DP) and
# --algo treewidth, then records which of the given modules got imported.
TREEWIDTH_CHILD = """
import json, sys
import temposep.cli as cli

graph, td = sys.argv[1:]
codes = [
    cli.main(["solve", graph, "--s", "0", "--z", "4", "--k", "1", "--td", td]),
    cli.main(["solve", graph, "--s", "0", "--z", "4", "--k", "1", "--algo", "treewidth"]),
]
print(json.dumps({"loaded": [m for m in json.loads(sys.stdin.read()) if m in sys.modules], "codes": codes}))
"""


def test_a_treewidth_solve_imports_no_dataclasses_generator_or_reduction(tmp_path):
    graph = tmp_path / "g.tg"
    # Every s-z path runs through 3, and no dispatcher rule collapses the
    # instance to a static cut, so auto takes the DP.
    dump_tg(build(5, 3, [(0, 1, 3), (0, 3, 2), (1, 3, 2), (2, 3, 2), (3, 4, 3)]), graph)
    td = tmp_path / "g.td"
    td.write_text("td 4 3 5\nb 1 0 1 3\nb 2 2 3\nb 3 3 4\nb 4 4\n1 3\n2 3\n3 4\n")
    lines = _run_child(TREEWIDTH_CHILD, [graph, td], ["dataclasses", "temposep.generators", "temposep.reductions"])
    assert lines[:2] == ["verdict=yes separator=3 backend=treewidth-dp"] * 2
    assert json.loads(lines[-1]) == {"loaded": [], "codes": [0, 0]}
