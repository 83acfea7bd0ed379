import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "line_trace.py"

TWO_FUNCTIONS = '''\
def used(x):
    if x:
        return 1
    return 2


def unused():
    y = 3
    return y
'''


def load_tool():
    spec = importlib.util.spec_from_file_location("line_trace", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_traced(tool, root, path):
    """Import the module at `path` and call `used(True)`, recording lines under `root`."""
    recorder = tool.LineRecorder(root)
    spec = importlib.util.spec_from_file_location("two_functions", path)
    module = importlib.util.module_from_spec(spec)
    recorder.start()
    try:
        spec.loader.exec_module(module)
        module.used(True)
    finally:
        recorder.stop()
    return recorder


def test_counts_the_lines_of_each_function_body(tmp_path):
    tool = load_tool()
    path = tmp_path / "two_functions.py"
    path.write_text(TWO_FUNCTIONS)
    assert tool.executable_lines(path) == {1, 2, 3, 4, 7, 8, 9}
    recorder = run_traced(tool, tmp_path, path)
    # The module body runs both def lines; used(True) runs lines 2 and 3.
    assert tool.missed_lines(recorder.hits, [path]) == {path: [4, 8, 9]}


def test_files_outside_the_root_are_not_recorded(tmp_path):
    tool = load_tool()
    inside, outside = tmp_path / "inside", tmp_path / "outside"
    inside.mkdir()
    outside.mkdir()
    path = outside / "two_functions.py"
    path.write_text(TWO_FUNCTIONS)
    assert run_traced(tool, inside, path).hits == {}


def test_ranges_join_consecutive_lines():
    assert load_tool().ranges([3, 7, 8, 9, 12]) == "3, 7-9, 12"
