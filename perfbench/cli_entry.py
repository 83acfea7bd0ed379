"""Traced stand-in for `python -m temposep.cli`.

Usage: python3 perfbench/cli_entry.py <summary.json> <tempo-sep arguments...>

Times `import temposep.cli`, installs the tracer, runs `temposep.cli.main`
on the remaining arguments as one traced call, writes the span summary plus
the import and main times to <summary.json> and exits with main's code.
"""

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    started = time.perf_counter()
    import temposep.cli as cli

    import_s = time.perf_counter() - started
    tracer = Tracer()
    tracer.install()
    tracer.begin_call()
    started = time.perf_counter()
    code = cli.main(sys.argv[2:])
    main_s = time.perf_counter() - started
    tracer.end_call(main_s)
    tracer.uninstall()
    summary = tracer.summary()
    summary["import_s"] = import_s
    summary["main_s"] = main_s
    with open(sys.argv[1], "w", encoding="utf-8") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
