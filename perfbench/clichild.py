"""One traced ``hyperseries`` command, for the traced run of cli-cold.

Usage: python3 perfbench/clichild.py TRACE_JSON -- SUBCOMMAND ARGS...

Times the import of the command-line module, wraps every public function,
runs ``cli.main`` on the arguments, writes the span analysis to TRACE_JSON
and exits with the command's exit code.
"""

import json
import os
import sys
import time

START = time.perf_counter()
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def main() -> int:
    trace_path, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: clichild.py TRACE_JSON -- ARGS...")
    import hyperseries.cli
    import spans
    import_s = time.perf_counter() - START
    tracer = spans.Tracer()
    spans.install(tracer)
    started = time.perf_counter()
    code = hyperseries.cli.main(argv)
    main_s = time.perf_counter() - started
    written = time.perf_counter()
    analysis = tracer.analyse()
    analysis.update({"cli.import_s": import_s, "cli.main_s": main_s})
    analysis["trace_io_s"] = time.perf_counter() - written
    with open(trace_path, "w", encoding="utf-8") as handle:
        json.dump(analysis, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
