"""Bootstrap child for ``cli-ingest``: runs ``pyrafuse.cli.main`` in-process.

    python3 bench/child.py trace <cli args...>
    python3 bench/child.py mem <cli args...>

``trace`` records spans around the CLI's calls and prints them, with the
moment ``import pyrafuse.cli`` finished, as one JSON line. ``mem`` prints the
peak bytes ``tracemalloc`` saw during the command above the level before
it. The exit code is the command's.
"""

import json
import sys
import time

import pyrafuse.cli

READY = time.perf_counter()


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    if mode == "trace":
        import spans

        recorder = spans.Recorder()
        saved = spans.install(recorder)
        recorder.begin_op(root=False)
        try:
            rc = pyrafuse.cli.main(argv)
        finally:
            recorder.end_op()
            spans.uninstall(saved)
        report = {"ready": READY, "spans": recorder.spans, "values": recorder.values}
    elif mode == "mem":
        import tracemalloc

        tracemalloc.start()
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        rc = pyrafuse.cli.main(argv)
        report = {"peak": tracemalloc.get_traced_memory()[1] - base}
        tracemalloc.stop()
    else:
        print(f"child: unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main())
