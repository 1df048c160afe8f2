"""Run one hankelab CLI command in this fresh interpreter and report on a pipe.

    python perfbench/child.py REPORT_FD TRACE -- ARG...

Stdout, stderr and the exit code are the CLI's own.  When the command has
finished, one JSON object goes to the file descriptor REPORT_FD: the
monotonic clock reading just after `import hankelab.cli` returned, the
import's own duration and, with TRACE=1, the spans and counters that
`tracer` recorded.  The parent compares the clock reading with its own
reading at spawn, so set-up time includes interpreter start.
"""

import os
import sys
import time


def main() -> int:
    report_fd, trace, dashes, *argv = sys.argv[1:]
    if dashes != "--":
        raise SystemExit("usage: child.py REPORT_FD TRACE -- ARG...")
    before = time.monotonic()
    import hankelab.cli

    imported = time.monotonic()
    report = {"imported": imported, "import_s": imported - before}
    if trace == "1":
        import tracer

        recorder = tracer.Recorder()
        recorder.install()
        try:
            code = hankelab.cli.run(argv)
        finally:
            recorder.uninstall()
        report.update(recorder.summary())
    else:
        code = hankelab.cli.run(argv)
    sys.stdout.flush()
    # json is imported only now so that it is not preloaded for the timed
    # import above (hankelab.cli imports it itself).
    import json

    with os.fdopen(int(report_fd), "w") as out:
        json.dump(report, out)
    return code


if __name__ == "__main__":
    sys.exit(main())
