"""One benchmark invocation of the aisles CLI, run as a fresh process.

    python3 perfbench/child.py REPORT MODE RUN_ID -- CLI-ARGS...

It imports `aisles.cli` from the checkout's `src`, wraps the one call
that loads the input (`cli.load_table` or `cli.load_model`) so that the
moment it returns is known, and hands CLI-ARGS to `cli.main` unchanged.
MODE is `run`, `trace` or `setup`.  With `trace` it also installs the
probes of `layers.PROBES` around that call and writes the spans to
REPORT + ".spans"; with `setup` it exits as soon as the load returns.
REPORT gets a JSON object with `setup_end`, the `time.monotonic()`
reading at which the load returned (the parent compares it with its own
reading at spawn).
"""

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(1, HERE)

from aisles import cli  # noqa: E402


class SetupDone(BaseException):
    """Raised once the input is loaded when only set-up is timed; not an
    Exception, so the CLI's error handling lets it through."""


def _timed(fn, report, setup_only):
    def wrapper(args):
        result = fn(args)
        report.setdefault("setup_end", time.monotonic())
        if setup_only:
            raise SetupDone
        return result

    return wrapper


def main(argv):
    report_path, mode, run_id, sep, *cli_args = argv
    if sep != "--" or mode not in ("run", "trace", "setup"):
        raise SystemExit("usage: child.py REPORT run|trace|setup RUN_ID -- CLI-ARGS...")
    report = {}
    originals = (cli.load_table, cli.load_model)
    cli.load_table = _timed(cli.load_table, report, mode == "setup")
    cli.load_model = _timed(cli.load_model, report, mode == "setup")
    tracer = None
    if mode == "trace":
        import layers
        import tracer as tracer_mod

        tracer = tracer_mod.Tracer(run_id)
        tracer.install(layers.PROBES)
    try:
        code = cli.main(cli_args)
    except SetupDone:
        code = 0
    finally:
        if tracer is not None:
            tracer.restore()
        cli.load_table, cli.load_model = originals
        sys.stdout.flush()
        if tracer is not None:
            tracer.dump(report_path + ".spans")
        with open(report_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
