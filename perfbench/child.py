"""One benchmark repetition, run as a fresh process by ``run.py``.

Usage: ``python3 child.py <src dir> <result.json> <run|trace|setup> <mkcs CLI args...>``

Imports mkcs from ``<src dir>``, parses the instance (the CLI argument
after the mode) and then hands the arguments to ``mkcs.cli.main``.  The
instant between the two is the end of set-up; ``setup`` stops there,
``trace`` installs the span tracer first.  Writes the clock readings,
the peak resident memory and, when traced, the spans and work counts to
``<result.json>``.  All clock readings come from ``time.monotonic``,
which is system-wide on Linux, so the parent can compare them with its
own.
"""

import json
import resource
import sys
import time

t_start = time.monotonic()


def main():
    src, result_path, kind = sys.argv[1], sys.argv[2], sys.argv[3]
    cli_args = sys.argv[4:]
    sys.path.insert(0, src)
    import mkcs.cli

    tracer = None
    if kind == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        tracer.add_span("import", t_start, time.monotonic())
    with open(cli_args[1], "rb") as fh:
        data = fh.read()
    # through the module attribute, so a traced run records this parse
    mkcs.cli.parse_dimacs(data)
    t_ready = time.monotonic()
    code = 0 if kind == "setup" else mkcs.cli.main(cli_args)
    t_done = time.monotonic()
    result = {
        "t_ready": t_ready,
        "t_done": t_done,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if tracer is not None:
        result["spans"] = tracer.spans
        result["counts"] = tracer.counts
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
