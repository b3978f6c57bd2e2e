"""Run one surgeon CLI command with tracing on and dump the trace record.

    python bench/traced_cli.py SPANS.json <surgeon arguments...>

Used by the traced run of the `cli-corpus` workload, whose commands run
as child processes.  Stdout, stderr and the exit code are the CLI's own.
"""

import sys

from tracer import Tracer


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    import surgeon.cli

    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        rc = surgeon.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
        sys.stdout.flush()
        tracer.dump(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
