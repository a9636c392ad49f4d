"""Run `keyedqkd.cli.main` with trace wrappers installed and dump the spans.

Usage: python traced_cli.py SPANS_PATH CLI_ARGS...

The traced counterpart of `python -m keyedqkd.cli CLI_ARGS...` for the
sweep-cli workload: it times `import keyedqkd.cli` as `cli.import`, records
the calls listed in `bench_trace.WRAPS`, writes the spans as JSON lines to
SPANS_PATH and exits with the CLI's exit code.
"""

import sys
import time

from bench_trace import Tracer


def main(argv: list[str]) -> int:
    spans_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    start = time.perf_counter()
    import keyedqkd.cli
    tracer.record("cli.import", start, time.perf_counter())
    tracer.install()
    try:
        return keyedqkd.cli.main(cli_args)
    finally:
        tracer.uninstall()
        tracer.dump(spans_path)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
