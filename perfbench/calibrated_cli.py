"""Run `keyedqkd.cli.main` between calibration samples and write them out.

Usage: python calibrated_cli.py SAMPLES_PATH CLI_ARGS...

The timed counterpart of `python -m keyedqkd.cli CLI_ARGS...` for the
sweep-cli workload: it takes a sample before `import keyedqkd.cli` (Python
only, nothing else is loaded yet), one after it and one after the CLI
returns, writes them to SAMPLES_PATH as JSON and exits with the CLI's exit
code. The samples let the op's time be scaled where the slowdown changes
within it (see bench_calibration.scaled_seconds).
"""

import json
import sys

import bench_calibration


def main(argv: list[str]) -> int:
    samples_path, cli_args = argv[0], argv[1:]
    samples = [bench_calibration.sample(python_only=True)]
    import keyedqkd.cli
    samples.append(bench_calibration.sample())
    try:
        return keyedqkd.cli.main(cli_args)
    finally:
        samples.append(bench_calibration.sample())
        with open(samples_path, "w") as fh:
            json.dump(samples, fh)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
