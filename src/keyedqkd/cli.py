"""Command-line scenario runner with reproducible, machine-readable outputs.

Exit codes: 0 success, 1 usage, configuration or numerical error, 2 protocol-level
abort. All randomness derives from the mandatory --seed, so identical
invocations produce byte-identical outputs regardless of --threads; wall-clock
metadata goes only to the optional --meta sidecar.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

# Only the modules `sweep` and `rate-window` use load with the CLI; numpy and
# the protocol and attack code load inside the commands that run them. sweep_m
# stays a module global, where a tracer can wrap it.
from .analysis import rate_window, sweep_csv, sweep_m

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_ABORT = 2


def _round_sig(value, digits: int = 9):
    """Round every float in a JSON-ready structure to `digits` significant digits."""
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return float(f"{value:.{digits}g}")
    if isinstance(value, dict):
        return {k: _round_sig(v, digits) for k, v in value.items()}
    if isinstance(value, list):
        return [_round_sig(v, digits) for v in value]
    return value


def _render_json(doc: dict) -> str:
    return json.dumps(_round_sig(doc), indent=2, sort_keys=True) + "\n"


def _write_all(files: list[tuple[Path, str]]):
    """Write every (path, text); if one write fails, remove the files already
    opened, so a failed command leaves no partial output behind."""
    opened = []
    try:
        for path, text in files:
            path.parent.mkdir(parents=True, exist_ok=True)
            with path.open("w") as handle:
                opened.append(path)
                handle.write(text)
    except OSError:
        for path in opened:
            path.unlink(missing_ok=True)
        raise


def _load_config(path: str):
    from .protocol import ProtocolConfig

    return ProtocolConfig.from_json(Path(path).read_text())


def cmd_run(args) -> tuple[int, str]:
    import numpy as np

    from .protocol import run_protocol

    outcome = run_protocol(_load_config(args.config), np.random.default_rng(args.seed))
    return EXIT_OK if outcome.verified else EXIT_ABORT, _render_json(outcome.to_json_dict())


def cmd_attack(args) -> tuple[int, str]:
    import numpy as np

    from .adversary import AttackStrategy, run_attack

    strategy = AttackStrategy.parse(args.strategy)
    report = run_attack(strategy, _load_config(args.config), np.random.default_rng(args.seed),
                        trials=args.trials, threads=args.threads)
    return EXIT_OK, _render_json(report.to_json_dict())


def cmd_sweep(args) -> tuple[int, str]:
    m_values = [int(v) for v in args.m.split(",") if v.strip()]
    if not m_values:
        raise ValueError("empty basis-count list")
    return EXIT_OK, sweep_csv(sweep_m(m_values, include_keyless=not args.no_keyless))


def cmd_rate_window(args) -> tuple[int, str]:
    window = rate_window(args.p_c)
    return EXIT_OK, _render_json({
        "p_c": args.p_c,
        "lower": window.lower,
        "upper": window.upper,
        "nonempty": window.nonempty,
    })


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="keyedqkd",
        description="Keyed-basis qubit key-generation simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the full protocol from a config file")
    run_p.add_argument("--config", required=True, help="protocol config JSON")
    run_p.add_argument("--seed", type=int, required=True, help="master RNG seed")
    run_p.add_argument("--output", required=True, help="outcome JSON path")
    run_p.add_argument("--meta", help="optional sidecar for wall-clock metadata")
    run_p.set_defaults(fn=cmd_run)

    atk_p = sub.add_parser("attack", help="evaluate an eavesdropping strategy")
    atk_p.add_argument("strategy",
                       help="intercept[:f] | fixed:<phi> | breidbart | keyguess | blockguess:<k>")
    atk_p.add_argument("--config", required=True, help="protocol config JSON")
    atk_p.add_argument("--trials", type=int, default=1, help="Monte Carlo repetitions")
    atk_p.add_argument("--seed", type=int, required=True, help="master RNG seed")
    atk_p.add_argument("--output", required=True, help="report JSON path")
    atk_p.add_argument("--threads", type=int, default=1,
                       help="worker threads for trial chunks (does not affect results)")
    atk_p.add_argument("--meta", help="optional sidecar for wall-clock metadata")
    atk_p.set_defaults(fn=cmd_attack)

    sweep_p = sub.add_parser("sweep", help="eavesdropper error rates vs basis count")
    sweep_p.add_argument("--m", required=True, help="comma-separated basis counts, powers of two")
    sweep_p.add_argument("--output", required=True, help="CSV path")
    sweep_p.add_argument("--no-keyless", action="store_true",
                         help="skip the keyless-error column")
    sweep_p.add_argument("--meta", help="optional sidecar for wall-clock metadata")
    sweep_p.set_defaults(fn=cmd_sweep)

    win_p = sub.add_parser("rate-window", help="print the feasible code-rate window")
    win_p.add_argument("p_c", type=float, help="estimated channel error rate")
    win_p.set_defaults(fn=cmd_rate_window)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        if getattr(args, "meta", None) and os.path.realpath(args.meta) == os.path.realpath(
                args.output):
            raise ValueError(f"--meta and --output name the same file: {args.output}")
        code, document = args.fn(args)
        if "output" not in args:
            sys.stdout.write(document)
            return code
        files = [(Path(args.output), document)]
        if args.meta:
            meta = {"argv": argv, "written_at": time.strftime("%Y-%m-%dT%H:%M:%S%z")}
            files.append((Path(args.meta), json.dumps(meta, indent=2, sort_keys=True) + "\n"))
        _write_all(files)
        return code
    except (OSError, ValueError, ArithmeticError, MemoryError) as exc:
        # ValueError covers json.JSONDecodeError from a malformed config.
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entry():
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
