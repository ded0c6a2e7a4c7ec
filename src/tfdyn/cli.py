"""Command-line interface.

Verbs::

    tfdyn run    --config cfg.ini --out outdir    # one quench, full artifacts
    tfdyn sweep  --config cfg.ini --out outdir    # parameter grid of quenches
    tfdyn verify [--config cfg.ini] [--out outdir]  # acceptance suite

Exit statuses: 0 success, 2 malformed or out-of-range config, 3 integration
failure, 4 truncation refusal, 5 verification failure.
"""

from __future__ import annotations

import argparse
import sys

from ._version import __version__
from .cli_runner import load_config, run_quench, run_sweep, run_verify
from .errors import ConfigError, IntegrationError, TruncationError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INTEGRATION = 3
EXIT_TRUNCATION = 4
EXIT_VERIFICATION = 5


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfdyn",
        description=(
            "Thermofield dynamics of time-dependent quadratic Hamiltonians: "
            "quench runs, parameter sweeps, and the self-verification suite."
        ),
    )
    parser.add_argument("--version", action="version", version=f"tfdyn {__version__}")
    sub = parser.add_subparsers(dest="verb", required=True)

    run_p = sub.add_parser("run", help="solve one protocol and write CSV artifacts")
    run_p.add_argument("--config", required=True, help="INI run configuration")
    run_p.add_argument("--out", required=True, help="output directory")

    sweep_p = sub.add_parser("sweep", help="run a one-parameter grid of quenches")
    sweep_p.add_argument("--config", required=True, help="INI sweep configuration")
    sweep_p.add_argument("--out", required=True, help="output directory")

    verify_p = sub.add_parser("verify", help="run the acceptance suite")
    verify_p.add_argument("--config", help="optional INI with integrator/oracle settings")
    verify_p.add_argument("--out", help="optional directory for the manifest")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.verb == "run":
            config = load_config(args.config, "quench")
            manifest = run_quench(config, args.out)
            drift = ", ".join(f"{k} {v:.2e}" for k, v in manifest["drift"].items())
            print(f"quench done: {args.out} (drift: {drift})")
            return EXIT_OK
        if args.verb == "sweep":
            config = load_config(args.config, "sweep")
            manifest = run_sweep(config, args.out)
            print(f"sweep done: {len(manifest['entries'])} entries in {args.out}")
            return EXIT_OK
        config = load_config(args.config, "verify") if args.config else None
        manifest, results = run_verify(config, args.out)
        for result in results:
            print(result.line())
        if manifest["all_passed"]:
            print("verification suite passed")
            return EXIT_OK
        failed = sum(1 for r in results if not r.skipped and not r.passed)
        print(f"verification suite FAILED ({failed} check(s))", file=sys.stderr)
        return EXIT_VERIFICATION
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except IntegrationError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except TruncationError as exc:
        print(f"truncation refusal: {exc}", file=sys.stderr)
        return EXIT_TRUNCATION
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
