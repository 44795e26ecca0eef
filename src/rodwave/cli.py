"""Command-line interface.

Exit codes: 0 success, 2 config error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys

from .config import load_config
from .errors import ConfigError, NumericError
from .workbench import (
    run_chain,
    run_frequency_sweep,
    run_geometry_sweep,
    run_impedance,
    run_matrices,
    run_stopbands,
)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused: parsing
    leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="rodwave",
        description="Transfer-matrix analysis of locally resonant rod-on-beam unit cells",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log applied defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="frequency sweep: sweep.csv + stopbands.csv")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--out", default=None)
    p_sweep.add_argument("--plot", action="store_true")

    p_bands = sub.add_parser("stopbands", help="stopband table only: stopbands.csv")
    p_bands.add_argument("--config", required=True)
    p_bands.add_argument("--out", default=None)

    p_imp = sub.add_parser("impedance", help="rod driving-impedance spectrum")
    p_imp.add_argument("--config", required=True)
    p_imp.add_argument("--f-start", type=float, required=True)
    p_imp.add_argument("--f-stop", type=float, required=True)
    p_imp.add_argument("--points", type=int, required=True)

    p_chain = sub.add_parser("chain", help="finite-chain decay profile")
    p_chain.add_argument("--config", required=True)
    p_chain.add_argument("--freq", type=float, required=True)
    p_chain.add_argument("--cells", type=int, required=True)

    p_geom = sub.add_parser("geom-sweep", help="geometry-parameter sweep")
    p_geom.add_argument("--config", required=True)

    p_mat = sub.add_parser("matrices", help="dump G, C, D, T at one frequency")
    p_mat.add_argument("--config", required=True)
    p_mat.add_argument("--freq", type=float, required=True)
    return parser


class _StderrHandler(logging.StreamHandler):
    """A handler on sys.stderr as it is at each record: callers may swap it."""

    def emit(self, record: logging.LogRecord) -> None:
        self.stream = sys.stderr
        super().emit(record)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # the level and handler of the package logger, set here on every call:
    # basicConfig does nothing once the root logger has a handler
    log = logging.getLogger("rodwave")
    if not log.handlers:
        handler = _StderrHandler()
        handler.setFormatter(logging.Formatter("%(name)s: %(message)s"))
        log.addHandler(handler)
    log.setLevel(logging.INFO if args.verbose else logging.WARNING)
    try:
        config = load_config(args.config)
        if args.command == "sweep":
            result = run_frequency_sweep(
                config, out_dir=args.out, plot=args.plot or None
            )
            n_bands = len(result["report"].bands)
            print(f"wrote {result['sweep_csv']} and {result['stopbands_csv']} "
                  f"({n_bands} stopbands)")
        elif args.command == "stopbands":
            result = run_stopbands(config, out_dir=args.out)
            print(f"wrote {result['stopbands_csv']}")
        elif args.command == "impedance":
            result = run_impedance(config, args.f_start, args.f_stop, args.points)
            print(f"wrote {result['impedance_csv']}")
        elif args.command == "chain":
            result = run_chain(config, args.freq, args.cells)
            profile = result["profile"]
            print(
                f"wrote {result['chain_csv']} "
                f"(fit slope {profile.fitted_slope:.4f}, "
                f"ln|lambda| {profile.eigen_slope:.4f})"
            )
        elif args.command == "geom-sweep":
            result = run_geometry_sweep(config)
            print(
                f"wrote {result['geomsweep_csv']} "
                f"(delta_f = {result['delta_f'] / 1e6:.3f} MHz; 1D model, see notes)"
            )
        elif args.command == "matrices":
            result = run_matrices(config, args.freq)
            print(f"wrote {result['matrices_csv']} and {result['check_csv']}")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
