"""Command-line front end: sweep, optimal, g2tau, validate.

Exit codes: 0 success, 1 I/O error, 2 configuration error, 3 solver error.
"""

from __future__ import annotations

import argparse
import sys

from .config import hilbert_from_dict, load_json, params_from_dict
from .errors import ConfigError, SolverError
from .model import DIRECTION_SIGN
from .sweep import run_g2tau, run_optimal, run_sweep, sweep_spec_from_dict


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinpb",
        description="Photon-blockade simulations in a spinning magnomechanical cavity",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a 1-D/2-D observable scan")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON file")

    p_opt = sub.add_parser("optimal", help="search interference-optimal pairs")
    p_opt.add_argument("--config", required=True,
                       help="system parameter JSON file (flat object)")
    p_opt.add_argument("--direction", default="both",
                       help="cw, ccw or both (default: both)")
    p_opt.add_argument("--output", default="optimal.csv",
                       help="CSV destination (default: optimal.csv)")

    p_tau = sub.add_parser("g2tau", help="delayed correlation trace g2(tau)")
    p_tau.add_argument("--config", required=True,
                       help="system parameter JSON file (flat object)")
    p_tau.add_argument("--tau-max", type=float, required=True,
                       help="largest delay in seconds")
    p_tau.add_argument("--points", type=int, required=True,
                       help="number of grid points (tau = 0 included)")
    p_tau.add_argument("--output", default="g2tau.csv",
                       help="CSV destination (default: g2tau.csv)")

    p_val = sub.add_parser("validate", help="parse-only configuration check")
    group = p_val.add_mutually_exclusive_group(required=True)
    group.add_argument("--spec", help="sweep spec JSON file")
    group.add_argument("--config", help="system parameter JSON file")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            manifest = run_sweep(sweep_spec_from_dict(load_json(args.spec)))
            print(f"wrote {manifest.rows} rows; config hash {manifest.config_hash}")
        elif args.command == "optimal":
            params = params_from_dict(load_json(args.config))
            dirs = (list(DIRECTION_SIGN) if args.direction == "both"
                    else [args.direction])
            manifest = run_optimal(params, dirs, args.output)
            print(f"wrote {manifest.rows} rows to {args.output}")
        elif args.command == "g2tau":
            params = params_from_dict(load_json(args.config))
            manifest = run_g2tau(params, hilbert_from_dict(None), args.tau_max,
                                 args.points, args.output)
            print(f"wrote {manifest.rows} rows to {args.output}")
        elif args.command == "validate":
            if args.spec:
                sweep_spec_from_dict(load_json(args.spec))
            else:
                params_from_dict(load_json(args.config))
            print("configuration OK")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
