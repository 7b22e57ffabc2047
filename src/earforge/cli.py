"""Command line interface: init / design / simulate / fit / optimize / verify
/ report over a campaign directory, plus standalone profile decomposition."""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from . import campaign as cp
from . import modal, plant
from .errors import EarforgeError, NumericError, ValidationError

ENV_CAMPAIGN = "EARFORGE_CAMPAIGN"

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3


# built once per process, at the first call, and shared: never mutate it
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="earforge",
        description="Compensate anisotropy earing of deep-drawn cups by "
                    "optimizing the blank contour.")
    parser.add_argument(
        "--campaign", metavar="DIR", default=None,
        help=f"campaign directory (default: ${ENV_CAMPAIGN})")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("init", help="create a campaign with the default config")
    sub.add_parser("design", help="emit the central composite design")
    sim = sub.add_parser("simulate",
                         help="run all design points on the plant")
    sim.add_argument("--ingest-dir", metavar="DIR", default=None,
                     help="read run_NN.csv files from DIR instead of running "
                          "the surrogate")
    sub.add_parser("fit", help="fit quadratic response surfaces")
    sub.add_parser("optimize", help="minimize the summed squared modal "
                                    "coordinates over the factor box")
    sub.add_parser("verify", help="re-simulate the optimal blank and measure "
                                  "the amplitude reduction")
    sub.add_parser("report", help="write SVG plots and the summary table")

    dec = sub.add_parser("decompose",
                         help="modal decomposition of a standalone profile")
    dec.add_argument("profile", help="profile CSV (theta_rad,value_mm) or "
                                     "point cloud CSV (x_mm,y_mm,z_mm)")
    dec.add_argument("--target", type=float, default=35.0,
                     help="target rim height, mm (default 35)")
    dec.add_argument("--output", metavar="FILE", default=None,
                     help="write coordinates CSV here instead of stdout")
    return parser


def _campaign_dir(args) -> Path:
    target = args.campaign or os.environ.get(ENV_CAMPAIGN)
    if not target:
        raise ValidationError(
            f"no campaign directory: pass --campaign or set ${ENV_CAMPAIGN}")
    return Path(target)


def _cmd_decompose(args) -> int:
    profile = plant.ingest_profile(args.profile)
    coords = modal.decompose(profile, args.target)
    text = modal.coordinates_text(coords)
    if args.output:
        Path(args.output).write_text(text, encoding="utf-8", newline="\n")
        print(f"wrote {args.output}")
    else:
        print(text, end="")
    return EXIT_OK


def _dispatch(args) -> int:
    if args.command == "decompose":
        return _cmd_decompose(args)

    campaign_dir = _campaign_dir(args)
    if args.command == "init":  # the one command that makes the directory
        campaign_dir.mkdir(parents=True, exist_ok=True)
        with cp.campaign_lock(campaign_dir):
            cp.init_campaign(campaign_dir)
        print(f"initialized campaign in {campaign_dir}")
        return EXIT_OK

    with cp.campaign_lock(campaign_dir):
        state = cp.load_state(campaign_dir)
        if args.command == "design":
            state = cp.design_campaign(state, campaign_dir)
            print(f"designed {state.design.n_points} runs "
                  f"-> {campaign_dir / cp.DESIGN_FILE}")
        elif args.command == "simulate":
            state = cp.simulate_campaign(state, campaign_dir,
                                         ingest_dir=args.ingest_dir)
            source = "ingested" if args.ingest_dir else "surrogate"
            print(f"simulated {len(state.runs)} runs ({source})")
        elif args.command == "fit":
            state = cp.fit_campaign(state, campaign_dir)
            print(f"fitted {len(state.models)} response surfaces "
                  f"-> {campaign_dir / cp.MODELS_FILE}")
        elif args.command == "optimize":
            state = cp.optimize_campaign(state, campaign_dir)
            opt = state.optimum
            phys = ", ".join(f"{n}={v:.4f}" for n, v in
                             zip(state.config.space.names, opt.physical))
            print(f"optimum: {phys}  F={opt.f_value:.4e}")
        elif args.command == "verify":
            state = cp.verify_campaign(state, campaign_dir)
            v = state.verification
            reduction = (v.status if v.reduction_factor is None
                         else f"{v.reduction_factor:.2f}x")
            print(f"verified: amplitude {v.optimum_amplitude:.4f} mm, "
                  f"reduction {reduction}")
        elif args.command == "report":
            written, skipped = cp.report_campaign(state, campaign_dir)
            for rel in written:
                print(f"wrote {campaign_dir / rel}")
            for rel, needs in skipped:
                print(f"skipped {rel} (needs {needs} stage)")
    return EXIT_OK


def cli_main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code if exc.code is not None else 0
        return int(code) if isinstance(code, int) else EXIT_VALIDATION
    try:
        return _dispatch(args)
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (EarforgeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
