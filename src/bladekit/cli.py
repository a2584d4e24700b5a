"""Command-line interface: solve, verify, and position subcommands."""

from __future__ import annotations

import argparse
import json
import logging
import os
import re
import sys

import numpy as np

from .config import _file_name, parse_config
from .errors import BladekitError
from .geometry import contour_from_csv
from .pipeline import run_pipeline, write_artifacts
from .positioning import METHODS, NodePartition, position

log = logging.getLogger("bladekit")


def _setup_logging():
    level = os.environ.get("BLADE_LOG", "info").lower()
    mapping = {"debug": logging.DEBUG, "info": logging.INFO,
               "quiet": logging.CRITICAL}
    logging.basicConfig(level=mapping.get(level, logging.INFO),
                        format="%(levelname)s %(message)s")


def _print_report(report):
    for sec in report.sections:
        for check in sec.checks:
            if check.passed is None:
                verdict = "INFO"
            else:
                verdict = "PASS" if check.passed else "FAIL"
            tol = "-" if check.tolerance is None else f"{check.tolerance:g}"
            log.info("%s %s/%s value=%.3e tol=%s", verdict, sec.section.id,
                     check.name, check.value, tol)
    for err in report.errors:
        log.error("section error: %s", err)
    log.info("overall: %s (%.2f s)",
             "PASS" if report.passed else "FAIL", report.timing_seconds)


def _cmd_run(args) -> int:
    """``solve`` and ``verify``: run the pipeline; ``solve`` also writes artifacts."""
    cfg = parse_config(args.config)
    write = args.command == "solve"
    if write:
        out_dir = args.out or cfg.output.directory
        os.makedirs(out_dir, exist_ok=True)     # refused before any section is solved
    report = run_pipeline(cfg)
    if write:
        for path in write_artifacts(cfg, report, out_dir):
            log.debug("wrote %s", path)
    _print_report(report)
    return 0 if report.passed else 1


def _cmd_position(args) -> int:
    contours = []
    velocities = []
    for path in args.contours:
        with open(path, "rb") as fh:
            raw = fh.read()
        try:
            # numbers near the float range overflow in edge lengths: refused,
            # naming the file
            with np.errstate(over="raise", invalid="raise", divide="raise"):
                contour, vel = contour_from_csv(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            line = raw[:exc.start].count(b"\n") + 1
            raise BladekitError(f"{path}: line {line}: not UTF-8 text") from None
        except (BladekitError, FloatingPointError) as exc:
            raise BladekitError(f"{path}: {exc}") from None
        contours.append(contour)
        velocities.append(vel)

    def lift_inputs():
        if args.box is None:
            raise BladekitError("--box is required for the lift method")
        if args.partition is None:
            raise BladekitError("--partition is required for the lift method")
        v1, v2 = velocities
        if v1 is None or v2 is None:
            raise BladekitError(
                "lift positioning needs a 'v' column in both contour files"
            )
        return tuple(args.box), NodePartition(args.partition, np.abs(v1), np.abs(v2))

    shift = position(*contours, args.method, lift_inputs)
    text = json.dumps(shift.to_json(), sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blade",
        description="Inverse blade-section design with transversal-velocity splines",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="run the design pipeline and write artifacts")
    p_solve.add_argument("--config", required=True, help="design configuration JSON")
    p_solve.add_argument("--out", default=None, help="output directory (overrides config)")
    p_solve.set_defaults(func=_cmd_run)

    p_verify = sub.add_parser("verify", help="run the pipeline checks without artifacts")
    p_verify.add_argument("--config", required=True)
    p_verify.set_defaults(func=_cmd_run)

    p_pos = sub.add_parser("position", help="position two contours from CSV files")
    p_pos.add_argument("--contours", nargs=2, required=True, metavar=("A", "B"))
    p_pos.add_argument("--method", choices=METHODS, default=METHODS[0])
    p_pos.add_argument("--box", nargs=4, type=float, default=None,
                       metavar=("X0", "Y0", "X1", "Y1"))
    p_pos.add_argument("--partition", type=int, default=None)
    p_pos.add_argument("--out", default=None, help="write the shift JSON here")
    p_pos.set_defaults(func=_cmd_position)
    # argparse takes a token such as "-1e-05" for an option; no option of this
    # command starts with "-" and a digit, so every such token is a number
    p_pos._negative_number_matcher = re.compile(r"^-\.?\d")
    return parser


def main(argv=None) -> int:
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        out = getattr(args, "out", None)
        if out == "":    # an explicit --out is never replaced
            raise BladekitError("--out: empty path")
        # a library caller can pass a str that no file name holds; argv cannot
        paths = [("--config", getattr(args, "config", None)), ("--out", out)]
        paths += [("--contours", p) for p in getattr(args, "contours", None) or ()]
        for flag, path in paths:
            if path is not None:
                _file_name(path, flag)
        return args.func(args)
    except (BladekitError, OSError) as exc:
        log.error("%s", exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
