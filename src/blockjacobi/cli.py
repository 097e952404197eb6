"""Command line interface.

Exit codes: 0 success, 2 configuration or validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .config import ParseError, parse_config
from .fixtures import FIXTURES, FIXTURE_NOTES
from .runner import emit, report_json, run


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="blockjacobi",
                                 description="block Jacobi matrix analysis")
    sub = ap.add_subparsers(dest="command", required=True)

    p_an = sub.add_parser("analyze", help="run a JSON analysis configuration")
    p_an.add_argument("config", help="path to a JSON configuration file")
    _common(p_an)

    p_scan = sub.add_parser("scan", help="definiteness scan of the limit form")
    p_scan.add_argument("--family", required=True,
                        help="built-in fixture name or path to a family JSON file")
    p_scan.add_argument("--range", required=True, help="lo,hi")
    p_scan.add_argument("--grid", type=int, default=201)
    p_scan.add_argument("--period", type=int, default=1)
    _common(p_scan)

    p_traj = sub.add_parser("trajectory", help="propagate one trajectory")
    p_traj.add_argument("--family", required=True)
    p_traj.add_argument("--z", required=True, help="re,im")
    p_traj.add_argument("--alpha", required=True,
                        help="comma-separated initial data, entries re or re+imj")
    _common(p_traj)

    p_fix = sub.add_parser("fixtures", help="fixture utilities")
    p_fix.add_argument("action", choices=["list"])
    return ap


def _common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--horizon", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out-dir", default=None)
    p.add_argument("--format", choices=["json", "csv-bundle"], default="json")


def _family_config(arg: str):
    if arg in FIXTURES:
        return arg
    try:
        return json.loads(Path(arg).read_text())
    except OSError as exc:
        raise OSError(f"cannot read family file {arg}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(arg, f"invalid JSON: {exc}") from exc


def _parse_z(text: str) -> list[float]:
    parts = text.split(",")
    if len(parts) == 1:
        return [float(parts[0]), 0.0]
    if len(parts) == 2:
        return [float(parts[0]), float(parts[1])]
    raise ParseError("--z", "expected re or re,im")


def _parse_alpha(text: str) -> list:
    out = []
    for part in text.split(","):
        z = complex(part.replace(" ", ""))
        out.append([z.real, z.imag] if z.imag else z.real)
    return out


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    try:
        return _dispatch(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


def _dispatch(args) -> int:
    if args.command == "fixtures":
        for name in sorted(FIXTURES):
            print(f"{name}: {FIXTURE_NOTES.get(name, '')}")
        return 0

    if args.command == "analyze":
        try:
            text = Path(args.config).read_text()
        except OSError as exc:
            raise OSError(f"cannot read {args.config}: {exc}") from exc
        doc = parse_config(text)
    elif args.command == "scan":
        lo_hi = args.range.split(",")
        if len(lo_hi) != 2:
            raise ParseError("--range", "expected lo,hi")
        doc = parse_config({
            "family": _family_config(args.family),
            "analyses": [{"kind": "lambda_scan",
                          "range": [float(lo_hi[0]), float(lo_hi[1])],
                          "grid": args.grid, "N": args.period}],
        })
    else:  # trajectory
        doc = parse_config({
            "family": _family_config(args.family),
            "analyses": [{"kind": "trajectory", "z": _parse_z(args.z),
                          "alpha": _parse_alpha(args.alpha)}],
        })

    if args.horizon is not None:
        doc.horizon = args.horizon
    if args.seed is not None:
        doc.seed = args.seed
    if args.out_dir is not None:
        doc.out_dir = args.out_dir

    report = run(doc)
    if doc.out_dir:
        emit(report, doc.out_dir, args.format)
        print(f"wrote {doc.out_dir}/report.json")
    else:
        print(report_json(report, include_times=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
