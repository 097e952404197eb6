"""Command line interface.

Exit codes: 0 success, 2 configuration or validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .config import ParseError, load_json, parse_complex, parse_config, parse_value
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
        data = Path(arg).read_bytes()
    except OSError as exc:
        raise OSError(f"cannot read family file {arg}: {exc}") from exc
    return load_json(data, arg)


def _numbers(text: str, flag: str, kind=float) -> list:
    """The comma-separated numbers of a flag, entries re or re+imj for complex."""
    try:
        return [kind(part.replace(" ", "")) for part in text.split(",")]
    except ValueError:
        raise ParseError(flag, f"expected comma-separated numbers, got {text!r}") from None


def _parse_z(text: str) -> list[float]:
    z = _numbers(text, "--z")
    if len(z) > 2:
        raise ParseError("--z", "expected re or re,im")
    z = parse_value("z", z if len(z) == 2 else z[0], "--z")
    return [z.real, z.imag]


def _parse_alpha(text: str) -> list:
    out = []
    for i, a in enumerate(_numbers(text, "--alpha", complex)):
        a = parse_complex([a.real, a.imag], f"--alpha[{i}]")
        out.append([a.real, a.imag] if a.imag else a.real)
    return out


def _flag_config(family: str, analysis: dict, flags: dict):
    """The config of one analysis whose keys were set by command line flags
    (`flags` maps key to flag); an error in a key names its flag."""
    try:
        return parse_config({"family": _family_config(family), "analyses": [analysis]})
    except ParseError as exc:
        for key, flag in flags.items():
            at = f"$.analyses[0].{key}"
            if exc.path == at or exc.path.startswith((at + "[", at + ".")):
                raise ParseError(flag + exc.path[len(at):], exc.message) from None
        raise


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

    # flags are typed like the config keys they set, before the config
    for key in ("horizon", "seed"):
        if getattr(args, key) is not None:
            parse_value(key, getattr(args, key), f"--{key}")
    if args.command == "analyze":
        try:
            text = Path(args.config).read_bytes()
        except OSError as exc:
            raise OSError(f"cannot read {args.config}: {exc}") from exc
        doc = parse_config(text)
    elif args.command == "scan":
        lo_hi = parse_value("range", _numbers(args.range, "--range"), "--range")
        doc = _flag_config(args.family, {"kind": "lambda_scan", "range": list(lo_hi),
                                         "grid": args.grid, "N": args.period},
                           {"range": "--range", "grid": "--grid", "N": "--period"})
    else:  # trajectory
        doc = _flag_config(args.family, {"kind": "trajectory", "z": _parse_z(args.z),
                                         "alpha": _parse_alpha(args.alpha)},
                           {"z": "--z", "alpha": "--alpha"})

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
