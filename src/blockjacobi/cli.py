"""Command line interface.

Each command builds one JSON document (`analyze`: the file; `scan` and
`trajectory`: the family and one analysis), with the keys its flags set,
and types it in one `config.parse_config` call.  Exit codes: 0 success, 2
configuration or validation error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import ParseError, load_json, parse_config
from .fixtures import FIXTURES, FIXTURE_NOTES
from .runner import emit, report_json, run


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built once per process: parsing a command
    line leaves it as it was."""
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


# The flag of each config key that a flag sets, by the key's JSON path.
FLAGS = {"$.horizon": "--horizon", "$.seed": "--seed", "$.out_dir": "--out-dir",
         "$.analyses[0].range": "--range", "$.analyses[0].grid": "--grid",
         "$.analyses[0].N": "--period", "$.analyses[0].z": "--z",
         "$.analyses[0].alpha": "--alpha"}


def _parse(doc, paths: list[str]):
    """parse_config(doc), where flags set the keys at `paths`: an error in
    such a key names its flag."""
    try:
        return parse_config(doc)
    except ParseError as exc:
        for at in paths:
            if exc.path == at or exc.path.startswith((at + "[", at + ".")):
                raise ParseError(FLAGS[at] + exc.path[len(at):], exc.message) from None
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

    if args.command == "analyze":
        try:
            text = Path(args.config).read_bytes()
        except OSError as exc:
            raise OSError(f"cannot read {args.config}: {exc}") from exc
        doc, analysis = load_json(text), {}
    else:  # the family is read before any flag is typed
        doc = {"family": _family_config(args.family)}
        if args.command == "scan":
            analysis = {"kind": "lambda_scan", "range": _numbers(args.range, "--range"),
                        "grid": args.grid, "N": args.period}
        else:  # trajectory
            z = _numbers(args.z, "--z")
            if len(z) > 2:
                raise ParseError("--z", "expected re or re,im")
            alpha = [[a.real, a.imag] if a.imag else a.real
                     for a in _numbers(args.alpha, "--alpha", complex)]
            analysis = {"kind": "trajectory", "z": z if len(z) == 2 else [z[0], 0.0],
                        "alpha": alpha}
        doc["analyses"] = [analysis]
    flagged = {key: getattr(args, key) for key in ("horizon", "seed", "out_dir")
               if getattr(args, key) is not None}
    if isinstance(doc, dict):  # else parse_config refuses the document at $
        doc.update(flagged)
    config = _parse(doc, [f"$.{key}" for key in flagged]
                    + [f"$.analyses[0].{key}" for key in analysis if key != "kind"])

    report = run(config)
    if config.out_dir:
        emit(report, config.out_dir, args.format)
        print(f"wrote {config.out_dir}/report.json")
    else:
        print(report_json(report, include_times=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
