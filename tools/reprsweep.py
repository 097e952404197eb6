"""Sweep the float kernel of the CSV and JSON writers against Python's repr
and json.dumps.

    python3 tools/reprsweep.py --count 1000000 --seed 0

Lays out, with `blockjacobi.table.float_fields`, the edge sets below and
COUNT seeded random bit patterns (every exponent field equally likely, so
subnormals, infinities and NaNs included), and compares each cell's bytes
with `repr`.  Then writes the finite values, CHUNK at a time, as number
blocks of a report through `blockjacobi.runner.report_json`: a list of
table.KERNEL_MIN - 1 values (written through "%r"), a float64 array of
KERNEL_MIN values and one of the rest (both from the kernel); and all of
them again as a rank-4 float64 array of 2x2 tables of [re, im] pairs (from
the kernel, its separators expanded from marker bytes) and as a list of
2x2 tables whose entries are numbers or pairs at random, the first and the
last a pair (through "%r").  It compares each line with the text of
json.dumps.  Prints every mismatch (the first MISMATCHES_SHOWN of them),
the number of differing report lines, and the share of values the kernel
left to `repr`, over all values and over those inside its range; exits 1
on a mismatch, else 0.

The edge sets: signed zeros, infinities and NaN; the smallest subnormal, the
smallest normal and the largest float; every power of two from 2^-1074 to
2^1023 and every 10^k from 10^-323 to 10^308, each with its neighbours one
ulp away; integers around 2^53 and from 10^15 to 10^17; decimals of 1 to 17
significant digits; and the neighbours of the layout boundaries 1e-5, 1e-4,
1e16 and 1e17, where repr switches between positional and exponent form.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from blockjacobi import runner, table  # noqa: E402

MISMATCHES_SHOWN = 20
CHUNK = 100_000


def _neighbours(values, ulps: int = 1) -> list[float]:
    out = []
    for v in values:
        lo = hi = np.float64(v)
        out.append(float(v))
        for _ in range(ulps):
            lo, hi = np.nextafter(lo, -np.inf), np.nextafter(hi, np.inf)
            out += [float(lo), float(hi)]
    return out


def edge_values(seed: int = 0) -> np.ndarray:
    """The edge sets of the module docstring, positive and negative."""
    rng = np.random.default_rng(seed)
    values = [0.0, np.inf, np.nan, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    values += _neighbours([2.0 ** k for k in range(-1074, 1024)])
    values += _neighbours([float(f"1e{k}") for k in range(-323, 309)])
    values += [float(2 ** 53 + j) for j in range(-2000, 2001)]
    for k in (15, 16, 17):
        values += [float(10 ** k + j) for j in range(-2000, 2001)]
    values += [float(v) for v in rng.integers(10 ** 15, 10 ** 17, 20000)]
    for ndig in range(1, 18):
        digits = rng.integers(10 ** (ndig - 1), 10 ** ndig, 1000, dtype=np.int64)
        exps = rng.integers(-30, 31, 1000)
        values += [float(f"{m}e{e}") for m, e in zip(digits.tolist(), exps.tolist())]
    values += _neighbours([1e-5, 1e-4, 1e16, 1e17, 9.99999e-5, 9.99999e-6, 9999999999999998.0,
                           99999999999999990.0], ulps=4)
    x = np.array(values)
    return np.concatenate([x, -x])


def random_bits(count: int, seed: int) -> np.ndarray:
    """COUNT floats from random bit patterns, the exponent field uniform."""
    rng = np.random.default_rng(seed)
    sign = rng.integers(0, 2, count, dtype=np.int64) << 63
    exponent = rng.integers(0, 2048, count, dtype=np.int64) << 52
    mantissa = rng.integers(0, 1 << 52, count, dtype=np.int64)
    return (sign | exponent | mantissa).view(np.float64)


def kernel_text(x: np.ndarray) -> tuple[list[bytes], np.ndarray]:
    """The kernel's bytes for every float of x, and the mask of those it
    left to repr."""
    buf = np.empty((len(x), table.FIELD), dtype=np.uint8)
    keep = np.zeros(buf.shape, dtype=bool)
    other = table.float_fields(x, buf, keep)
    buf[:, -1], keep[:, -1] = ord("\n"), True
    return buf[keep].tobytes().split(b"\n")[:-1], other


def mixed_tables(v: np.ndarray, seed: int) -> list:
    """2x2 tables of the values of v, each entry a number or, at random, an
    [re, im] pair; the first and the last entry are pairs."""
    pairs = np.random.default_rng(seed).random(len(v) // 8 * 4) < 0.5
    pairs[:1] = pairs[-1:] = True
    values = iter(v.tolist())
    entries = [[next(values), next(values)] if p else next(values) for p in pairs.tolist()]
    return [[entries[i:i + 2], entries[i + 2:i + 4]] for i in range(0, len(entries), 4)]


def json_mismatches(x: np.ndarray, seed: int = 0) -> list[tuple[str, str]]:
    """The lines of report_json that differ from json.dumps (as pairs, a
    missing line empty), the finite values of x laid out as number blocks:
    a list of KERNEL_MIN - 1 values, arrays of KERNEL_MIN values, of the
    rest and of 2x2 tables of pairs, and a list of 2x2 tables of numbers and
    pairs (`mixed_tables`)."""
    v = x[np.isfinite(x)]
    k = table.KERNEL_MIN
    results = {"below": v[:k - 1].tolist(), "at": v[k - 1:2 * k - 1], "rest": v[2 * k - 1:],
               "pairs": v[:len(v) // 8 * 8].reshape(-1, 2, 2, 2),
               "mixed": mixed_tables(v, seed)}
    got = runner.report_json(runner.AnalysisReport(tool={}, config={}, results=results),
                             include_times=False).splitlines()
    lists = {key: r.tolist() if isinstance(r, np.ndarray) else r for key, r in results.items()}
    want = json.dumps({"config": {}, "results": lists, "tool": {}},
                      sort_keys=True, indent=2).splitlines()
    got += [""] * (len(want) - len(got))
    want += [""] * (len(got) - len(want))
    return [(g, w) for g, w in zip(got, want) if g != w]


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--count", type=int, default=1_000_000, help="random bit patterns")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    x = np.concatenate([edge_values(args.seed), random_bits(args.count, args.seed)])
    mismatches = json_lines = fallback = in_range = fallback_in_range = 0
    for lo in range(0, len(x), CHUNK):
        part = x[lo:lo + CHUNK]
        got, other = kernel_text(part)
        for v, g in zip(part.tolist(), got):
            if g != repr(v).encode():
                if mismatches < MISMATCHES_SHOWN:
                    bits = np.float64(v).view(np.int64)
                    print(f"mismatch: {v!r} ({bits:#018x}) gave {g.decode()!r}")
                mismatches += 1
        for g, w in json_mismatches(part, args.seed + lo):
            if mismatches < MISMATCHES_SHOWN:
                print(f"report line mismatch: {g!r}, json.dumps {w!r}")
            mismatches += 1
            json_lines += 1
        live = (np.abs(part) >= table._SMALL) & (np.abs(part) <= table._LARGE)
        fallback += int(other.sum())
        in_range += int(live.sum())
        fallback_in_range += int((other & live).sum())
    print(f"{len(x)} values ({len(x) - args.count} edge, {args.count} random, seed {args.seed}): "
          f"{mismatches} mismatches ({json_lines} of them report lines); left to repr: {fallback} ({fallback / len(x):.4%}), "
          f"{fallback_in_range} of the {in_range} inside the kernel's range "
          f"({fallback_in_range / max(in_range, 1):.4%})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
