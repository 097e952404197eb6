"""The CSV writer's number kernels against their oracles: `float_fields`
against Python's repr and `int_fields` against str, cell for cell, on the
edge sets of tools/reprsweep.py and seeded random bit patterns (a
hypothesis property: test_csv_kernel_properties.py); and the share of
cells the float kernel leaves to repr."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from blockjacobi.table import FIELD, Table, float_fields, int_fields, write_csv
from conftest import kernel_text, repr_mismatches

_SPEC = importlib.util.spec_from_file_location(
    "reprsweep", Path(__file__).resolve().parent.parent / "tools" / "reprsweep.py")
reprsweep = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reprsweep)


def _neighbours(values) -> list[float]:
    x = np.array(values, dtype=np.float64)
    return np.concatenate([x, np.nextafter(x, -np.inf), np.nextafter(x, np.inf)]).tolist()


def test_signed_zeros_infinities_and_nan():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan]
    got, _ = kernel_text(float_fields, values, np.float64)
    assert got == [b"0.0", b"-0.0", b"inf", b"-inf", b"nan"]


def test_extreme_floats():
    values = [5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    assert repr_mismatches(values + [-v for v in values]) == []


def test_every_power_of_two_and_its_neighbours():
    x = _neighbours([2.0 ** k for k in range(-1074, 1024)])
    assert repr_mismatches(x + [-v for v in x]) == []


def test_every_power_of_ten_and_its_neighbours():
    x = _neighbours([float(f"1e{k}") for k in range(-323, 309)])
    assert repr_mismatches(x + [-v for v in x]) == []


def test_integers_around_2_to_the_53_and_from_1e15_to_1e17():
    x = [float(2 ** 53 + j) for j in range(-3000, 3001)]
    for k in (15, 16, 17):
        x += [float(10 ** k + j) for j in range(-3000, 3001)]
    x += np.random.default_rng(1).integers(10 ** 15, 10 ** 17, 20000).astype(float).tolist()
    assert repr_mismatches(x) == []


@pytest.mark.parametrize("ndig", range(1, 18))
def test_decimals_of_each_length(ndig):
    rng = np.random.default_rng(ndig)
    digits = rng.integers(10 ** (ndig - 1), 10 ** ndig, 2000, dtype=np.int64).tolist()
    exps = rng.integers(-40, 41, 2000).tolist()
    assert repr_mismatches([float(f"{m}e{e}") for m, e in zip(digits, exps)]) == []


def test_layout_boundaries():
    x = []
    for b in (1e-5, 1e-4, 1e16, 1e17):
        lo = hi = b
        for _ in range(8):
            lo, hi = np.nextafter(lo, 0), np.nextafter(hi, np.inf)
            x += [lo, hi]
        x += [b, b * 1.5, b / 1.5, b * 0.99999, b * 1.00001]
    got = dict(zip(x, kernel_text(float_fields, x, np.float64)[0]))
    assert got[1e-5] == b"1e-05" and got[1e-4] == b"0.0001"
    assert got[1e16] == b"1e+16" and got[1e17] == b"1e+17"
    assert got[np.nextafter(1e16, 0)] == b"9999999999999998.0"
    assert repr_mismatches(x) == []


def test_random_bit_patterns_over_every_exponent():
    x = reprsweep.random_bits(200_000, seed=7)
    exponents = (x.view(np.int64) >> 52) & 0x7FF
    assert len(np.unique(exponents)) == 2048
    assert repr_mismatches(x) == []


def test_the_sweep_edge_sets_match_repr():
    assert repr_mismatches(reprsweep.edge_values(seed=3)) == []


def test_two_dimensional_fields_match_repr_cell_by_cell():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((37, 6)) * 10.0 ** rng.integers(-8, 20, (37, 6))
    x[3, 2], x[5, 0], x[7, 4] = np.nan, -0.0, 2.0 ** 60
    buf = np.empty((*x.shape, FIELD), dtype=np.uint8)
    keep = np.zeros(buf.shape, dtype=bool)
    float_fields(x, buf, keep)
    assert [[bytes(b[k]) for b, k in zip(rb, rk)] for rb, rk in zip(buf, keep)] == [
        [repr(v).encode() for v in row] for row in x.tolist()]


def test_the_kernel_decides_zeros_powers_of_two_and_nearly_every_value():
    pow2 = [2.0 ** k for k in range(-900, 900)]
    _, other = kernel_text(float_fields, [0.0, -0.0] + pow2 + [-v for v in pow2], np.float64)
    # 2^-25 = 2.98023223876953125e-08 ties at 17 digits; repr breaks the tie
    assert np.flatnonzero(other).tolist() == [2 + 900 - 25, 2 + 1800 + 900 - 25]
    rng = np.random.default_rng(11)
    x = rng.standard_normal(100_000) * 10.0 ** rng.integers(-10, 10, 100_000)
    _, other = kernel_text(float_fields, x, np.float64)
    assert other.mean() <= 1e-3


def test_powers_of_two_decided_as_a_subset_land_in_their_own_cells():
    # _decimals decides the zero-mantissa values again, as a subset, and
    # writes them back; powers of two, signed zeros, infinities and NaN at
    # random places of 2-D blocks must each keep their own cell's repr
    rng = np.random.default_rng(13)
    pow2 = 2.0 ** np.arange(-1074, 1024)
    specials = np.concatenate([[0.0, np.inf, np.nan], pow2, np.nextafter(pow2, np.inf)])
    for shape in ((1, 1), (2, 1), (9, 4), (100, 7), (1024, 3)):
        x = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
        pick = rng.random(shape) < rng.uniform(0.1, 0.9)
        x[pick] = rng.choice(specials, pick.sum()) * rng.choice([-1.0, 1.0], pick.sum())
        buf = np.empty((*shape, FIELD), dtype=np.uint8)
        keep = np.zeros(buf.shape, dtype=bool)
        float_fields(x, buf, keep)
        assert [[bytes(b[k]) for b, k in zip(rb, rk)] for rb, rk in zip(buf, keep)] == [
            [repr(v).encode() for v in row] for row in x.tolist()]


def test_the_kernel_leaves_no_more_edge_values_to_repr():
    # 12284 of the 122544 edge values went to repr before the powers of two
    # were decided as a subset; deciding them apart may not add one
    _, other = kernel_text(float_fields, reprsweep.edge_values(0), np.float64)
    assert other.sum() <= 12284


def test_int_fields_give_str():
    rng = np.random.default_rng(2)
    v = np.concatenate([
        [0, 1, -1, 9, 10, -10, 99, 100, 2 ** 63 - 1, -2 ** 63, -2 ** 63 + 1, 10 ** 18, -10 ** 18],
        [10 ** k + j for k in range(19) for j in (-1, 0, 1)],
        rng.integers(-2 ** 63, 2 ** 63 - 1, 50_000, dtype=np.int64),
        rng.integers(-5000, 5000, 5000)]).astype(np.int64)
    got, _ = kernel_text(int_fields, v, np.int64)
    assert got == [str(k).encode() for k in v.tolist()]


def test_int_and_bool_tables_are_written_as_csv_writer_writes_them(tmp_path):
    cols = ["a", "b"]
    for values, want in ((np.array([[-7, 0], [2 ** 30, 3]], dtype=np.int32), None),
                         (np.array([[True, False]]), b"a,b\r\nTrue,False\r\n"),
                         (np.array([[1, 2 ** 64 - 1]], dtype=np.uint64), None)):
        write_csv(Table(cols, values), tmp_path / "t.csv")
        want = want or ("a,b\r\n" + "".join(",".join(map(str, r)) + "\r\n"
                                            for r in values.tolist())).encode()
        assert (tmp_path / "t.csv").read_bytes() == want


def test_write_csv_refuses_values_that_do_not_match_the_columns(tmp_path):
    for table in (Table(["a", "b", "c"], np.zeros((2, 2))),
                  Table(["n", "a"], np.zeros((2, 2)), numbered=True),
                  Table(["a", "b"], np.zeros(3))):
        with pytest.raises(ValueError, match="a table of 3 columns|a table of 2 columns"):
            write_csv(table, tmp_path / "bad.csv")
