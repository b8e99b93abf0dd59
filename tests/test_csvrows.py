"""The CSV cell formatter against CPython's repr, bit pattern by bit pattern."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dqbsde as q
from dqbsde import cli, csvcells

from conftest import make, remark22_config


@pytest.fixture(scope="module")
def direct_remark22():
    """The direct solve of remark22 at N=800 (the direct-r22 workload)."""
    return q.backward_solve(*make(remark22_config(N=800)))


def texts(values):
    """Each float's cell as text: its four words' bytes, NULs dropped."""
    x = np.asarray(values, dtype=np.float64)
    out = np.empty(x.shape + (4,), dtype=np.uint64)
    csvcells.cells(x, out)
    raw = out.reshape(-1, 4).astype("<u8").tobytes()
    return [raw[32 * i:32 * i + 32].replace(b"\0", b"").decode() for i in range(x.size)]


def assert_repr(values):
    values = [float(v) for v in values]
    got = texts(values)
    bad = [(repr(v), g) for v, g in zip(values, got) if g != "," + repr(v)]
    assert not bad, bad[:10]


def from_bits(pattern):
    return struct.unpack("<d", struct.pack("<Q", pattern))[0]


def neighbours(x, count=3):
    """x and the `count` floats on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(count):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


# Any 64 bits, and bits built from a sign, an exponent field at the edges of
# the range (0: zero and subnormals, 2047: inf and nan) and a significand.
BIT_PATTERNS = st.one_of(
    st.integers(0, 2 ** 64 - 1),
    st.builds(lambda sign, e, t: sign << 63 | e << 52 | t, st.integers(0, 1),
              st.sampled_from([0, 1, 2, 1021, 1022, 1023, 1075, 2045, 2046, 2047]),
              st.integers(0, 2 ** 52 - 1) | st.sampled_from([0, 1, 2, 2 ** 52 - 1])))


class TestRepr:
    @settings(max_examples=2000, deadline=None)
    @given(st.lists(BIT_PATTERNS, min_size=1, max_size=64))
    def test_random_bit_patterns(self, patterns):
        values = [from_bits(p) for p in patterns]
        got = texts(values)
        assert got == ["," + repr(v) for v in values]

    def test_special_values(self):
        # repr drops a nan's sign.
        values = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                  from_bits(0x7FF0000000000001), from_bits(0xFFF8000000000123)]
        assert texts(values) == ["," + repr(v) for v in values]

    def test_powers_of_two_and_ten(self):
        assert_repr([2.0 ** e for e in range(-1074, 1024)])
        assert_repr([float(f"1e{e}") for e in range(-323, 309)])

    def test_one_digit_subnormals(self):
        # Java's Schubfach prints these with two digits; repr with one.
        assert texts([5e-324, 1e-323, 1.5e-323]) == [",5e-324", ",1e-323", ",1.5e-323"]
        assert_repr([from_bits(c) for c in range(1, 5000)])

    def test_normal_range_edges(self):
        tiny = 2.2250738585072014e-308
        assert_repr(neighbours(tiny) + neighbours(1.7976931348623157e308)[:4])
        assert_repr([math.nextafter(tiny, 0.0), 1.7976931348623157e308])

    def test_notation_switches(self):
        # fixed notation for a decimal point position in (-4, 16]
        values = []
        for x in (1e-5, 1e-4, 1e15, 1e16, 9.999999999999999e15, 0.0001, 0.00011):
            values += neighbours(x) + [-v for v in neighbours(x)]
        assert_repr(values)

    def test_seventeen_digits_and_integers(self):
        rng = np.random.default_rng(14)
        assert_repr(rng.uniform(-1, 1, 5000))
        assert_repr(1.0 + rng.integers(0, 2 ** 52, 5000) * 2.0 ** -52)
        assert_repr(rng.integers(-2 ** 53, 2 ** 53, 5000).astype(float))
        assert_repr([float(2 ** 53 - i) for i in range(64)] + [float(i) for i in range(-300, 300)])

    def test_trailing_zero_runs(self):
        # 1e22 and 1e-300 leave 16 trailing zeros among the 17 digits.
        assert texts([1e22, 1e-300, 1e23, 1e21]) == [",1e+22", ",1e-300", ",1e+23", ",1e+21"]
        assert_repr([float(f"{m}e{e}") for m in (1, 2, 25, 125, 999) for e in range(-30, 30)])

    def test_any_shape_and_a_strided_destination(self):
        values = np.array([[0.5, -2.0, 1e300], [3e-5, 123456.789, -0.0]])
        rows = np.zeros((2, 13), dtype=np.uint64)
        csvcells.cells(values, rows[:, 1:].reshape(2, 3, 4))
        assert rows[:, 0].tolist() == [0, 0]
        text = rows.astype("<u8").tobytes().replace(b"\0", b"").decode()
        assert text == ",0.5,-2.0,1e+300,3e-05,123456.789,-0.0"

    def test_every_value_of_the_direct_remark22_field(self, direct_remark22):
        field = direct_remark22
        values = np.concatenate([field.y.ravel(), *(z.ravel() for z in field.z)])
        assert values.size == 1_283_202
        for lo in range(0, values.size, 2 ** 16):
            assert_repr(values[lo:lo + 2 ** 16])


class TestIntCells:
    @pytest.mark.parametrize("words", [1, 2])
    def test_matches_str(self, words):
        top = 10 ** (8 * words - 1) - 1
        values = [0, 1, 9, 10, 99, 100, 101, 12345, 10 ** 6, top // 10, top]
        cells = np.ascontiguousarray(csvcells.int_cells(np.array(values), words))
        raw = cells.astype("<u8").tobytes()
        got = [raw[8 * words * i:8 * words * (i + 1)].replace(b"\0", b"").decode()
               for i in range(len(values))]
        assert got == ["," + str(v) for v in values]


class TestWriterMemory:
    def test_solution_csv_peak(self, tmp_path, direct_remark22):
        # The writer allocates its scratch once per file, and its traced
        # peak on the direct-r22 field is at most 768 KiB.
        csvcells._tables()
        tracemalloc.start()
        try:
            cli._solution_csv(tmp_path / "solution.csv", direct_remark22)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 786_432
