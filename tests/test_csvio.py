import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sma_bimorph.csvio import (CHUNK_ROWS, SPEED_SCAN_SCHEMA, SWEEP_SCHEMA, TRACE_SCHEMA,
                               format_value, write_csv)
from sma_bimorph.errors import ParameterError


def naive_csv(schema, columns):
    """Reference text: one format_value call per value, row by row."""
    rows = zip(*columns)
    return schema.header + "\n" + "".join(
        ",".join(format_value(v) for v in row) + "\n" for row in rows)


def test_empty_rows_give_header_only_file(tmp_path):
    path = write_csv(tmp_path / "empty.csv", SWEEP_SCHEMA, [[]] * 5)
    assert path.read_text() == "f_hz,dc_pct,amado_mm,amado_std_mm,amado_norm\n"


def test_identical_rows_identical_bytes(tmp_path):
    columns = [(0.0005, 0.001), (1.25, -2.5), (1.3, -2.4)]
    a = write_csv(tmp_path / "a.csv", TRACE_SCHEMA, columns).read_bytes()
    b = write_csv(tmp_path / "b.csv", TRACE_SCHEMA, columns).read_bytes()
    assert a == b


def test_shortest_round_trip_formatting(tmp_path):
    path = write_csv(tmp_path / "fmt.csv", TRACE_SCHEMA,
                     [np.array([0.1]), np.array([0.1 + 0.2]), [1.0]])
    line = path.read_text().splitlines()[1]
    assert line == "0.1,0.30000000000000004,1.0"
    values = [float(v) for v in line.split(",")]
    assert values == [0.1, 0.30000000000000004, 1.0]


def test_row_width_mismatch_names_schema(tmp_path):
    with pytest.raises(ParameterError, match="trace"):
        write_csv(tmp_path / "bad.csv", TRACE_SCHEMA, [[1.0], [2.0]])


def test_no_trailing_whitespace_and_lf_newlines(tmp_path):
    path = write_csv(tmp_path / "clean.csv", TRACE_SCHEMA, [[1.0], [2.0], [3.0]])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert all(not line.endswith(b" ") for line in raw.split(b"\n"))
    assert raw.endswith(b"\n")


@pytest.mark.parametrize("columns, match", [
    ([[1.0], [2.0]], "2 columns given for schema 'trace'"),
    ([[1.0, 2.0], [2.0], [3.0]], "columns of schema 'trace' differ in length"),
    ([[1.0], [True], [3.0]], "column 'delta_mm' of schema 'trace'"),
    ([np.zeros(1), np.zeros(1), np.array([False])], "column 'delta_filt_mm'"),
    ([np.zeros((1, 1)), np.zeros(1), np.zeros(1)], "column 't_s'"),
    ([["1.0"], [2.0], [3.0]], "column 't_s'"),
], ids=["width", "length", "bool", "bool_array", "two_dimensional", "string"])
def test_rejected_call_names_schema_and_leaves_no_file(tmp_path, columns, match):
    path = tmp_path / "out" / "bad.csv"
    with pytest.raises(ParameterError, match=match):
        write_csv(path, TRACE_SCHEMA, columns)
    assert not path.exists()


# float64 values the formatter must keep apart or spell out exactly
SPECIAL = [0.0, -0.0, float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324,
           2.2250738585072014e-308 / 3, 0.1 + 0.2, 0.1, 1.0, -1.0, 1e300]
LENGTHS = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1]

floats = st.one_of(st.sampled_from(SPECIAL), st.floats())
pools = st.lists(floats, min_size=1, max_size=12)
seeds = st.integers(0, 2**32 - 1)


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(LENGTHS), pool=pools, scale=floats, seed=seeds)
def test_float64_columns_match_naive_oracle(tmp_path_factory, n, pool, scale, seed):
    # columns picked from a small pool repeat values (the deduplicating
    # path); the scaled normal column is all distinct
    rng = np.random.default_rng(seed)
    pool = np.array(pool, dtype=np.float64)
    picked, normal = pool[rng.integers(len(pool), size=n)], rng.standard_normal(n)
    with np.errstate(over="ignore", invalid="ignore"):   # a huge scale gives inf values on purpose
        scaled = normal * scale
    columns = [picked, scaled, pool[rng.integers(len(pool), size=n)]]
    path = write_csv(tmp_path_factory.mktemp("csv") / "f.csv", TRACE_SCHEMA, columns)
    assert path.read_bytes() == naive_csv(TRACE_SCHEMA, columns).encode("utf-8")


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from(LENGTHS), seed=seeds,
       pool=st.lists(st.one_of(st.integers(-10**20, 10**20), floats), min_size=1, max_size=12))
def test_list_columns_match_naive_oracle(tmp_path_factory, n, pool, seed):
    rng = np.random.default_rng(seed)
    columns = [[pool[k] for k in rng.integers(len(pool), size=n)],
               rng.standard_normal(n)]
    path = write_csv(tmp_path_factory.mktemp("csv") / "l.csv", SPEED_SCAN_SCHEMA, columns)
    assert path.read_bytes() == naive_csv(SPEED_SCAN_SCHEMA, columns).encode("utf-8")


def test_ints_print_as_ints_and_signed_zeros_apart(tmp_path):
    path = write_csv(tmp_path / "i.csv", SPEED_SCAN_SCHEMA,
                     [[3, 0, 0], np.array([-0.0, 0.0, -0.0])])
    assert path.read_text().splitlines()[1:] == ["3,-0.0", "0,0.0", "0,-0.0"]
