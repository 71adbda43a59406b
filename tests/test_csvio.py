import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sma_bimorph.csvio import CHUNK_ROWS, SPEED_SCAN_SCHEMA, SWEEP_SCHEMA, TRACE_SCHEMA, write_csv
from sma_bimorph.errors import ParameterError


def naive_csv(schema, columns):
    """Reference text: one repr(float(v)) per value, row by row."""
    rows = zip(*columns)
    return schema.header + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows)


def test_empty_rows_give_header_only_file(tmp_path):
    path = write_csv(tmp_path / "empty.csv", SWEEP_SCHEMA, [np.zeros(0)] * 5)
    assert path.read_text() == "f_hz,dc_pct,amado_mm,amado_std_mm,amado_norm\n"


def test_identical_rows_identical_bytes(tmp_path):
    columns = [np.array([0.0005, 0.001]), np.array([1.25, -2.5]), np.array([1.3, -2.4])]
    a = write_csv(tmp_path / "a.csv", TRACE_SCHEMA, columns).read_bytes()
    b = write_csv(tmp_path / "b.csv", TRACE_SCHEMA, columns).read_bytes()
    assert a == b


def test_shortest_round_trip_formatting(tmp_path):
    path = write_csv(tmp_path / "fmt.csv", TRACE_SCHEMA,
                     [np.array([0.1]), np.array([0.1 + 0.2]), np.array([1.0])])
    line = path.read_text().splitlines()[1]
    assert line == "0.1,0.30000000000000004,1.0"
    values = [float(v) for v in line.split(",")]
    assert values == [0.1, 0.30000000000000004, 1.0]


def test_row_width_mismatch_names_schema(tmp_path):
    with pytest.raises(ParameterError, match="trace"):
        write_csv(tmp_path / "bad.csv", TRACE_SCHEMA, [np.ones(1), np.ones(1)])


def test_no_trailing_whitespace_and_lf_newlines(tmp_path):
    path = write_csv(tmp_path / "clean.csv", TRACE_SCHEMA,
                     [np.array([1.0]), np.array([2.0]), np.array([3.0])])
    raw = path.read_bytes()
    assert b"\r" not in raw
    assert all(not line.endswith(b" ") for line in raw.split(b"\n"))
    assert raw.endswith(b"\n")


@pytest.mark.parametrize("columns, match", [
    ([np.zeros(1), np.zeros(1)], "2 columns given for schema 'trace'"),
    ([np.zeros(2), np.zeros(1), np.zeros(1)], "columns of schema 'trace' differ in length"),
    ([np.zeros(1), [True], np.zeros(1)], "column 'delta_mm' of schema 'trace'"),
    ([np.zeros(1), np.zeros(1), np.array([False])], "column 'delta_filt_mm'"),
    ([np.zeros((1, 1)), np.zeros(1), np.zeros(1)], "column 't_s'"),
    ([["1.0"], np.zeros(1), np.zeros(1)], "column 't_s'"),
    ([[1.0], np.zeros(1), np.zeros(1)], "column 't_s' of schema 'trace' must be a 1-D float64 "
                                        "array, got a list"),
    ([np.zeros(1), np.array([1], np.int64), np.zeros(1)], "column 'delta_mm' of schema 'trace' must be a "
                                                "1-D float64 array, got a 1-D int64 array"),
], ids=["width", "length", "bool", "bool_array", "two_dimensional", "string", "list",
        "int_array"])
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


def test_ints_are_rejected_and_signed_zeros_kept_apart(tmp_path):
    with pytest.raises(ParameterError, match="column 'f_hz'"):
        write_csv(tmp_path / "i.csv", SPEED_SCAN_SCHEMA, [[3, 0, 0], np.zeros(3)])
    path = write_csv(tmp_path / "z.csv", SPEED_SCAN_SCHEMA,
                     [np.array([3.0, 0.0, -0.0]), np.array([-0.0, 0.0, -0.0])])
    assert path.read_text().splitlines()[1:] == ["3.0,-0.0", "0.0,0.0", "-0.0,-0.0"]


def test_runs_of_zeros_and_nan_payloads_keep_their_text_across_chunks(tmp_path):
    # runs of one bit pattern cross chunk boundaries, and 0.0 comes back after
    # other runs; each value keeps its own text whatever run it is in
    nan_a, nan_b = np.array([0x7FF8000000000001, 0xFFF8000000000002], np.uint64).view(np.float64)
    runs = [(0.0, CHUNK_ROWS - 3), (-0.0, 7), (nan_a, CHUNK_ROWS), (nan_b, 5), (0.0, 4),
            (-0.0, CHUNK_ROWS + 2)]
    column = np.concatenate([np.full(n, value) for value, n in runs])
    assert len(set(column.view(np.uint64)[np.cumsum([n for _, n in runs]) - 1])) == 4
    columns = [column, column[::-1].copy()]
    path = write_csv(tmp_path / "runs.csv", SPEED_SCAN_SCHEMA, columns)
    texts = [text for value, n in runs for text in [repr(float(value))] * n]
    assert path.read_text().splitlines()[1:] == list(map(",".join, zip(texts, texts[::-1])))
    assert path.read_bytes() == naive_csv(SPEED_SCAN_SCHEMA, columns).encode("utf-8")
