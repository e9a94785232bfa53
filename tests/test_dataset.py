import csv
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from mcode import (ConfigError, DataError, Dataset, DomainError,
                   PerturbationLog, inject_outliers, load_csv, load_log,
                   round_half_up, save_csv, save_log, standardize)
from mcode.dataset import _CSV_CHUNK_ROWS, make_rng

import oracles
from strategies import json_like

BOM = "\ufeff".encode()  # UTF-8's byte-order mark


def small_dataset(n=20, m=3, d=2, seed=1):
    gen = np.random.default_rng(seed)
    return Dataset(gen.normal(size=(n, m)), gen.integers(0, 2, size=(n, d)))


class TestDatasetValidation:
    def test_shapes_and_counts(self):
        ds = small_dataset()
        assert (ds.n, ds.m, ds.d) == (20, 3, 2)
        assert ds.input_names == ("x1", "x2", "x3")
        assert ds.output_names == ("y1", "y2")

    def test_rejects_nonfinite_inputs(self):
        X = np.array([[1.0, np.nan]])
        with pytest.raises(DomainError):
            Dataset(X, np.array([[1]]))

    def test_rejects_nonbinary_outputs(self):
        with pytest.raises(DomainError):
            Dataset(np.ones((2, 2)), np.array([[0], [2]]))

    @pytest.mark.parametrize("cells, accepted", [
        pytest.param([0, 1], True, id="int"),
        pytest.param(np.array([0, 1], dtype=np.int8), True, id="int8"),
        pytest.param([0.0, 1.0], True, id="float"),
        pytest.param([-0.0, 1.0], True, id="negative-zero"),
        pytest.param([False, True], True, id="bool"),
        pytest.param(np.array([0, 1], dtype=object), True, id="object"),
        pytest.param(["0", "1"], False, id="str"),
        pytest.param(np.array(["0", 1], dtype=object), False,
                     id="object-str"),
        pytest.param([np.nan, 1.0], False, id="nan"),
        pytest.param([0, 2], False, id="two"),
        pytest.param([0.5, 1.0], False, id="half"),
    ])
    def test_outputs_are_zeros_and_ones_by_value(self, cells, accepted):
        Y = np.asarray(cells).reshape(2, 1)
        if accepted:
            assert Dataset(np.ones((2, 1)), Y).Y.tolist() == [[0], [1]]
        else:
            with pytest.raises(DomainError, match="0 or 1"):
                Dataset(np.ones((2, 1)), Y)

    def test_rejects_row_mismatch(self):
        with pytest.raises(DomainError):
            Dataset(np.ones((3, 2)), np.ones((2, 1)))

    def test_rejects_bad_name_count(self):
        with pytest.raises(DomainError):
            Dataset(np.ones((2, 2)), np.zeros((2, 1)), input_names=("a",))
        with pytest.raises(DomainError, match="1 output names for 2 output"):
            Dataset(np.ones((2, 2)), np.zeros((2, 2)), output_names=("a",))

    @pytest.mark.parametrize("X, Y", [
        pytest.param(np.ones(2), np.zeros((2, 1)), id="X-1d"),
        pytest.param(np.ones((2, 1)), np.zeros(2), id="Y-1d"),
        pytest.param(np.ones((2, 1, 1)), np.zeros((2, 1)), id="X-3d"),
    ])
    def test_rejects_arrays_not_2d(self, X, Y):
        with pytest.raises(DomainError, match="both be 2-dimensional"):
            Dataset(X, Y)

    @pytest.mark.parametrize("X, Y", [
        pytest.param(np.ones((0, 2)), np.zeros((0, 1)), id="no-rows"),
        pytest.param(np.ones((2, 0)), np.zeros((2, 1)), id="no-inputs"),
        pytest.param(np.ones((2, 2)), np.zeros((2, 0)), id="no-outputs"),
    ])
    def test_rejects_empty_arrays(self, X, Y):
        with pytest.raises(DomainError, match="at least one row"):
            Dataset(X, Y)


class TestCsv:
    def test_round_trip_is_exact(self, tmp_path, rng):
        ds = Dataset(rng.normal(size=(15, 4)) * 1e3,
                     rng.integers(0, 2, size=(15, 3)))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        back = load_csv(path, n_outputs=3)
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.Y, ds.Y)
        assert back.input_names == ds.input_names

    def test_bytes_are_pinned(self, tmp_path):
        # '#' lines end in LF, the header and the rows in CRLF; names are
        # quoted as needed, values never: shortest round-trip repr, bare 0/1
        ds = Dataset(np.array([[-0.0, 5e-324], [1.7976931348623157e308,
                                                1e-05]]),
                     np.array([[0, 1], [1, 0]]), ("a,b", 'say "x"'),
                     ("y", "z"))
        path = tmp_path / "data.csv"
        save_csv(ds, path, comments=("mcode 0.1.0", "seed=3"))
        assert path.read_bytes() == (
            b"# mcode 0.1.0\n# seed=3\n"
            b'"a,b","say ""x""",y,z\r\n'
            b"-0.0,5e-324,0,1\r\n"
            b"1.7976931348623157e+308,1e-05,1,0\r\n")

    def test_bytes_across_chunks(self, tmp_path, rng):
        # rows are written a chunk at a time: none lost, doubled or moved
        n = 2 * _CSV_CHUNK_ROWS + 1
        ds = Dataset(rng.normal(size=(n, 2)), rng.integers(0, 2, size=(n, 1)))
        path = tmp_path / "data.csv"
        save_csv(ds, path)
        assert path.read_bytes() == oracles.oracle_csv_bytes(ds)

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "plain.csv"
        path.write_text("1.5,0.25,1\n-2.0,0.5,0\n")
        ds = load_csv(path, n_outputs=1)
        assert ds.m == 2 and ds.d == 1
        assert ds.X[1, 0] == -2.0
        assert ds.input_names == ("x1", "x2")

    def test_comment_lines_skipped(self, tmp_path):
        path = tmp_path / "commented.csv"
        path.write_text("# tool 0.1.0\na,b,y\n1,2,0\n# mid comment\n3,4,1\n")
        ds = load_csv(path, n_outputs=1)
        assert ds.n == 2
        assert ds.output_names == ("y",)

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "blanks.csv"
        path.write_text("1,2,0\n\n3,4,1\n\n")
        assert load_csv(path, n_outputs=1).n == 2

    def test_inconsistent_width_names_line(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,0\n1,2\n")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path, n_outputs=1)

    def test_non_numeric_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,y\n1,2,0\n3,oops,1\n")
        with pytest.raises(DataError, match="line 3"):
            load_csv(path, n_outputs=1)

    def test_output_value_outside_01(self, tmp_path):
        path = tmp_path / "bady.csv"
        path.write_text("1,2,0\n3,4,2\n")
        with pytest.raises(DomainError, match="line 2"):
            load_csv(path, n_outputs=1)

    def test_nonfinite_input_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("1,nan,0\n")
        with pytest.raises(DataError, match="line 1"):
            load_csv(path, n_outputs=1)

    def test_too_many_outputs_is_config_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,2,0\n")
        with pytest.raises(ConfigError):
            load_csv(path, n_outputs=3)
        with pytest.raises(ConfigError):
            load_csv(path, n_outputs=0)
        with pytest.raises(ConfigError):
            load_csv(path, n_outputs=True)
        assert load_csv(path, n_outputs=np.int64(1)).d == 1

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(DataError):
            load_csv(path, n_outputs=1)

    def test_byte_order_mark_is_not_data(self, tmp_path):
        # a headerless file keeps its first row and the default names; a
        # header's first name comes back without the mark
        path = tmp_path / "data.csv"
        path.write_bytes(BOM + b"0.5,1.0,1\n2.0,3.0,0\n4.0,5.0,1\n")
        ds = load_csv(path, n_outputs=1)
        assert ds.X.tolist() == [[0.5, 1.0], [2.0, 3.0], [4.0, 5.0]]
        assert (ds.input_names, ds.output_names) == (("x1", "x2"), ("y1",))
        path.write_bytes(BOM + "x1,temp\u00e9,y\n0.5,1.0,1\n".encode())
        ds = load_csv(path, n_outputs=1)
        assert (ds.input_names, ds.output_names) == (("x1", "temp\u00e9"),
                                                     ("y",))


class TestStandardize:
    def test_known_column(self):
        ds = Dataset(np.array([[1.0], [2.0], [3.0]]),
                     np.array([[0], [1], [0]]))
        std, stats = standardize(ds)
        # population std of (1,2,3) is sqrt(2/3), not the sample std 1
        expected = np.array([-1.224744871391589, 0.0, 1.224744871391589])
        np.testing.assert_allclose(std.X[:, 0], expected, atol=1e-12)
        assert stats.means[0] == 2.0

    @pytest.mark.parametrize("X", [np.ones((4, 3)), np.ones((4, 1)),
                                   np.ones(2)], ids=["wide", "narrow", "1d"])
    def test_apply_rejects_wrong_column_count(self, X):
        _, stats = standardize(small_dataset(m=2))
        with pytest.raises(DomainError, match="expected 2 input columns"):
            stats.apply(X)

    def test_constant_column_becomes_zero(self):
        X = np.column_stack([np.full(5, 7.25), np.arange(5.0)])
        ds = Dataset(X, np.zeros((5, 1), dtype=int))
        std, stats = standardize(ds)
        assert np.array_equal(std.X[:, 0], np.zeros(5))
        assert stats.std_devs[0] == 1.0

    @pytest.mark.parametrize("rows, value", [
        (1, 1.7976931348623157e308),  # the std overflows, the mean does not
        (30, 1e308),                  # the mean overflows
    ])
    def test_overflowing_column_is_named(self, rows, value):
        # a DomainError, not a column silently zeroed by an infinite std or
        # a NaN matrix; and no NumPy warning, which these tests turn into
        # errors
        X = small_dataset(n=60).X.copy()
        X[:rows, 1] = value
        with pytest.raises(DomainError, match=(
                "^input column 'x2' spreads too far: its mean or standard "
                "deviation overflows float64$")):
            standardize(Dataset(X, np.zeros((60, 1), dtype=int)))

    def test_constant_column_too_large_to_average(self):
        # its mean would overflow, but it is constant: zeros, no warning
        std, stats = standardize(Dataset(np.full((5, 1), 1e308),
                                         np.zeros((5, 1), dtype=int)))
        assert np.array_equal(std.X, np.zeros((5, 1)))
        assert (stats.means[0], stats.std_devs[0]) == (1e308, 1.0)

    def test_outputs_untouched(self, rng):
        ds = Dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, (30, 2)))
        std, _ = standardize(ds)
        assert np.array_equal(std.Y, ds.Y)

    def test_idempotent(self, rng):
        ds = Dataset(rng.normal(size=(50, 4)) * 100 + 3,
                     rng.integers(0, 2, (50, 1)))
        once, _ = standardize(ds)
        twice, _ = standardize(once)
        np.testing.assert_allclose(twice.X, once.X, atol=1e-9)

    @pytest.mark.parametrize("seed", range(5))
    def test_moments_property(self, seed):
        gen = np.random.default_rng(seed)
        X = gen.normal(size=(64, 5)) * gen.uniform(0.1, 50, size=5)
        X[:, 2] = -13.5  # constant column
        ds = Dataset(X, gen.integers(0, 2, (64, 2)))
        std, stats = standardize(ds)
        assert np.isfinite(stats.means).all()
        assert (stats.std_devs > 0).all()
        keep = np.ones(5, dtype=bool)
        keep[2] = False
        np.testing.assert_allclose(std.X[:, keep].mean(axis=0), 0, atol=1e-12)
        np.testing.assert_allclose(std.X[:, keep].std(axis=0), 1, atol=1e-12)
        assert np.array_equal(std.X[:, 2], np.zeros(64))


class TestRounding:
    def test_half_up_rule(self):
        assert round_half_up(0.5) == 1
        assert round_half_up(1.4) == 1
        assert round_half_up(1.5) == 2
        assert round_half_up(2.5) == 3
        assert round_half_up(24.17) == 24


class TestInjectOutliers:
    def test_counts_at_reference_scale(self):
        # N and d sized like the benchmark corpus: 1% of 2417 rows -> 24,
        # 10% of 14 output dims -> 1 flip per row
        gen = np.random.default_rng(0)
        ds = Dataset(gen.normal(size=(2417, 2)),
                     gen.integers(0, 2, (2417, 14)))
        perturbed, log = inject_outliers(ds, 0.01, 0.10, seed=5)
        assert len(log.outlier_rows) == 24
        assert len(log.flipped_cells) == 24
        changed = np.flatnonzero((perturbed.Y != ds.Y).any(axis=1))
        assert set(changed.tolist()) == set(log.outlier_rows)

    def test_minimum_one_row_one_dim(self):
        ds = small_dataset(n=10, d=3)
        _, log = inject_outliers(ds, 0.001, 0.001, seed=0)
        assert len(log.outlier_rows) == 1
        assert len(log.flipped_cells) == 1

    def test_flip_rule_and_involution(self, rng):
        ds = small_dataset(n=40, d=5, seed=3)
        perturbed, log = inject_outliers(ds, 0.2, 0.4, seed=9)
        assert len(log.flipped_cells) == len(log.outlier_rows) * 2
        restored = perturbed.Y.copy()
        for r, c in log.flipped_cells:
            assert perturbed.Y[r, c] == abs(ds.Y[r, c] - 1)
            restored[r, c] = abs(restored[r, c] - 1)
        assert np.array_equal(restored, ds.Y)

    def test_cells_distinct_and_in_range(self):
        ds = small_dataset(n=50, d=4, seed=7)
        _, log = inject_outliers(ds, 0.3, 0.5, seed=21)
        assert len(set(log.flipped_cells)) == len(log.flipped_cells)
        rows = sorted(log.outlier_rows)
        assert rows[0] >= 0 and rows[-1] < 50
        for r, c in log.flipped_cells:
            assert r in log.outlier_rows
            assert 0 <= c < 4

    def test_inputs_shared_not_copied(self):
        ds = small_dataset()
        perturbed, _ = inject_outliers(ds, 0.1, 0.5, seed=1)
        assert perturbed.X is ds.X
        assert perturbed.Y is not ds.Y

    def test_reproducible_and_seed_sensitive(self):
        ds = small_dataset(n=100, d=6, seed=11)
        p1, l1 = inject_outliers(ds, 0.1, 0.5, seed=77)
        p2, l2 = inject_outliers(ds, 0.1, 0.5, seed=77)
        p3, l3 = inject_outliers(ds, 0.1, 0.5, seed=78)
        assert np.array_equal(p1.Y, p2.Y) and l1 == l2
        assert l1.flipped_cells != l3.flipped_cells

    def test_full_rates_flip_everything(self):
        ds = small_dataset(n=8, d=3, seed=2)
        perturbed, log = inject_outliers(ds, 1.0, 1.0, seed=4)
        assert np.array_equal(perturbed.Y, 1 - ds.Y)
        assert len(log.outlier_rows) == 8
        assert len(log.flipped_cells) == 24

    @pytest.mark.parametrize("ratio,dim_fraction", [
        (0.0, 0.5), (1.2, 0.5), (0.5, 0.0), (0.5, -0.1), (0.5, 1.01),
        (True, 0.5), (0.5, True)])
    def test_rate_bounds(self, ratio, dim_fraction):
        with pytest.raises(DomainError):
            inject_outliers(small_dataset(), ratio, dim_fraction, seed=0)

    def test_bad_seed(self):
        with pytest.raises(DomainError):
            inject_outliers(small_dataset(), 0.1, 0.5, seed=-1)
        with pytest.raises(DomainError):
            make_rng(1.5)


class TestPerturbationLog:
    def test_json_round_trip(self, tmp_path):
        ds = small_dataset(n=30, d=4, seed=13)
        _, log = inject_outliers(ds, 0.2, 0.5, seed=99)
        path = tmp_path / "log.json"
        save_log(log, path, meta={"tool": "mcode"})
        assert load_log(path) == log
        doc = json.loads(path.read_text())
        assert path.read_text() == json.dumps(doc, indent=2,
                                              sort_keys=True) + "\n"
        assert set(doc) == {"seed", "ratio", "dim_fraction", "outlier_rows",
                            "flipped_cells", "rng", "_meta"}
        assert doc["rng"] == "pcg64"
        assert doc["outlier_rows"] == sorted(doc["outlier_rows"])

    def test_byte_order_mark_is_not_data(self, tmp_path):
        _, log = inject_outliers(small_dataset(n=30, d=4, seed=13), 0.2, 0.5,
                                 seed=99)
        path = tmp_path / "log.json"
        save_log(log, path)
        path.write_bytes(BOM + path.read_bytes())
        assert load_log(path) == log

    def test_malformed_log(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\"seed\": 1}")
        with pytest.raises(DataError):
            load_log(path)
        path.write_text("not json")
        with pytest.raises(DataError):
            load_log(path)

    @pytest.mark.parametrize("key, value", [
        ("seed", -1), ("ratio", 0.0), ("ratio", 1.5), ("ratio", math.nan),
        ("dim_fraction", -0.25), ("dim_fraction", math.inf),
        ("dim_fraction", math.nan), ("ratio", True), ("ratio", "0.5")])
    def test_seed_and_rates_obey_the_injection_rules(self, key, value):
        # the rules inject_outliers and make_rng apply when writing a log
        doc = {"seed": 0, "ratio": 0.5, "dim_fraction": 1.0,
               "outlier_rows": [0], "flipped_cells": [[0, 0]]}
        PerturbationLog.from_dict(doc)
        with pytest.raises(DataError, match=key):
            PerturbationLog.from_dict({**doc, key: value})

    def test_load_errors_name_the_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"seed": -1, "ratio": 0.5,
                                    "dim_fraction": 1.0, "outlier_rows": [],
                                    "flipped_cells": []}))
        with pytest.raises(DataError, match=f"^{path}: malformed"):
            load_log(path)
        # a file missing, undecodable, nested too deep, or a directory
        path.unlink()
        for content in (None, b"\xff\xfe{}", b"[" * 10**5 + b"]" * 10**5):
            if content is not None:
                path.write_bytes(content)
            with pytest.raises(DataError, match=f"^{path}: "):
                load_log(path)
        with pytest.raises(DataError, match=f"^{tmp_path}: "):
            load_log(tmp_path)


@settings(max_examples=200, deadline=None, database=None)
@given(data=st.data())
def test_any_single_log_edit_loads_or_is_a_data_error(data):
    _, log = inject_outliers(small_dataset(n=30, d=4, seed=5), 0.2, 0.5, 3)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "log.json"
        save_log(log, path, meta={"tool": "mcode"})
        doc = json.loads(path.read_text())
        key = data.draw(st.sampled_from(sorted(doc)))
        value = data.draw(json_like(doc[key]))
        path.write_text(json.dumps({**doc, key: value}))
        try:
            assert isinstance(load_log(path), PerturbationLog)
        except DataError as exc:
            assert str(path) in str(exc)


@st.composite
def datasets(draw, names=None):
    """Datasets of any finite float64 inputs, including -0.0 and
    subnormals; names=None keeps the default column names."""
    n, m, d = (draw(st.integers(1, hi)) for hi in (6, 3, 3))
    X = draw(hnp.arrays(np.float64, (n, m), elements=st.floats(
        allow_nan=False, allow_infinity=False)))
    Y = draw(hnp.arrays(np.int8, (n, d), elements=st.integers(0, 1)))
    if names is None:
        return Dataset(X, Y)
    return Dataset(X, Y, tuple(draw(names) for _ in range(m)),
                   tuple(draw(names) for _ in range(d)))


def csv_round_trip(ds):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(ds, path, comments=("a comment",))
        return load_csv(path, n_outputs=ds.d)


# Names the format reads back unchanged; README "File formats" lists the
# names it reads differently. Each name here starts with a letter that no
# spelling of a number (nan, inf, infinity) starts with, ends with no
# whitespace, and may hold the CSV delimiter, the quote and '#'.
_NAME = st.builds(lambda first, rest: first + rest.rstrip(),
                  st.sampled_from("ABHJMOZabhjmoz_"),
                  st.text(alphabet='az09_ ,"#-', max_size=6))


@settings(max_examples=60, deadline=None, database=None)
@given(ds=datasets())
def test_csv_round_trip_keeps_bits_and_default_names(ds):
    back = csv_round_trip(ds)
    assert np.array_equal(back.X.view(np.uint64), ds.X.view(np.uint64))
    assert np.array_equal(back.Y, ds.Y)
    assert (back.input_names, back.output_names) == \
        (ds.input_names, ds.output_names)


@settings(max_examples=30, deadline=None, database=None)
@given(ds=datasets(names=_NAME))
def test_csv_round_trip_keeps_names(ds):
    back = csv_round_trip(ds)
    assert (back.input_names, back.output_names) == \
        (ds.input_names, ds.output_names)


# Any text a UTF-8 file can hold (no lone surrogates), newlines included.
_FIELD = st.text(st.characters(exclude_categories=("Cs",)))


@settings(max_examples=60, deadline=None, database=None)
@given(ds=datasets(names=_FIELD), comments=st.lists(_FIELD, max_size=2))
def test_csv_bytes_are_the_csv_writer_loops(ds, comments):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(ds, path, comments=comments)
        assert path.read_bytes() == oracles.oracle_csv_bytes(ds, comments)


@settings(max_examples=200, deadline=None, database=None)
@given(row=st.integers(0, 3), field=st.integers(0, 3), text=_FIELD)
@example(row=2, field=1, text="1" * (csv.field_size_limit() + 1))
def test_any_single_csv_field_edit_loads_or_is_a_data_error(row, field,
                                                            text):
    ds = Dataset(np.array([[0.5, -2.0], [1e-300, 3.25], [7.0, 0.0]]),
                 np.array([[0, 1], [1, 1], [0, 0]]))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        save_csv(ds, path, comments=("mcode test",))
        lines = path.read_text().splitlines(keepends=True)
        body = 1 + row  # row 0 is the header
        fields = lines[body].rstrip("\r\n").split(",")
        fields[field] = text
        lines[body] = ",".join(fields) + "\n"
        path.write_text("".join(lines))
        try:
            back = load_csv(path, n_outputs=2)
        except (DataError, DomainError) as exc:
            # the same error, word for word, as a field-by-field reading
            assert isinstance(exc, DomainError) or str(path) in str(exc)
            with pytest.raises(type(exc)) as reference:
                oracles.oracle_load_csv(path, 2)
            assert type(reference.value) is type(exc)
            assert str(reference.value) == str(exc)
            return
        X, Y, names = oracles.oracle_load_csv(path, 2)
    assert back.d == 2 and np.isfinite(back.X).all()
    assert back.X.tobytes() == np.array(X).tobytes()
    assert back.Y.tolist() == Y
    if names is not None:
        assert back.input_names + back.output_names == tuple(names)


@settings(max_examples=60, deadline=None, database=None)
@given(ds=datasets(), ratio=st.floats(0.0, 1.0, exclude_min=True),
       dim_fraction=st.floats(0.0, 1.0, exclude_min=True),
       seed=st.integers(0, 2 ** 63))
def test_injection_twice_restores_outputs(ds, ratio, dim_fraction, seed):
    once, log = inject_outliers(ds, ratio, dim_fraction, seed)
    twice, log_again = inject_outliers(once, ratio, dim_fraction, seed)
    assert np.array_equal(twice.Y, ds.Y) and twice.Y.dtype == ds.Y.dtype
    assert log_again == log
