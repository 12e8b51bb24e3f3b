import tracemalloc

import numpy as np
import pytest

from gannet.data import Dataset
from gannet.exceptions import DataValidationError


class TestDataset:
    def test_basic_access(self):
        ds = Dataset({"a": [1.0, 2.0], "b": [3.0, 4.0]})
        assert ds.n == 2
        assert "a" in ds
        np.testing.assert_array_equal(ds.column("b"), [3.0, 4.0])
        with pytest.raises(DataValidationError, match="zz"):
            ds.column("zz")

    def test_length_mismatch_rejected(self):
        with pytest.raises(DataValidationError):
            Dataset({"a": [1.0], "b": [1.0, 2.0]})

    def test_require_names_missing(self):
        ds = Dataset({"a": [1.0]})
        with pytest.raises(DataValidationError, match="b, c"):
            ds.require(["a", "b", "c"])


class TestCsvRoundTrip:
    def test_exact_float_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        ds = Dataset({"x": rng.normal(0, 1, 50), "y": rng.normal(0, 1e-8, 50)})
        path = tmp_path / "d.csv"
        ds.to_csv(path)
        back = Dataset.from_csv(path)
        np.testing.assert_array_equal(back.column("x"), ds.column("x"))
        np.testing.assert_array_equal(back.column("y"), ds.column("y"))

    def test_column_selection(self, tmp_path):
        path = tmp_path / "d.csv"
        Dataset({"a": [1.0], "b": [2.0], "c": [3.0]}).to_csv(path)
        back = Dataset.from_csv(path, columns=["c", "a"])
        assert back.names() == ["c", "a"]

    def test_missing_column_error(self, tmp_path):
        path = tmp_path / "d.csv"
        Dataset({"a": [1.0]}).to_csv(path)
        with pytest.raises(DataValidationError, match="q"):
            Dataset.from_csv(path, columns=["q"])

    def test_missing_values_dropped_with_count(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n,3\n4,NA\n5,6\n")
        with pytest.warns(UserWarning, match="dropped 2 row"):
            ds = Dataset.from_csv(path)
        assert ds.n == 2
        assert ds.n_dropped == 2
        np.testing.assert_array_equal(ds.column("a"), [1.0, 5.0])

    def test_blank_rows_skipped_and_not_counted(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n\n3,4\n  ,\t\n5,6\n")
        ds = Dataset.from_csv(path)
        np.testing.assert_array_equal(ds.column("a"), [1.0, 3.0, 5.0])
        assert ds.n_dropped == 0

    def test_missing_outside_selection_ignored(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,\n2,3\n")
        ds = Dataset.from_csv(path, columns=["a"])
        assert ds.n == 2
        assert ds.n_dropped == 0

    def test_non_numeric_token_is_error(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,fish\n")
        with pytest.raises(DataValidationError, match="fish"):
            Dataset.from_csv(path)
        # a missing marker earlier in the row does not hide the bad token
        path.write_text("a,b\n1,2\nNA,abc\n")
        with pytest.raises(DataValidationError,
                           match=r":3: non-numeric value 'abc' in column 'b'"):
            Dataset.from_csv(path)

    def test_header_only_gives_empty_dataset(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n")
        ds = Dataset.from_csv(path)
        assert ds.n == 0
        assert ds.names() == ["a", "b"]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("")
        with pytest.raises(DataValidationError, match="header"):
            Dataset.from_csv(path)

    def test_ragged_row_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2,3\n")
        with pytest.raises(DataValidationError, match="expected 2 fields"):
            Dataset.from_csv(path)

    def test_repeated_header_column_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,x,y\n1,2,3\n")
        for columns in (None, ["x", "y"]):
            with pytest.raises(DataValidationError, match=r"d\.csv.*repeated column\(s\): x$"):
                Dataset.from_csv(path, columns=columns)
        # a repeated column that is not read does not matter
        assert Dataset.from_csv(path, columns=["y"]).names() == ["y"]

    @pytest.mark.parametrize("row", [0, 2000, 2999])
    def test_invalid_utf8_names_its_line(self, tmp_path, row):
        # the file is decoded in chunks of a few thousand bytes, so row 2000
        # lies in a later chunk than the header
        rows = [f"{i},{i}".encode() for i in range(3000)]
        rows[row] = b"7,\xff"
        (tmp_path / "d.csv").write_bytes(b"a,b\r\n" + b"\r\n".join(rows) + b"\r\n")
        with pytest.raises(DataValidationError,
                           match=rf"d\.csv:{row + 2}: invalid UTF-8 \(byte 0xff"):
            Dataset.from_csv(tmp_path / "d.csv")

    def test_read_allocates_about_one_float_per_value(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 20_000
        Dataset({c: rng.normal(size=n) for c in "abcd"}).to_csv(tmp_path / "d.csv")
        tracemalloc.start()
        try:
            ds = Dataset.from_csv(tmp_path / "d.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.n == n
        assert peak < 16 * 4 * n  # a float64 is 8 bytes; a list of floats per row took 64
