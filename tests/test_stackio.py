import csv

import numpy as np
import pytest

from parseq import (
    NumericDomainError,
    ParseError,
    ShapeError,
    read_stack,
    write_residual_csv,
    write_stack,
    write_trace_csv,
)


class TestBinaryStack:
    def test_round_trip_exact(self, tmp_path):
        path = tmp_path / "a.stack"
        states = np.random.default_rng(0).standard_normal((5, 3))
        write_stack(str(path), states, chain_T=40, eta=0.5)
        got, T, eta = read_stack(str(path))
        np.testing.assert_array_equal(got, states)
        assert (T, eta) == (40, 0.5)

    def test_single_vector_promoted(self, tmp_path):
        path = tmp_path / "x0.stack"
        write_stack(str(path), np.array([1.5, -2.5]), chain_T=10, eta=0.0)
        got, _, _ = read_stack(str(path))
        assert got.shape == (1, 2)
        np.testing.assert_array_equal(got[0], [1.5, -2.5])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.stack"
        path.write_bytes(b"NOPE!" + bytes(30))
        with pytest.raises(ParseError, match="magic"):
            read_stack(str(path))

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "short.stack"
        path.write_bytes(b"PSD")
        with pytest.raises(ParseError, match="short"):
            read_stack(str(path))

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "cut.stack"
        write_stack(str(path), np.ones((4, 2)), chain_T=8, eta=0.0)
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(ParseError, match="bytes"):
            read_stack(str(path))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_refuses_a_payload_read_stack_would_refuse(self, bad, tmp_path):
        path = tmp_path / "x.stack"
        rows = np.ones((2, 3))
        rows[1, 2] = bad
        with pytest.raises(NumericDomainError, match="NaN or infinite"):
            write_stack(str(path), rows, 4, 0.0)
        assert not path.exists()

    def test_rejects_3d_payload(self, tmp_path):
        with pytest.raises(ShapeError):
            write_stack(str(tmp_path / "x.stack"), np.ones((2, 2, 2)), 4, 0.0)


class TestCsvOutputs:
    def test_residual_csv_zero_indexed(self, tmp_path):
        path = tmp_path / "res.csv"
        write_residual_csv(str(path), [0.5, 0.125, 1e-9])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "residual_l2"]
        assert rows[1] == ["0", "0.5"]
        assert [float(r[1]) for r in rows[1:]] == [0.5, 0.125, 1e-9]

    def test_trace_csv_envelope_and_ragged_runs(self, tmp_path):
        path = tmp_path / "trace.csv"
        write_trace_csv(str(path), [[1.0, 0.5, 0.25], [2.0, 0.1]])
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "run0", "run1", "res_min", "res_max"]
        assert rows[1] == ["0", "1.0", "2.0", "1.0", "2.0"]
        assert rows[2] == ["1", "0.5", "0.1", "0.1", "0.5"]
        # run1 converged after two iterations: empty cell, envelope over run0
        assert rows[3] == ["2", "0.25", "", "0.25", "0.25"]

    def test_trace_csv_requires_runs(self, tmp_path):
        with pytest.raises(ShapeError):
            write_trace_csv(str(tmp_path / "x.csv"), [])
