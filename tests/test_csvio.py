import numpy as np
import pytest

from sliderfilm.csvio import write_csv
from sliderfilm.steady import GCurve


def test_floats_and_ints_round_trip_exactly(tmp_path):
    floats = np.array([-0.0, 5e-324, 1e300, 0.1, -2.5e-17, 1.0 / 3.0])
    ints = np.array([0, -1, 2**62, -(2**63), 2**63 - 1, 7], dtype=np.int64)
    path = tmp_path / "cols.csv"
    write_csv(path, {"x": floats, "k": ints})
    lines = path.read_text().split("\n")
    assert lines[0] == "x,k" and lines[-1] == ""
    rows = [line.split(",") for line in lines[1:-1]]
    back = np.array([float(r[0]) for r in rows])
    assert np.array_equal(back, floats)
    assert np.array_equal(np.signbit(back), np.signbit(floats))
    assert [int(r[1]) for r in rows] == ints.tolist()
    assert rows[0] == ["-0.0", "0"] and rows[1][0] == "5e-324" and rows[2][0] == "1e+300"


def test_many_rows_span_chunks(tmp_path):
    n = 10_000
    x = np.arange(n) / 7.0
    path = tmp_path / "long.csv"
    write_csv(path, {"x": x, "i": np.arange(n)})
    lines = path.read_text().splitlines()
    assert len(lines) == n + 1
    assert lines[1:] == [f"{v!r},{i}" for i, v in enumerate(x.tolist())]


def test_empty_columns_write_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(path, {"a": np.array([]), "b": np.array([], dtype=int)})
    assert path.read_text() == "a,b\n"


def test_ragged_columns_rejected(tmp_path):
    with pytest.raises(ValueError):
        write_csv(tmp_path / "bad.csv", {"a": np.zeros(3), "b": np.zeros(2)})


def test_gcurve_resolved_column_is_lowercase(tmp_path):
    curve = GCurve(
        beta=np.array([1e-4, 0.5]),
        g=np.array([3.0, -0.25]),
        load=np.array([4.0, 0.75]),
        active_fraction=np.array([0.5, -0.0]),
        psor_iters=np.array([12, 0]),
        resolved=np.array([False, True]),
    )
    path = tmp_path / "gcurve.csv"
    curve.to_csv(path)
    assert path.read_text() == (
        "beta,g,load,active_fraction,psor_iters,resolved\n"
        "0.0001,3.0,4.0,0.5,12,false\n"
        "0.5,-0.25,0.75,-0.0,0,true\n"
    )
