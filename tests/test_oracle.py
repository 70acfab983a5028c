"""The DuckDB oracle itself: detects equal results, catches wrong ones."""
import pandas as pd
import pytest

from duckjoin import assert_equivalent


def test_accepts_equal_results():
    pdf = pd.DataFrame({"k": [1, 2, 3], "v": [1.5, 2.5, 3.5]})
    assert_equivalent(pdf.copy(), "select k, v from t", t=pdf)


def test_accepts_column_order_differences():
    pdf = pd.DataFrame({"k": [1, 2], "v": [9.0, 8.0]})
    assert_equivalent(pdf[["v", "k"]], "select k, v from t", t=pdf)


def test_catches_wrong_rows():
    pdf = pd.DataFrame({"k": [1, 2, 3]})
    got = pd.DataFrame({"k": [1, 2, 4]})
    with pytest.raises(AssertionError):
        assert_equivalent(got, "select k from t", t=pdf)


def test_catches_column_mismatch():
    pdf = pd.DataFrame({"k": [1]})
    got = pd.DataFrame({"wrong": [1]})
    with pytest.raises(AssertionError, match="column mismatch"):
        assert_equivalent(got, "select k from t", t=pdf)
