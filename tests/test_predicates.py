"""Selection predicates (§8.3): push-down vs enforce-during-sampling."""
import numpy as np
import pandas as pd
import pytest

from repro.core.join_sampler import JoinContext, sample_join
from repro.core.join_spec import Relation, chain
from statutil import assert_uniform


@pytest.fixture(scope="module")
def data(spark):
    g = np.random.default_rng(21)
    a = pd.DataFrame({"x": g.integers(1, 10, 60), "size": g.integers(1, 50, 60)})
    b = pd.DataFrame({"bx": np.arange(1, 10), "pb": np.arange(9)})
    return a, b


def test_pushdown_equals_sampling_time_filter(spark, data):
    a, b = data
    pred = lambda pdf: pdf["size"] <= 25  # noqa: E731

    # alternative 1: push-down — filter the base relation up front
    a_f = a[a["size"] <= 25]
    j_push = chain(
        "push",
        [Relation("a", spark.createDataFrame(a_f)), Relation("b", spark.createDataFrame(b))],
        [("x", "bx")],
    )
    # alternative 2: enforce during sampling on the unfiltered join
    j_raw = chain(
        "raw",
        [Relation("a", spark.createDataFrame(a)), Relation("b", spark.createDataFrame(b))],
        [("x", "bx")],
    )
    truth = a_f.merge(b, left_on="x", right_on="bx").drop_duplicates()
    cols = ["x", "size", "bx", "pb"]

    s_push = sample_join({JoinContext(j_push): 2000}, method="ew", seed=1)
    s_filt = sample_join(
        {JoinContext(j_raw): 2000}, method="ew", seed=2, predicate=pred
    )
    assert_uniform(s_push[cols], truth, cols)
    assert_uniform(s_filt[cols], truth, cols)
    assert (s_filt["size"] <= 25).all()


def test_predicate_with_eo(spark, data):
    a, b = data
    j_raw = chain(
        "raw2",
        [Relation("a", spark.createDataFrame(a)), Relation("b", spark.createDataFrame(b))],
        [("x", "bx")],
    )
    s = sample_join(
        {JoinContext(j_raw): 100},
        method="eo",
        seed=3,
        predicate=lambda pdf: pdf["size"] > 40,
    )
    assert len(s) == 100
    assert (s["size"] > 40).all()
