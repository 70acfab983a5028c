"""Single-join i.i.d. samplers (EW / EO): exact uniformity + validity."""
import duckdb
import pandas as pd
import pytest

import duckjoin
from repro.core.join_sampler import JoinContext, SampleStats, sample_join
from repro.core.join_spec import Relation, chain
from deadline import deadline
from statutil import assert_uniform


@pytest.fixture(scope="module")
def skewed():
    """Skewed 3-relation chain where EO has a real rejection rate."""
    import numpy as np

    g = np.random.default_rng(0)
    a = pd.DataFrame({"x": g.integers(1, 6, 30), "pa": range(30)})
    b = pd.DataFrame({"bx": g.integers(1, 6, 40), "y": g.integers(1, 8, 40), "pb": range(40)})
    c = pd.DataFrame({"cy": g.integers(1, 8, 25), "pc": range(25)})
    j = chain(
        "skewed",
        [
            Relation("a", a),
            Relation("b", b),
            Relation("c", c),
        ],
        [("x", "bx"), ("y", "cy")],
    )
    full = duckdb.sql(
        "select a.x, a.pa, b.bx, b.y, b.pb, c.cy, c.pc "
        "from a join b on a.x=b.bx join c on b.y=c.cy"
    ).df()
    return j, full


@pytest.fixture(scope="module")
def ctx(skewed):
    return JoinContext(skewed[0])


def test_exact_size_matches_duckdb(ctx, skewed):
    assert ctx.size_exact == len(skewed[1])


def test_olken_bound_sound(ctx):
    assert ctx.size_olken >= ctx.size_exact


@pytest.mark.parametrize("method", ["ew", "eo"])
def test_sampler_returns_exact_n(ctx, method):
    s = sample_join({ctx: 37}, method=method, seed=1)
    assert len(s) == 37


@pytest.mark.parametrize("method", ["ew", "eo"])
def test_sampler_uniform(ctx, skewed, method):
    join, full = skewed
    s = sample_join({ctx: 4000}, method=method, seed=2)
    assert_uniform(s[join.value_cols], full, join.value_cols)


@pytest.mark.parametrize("method", ["ew", "eo"])
def test_samples_are_valid_join_tuples(ctx, skewed, method):
    join, full = skewed
    s = sample_join({ctx: 200}, method=method, seed=3)
    merged = s[join.value_cols].merge(full.drop_duplicates(), how="left", indicator=True)
    assert (merged["_merge"] == "both").all()


def test_eo_tracks_rejections(ctx):
    stats = SampleStats()
    sample_join({ctx: 100}, method="eo", seed=4, stats=stats)
    assert stats.n_walks >= 100
    assert stats.n_accepted == 100
    # skewed data ⇒ the Olken bound is loose ⇒ some weight rejections
    assert stats.n_rejected_weight > 0


def test_ew_zero_rejection_rate(ctx):
    # EW over-draws only the constant slack, never because of weights.
    stats = SampleStats()
    sample_join({ctx: 100}, method="ew", seed=5, stats=stats)
    assert stats.n_rejected_weight == 0


def test_unknown_method(ctx):
    with pytest.raises(ValueError):
        sample_join({ctx: 1}, method="nope")


def test_pandas_dp_matches_duckdb(ctx, skewed):
    """The plan's EW weight of each root row is the number of join rows
    that extend it, as DuckDB counts them."""
    join, _ = skewed
    with duckjoin.DuckJoins() as db:
        _, from_where = db.from_where(join)
        per_root = db.con.execute(f"SELECT t0.pa, count(*) AS w {from_where} GROUP BY t0.pa").df()
    plan = ctx.plan
    got = pd.Series(plan.root_w, index=plan.root["pa"].to_numpy())
    assert got.sum() == duckjoin.count(join)
    assert (got[per_root["pa"]].to_numpy() == per_root["w"].to_numpy()).all()


def test_olken_plan_matches_duckdb(ctx, skewed):
    """The plan's bound is |R_root| · Π M over the fully reduced relations
    (the rows DuckDB finds in some join result), and at least COUNT(*)."""
    join, full = skewed
    a = full[["x", "pa"]].drop_duplicates()
    b = full[["bx", "y", "pb"]].drop_duplicates()
    c = full[["cy", "pc"]].drop_duplicates()
    bound = len(a) * b["bx"].value_counts().max() * c["cy"].value_counts().max()
    assert ctx.size_olken == bound >= duckjoin.count(join)


def test_reduction_preserves_join(skewed, ctx):
    """The plan's reduced frames, joined by DuckDB, keep the join's rows."""
    join, full = skewed
    got = duckjoin.rows(join, ctx.plan.frames)
    a = got.sort_values(join.value_cols).reset_index(drop=True)[join.value_cols]
    b = (
        full.drop_duplicates()
        .sort_values(join.value_cols)
        .reset_index(drop=True)[join.value_cols]
    )
    pd.testing.assert_frame_equal(a, b, check_dtype=False)


@pytest.mark.parametrize("method", ["ew", "eo"])
def test_empty_join_raises(method):
    """A join with no results cannot be sampled: the sampler says so
    instead of drawing forever."""
    a = pd.DataFrame({"x": [1, 2, 3], "pa": [0, 1, 2]})
    b = pd.DataFrame({"bx": [7, 8], "pb": [0, 1]})
    a, b = Relation("a", a), Relation("b", b)
    ctx = JoinContext(chain("nomatch", [a, b], [("x", "bx")]))
    with deadline(10), pytest.raises(ValueError, match="nomatch"):
        sample_join({ctx: 5}, method=method, seed=0)
