"""Join model: composition, chains, trees, rerooting, invariants."""
import pandas as pd
import pytest

from repro.core.join_spec import Edge, Join, Node, Relation, chain, reroot
from repro.core.weights import exact_size


@pytest.fixture(scope="module")
def rels(spark):
    def rel(name, data):
        return Relation(name, spark.createDataFrame(pd.DataFrame(data)))

    a = rel("a", {"x": [1, 2], "pa": [0.5, 1.5]})
    b = rel("b", {"bx": [1, 1, 2], "y": [7, 8, 7], "pb": [10, 11, 12]})
    c = rel("c", {"cy": [7, 8], "pc": ["u", "v"]})
    return a, b, c


def test_chain_structure(rels):
    a, b, c = rels
    j = chain("j", [a, b, c], [("x", "bx"), ("y", "cy")])
    assert j.is_chain()
    names = [r.name for r in j.relations()]
    assert names == ["a", "b", "c"]
    rels_, edges = j.as_chain()
    assert [e.parent_col for e in edges] == ["x", "y"]


def test_value_cols_order_and_dedup(rels):
    a, b, c = rels
    j = chain("j", [a, b, c], [("x", "bx"), ("y", "cy")])
    assert j.value_cols == ["x", "pa", "bx", "y", "pb", "cy", "pc"]


def test_condition_pairs_excludes_using(spark, rels):
    a, b, c = rels
    j = chain("j", [a, b, c], [("x", "bx"), ("y", "cy")])
    assert set(j.condition_pairs()) == {("x", "bx"), ("y", "cy")}
    # USING-style same-name join contributes no explicit pair
    d1 = Relation("d1", spark.createDataFrame(pd.DataFrame({"k": [1], "u": [2]})))
    d2 = Relation("d2", spark.createDataFrame(pd.DataFrame({"k": [1], "v": [3]})))
    ju = chain("ju", [d1, d2], [("k", "k")])
    assert ju.condition_pairs() == []
    assert ju.value_cols == ["k", "u", "v"]
    assert len(ju.full_pdf()) == 1


def test_collision_detection(spark):
    r1 = Relation("r1", spark.createDataFrame(pd.DataFrame({"k": [1], "dup": [2]})))
    r2 = Relation("r2", spark.createDataFrame(pd.DataFrame({"j": [1], "dup": [3]})))
    with pytest.raises(ValueError, match="dup"):
        chain("bad", [r1, r2], [("k", "j")])


def test_tree_not_chain(rels):
    a, b, c = rels
    root = Node(b)
    root.edges.append(Edge("bx", "x", Node(a)))
    root.edges.append(Edge("y", "cy", Node(c)))
    j = Join("tree", root)
    assert not j.is_chain()
    with pytest.raises(ValueError):
        j.as_chain()


def test_tree_full_df_equals_chain_full_df(spark, rels):
    """A join tree is order-independent: rerooted trees produce the same
    result set."""
    a, b, c = rels
    jc = chain("jc", [a, b, c], [("x", "bx"), ("y", "cy")])
    jr = reroot(jc, "b")
    assert jr.root.relation.name == "b"
    got = jr.full_pdf().sort_values(jc.value_cols).reset_index(drop=True)
    want = jc.full_pdf().sort_values(jc.value_cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(got[sorted(got.columns)], want[sorted(want.columns)])


def test_reroot_preserves_size(spark, rels):
    a, b, c = rels
    jc = chain("jc", [a, b, c], [("x", "bx"), ("y", "cy")])
    for name in ("a", "b", "c"):
        assert exact_size(reroot(jc, name)) == exact_size(jc)


def test_reroot_unknown_relation(rels):
    a, b, c = rels
    jc = chain("jc", [a, b, c], [("x", "bx"), ("y", "cy")])
    with pytest.raises(KeyError):
        reroot(jc, "nope")


def test_chain_bad_cond_count(rels):
    a, b, _ = rels
    with pytest.raises(ValueError):
        chain("j", [a, b], [])


def test_node_of_attr_and_missing(rels):
    a, b, c = rels
    j = chain("j", [a, b, c], [("x", "bx"), ("y", "cy")])
    assert j.node_of_attr("pc").relation.name == "c"
    with pytest.raises(KeyError):
        j.node_of_attr("nope")


def test_tree_distance_chain(rels):
    a, b, c = rels
    j = chain("j", [a, b, c], [("x", "bx"), ("y", "cy")])
    assert j.tree_distance("pa", "pc") == 2
    assert j.tree_distance("y", "pb") == 0


def test_hidden_cols_excluded(spark):
    r = Relation(
        "r",
        spark.createDataFrame(pd.DataFrame({"k": [1], "__rid": [0]})),
    )
    assert r.cols == ["k"]
    j = chain("j", [r], [])
    assert j.value_cols == ["k"]
