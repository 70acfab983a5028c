"""DuckDB oracle checks: every workload join's driver result equals the
equivalent SQL on the same inputs (catches broken join composition)."""
from duckjoin import assert_equivalent
from repro.workloads import uq1, uq2, uq3


def test_uq1_join_matches_sql():
    w = uq1(None, sf=0.001, overlap=0.2, n_joins=1)
    j = w.joins[0]
    rels = {r.name: r.pdf for r in j.relations()}
    cols = ", ".join(j.value_cols)
    sql = f"""
        select distinct {cols}
        from nation join supplier on n_nationkey = s_nationkey
        join lineitem on s_suppkey = l_suppkey
        join orders on l_orderkey = o_orderkey
        join customer on o_custkey = c_custkey
    """
    assert_equivalent(
        j.full_pdf(),
        sql,
        nation=rels["nation"],
        supplier=rels["supplier"],
        lineitem=rels["lineitem_0"],
        orders=rels["orders"],
        customer=rels["customer"],
    )


def test_uq2_join_matches_sql():
    w = uq2(None, sf=0.002, overlap=0.6)
    j = w.joins[1]
    rels = {r.name: r.pdf for r in j.relations()}
    cols = ", ".join(j.value_cols)
    sql = f"""
        select distinct {cols}
        from region join nation on r_regionkey = n_regionkey
        join supplier on n_nationkey = s_nationkey
        join partsupp on s_suppkey = ps_suppkey
        join part on ps_partkey = p_partkey
    """
    assert_equivalent(
        j.full_pdf(),
        sql,
        region=rels["region"],
        nation=rels["nation"],
        supplier=rels["supplier"],
        partsupp=rels["partsupp"],
        part=rels["part_1"],
    )


def test_uq3_acyclic_join_matches_sql():
    w = uq3(None, sf=0.002, overlap=0.2)
    j = w.joins[0]
    rels = {r.name: r.pdf for r in j.relations()}
    cols = ", ".join(j.value_cols)
    sql = f"""
        select distinct {cols}
        from customer_a
        join supplier on c_nationkey = s_nationkey
        join customer_b using (c_custkey)
        join orders on c_custkey = o_custkey
    """
    # drop the date column? no — timestamps compare fine through pandas
    assert_equivalent(
        j.full_pdf(),
        sql,
        customer_a=rels["customer_a"],
        supplier=rels["supplier"],
        customer_b=rels["customer_b"],
        orders=rels["orders_0"],
    )


def test_uq3_split_chain_matches_unsplit():
    """Lossless vertical split: the J2 chain through customer_a ⋈
    customer_b equals the same join with customer unsplit."""
    w = uq3(None, sf=0.002, overlap=0.2)
    j2 = w.joins[2]
    rels = {r.name: r.pdf for r in j2.relations()}
    cols = ", ".join(j2.value_cols)
    sql = f"""
        select distinct {cols}
        from supplier
        join customer on s_nationkey = c_nationkey
        join orders on c_custkey = o_custkey
    """
    customer = next(r.pdf for r in w.joins[1].relations() if r.name == "customer")
    assert_equivalent(
        j2.full_pdf(),
        sql,
        supplier=rels["supplier"],
        customer=customer,
        orders=rels["orders_2"],
    )
