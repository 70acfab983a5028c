"""Synthetic OLAP data at a configurable scale factor.

SF=1.0 is roughly TPC-H SF1 (~1 GB across tables). Tests use SF<=0.01;
benchmarks use SF~=0.1. Each generator returns a pandas frame, which the
workloads wrap as a relation as it is; generators are deterministic in
``seed`` so the DuckDB oracle sees identical input.
"""
import numpy as np
import pandas as pd

_N_LINEITEM_PER_SF = 6_000_000
_N_ORDERS_PER_SF = 1_500_000
_N_CUSTOMER_PER_SF = 150_000
_N_PART_PER_SF = 200_000
_N_SUPPLIER_PER_SF = 10_000
_N_PARTSUPP_PER_SF = 800_000
_N_NATION = 25
_N_REGION = 5


def n_rows(table: str, sf: float) -> int:
    """Row count of ``table`` at scale factor ``sf`` (TPC-H-lite ratios)."""
    per_sf = {
        "lineitem": _N_LINEITEM_PER_SF,
        "orders": _N_ORDERS_PER_SF,
        "customer": _N_CUSTOMER_PER_SF,
        "part": _N_PART_PER_SF,
        "supplier": _N_SUPPLIER_PER_SF,
        "partsupp": _N_PARTSUPP_PER_SF,
    }
    if table == "nation":
        return _N_NATION
    if table == "region":
        return _N_REGION
    return max(1, int(per_sf[table] * sf))


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def lineitem(*, sf: float = 0.01, seed: int = 0) -> pd.DataFrame:
    n = max(1, int(_N_LINEITEM_PER_SF * sf))
    n_orders = max(1, int(_N_ORDERS_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "l_orderkey": g.integers(1, n_orders + 1, n),
            "l_partkey": g.integers(1, n_part + 1, n),
            "l_suppkey": g.integers(1, n_supp + 1, n),
            "l_linenumber": g.integers(1, 8, n),
            "l_quantity": g.integers(1, 51, n).astype("float64"),
            "l_extendedprice": (g.random(n) * 90000 + 900).round(2),
            "l_discount": (g.random(n) * 0.1).round(2),
            "l_tax": (g.random(n) * 0.08).round(2),
            "l_returnflag": g.choice(list("NRA"), n),
            "l_linestatus": g.choice(list("OF"), n),
            "l_shipdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2557, n), unit="D"),
        }
    )


def orders(*, sf: float = 0.01, seed: int = 1) -> pd.DataFrame:
    n = max(1, int(_N_ORDERS_PER_SF * sf))
    n_cust = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "o_orderkey": np.arange(1, n + 1),
            "o_custkey": g.integers(1, n_cust + 1, n),
            "o_orderstatus": g.choice(list("OFP"), n),
            "o_totalprice": (g.random(n) * 500000 + 1000).round(2),
            "o_orderdate": pd.to_datetime("1992-01-01")
            + pd.to_timedelta(g.integers(0, 2406, n), unit="D"),
            "o_orderpriority": g.choice(
                ["1-URGENT", "2-HIGH", "3-MEDIUM", "4-NOT", "5-LOW"], n
            ),
        }
    )


def part(*, sf: float = 0.01, seed: int = 5) -> pd.DataFrame:
    n = max(1, int(_N_PART_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "p_partkey": np.arange(1, n + 1),
            "p_type": g.choice(
                ["STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"], n
            ),
            "p_brand": g.choice([f"Brand#{i}{j}" for i in range(1, 6) for j in range(1, 6)], n),
            "p_size": g.integers(1, 51, n),
            "p_retailprice": (900 + (np.arange(1, n + 1) % 1000) / 10.0).round(2),
        }
    )


def customer(*, sf: float = 0.01, seed: int = 2) -> pd.DataFrame:
    n = max(1, int(_N_CUSTOMER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "c_custkey": np.arange(1, n + 1),
            "c_nationkey": g.integers(0, 25, n),
            "c_acctbal": (g.random(n) * 10000 - 1000).round(2),
            "c_mktsegment": g.choice(
                ["BUILDING", "AUTOMOBILE", "MACHINERY", "HOUSEHOLD", "FURNITURE"], n
            ),
        }
    )


def supplier(*, sf: float = 0.01, seed: int = 6) -> pd.DataFrame:
    n = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    return pd.DataFrame(
        {
            "s_suppkey": np.arange(1, n + 1),
            "s_nationkey": g.integers(0, _N_NATION, n),
            "s_acctbal": (g.random(n) * 11000 - 1000).round(2),
            "s_name": [f"Supplier#{i:09d}" for i in range(1, n + 1)],
        }
    )


def nation(*, seed: int = 7) -> pd.DataFrame:
    """The 25 TPC-H nations, each mapped onto one of 5 regions."""
    g = _rng(seed)
    return pd.DataFrame(
        {
            "n_nationkey": np.arange(0, _N_NATION),
            "n_regionkey": np.arange(0, _N_NATION) % _N_REGION,
            "n_name": [f"NATION_{i:02d}" for i in range(_N_NATION)],
            "n_tax": (g.random(_N_NATION) * 0.2).round(3),
        }
    )


def region(*, seed: int = 8) -> pd.DataFrame:
    g = _rng(seed)
    return pd.DataFrame(
        {
            "r_regionkey": np.arange(0, _N_REGION),
            "r_name": ["AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDEAST"],
            "r_tariff": (g.random(_N_REGION) * 0.1).round(3),
        }
    )


def partsupp(*, sf: float = 0.01, seed: int = 9) -> pd.DataFrame:
    """(partkey, suppkey) supply pairs; ~4 suppliers per part, as in TPC-H."""
    n = max(1, int(_N_PARTSUPP_PER_SF * sf))
    n_part = max(1, int(_N_PART_PER_SF * sf))
    n_supp = max(1, int(_N_SUPPLIER_PER_SF * sf))
    g = _rng(seed)
    pdf = pd.DataFrame(
        {
            "ps_partkey": (np.arange(n) % n_part) + 1,
            "ps_suppkey": g.integers(1, n_supp + 1, n),
            "ps_availqty": g.integers(1, 10000, n),
            "ps_supplycost": (g.random(n) * 1000 + 1).round(2),
        }
    )
    return pdf.drop_duplicates(["ps_partkey", "ps_suppkey"]).reset_index(drop=True)
