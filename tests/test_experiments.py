"""Experiment harnesses T1–T8 at micro scale: every table function runs
end-to-end and returns rows with the expected columns and shapes."""
import pytest

from repro.experiments import tables as T

SF = 0.002


@pytest.fixture(scope="module")
def rows_t1():
    return T.t1_ratio_error_hist(
        sf=SF, overlaps=(0.2, 0.6), workloads=("uq1", "uq3")
    )


def test_t1_rows(rows_t1):
    assert {r["workload"] for r in rows_t1} == {"uq1", "uq3"}
    assert all(0 <= r["abs_error"] <= 1 for r in rows_t1)
    avg = [r for r in rows_t1 if r["join"] == "AVG"]
    assert len(avg) == 8  # 2 workloads × 2 overlaps × 2 size methods


def test_t1_error_shrinks_with_overlap(rows_t1):
    """The Fig 4a/4b mechanism in isolation (exact sizes): larger overlap
    ⇒ tighter Theorem 4 bound ⇒ smaller ratio error. The EO variant adds
    an overlap-independent Olken size bias (see EXPERIMENTS.md), so the
    monotone claim is checked on the EW-size curve."""
    for w in ("uq1", "uq3"):
        errs = {
            r["overlap"]: r["abs_error"]
            for r in rows_t1
            if r["workload"] == w and r["join"] == "AVG" and r["size_method"] == "ew"
        }
        assert errs[0.6] <= errs[0.2] + 0.05


def test_t2_rows():
    rows = T.t2_union_size_runtime(
        sf=SF, overlaps=(0.3,), workloads=("uq1",)
    )
    assert len(rows) == 1
    r = rows[0]
    assert r["hist_seconds"] > 0 and r["fulljoin_seconds"] > 0
    assert r["hist_union_est"] >= r["true_union"] * 0.5


def test_t3_rows():
    rows = T.t3_ratio_error_rw(sf=SF, overlap=0.3)
    assert len(rows) == 5  # five UQ1 joins
    for r in rows:
        # the Fig 5a shape: RANDOM-WALK beats HISTOGRAM-BASED
        assert r["rw_error"] <= r["hist_eo_error"] + 0.05
        assert r["rw_error"] < 0.15


def test_t4_rows():
    rows = T.t4_scale_data(sfs=(0.001, SF), n=40)
    assert len(rows) == 2 * len(T.INSTANTIATIONS)
    assert all(r["n"] == 40 and r["seconds"] > 0 for r in rows)


def test_t5_rows():
    rows = T.t5_scale_samples(sf=SF, ns=(20, 60), workloads=("uq2",))
    assert len(rows) == 2 * len(T.INSTANTIATIONS)
    assert all(r["sampling_seconds"] > 0 for r in rows)


def test_t6_rows():
    rows = T.t6_breakdown(sf=SF, n=40, workloads=("uq2",))
    assert len(rows) == len(T.INSTANTIATIONS)
    for r in rows:
        assert r["warmup_seconds"] >= 0
        assert r["accepted_seconds"] >= 0
        assert r["rejected_seconds"] >= 0


def test_t7_rows():
    rows = T.t7_reuse(sf=SF, ns=(40,), workloads=("uq2",))
    assert len(rows) == 2
    with_reuse = next(r for r in rows if r["reuse"])
    assert with_reuse["reuse_accepted"] > 0


def test_t8_rows():
    rows = T.t8_per_sample(sf=SF, n=60, workloads=("uq2",))
    assert len(rows) == 1
    r = rows[0]
    assert r["reuse_accepted"] + r["regular_accepted"] >= 60


def test_print_table_renders(capsys):
    T.print_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.25}], "demo")
    out = capsys.readouterr().out
    assert "demo" in out and "10" in out
    T.print_table([], "empty")
    assert "no rows" in capsys.readouterr().out
