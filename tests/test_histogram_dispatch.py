"""auto_histogram_warmup dispatch: chains go direct, mixed shapes split."""
import pytest

from repro.core.histogram_union import auto_histogram_warmup
from repro.workloads import uq2, uq3


@pytest.fixture(scope="module")
def w2():
    return uq2(None, sf=0.002, overlap=0.6)


@pytest.fixture(scope="module")
def w3():
    return uq3(None, sf=0.002, overlap=0.3)


def test_chain_workload_dispatch(w2):
    est = auto_histogram_warmup(w2.uctx, size_method="eo")
    assert est.method == "hist-eo"
    assert set(est.sizes) == set(w2.uctx.names)


def test_mixed_workload_dispatch(w3):
    # uq3_0 is not a chain: the splitting path must be taken and succeed
    est = auto_histogram_warmup(w3.uctx, size_method="ew")
    assert est.method == "hist-ew"
    for j in w3.joins:
        assert est.sizes[j.name] == w3.uctx.ctx(j.name).size_exact


def test_mixed_sizes_eo_are_upper_bounds(w3):
    est = auto_histogram_warmup(w3.uctx, size_method="eo")
    for j in w3.joins:
        assert est.sizes[j.name] >= w3.uctx.ctx(j.name).size_exact


def test_union_within_bounds(w2, w3):
    for w in (w2, w3):
        est = auto_histogram_warmup(w.uctx)
        assert max(est.sizes.values()) <= est.union <= sum(est.sizes.values()) + 1e-6
