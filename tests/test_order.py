"""Unit tests for first-touch ordering models (demand paging order)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.order import first_touch_order, streaming_first_touch_order


def test_sequential_is_va_order():
    vpns = np.array([9, 3, 7, 3, 1], dtype=np.int64)
    assert first_touch_order(vpns, "sequential").tolist() == [1, 3, 7, 9]


def test_demand_is_first_touch_order():
    vpns = np.array([9, 3, 7, 3, 1], dtype=np.int64)
    assert first_touch_order(vpns, "demand").tolist() == [9, 3, 7, 1]


def test_chunked_sorts_within_chunks():
    # Chunk = vpn >> 8.  Two chunks, touched B-chunk first.
    vpns = np.array([600, 10, 520, 30, 512], dtype=np.int64)
    out = first_touch_order(vpns, "chunked").tolist()
    assert out == [512, 520, 600, 10, 30]


def test_all_orders_cover_all_pages():
    rng = np.random.default_rng(1)
    vpns = rng.integers(0, 5000, size=2000)
    for order in ("sequential", "demand", "chunked"):
        out = first_touch_order(vpns, order)
        assert set(out.tolist()) == set(np.unique(vpns).tolist())
        assert len(out) == len(np.unique(vpns))


def test_unknown_order_raises():
    with pytest.raises(ValueError):
        first_touch_order(np.array([1]), "random")


def test_workload_spec_validates_order():
    from repro.workloads.base import VmaSpec, WorkloadSpec

    with pytest.raises(ValueError):
        WorkloadSpec(
            name="x", description="",
            vmas=(VmaSpec(name="v", size_bytes=4096, weight=1.0),),
            init_order="bogus",
        )


# ----------------------------------------------------------------------
# byte-identity against the np.unique formulation, whatever the chunking
# ----------------------------------------------------------------------
def _reference(chunks: list[np.ndarray], order: str) -> np.ndarray:
    """Each model spelled out with ``np.unique`` over the whole trace."""
    if not chunks:
        return np.empty(0, dtype=np.int64)
    whole = np.concatenate(chunks)
    if order == "sequential":
        return np.unique(whole)
    _, first = np.unique(whole, return_index=True)
    demand = whole[np.sort(first)]
    if order == "demand":
        return demand
    groups = demand >> 8
    _, group_first = np.unique(groups, return_index=True)
    pieces = [np.sort(demand[groups == group])
              for group in groups[np.sort(group_first)]]
    return np.concatenate(pieces) if pieces else demand


_vpn_lists = st.one_of(
    st.lists(st.integers(0, 3_000), max_size=80),
    st.lists(st.integers(0, 2**40), max_size=20),
    st.integers(0, 2**40).flatmap(
        lambda vpn: st.lists(st.just(vpn), min_size=1, max_size=12)),
)


@settings(max_examples=300, deadline=None)
@given(chunks=st.lists(_vpn_lists, max_size=6),
       order=st.sampled_from(("sequential", "demand", "chunked")),
       cut=st.integers(1, 50))
def test_streaming_order_matches_unique_reference(chunks, order, cut):
    # Empty, single-element and all-equal chunks come from the
    # strategies above; re-chunking the same records at `cut` must not
    # change a byte either.
    arrays = [np.asarray(chunk, dtype=np.int64) for chunk in chunks]
    expected = _reference(arrays, order)
    whole = (np.concatenate(arrays) if arrays
             else np.empty(0, dtype=np.int64))
    rechunked = [whole[i:i + cut] for i in range(0, whole.size, cut)]
    for pieces in (arrays, rechunked):
        got = streaming_first_touch_order(iter(pieces), order)
        assert got.dtype == expected.dtype
        assert got.tobytes() == expected.tobytes()
