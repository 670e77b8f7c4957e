import pytest

from avgmix import rooted_family
from avgmix.census import census
from avgmix.rooted_family import search_low_rank_simple_trees, tstar as tstar_constant


@pytest.fixture(scope="session")
def tstar_scan():
    """(hits, walk_rank calls) of the full 18-vertex scan; shared because
    it is still one of the suite's longest steps (about 0.6 s): 123,867
    trees, each one's matching number read off its subtrees' cached
    matching states without building it; the 2,891 that pass the prefilter
    have their counts folded at the root, and only the 1,728 simple ones
    among them are built and ranked, by one mod-p certificate per chunk,
    with walk_rank only where it fails."""
    calls = []
    real = rooted_family.walk_rank
    rooted_family.walk_rank = lambda t, counts: calls.append(t) or real(t, counts)
    try:
        hits = search_low_rank_simple_trees(18, 9, threads=1)
    finally:
        rooted_family.walk_rank = real
    return hits, len(calls)


@pytest.fixture(scope="session")
def tstar_hits(tstar_scan):
    return tstar_scan[0]


@pytest.fixture(scope="session")
def tstar():
    """t* from its checked constant; no search runs."""
    return tstar_constant()


@pytest.fixture(scope="session")
def census_2_12():
    """The coeff-fast census of orders 2..12, shared by the table comparisons."""
    return census(2, 12, method="coeff-fast")
