import pytest

from avgmix.census import census
from avgmix.rooted_family import search_low_rank_simple_trees, tstar as tstar_constant


@pytest.fixture(scope="session")
def tstar_hits():
    """Full 18-vertex scan; shared because it is still the suite's longest
    step (about 2.5 s): 123,867 trees, each with labels that grow away from
    the root, so the prefilter reads its spanning forest off the edges with
    no traversal; the leaf-matching prefilter passes 2,891 to the matching
    DP."""
    return search_low_rank_simple_trees(18, 9, threads=1)


@pytest.fixture(scope="session")
def tstar():
    """t* from its checked constant; no search runs."""
    return tstar_constant()


@pytest.fixture(scope="session")
def census_2_12():
    """The coeff-fast census of orders 2..12, shared by the table comparisons."""
    return census(2, 12, method="coeff-fast")
