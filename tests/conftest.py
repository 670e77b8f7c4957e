import pytest

from avgmix.census import census
from avgmix.rooted_family import search_low_rank_simple_trees, tstar as tstar_constant


@pytest.fixture(scope="session")
def tstar_hits():
    """Full 18-vertex scan; shared because it is still one of the suite's
    longest steps (about 1.5 s): 123,867 trees, each one's matching number
    read off its subtrees' cached matching states without building it; the
    2,891 that pass the prefilter have their counts folded at the root, and
    only the simple ones among them are built and ranked."""
    return search_low_rank_simple_trees(18, 9, threads=1)


@pytest.fixture(scope="session")
def tstar():
    """t* from its checked constant; no search runs."""
    return tstar_constant()


@pytest.fixture(scope="session")
def census_2_12():
    """The coeff-fast census of orders 2..12, shared by the table comparisons."""
    return census(2, 12, method="coeff-fast")
