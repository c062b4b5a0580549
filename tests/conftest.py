"""One hypothesis profile for every run: a property test draws the same
examples each time, so tier-1 repeats itself in what it checks and in
how long it takes.  Nothing switches it off.

Every test starts with defects.classify's memo empty, so a kernel a test
patches under classify (as_defect, quad_defect, s_div) is reached even
where an earlier test classified the same polynomial."""

import pytest
from hypothesis import settings

from btbranch import defects

settings.register_profile("repeatable", derandomize=True, database=None)
settings.load_profile("repeatable")


@pytest.fixture(autouse=True)
def _empty_classify_memo():
    defects._classify.cache_clear()
