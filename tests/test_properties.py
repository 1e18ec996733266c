"""Properties checked on examples drawn by Hypothesis (skipped where it is
not installed). The draws are derandomized, so every run sees the same
examples."""

import numpy as np
import pytest

from fraclap.domain_grid import DomainSpec, build_grid, build_kernel
from fraclap.geometry import perimeter

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

_SETTINGS = hypothesis.settings(
    max_examples=200, deadline=None, derandomize=True, database=None
)


@pytest.fixture(
    scope="module",
    params=[(1, "interval", (-1.0, 1.0), 0.125), (2, "box", (0.0, 0.0, 1.0, 1.0), 0.25)],
    ids=["interval16", "box4"],
)
def kern16(request):
    """p = 1 kernel at s = 1/2 on 16 cells: an interval or a 4 x 4 box."""
    n, shape, params, h = request.param
    return build_kernel(build_grid(DomainSpec(n, shape, params, h)), n + 0.5)


_MASK = st.lists(st.booleans(), min_size=16, max_size=16).map(np.array)


@_SETTINGS
@hypothesis.given(a=_MASK, b=_MASK)
def test_perimeter_is_submodular(kern16, a, b):
    # Per(E) is a cut of the nonnegative pair weights plus a sum of tails
    pa, pb = perimeter(a, kern16), perimeter(b, kern16)
    lhs = perimeter(a | b, kern16) + perimeter(a & b, kern16)
    assert lhs <= pa + pb + 1e-12 * (pa + pb)
