"""Properties checked on examples drawn by Hypothesis (skipped where it is
not installed). The draws are derandomized, so every run sees the same
examples."""

import numpy as np
import pytest

from fraclap.domain_grid import DomainSpec, build_grid, build_kernel
from fraclap.energy import load_from_array, seminorm_power
from fraclap.geometry import coarea_decompose, perimeter, threshold_cheeger

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


# a few values, so that levels tie and several cells leave at once; zero
# cells leave before the first level
_FIELD = st.lists(
    st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0, 3.0]), min_size=16, max_size=16
).map(np.array)


@_SETTINGS
@hypothesis.given(u=_FIELD)
def test_coarea_layers_are_mask_perimeters(kern16, u):
    # every layer, updated row by row from the one before, has the bits of
    # the perimeter of its own mask and of half the indicator's p = 1
    # seminorm power; the threshold search tabulates exactly these layers
    hypothesis.assume(np.any(u > 0))
    f = load_from_array(np.ones(16))
    layers = coarea_decompose(u, f, kern16)
    assert [layer.level for layer in layers] == sorted(set(u[u > 0].tolist()))
    for layer in layers:
        mask = u >= layer.level
        assert layer.perimeter == perimeter(mask, kern16)
        assert layer.perimeter == 0.5 * seminorm_power(mask.astype(float), kern16, 1.0)
    table = threshold_cheeger(u, f, kern16).table
    assert table == [
        (layer.level, layer.perimeter, layer.weighted_volume,
         layer.perimeter / layer.weighted_volume)
        for layer in layers
    ]
