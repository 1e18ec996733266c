"""Session fixtures: the three 256-cell reference sweeps, and the small
grids that exercise the pair fills.

The sweeps are the expensive shared instances (a few seconds each);
everything that needs a full warm-started schedule reads them from here so
the suite solves each family exactly once.
"""

import time

import numpy as np
import pytest

from fraclap.domain_grid import DomainSpec, build_grid, build_kernel
from fraclap.experiments import RunConfig, run_sweep


class SweepCase:
    def __init__(self, radius, h, label):
        self.config = RunConfig(
            domain=DomainSpec(1, "interval", (-radius, radius), h),
            s=0.5,
            label=label,
        )
        self.radius = radius
        start = time.perf_counter()
        self.table = run_sweep(self.config)
        self.seconds = time.perf_counter() - start
        self.grid = build_grid(self.config.domain)
        self.kernel_1 = build_kernel(self.grid, 1.5)


@pytest.fixture(scope="session")
def van16():
    """Subcritical interval: half-width 16, Cheeger constant above 1."""
    return SweepCase(16.0, 0.125, "van16")


@pytest.fixture(scope="session")
def crit32():
    """Calibrable interval: half-width 32, Cheeger constant exactly 1."""
    return SweepCase(32.0, 0.25, "crit32")


@pytest.fixture(scope="session")
def blow64():
    """Supercritical interval: half-width 64, Cheeger constant below 1."""
    return SweepCase(64.0, 0.5, "blow64")


# cell counts from one cell to 130, around the 32 to 136 variables of the
# solver's orbit loops, on which the pair fills and the metric are checked
# bit for bit against their whole-square references; the 2-D grids are
# boxes of these many unit cells
MIRROR_BOXES = {1: (1, 1), 63: (7, 9), 64: (8, 8), 65: (5, 13), 130: (10, 13)}


@pytest.fixture(
    scope="session",
    params=[(n, cells) for n in (1, 2) for cells in MIRROR_BOXES],
    ids=lambda nc: "%dd-%d" % nc,
)
def mirror_case(request):
    """(kernel, fields) on a 1-D or 2-D grid of the given cell count. The
    fields mix signs, +0.0, -0.0 and exact ties; the last is constant."""
    n, cells = request.param
    upper = (float(cells),) if n == 1 else tuple(map(float, MIRROR_BOXES[cells]))
    grid = build_grid(DomainSpec(n, "box", (0.0,) * n + upper, 1.0))
    kern = build_kernel(grid, n + 0.6)
    rng = np.random.default_rng(cells)
    fields = []
    for _ in range(3):
        u = rng.normal(size=cells)
        u[rng.random(cells) < 0.2] = 0.0
        u[rng.random(cells) < 0.2] = -0.0
        u[rng.random(cells) < 0.2] = u[0]
        fields.append(u)
    fields.append(np.full(cells, 0.75))
    return kern, fields
