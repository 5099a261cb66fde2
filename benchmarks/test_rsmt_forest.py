"""Full-design equality of the compiled Steiner-forest builder on midiblue50.

Every forest array and every level (dtypes included) of the compiled
build equals the scalar per-net oracle (``tests/reference_rsmt.py``) over
all 55k nets of midiblue50, at the seed placement and at a uniform
scatter; tier-1 only compares a sample of this design.  About 20 s.
"""

import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from repro.harness import load_design  # noqa: E402
from repro.route import build_forest  # noqa: E402
from tests.reference_rsmt import reference_forest  # noqa: E402
from tests.test_rsmt_batch import assert_forests_equal  # noqa: E402


@pytest.mark.parametrize("placement", ["seed", "scatter"])
def test_midiblue50_forest_equals_reference(placement):
    design = load_design("midiblue50")
    x, y = design.cell_x, design.cell_y
    if placement == "scatter":
        rng = np.random.default_rng(5)
        xl, yl, xh, yh = design.die
        x = rng.uniform(xl, xh, design.n_cells)
        y = rng.uniform(yl, yh, design.n_cells)
    px, py = design.pin_positions(x, y)
    assert_forests_equal(build_forest(design, x, y), reference_forest(design, px, py))
