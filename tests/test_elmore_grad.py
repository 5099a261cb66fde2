"""Finite-difference validation of the Elmore backward pass (Eq. (8))."""

import numpy as np
import pytest

from repro.core.elmore_grad import elmore_backward
from repro.route import build_forest
from repro.sta.elmore import elmore_forward, node_caps


@pytest.fixture(scope="module")
def setup(small_design):
    rng = np.random.default_rng(0)
    x = small_design.cell_x + rng.normal(0, 8, small_design.n_cells)
    y = small_design.cell_y + rng.normal(0, 8, small_design.n_cells)
    forest = build_forest(small_design, x, y)
    px, py = small_design.pin_positions(x, y)
    nx, ny = forest.node_coords(px, py)
    # Nudge nodes off coincidence so the |dx| kink is not probed.
    nx = nx + rng.normal(0, 0.01, forest.n_nodes)
    ny = ny + rng.normal(0, 0.01, forest.n_nodes)
    caps = node_caps(forest, small_design.pin_cap)
    wire = small_design.library.wire
    return small_design, forest, nx, ny, caps, wire, rng


def objective_factory(forest, caps, wire, cd, ci, cl):
    def objective(nx, ny):
        e = elmore_forward(forest, nx, ny, caps, wire)
        imp2 = 2.0 * e.beta - e.delay**2
        return float((cd * e.delay).sum() + (ci * imp2).sum() + (cl * e.load).sum())

    return objective


class TestElmoreBackward:
    def test_matches_finite_differences(self, setup):
        design, forest, nx, ny, caps, wire, rng = setup
        cd = rng.normal(0, 1, forest.n_nodes)
        ci = rng.normal(0, 0.1, forest.n_nodes)
        cl = np.zeros(forest.n_nodes)
        roots = np.nonzero(forest.is_root)[0]
        cl[roots] = rng.normal(0, 1, len(roots))

        e = elmore_forward(forest, nx, ny, caps, wire)
        gx, gy = elmore_backward(forest, e, wire, cd, ci, cl)
        objective = objective_factory(forest, caps, wire, cd, ci, cl)

        eps = 1e-6
        probes = rng.choice(forest.n_nodes, 25, replace=False)
        for i in probes:
            for axis, grad in ((0, gx), (1, gy)):
                a = (nx.copy(), ny.copy())
                b = (nx.copy(), ny.copy())
                a[axis][i] += eps
                b[axis][i] -= eps
                fd = (objective(*a) - objective(*b)) / (2 * eps)
                assert grad[i] == pytest.approx(fd, rel=1e-4, abs=1e-7)

    def test_delay_only_gradient(self, setup):
        design, forest, nx, ny, caps, wire, rng = setup
        cd = np.zeros(forest.n_nodes)
        sinks = np.nonzero((forest.node_pin >= 0) & ~forest.is_root)[0]
        cd[sinks[:10]] = 1.0
        zeros = np.zeros(forest.n_nodes)
        e = elmore_forward(forest, nx, ny, caps, wire)
        cd_before = cd.copy()
        gx, gy = elmore_backward(forest, e, wire, cd, zeros, zeros)
        # The public adjoint leaves its inputs as they were, also when one
        # array is passed for two of them.
        assert np.array_equal(cd, cd_before) and not zeros.any()
        objective = objective_factory(forest, caps, wire, cd, zeros, zeros)
        eps = 1e-6
        for i in rng.choice(forest.n_nodes, 12, replace=False):
            a = nx.copy()
            b = nx.copy()
            a[i] += eps
            b[i] -= eps
            fd = (objective(a, ny) - objective(b, ny)) / (2 * eps)
            assert gx[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_load_only_gradient(self, setup):
        design, forest, nx, ny, caps, wire, rng = setup
        zeros = np.zeros(forest.n_nodes)
        cl = np.zeros(forest.n_nodes)
        roots = np.nonzero(forest.is_root)[0]
        cl[roots] = 1.0
        e = elmore_forward(forest, nx, ny, caps, wire)
        gx, gy = elmore_backward(forest, e, wire, zeros, zeros, cl)
        objective = objective_factory(forest, caps, wire, zeros, zeros, cl)
        eps = 1e-6
        for i in rng.choice(forest.n_nodes, 12, replace=False):
            a = ny.copy()
            b = ny.copy()
            a[i] += eps
            b[i] -= eps
            fd = (objective(nx, a) - objective(nx, b)) / (2 * eps)
            assert gy[i] == pytest.approx(fd, rel=1e-4, abs=1e-8)

    def test_zero_seed_gives_zero_gradient(self, setup):
        design, forest, nx, ny, caps, wire, rng = setup
        zeros = np.zeros(forest.n_nodes)
        e = elmore_forward(forest, nx, ny, caps, wire)
        gx, gy = elmore_backward(forest, e, wire, zeros, zeros, zeros)
        assert np.abs(gx).max() == 0.0
        assert np.abs(gy).max() == 0.0

    def test_gradient_sign_for_stretching_wire(self):
        """Lengthening a 2-pin net increases its sink delay."""
        from repro.route import Forest, RoutingTree
        from repro.netlist import WireModel

        tree = RoutingTree(
            x=np.array([0.0, 10.0]),
            y=np.array([0.0, 0.0]),
            parent=np.array([-1, 0]),
            pins=np.array([0, 1]),
            owner_x=np.array([0, 1]),
            owner_y=np.array([0, 1]),
            root=0,
        )
        forest = Forest([tree], 2)
        wire = WireModel(0.01, 0.2)
        caps = np.array([0.0, 2.0])
        e = elmore_forward(forest, tree.x, tree.y, caps, wire)
        cd = np.array([0.0, 1.0])
        zeros = np.zeros(2)
        gx, gy = elmore_backward(forest, e, wire, cd, zeros, zeros)
        assert gx[1] > 0  # moving the sink right lengthens the wire
        assert gx[0] < 0  # moving the driver right shortens it
