"""Electrostatic density model (ePlace / DREAMPlace style).

Cell area is deposited onto a regular bin grid with cloud-in-cell
(bilinear) splatting; the resulting density map is treated as a charge
distribution and the Poisson equation ``lap(phi) = -(rho - rho_mean)`` is
solved spectrally with a type-II DCT (Neumann boundary, as in ePlace).
The negative potential gradient is the electric field; each movable cell
feels a force ``area * E`` interpolated at its center, which is the
density gradient used by the placer.  Density overflow - the stopping
metric of the paper's experiments - is measured on the same grid.

One pipeline, no switches: splat (a single deterministic
:func:`~repro.core.scatter.scatter_add`), ``scipy.fft`` ``dctn`` / divide
by the Laplacian eigenvalues / ``idctn``, a central-difference field
(the expressions of ``np.gradient``), and a gather that reuses the splat's
stencil weights.
It is bit-compatible with the original implementation (four sequential
``np.add.at`` passes, fancy-indexed gather) in density map, energy and
overflow, and to the last bit or two in the gradients - asserted against
a test-only copy of that formulation in ``tests/test_density.py``.

Fixed macro area (fixed cells with nonzero area) is splatted once at
construction and added to every density map, so movable cells are
repelled from blockages; zero-area fixed pads/ports contribute nothing
and keep historical behaviour bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import dctn, idctn

from ..core.scatter import scatter_add
from ..netlist.design import Design

__all__ = ["DensityModel", "DensityResult"]


@dataclass
class DensityResult:
    """Outputs of one density evaluation.

    ``potential`` is ``None`` only for the zero-movable-area early-out.
    """

    energy: float
    overflow: float
    grad_x: np.ndarray
    grad_y: np.ndarray
    density: np.ndarray
    potential: Optional[np.ndarray]


class DensityModel:
    """ePlace-style electrostatic density on an ``nb x nb`` grid."""

    def __init__(
        self,
        design: Design,
        n_bins: int = 64,
        target_density: float = 1.0,
    ) -> None:
        self.design = design
        xl, yl, xh, yh = design.die
        self.xl, self.yl = xl, yl
        self.nb = n_bins
        self.hx = (xh - xl) / n_bins
        self.hy = (yh - yl) / n_bins
        self.target_density = target_density
        self.movable = ~design.cell_fixed
        self.area = design.cell_w * design.cell_h
        self.movable_area_total = float(self.area[self.movable].sum())
        self.bin_area = self.hx * self.hy

        # Fixed macro/port blockage: deposit fixed-cell area once.  Ports
        # and pads have zero area, so designs without real macros keep
        # the historical all-movable density map bit-for-bit.
        fixed = design.cell_fixed & (self.area > 0.0)
        if bool(fixed.any()):
            rho_f, _ = self._stencil(
                design.cell_x[fixed], design.cell_y[fixed], self.area[fixed]
            )
            self._fixed_rho: Optional[np.ndarray] = rho_f
        else:
            self._fixed_rho = None

        eigen_x = 2.0 - 2.0 * np.cos(np.pi * np.arange(n_bins) / n_bins)
        eigen_y = 2.0 - 2.0 * np.cos(np.pi * np.arange(n_bins) / n_bins)
        denom = (
            eigen_x[:, None] / (self.hx * self.hx)
            + eigen_y[None, :] / (self.hy * self.hy)
        )
        denom[0, 0] = 1.0  # DC mode is projected out before division
        self._denominator = denom

        # Divisors of the field's differences, negated (the field is
        # minus the gradient; dividing by -d flips exactly the sign):
        # two bins apart inside the grid, one at its two edges.
        def spans(h: float) -> np.ndarray:
            d = np.full(n_bins, -(2.0 * h))
            d[0] = d[-1] = -h
            return d

        self._field_div = spans(self.hx)[:, None], spans(self.hy)[None, :]

    # ------------------------------------------------------------------
    def _stencil(self, x: np.ndarray, y: np.ndarray, mass: np.ndarray):
        """Cloud-in-cell deposition of ``mass`` at ``(x, y)`` onto the grid.

        Returns the density map plus the flattened stencil (corner
        indices and the four weights, computed once) so the field gather
        can reuse it.  The four corner passes are concatenated into a
        single deterministic :func:`scatter_add`; per destination bin
        the contributions fold in the same pass-major order as the
        historical four sequential scatters, so the map is bit-identical
        to the original implementation.
        """
        nb = self.nb
        gx = (x - self.xl) / self.hx - 0.5
        gy = (y - self.yl) / self.hy - 0.5
        # np.clip, without its Python wrapper.
        for g in (gx, gy):
            np.minimum(np.maximum(g, 0.0, out=g), nb - 1.000001, out=g)
        ix = np.floor(gx).astype(np.int64)
        iy = np.floor(gy).astype(np.int64)
        fx = gx - ix
        fy = gy - iy
        # Fused stencil weights: the x-edge products are shared between
        # the four corners (same association as the historical
        # ``mass * (1 - fx) * (1 - fy)`` forms, so no bits change).
        ax = mass * (1.0 - fx)
        bx = mass * fx
        w00 = ax * (1.0 - fy)
        w10 = bx * (1.0 - fy)
        w01 = ax * fy
        w11 = bx * fy
        base = ix * nb + iy
        flat = np.concatenate([base, base + nb, base + 1, base + nb + 1])
        weights = np.concatenate([w00, w10, w01, w11])
        rho = scatter_add(flat, weights, nb * nb).reshape(nb, nb)
        return rho, (base, w00, w10, w01, w11)

    def _splat(self, x: np.ndarray, y: np.ndarray):
        """Movable-cell density map (fixed blockage included)."""
        rho, stencil = self._stencil(
            x[self.movable], y[self.movable], self.area[self.movable]
        )
        if self._fixed_rho is not None:
            rho = rho + self._fixed_rho
        return rho, stencil

    def _solve_poisson(self, rho: np.ndarray) -> np.ndarray:
        """Spectral Poisson solve (scipy DCT round-trip)."""
        source = rho / self.bin_area
        source = source - source.mean()
        coeff = dctn(source, type=2, norm="ortho")
        coeff = coeff / self._denominator
        coeff[0, 0] = 0.0
        return idctn(coeff, type=2, norm="ortho")

    def _field(self, phi: np.ndarray):
        """Field ``-grad(phi)`` on the bin grid: central differences,
        one-sided at the edges - ``-np.gradient(phi, h, axis=)`` of each
        axis, bit for bit, at half the cost of its two wrapper calls."""
        ex, ey = np.empty_like(phi), np.empty_like(phi)
        np.subtract(phi[2:], phi[:-2], out=ex[1:-1])
        np.subtract(phi[1], phi[0], out=ex[0])
        np.subtract(phi[-1], phi[-2], out=ex[-1])
        np.subtract(phi[:, 2:], phi[:, :-2], out=ey[:, 1:-1])
        np.subtract(phi[:, 1], phi[:, 0], out=ey[:, 0])
        np.subtract(phi[:, -1], phi[:, -2], out=ey[:, -1])
        ex /= self._field_div[0]
        ey /= self._field_div[1]
        return ex, ey

    # ------------------------------------------------------------------
    def _gather(self, field, stencil):
        """Bilinear field interpolation reusing the splat stencil weights."""
        base, w00, w10, w01, w11 = stencil
        nb = self.nb
        flat = field.reshape(-1)
        return (
            np.take(flat, base) * w00
            + np.take(flat, base + nb) * w10
            + np.take(flat, base + 1) * w01
            + np.take(flat, base + nb + 1) * w11
        )

    def _empty_result(self) -> DensityResult:
        """Explicit zero-movable-area early-out.

        Without movable area there is no force, no energy, and - by
        convention - no overflow (nothing can be moved to resolve it),
        so the result is exact zeros rather than whatever the
        ``1e-12``-clamped normalisation would produce.
        """
        rho = (
            self._fixed_rho
            if self._fixed_rho is not None
            else np.zeros((self.nb, self.nb), dtype=np.float64)
        )
        return DensityResult(
            energy=0.0,
            overflow=0.0,
            grad_x=np.zeros(self.design.n_cells, dtype=np.float64),
            grad_y=np.zeros(self.design.n_cells, dtype=np.float64),
            density=rho / self.bin_area,
            potential=None,
        )

    # ------------------------------------------------------------------
    def evaluate(self, x: np.ndarray, y: np.ndarray) -> DensityResult:
        """Density energy, overflow and per-cell gradient at (x, y)."""
        if self.movable_area_total <= 0.0:
            return self._empty_result()
        rho, stencil = self._splat(x, y)
        phi = self._solve_poisson(rho)
        ex, ey = self._field(phi)
        grad_x = np.zeros(self.design.n_cells, dtype=np.float64)
        grad_y = np.zeros(self.design.n_cells, dtype=np.float64)
        grad_x[self.movable] = -self._gather(ex, stencil)
        grad_y[self.movable] = -self._gather(ey, stencil)
        energy = 0.5 * float(np.sum(rho / self.bin_area * phi)) * self.bin_area
        capacity = self.target_density * self.bin_area
        overflow = float(np.maximum(rho - capacity, 0.0).sum())
        overflow /= self.movable_area_total
        return DensityResult(
            energy=energy,
            overflow=overflow,
            grad_x=grad_x,
            grad_y=grad_y,
            density=rho / self.bin_area,
            potential=phi,
        )

    @property
    def bin_size(self) -> float:
        return 0.5 * (self.hx + self.hy)
