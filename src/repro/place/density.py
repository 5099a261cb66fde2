"""Electrostatic density model (ePlace / DREAMPlace style).

Cell area is deposited onto a regular bin grid with cloud-in-cell
(bilinear) splatting; the resulting density map is treated as a charge
distribution and the Poisson equation ``lap(phi) = -(rho - rho_mean)`` is
solved spectrally with a type-II DCT (Neumann boundary, as in ePlace).
The negative potential gradient is the electric field; each movable cell
feels a force ``area * E`` interpolated at its center, which is the
density gradient used by the placer.  Density overflow - the stopping
metric of the paper's experiments - is measured on the same grid.

One evaluation is the compiled density pass ``density.c`` (built by
:mod:`repro.core.cbuild`) around SciPy's transforms: a C pre-pass (the
cloud-in-cell stencil, the splat, the fixed map, the density map, its
mean and the overflow), ``dctn``, a C divide by the Laplacian
eigenvalues, ``idctn``, and a C post-pass (the central-difference field,
the gather with the splat's stencil weights and the energy).  Results are
bit for bit those of the NumPy pipeline kept as the oracle in
``tests/reference_density.py``.  A movable cell at a NaN coordinate is a
``ValueError``; one at +-inf is clamped to the die's edge bins.

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

from ..core.cbuild import load_kernels
from ..netlist.design import Design

__all__ = ["DensityModel", "DensityResult"]

ffi, lib = load_kernels()


def _doubles(array: np.ndarray):
    return ffi.from_buffer("double[]", array)


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
        if n_bins < 2:
            raise ValueError(f"a density grid needs at least 2 bins a side, not {n_bins}")
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

        eigen_x = 2.0 - 2.0 * np.cos(np.pi * np.arange(n_bins) / n_bins)
        eigen_y = 2.0 - 2.0 * np.cos(np.pi * np.arange(n_bins) / n_bins)
        denom = (
            eigen_x[:, None] / (self.hx * self.hx)
            + eigen_y[None, :] / (self.hy * self.hy)
        )
        denom[0, 0] = 1.0  # DC mode is projected out before division

        # Divisors of the field's differences, negated (the field is
        # minus the gradient; dividing by -d flips exactly the sign):
        # two bins apart inside the grid, one at its two edges.
        def spans(h: float) -> np.ndarray:
            d = np.full(n_bins, -(2.0 * h))
            d[0] = d[-1] = -h
            return d

        self._cells = np.flatnonzero(self.movable)
        self._grid = grid = ffi.new("density_grid_t *")
        grid.nb, grid.xl, grid.yl, grid.hx, grid.hy = n_bins, xl, yl, self.hx, self.hy
        grid.top = n_bins - 1.000001
        grid.bin_area = self.bin_area
        grid.capacity = target_density * self.bin_area
        grid.movable_area = self.movable_area_total
        grid.n = len(self._cells)
        # The C views keep their arrays alive.
        self._keep = [
            ffi.from_buffer("int64_t[]", self._cells),
            _doubles(self.area),
            *(_doubles(t) for t in (denom, spans(self.hx), spans(self.hy))),
        ]
        grid.cell, grid.area, grid.denominator, grid.div_x, grid.div_y = self._keep

        # Fixed macro/port blockage: deposit fixed-cell area once.  Ports
        # and pads have zero area, so designs without real macros keep
        # the historical all-movable density map bit-for-bit.
        fixed = np.flatnonzero(design.cell_fixed & (self.area > 0.0))
        self._fixed_rho: Optional[np.ndarray] = None
        if len(fixed):
            rho = np.empty((n_bins, n_bins))
            x, y = self._operands(design.cell_x, design.cell_y)
            stencil, held = self._stencil(len(fixed))
            self._check(lib.density_splat(
                grid, len(fixed), ffi.from_buffer("int64_t[]", fixed),
                _doubles(x), _doubles(y), stencil, _doubles(rho),
            ))
            self._fixed_rho = rho
            self._keep.append(_doubles(rho))
            grid.fixed = self._keep[-1]

    # ------------------------------------------------------------------
    def _operands(self, x, y):
        """``x``, ``y`` as the C passes read them: contiguous float64, one
        value per cell.  Raises ``ValueError`` on any other length."""
        x = np.ascontiguousarray(x, dtype=np.float64)
        y = np.ascontiguousarray(y, dtype=np.float64)
        n = self.design.n_cells
        if x.shape != (n,) or y.shape != (n,):
            raise ValueError(
                f"cell coordinates of shape {x.shape} / {y.shape} for a "
                f"design of {n} cells"
            )
        return x, y

    def _check(self, bad: int) -> None:
        if bad >= 0:
            raise ValueError(
                f"cell {self.design.cell_name[bad]!r} (index {bad}) is at a "
                "NaN coordinate"
            )

    @staticmethod
    def _stencil(n: int):
        """A fresh ``stencil_t`` for ``n`` cells, and what keeps its
        arrays alive."""
        stencil = ffi.new("stencil_t *")
        keep = (
            ffi.from_buffer("int64_t[]", np.empty(n, dtype=np.int64)),
            _doubles(np.empty((4, n))),
        )
        stencil.base, stencil.weight = keep
        return stencil, keep

    def _prepass(self, x: np.ndarray, y: np.ndarray, stencil):
        """C: stencil, splat and fixed map -> (density, source, overflow)."""
        nb = self.nb
        density, source, overflow = np.empty((nb, nb)), np.empty((nb, nb)), np.empty(1)
        self._check(lib.density_prepass(
            self._grid, _doubles(x), _doubles(y), stencil,
            _doubles(density), _doubles(source), _doubles(overflow),
        ))
        return density, source, float(overflow[0])

    def _divide(self, coeff: np.ndarray) -> np.ndarray:
        """C: the coefficients divided by the Laplacian eigenvalues, in
        place, the DC term zeroed."""
        lib.density_divide(self._grid, _doubles(coeff))
        return coeff

    def _postpass(self, stencil, density: np.ndarray, phi: np.ndarray):
        """C: field, gather and energy -> (grad_x, grad_y, energy)."""
        n = self.design.n_cells
        grad_x, grad_y, energy = np.zeros(n), np.zeros(n), np.empty(1)
        lib.density_postpass(
            self._grid, stencil, _doubles(density), _doubles(phi),
            _doubles(np.empty((2, self.nb, self.nb))),
            _doubles(grad_x), _doubles(grad_y), _doubles(energy),
        )
        return grad_x, grad_y, float(energy[0])

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
        """Density energy, overflow and per-cell gradient at (x, y).

        Raises ``ValueError`` naming the first movable cell at a NaN
        coordinate, before any bin is written.
        """
        if self.movable_area_total <= 0.0:
            return self._empty_result()
        x, y = self._operands(x, y)
        stencil, held = self._stencil(len(self._cells))
        density, source, overflow = self._prepass(x, y, stencil)
        coeff = self._divide(dctn(source, type=2, norm="ortho"))
        phi = idctn(coeff, type=2, norm="ortho")
        grad_x, grad_y, energy = self._postpass(stencil, density, phi)
        return DensityResult(
            energy=energy,
            overflow=overflow,
            grad_x=grad_x,
            grad_y=grad_y,
            density=density,
            potential=phi,
        )

    @property
    def bin_size(self) -> float:
        return 0.5 * (self.hx + self.hy)
