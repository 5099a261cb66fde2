"""Nonlinear global placement driver (the DREAMPlace substrate).

Implements the wirelength + density optimization of Equation (3) of the
paper: weighted-average wirelength, electrostatic density with a scheduled
penalty weight, Nesterov optimization, and a density-overflow stopping
criterion.  Two extension hooks make it the shared engine for all three
placers compared in Table 3:

- ``net_weight_fn(iteration, x, y)`` may return updated per-net weights
  (the net-weighting baseline of [24]);
- ``extra_grad_fn(iteration, x, y)`` may return an additional objective
  gradient plus metrics (the differentiable timing objective, Eq. (6)).

The driver runs inside the guarded runtime of :mod:`repro.runtime`:

- ``PlacerOptions.validate`` runs structural design validation before
  iteration 0 and refuses to start on a design with errors;
- each objective term's gradient passes through a
  :class:`~repro.runtime.guard.NumericalGuard` - a non-finite term is
  quarantined for the iteration (zero contribution, counted and logged)
  instead of being silently ``nan_to_num``-ed, and persistent faults
  escalate through step-shrink retries to checkpoint rollback;
- ``PlacerOptions.checkpoint_every`` serializes the complete optimizer
  state periodically; ``resume_from`` restarts a run from such a file and
  reproduces the remaining trajectory bit for bit;
- seeded faults from ``REPRO_INJECT_FAULT`` (see
  :mod:`repro.runtime.faults`) are armed for the duration of the run so
  the recovery paths above can be exercised deterministically.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from ..netlist.design import Design
from ..runtime.checkpoint import (
    CheckpointManager,
    PlacerCheckpoint,
    load_checkpoint,
)
from ..runtime.faults import FaultInjector, FaultSpec, armed as _faults_armed
from ..runtime.guard import LOGGER, NumericalGuard
from ..runtime.validate import (
    DesignValidationError,
    ValidationReport,
    validate_design,
)
from ..telemetry.events import current_recorder
from .density import DensityModel
from .optimizer import NesterovOptimizer
from .wirelength import WAWirelength

__all__ = ["PlacerOptions", "PlacerResult", "GlobalPlacer"]

ExtraGradFn = Callable[[int, np.ndarray, np.ndarray], Optional[Tuple]]
NetWeightFn = Callable[[int, np.ndarray, np.ndarray], Optional[np.ndarray]]

#: Wirelength smoothing at full overflow, in bin sizes.
GAMMA_BASE_FACTOR = 4.0
#: Initial density weight as a ratio of the two gradient norms.
LAMBDA_INIT_RATIO = 5e-4
#: Per-iteration growth of the density weight while overflow shrinks.
LAMBDA_MULT = 1.05
LAMBDA_MAX = 1e6


def _auto_bins(design: Design) -> int:
    """Grid resolution with bins no finer than the average movable cell.

    Point (cloud-in-cell) density deposition cannot resolve overlap below
    the bin scale, so bins finer than a cell make the density field noisy
    and stall spreading.
    """
    movable = ~design.cell_fixed
    areas = (design.cell_w * design.cell_h)[movable]
    avg_dim = float(np.sqrt(areas.mean())) if len(areas) else 1.0
    xl, yl, xh, yh = design.die
    span = 0.5 * ((xh - xl) + (yh - yl))
    n_bins = 2 ** int(np.floor(np.log2(max(span / max(avg_dim, 1e-9), 8.0))))
    return int(np.clip(n_bins, 8, 256))


@dataclass
class PlacerOptions:
    """Tuning knobs of the global placer."""

    n_bins: Optional[int] = None  # None = auto: bin size ~ avg cell size
    target_density: float = 1.0
    max_iters: int = 500
    min_iters: int = 40
    stop_overflow: float = 0.08
    lr_fraction: float = 0.05  # initial step as fraction of die span
    noise_fraction: float = 0.02  # initial spread of movable cells
    seed: int = 0
    verbose: bool = False
    # ------------------------------------------------------------------
    # Guarded runtime (repro.runtime)
    # ------------------------------------------------------------------
    validate: bool = False  # structural design validation before iter 0
    guard_retry_limit: int = 3  # consecutive quarantines before escalating
    max_recoveries: int = 2  # step-shrink retries / rollbacks per run
    checkpoint_every: int = 0  # 0 = checkpointing off
    checkpoint_dir: Optional[str] = None  # None = runtime.CHECKPOINT_DIR
    resume_from: Optional[str] = None  # checkpoint path to restart from


@dataclass
class PlacerResult:
    """Final placement plus the per-iteration trace."""

    x: np.ndarray
    y: np.ndarray
    iterations: int
    runtime: float
    stop_reason: str
    trace: List[Dict[str, float]] = field(default_factory=list)
    hpwl: float = 0.0
    overflow: float = 0.0
    #: Per-term non-finite/exception event counts from the numerical guard
    #: (empty when nothing went wrong).
    nonfinite_events: Dict[str, int] = field(default_factory=dict)
    #: Number of iterations on which at least one term was quarantined.
    quarantined_iterations: int = 0
    #: Step-shrink retries + checkpoint rollbacks taken during the run.
    recoveries: int = 0
    #: Validation report when ``PlacerOptions.validate`` was on.
    validation: Optional[ValidationReport] = None
    #: Messages from the fault injector (non-empty only under injection).
    fault_log: List[str] = field(default_factory=list)

    def series(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """Extract (iteration, value) arrays for one traced metric.

        Always-traced keys: ``hpwl``, ``overflow``, ``lambda``.  Runs
        with the timing objective additionally trace ``tns_smoothed``,
        ``wns_smoothed``, ``tns_frac``, ``wns_frac``, ``lse_saturation``
        and ``rsmt_cache_hit`` (and, with golden-STA sampling on,
        periodic ``wns``/``tns``).  The same keys appear as ``metrics``
        of the telemetry stream's ``iteration`` events.

        Raises :class:`KeyError` naming the available keys when ``key``
        was never traced (a silent empty series usually means a typo).
        """
        its = [t["iteration"] for t in self.trace if key in t]
        if not its:
            available = sorted(
                {k for t in self.trace for k in t} - {"iteration"}
            )
            raise KeyError(
                f"metric {key!r} was never traced; "
                f"available keys: {available}"
            )
        vals = [t[key] for t in self.trace if key in t]
        return np.asarray(its), np.asarray(vals)


class GlobalPlacer:
    """Analytical global placer with timing extension hooks."""

    def __init__(
        self,
        design: Design,
        options: Optional[PlacerOptions] = None,
        extra_grad_fn: Optional[ExtraGradFn] = None,
        net_weight_fn: Optional[NetWeightFn] = None,
        state_providers: Optional[Dict[str, Any]] = None,
        validation_graph: Optional[Any] = None,
    ) -> None:
        self.design = design
        self.options = options if options is not None else PlacerOptions()
        self.extra_grad_fn = extra_grad_fn
        self.net_weight_fn = net_weight_fn
        #: Named objects with ``get_state()``/``set_state()`` whose state
        #: rides along in checkpoints (e.g. the timing objective's Steiner
        #: forest and ramp counters), keeping resumes bit-identical.
        self.state_providers: Dict[str, Any] = dict(state_providers or {})
        #: Pre-built timing graph handed to validation (proves acyclicity
        #: without a second levelisation).
        self.validation_graph = validation_graph
        #: Injection override for tests; None = read ``REPRO_INJECT_FAULT``.
        self.fault_injector: Optional[FaultInjector] = None
        self.wirelength = WAWirelength(design)
        n_bins = self.options.n_bins
        if n_bins is None:
            n_bins = _auto_bins(design)
        self.density = DensityModel(
            design, n_bins, self.options.target_density
        )
        self.movable = ~design.cell_fixed
        #: L1 norm of the latest wirelength gradient; extra-gradient hooks
        #: may read this to normalise their own magnitude.
        self.last_wl_grad_l1 = 0.0
        #: Density overflow at the latest iteration (for hook feedback).
        self.last_overflow = 1.0
        # Preconditioner: pins per cell (wirelength Hessian proxy).
        self.cell_pin_count = np.bincount(
            design.pin2cell, minlength=design.n_cells
        ).astype(np.float64)

    # ------------------------------------------------------------------
    def initial_positions(
        self, rng: Optional[np.random.Generator] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Movable cells near the die center with a small random spread."""
        design = self.design
        if rng is None:
            rng = np.random.default_rng(self.options.seed)
        xl, yl, xh, yh = design.die
        cx, cy = 0.5 * (xl + xh), 0.5 * (yl + yh)
        x = design.cell_x.copy()
        y = design.cell_y.copy()
        n_mov = int(self.movable.sum())
        span = self.options.noise_fraction
        x[self.movable] = cx + rng.uniform(-span, span, n_mov) * (xh - xl)
        y[self.movable] = cy + rng.uniform(-span, span, n_mov) * (yh - yl)
        return x, y

    def _gamma(self, overflow: float) -> float:
        """Wirelength smoothing schedule: tight when nearly spread."""
        base = GAMMA_BASE_FACTOR * self.density.bin_size
        return base * (0.1 + 0.9 * min(max(overflow, 0.0), 1.0))

    # ------------------------------------------------------------------
    def run(
        self,
        x0: Optional[np.ndarray] = None,
        y0: Optional[np.ndarray] = None,
    ) -> PlacerResult:
        """Run global placement to the overflow stop criterion."""
        design = self.design
        opts = self.options
        start_time = time.perf_counter()

        validation: Optional[ValidationReport] = None
        if opts.validate:
            validation = validate_design(design, graph=self.validation_graph)
            if not validation.ok:
                raise DesignValidationError(validation)

        guard = NumericalGuard()
        injector = self.fault_injector
        if injector is None:
            injector = FaultInjector(FaultSpec.from_env())
        recorder = current_recorder()

        n = design.n_cells
        xl, yl, xh, yh = design.die
        die_span = 0.5 * ((xh - xl) + (yh - yl))
        # Both the iterate and the Nesterov lookahead point are projected
        # into the die: gradients (in particular the timing objective) are
        # evaluated at the lookahead, which must stay physical.  Fixed
        # cells never move (zero gradient), so clipping cannot shift them.
        lo = np.concatenate([np.full(n, xl), np.full(n, yl)])
        hi = np.concatenate([np.full(n, xh), np.full(n, yh)])
        movable2 = np.concatenate([self.movable, self.movable])

        manager = CheckpointManager(
            directory=opts.checkpoint_dir,
            prefix=f"{design.name}_nesterov",
            every=opts.checkpoint_every,
        )

        rng = np.random.default_rng(opts.seed)
        resume_cp: Optional[PlacerCheckpoint] = None
        if opts.resume_from:
            resume_cp = load_checkpoint(opts.resume_from)

        if resume_cp is not None:
            pos = resume_cp.pos.copy()
            optimizer = NesterovOptimizer(
                pos, lr=opts.lr_fraction * die_span, bounds=(lo, hi)
            )
            optimizer.set_state(resume_cp.optimizer)
            rng.bit_generator.state = resume_cp.rng_state
            lam = resume_cp.lam
            net_weights = resume_cp.net_weights.copy()
            overflow = float(resume_cp.overflow)
            prev_overflow = float(resume_cp.prev_overflow)
            best_overflow = float(resume_cp.best_overflow)
            best_pos = resume_cp.best_pos.copy()
            recent_hpwl = list(resume_cp.recent_hpwl)
            start_iter = int(resume_cp.iteration)
            guard.set_state(resume_cp.guard_state)
            injector.set_state(resume_cp.injector_state)
            for name, provider in self.state_providers.items():
                if name in resume_cp.extra:
                    provider.set_state(resume_cp.extra[name])
        else:
            if x0 is None or y0 is None:
                x, y = self.initial_positions(rng)
            else:
                x, y = x0.copy(), y0.copy()
            pos = np.concatenate([x, y])
            optimizer = NesterovOptimizer(
                pos, lr=opts.lr_fraction * die_span, bounds=(lo, hi)
            )
            lam = None
            net_weights = np.ones(design.n_nets)
            overflow = 1.0
            prev_overflow = 1.0
            best_overflow = np.inf
            best_pos = pos.copy()
            recent_hpwl = []
            start_iter = 0

        if recorder is not None:
            if resume_cp is not None:
                # Events the restarted trajectory will re-emit are
                # dropped so the stream keeps one duplicate-free history.
                recorder.truncate_from(start_iter)
            recorder.event(
                "run_start",
                iteration=start_iter,
                design=design.name,
                seed=opts.seed,
                max_iters=opts.max_iters,
                resumed=resume_cp is not None,
            )

        trace: List[Dict[str, float]] = []
        stop_reason = "max_iters"
        iteration = start_iter
        last_iteration = start_iter - 1
        quarantined_iters = 0
        retries = 0  # step-shrink escalations taken
        rollbacks = 0  # checkpoint rollbacks taken

        def make_checkpoint() -> PlacerCheckpoint:
            return PlacerCheckpoint(
                design=design.name,
                iteration=iteration,
                pos=pos.copy(),
                optimizer=optimizer.get_state(),
                lam=lam,
                net_weights=net_weights.copy(),
                overflow=float(overflow),
                prev_overflow=float(prev_overflow),
                best_overflow=float(best_overflow),
                best_pos=best_pos.copy(),
                recent_hpwl=list(recent_hpwl),
                rng_state=rng.bit_generator.state,
                guard_state=guard.get_state(),
                injector_state=injector.get_state(),
                extra={
                    name: provider.get_state()
                    for name, provider in self.state_providers.items()
                },
            )

        def restore_checkpoint(cp: PlacerCheckpoint) -> None:
            """Roll the whole optimization back to a saved state."""
            nonlocal pos, lam, net_weights, overflow, prev_overflow
            nonlocal best_overflow, best_pos, recent_hpwl, iteration
            pos = cp.pos.copy()
            optimizer.set_state(cp.optimizer)
            lam = cp.lam
            net_weights = cp.net_weights.copy()
            overflow = float(cp.overflow)
            prev_overflow = float(cp.prev_overflow)
            best_overflow = float(cp.best_overflow)
            best_pos = cp.best_pos.copy()
            recent_hpwl = list(cp.recent_hpwl)
            rng.bit_generator.state = cp.rng_state
            for name, provider in self.state_providers.items():
                if name in cp.extra:
                    provider.set_state(cp.extra[name])
            iteration = int(cp.iteration)

        with _faults_armed(injector):
            while iteration < opts.max_iters:
                last_iteration = iteration
                injector.begin_iteration(iteration)
                if manager.enabled:
                    manager.maybe_save(iteration, make_checkpoint)

                pos_eval = optimizer.params
                x_eval = pos_eval[:n]
                y_eval = pos_eval[n:]

                if self.net_weight_fn is not None:
                    updated = self.net_weight_fn(iteration, x_eval, y_eval)
                    if updated is not None:
                        net_weights = updated

                gamma = self._gamma(overflow)
                _, gwx, gwy = self.wirelength.evaluate(
                    x_eval, y_eval, gamma, net_weights
                )
                injector.corrupt_grad("wirelength", gwx, gwy)
                healthy = guard.check_term("wirelength", iteration, gwx, gwy)

                dres = self.density.evaluate(x_eval, y_eval)
                injector.corrupt_grad("density", dres.grad_x, dres.grad_y)
                density_ok = guard.check_term(
                    "density", iteration, dres.grad_x, dres.grad_y
                )
                healthy &= density_ok
                if density_ok and np.isfinite(dres.overflow):
                    overflow = dres.overflow
                # else: quarantined - keep the previous overflow

                if lam is None and healthy:
                    wl_norm = float(np.abs(gwx).sum() + np.abs(gwy).sum())
                    d_norm = float(
                        np.abs(dres.grad_x).sum() + np.abs(dres.grad_y).sum()
                    )
                    lam = LAMBDA_INIT_RATIO * wl_norm / max(d_norm, 1e-12)
                lam_eff = lam if lam is not None else 0.0

                grad_x = gwx + lam_eff * dres.grad_x
                grad_y = gwy + lam_eff * dres.grad_y

                extra_metrics: Dict[str, float] = {}
                if self.extra_grad_fn is not None:
                    self.last_wl_grad_l1 = float(
                        np.abs(gwx).sum() + np.abs(gwy).sum()
                    )
                    self.last_overflow = overflow
                    try:
                        extra = self.extra_grad_fn(iteration, x_eval, y_eval)
                    except Exception as exc:
                        guard.record_exception("timing", iteration, exc)
                        healthy = False
                        extra = None
                    if extra is not None:
                        egx, egy, extra_metrics = extra
                        injector.corrupt_grad("timing", egx, egy)
                        healthy &= guard.check_term(
                            "timing", iteration, egx, egy
                        )
                        grad_x = grad_x + egx
                        grad_y = grad_y + egy

                precond = self.cell_pin_count + lam_eff * self.density.area
                precond = np.maximum(precond, 1.0)
                grad = np.concatenate([grad_x / precond, grad_y / precond])
                grad[~movable2] = 0.0
                guard.scrub("combined", iteration, grad)

                if not healthy:
                    quarantined_iters += 1
                    if guard.worst_consecutive() >= opts.guard_retry_limit:
                        # Persistent fault: escalate.  First drop momentum
                        # and shrink the step bound (stale Nesterov state is
                        # the usual amplifier), then roll back to the best
                        # checkpoint; out of options, keep quarantining (the
                        # run degrades to its healthy terms).
                        if retries < opts.max_recoveries:
                            LOGGER.warning(
                                "iteration %d: %d consecutive quarantines; "
                                "dropping momentum and shrinking step bound",
                                iteration, guard.worst_consecutive(),
                            )
                            optimizer.restart()
                            guard.reset_consecutive()
                            retries += 1
                            if recorder is not None:
                                recorder.event(
                                    "recovery",
                                    iteration=iteration,
                                    action="optimizer_restart",
                                )
                        elif (
                            rollbacks < opts.max_recoveries
                            and manager.best_path() is not None
                        ):
                            cp = manager.load_best()
                            LOGGER.warning(
                                "iteration %d: persistent fault; rolling "
                                "back to checkpoint at iteration %d",
                                iteration, cp.iteration,
                            )
                            if recorder is not None:
                                # iteration=None keeps the recovery record
                                # out of reach of iteration truncation.
                                recorder.event(
                                    "recovery",
                                    action="checkpoint_rollback",
                                    fault_iteration=iteration,
                                    target_iteration=cp.iteration,
                                )
                            restore_checkpoint(cp)
                            optimizer.restart()
                            guard.reset_consecutive()
                            rollbacks += 1
                            if recorder is not None:
                                recorder.truncate_from(iteration)
                            continue

                # Inside the die: the optimizer projects onto (lo, hi).
                pos = optimizer.step(grad)

                # Adaptive density-weight schedule: grow at the full rate
                # only while the overflow is actually shrinking; otherwise
                # creep.  Unconditional exponential growth makes the density
                # term arbitrarily stiff and eventually shakes the
                # placement apart.
                if lam is not None:
                    if overflow < prev_overflow - 1e-4:
                        lam = min(lam * LAMBDA_MULT, LAMBDA_MAX)
                    else:
                        lam = min(
                            lam * (1.0 + 0.25 * (LAMBDA_MULT - 1.0)),
                            LAMBDA_MAX,
                        )
                prev_overflow = overflow

                if overflow < best_overflow:
                    best_overflow = overflow
                    best_pos = pos.copy()
                elif (
                    overflow > best_overflow + 0.4
                    and iteration > opts.min_iters
                ):
                    # The trajectory exploded well past its best point.
                    # With checkpoints on hand, roll back and retry with a
                    # shrunken step; otherwise bail out and report the best
                    # iterate seen.
                    cp = manager.load_best() if manager.enabled else None
                    if cp is not None and rollbacks < opts.max_recoveries:
                        LOGGER.warning(
                            "iteration %d: overflow %.3f diverged past best "
                            "%.3f; rolling back to checkpoint at iteration %d",
                            iteration, overflow, best_overflow, cp.iteration,
                        )
                        if recorder is not None:
                            recorder.event(
                                "recovery",
                                action="checkpoint_rollback",
                                fault_iteration=iteration,
                                target_iteration=cp.iteration,
                            )
                        restore_checkpoint(cp)
                        optimizer.restart()
                        guard.reset_consecutive()
                        rollbacks += 1
                        if recorder is not None:
                            recorder.truncate_from(iteration)
                        continue
                    pos = best_pos
                    stop_reason = "diverged"
                    if recorder is not None:
                        recorder.event(
                            "recovery",
                            iteration=iteration,
                            action="diverged_stop",
                        )
                    break

                current_hpwl = self.wirelength.hpwl(pos[:n], pos[n:])
                # Divergence guard: Nesterov with Barzilai-Borwein steps can
                # blow up when the density field is noisy.  Normal spreading
                # grows HPWL by a few percent per iteration, so a jump well
                # above the recent median marks a blowup - drop momentum and
                # shrink the step bound, keeping the last stable iterate.
                recent_hpwl.append(current_hpwl)
                if len(recent_hpwl) > 20:
                    recent_hpwl.pop(0)
                if (
                    len(recent_hpwl) == 20
                    and current_hpwl > 4.0 * statistics.median(recent_hpwl)
                ):
                    optimizer.restart()
                    pos = optimizer.params
                    current_hpwl = self.wirelength.hpwl(pos[:n], pos[n:])
                    recent_hpwl.clear()

                entry = {
                    "iteration": float(iteration),
                    "hpwl": current_hpwl,
                    "overflow": overflow,
                    "lambda": lam_eff,
                }
                entry.update(extra_metrics)
                trace.append(entry)
                if recorder is not None:
                    recorder.iteration(
                        iteration,
                        {k: v for k, v in entry.items() if k != "iteration"},
                    )
                if opts.verbose and iteration % 50 == 0:
                    print(
                        f"iter {iteration:4d} hpwl {entry['hpwl']:.3e} "
                        f"overflow {overflow:.3f}"
                    )

                if (
                    iteration >= opts.min_iters
                    and overflow < opts.stop_overflow
                ):
                    stop_reason = "overflow"
                    break

                iteration += 1

        x_final = pos[:n].copy()
        y_final = pos[n:].copy()
        runtime = time.perf_counter() - start_time
        final_hpwl = self.wirelength.hpwl(x_final, y_final)
        if recorder is not None:
            recorder.event(
                "run_end",
                iteration=last_iteration,
                stop_reason=stop_reason,
                iterations=last_iteration + 1,
                hpwl=final_hpwl,
                overflow=overflow,
                runtime=runtime,
                recoveries=retries + rollbacks,
                quarantined_iterations=quarantined_iters,
                nonfinite_events=guard.summary(),
            )
        return PlacerResult(
            x=x_final,
            y=y_final,
            iterations=last_iteration + 1,
            runtime=runtime,
            stop_reason=stop_reason,
            trace=trace,
            hpwl=final_hpwl,
            overflow=overflow,
            nonfinite_events=guard.summary(),
            quarantined_iterations=quarantined_iters,
            recoveries=retries + rollbacks,
            validation=validation,
            fault_log=list(injector.log),
        )
