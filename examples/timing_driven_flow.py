"""End-to-end physical design flow on a generated benchmark.

Covers the full substrate the reproduction builds:

1. generate a synthetic sequential design,
2. export/reimport the library (Liberty) and constraints (SDC), and save
   the whole design as an ICCAD 2015-style bundle (Verilog + Liberty +
   SDC + DEF) to show the interchange formats,
3. run differentiable-timing-driven global placement,
4. legalize and refine,
5. evaluate with the golden STA (setup + hold) and print a timing report.

Run:  python examples/timing_driven_flow.py
"""

import os
import tempfile

import numpy as np

from repro.core import TimingDrivenPlacer, TimingPlacerOptions
from repro.netlist import (
    GeneratorSpec,
    generate_design,
    load_design_bundle,
    parse_liberty,
    parse_sdc,
    save_design,
    write_liberty,
    write_sdc,
)
from repro.place import PlacerOptions, greedy_refine, hpwl, legalize, max_overlap
from repro.sta import format_path, run_sta, worst_paths


def main():
    # ------------------------------------------------------------------
    # 1. Generate the design.
    # ------------------------------------------------------------------
    spec = GeneratorSpec(name="flowdemo", n_cells=600, depth=14, seed=42)
    design = generate_design(spec)
    print(f"Generated {design}; die = {design.die}, "
          f"clock period = {design.constraints.clock_period:.0f} ps")

    # ------------------------------------------------------------------
    # 2. Interchange formats round-trip.
    # ------------------------------------------------------------------
    with tempfile.TemporaryDirectory() as tmp:
        lib_text = write_liberty(design.library)
        sdc_text = write_sdc(design.constraints)
        parse_liberty(lib_text)
        parse_sdc(sdc_text)
        save_design(design, tmp)
        print(f"Exported Liberty ({len(lib_text.splitlines())} lines), "
              f"SDC ({len(sdc_text.splitlines())} lines), "
              f"bundle {sorted(os.listdir(tmp))}")

        # --------------------------------------------------------------
        # 3. Timing-driven global placement.
        # --------------------------------------------------------------
        placer = TimingDrivenPlacer(
            design, TimingPlacerOptions(placer=PlacerOptions(max_iters=600))
        )
        gp = placer.run()
        print(f"\nGlobal placement: {gp.iterations} iterations "
              f"({gp.stop_reason}), overflow = {gp.overflow:.3f}, "
              f"HPWL = {gp.hpwl:.0f} um")

        # --------------------------------------------------------------
        # 4. Legalization + detailed refinement.
        # --------------------------------------------------------------
        lx, ly = legalize(design, gp.x, gp.y)
        rx, ry = greedy_refine(design, lx, ly, passes=1)
        assert max_overlap(design, rx, ry) < 1e-9
        print(f"Legalized: HPWL = {hpwl(design, rx, ry):.0f} um "
              f"(+{100 * (hpwl(design, rx, ry) / gp.hpwl - 1):.1f}% vs GP), "
              f"no overlaps")

        # Save/reload the final placement through the bundle's DEF
        # (1000 database units per micron).
        final = os.path.join(tmp, "final")
        save_design(design, final, rx, ry)
        _, rx2, ry2 = load_design_bundle(final)
        assert np.allclose(rx2, rx, atol=1e-3) and np.allclose(ry2, ry, atol=1e-3)

        # --------------------------------------------------------------
        # 5. Sign-off style evaluation.
        # --------------------------------------------------------------
        result = run_sta(design, rx, ry, compute_hold=True)
        print(f"\nFinal timing (golden STA, after legalization):")
        print(f"  setup: WNS = {result.wns_setup:9.1f} ps   "
              f"TNS = {result.tns_setup:11.1f} ps")
        print(f"  hold:  WNS = {result.wns_hold:9.1f} ps   "
              f"TNS = {result.tns_hold:11.1f} ps")
        violations = int((result.endpoint_slack < 0).sum())
        print(f"  {violations}/{len(result.endpoint_slack)} endpoints violate setup")

        print("\nTop-2 critical paths:")
        for path in worst_paths(result, 2):
            print(format_path(path))
            print()


if __name__ == "__main__":
    main()
