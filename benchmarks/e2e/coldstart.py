"""Set-up child of the end-to-end benchmark: one cold start.

``run.py`` starts this file in a fresh interpreter with one JSON
argument and reads one JSON line back.  What it times is what a user
pays once per design: interpreter start, ``import repro`` and
``load_bundle`` into an *empty* cache directory (generation,
``TimingGraph`` levelisation, bundle write).

The speed reference (``calibrate.py``) marks before the imports, between
imports and load, and after the load (marks ahead of generation and of
levelisation too took 8.8% spread to 7.9%, not worth the two hooks);
its kernel runs are not counted,
and neither is building the kernel.  The clock is ``time.monotonic()``,
which is system-wide, so the window opens when the parent spawned us.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402  (NumPy and scipy.fft, which repro imports too)
from workloads import BY_NAME  # noqa: E402


def main(argv) -> int:
    args = json.loads(argv[1])
    workload = BY_NAME[args["workload"]]
    cal = calibrate.Calibrator.for_kernel(
        workload.kernel + "-cold", clock=time.monotonic
    )
    cal.mark()
    cal.mark()

    import child  # the program: repro and everything it imports

    cal.mark()
    _, info = child.load_bundle(
        child.spec_for(workload, args["seed"], args["index"]),
        directory=args["cache_dir"],
    )
    done = time.monotonic()
    if info.hit:
        raise RuntimeError(f"cache dir {args['cache_dir']} was not empty")
    cal.mark()
    cal.mark()
    busy, reference = cal.seconds(args["spawned"], done)
    share = (busy - cal.build_s) / busy
    print(json.dumps({"wall_s": busy * share, "setup_s": reference * share}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
