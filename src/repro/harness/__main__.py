"""``python -m repro.harness``: an alias of ``python -m repro``."""
from ..__main__ import main

if __name__ == "__main__":
    raise SystemExit(main())
