"""Make the benchmark's own modules importable (they are scripts, not a package)."""

import os
import sys

E2E_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, E2E_DIR)
