"""Command-line front end: ``python -m repro.analysis [paths...]``.

Lints ``paths`` (default: ``src`` and ``benchmarks``) and prints one
line per finding plus a summary.  ``--list-rules`` prints the rule
catalogue instead.

Exit codes: ``0`` - no findings; ``1`` - at least one finding.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from .core import META_RULES, RULE_REGISTRY, find_repo_root, load_rules, run_analysis

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="reprolint: per-file invariant checks for this repo",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src, benchmarks)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repo root (default: auto-detected from cwd)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)

    if args.list_rules:
        load_rules()
        for rule_id in sorted(RULE_REGISTRY):
            print(f"{rule_id}: {RULE_REGISTRY[rule_id].description}")
        for rule_id in sorted(META_RULES):
            print(f"{rule_id} (meta): {META_RULES[rule_id]}")
        return 0

    root = os.path.abspath(args.root) if args.root else find_repo_root()
    report = run_analysis(root, paths=args.paths or None)
    for finding in report.findings:
        print(f"{finding.location()}: [{finding.rule}] {finding.message}")
        if finding.snippet:
            print(f"    {finding.snippet}")
    print(
        f"reprolint v{report.rules_version}: {report.files_checked} files, "
        f"{len(report.findings)} finding(s), "
        f"{report.suppressed_count} suppressed"
    )
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
