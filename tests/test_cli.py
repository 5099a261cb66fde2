"""Tests for the command-line interface (``python -m repro``)."""

import os
import re
import shlex
import subprocess
import sys

import pytest

import repro
from repro.__main__ import build_parser
from repro.__main__ import main as repro_main

_README = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md"
)


@pytest.fixture(scope="module")
def bundle_dir(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cli_bundle"))
    code = repro_main(
        [
            "generate",
            "--cells", "150",
            "--depth", "6",
            "--seed", "3",
            "--name", "clitest",
            "--out", path,
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_bundle_files_exist(self, bundle_dir):
        for ext in ("v", "lib", "sdc", "def"):
            assert os.path.exists(os.path.join(bundle_dir, f"clitest.{ext}"))
        assert os.path.exists(os.path.join(bundle_dir, "design.json"))


class TestSta:
    def test_report_printed(self, bundle_dir, capsys):
        code = repro_main(["sta", "--bundle", bundle_dir, "--hold"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Timing report" in out
        assert "hold:" in out

    def test_propagated_clock_flag(self, bundle_dir, capsys):
        code = repro_main(
            ["sta", "--bundle", bundle_dir, "--propagated-clock"]
        )
        assert code == 0
        assert "clock skew" in capsys.readouterr().out

    def test_paths_flag(self, bundle_dir, capsys):
        code = repro_main(["sta", "--bundle", bundle_dir, "--paths", "2"])
        assert code == 0
        assert capsys.readouterr().out.count("Path to") == 2

    def test_d2m_model(self, bundle_dir, capsys):
        code = repro_main(
            ["sta", "--bundle", bundle_dir, "--wire-model", "d2m"]
        )
        assert code == 0


class TestPlace:
    def test_place_writes_updated_bundle(self, bundle_dir, tmp_path, capsys):
        out = str(tmp_path / "placed")
        code = repro_main(
            [
                "place",
                "--bundle", bundle_dir,
                "--mode", "dreamplace",
                "--max-iters", "150",
                "--out", out,
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "legalized" in text
        assert os.path.exists(os.path.join(out, "clitest.def"))

    def test_invalid_mode_rejected(self, bundle_dir):
        with pytest.raises(SystemExit):
            repro_main(["place", "--bundle", bundle_dir, "--mode", "magic"])


class TestHarnessCli:
    def test_table2_only(self, capsys):
        # Run with a single tiny design to keep this test fast.
        code = repro_main(
            ["table3", "--designs", "miniblue18", "--max-iters", "120"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "miniblue18" in out
        assert "Avg. Ratio" in out

    def test_repro_harness_runs_the_same_parser(self):
        def help_text(module):
            env = dict(os.environ)
            env["PYTHONPATH"] = os.path.dirname(
                os.path.dirname(os.path.abspath(repro.__file__))
            )
            return subprocess.run(
                [sys.executable, "-m", module, "--help"],
                capture_output=True, text=True, check=True, env=env,
            ).stdout

        assert help_text("repro.harness") == help_text("repro")


def _readme_commands():
    """Every ``python -m repro[.harness] ...`` line in README's fenced
    blocks, with ``\\`` continuations joined, as argv lists."""
    with open(_README) as handle:
        lines = handle.read().splitlines()
    commands = []
    in_block = False
    pending = ""
    for line in lines:
        if line.startswith("```"):
            in_block = not in_block
            continue
        if not in_block:
            continue
        line = pending + line.strip()
        if line.endswith("\\"):
            pending = line[:-1] + " "
            continue
        pending = ""
        match = re.search(r"python -m repro(\.harness)?\s(.*)", line)
        if match:
            commands.append(shlex.split(match.group(2), comments=True))
    return commands


class TestReadmeCommands:
    def test_readme_has_cli_examples(self):
        assert len(_readme_commands()) >= 10

    @pytest.mark.parametrize(
        "argv", _readme_commands(), ids=lambda argv: " ".join(argv)[:60]
    )
    def test_readme_line_parses(self, argv):
        """Parse only: argparse validates subcommands, flags, choices
        and types without running anything."""
        args = build_parser().parse_args(argv)
        assert callable(args.func)
