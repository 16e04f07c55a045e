"""Byte guard for the CLI's printed numbers.

``tests/data/cli_golden.txt`` holds the stdout and exit code of the bound,
crossover and no-go commands, and ``render_sweep_csv(200)``.  A change that
means to alter printed bytes regenerates the file with

    python tests/test_cli_golden.py

and lists the changed lines.  ``variational`` is left out: its 11th and 12th
digits depend on the search's path, not only on the problem.
"""

import contextlib
import io
from pathlib import Path

import numpy as np

from dualent.cli import main, render_sweep_csv

GOLDEN = Path(__file__).parent / "data" / "cli_golden.txt"


def golden_commands() -> list[list[str]]:
    points = [*map(float, np.linspace(0.0, 1.0, 131)), 0.7071067812, 0.707106782]
    commands = [[name, "--a", repr(a)] for name in ("clone-bound", "delete-bound") for a in points]
    commands.append(["crossover"])
    for which in ("schmidt", "measure-forget", "distill"):
        commands.append(["nogo", which])
        commands += [["nogo", which, "--a", a] for a in ("0", "1e-11", "0.6", "1")]
    return commands


def render_golden() -> str:
    blocks = []
    for argv in golden_commands():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        blocks.append(f"$ dualent {' '.join(argv)}\n{out.getvalue()}exit {code}\n")
    blocks.append(f"$ render_sweep_csv(200)\n{render_sweep_csv(200)}")
    return "".join(blocks)


def test_cli_bytes_match_golden_file():
    expected = GOLDEN.read_text().splitlines()
    actual = render_golden().splitlines()
    changed = [(e, a) for e, a in zip(expected, actual) if e != a]
    assert (len(actual), changed[:5]) == (len(expected), [])


if __name__ == "__main__":
    GOLDEN.write_text(render_golden())
