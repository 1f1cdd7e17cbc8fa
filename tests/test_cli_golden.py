"""Byte-for-byte CLI output: exit code, stdout and stderr of fixed invocations.

The expected bytes live in cli_golden.json next to this file.  After a
change that is meant to alter some output, rewrite that file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff: every changed row is a change users see.
"""

import io
import json
import os
import sys

import pytest

from termirial.cli import main

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "cli_golden.json")

SOURCES = {
    "four": "n = 100\nfor i = 1 to n\nfor j = 1 to i\nfor k = 1 to j\nfor l = 1 to k\n",
    "one": "for i = 1 to n\n",
    "two": "for I = 1 TO n   # comment\n\tfor j = 1 to I\n",
    "bad-start": "for i = 2 to n\n",
    "unknown": "n = 5\nfor i = 1 to n\nfor j = 1 to k\n",
    "chain": "for i = 1 to n\nfor j = 1 to i\nfor k = 1 to i\n",
    "duplicate": "for i = 1 to n\nfor i = 1 to i\n",
    "long-literal": "n = " + "9" * 5000 + "\nfor i = 1 to n\n",
}

# (argv, name of the SOURCES entry fed on stdin, or None)
INVOCATIONS = [
    ("eval 100 3", None),
    ("eval 100 3 --pretty", None),
    ("eval 100 3 --json", None),
    ("eval 12 4 --oracle --pretty", None),
    ("eval 12 4 --oracle --json", None),
    ("eval 7 -1", None),
    ("eval 5 20000", None),
    ("eval 50 8 --oracle", None),
    ("eval 100000 3000", None),
    ("check pascal", None),
    ("check pascal --n 1..4 --p -1..2 --each", None),
    ("check pascal --n 3 --p 2 --json", None),
    ("check newton --n 1..3 --m 1..3 --p -1..2 --json --each", None),
    ("check split1 --n 2 --m 3", None),
    ("check split2 --n 1..3 --m 2..3 --each --pretty", None),
    ("check recurrence --n 1..10 --p 0..4 --json", None),
    ("check closedform --n 1..3 --p -1..2 --each", None),
    ("check pascal --m 1..5", None),
    ("check recurrence --n 1..1000 --p 0..999", None),
    ("enum 5 2", None),
    ("enum 5 3 --subsets", None),
    ("enum 6 3 --subsets --json", None),
    ("enum 20 10 --pretty", None),
    ("enum 5 6", None),
    ("enum 25 2", None),
    ("loops", "four"),
    ("loops --simulate --pretty", "four"),
    ("loops --simulate --json", "four"),
    ("loops --n 7", "one"),
    ("loops", "two"),
    ("loops --simulate", "one"),
    ("loops --simulate --budget 1000", "four"),
    ("loops", "bad-start"),
    ("loops", "unknown"),
    ("loops --json", "chain"),
    ("loops", "duplicate"),
    ("loops", "long-literal"),
    ("fractal 4 2", None),
    ("fractal 3 2 --format svg", None),
    ("fractal 4 1 --report", None),
    ("fractal 3 3 --json", None),
    ("fractal 4 500 --report-only --json", None),
    ("fractal 4 0 --report", None),
    ("fractal 4 500", None),
]


def row_id(argv: str, stdin: str | None) -> str:
    return argv if stdin is None else f"{argv} < {stdin}"


def run(argv: str, stdin: str | None) -> dict:
    """Run cli.main in this process and return its exit code and both streams."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out, err = io.StringIO(), io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(SOURCES[stdin] if stdin else ""), out, err
    try:
        code = main(argv.split())
    finally:
        sys.stdin, sys.stdout, sys.stderr = saved
    return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("argv, stdin", INVOCATIONS, ids=[row_id(*row) for row in INVOCATIONS])
def test_cli_bytes_match_the_golden_table(argv, stdin):
    assert run(argv, stdin) == load_golden()[row_id(argv, stdin)]


def test_golden_table_has_one_row_per_invocation():
    assert sorted(load_golden()) == sorted(row_id(*row) for row in INVOCATIONS)


if __name__ == "__main__":
    table = {row_id(*row): run(*row) for row in INVOCATIONS}
    with open(GOLDEN_PATH, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True, ensure_ascii=False)
        handle.write("\n")
    print(f"wrote {len(table)} rows to {GOLDEN_PATH}")
