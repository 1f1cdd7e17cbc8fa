"""Run a fixed grid of 244 extreme command lines and flag the ones that misbehave.

    python3 tools/extremes.py [--checkout PATH]

Each case is one `python -m termirial ...` process on the checkout's src/
(this repository by default), run at most two at a time and killed after
10 s.  The grid crosses `eval`, `fractal`, `fractal --report-only` and
`enum` with n in {0, 1, 10^6, 10^400 - 1, 10^4300 - 1} and p in {-1, 0, 1,
500, 10^4}, in text and under `--json` (200 cases), and adds 44
more: a large `check pascal` sweep, a `check split1` sweep of 1,001,000
tuples, one large `check recurrence` tuple, `eval <100 digits> 10000` in
text and `--json`, five small figures of high order (`fractal 4 250
--report-only`, `fractal 3 500 --report-only`, `fractal 2 501`, and the
text renders `fractal 4 250` and `fractal 3 500`, whose bands are the
shortest, so each row is composed from the most pieces), two staircase
renders near the default cell budget's edge (`fractal 100 3` and `fractal
60 4`), two SVG renders (`fractal 30 4 --format svg`, 278,256 cells filled
one slice per staircase and column, and `fractal 4 60 --format svg`, one
append per cell), `fractal 1000000 1000000 --report-only` in text and `--json`,
whose cell count of some 10^6 bits is never made, six large
subset walks (`enum 25 2`, `enum 100000 1`, `enum 30 15`, `enum 21 2
--subsets`, and `enum 100000 99999` and `enum 6000 5998`, whose few
subsets take about C(n+1, p) index writes), the largest p = n walk the
default budget accepts (`enum 995023 995023`) and one whose pool of n
ints would take some 11 GB (`enum 199999000 199999000`), fifteen
`--subsets` listings at the default budget's edge (for p in {1, 2, 10,
100} and for n = p, the largest n accepted, in text and `--json`, and the
next n, refused)
and `enum 1000000 1 --subsets`, a 3,000-deep chain of loops with a
1,000-digit n in text and `--json` and with `--n <400 digits>`, and a
loop file with a 5,000-digit literal.

One line per case gives the exit code (`timeout` when killed), the seconds
taken, `TRACEBACK` when stderr holds one, `FLAGGED` when the case exited
outside {0, 2, 3}, printed a traceback or took over 1.5 s, and the command
line with long numbers shown by their digit count.  The last line counts
the flagged cases and the failed ones.  The script exits 1 when a case
failed: it timed out, printed a traceback or exited outside {0, 2, 3}.  A
case that is only slow is flagged but does not fail, since its time
depends on the host.
"""

import argparse
import os
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIMEOUT_S = 10
SLOW_S = 1.5
JOBS = 2
EXPECTED_EXITS = {0, 2, 3}

N_VALUES = [0, 1, 10**6, 10**400 - 1, 10**4300 - 1]
P_VALUES = [-1, 0, 1, 500, 10**4]
COMMANDS = [["eval"], ["fractal"], ["fractal", "--report-only"], ["enum"]]
# (n, p) of the largest subset listing the default budget accepts, for p in {1, 2, 10, 100} and for n = p
LISTING_EDGES = [(178731, 1), (751, 2), (20, 10), (102, 100), (511507, 511507)]


def _chain(depth: int) -> str:
    return "".join(f"for i{d} = 1 to {'n' if d == 0 else f'i{d - 1}'}\n" for d in range(depth))


def cases() -> list[tuple[list[str], str]]:
    """Every case as (argv after `python -m termirial`, stdin text)."""
    grid = [
        [command[0], str(n), str(p), *command[1:], *json]
        for command in COMMANDS
        for n in N_VALUES
        for p in P_VALUES
        for json in ([], ["--json"])
    ]
    grid += [
        ["check", "pascal", "--n", "1..1000", "--p", "0..999"],
        ["check", "split1", "--n", "1..1001", "--m", "1..1000"],
        ["check", "recurrence", "--n", "1000000", "--p", "10000"],
        ["eval", "9" * 100, "10000"],
        ["eval", "9" * 100, "10000", "--json"],
        ["fractal", "4", "250", "--report-only"],
        ["fractal", "3", "500", "--report-only"],
        ["fractal", "2", "501"],
        ["fractal", "4", "250"],
        ["fractal", "3", "500"],
        ["fractal", "100", "3"],
        ["fractal", "60", "4"],
        ["fractal", "30", "4", "--format", "svg"],
        ["fractal", "4", "60", "--format", "svg"],
        ["fractal", "1000000", "1000000", "--report-only"],
        ["fractal", "1000000", "1000000", "--report-only", "--json"],
        ["enum", "25", "2"],
        ["enum", "100000", "1"],
        ["enum", "30", "15"],
        ["enum", "21", "2", "--subsets"],
        ["enum", "100000", "99999"],
        ["enum", "6000", "5998"],
        ["enum", "1000000", "1", "--subsets"],
        ["enum", "995023", "995023"],
        ["enum", "199999000", "199999000"],
    ]
    for n, p in LISTING_EDGES:
        grid += [["enum", str(n), str(p), "--subsets", *json] for json in ([], ["--json"])]
        grid.append(["enum", str(n + 1), str(p + (p == n)), "--subsets"])
    deep = _chain(3000)
    loops = [
        (["loops"], "n = " + "9" * 1000 + "\n" + deep),
        (["loops", "--json"], "n = " + "9" * 1000 + "\n" + deep),
        (["loops", "--n", "9" * 400], deep),
        (["loops"], "n = " + "9" * 5000 + "\n" + _chain(1)),
    ]
    return [(argv, "") for argv in grid] + loops


def label(argv: list[str]) -> str:
    return " ".join(f"<{len(arg)} digits>" if len(arg) > 20 and arg.isdigit() else arg for arg in argv)


def run_case(checkout: str, argv: list[str], stdin: str) -> tuple[int | None, float, bool]:
    """Exit code (None on timeout), seconds taken, and whether stderr holds a traceback."""
    env = dict(os.environ, PYTHONPATH=os.path.join(checkout, "src"))
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "termirial", *argv],
            input=stdin,
            capture_output=True,
            text=True,
            env=env,
            timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, False
    return proc.returncode, time.perf_counter() - start, "Traceback (most recent call last)" in proc.stderr


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", default=ROOT, help="repository whose src/ is run (default: this one)")
    args = parser.parse_args()
    grid = cases()
    flagged = failed = 0
    with ThreadPoolExecutor(max_workers=JOBS) as pool:
        futures = [pool.submit(run_case, args.checkout, argv, stdin) for argv, stdin in grid]
        for (argv, _), future in zip(grid, futures):
            code, seconds, traceback = future.result()
            fails = code not in EXPECTED_EXITS or traceback  # a timeout's code is None
            bad = fails or seconds > SLOW_S
            flagged += bad
            failed += fails
            exit_text = "timeout" if code is None else str(code)
            marks = " ".join(mark for mark, on in (("TRACEBACK", traceback), ("FLAGGED", bad)) if on)
            print(f"{exit_text:>7} {seconds:6.2f}s {marks:<19} {label(argv)}", flush=True)
    print(f"flagged: {flagged} of {len(grid)}, failed: {failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
