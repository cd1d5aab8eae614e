"""Run the benchmark's CLI cycle under other interpreters and compare with the goldens.

For each interpreter path given, every command of the ``corpus_cli`` cycle
(``check``, ``derive --items -``, ``export`` in both formats and
``fmt --check`` per fixture, then ``report --matrix`` over all five) runs as
``<interpreter> -m dsalign ...`` from the root of the checkout, importing
dsalign from ``src``.  Each run must exit 0 and write exactly the bytes of its
file in ``fixtures/golden`` to stdout (nothing for ``check`` and ``fmt``).
Standard library only; pytest does not collect this file.

    python3 tests/interpreters.py /path/to/python3.10 /path/to/python3.13

Paths, not names: a ``python3.X`` shim on PATH may not resolve to an
interpreter.  Exit status 0 if every run matches, 1 if any differs, 2 on a
usage error.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
from workloads import GOLDEN, cli_commands  # noqa: E402

FIXTURE_NAMES = sorted(path.stem for path in (REPO / "fixtures").glob("*.dsa"))


def check(interpreter: str) -> list[str]:
    """One line per command whose exit code or stdout differs from the golden run."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1", DSALIGN_NO_COLOR="1")
    failures = []
    for args, golden in cli_commands(FIXTURE_NAMES):
        proc = subprocess.run([interpreter, *args], capture_output=True, cwd=REPO, env=env)
        expected = b"" if golden is None else (GOLDEN / golden).read_bytes()
        command = " ".join(args[2:])
        if proc.returncode != 0:
            failures.append(f"{command}: exit {proc.returncode}: {proc.stderr.decode()[-300:]}")
        elif proc.stdout != expected:
            failures.append(f"{command}: stdout differs from {golden or 'nothing'}")
    return failures


def main(interpreters: list[str]) -> int:
    if not interpreters:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: python3 tests/interpreters.py INTERPRETER...", file=sys.stderr)
        return 2
    status = 0
    for interpreter in interpreters:
        if not os.access(interpreter, os.X_OK):
            print(f"{interpreter}: not an executable file", file=sys.stderr)
            return 2
        version = subprocess.run(
            [interpreter, "-c", "import sys; print(sys.version.split()[0])"],
            capture_output=True, text=True,
        ).stdout.strip()
        failures = check(interpreter)
        runs = len(cli_commands(FIXTURE_NAMES))
        print(f"{interpreter} ({version}): {runs - len(failures)} of {runs} runs match")
        for line in failures:
            print(f"  {line}")
        if failures:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
