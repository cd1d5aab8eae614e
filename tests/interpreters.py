"""Run the benchmark's CLI cycle under other interpreters and compare with the goldens.

For each interpreter path given, every command of the ``corpus_cli`` cycle
(``check``, ``derive --items -``, ``export`` in both formats and
``fmt --check`` per fixture, then ``report --matrix`` over all five) runs as
``<interpreter> -m dsalign ...`` from the root of the checkout, importing
dsalign from ``src``, with stdout buffered as in the benchmark.  Each run must
exit 0, write exactly the bytes of its file in ``fixtures/golden`` to stdout
(nothing for ``check`` and ``fmt``) and nothing to stderr.  Four more runs
check the exit codes the CLI's ending must carry: an invalid model (1), a
missing file (3), a usage error (2) and ``--help`` (0); each must write to
stderr exactly when it fails.  On POSIX, three runs close the child's stdout:
``export --format dot`` and ``--help`` must exit 3 with one
``cannot write <stdout>`` line, and ``fmt --check``, which prints nothing,
must exit 0 with an empty stderr; two runs close its stderr: ``check`` of the
invalid model and ``check`` with no file, a usage error, must exit 3 with an
empty stdout.  Standard library only; pytest does not collect
this file, but ``tests/test_cli.py`` calls ``check`` on the interpreter that
runs the tests.

    python3 tests/interpreters.py /path/to/python3.10 /path/to/python3.13

Paths, not names: a ``python3.X`` shim on PATH may not resolve to an
interpreter.  Exit status 0 if every run matches, 1 if any differs, 2 on a
usage error.
"""

from __future__ import annotations

import errno
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "perfbench"))
from workloads import GOLDEN, cli_commands  # noqa: E402

FIXTURE_NAMES = sorted(path.stem for path in (REPO / "fixtures").glob("*.dsa"))
FAQ = "fixtures/faq_chatbot.dsa"
INVALID_MODEL = 'system "Bad" {\n  component c "C" {\n    runs_on: server;\n  }\n}\n'  # E010
CLOSED = "closed"  # the run's file descriptor 1 or 2 is closed, so it has no stdout or stderr


def runs(invalid: str) -> list[tuple[list[str], int, bytes | str | None, bool | str]]:
    """Each run as (arguments, exit code, stdout, stderr); ``invalid`` is the
    path of a model with an error.  Stdout is its bytes, None for any, or
    ``CLOSED``; stderr is whether the run writes to it, its exact text, or
    ``CLOSED``."""
    lost = f"cannot write <stdout>: {os.strerror(errno.EBADF)}\n"
    cycle = [
        (args, 0, (GOLDEN / golden).read_bytes() if golden else b"", False)
        for args, golden in cli_commands(FIXTURE_NAMES)
    ]
    return cycle + [
        (["-m", "dsalign", "check", invalid], 1, b"", True),
        (["-m", "dsalign", "check", "fixtures/absent.dsa"], 3, b"", True),  # E190
        (["-m", "dsalign", "check"], 2, b"", True),  # a usage error
        (["-m", "dsalign", "--help"], 0, None, False),
    ] + ([
        (["-m", "dsalign", "export", FAQ, "--format", "dot"], 3, CLOSED, lost),
        (["-m", "dsalign", "--help"], 3, CLOSED, lost),
        (["-m", "dsalign", "fmt", "--check", FAQ], 0, CLOSED, False),
        (["-m", "dsalign", "check", invalid], 3, b"", CLOSED),
        (["-m", "dsalign", "check"], 3, b"", CLOSED),  # a usage error
    ] if os.name == "posix" else [])


def python_version(interpreter: str) -> str:
    """The version of ``interpreter``, such as "3.11.7"."""
    return subprocess.run(
        [interpreter, "-c", "import sys; print(sys.version.split()[0])"],
        capture_output=True, text=True,
    ).stdout.strip()


def check(interpreter: str) -> list[str]:
    """One line per run whose exit code, stdout or stderr differs from the expected."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env.update(PYTHONPATH=str(REPO / "src"), PYTHONDONTWRITEBYTECODE="1", DSALIGN_NO_COLOR="1")
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        invalid = Path(tmp) / "invalid.dsa"
        invalid.write_text(INVALID_MODEL, encoding="utf-8")
        for args, code, stdout, errors in runs(str(invalid)):
            closed = 1 if stdout is CLOSED else 2 if errors is CLOSED else None
            proc = subprocess.run(
                [interpreter, *args], stdout=None if closed == 1 else subprocess.PIPE,
                stderr=None if closed == 2 else subprocess.PIPE, cwd=REPO, env=env,
                preexec_fn=(lambda: os.close(closed)) if closed else None,
            )
            command = " ".join(args[2:])
            stderr = (proc.stderr or b"").decode(errors="replace")
            if proc.returncode != code:
                failures.append(f"{command}: exit {proc.returncode}, not {code}: {stderr[-300:]}")
            elif errors is not CLOSED and (
                stderr if isinstance(errors, str) else bool(stderr)
            ) != errors:
                failures.append(f"{command}: stderr {stderr[-300:]!r}")
            elif isinstance(stdout, bytes) and proc.stdout != stdout:
                got = len(proc.stdout)
                failures.append(f"{command}: stdout differs ({got} bytes, not {len(stdout)})")
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
        version = python_version(interpreter)
        failures = check(interpreter)
        total = len(runs("invalid.dsa"))
        print(f"{interpreter} ({version}): {total - len(failures)} of {total} runs match")
        for line in failures:
            print(f"  {line}")
        if failures:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
