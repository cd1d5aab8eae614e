"""Child interpreters: the dsalign CLI, the bare-interpreter control, and
``-X importtime`` probes, all started from ``sys.executable``.

Children import dsalign from the checkout's ``src`` and read bytecode from a
cache directory that the benchmark fills during set-up.
"""

from __future__ import annotations

import os
import selectors
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

CHILD_TIMEOUT_S = 60.0


@dataclass
class ChildRun:
    seconds: float
    returncode: int
    stdout: bytes
    stderr: bytes
    max_rss_kib: int


def child_env(src: Path, pycache: Path, write_bytecode: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(src)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    env["DSALIGN_NO_COLOR"] = "1"
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: list[str], env: dict, cwd: Path) -> ChildRun:
    """Run one child to completion; its own peak RSS comes from wait4."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=cwd,
    ) as proc:
        chunks = {proc.stdout: [], proc.stderr: []}
        with selectors.DefaultSelector() as sel:
            for stream in chunks:
                sel.register(stream, selectors.EVENT_READ)
            while sel.get_map():
                ready = sel.select(timeout=CHILD_TIMEOUT_S)
                if not ready:
                    proc.kill()
                    proc.wait()
                    raise TimeoutError(f"child {args!r} produced nothing for {CHILD_TIMEOUT_S}s")
                for key, _ in ready:
                    data = os.read(key.fd, 65536)
                    if data:
                        chunks[key.fileobj].append(data)
                    else:
                        sel.unregister(key.fileobj)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildRun(
        seconds,
        proc.returncode,
        b"".join(chunks[proc.stdout]),
        b"".join(chunks[proc.stderr]),
        usage.ru_maxrss,
    )


def fill_bytecode_cache(
    pycache: Path, src: Path, cwd: Path, commands: list[list[str]]
) -> int:
    """Compile everything the given commands import into ``pycache``.

    Returns the number of ``.pyc`` files the cache then holds.
    """
    env = child_env(src, pycache, write_bytecode=True)
    for args in [["-c", "pass"], *commands]:
        run = run_child(args, env, cwd)
        if run.returncode != 0:
            raise RuntimeError(f"bytecode warm-up {args!r} exited {run.returncode}: {run.stderr!r}")
    return sum(1 for _ in pycache.rglob("*.pyc"))


def importtime(stderr: bytes) -> dict[str, int]:
    """Self time in microseconds of each module in ``-X importtime`` output."""
    out = {}
    for line in stderr.decode("utf-8", "replace").splitlines():
        if not line.startswith("import time:") or "self [us]" in line:
            continue
        self_us, _, name = line[len("import time:"):].split("|", 2)
        out[name.strip()] = int(self_us)
    return out
