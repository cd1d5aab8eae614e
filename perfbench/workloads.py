"""The three workloads: set-up, the untraced closed loop, and the traced pass.

Every workload is a closed loop with one client in one process: the next
operation starts only when the previous one has finished.
"""

from __future__ import annotations

import importlib
import json
import random
import resource
import shutil
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import calibrate
import children
import mutants
import pipeline
import synth

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
GOLDEN = FIXTURES / "golden"
OUT = ROOT / ".bench_build" / "perfbench"

SYNTHETIC_BLOCKS = 800
WARMUP_BLOCKS = 20
MUTANT_POOL = 4000
MUTANT_BATCH = 50  # files per traced pass of the mutants workload
BARE = ["-c", "pass"]


@dataclass
class Tally:
    """Operations (mutants: distinct files) attempted and failed, with each failed check by name."""

    attempted: int = 0
    failed: int = 0
    checks: Counter = field(default_factory=Counter)
    known: Counter = field(default_factory=Counter)
    unexplained: list = field(default_factory=list)
    outcomes: Counter = field(default_factory=Counter)  # what the inputs led to

    def record(self, failed_checks: list[str], what: str, explain=lambda check: None) -> None:
        """Count one operation; ``explain`` names the known defect behind a check."""
        self.attempted += 1
        if not failed_checks:
            return
        self.failed += 1
        for check in failed_checks:
            self.checks[check] += 1
            defect = explain(check)
            if defect is None:
                self.unexplained.append(f"{what}: {check}")
            else:
                self.known[defect] += 1

    def add(self, other: dict) -> None:
        """Add a tally that another interpreter sent as a JSON object of its fields."""
        self.attempted += other["attempted"]
        self.failed += other["failed"]
        self.checks.update(other["checks"])
        self.known.update(other["known"])
        self.unexplained += other["unexplained"]
        self.outcomes.update(other["outcomes"])

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and not self.unexplained


@dataclass
class Samples:
    """Per-operation wall times of one untraced loop, in seconds."""

    op_s: list = field(default_factory=list)
    ref_s: list = field(default_factory=list)  # the host-speed reference of each op
    nominal_s: float = calibrate.NOMINAL_REF_S
    self_s: list = field(default_factory=list)  # op minus its paired bare child
    peak_rss_kib: int = 0

    def scaled(self, values: list[float]) -> list[float]:
        """``values`` at the nominal host speed (see calibrate.py)."""
        return [v * self.nominal_s / r for v, r in zip(values, self.ref_s)]


def timed_loop(seconds: float, op, min_ops: int = 1) -> Samples:
    """Call ``op(i)`` for i = 0, 1, ... until ``seconds`` have passed.

    At least ``min_ops`` calls are made, however long they take.  ``op``
    returns its own (start, end) so that checks after the timed call stay
    out of the measurement.
    """
    samples = Samples()
    spans = []
    deadline = perf_counter() + seconds
    with calibrate.Sampler() as sampler:
        while len(spans) < min_ops or perf_counter() < deadline:
            spans.append(op(len(spans)))
    for start, end in spans:
        samples.op_s.append(end - start - sampler.inside(start, end))
        samples.ref_s.append(sampler.reference(start, end))
    samples.self_s = samples.op_s
    samples.peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return samples


def import_dsalign(pycache: Path):
    """Import dsalign afresh from the checkout, compiling into ``pycache``."""
    for name in [m for m in sys.modules if m == "dsalign" or m.startswith("dsalign.")]:
        del sys.modules[name]
    sys.pycache_prefix = str(pycache)
    previous, sys.dont_write_bytecode = sys.dont_write_bytecode, False
    try:
        dsa = importlib.import_module("dsalign")
    finally:
        sys.dont_write_bytecode = previous
    if Path(dsa.__file__).resolve().parent != (SRC / "dsalign").resolve():
        raise RuntimeError(f"dsalign imported from {dsa.__file__}, not from {SRC}")
    return dsa


def cli_commands(names: list[str]) -> list[tuple[list[str], str | None]]:
    """The corpus cycle: every CLI invocation with its golden stdout file."""
    calls: list[tuple[list[str], str | None]] = []
    for n in names:
        path = f"fixtures/{n}.dsa"
        calls += [
            (["-m", "dsalign", "check", path], None),
            (["-m", "dsalign", "derive", path, "--items", "-"], f"{n}.items.json"),
            (["-m", "dsalign", "export", path, "--format", "open_exchange"], f"{n}.open_exchange.xml"),
            (["-m", "dsalign", "export", path, "--format", "dot"], f"{n}.dot"),
            (["-m", "dsalign", "fmt", "--check", path], None),
        ]
    paths = [f"fixtures/{n}.dsa" for n in names]
    calls.append((["-m", "dsalign", "report", *paths, "--matrix"], "corpus_matrix.md"))
    return calls


SYNTHETIC_CHECKS = (
    "no_exception",
    "valid",
    "no_diagnostics",
    "items_by_rule",
    "xml_counts",
    "dot_balanced",
    "fmt_round_trip",
    "model_counts",
    "byte_identical",
)


def synthetic_failures(out: pipeline.Outputs, expected: synth.Expected, dsa) -> list[str]:
    """Check a synthetic pass against the generator's own arithmetic."""
    if out.error is not None or not out.valid:
        return ["no_exception" if out.error else "valid"]
    failed = []
    if out.diagnostics:
        failed.append("no_diagnostics")
    rules = Counter(item["rule"] for item in json.loads(out.items_json)["items"])
    if {r: rules.get(r, 0) for r in expected.items_by_rule} != expected.items_by_rule:
        failed.append("items_by_rule")
    if pipeline.xml_counts(out.xml) != (expected.attached_elements, expected.attached_relations):
        failed.append("xml_counts")
    if not pipeline.dot_balanced(out.dot):
        failed.append("dot_balanced")
    if not pipeline.fmt_round_trips(dsa, out.fmt):
        failed.append("fmt_round_trip")
    reparsed = dsa.parse(out.fmt, "<fmt>").model
    if reparsed is None or (len(reparsed.elements), len(reparsed.relations)) != (
        expected.elements,
        expected.relations,
    ):
        failed.append("model_counts")
    return failed


class Workload:
    """One workload: ``setup`` once per set-up repetition, then a loop."""

    name = ""
    op = ""  # what one timed operation is
    checks: tuple[str, ...] = ()  # names of the checks on each operation
    aliases: dict[str, str] = {}  # metric -> its workload-specific name, printed beside it
    min_traced_passes = 3
    processes = 1  # interpreters the untraced loop is split over, one after another
    reference: str | None = None  # the digest every pass's outputs must match, once known

    def __init__(self, seed: int, pycache: Path):
        self.seed = seed
        self.pycache = pycache
        self.dsa = None
        self.fixtures: dict[str, str] = {}
        self.goldens: dict[str, bytes] = {}
        self.pyc_files = 0

    def setup(self) -> None:
        shutil.rmtree(self.pycache, ignore_errors=True)
        self.pycache.mkdir(parents=True)
        self.dsa = import_dsalign(self.pycache)
        names = sorted(p.stem for p in FIXTURES.glob("*.dsa"))
        self.fixtures = {n: (FIXTURES / f"{n}.dsa").read_text(encoding="utf-8") for n in names}
        self.goldens = {p.name: p.read_bytes() for p in GOLDEN.iterdir()}
        self.pyc_files = sum(1 for _ in self.pycache.rglob("*.pyc"))

    def measure(self, seconds: float, tally: Tally) -> Samples:
        raise NotImplementedError

    def finish(self, tally: Tally) -> None:
        """Count what the loop left to be counted at its end."""

    def traced_pass(self, span, k: int):
        """Pass ``k`` of the workload's in-process work, for the traced run."""
        raise NotImplementedError

    def check_pass(self, result, tally: Tally) -> None:
        raise NotImplementedError

    def pass_outputs(self, result) -> list[pipeline.Outputs]:
        return [result]

    def pass_input_bytes(self, k: int) -> int:
        raise NotImplementedError

    # -- the in-process corpus pass, shared with the probes -----------------

    def corpus_pass(self, span):
        outs = {n: pipeline.run_pipeline(self.dsa, t, f"fixtures/{n}.dsa", span) for n, t in self.fixtures.items()}
        itemsets = [outs[n].itemset for n in sorted(outs)]
        if None in itemsets:  # a fixture failed; corpus_failures reports it
            return outs, ""
        with span("report.matrix"):
            matrix = self.dsa.matrix(itemsets)
        return outs, matrix

    def corpus_failures(self, outs, matrix) -> list[str]:
        failed = []
        for n, out in outs.items():
            golden = {
                "items": (out.items_json, f"{n}.items.json"),
                "open_exchange": (out.xml, f"{n}.open_exchange.xml"),
                "dot": (out.dot, f"{n}.dot"),
            }
            for what, (text, file) in golden.items():
                if text is None or text.encode("utf-8") != self.goldens[file]:
                    failed.append(f"golden_{what}")
            if out.error is not None or out.diagnostics:
                failed.append("clean_check")
            if out.fmt != self.fixtures[n]:
                failed.append("fmt_check")
        if matrix.encode("utf-8") != self.goldens["corpus_matrix.md"]:
            failed.append("golden_matrix")
        return failed


class CorpusCli(Workload):
    """The real CLI over the five fixtures, each run paired with a bare one."""

    name = "corpus_cli"
    op = "CLI invocation"
    checks = ("exit_code", "golden_stdout", "empty_stderr")
    aliases = {"op_ms_p50": "cli_ms_p50", "op_ms_p90": "cli_ms_p90", "self_ms_p50": "cli_self_ms_p50"}

    def setup(self) -> None:
        super().setup()
        calls = cli_commands(sorted(self.fixtures))
        first = f"fixtures/{sorted(self.fixtures)[0]}.dsa"
        warm = [args for args, _ in calls if first in args or "report" in args]
        self.pyc_files = children.fill_bytecode_cache(self.pycache, SRC, ROOT, warm)
        random.Random(self.seed).shuffle(calls)
        self.calls = calls
        self.env = children.child_env(SRC, self.pycache, write_bytecode=False)

    def measure(self, seconds: float, tally: Tally) -> Samples:
        samples = Samples(nominal_s=calibrate.NOMINAL_BARE_S)
        deadline = perf_counter() + seconds
        i = 0
        while i == 0 or perf_counter() < deadline:
            args, golden = self.calls[i % len(self.calls)]
            # Alternate which of the pair runs first, so drift hits both.
            if i % 2:
                cli = children.run_child(args, self.env, ROOT)
                bare = children.run_child(BARE, self.env, ROOT)
            else:
                bare = children.run_child(BARE, self.env, ROOT)
                cli = children.run_child(args, self.env, ROOT)
            samples.op_s.append(cli.seconds)
            samples.ref_s.append(bare.seconds)
            samples.self_s.append(cli.seconds - bare.seconds)
            samples.peak_rss_kib = max(samples.peak_rss_kib, cli.max_rss_kib)
            failed = []
            if cli.returncode != 0 or bare.returncode != 0:
                failed.append("exit_code")
            expected = b"" if golden is None else self.goldens[golden]
            if cli.stdout != expected:
                failed.append("golden_stdout")
            if cli.stderr:
                failed.append("empty_stderr")
            tally.record(failed, " ".join(args[2:]))
            i += 1
        return samples

    def traced_pass(self, span, k: int):
        return self.corpus_pass(span)

    def check_pass(self, result, tally: Tally) -> None:
        tally.record(self.corpus_failures(*result), "corpus pass")

    def pass_outputs(self, result) -> list[pipeline.Outputs]:
        return list(result[0].values())

    def pass_input_bytes(self, k: int) -> int:
        return sum(len(t.encode("utf-8")) for t in self.fixtures.values())


class SyntheticLarge(Workload):
    """One seeded N=800 model through the whole in-process pipeline."""

    name = "synthetic_large"
    op = "pipeline pass"
    checks = SYNTHETIC_CHECKS
    aliases = {"op_ms_p50": "pipeline_s_p50 x 1000"}
    # A pass is about 2 s.  Its speed differs by up to 15 % from one
    # interpreter to the next and by about 3 % within one, so the passes of
    # a run come from three interpreters.
    processes = 3

    def setup(self) -> None:
        super().setup()
        self.text, self.expected = synth.generate(SYNTHETIC_BLOCKS, self.seed)
        warm_text, _ = synth.generate(WARMUP_BLOCKS, self.seed)
        pipeline.run_pipeline(self.dsa, warm_text, "warmup.dsa")
        self.reference = None

    def measure(self, seconds: float, tally: Tally) -> Samples:
        def one_pass(i: int) -> tuple[float, float]:
            start = perf_counter()
            out = pipeline.run_pipeline(self.dsa, self.text, "synthetic.dsa")
            end = perf_counter()
            self.check_pass(out, tally)
            return start, end

        return timed_loop(seconds, one_pass)

    def traced_pass(self, span, k: int):
        return pipeline.run_pipeline(self.dsa, self.text, "synthetic.dsa", span)

    def check_pass(self, out: pipeline.Outputs, tally: Tally) -> None:
        """Full check on the first pass; later passes must be byte-identical."""
        digest = out.digest("synthetic.dsa")
        if self.reference is None:
            failed = synthetic_failures(out, self.expected, self.dsa)
            if not failed:
                self.reference = digest
        else:
            failed = [] if digest == self.reference else ["byte_identical"]
        tally.record(failed, "synthetic pass")

    def pass_input_bytes(self, k: int) -> int:
        return len(self.text.encode("utf-8"))


class Mutants(Workload):
    """Seeded mutations of the fixtures, one file per operation.

    The loop cycles through the pool and runs every file at least once.
    ``attempted`` and ``failed`` count distinct files, not runs, so they
    depend on the seed alone and not on how many runs fit in the time.
    """

    name = "mutants"
    op = "mutant file"
    checks = (*pipeline.PROPERTY_CHECKS, "byte_identical")
    aliases = {"op_ms_p50": "file_ms_p50", "op_ms_p90": "file_ms_p90", "ops_per_s": "files_per_s"}
    min_traced_passes = -(-MUTANT_POOL // MUTANT_BATCH)

    def setup(self) -> None:
        super().setup()
        self.pool = mutants.generate(self.fixtures, MUTANT_POOL, self.seed)
        # slot -> (digest of its first run, checks it failed, whether it was a valid model)
        self.first_runs: dict[int, tuple[str, list[str], bool]] = {}
        for name, text in self.pool[:20]:
            pipeline.run_pipeline(self.dsa, text, name)

    def check_file(self, i: int, out: pipeline.Outputs) -> None:
        """Property checks on a file's first run; a repeat must be byte-identical."""
        slot = i % len(self.pool)
        name = self.pool[slot][0]
        digest = out.digest(name)
        if slot not in self.first_runs:
            self.first_runs[slot] = (digest, pipeline.failed_checks(self.dsa, out, name), out.valid)
            return
        first_digest, failed, _ = self.first_runs[slot]
        if digest != first_digest and "byte_identical" not in failed:
            failed.append("byte_identical")

    def finish(self, tally: Tally) -> None:
        """Count each file of the pool once, with every check it ever failed."""
        for slot, (_, failed, valid) in sorted(self.first_runs.items()):
            name, text = self.pool[slot]
            tally.outcomes["valid model" if valid else "rejected with diagnostics"] += 1
            tally.record(failed, name, lambda check: mutants.known_defect(check, text))

    def measure(self, seconds: float, tally: Tally) -> Samples:
        def one_file(i: int) -> tuple[float, float]:
            name, text = self.pool[i % len(self.pool)]
            start = perf_counter()
            out = pipeline.run_pipeline(self.dsa, text, name)
            end = perf_counter()
            self.check_file(i, out)
            return start, end

        return timed_loop(seconds, one_file, min_ops=len(self.pool))

    def traced_pass(self, span, k: int):
        result = []
        for i in range(k * MUTANT_BATCH, (k + 1) * MUTANT_BATCH):
            name, text = self.pool[i % len(self.pool)]
            result.append((i, pipeline.run_pipeline(self.dsa, text, name, span)))
        return result

    def check_pass(self, result, tally: Tally) -> None:
        for i, out in result:
            self.check_file(i, out)

    def pass_outputs(self, result) -> list[pipeline.Outputs]:
        return [out for _, out in result]

    def pass_input_bytes(self, k: int) -> int:
        first = k * MUTANT_BATCH
        return sum(
            len(self.pool[(first + j) % len(self.pool)][1].encode("utf-8", "surrogatepass"))
            for j in range(MUTANT_BATCH)
        )


WORKLOADS = {w.name: w for w in (CorpusCli, SyntheticLarge, Mutants)}
