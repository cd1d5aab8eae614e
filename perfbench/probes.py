"""Layer probes that every traced run makes, whatever its workload.

* ``cli``: bare interpreters and ``-X importtime`` imports of ``dsalign.cli``.
* ``report``: in-process corpus passes, for ``report.matrix``.
* ``parse``: ``dsl.parse`` on seeded mutants, split by outcome.
* ``scaling``: the pipeline on synthetic models of 200 and 800 blocks.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import children
import mutants
import pipeline
import synth
from tracing import Tracer, counting_validate
from workloads import ROOT, SRC

CLI_ROUNDS = 7
REPORT_PASSES = 20
PARSE_MUTANTS = 300
SCALING_SIZES = (200, 800)
SCALING_REPS = 5
# Stages whose time at N=800 over N=200 is reported as <stage>.growth_4x.
SCALED_STAGES = (
    "dsl.parse",
    "model.validate",
    "derive.derive_all",
    "derive.attach",
    "export.open_exchange",
    "export.dot",
    "dsl.format",
)


def cli(workload, tally) -> dict[str, float]:
    """Interpreter floor and the import of ``dsalign.cli``, from children."""
    import_cli = ["-X", "importtime", "-c", "import dsalign.cli"]
    bare_importtime = ["-X", "importtime", "-c", "pass"]
    workload.pyc_files = children.fill_bytecode_cache(
        workload.pycache, SRC, ROOT, [import_cli]
    )
    env = children.child_env(SRC, workload.pycache, write_bytecode=False)
    interp, total, own, other, loaded = [], [], [], [], set()
    for _ in range(CLI_ROUNDS):
        runs = [children.run_child(args, env, ROOT) for args in (["-c", "pass"], bare_importtime, import_cli)]
        tally.record([] if all(r.returncode == 0 for r in runs) else ["exit_code"], "cli probe")
        interp.append(runs[0].seconds)
        floor = children.importtime(runs[1].stderr)
        new = {m: us for m, us in children.importtime(runs[2].stderr).items() if m not in floor}
        loaded.add(len(new))
        own.append(sum(us for m, us in new.items() if m.split(".")[0] == "dsalign") / 1000)
        other.append(sum(us for m, us in new.items() if m.split(".")[0] != "dsalign") / 1000)
        total.append(own[-1] + other[-1])
    if len(loaded) != 1:
        tally.record(["modules_loaded_stable"], "cli probe")
    return {
        "cli.interp_ms": statistics.median(interp) * 1000,
        "cli.import_ms": statistics.median(total),
        "cli.modules_loaded": max(loaded),
        "cli.import_self_ms.dsalign": statistics.median(own),
        "cli.import_self_ms.other": statistics.median(other),
    }


def report(workload, tally, tracer: Tracer) -> dict[str, float]:
    with counting_validate(workload.dsa.AlignmentModel, tracer):
        for k in range(REPORT_PASSES):
            with tracer.traced_pass(k):
                outs, matrix = workload.corpus_pass(tracer.span)
            tally.record(workload.corpus_failures(outs, matrix), "report probe")
    per_pass = tracer.self_seconds_by_pass()
    return {"report.matrix_s": statistics.median(p["report.matrix"] for p in per_pass.values())}


def parse(workload, tally) -> dict[str, float]:
    """Parse time of mutants that parse cleanly and of those that do not."""
    ok, err, diagnostics = [], [], 0
    for name, text in mutants.generate(workload.fixtures, PARSE_MUTANTS, workload.seed):
        start = perf_counter()
        try:
            result = workload.dsa.parse(text, name)
        except Exception:  # counted as a failed check, the probe goes on
            tally.record(["no_exception"], name)
            continue
        elapsed = perf_counter() - start
        tally.record([], name)
        (ok if result.model is not None else err).append(elapsed)
        diagnostics += len(result.diagnostics)
    return {
        "dsl.parse_ok_ms_p50": statistics.median(ok) * 1000,
        "dsl.parse_err_ms_p50": statistics.median(err) * 1000,
        "dsl.diagnostics": diagnostics,
    }


def scaling(workload, tally, tracer: Tracer) -> dict[str, float]:
    """Each stage's median self time at N=800 over that at N=200."""
    models = {n: synth.generate(n, workload.seed) for n in SCALING_SIZES}
    pass_size = {}
    with counting_validate(workload.dsa.AlignmentModel, tracer):
        for _ in range(SCALING_REPS):
            for n, (text, _) in models.items():
                k = len(pass_size)
                pass_size[k] = n
                with tracer.traced_pass(k):
                    out = pipeline.run_pipeline(workload.dsa, text, f"synthetic{n}.dsa", tracer.span)
                failed = [] if out.valid and out.error is None else ["valid"]
                tally.record(failed, f"scaling probe N={n}")
    per_pass = tracer.self_seconds_by_pass()
    small, large = SCALING_SIZES
    out = {}
    for stage in SCALED_STAGES:
        at = {
            n: statistics.median(per_pass[k][stage] for k, size in pass_size.items() if size == n)
            for n in SCALING_SIZES
        }
        out[f"{stage}.growth_4x"] = at[large] / at[small]
    return out

