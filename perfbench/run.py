"""Stage-by-stage benchmark for dsalign.

Run from the root of a checkout:

    python3 perfbench/run.py                       # every workload, untraced
    python3 perfbench/run.py --workload mutants --seed 3 --seconds 20 --trace 1

Each workload runs set-up several times, then a closed loop for
``--seconds``, checks every output, prints its metrics with units, and ends
with one JSON line: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` gives the end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calibrate
import probes
from tracing import Tracer, counting_validate, no_span
from workloads import FIXTURES, OUT, ROOT, SRC, WORKLOADS, Samples, Tally

LAYERS = json.loads((Path(__file__).with_name("layers.json")).read_text(encoding="utf-8"))["metrics"]
SETUP_REPS = 5
LOOP_CHILD_TIMEOUT_S = 120
STAGE_METRICS = {
    "dsl.parse_s": "dsl.parse",
    "dsl.format_s": "dsl.format",
    "model.validate_s": "model.validate",
    "derive.derive_all_s": "derive.derive_all",
    "derive.attach_s": "derive.attach",
    "derive.serialize_s": "derive.serialize",
    "export.open_exchange_s": "export.open_exchange",
    "export.dot_s": "export.dot",
}


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def end_to_end(workload, samples, setup_s: list[float]) -> tuple[dict, dict, dict]:
    """Metric values at nominal host speed, their raw values, and sample counts."""
    n = len(samples.op_s)
    print(f"  one operation: one {workload.op}")
    op_s = samples.scaled(samples.op_s)
    self_s = samples.scaled(samples.self_s)
    values = {
        "setup_s": statistics.median(setup_s),
        "op_ms_p50": statistics.median(op_s) * 1000,
        "op_ms_p90": percentile(op_s, 90) * 1000,
        "ops_per_s": n / sum(op_s),
        "self_ms_p50": statistics.median(self_s) * 1000,
        "peak_rss_mib": samples.peak_rss_kib / 1024,
    }
    raw = {
        "op_ms_p50": statistics.median(samples.op_s) * 1000,
        "op_ms_p90": percentile(samples.op_s, 90) * 1000,
        "ops_per_s": n / sum(samples.op_s),
        "self_ms_p50": statistics.median(samples.self_s) * 1000,
    }
    if samples.ref_s:
        raw["reference_ms_p50"] = statistics.median(samples.ref_s) * 1000
    counts = {name: n for name in values}
    counts["setup_s"] = len(setup_s)
    counts["peak_rss_mib"] = 1
    return values, raw, counts


def measure(workload, args, tally: Tally) -> Samples:
    """The untraced loop, split over ``workload.processes`` interpreters run one after another.

    Each interpreter gets an equal share of ``--seconds``.  The passes of a
    later one must be byte-identical to those of the first.
    """
    if workload.processes == 1:
        return workload.measure(args.seconds, tally)
    samples = Samples()
    digest = ""
    for _ in range(workload.processes):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds / workload.processes), "--loop-child", digest],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
            timeout=LOOP_CHILD_TIMEOUT_S,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"loop interpreter exited {proc.returncode}")
        part = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.op_s += part["op_s"]
        samples.ref_s += part["ref_s"]
        samples.peak_rss_kib = max(samples.peak_rss_kib, part["peak_rss_kib"])
        tally.add(part["tally"])
        digest = digest or part["digest"] or ""
    samples.self_s = samples.op_s
    return samples


def run_loop_child(args) -> int:
    """One interpreter's share of a split loop: set up once, loop, print the samples."""
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    pycache = OUT / f"pycache-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, pycache)
    tally = Tally()
    try:
        workload.setup()
        workload.reference = args.loop_child or None
        samples = workload.measure(args.seconds, tally)
        workload.finish(tally)
    finally:
        shutil.rmtree(pycache, ignore_errors=True)
    part = {
        "op_s": samples.op_s,
        "ref_s": samples.ref_s,
        "peak_rss_kib": samples.peak_rss_kib,
        "tally": {f.name: getattr(tally, f.name) for f in dataclasses.fields(tally)},
        "digest": workload.reference,
    }
    print(json.dumps(part))
    return 0


def traced(workload, seconds: float, tally: Tally, trace_file: Path) -> tuple[dict, dict]:
    """Alternate traced and untraced passes, then run the layer probes."""
    tracer = Tracer()
    traced_s, plain_s, counts = [], [], []
    deadline = perf_counter() + seconds
    k = 0
    while perf_counter() < deadline or len(plain_s) < workload.min_traced_passes:
        # Both halves of pair k run the same inputs; their order alternates.
        for traced_half in ((True, False) if k % 2 == 0 else (False, True)):
            start = perf_counter()
            if traced_half:
                with counting_validate(workload.dsa.AlignmentModel, tracer), tracer.traced_pass(k):
                    result = workload.traced_pass(tracer.span, k)
                traced_s.append(perf_counter() - start)
            else:
                result = workload.traced_pass(no_span, k)
                plain_s.append(perf_counter() - start)
            workload.check_pass(result, tally)
        outs = [o for o in workload.pass_outputs(result) if o.valid and o.error is None]
        counts.append(
            {
                "input_kib": workload.pass_input_bytes(k) / 1024,
                "model.elements": sum(len(o.attached.elements) for o in outs),
                "model.relations": sum(len(o.attached.relations) for o in outs),
                "derive.items": sum(len(o.itemset.items) for o in outs),
                "export.bytes_out": sum(len(o.xml.encode()) + len(o.dot.encode()) for o in outs),
            }
        )
        k += 1

    per_pass = tracer.self_seconds_by_pass()
    calls = tracer.counts_by_pass("model.validate")
    values = {m: statistics.median(per_pass[p][s] for p in per_pass) for m, s in STAGE_METRICS.items()}
    values["dsl.parse_kib_per_s"] = statistics.median(
        counts[p]["input_kib"] / per_pass[p]["dsl.parse"] for p in per_pass
    )
    values["model.validate_calls"] = statistics.median(calls[p] for p in per_pass)
    for name in ("model.elements", "model.relations", "derive.items", "export.bytes_out"):
        values[name] = statistics.median(c[name] for c in counts)
    # Both halves of a pair ran the same inputs, so compare within pairs.
    values["trace.overhead_ms"] = statistics.median(t - p for t, p in zip(traced_s, plain_s)) * 1000
    samples = {name: len(per_pass) for name in values}

    phases = {"loop": tracer, "report": Tracer(), "scaling": Tracer()}
    for found, n in (
        (probes.cli(workload, tally), probes.CLI_ROUNDS),
        (probes.parse(workload, tally), probes.PARSE_MUTANTS),
        (probes.report(workload, tally, phases["report"]), probes.REPORT_PASSES),
        (probes.scaling(workload, tally, phases["scaling"]), probes.SCALING_REPS),
    ):
        values.update(found)
        samples.update({name: n for name in found})
    with open(trace_file, "w", encoding="utf-8") as handle:
        for phase, phase_tracer in phases.items():
            phase_tracer.write(handle, phase)
    print(
        f"  traced {len(traced_s)} / untraced {len(plain_s)} passes: "
        f"p50 {statistics.median(traced_s) * 1000:.3f} / {statistics.median(plain_s) * 1000:.3f} ms"
    )
    return values, samples


def environment(args, load_start, workload) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": list(load_start),
        "loadavg_end": list(os.getloadavg()),
        "bytecode_cached": workload.pyc_files > 0,
        "pyc_files": workload.pyc_files,
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
    }


def run_one(args) -> int:
    spec = load_spec()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    load_start = os.getloadavg()
    sys.path.insert(0, str(SRC))
    OUT.mkdir(parents=True, exist_ok=True)
    pycache = OUT / f"pycache-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, pycache)
    tally = Tally()
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    raw: dict[str, float] = {}
    try:
        spans = []
        with calibrate.Sampler() as sampler:
            for _ in range(SETUP_REPS):
                start = perf_counter()
                workload.setup()
                spans.append((start, perf_counter()))
        setup_raw_s = [end - start - sampler.inside(start, end) for start, end in spans]
        setup_s = [
            t * calibrate.NOMINAL_REF_S / sampler.reference(*span) for t, span in zip(setup_raw_s, spans)
        ]
        if args.trace:
            values, samples = traced(workload, args.seconds, tally, OUT / f"trace-{stem}.jsonl")
        else:
            values, raw, samples = end_to_end(workload, measure(workload, args, tally), setup_s)
            raw["setup_s"] = statistics.median(setup_raw_s)
        workload.finish(tally)
    finally:
        shutil.rmtree(pycache, ignore_errors=True)

    missing = set(units) ^ set(values)
    if missing:
        raise RuntimeError(f"metrics and BENCHMARK.json {kind} differ: {sorted(missing)}")
    for name, value in values.items():
        if args.trace:
            moves = LAYERS[name]["moves"]
            note = f"  -> {', '.join(moves)}" if moves else ""
        else:
            note = f"  raw {raw[name]:.4f}" if name in raw else ""
            note += f"  [{workload.aliases[name]}]" if name in workload.aliases else ""
        print(f"  {name:34} {value:14.4f} {units[name]:8} (n={samples[name]}){note}")
    if "reference_ms_p50" in raw:
        print(f"  host-speed reference p50 {raw['reference_ms_p50']:.4f} ms (times above are scaled to it)")
    rate = tally.failed / tally.attempted if tally.attempted else float("nan")
    print(f"  error_rate {rate:.6f} ({tally.failed} failed / {tally.attempted} attempted)")
    checks = {name: tally.checks[name] for name in workload.checks} | dict(tally.checks)
    print(f"  failures per check: {checks}")
    print(f"  failures explained by known defects: {dict(tally.known)}")
    if tally.outcomes:
        print(f"  distinct inputs by outcome: {dict(tally.outcomes)}")
    for line in tally.unexplained[:10]:
        print(f"  UNEXPLAINED {line}")
    env = environment(args, load_start, workload)
    print(f"  env {json.dumps(env)}")

    result = {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    record = dict(
        result,
        raw=raw,
        env=env,
        samples=samples,
        checks=checks,
        known_defects=dict(tally.known),
        outcomes=dict(tally.outcomes),
    )
    (OUT / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, each in its own interpreter, then a combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            print(f"workload {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        last = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] = combined["correct"] and last["correct"]
        combined["attempted"] += last["attempted"]
        combined["failed"] += last["failed"]
        for metric, entry in last["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = entry
    print(json.dumps(combined))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Set by ``measure``: run one share of a split loop, given the digest its passes must match.
    parser.add_argument("--loop-child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    missing = [p for p in (SRC / "dsalign" / "__init__.py", FIXTURES / "golden") if not p.exists()]
    if missing:
        print(f"cannot benchmark: {', '.join(str(p) for p in missing)} not found", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = load_spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.loop_child is not None:
        return run_loop_child(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
