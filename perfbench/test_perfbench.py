"""Tests of the benchmark itself: its generators and that its checks bite.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import mutants  # noqa: E402
import pipeline  # noqa: E402
import synth  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer, no_span  # noqa: E402

sys.path.insert(0, str(workloads.SRC))


@pytest.fixture
def pycache(tmp_path, monkeypatch):
    # import_dsalign points the process's bytecode cache at the directory.
    monkeypatch.setattr(sys, "pycache_prefix", sys.pycache_prefix)
    monkeypatch.setattr(sys, "dont_write_bytecode", sys.dont_write_bytecode)
    return tmp_path / "pycache"


def test_synthetic_generator_is_deterministic_under_a_seed():
    assert synth.generate(5, 3) == synth.generate(5, 3)
    assert synth.generate(5, 3)[0] != synth.generate(5, 4)[0]


def test_mutant_generator_is_deterministic_under_a_seed():
    bases = {"a": 'system "A" {\n  data d "D"\n}\n', "b": 'system "B" {\n}\n'}
    assert mutants.generate(bases, 50, 9) == mutants.generate(bases, 50, 9)
    assert mutants.generate(bases, 50, 9) != mutants.generate(bases, 50, 10)


def test_mutations_edit_the_base_text():
    base = 'system "A" {\n  data d "D"\n}\n'
    rng = random.Random(1)
    assert sum(mutants.mutate(base, rng) != base for _ in range(50)) >= 45


@pytest.mark.parametrize("blocks", [1, 2, 3])
def test_expected_counts_match_a_hand_count(blocks):
    text, expected = synth.generate(blocks, 7)
    # Counted by hand from one block of the template: seven elements
    # (ua, oa, service, component, function, data, event) and nine
    # relations (two by, influences, two serves, realized_by, the function's
    # realization, uses, about), after two actors.
    assert expected.elements == 2 + 7 * blocks
    assert expected.relations == 9 * blocks
    assert expected.items_by_rule == {
        "R1_cost": 4 * blocks,
        "R2_risk": blocks,
        "R3_business": blocks,
        "R4_user": blocks,
        "R5_quality": 0,
    }
    risks = set(re.findall(r"hinders: (\w+)", text))
    assert expected.attached_elements == expected.elements + 7 * blocks + len(risks)
    assert expected.attached_relations == 9 * blocks + 10 * blocks
    # The text agrees with the count: one statement keyword per element.
    statements = re.findall(
        r"^\s*(actor|user_activity|operator_activity|service|component|data|event|function)\b",
        text,
        re.M,
    )
    assert len(statements) == expected.elements


def test_dsalign_produces_the_expected_counts(pycache):
    dsa = workloads.import_dsalign(pycache)
    text, expected = synth.generate(3, 2)
    out = pipeline.run_pipeline(dsa, text, "s.dsa")
    assert workloads.synthetic_failures(out, expected, dsa) == []


def test_tampered_synthetic_artifact_is_a_failure(pycache):
    dsa = workloads.import_dsalign(pycache)
    text, expected = synth.generate(3, 2)
    out = pipeline.run_pipeline(dsa, text, "s.dsa")
    out.xml = re.sub(r"<relationship [^>]*/>\n", "", out.xml, count=1)
    out.dot = out.dot.rstrip().rstrip("}")
    assert workloads.synthetic_failures(out, expected, dsa) == ["xml_counts", "dot_balanced"]
    wrong = synth.Expected(**{**expected.__dict__, "items_by_rule": {**expected.items_by_rule, "R5_quality": 1}})
    fresh = pipeline.run_pipeline(dsa, text, "s.dsa")
    assert workloads.synthetic_failures(fresh, wrong, dsa) == ["items_by_rule"]


def test_changed_second_pass_is_a_failure(pycache):
    w = workloads.SyntheticLarge(1, pycache)
    w.dsa = workloads.import_dsalign(pycache)
    w.text, w.expected = synth.generate(2, 1)
    w.reference = None
    tally = workloads.Tally()
    first = pipeline.run_pipeline(w.dsa, w.text, "synthetic.dsa")
    w.check_pass(first, tally)
    second = pipeline.run_pipeline(w.dsa, w.text, "synthetic.dsa")
    second.dot += " "
    w.check_pass(second, tally)
    assert (tally.attempted, tally.failed, dict(tally.checks)) == (2, 1, {"byte_identical": 1})
    assert not tally.correct


def test_loop_interpreter_must_match_the_first_ones_digest():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "synthetic_large", "--seed", "1",
         "--seconds", "0.1", "--loop-child", "not-the-digest"],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    part = json.loads(proc.stdout.strip().splitlines()[-1])
    tally = workloads.Tally()
    tally.add(part["tally"])
    assert tally.attempted == tally.failed == len(part["op_s"]) >= 1
    assert dict(tally.checks) == {"byte_identical": tally.failed} and not tally.correct


def test_tampered_golden_is_a_failure(pycache):
    w = workloads.CorpusCli(1, pycache)
    workloads.Workload.setup(w)
    outs, matrix = w.corpus_pass(no_span)
    assert w.corpus_failures(outs, matrix) == []
    w.goldens["faq_chatbot.dot"] = w.goldens["faq_chatbot.dot"].replace(b"digraph", b"graph", 1)
    w.goldens["corpus_matrix.md"] += b"\n"
    assert w.corpus_failures(outs, matrix) == ["golden_dot", "golden_matrix"]


def test_tampered_golden_fails_the_cli_loop(pycache):
    w = workloads.CorpusCli(1, pycache)
    w.setup()
    w.calls = [(args, golden) for args, golden in w.calls if golden == "faq_chatbot.items.json"]
    w.goldens["faq_chatbot.items.json"] = b"{}\n"
    tally = workloads.Tally()
    w.measure(0.01, tally)
    assert tally.attempted == tally.failed == 1
    assert dict(tally.checks) == {"golden_stdout": 1}
    assert not tally.correct


def test_mutant_checks_bite_and_only_known_defects_are_explained(pycache):
    dsa = workloads.import_dsalign(pycache)
    text = (workloads.FIXTURES / "faq_chatbot.dsa").read_text(encoding="utf-8")
    out = pipeline.run_pipeline(dsa, text, "f.dsa")
    assert pipeline.failed_checks(dsa, out, "f.dsa") == []
    out.xml = out.xml.replace("</model>", "")
    out.fmt = out.fmt.replace("system", "sistem", 1)
    assert pipeline.failed_checks(dsa, out, "f.dsa") == ["xml_well_formed", "fmt_round_trip"]
    assert mutants.known_defect("xml_well_formed", text) is None
    assert mutants.known_defect("xml_well_formed", text + "\x01") == "control_char_in_xml"
    tally = workloads.Tally()
    tally.record(["xml_well_formed"], "x", lambda check: mutants.known_defect(check, text + "\x01"))
    assert tally.correct and tally.failed == 1
    tally.record(["xml_well_formed"], "y", lambda check: mutants.known_defect(check, text))
    assert not tally.correct


def test_dot_balance_ignores_braces_in_strings():
    assert pipeline.dot_balanced('digraph a {\n  "x" [label="{\\"}"];\n}\n')
    assert not pipeline.dot_balanced('digraph a {\n  "x" [label="open];\n}\n')
    assert not pipeline.dot_balanced("digraph a {\n")


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.traced_pass(0):
        with tracer.span("outer"):
            with tracer.span("inner"):
                sum(range(10000))
    spans = {s[0]: s for s in tracer.spans}
    selfs = tracer.self_seconds_by_pass()[0]
    outer = (spans["outer"][2] - spans["outer"][1]) / 1e9
    inner = (spans["inner"][2] - spans["inner"][1]) / 1e9
    assert selfs["inner"] == pytest.approx(inner)
    assert selfs["outer"] == pytest.approx(outer - inner)
    assert tracer.counts_by_pass("inner") == {0: 1}


def test_every_layer_metric_is_mapped():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    layers = json.loads((HERE / "layers.json").read_text(encoding="utf-8"))["metrics"]
    names = [m["name"] for m in spec["per_layer"]]
    assert sorted(layers) == sorted(names)
    e2e = {m["name"] for m in spec["end_to_end"]}
    workload_names = {w["name"] for w in spec["workloads"]}
    for entry in layers.values():
        for target in entry["moves"]:
            workload, metric = target.split(":")
            assert workload in workload_names and metric in e2e


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mutants", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_short_run_prints_every_end_to_end_metric():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mutants", "--seed", "2", "--seconds", "0.5", "--trace", "0"],
        cwd=workloads.ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["attempted"] >= 1
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_sampler_times_the_reference_during_an_operation():
    import calibrate
    from time import perf_counter

    with calibrate.Sampler() as sampler:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            sum(range(1000))
        end = perf_counter()
    assert len(sampler.starts) >= 3
    inside = sampler.inside(start, end)
    assert 0 < inside < end - start
    assert inside == pytest.approx(sum(e - s for s, e in zip(sampler.starts, sampler.ends) if s >= start and e <= end))
    assert 0 < sampler.reference(start, end) < 0.05
    with pytest.raises(RuntimeError):
        sampler.reference(end + 10, end + 11)


def test_mutants_count_each_file_once_with_every_failed_check(pycache):
    w = workloads.Mutants(1, pycache)
    w.dsa = workloads.import_dsalign(pycache)
    text = (workloads.FIXTURES / "faq_chatbot.dsa").read_text(encoding="utf-8")
    w.pool = [("m.dsa", text + "\x01"), ("n.dsa", text)]
    w.first_runs = {}
    out = pipeline.run_pipeline(w.dsa, text, "m.dsa")
    out.xml = out.xml.replace("</model>", "")
    for i in range(4):  # each file of the pool twice
        w.check_file(i, out)
    tally = workloads.Tally()
    w.finish(tally)
    assert (tally.attempted, tally.failed) == (2, 2)
    assert dict(tally.known) == {"control_char_in_xml": 1}
    assert not tally.correct  # n.dsa has no control character to explain it
    out.dot += " "
    w.check_file(4, out)
    tally = workloads.Tally()
    w.finish(tally)
    assert tally.checks["byte_identical"] == 1 and tally.failed == 2
