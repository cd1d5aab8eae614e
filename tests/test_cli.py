from __future__ import annotations

import os
import subprocess
import sys

import pytest

from conftest import FIXTURES, GOLDEN, FIXTURE_NAMES, REPO, run_cli

FAQ = str(FIXTURES / "faq_chatbot.dsa")


def test_check_clean_fixture():
    proc = run_cli("check", FAQ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == ""


def test_check_all_fixtures_at_once():
    paths = [str(FIXTURES / f"{n}.dsa") for n in FIXTURE_NAMES]
    proc = run_cli("check", *paths)
    assert proc.returncode == 0, proc.stderr


def test_check_requires_inputs():
    proc = run_cli("check")
    assert proc.returncode == 2


def test_unknown_command_is_usage_error():
    proc = run_cli("frobnicate", FAQ)
    assert proc.returncode == 2


def test_check_reports_diagnostics(tmp_path):
    bad = tmp_path / "bad.dsa"
    bad.write_text('system "Bad" {\n  component c "C" {\n    runs_on: server;\n  }\n}\n')
    proc = run_cli("check", str(bad))
    assert proc.returncode == 1
    assert "E010" in proc.stderr
    assert "error" in proc.stderr


def test_check_strict_turns_warnings_into_failures(tmp_path):
    warn = tmp_path / "warn.dsa"
    warn.write_text('system "W" {\n  data unused "Unused"\n}\n')
    relaxed = run_cli("check", str(warn))
    assert relaxed.returncode == 0, relaxed.stderr
    assert "W104" in relaxed.stderr
    strict = run_cli("check", "--strict", str(warn))
    assert strict.returncode == 1


def test_check_missing_file_is_io_error(tmp_path):
    proc = run_cli("check", str(tmp_path / "absent.dsa"))
    assert proc.returncode == 3
    assert "E190" in proc.stderr


def test_a_line_break_in_a_path_is_escaped_on_stderr(tmp_path, capsys):
    from dsalign import cli

    missing = tmp_path / "missing\nfile.dsa"
    assert cli.main(["check", str(missing)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == [err[:-1]]
    assert "missing\\nfile.dsa" in err and "E190" in err
    unformatted = tmp_path / "a\u2028b.dsa"
    unformatted.write_text((FIXTURES / "faq_chatbot.dsa").read_text() + "\n")
    assert cli.main(["fmt", "--check", str(unformatted)]) == 1
    err = capsys.readouterr().err
    assert err == str(unformatted).replace("\u2028", "\\u2028") + ": not in canonical form\n"


def test_check_invalid_utf8_is_io_error(tmp_path):
    p = tmp_path / "bin.dsa"
    p.write_bytes(b"\xff\xfe\x00")
    proc = run_cli("check", str(p))
    assert proc.returncode == 3
    assert "E191" in proc.stderr


def test_byte_order_mark_is_dropped_on_load(tmp_path):
    bom = tmp_path / "bom.dsa"
    bom.write_bytes(b"\xef\xbb\xbf" + (FIXTURES / "faq_chatbot.dsa").read_bytes())
    proc = run_cli("check", str(bom))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    # The canonical form has no byte-order mark.
    proc = run_cli("fmt", "--check", str(bom))
    assert proc.returncode == 1
    assert proc.stderr == f"{bom}: not in canonical form\n"


def test_diagnostics_render_with_location(tmp_path):
    bad = tmp_path / "loc.dsa"
    bad.write_text('system "X" {\n  data d "D"\n  data d "Again"\n}\n')
    proc = run_cli("check", str(bad))
    assert f"{bad}:3:8: error E001" in proc.stderr


def test_no_color_in_pipes():
    proc = run_cli("check", FAQ + ".missing")
    assert "\x1b[" not in proc.stderr


def test_no_color_env_respected(tmp_path):
    env = dict(os.environ, DSALIGN_NO_COLOR="1")
    proc = run_cli("check", str(tmp_path / "absent.dsa"), env=env)
    assert "\x1b[" not in proc.stderr


def test_derive_summary_line():
    proc = run_cli("derive", FAQ)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "15 items (9 cost, 2 risk, 2 business, 1 user, 1 quality)\n"


def test_derive_writes_golden_itemset(tmp_path):
    out = tmp_path / "items.json"
    proc = run_cli("derive", FAQ, "--items", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == (GOLDEN / "faq_chatbot.items.json").read_text()


def test_derive_refuses_invalid_model(tmp_path):
    bad = tmp_path / "bad.dsa"
    bad.write_text('system "Bad" {\n  component c "C" {\n    runs_on: server;\n  }\n}\n')
    proc = run_cli("derive", str(bad))
    assert proc.returncode == 1
    assert proc.stdout == ""


def test_export_open_exchange_matches_golden(tmp_path):
    out = tmp_path / "faq.xml"
    proc = run_cli("export", FAQ, "--format", "open_exchange", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == (GOLDEN / "faq_chatbot.open_exchange.xml").read_text()


def test_export_dot_matches_golden(tmp_path):
    out = tmp_path / "faq.dot"
    proc = run_cli("export", FAQ, "--format", "dot", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    assert out.read_text() == (GOLDEN / "faq_chatbot.dot").read_text()


def test_export_to_stdout():
    proc = run_cli("export", FAQ, "--format", "dot")
    assert proc.returncode == 0
    assert proc.stdout.startswith("digraph faq_chatbot {")


def test_export_no_derived_has_no_motivation_nodes():
    proc = run_cli("export", FAQ, "--format", "dot", "--no-derived")
    assert proc.returncode == 0
    assert "item_r1_cost_1" not in proc.stdout
    assert "subgraph" not in proc.stdout


def test_export_requires_format():
    proc = run_cli("export", FAQ)
    assert proc.returncode == 2


def test_export_unknown_format_is_usage_error():
    proc = run_cli("export", FAQ, "--format", "svg")
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "data_id, event, message",
    [
        ("item_r1_cost_1", "", "item 'item_r1_cost_1' is already materialized"),
        (
            "principle_privacy",
            '  event e "E" {\n    about: principle_privacy;\n'
            '    hinders: privacy severity: low "leaks";\n  }\n',
            "derived id 'principle_privacy' is already used by a DataModel element",
        ),
    ],
    ids=["item_id", "principle_id"],
)
def test_export_reports_a_derived_id_collision(tmp_path, data_id, event, message):
    # A valid model whose data element takes an id that attach would create.
    src = tmp_path / "collide.dsa"
    src.write_text(
        'system "Collide" {\n  component c "C" {\n    function f "F";\n'
        f'    uses: {data_id};\n  }}\n  data {data_id} "X"\n{event}}}\n'
    )
    check = run_cli("check", str(src))
    assert (check.returncode, check.stderr) == (0, "")
    proc = run_cli("export", str(src), "--format", "dot")
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"{src}: error E201: {message}\n"


def test_clashing_open_exchange_identifiers_are_errors(tmp_path):
    src = tmp_path / "faq.dsa"
    src.write_text('system "Faq" {\n  data faq "D"\n}\n')
    check = run_cli("check", str(src))
    assert check.returncode == 1
    assert check.stderr.startswith(f"{src}:2:8: error E014: 'faq': element id repeats")
    src.write_text(
        'system "Principle Privacy" {\n  component c "C" {\n    function f "F";\n  }\n'
        '  event e "E" {\n    about: c;\n    hinders: privacy severity: low "leaks";\n  }\n}\n'
    )
    assert run_cli("check", str(src)).returncode == 0
    proc = run_cli("export", str(src), "--format", "open_exchange")
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == (
        f"{src}: error E014: derived id 'principle_privacy' repeats the Open Exchange"
        " identifier of the system name\n"
    )


def test_report_matrix_over_corpus(tmp_path):
    paths = [str(FIXTURES / f"{n}.dsa") for n in sorted(FIXTURE_NAMES)]
    proc = run_cli("report", *paths, "--matrix")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "corpus_matrix.md").read_text()


def test_report_single_table():
    proc = run_cli("report", FAQ)
    assert proc.returncode == 0
    assert proc.stdout.startswith("# FAQ Chatbot")
    assert proc.stdout.count("item_r1_cost_") == 9


def test_report_csv_matrix():
    paths = [str(FIXTURES / f"{n}.dsa") for n in FIXTURE_NAMES]
    proc = run_cli("report", *paths, "--matrix", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0].startswith("category,common,")


def test_report_duplicate_inputs_usage_error():
    proc = run_cli("report", FAQ, FAQ, "--matrix")
    assert proc.returncode == 2
    assert proc.stderr == "error E400: duplicate system names: FAQ Chatbot\n"


def test_fmt_prints_canonical_form():
    proc = run_cli("fmt", FAQ)
    assert proc.returncode == 0
    assert proc.stdout == (FIXTURES / "faq_chatbot.dsa").read_text()


def test_fmt_check_passes_on_fixtures():
    paths = [str(FIXTURES / f"{n}.dsa") for n in FIXTURE_NAMES]
    proc = run_cli("fmt", "--check", *paths)
    assert proc.returncode == 0, proc.stderr


def test_fmt_check_fails_on_non_canonical(tmp_path):
    messy = tmp_path / "messy.dsa"
    messy.write_text(
        'system "Messy" {\n  component c "C" { runs_on: server;\n'
        '    function f "F"; uses: d; }\n  data d "D"\n}\n'
    )
    proc = run_cli("fmt", "--check", str(messy))
    assert proc.returncode == 1
    assert "not in canonical form" in proc.stderr


def test_fmt_write_rewrites_in_place(tmp_path):
    messy = tmp_path / "messy.dsa"
    messy.write_text(
        'system "Messy" {\n  component c "C" { runs_on: server;\n'
        '    function f "F"; uses: d; }\n  data d "D"\n}\n'
    )
    proc = run_cli("fmt", "--write", str(messy))
    assert proc.returncode == 0, proc.stderr
    check = run_cli("fmt", "--check", str(messy))
    assert check.returncode == 0


def test_fmt_write_and_check_are_exclusive(tmp_path):
    proc = run_cli("fmt", "--write", "--check", FAQ)
    assert proc.returncode == 2


def test_out_path_in_missing_directory_is_io_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "faq.xml"
    proc = run_cli("export", FAQ, "--format", "open_exchange", "--out", str(out))
    assert proc.returncode == 3
    assert "cannot write" in proc.stderr


def test_derive_items_to_an_unwritable_path_is_io_error(tmp_path):
    out = tmp_path / "no" / "such" / "items.json"
    proc = run_cli("derive", FAQ, "--items", str(out))
    assert proc.returncode == 3
    assert proc.stderr.startswith(f"cannot write {out}: ")
    assert proc.stdout == ""


def test_fmt_prints_the_valid_files_and_fails_on_an_invalid_one(tmp_path):
    bad = tmp_path / "bad.dsa"
    bad.write_text('system "Bad" {\n  data 9bad "D"\n}\n')
    proc = run_cli("fmt", str(bad), FAQ)
    assert proc.returncode == 1
    assert proc.stderr == f"{bad}:2:8: error E005: invalid identifier '9bad'\n"
    assert proc.stdout == (FIXTURES / "faq_chatbot.dsa").read_text()


def test_report_aborts_when_any_input_fails(tmp_path):
    bad = tmp_path / "bad.dsa"
    bad.write_text("not a model\n")
    proc = run_cli("report", FAQ, str(bad), "--matrix")
    assert proc.returncode == 1
    assert proc.stdout == ""


def test_report_csv_tables_without_matrix():
    proc = run_cli("report", FAQ, "--format", "csv")
    assert proc.returncode == 0
    header = proc.stdout.splitlines()[0]
    assert header == "id,category,description,sources,severity,rule"
    assert proc.stdout.count("\n") == 16  # header + 15 items


def test_fmt_concatenates_multiple_files_to_stdout():
    second = str(FIXTURES / "speech_assistant.dsa")
    proc = run_cli("fmt", FAQ, second)
    assert proc.returncode == 0
    expected = (FIXTURES / "faq_chatbot.dsa").read_text() + (
        FIXTURES / "speech_assistant.dsa"
    ).read_text()
    assert proc.stdout == expected


def test_derive_prints_each_warning_once(tmp_path):
    warn = tmp_path / "warn.dsa"
    warn.write_text(
        'system "W" {\n  component c "C" {\n    function f "F";\n  }\n'
        '  data unused "Unused"\n}\n'
    )
    proc = run_cli("derive", str(warn))
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.count("W104") == 1
    assert proc.stdout.startswith("2 items")


# An influence whose target declares no business value: W102, W103 and W110.
UNVALUED_INFLUENCE = (
    'system "W" {\n  user_activity a "A" {\n    influences: b;\n  }\n'
    '  operator_activity b "B"\n}\n'
)


def test_derive_reports_warnings_at_their_source(tmp_path):
    path = tmp_path / "m.dsa"
    path.write_text(UNVALUED_INFLUENCE)
    check = run_cli("check", str(path))
    for command in (["derive"], ["export", "--format", "dot"], ["report"]):
        proc = run_cli(*command, str(path))
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert [line.split(" warning ")[1][:4] for line in lines] == ["W103", "W102", "W110"]
        for line in lines:
            assert line.startswith(f"{path}:"), line
            assert line.split(":")[1].isdigit() and line.split(":")[2].isdigit(), line
        assert "\n".join(lines[:2]) + "\n" == check.stderr
    assert lines[2] == f"{path}:5:21: warning W110: influence target 'b' of 'a' yields no business value"


def test_export_no_derived_reports_what_check_reports(tmp_path):
    from dsalign import load_file, to_dot

    path = tmp_path / "m.dsa"
    path.write_text(UNVALUED_INFLUENCE)
    check = run_cli("check", str(path))
    proc = run_cli("export", str(path), "--format", "dot", "--no-derived")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == check.stderr
    assert "W110" not in proc.stderr
    assert proc.stdout == to_dot(load_file(path).model)


def test_derive_items_to_stdout_is_pure_artifact():
    proc = run_cli("derive", FAQ, "--items", "-")
    assert proc.returncode == 0
    assert proc.stdout == (GOLDEN / "faq_chatbot.items.json").read_text()


def test_pipeline_stdout_is_reproducible():
    first = run_cli("derive", FAQ)
    second = run_cli("derive", FAQ)
    assert first.stdout == second.stdout
    assert first.returncode == second.returncode == 0


def test_control_character_in_a_name_never_reaches_open_exchange(tmp_path, monkeypatch, capsys):
    from dsalign import cli, export

    def unreachable(*args, **kwargs):
        raise AssertionError("to_open_exchange was called")

    monkeypatch.setattr(export, "to_open_exchange", unreachable)
    src = tmp_path / "ctl.dsa"
    text = (FIXTURES / "faq_chatbot.dsa").read_text(encoding="utf-8")
    src.write_text(text.replace('system "', 'system "FAQ\x01', 1), encoding="utf-8")
    assert cli.main(["export", "--format", "open_exchange", str(src)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "E108: character '\\x01' is not allowed in a string" in captured.err


def test_cli_import_loads_no_module_that_only_some_commands_need():
    # uuid (which loads platform) has no user, and csv serves only the CSV
    # reports.  json has none: itemset JSON comes from the C encoder in
    # _json.  dataclasses brings in inspect, ast and dis, which cost more to
    # import than all of dsalign.  argparse, with the gettext and locale it
    # loads, serves only help and usage errors.  derive, export and report
    # load only for the commands that run them.  Each costs start-up time.
    parser = {"argparse", "gettext", "locale"}
    unwanted = {"uuid", "platform", "json", "csv", "dataclasses", "inspect", "ast", "dis"}
    lazy = {"dsalign.derive", "dsalign.export", "dsalign.report"}
    env = {**os.environ, "PYTHONPATH": str(REPO / "src"), "COLUMNS": "80"}
    for module in ("dsalign.cli", "dsalign"):
        code = f"import {module}, sys; print(sorted({unwanted | parser | lazy!r} & set(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "[]\n", module
    # Each command the benchmark times, run as the benchmark runs it, loads
    # exactly the dsalign modules it calls.
    base = {"dsalign", "dsalign.model", "dsalign.dsl", "dsalign.cli"}
    corpus = [str(FIXTURES / f"{n}.dsa") for n in FIXTURE_NAMES]
    for argv, own in (
        (["check", FAQ], set()),
        (["derive", FAQ, "--items", "-"], {"dsalign.derive"}),
        (["export", FAQ, "--format", "open_exchange"], {"dsalign.derive", "dsalign.export"}),
        (["export", FAQ, "--format", "dot"], {"dsalign.derive", "dsalign.export"}),
        (["export", FAQ, "--format", "dot", "--no-derived"], {"dsalign.export"}),
        (["report", *corpus, "--matrix"], {"dsalign.derive", "dsalign.report"}),
        (["fmt", "--check", FAQ], set()),
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-m", "dsalign", *argv],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stderr.splitlines()
        assert all(line.startswith("import time:") for line in lines), argv
        loaded = {line.rsplit("|", 1)[1].strip() for line in lines[1:]}
        assert {m for m in loaded if m.startswith("dsalign")} == base | own, argv
        assert not loaded & (unwanted | parser), argv
    # Help still comes from argparse.
    proc = run_cli("--help", env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: dsalign [-h] {check,derive,export,report,fmt} ...\n")


def test_package_names_load_their_module_on_first_use():
    names = (
        "import dsalign, sys\n"
        "lazy = {'dsalign.derive', 'dsalign.export', 'dsalign.report'}\n"
        "assert not lazy & set(sys.modules)\n"
        "assert set(dsalign.__all__) <= set(dir(dsalign))\n"
        "from dsalign import *\n"
        "assert all(globals()[name] is getattr(dsalign, name) for name in dsalign.__all__)\n"
        "assert lazy <= set(sys.modules)\n"
        "from dsalign import export, derive\n"
        "assert export.to_dot is to_dot and derive.Rule is Rule\n"
        "try:\n"
        "    dsalign.no_such_name\n"
        "except AttributeError as err:\n"
        "    print(err)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(REPO / "src")}
    proc = subprocess.run([sys.executable, "-c", names], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "module 'dsalign' has no attribute 'no_such_name'\n"
