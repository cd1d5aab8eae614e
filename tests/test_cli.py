from __future__ import annotations

import atexit
import contextlib
import errno
import gc
import io
import os
import re
import subprocess
import sys
import threading
import warnings

import pytest

from conftest import FIXTURES, GOLDEN, FIXTURE_NAMES, REPO, run_cli
from corpus_digests import CLI_FORMS, HAND_WRITTEN

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


def test_crlf_is_accepted_and_fmt_writes_lf(tmp_path):
    lf = (FIXTURES / "faq_chatbot.dsa").read_bytes()
    crlf = tmp_path / "crlf.dsa"
    crlf.write_bytes(lf.replace(b"\n", b"\r\n"))
    proc = run_cli("check", str(crlf))
    assert (proc.returncode, proc.stderr) == (0, "")
    # The canonical form ends its lines with LF only.
    proc = run_cli("fmt", "--check", str(crlf))
    assert (proc.returncode, proc.stderr) == (1, f"{crlf}: not in canonical form\n")
    proc = run_cli("fmt", "--write", str(crlf))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert crlf.read_bytes() == lf


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


def _stderr_on_a_terminal(argv: list[str], env: dict) -> list[str]:
    """The lines a run writes to stderr when stderr is a pseudo-terminal."""
    pty = pytest.importorskip("pty")
    master, slave = pty.openpty()
    try:
        subprocess.run(
            [sys.executable, "-m", "dsalign", *argv], stdout=subprocess.DEVNULL, stderr=slave,
            cwd=REPO, env=env,
        )
    finally:
        os.close(slave)
    chunks = []
    while True:
        try:
            chunk = os.read(master, 4096)
        except OSError:  # EIO once the last writer has closed the terminal
            break
        if not chunk:
            break
        chunks.append(chunk)
    os.close(master)
    return b"".join(chunks).decode().splitlines()


def test_color_on_a_terminal(tmp_path):
    warned = tmp_path / "warned.dsa"
    warned.write_text('system "W" {\n  data d "D"\n}\n')  # W104
    invalid = tmp_path / "invalid.dsa"
    invalid.write_text('system "Bad" {\n  component c "C" {\n    runs_on: server;\n  }\n}\n')  # E010
    env = {k: v for k, v in _child_env(True).items() if k != "DSALIGN_NO_COLOR"}
    argv = ["check", "--strict", str(warned), str(invalid)]
    plain = _stderr_on_a_terminal(argv, {**env, "DSALIGN_NO_COLOR": "1"})
    assert len(plain) == 2 and " warning W104: " in plain[0] and " error E010: " in plain[1]
    assert not any("\x1b[" in line for line in plain)
    tinted = [f"\x1b[33m{plain[0]}\x1b[0m", f"\x1b[31m{plain[1]}\x1b[0m"]
    assert _stderr_on_a_terminal(argv, env) == tinted


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
    "name, strict, finding",
    [
        (
            "collide_item_id.dsa",
            False,
            ": error E201: item 'item_r1_cost_1' is already materialized",
        ),
        (
            "collide_principle_id.dsa",
            False,
            ": error E201: derived id 'principle_privacy' is already used by a DataModel element",
        ),
        # With --strict a warning stops export before attach, so the clash
        # that attach would report never shows.
        (
            "collide_strict_warning_first.dsa",
            True,
            ":7:8: warning W104: data model 'unused' is not accessed by any component",
        ),
    ],
    ids=["item_id", "principle_id", "strict_warning_first"],
)
def test_export_reports_a_derived_id_collision(tmp_path, name, strict, finding):
    # A valid model whose data element takes an id that attach would create.
    src = tmp_path / "collide.dsa"
    src.write_text(HAND_WRITTEN[name])
    check = run_cli("check", str(src))
    assert (check.returncode, check.stderr) == (0, f"{src}{finding}\n" if strict else "")
    proc = run_cli("export", str(src), "--format", "dot", *(["--strict"] if strict else []))
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr == f"{src}{finding}\n"


def test_clashing_open_exchange_identifiers_are_errors(tmp_path):
    src = tmp_path / "faq.dsa"
    src.write_text('system "Faq" {\n  data faq "D"\n}\n')
    check = run_cli("check", str(src))
    assert check.returncode == 1
    assert check.stderr.startswith(f"{src}:2:8: error E014: 'faq': element id repeats")
    src.write_text(HAND_WRITTEN["principle_privacy.dsa"])
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


def test_fmt_write_rewrites_a_file_named_dash(tmp_path):
    # "-" names stdout only as the value of ``--out`` or ``--items``; as an
    # input it is a file, for ``fmt --write`` as for ``check``.
    messy = (
        'system "Messy" {\n  component c "C" { runs_on: server;\n'
        '    function f "F"; uses: d; }\n  data d "D"\n}\n'
    )
    (tmp_path / "-").write_text(messy)
    proc = subprocess.run(
        [sys.executable, "-m", "dsalign", "fmt", "--write", "-"],
        capture_output=True, text=True, cwd=tmp_path, env=_child_env(True),
    )
    assert (proc.returncode, proc.stdout) == (0, ""), proc.stderr
    assert (tmp_path / "-").read_text() == run_cli("fmt", str(tmp_path / "-")).stdout != messy


def test_fmt_write_and_check_are_exclusive(tmp_path):
    proc = run_cli("fmt", "--write", "--check", FAQ)
    assert proc.returncode == 2


def test_out_path_in_missing_directory_is_io_error(tmp_path):
    out = tmp_path / "no" / "such" / "dir" / "faq.xml"
    proc = run_cli("export", FAQ, "--format", "open_exchange", "--out", str(out))
    assert proc.returncode == 3
    assert "cannot write" in proc.stderr


def test_derive_items_to_an_unwritable_path_is_io_error(tmp_path):
    # An empty path names no file, as with ``export --out ""``.
    for out in (str(tmp_path / "no" / "such" / "items.json"), ""):
        proc = run_cli("derive", FAQ, "--items", out)
        assert proc.returncode == 3
        assert proc.stderr == f"cannot write {out}: {os.strerror(errno.ENOENT)}\n"
        assert proc.stdout == ""


def _child_env(buffered: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(REPO / "src")
    return env if buffered else {**env, "PYTHONUNBUFFERED": "1"}


STDOUT_WRITERS = (
    ["derive", FAQ],
    ["derive", FAQ, "--items", "-"],
    ["export", FAQ, "--format", "open_exchange"],
    ["report", FAQ, "--matrix"],
    ["fmt", FAQ],
)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_failed_write_to_stdout_is_an_io_error(buffered, tmp_path):
    # Buffered, the write succeeds and the final flush fails; unbuffered, the
    # write itself fails.  Either way the run reports it once and exits 3.
    # A small text and then one larger than the buffer would leave the first
    # buffered after the failed write, and the final flush would fail again.
    big = tmp_path / "big.dsa"
    big.write_text((FIXTURES / "faq_chatbot.dsa").read_text().replace('"FAQ', '"' + "x" * 10_000))
    expected = f"cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"
    for argv in (*STDOUT_WRITERS, ["fmt", FAQ, str(big)]):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "dsalign", *argv], stdout=full,
                stderr=subprocess.PIPE, text=True, cwd=REPO, env=_child_env(buffered),
            )
        assert (proc.returncode, proc.stderr) == (3, expected), argv


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
def test_a_closed_pipe_on_stdout_is_an_io_error(buffered):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "dsalign", "derive", FAQ], stdout=write_end,
            stderr=subprocess.PIPE, text=True, cwd=REPO, env=_child_env(buffered),
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 3
    assert proc.stderr == f"cannot write <stdout>: {os.strerror(errno.EPIPE)}\n"


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
def test_a_closed_stdout_is_an_io_error_only_for_a_write(tmp_path):
    # With file descriptor 1 closed, Python starts with no stdout.  A command
    # that has text for stdout reports it once and exits 3; one that prints
    # nothing exits as it does with stdout open.
    copy = tmp_path / "faq.dsa"
    copy.write_text((FIXTURES / "faq_chatbot.dsa").read_text())
    bad = tmp_path / "bad.dsa"
    bad.write_text('system "Bad" {\n  data 9bad "D"\n}\n')
    failed = (3, f"cannot write <stdout>: {os.strerror(errno.EBADF)}\n")
    runs = [
        *((argv, failed) for argv in STDOUT_WRITERS),
        (["derive", FAQ, "--items", str(tmp_path / "items.json")], failed),
        (["export", FAQ, "--format", "dot"], failed),
        (["report", FAQ], failed),
        (["--help"], failed),
        (["check", FAQ], (0, "")),
        (["fmt", "--check", FAQ], (0, "")),
        (["fmt", "--write", str(copy)], (0, "")),
        (["export", FAQ, "--format", "dot", "--out", str(tmp_path / "m.dot")], (0, "")),
        (["fmt", str(bad)], (1, f"{bad}:2:8: error E005: invalid identifier '9bad'\n")),
    ]
    for argv, expected in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "dsalign", *argv], stderr=subprocess.PIPE, text=True,
            cwd=REPO, env=_child_env(True), preexec_fn=lambda: os.close(1),
        )
        assert (proc.returncode, proc.stderr) == expected, argv
    assert (tmp_path / "items.json").read_bytes() == (GOLDEN / "faq_chatbot.items.json").read_bytes()
    assert (tmp_path / "m.dot").read_bytes() == (GOLDEN / "faq_chatbot.dot").read_bytes()


UNUSED_DATA = 'system "W" {\n  data d "D"\n}\n'  # W104 and nothing else


@pytest.mark.skipif(os.name != "posix", reason="closes a file descriptor in the child")
def test_a_closed_stderr_is_an_io_error_only_for_a_diagnostic(tmp_path):
    # With file descriptor 2 closed, Python starts with no stderr.  A run with
    # nothing to report writes its artifact as it does with stderr open; a
    # run with a line for stderr exits 3 and writes nothing, on stdout either,
    # argparse's usage error included; its help still goes to stdout.
    unused = tmp_path / "unused.dsa"
    unused.write_text(UNUSED_DATA)
    fixtures = [str(FIXTURES / f"{n}.dsa") for n in sorted(FIXTURE_NAMES)]  # the golden's order
    runs = [
        (["check", FAQ], 0, None),
        (["derive", FAQ, "--items", "-"], 0, "faq_chatbot.items.json"),
        (["export", FAQ, "--format", "open_exchange"], 0, "faq_chatbot.open_exchange.xml"),
        (["export", FAQ, "--format", "dot"], 0, "faq_chatbot.dot"),
        (["report", *fixtures, "--matrix"], 0, "corpus_matrix.md"),
        (["fmt", "--check", FAQ], 0, None),
        (["check", str(unused)], 3, None),
    ]
    for argv, code, golden in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "dsalign", *argv], stdout=subprocess.PIPE,
            cwd=REPO, env=_child_env(True), preexec_fn=lambda: os.close(2),
        )
        stdout = (GOLDEN / golden).read_bytes() if golden else b""
        assert (proc.returncode, proc.stdout) == (code, stdout), argv

    def closed_stderr(*argv):
        return subprocess.run(
            [sys.executable, "-m", "dsalign", *argv], stdout=subprocess.PIPE,
            cwd=REPO, env=_child_env(True), preexec_fn=lambda: os.close(2),
        )

    usage = closed_stderr("check")
    assert (usage.returncode, usage.stdout) == (3, b"")
    helped = closed_stderr("check", "--help")
    assert (helped.returncode, helped.stdout) == (0, run_cli("check", "--help").stdout.encode())


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_failed_write_to_stderr_is_an_io_error(tmp_path):
    unused = tmp_path / "unused.dsa"
    unused.write_text(UNUSED_DATA)
    # The usage error of ``check`` with no file is argparse's own write.
    for argv in (["check", str(unused)], ["derive", str(unused), "--items", "-"], ["check"]):
        for buffered in (True, False):
            with open("/dev/full", "w") as full:
                proc = subprocess.run(
                    [sys.executable, "-m", "dsalign", *argv], stdout=subprocess.PIPE,
                    stderr=full, cwd=REPO, env=_child_env(buffered),
                )
            assert (proc.returncode, proc.stdout) == (3, b""), (argv, buffered)


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_help_to_a_full_stdout_is_an_io_error():
    # Buffered, the help text waits in the buffer and the final flush fails.
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "dsalign", "--help"], stdout=full,
            stderr=subprocess.PIPE, text=True, cwd=REPO, env=_child_env(True),
        )
    assert (proc.returncode, proc.stderr) == (
        3, f"cannot write <stdout>: {os.strerror(errno.ENOSPC)}\n"
    )


def test_atexit_handlers_run_once_after_the_cli_output(tmp_path):
    bad = tmp_path / "bad.dsa"
    bad.write_text('system "Bad" {\n  component c "C" {\n    runs_on: server;\n  }\n}\n')
    wrapper = (
        "import atexit, runpy\n"
        "atexit.register(print, 'atexit ran')\n"
        "runpy.run_module('dsalign', run_name='__main__')\n"
    )
    text = (FIXTURES / "faq_chatbot.dsa").read_text()
    for extra, code in (([], 0), ([str(bad)], 1), ([str(tmp_path / "absent.dsa")], 3)):
        for buffered in (True, False):
            proc = subprocess.run(
                [sys.executable, "-c", wrapper, "fmt", FAQ, *extra],
                capture_output=True, text=True, cwd=REPO, env=_child_env(buffered),
            )
            assert proc.returncode == code, proc.stderr
            assert proc.stdout == text + "atexit ran\n"


@pytest.mark.parametrize(
    "form",
    [
        *CLI_FORMS,
        ("fmt", "--write"),
        ("export", "--format", "dot", "--out", "out.dot"),
        ("derive", "--items", "items.json"),
    ],
    ids=" ".join,
)
def test_a_run_leaves_no_open_file_thread_or_exit_handler(form, tmp_path, monkeypatch):
    # ``run`` ends in ``os._exit``, so nothing closes a file, waits for a
    # thread or runs an exit handler after ``main`` returns: output left in an
    # open file or a thread's hands would be lost without an error.
    from dsalign import cli

    (tmp_path / "m.dsa").write_bytes((FIXTURES / "faq_chatbot.dsa").read_bytes())
    monkeypatch.chdir(tmp_path)
    command, *options = form
    threads, handlers = threading.active_count(), atexit._ncallbacks()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main([command, "m.dsa", *options])
        gc.collect()
    assert code == 0
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
    assert threading.active_count() == threads
    assert atexit._ncallbacks() == handlers


def test_the_corpus_cycle_matches_the_goldens_with_stdout_buffered():
    # The benchmark's children run with no PYTHON* variables, so their stdout
    # is block-buffered and reaches the file only at the final flush.
    import interpreters

    assert interpreters.check(sys.executable) == []


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
UNVALUED_INFLUENCE = HAND_WRITTEN["unvalued_influence.dsa"]


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
    base = {"dsalign", "dsalign.model", "dsalign.dsl", "dsalign.cli"}
    corpus = [str(FIXTURES / f"{n}.dsa") for n in FIXTURE_NAMES]
    # Each child runs twice: as the benchmark runs it, and under -S, where no
    # module that ``site`` or a ``.pth`` file preloads can hide an import from
    # -X importtime or stand in sys.modules for one that dsalign loads.
    for flags in ([], ["-S"]):
        for module in ("dsalign.cli", "dsalign"):
            code = f"import {module}, sys; print(sorted({unwanted | parser | lazy!r} & set(sys.modules)))"
            proc = subprocess.run(
                [sys.executable, *flags, "-c", code], capture_output=True, text=True, env=env
            )
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout == "[]\n", (flags, module)
        # Each command the benchmark times loads exactly the dsalign modules
        # it calls.
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
                [sys.executable, *flags, "-X", "importtime", "-m", "dsalign", *argv],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
            lines = proc.stderr.splitlines()
            assert all(line.startswith("import time:") for line in lines), (flags, argv)
            loaded = {line.rsplit("|", 1)[1].strip() for line in lines[1:]}
            assert {m for m in loaded if m.startswith("dsalign")} == base | own, (flags, argv)
            assert not loaded & (unwanted | parser), (flags, argv)
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


def test_package_version_is_the_project_version():
    # pyproject.toml and the package each write the version; 3.10 has no tomllib.
    import dsalign

    project = re.search(r'^version = "([^"]+)"$', (REPO / "pyproject.toml").read_text(), re.M)
    assert dsalign.__version__ == project[1]
