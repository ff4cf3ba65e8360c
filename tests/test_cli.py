import contextlib
import io
import json
import os
import pathlib
import resource
import shlex
import subprocess
import sys

import pytest

from beilab import cli
from beilab.graphs import GraphParseError, emit_graph6, path_graph
from conftest import fig_text

DATA = pathlib.Path(__file__).parent / "data"


def run_cli(argv, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "beilab.cli", *argv],
        input=stdin, capture_output=True, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def test_analyze_fig_edge_list(tmp_path):
    p = tmp_path / "fig.txt"
    p.write_text(fig_text())
    code, out, err = run_cli(["analyze", str(p)])
    assert code == 0, err
    lines = [ln for ln in out.splitlines() if ln]
    assert len(lines) == 1
    data = json.loads(lines[0])
    assert data["girth"] == 3 and data["n"] == 12
    # the example graph is not unmixed: removing {3,4,6,8,10} leaves five
    # components, not six
    assert data["unmixed"] is False
    assert data["cm"] is False and data["depth"] == 12 and data["dim"] == 13


def test_analyze_graph6_stream_stdin():
    code, out, err = run_cli(["analyze", "-"], stdin="Bg\nC~\n")
    assert code == 0, err
    reports = [json.loads(ln) for ln in out.splitlines() if ln]
    assert [r["n"] for r in reports] == [3, 4]
    assert all(r["cm"] for r in reports)


def test_analyze_header_tolerated():
    code, out, _ = run_cli(["analyze", "-"], stdin=">>graph6<<Bg\n")
    assert code == 0
    assert json.loads(out)["n"] == 3


def test_analyze_empty_input():
    code, out, _ = run_cli(["analyze", "-"], stdin="")
    assert code == 0 and out.strip() == ""


def test_analyze_parse_error_names_line():
    code, out, err = run_cli(["analyze", "-"], stdin="Bg\nnot graph6 at all\n")
    assert code == 1
    assert "line 2" in err


def test_analyze_repeated_edge_is_a_parse_error():
    code, out, err = run_cli(["analyze", "-"], stdin="2 2\n1 2\n2 1\n")
    assert code == 1 and out == ""
    assert "line 3: edge (2,1) repeats line 2" in err


def test_parse_input_graph6_stream():
    # blank lines are skipped, a header is tolerated, and an error names
    # the record's line in the original text
    graphs = cli.parse_input("Bg\n\nC~\n>>graph6<<Dhc\n")
    assert [g.n for g in graphs] == [3, 4, 5]
    for bad in ("!!", "C"):    # not graph6 at all; a truncated record
        with pytest.raises(GraphParseError, match="^line 3: "):
            cli.parse_input(f"Bg\n\n{bad}\n")


def test_analyze_max_n_indeterminate():
    code, out, _ = run_cli(["analyze", "-", "--max-n", "3"],
                           stdin="Bg\nC~\n")
    assert code == 2
    lines = out.splitlines()
    assert json.loads(lines[0])["n"] == 3
    assert "max-n" in lines[1]


def _cap_address_space():
    # a safety net: a regression fails with MemoryError, not a full host
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 1 << 30 if hard == resource.RLIM_INFINITY else min(1 << 30, hard)
    resource.setrlimit(resource.RLIMIT_AS, (limit, hard))


# Runs the CLI under a small interpreter and prints its peak RSS (KiB) on
# stderr. A child forked straight from the test process would count the
# test process's own pages in its peak.
_MEASURED_CLI = """
import resource, subprocess, sys
proc = subprocess.run([sys.executable, "-m", "beilab.cli", *sys.argv[1:]],
                      input=sys.stdin.buffer.read())
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss, file=sys.stderr)
sys.exit(proc.returncode)
"""


def test_analyze_oversize_header_allocates_no_per_vertex_state():
    # --max-n is checked before any per-vertex structure is built, so a
    # 300,000-vertex header costs no more memory than a small graph
    proc = subprocess.run([sys.executable, "-c", _MEASURED_CLI, "analyze", "-"],
                          input="300000 0\n", capture_output=True, text=True,
                          timeout=600, preexec_fn=_cap_address_space)
    assert proc.returncode == 2, proc.stderr
    assert json.loads(proc.stdout) == {"budget": "max-n exceeded"}
    peak_kib = int(proc.stderr.split()[-1])
    assert peak_kib < 60 * 1024


def test_analyze_over_path_cap_is_indeterminate():
    # 15 vertices is within the default --max-n (16) but over the
    # admissible-path cap (14) of the initial ideal
    path15 = "15 14\n" + "".join(f"{v} {v + 1}\n" for v in range(1, 15))
    code, out, err = run_cli(["analyze", "-"], stdin=path15)
    assert code == 2, err
    assert json.loads(out) == {"budget": "path-cap exceeded"}
    code, out, err = run_cli(["initial-ideal", "-"], stdin=path15)
    assert code == 2, err
    assert out.strip() == "# path-cap exceeded"


def test_verify_girth_small_corpus():
    code, out, err = run_cli(["verify", "girth", "-"],
                             stdin="Bg\nC~\nDhc\n")
    assert code == 0, err
    data = json.loads(out)
    assert data["theorem"] == "girth" and data["violations"] == []


@pytest.mark.parametrize("n", [15, 20])
def test_verify_counts_capped_graphs_as_indeterminate(n):
    # 15 vertices is over the admissible-path cap (14), 20 over --max-n
    path = emit_graph6(path_graph(n)) + "\n"
    code, out, err = run_cli(["verify", "girth", "-"], stdin="Bg\n" + path)
    assert code == 2, err
    data = json.loads(out)
    assert data["indeterminate"] == 1 and data["instances"] == 1
    code, out, err = run_cli(["verify", "girth", "-"], stdin=path)
    assert code == 2 and "Traceback" not in err
    assert json.loads(out)["instances"] == 0


def test_verify_honours_budgets():
    # with both budgets at 1: P4 is CM and its depth interval closes on
    # the graph alone, so it is decided; F~zc?'s interval (7, 8) stays open
    # through the squeeze's bounds and Ohtani's lemma, so its squeeze must
    # scan the lcm lattice, and its depth, asked at its cut vertex, is
    # indeterminate
    budgets = ["--lattice-budget", "1", "--face-budget", "1"]
    code, out, err = run_cli(["verify", "saturation", "-", *budgets],
                             stdin="Ch\n")
    assert code == 0, err
    assert json.loads(out)["indeterminate"] == 0
    code, out, err = run_cli(["verify", "depth-equality", "-", *budgets],
                             stdin="F~zc?\n")
    assert code == 2, err
    assert json.loads(out)["indeterminate"] >= 1
    code, out, err = run_cli(["verify", "depth-equality", "-"],
                             stdin="F~zc?\n")
    assert code == 0, err


@pytest.mark.parametrize("flags, env", [
    (["--lattice-budget", "1", "--face-budget", "1"], {}),
    ([], {"BEI_LATTICE_BUDGET": "1", "BEI_FACE_BUDGET": "1"}),
], ids=["flags", "env"])
def test_analyze_honours_both_budgets(monkeypatch, flags, env):
    # a budget-limited report is its golden line with the depth withheld,
    # and the CM verdict withheld too unless a filter decided it
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    args = cli.build_parser().parse_args(
        ["analyze", str(DATA / "connected_upto6.g6"), *flags])
    buf = io.StringIO()
    assert cli.cmd_analyze(args, out=buf) == 2
    lines = buf.getvalue().splitlines()
    golden = (DATA / "analyze_upto6.jsonl").read_text().splitlines()
    assert len(lines) == len(golden)
    limited = 0
    for line, gold in zip(lines, golden):
        if line == gold:
            continue
        limited += 1
        got, want = json.loads(line), json.loads(gold)
        want.update(depth=None, budget="exceeded")
        if got["cm"] is None:
            want["cm"] = want["witnesses"]["cm"] = None
        assert got == want
    assert limited >= 1


def test_analyze_matches_the_budget_golden():
    # analyze_upto6_budget1.jsonl is the stdout of `beilab analyze
    # tests/data/connected_upto6.g6 --face-budget 1 --lattice-budget 1`,
    # which exits 2 (CI also runs the installed command)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(["analyze", str(DATA / "connected_upto6.g6"),
                         "--face-budget", "1", "--lattice-budget", "1"])
    assert code == 2
    assert buf.getvalue() == (DATA / "analyze_upto6_budget1.jsonl").read_text()


def test_budget_goldens_withhold_answers_and_never_change_one():
    # a budget-limited report line is marked, or it is the unlimited line
    limited = (DATA / "analyze_upto6_budget1.jsonl").read_text().splitlines()
    golden = (DATA / "analyze_upto6.jsonl").read_text().splitlines()
    assert len(limited) == len(golden) == 143
    marked = 0
    for line, gold in zip(limited, golden):
        if json.loads(line).get("budget") == "exceeded":
            marked += 1
        else:
            assert line == gold
    assert marked >= 1
    # a budget-limited verdict reports no violation, and only findings the
    # unlimited run reports too
    limited = (DATA / "verify_7_budget1.jsonl").read_text().splitlines()
    golden = (DATA / "verify_7.jsonl").read_text().splitlines()
    assert len(limited) == len(golden) == 7
    for line, gold in zip(limited, golden):
        got, want = json.loads(line), json.loads(gold)
        assert got["theorem"] == want["theorem"]
        assert not got["violations"]
        assert all(f in want["findings"] for f in got["findings"])


@pytest.mark.parametrize("violations,indeterminate,findings,code", [
    ((("Bg", "x"),), 1, (("Bg", "y"),), 1),
    ((), 1, (("Bg", "y"),), 2),
    ((), 0, (("Bg", "y"),), 3),
    ((), 0, (), 0),
])
def test_verify_exit_code_precedence(monkeypatch, violations, indeterminate,
                                     findings, code):
    from beilab.lab import TheoremVerdict
    monkeypatch.setitem(cli.VERIFIERS, "fake", lambda graphs, limits, **kw:
                        TheoremVerdict("fake", "-", len(graphs), violations,
                                       findings=findings,
                                       indeterminate=indeterminate))
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(b"Bg\n")))
    args = cli.build_parser().parse_args(["verify", "fake", "-"])
    assert cli.cmd_verify(args, out=io.StringIO()) == code


@pytest.mark.parametrize("theorem", sorted(cli.VERIFIERS))
def test_verify_disconnected_and_empty_graphs(monkeypatch, theorem):
    # P3 + K1 has a cut vertex, 2K2 has none, "0 0" is the empty graph
    for text in ("4 2\n1 2\n2 3\n", "4 2\n1 2\n3 4\n", "0 0\n"):
        monkeypatch.setattr(sys, "stdin",
                            io.TextIOWrapper(io.BytesIO(text.encode())))
        args = cli.build_parser().parse_args(["verify", theorem, "-"])
        buf = io.StringIO()
        assert cli.cmd_verify(args, out=buf) in (0, 2, 3)
        lines = buf.getvalue().splitlines()
        assert len(lines) == 1
        data = json.loads(lines[0])
        assert data["theorem"] == theorem and data["violations"] == []
        if text.startswith("4 2\n1 2\n2 3") and theorem in (
                "deletion", "gluing", "depth-equality"):
            # the split verifiers count an unsplit graph as indeterminate
            assert data["indeterminate"] == 1


def test_verify_unknown_theorem():
    code, _, err = run_cli(["verify", "no-such-theorem", "-"], stdin="Bg\n")
    assert code == 64
    assert "unknown theorem" in err


def test_initial_ideal_output():
    code, out, _ = run_cli(["initial-ideal", "-"], stdin="3 2\n1 2\n2 3\n")
    assert code == 0
    assert out.splitlines() == ["x1*y2", "x2*y3"]


def test_initial_ideal_single_vertex_empty():
    code, out, _ = run_cli(["initial-ideal", "-"], stdin="1 0\n")
    assert code == 0 and out.strip() == ""


def test_env_var_mirrors_flags(monkeypatch, tmp_path):
    monkeypatch.setenv("BEI_MAX_N", "3")
    p = tmp_path / "in.g6"
    p.write_text("C~\n")
    # call in-process so the env var is visible to the parser
    args = cli.build_parser().parse_args(["analyze", str(p)])
    buf = io.StringIO()
    code = cli.cmd_analyze(args, out=buf)
    assert code == 2 and "max-n" in buf.getvalue()


def test_flag_overrides_env(monkeypatch):
    monkeypatch.setenv("BEI_FIELD", "7")
    args = cli.build_parser().parse_args(["analyze", "-", "--field", "0"])
    assert args.field == 0


@pytest.mark.parametrize("flags, env", [
    (["--field", "4"], {}),
    (["--field", "1"], {}),
    ([], {"BEI_FIELD": "x"}),
    ([], {"BEI_FACE_BUDGET": "abc"}),
    (["--face-budget", "abc"], {}),
    (["--field", "1000000000000000003"], {}),
    (["--threads", "0"], {}),
    (["--threads", "-3"], {}),
    ([], {"BEI_THREADS": "0"}),
    (["--face-budget", "-1"], {}),
    (["--lattice-budget", "-5"], {}),
    (["--max-n", "-1"], {}),
    ([], {"BEI_FACE_BUDGET": "-1"}),
    ([], {"BEI_LATTICE_BUDGET": "-5"}),
    ([], {"BEI_MAX_N": "-1"}),
])
def test_bad_flag_or_env_value_is_a_parse_error(monkeypatch, flags, env):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run_cli(["analyze", "-", *flags], stdin="Bg\n")
    assert code == 1 and out == ""
    assert "error" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "girth", "-", "--threads", "2"],
    ["initial-ideal", "-", "--field", "7"],
    ["initial-ideal", "-", "--face-budget", "1"],
    ["initial-ideal", "-", "--lattice-budget", "1"],
    ["initial-ideal", "-", "--threads", "2"],
])
def test_flag_a_subcommand_does_not_read_is_rejected(argv):
    code, out, err = run_cli(argv, stdin="Bg\n")
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


@pytest.mark.parametrize("argv, env, golden", [
    (["initial-ideal"], {"BEI_THREADS": "0"}, "initial_ideal_upto6.txt"),
    (["initial-ideal"], {"BEI_FIELD": "4"}, "initial_ideal_upto6.txt"),
    (["verify", "girth"], {"BEI_THREADS": "0"}, "verify_upto6.jsonl"),
])
def test_variable_of_a_flag_a_subcommand_lacks_is_ignored(monkeypatch, argv,
                                                          env, golden):
    # each subcommand reads the BEI_* variables of its own flags only; the
    # command's process inherits them
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    # the golden verdicts name the corpus by its path from the repository
    monkeypatch.chdir(DATA.parent.parent)
    code, out, err = run_cli([*argv, "tests/data/connected_upto6.g6"])
    assert code == 0, err
    want = (DATA / golden).read_text()
    if argv[0] == "verify":
        # verify_upto6.jsonl holds one verdict per theorem, in name order
        want = next(ln for ln in want.splitlines(keepends=True)
                    if json.loads(ln)["theorem"] == argv[1])
    assert out == want


@pytest.mark.parametrize("command", [["analyze"], ["verify", "girth"],
                                     ["initial-ideal"]],
                         ids=["analyze", "verify", "initial-ideal"])
def test_closed_stdout_exits_1_without_traceback(command):
    # the read end of stdout's pipe is closed before the command starts,
    # as when `beilab analyze ... | head -1` has stopped reading
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "beilab.cli", *command,
             str(DATA / "connected_upto6.g6")],
            stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=600)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_main_writes_to_the_current_stdout(monkeypatch):
    # main writes where sys.stdout points when it is called, not where it
    # pointed when the module was imported
    monkeypatch.setattr(sys, "stdin",
                        io.TextIOWrapper(io.BytesIO(b"3 2\n1 2\n2 3\n")))
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(["initial-ideal", "-"]) == 0
    assert buf.getvalue().splitlines() == ["x1*y2", "x2*y3"]


def test_zero_budgets_and_max_n_are_valid():
    # a zero budget decides by the squeeze's bounds alone
    args = cli.build_parser().parse_args(
        ["analyze", "-", "--face-budget", "0", "--lattice-budget", "0",
         "--max-n", "0"])
    assert (args.face_budget, args.lattice_budget, args.max_n) == (0, 0, 0)


@pytest.mark.parametrize("command", [["analyze"], ["verify", "girth"],
                                     ["initial-ideal"]],
                         ids=["analyze", "verify", "initial-ideal"])
@pytest.mark.parametrize("data", [
    b"3 1\n1 x\n", b"-1 0\n", "Bg\n\u00e9\n".encode(),
    "\u0663 \u0662\n\u0661 \u0662\n\u0662 \u0663\n".encode(),
    b"3 2\n+1 2\n2 3\n"],
    ids=["non-integer", "negative-n", "non-ascii", "arabic-digits",
         "plus-sign"])
def test_malformed_input_is_a_parse_error(tmp_path, command, data):
    # a file and stdin are read alike: Arabic-Indic digits, which int()
    # accepts, are not ASCII, so "3 2 / 1 2 / 2 3" in them is no P3; nor
    # is it with a "+1", which int() accepts too
    path = tmp_path / "input.txt"
    path.write_bytes(data)
    for source, stdin in ((str(path), b""), ("-", data)):
        proc = subprocess.run(
            [sys.executable, "-m", "beilab.cli", *command, source],
            input=stdin, capture_output=True, timeout=600)
        err = proc.stderr.decode()
        assert proc.returncode == 1 and proc.stdout == b"", source
        assert "error" in err and "Traceback" not in err
        if not data.isascii():
            assert "not ASCII text" in err


@pytest.mark.parametrize("redirect", ["- <&-", "{corpus} >&-"],
                         ids=["stdin", "stdout"])
def test_closed_standard_stream_exits_1_without_traceback(redirect):
    # a stream closed before the command starts is None in sys: it ends in
    # one error line and exit 1, before any report is computed
    command = "exec \"$0\" -m beilab.cli analyze " + redirect.format(
        corpus=shlex.quote(str(DATA / "connected_upto6.g6")))
    proc = subprocess.run(["sh", "-c", command, sys.executable],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_analyze_stops_at_the_first_failed_write(monkeypatch):
    # each report is written as it is made, so a reader that goes away
    # after the first report spares the rest of the corpus
    calls = []
    analyze = cli.analyze

    def counted(g, limits):
        calls.append(g)
        return analyze(g, limits)

    class ClosedAfterOneWrite(io.StringIO):
        def write(self, text):
            if self.tell():
                raise BrokenPipeError
            return super().write(text)

    monkeypatch.setattr(cli, "analyze", counted)
    args = cli.build_parser().parse_args(
        ["analyze", str(DATA / "connected_upto6.g6"), "--threads", "2"])
    with pytest.raises(BrokenPipeError):
        cli.cmd_analyze(args, out=ClosedAfterOneWrite())
    assert 1 <= len(calls) <= 2


def test_determinism_across_thread_counts(tmp_path):
    stdin = "Bg\nC~\nDhc\nD~{\n"
    _, out1, _ = run_cli(["analyze", "-", "--threads", "1"], stdin=stdin)
    _, out2, _ = run_cli(["analyze", "-", "--threads", "4"], stdin=stdin)
    assert out1 == out2
