"""Tests for the command-line pipeline."""

from __future__ import annotations

import gc
import io
import json
import os
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bpmn2pddl import cli, fond_checker
from bpmn2pddl.cli import RunConfig, _traces_text, build_arg_parser, cmd_check, main, translate_file
from bpmn2pddl.fond_checker import Limits
from conftest import CORPUS_DIR, CORPUS_FILES, FIXTURE_DIR, fixture

CREDIT = str(CORPUS_DIR / "credit_scoring.bpmn")


def _latin1_diagram(path, declaration):
    """loop_retry.bpmn with the task named "café", written as Latin-1 bytes."""
    text = fixture("loop_retry.bpmn").read_text()
    text = text.replace('<?xml version="1.0" encoding="UTF-8"?>', declaration)
    path.write_bytes(text.replace('name="Attempt work"', 'name="café"').encode("latin-1"))
    return path


def test_translate_writes_files(tmp_path, capsys):
    code = main(["translate", CREDIT, "--out", str(tmp_path)])
    assert code == 0
    assert (tmp_path / "credit_scoring.domain.pddl").exists()
    assert (tmp_path / "credit_scoring.all_starts.problem.pddl").exists()
    assert (tmp_path / "credit_scoring.prestarted_frontend.problem.pddl").exists()
    out = capsys.readouterr().out
    assert "nodes=" in out and "elapsed_ms=" in out


def test_translate_unreadable_path(tmp_path, capsys):
    code = main(["translate", str(tmp_path / "missing.bpmn"), "--out", str(tmp_path)])
    assert code == 1
    assert "missing.bpmn" in capsys.readouterr().err


def test_translate_invalid_file(tmp_path, capsys):
    bad = tmp_path / "bad.bpmn"
    bad.write_text("<definitely-not-bpmn/>")
    code = main(["translate", str(bad), "--out", str(tmp_path)])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_translate_declared_latin1(tmp_path, capsys):
    path = _latin1_diagram(tmp_path / "latin.bpmn", '<?xml version="1.0" encoding="ISO-8859-1"?>')
    assert main(["translate", str(path), "--out", str(tmp_path / "out")]) == 0
    assert translate_file(path).graph.nodes["Task_try"].name == "café"


def test_translate_undeclared_non_utf8(tmp_path, capsys):
    path = _latin1_diagram(tmp_path / "latin.bpmn", "")
    assert main(["translate", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_translate_unwritable_out(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["translate", CREDIT, "--out", str(blocker)]) == 1
    assert capsys.readouterr().err == f"error: cannot write {blocker}: File exists\n"


def test_translate_deterministic(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["translate", CREDIT, "--out", str(out1)]) == 0
    assert main(["translate", CREDIT, "--out", str(out2)]) == 0
    for name in os.listdir(out1):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_check_linear_solvable(tmp_path, capsys):
    code = main(["check", str(fixture("loop_retry.bpmn")), "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "strong=no" in out
    assert "strong_cyclic=yes" in out
    assert "deadlocks=0" in out


def test_check_pathology_reports_deadlocks(tmp_path, capsys):
    code = main(["check", str(fixture("xor_and_deadlock.bpmn")), "--out", str(tmp_path)])
    assert code == 2
    out = capsys.readouterr().out
    assert "deadlocks=2" in out
    assert "strong=no" in out


def test_check_writes_policy_dot_and_traces(tmp_path):
    code = main(
        ["check", CREDIT, "--out", str(tmp_path), "--dot", "--traces", "--solve", "cyclic"]
    )
    assert code == 0
    dot = tmp_path / "credit_scoring.prestarted_frontend.policy.dot"
    assert dot.exists()
    assert dot.read_text().startswith("digraph policy {")
    graph_dot = tmp_path / "credit_scoring.graph.dot"
    assert graph_dot.exists()
    traces = tmp_path / "credit_scoring.prestarted_frontend.traces.json"
    payload = json.loads(traces.read_text())
    assert isinstance(payload, list)
    assert all(t["terminal"] == "goal" for t in payload)


def test_check_unwritable_out(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    assert main(["check", CREDIT, "--out", str(blocker / "sub")]) == 1
    assert capsys.readouterr().err == f"error: cannot write {blocker / 'sub'}: Not a directory\n"
    dot = tmp_path / "out" / "credit_scoring.prestarted_frontend.policy.dot"
    dot.mkdir(parents=True)  # the policy DOT cannot be written
    assert main(["check", CREDIT, "--out", str(dot.parent), "--dot", "--solve", "cyclic"]) == 1
    assert capsys.readouterr().err == f"error: cannot write {dot}: Is a directory\n"


def test_check_max_states_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BPMN2PDDL_MAX_STATES", "2")
    code = main(["check", CREDIT, "--out", str(tmp_path), "--solve", "cyclic"])
    assert code == 2
    assert "limit exceeded" in capsys.readouterr().err


def test_state_limit_says_how_far_exploration_got(tmp_path, capsys):
    line = "limit exceeded on loop_retry_all_starts: more than 2 states reachable"
    line += " (reached 2, expanded 1, frontier 1, depth 1)\n"
    assert main(["check", str(fixture("loop_retry.bpmn")), "--out", str(tmp_path), "--max-states", "2"]) == 2
    assert capsys.readouterr().err == line
    assert main(["corpus", str(fixture("loop_retry.bpmn").parent), "--out", str(tmp_path), "--max-states", "2"]) == 2
    assert line in capsys.readouterr().err


def test_check_bad_max_states_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("BPMN2PDDL_MAX_STATES", "abc")
    code = main(["check", CREDIT, "--out", str(tmp_path)])
    assert code == 1
    assert capsys.readouterr().err == "error: BPMN2PDDL_MAX_STATES must be an integer\n"


def test_check_max_states_below_one(tmp_path, capsys, monkeypatch):
    for flag in ("0", "-3"):
        assert main(["check", str(fixture("loop_retry.bpmn")), "--out", str(tmp_path), "--max-states", flag]) == 1
        assert capsys.readouterr() == ("", "error: --max-states must be a positive integer\n")
    monkeypatch.setenv("BPMN2PDDL_MAX_STATES", "0")
    assert main(["check", str(fixture("loop_retry.bpmn")), "--out", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", "error: BPMN2PDDL_MAX_STATES must be a positive integer\n")
    # the flag overrides the environment
    assert main(["check", str(fixture("loop_retry.bpmn")), "--out", str(tmp_path), "--max-states", "100"]) == 0


def test_check_trace_limit_exits_2(tmp_path, capsys):
    config = RunConfig(  # the retry loop's policy has a goal trace and a cycle trace
        input_path=str(fixture("loop_retry.bpmn")),
        output_dir=str(tmp_path),
        write_traces=True,
        limits=Limits(max_traces=1),
    )
    assert cmd_check(config) == 2
    assert "limit exceeded on loop_retry_all_starts: more than 1 traces" in capsys.readouterr().err


def test_check_compiles_once_per_variant(tmp_path, monkeypatch):
    compiled, grounded = [], []
    compile_, ground = fond_checker._compile, fond_checker.ground_domain
    monkeypatch.setattr(fond_checker, "_compile", lambda *args: compiled.append(1) or compile_(*args))
    monkeypatch.setattr(fond_checker, "ground_domain", lambda domain: grounded.append(1) or ground(domain))
    code = main(["check", CREDIT, "--out", str(tmp_path), "--dot", "--traces"])
    assert code == 0
    assert len(compiled) == 4  # all_starts and the three prestarted variants
    assert grounded == []  # explore compiles straight from the effect trees
    assert len(list(tmp_path.glob("*.policy.dot"))) == 4
    assert len(list(tmp_path.glob("*.traces.json"))) == 4


# names with quotes, backslashes, control and non-ASCII characters, and the empty name
_NAMES = st.text(st.sampled_from(['a', '"', "\\", "\n", "\t", "\x00", "é", "ü", "☃", "\U0001f600", "/"]), max_size=6)
# built in the key order of fond_checker.traces_to_json
_STEPS = st.lists(st.builds(lambda state, action, outcome: {"state": state, "action": action, "outcome": outcome},
                            st.lists(_NAMES, max_size=3), _NAMES, st.integers(0, 40)), max_size=3)
_PAYLOADS = st.lists(st.builds(lambda steps, terminal: {"steps": steps, "terminal": terminal}, _STEPS, _NAMES),
                     max_size=3)


@given(_PAYLOADS)
@settings(max_examples=300, deadline=None)
def test_traces_text_is_indented_json(payload):
    """The trace writer gives json.dumps(payload, indent=2)'s text: empty
    state and step lists, no traces, and every escape included."""
    assert _traces_text(payload) == json.dumps(payload, indent=2) + "\n"


def test_traces_files_are_indented_json(tmp_path):
    written = []
    for msg in ("ignore", "exclusive"):
        for done in ("any", "all"):
            out = tmp_path / f"{msg}_{done}"
            argv = ["corpus", str(CORPUS_DIR), "--out", str(out), "--traces", "--msg-strategy", msg, "--done-mode", done]
            assert main(argv) in (0, 2)  # 2: a variant without a strong or strong-cyclic policy
            written += out.glob("*.traces.json")
    assert len(written) == 46  # the variants with a policy
    for path in written:
        text = path.read_text(encoding="utf-8")
        assert text == json.dumps(json.loads(text), indent=2) + "\n", path


def test_corpus_all_files(tmp_path, capsys):
    code = main(["corpus", str(CORPUS_DIR), "--out", str(tmp_path), "--solve", "cyclic"])
    assert code == 0
    tsv = (tmp_path / "corpus_summary.tsv").read_text().splitlines()
    header = "file\tnodes\tpredicates\tactions\tlines\tms\tcheck_ms\tstates\tstrong\tstrong_cyclic"
    assert tsv[0] == header
    assert len(tsv) == 1 + 8
    assert all(float(row.split("\t")[6]) >= 0 for row in tsv[1:])  # check_ms
    assert all("\tyes" in row for row in tsv[1:])  # strong_cyclic column


def test_corpus_exits_2_when_check_would(tmp_path, capsys):
    code = main(["corpus", str(fixture("loop_retry.bpmn").parent), "--out", str(tmp_path)])
    assert code == 2  # msg_task_event and xor_and_deadlock have no policy
    out = capsys.readouterr().out
    assert "xor_and_deadlock_all_starts: states=5 deadlocks=2 strong=no strong_cyclic=no" in out
    assert out.index("check elapsed_ms=") < out.index("file\tnodes")  # check output, then the TSV


def test_corpus_warnings_as_errors(tmp_path, capsys):
    diagrams = [("deadlock", fixture("xor_and_deadlock.bpmn")), ("warned", CORPUS_DIR / "self_serve_restaurant.bpmn")]
    for name, src in diagrams:
        (tmp_path / name).mkdir()
        (tmp_path / name / src.name).write_bytes(src.read_bytes())
        assert main(["corpus", str(tmp_path / name), "--out", str(tmp_path / "out"), "--warnings-as-errors"]) == 2
        assert "warning: PotentialDeadlock" in capsys.readouterr().err
    # the restaurant has a policy: only its warning fails the run
    assert main(["corpus", str(tmp_path / "warned"), "--out", str(tmp_path / "out")]) == 0


def test_corpus_writes_what_check_writes(tmp_path):
    flags = ["--dot", "--traces"]
    assert main(["corpus", str(fixture("loop_retry.bpmn").parent), "--out", str(tmp_path / "corpus"), *flags]) == 2
    for path in sorted(fixture("loop_retry.bpmn").parent.glob("*.bpmn")):
        main(["check", str(path), "--out", str(tmp_path / "check"), *flags])
    written = sorted(p.name for p in (tmp_path / "check").iterdir())
    assert any(name.endswith(".policy.dot") for name in written)
    assert any(name.endswith(".traces.json") for name in written)
    assert sorted(p.name for p in (tmp_path / "corpus").iterdir()) == sorted([*written, "corpus_summary.tsv"])
    for name in written:
        assert (tmp_path / "corpus" / name).read_bytes() == (tmp_path / "check" / name).read_bytes()


def test_corpus_empty_dir(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["corpus", str(empty), "--out", str(tmp_path / "out")])
    assert code == 0
    tsv = (tmp_path / "out" / "corpus_summary.tsv").read_text().splitlines()
    assert len(tsv) == 1


def test_corpus_unwritable_out(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    fixtures = fixture("loop_retry.bpmn").parent
    assert main(["corpus", str(fixtures), "--out", str(blocker)]) == 1
    captured = capsys.readouterr()
    n_files = len(list(fixtures.glob("*.bpmn")))
    assert captured.err == f"error: cannot write {blocker}: File exists\n" * (n_files + 1)
    assert captured.out.count("\tERROR\t") == n_files
    summary = tmp_path / "out" / "corpus_summary.tsv"
    summary.mkdir(parents=True)  # every file is written but the summary
    assert main(["corpus", str(fixtures), "--out", str(summary.parent)]) == 1
    assert capsys.readouterr().err.endswith(f"error: cannot write {summary}: Is a directory\n")


def test_corpus_with_corrupt_file(tmp_path, capsys):
    src = tmp_path / "diagrams"
    src.mkdir()
    (src / "good.bpmn").write_bytes(fixture("loop_retry.bpmn").read_bytes())
    (src / "corrupt.bpmn").write_text("not xml at all <<<")
    code = main(["corpus", str(src), "--out", str(tmp_path / "out"), "--solve", "cyclic"])
    assert code == 1
    rows = (tmp_path / "out" / "corpus_summary.tsv").read_text().splitlines()[1:]
    assert len(rows) == 2
    assert any("ERROR" in row for row in rows)
    assert all(row.count("\t") == 9 for row in rows)  # an ERROR row has every column
    assert any(row.startswith("good.bpmn") and "yes" in row for row in rows)


def test_corpus_with_non_utf8_file(tmp_path, capsys):
    src = tmp_path / "diagrams"
    src.mkdir()
    (src / "good.bpmn").write_bytes(fixture("loop_retry.bpmn").read_bytes())
    _latin1_diagram(src / "latin.bpmn", '<?xml version="1.0" encoding="ISO-8859-1"?>')
    _latin1_diagram(src / "undeclared.bpmn", "")
    code = main(["corpus", str(src), "--out", str(tmp_path / "out"), "--solve", "cyclic"])
    assert code == 1
    rows = (tmp_path / "out" / "corpus_summary.tsv").read_text().splitlines()[1:]
    assert [row.split("\t")[0] for row in rows] == ["good.bpmn", "latin.bpmn", "undeclared.bpmn"]
    assert rows[0].endswith("\tyes") and rows[1].endswith("\tyes")
    assert rows[2].split("\t")[1] == "ERROR"


def test_warnings_as_errors(tmp_path, capsys):
    code = main(
        [
            "translate",
            str(fixture("xor_and_deadlock.bpmn")),
            "--out",
            str(tmp_path),
            "--warnings-as-errors",
        ]
    )
    assert code == 2
    assert "PotentialDeadlock" in capsys.readouterr().err


def test_warnings_are_written_at_once(tmp_path, monkeypatch):
    # two tasks in a cycle that no start event reaches: two Unreachable warnings
    text = fixture("loop_retry.bpmn").read_text().replace(
        "</bpmn:process>",
        '<bpmn:task id="T9"/><bpmn:task id="T8"/><bpmn:sequenceFlow id="F9" sourceRef="T8" targetRef="T9"/>'
        '<bpmn:sequenceFlow id="F8" sourceRef="T9" targetRef="T8"/></bpmn:process>',
    )
    path = tmp_path / "unreachable.bpmn"
    path.write_text(text)
    writes = []

    class Recorded(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stderr", Recorded())
    assert main(["translate", str(path), "--out", str(tmp_path / "out")]) == 0
    assert writes == ["warning: Unreachable: node 'T9' is unreachable from every start event\n"
                      "warning: Unreachable: node 'T8' is unreachable from every start event\n"]


def test_fig4_compat_flag(tmp_path):
    code = main(["translate", CREDIT, "--out", str(tmp_path), "--fig4-compat", "--msg-strategy", "ignore"])
    assert code == 0
    text = (tmp_path / "credit_scoring.domain.pddl").read_text()
    assert "(:requirements :strips :typing)" in text


def test_allow_spontaneous_start(tmp_path):
    code = main(
        ["translate", CREDIT, "--out", str(tmp_path), "--allow-spontaneous-start"]
    )
    assert code == 0
    assert (tmp_path / "credit_scoring.empty.problem.pddl").exists()
    text = (tmp_path / "credit_scoring.domain.pddl").read_text()
    assert "start_StartEvent_1els7eb" in text


class _ClosedAfterOneLine(io.StringIO):
    """A standard output whose reader goes away after the first line, as `| head -1` does."""

    def write(self, text):
        if "\n" in self.getvalue():
            raise BrokenPipeError(32, "Broken pipe")
        return super().write(text)


def test_closed_stdout_exits_1_quietly(tmp_path, capsys, monkeypatch):
    stdout = _ClosedAfterOneLine()
    monkeypatch.setattr(sys, "stdout", stdout)
    code = main(["corpus", str(FIXTURE_DIR), "--out", str(tmp_path)])
    assert sys.stdout is not stdout and sys.stdout.name == os.devnull  # the flush at exit has nowhere to fail
    sys.stdout.close()
    assert code == 1
    assert stdout.getvalue().startswith("inclusive_pair: nodes=")
    assert stdout.getvalue().count("\n") == 1
    err = capsys.readouterr().err
    assert "None" not in err and "Traceback" not in err


CHECK_USAGE = """\
usage: bpmn2pddl check [-h] [--out OUT] [--msg-strategy {ignore,exclusive}]
                       [--done-mode {any,all}] [--fig4-compat]
                       [--allow-spontaneous-start]
                       [--max-inclusive-branches MAX_INCLUSIVE_BRANCHES]
                       [--solve {strong,cyclic,both}]
                       [--max-states MAX_STATES] [--dot] [--traces]
                       [--warnings-as-errors]
                       input
"""

CHECK_HELP = CHECK_USAGE + """
positional arguments:
  input                 input .bpmn file (or directory for corpus)

options:
  -h, --help            show this help message and exit
  --out OUT             output directory (default: out)
  --msg-strategy {ignore,exclusive}
                        task-task message flows: ignore or emulate as
                        exclusive branching
  --done-mode {any,all}
  --fig4-compat         omit :non-deterministic from :requirements
  --allow-spontaneous-start
  --max-inclusive-branches MAX_INCLUSIVE_BRANCHES
  --solve {strong,cyclic,both}
  --max-states MAX_STATES
  --dot                 write DOT exports
  --traces              write JSON trace reports
  --warnings-as-errors
"""


@pytest.mark.parametrize(
    "argv, exit_code, out, err",
    [
        (["check", "--help"], 0, CHECK_HELP, ""),
        (["check"], 2, "", CHECK_USAGE + "bpmn2pddl check: error: the following arguments are required: input\n"),
    ],
)
def test_check_help_and_usage_error(argv, exit_code, out, err, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == exit_code
    assert capsys.readouterr() == (out, err)


def test_main_builds_one_parser(capsys):
    build_arg_parser.cache_clear()
    for command in ("translate", "corpus"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: bpmn2pddl {command} ")
    info = build_arg_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


_EMPTY_IDS = {  # loop_retry.bpmn with one id emptied, and the done mode to run it in
    "task": ('"Task_try"', '""', "any"),
    "process": ('<bpmn:process id="Process_loop" name="Retry loop">', '<bpmn:process id="">', "any"),
    "participant": ("<bpmn:process ", '<bpmn:collaboration id="C"><bpmn:participant id="" name="" '
                    'processRef="Process_loop"/></bpmn:collaboration><bpmn:process ', "all"),
}


@pytest.mark.parametrize("command", ["translate", "check"])
@pytest.mark.parametrize("case", sorted(_EMPTY_IDS))
def test_empty_id_exits_1_with_an_error_line(tmp_path, capsys, case, command):
    old, new, done_mode = _EMPTY_IDS[case]
    text = fixture("loop_retry.bpmn").read_text()
    assert old in text
    path = tmp_path / f"empty_{case}.bpmn"
    path.write_text(text.replace(old, new))
    assert main([command, str(path), "--done-mode", done_mode, "--out", str(tmp_path / "out")]) == 1
    out, err = capsys.readouterr()
    assert err.startswith(f"error: {path}: ") and err.endswith(" without id\n") and err.count("\n") == 1
    assert out == ""


# -- the cyclic collector is paused while a command runs


def test_commands_leave_no_cyclic_garbage(tmp_path, capsys):
    """No command leaves reference cycles, so pausing the collector while
    one runs loses nothing. The first call in a process builds the argument
    parser, and drops argparse's shared parent once; a warm-up call pays it."""
    not_xml = tmp_path / "not_xml.bpmn"
    not_xml.write_text("not xml")
    runs = [["check", str(path), "--solve", "both", "--dot", "--traces"]
            for path in [*CORPUS_FILES, *sorted(FIXTURE_DIR.glob("*.bpmn"))]]
    runs += [["translate", CREDIT], ["corpus", str(FIXTURE_DIR)], ["check", CREDIT, "--max-states", "3"],
             ["check", str(not_xml)]]
    main(["translate", CREDIT, "--out", str(tmp_path / "warm")])
    codes = []
    for argv in runs:
        gc.collect()
        codes.append(main([*argv, "--out", str(tmp_path / "out")]))
        assert gc.collect() == 0, argv
    assert codes[-4:] == [0, 2, 2, 1]
    capsys.readouterr()


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize("case", ["exit 0", "exit 1", "exit 2", "closed stdout", "usage error"])
def test_main_restores_the_collector_state(tmp_path, capsys, monkeypatch, enabled, case):
    inside = []
    translate = cli.translate_file

    def recorded(*args):
        inside.append(gc.isenabled())
        return translate(*args)

    monkeypatch.setattr(cli, "translate_file", recorded)
    argv, want = {
        "exit 0": (["translate", CREDIT], 0),
        "exit 1": (["translate", str(tmp_path / "missing.bpmn")], 1),
        "exit 2": (["check", str(fixture("xor_and_deadlock.bpmn"))], 2),
        "closed stdout": (["corpus", str(FIXTURE_DIR)], 1),
        "usage error": (["translate"], SystemExit),
    }[case]
    if case == "closed stdout":
        monkeypatch.setattr(sys, "stdout", _ClosedAfterOneLine())
    (gc.enable if enabled else gc.disable)()
    try:
        if want is SystemExit:
            with pytest.raises(SystemExit):
                main(argv)
        else:
            assert main([*argv, "--out", str(tmp_path / "out")]) == want
        assert gc.isenabled() is enabled
    finally:
        gc.enable()
        if case == "closed stdout":
            sys.stdout.close()
    assert inside == ([] if want is SystemExit else [False])  # paused while the command ran
    capsys.readouterr()
