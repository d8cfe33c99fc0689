from __future__ import annotations

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

import futurecall
from futurecall import load_workload
from futurecall.cli import main
from futurecall.errors import ValidationError
from futurecall.schema import load_schema_file

from conftest import AWAIT_TRIGGER_WORKLOAD, fixture_path


def test_run_fig1_async(tmp_path, capsys):
    trace_path = tmp_path / "trace.jsonl"
    report_path = tmp_path / "report.json"
    code = main(
        [
            "run",
            "--workload", fixture_path("fig1"),
            "--mode", "async-sequential",
            "--clock", "virtual",
            "--out-trace", str(trace_path),
            "--out-report", str(report_path),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out.strip())
    assert summary["end_to_end"] == 13.0
    lines = trace_path.read_text().strip().split("\n")
    trailing = json.loads(lines[-1])
    assert trailing["kind"] == "summary"
    events = [json.loads(l) for l in lines[:-1]]
    assert {e["kind"] for e in events} <= {"decode", "exec", "await", "integrate"}
    report = json.loads(report_path.read_text())
    assert report["t_cp"] == 10.0


def test_run_sync_sequential_end_to_end(capsys):
    code = main(["run", "--workload", fixture_path("fig1"), "--mode", "sync-sequential"])
    assert code == 0
    assert json.loads(capsys.readouterr().out.strip())["end_to_end"] == 19.0


def test_run_missing_file_exits_2(capsys):
    assert main(["run", "--workload", "/nowhere/x.json"]) == 2


def test_run_invalid_workload_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"tools": [], "script": []}')
    assert main(["run", "--workload", str(bad)]) == 2


def test_run_trigger_on_an_await_exits_2(tmp_path, capsys):
    path = tmp_path / "await_trigger.json"
    path.write_text(json.dumps(AWAIT_TRIGGER_WORKLOAD))
    assert main(["run", "--workload", str(path)]) == 2
    assert "trigger references await 'A1'" in capsys.readouterr().err


def test_run_malformed_tool_schema_exits_2(tmp_path, capsys):
    data = {
        "tools": [{"schema": "x", "latency": 1, "returns": [{}]}],
        "script": [{"final": "done"}],
    }
    path = tmp_path / "bad_schema.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--workload", str(path)]) == 2
    assert "malformed schema" in capsys.readouterr().err


def non_string_name_workload(schema_name, call_name):
    return {
        "tools": [
            {
                "schema": {"name": schema_name, "description": "", "parameters": {}},
                "latency": 1,
                "returns": [{}],
            }
        ],
        "script": [
            {"emit": [{"id": "C1", "name": call_name, "args": {}}]},
            {"when": {"resolved": ["C1"]}, "final": "done"},
        ],
    }


@pytest.mark.parametrize(
    "schema_name,call_name,message",
    [
        ([1], "t", "schema name must be a nonempty string"),
        ("t", ["x"], "call id and name must be strings"),
        ("t", {"x": 1}, "call id and name must be strings"),
    ],
    ids=["schema-name-list", "call-name-list", "call-name-object"],
)
def test_run_non_string_names_exit_2(tmp_path, capsys, schema_name, call_name, message):
    path = tmp_path / "bad_name.json"
    path.write_text(json.dumps(non_string_name_workload(schema_name, call_name)))
    assert main(["run", "--workload", str(path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("name", [[1], ""], ids=["list", "empty"])
def test_bad_schema_name_names_its_entry(tmp_path, capsys, name):
    message = f"schema name must be a nonempty string, got {name!r}"
    workload = tmp_path / "w.json"
    workload.write_text(json.dumps(non_string_name_workload(name, "t")))
    with pytest.raises(ValidationError, match=re.escape(f"schema of tools[0]: {message}")):
        load_workload(str(workload))
    assert main(["run", "--workload", str(workload)]) == 2
    assert f"schema of tools[0]: {message}" in capsys.readouterr().err
    bad = schema_file(tmp_path, "bad.json", [annotated_tool("a"), {"name": name, "description": ""}])
    good = schema_file(tmp_path, "good.json", [annotated_tool("a")])
    with pytest.raises(ValidationError, match=re.escape(f"{bad}: tools[1]: {message}")):
        load_schema_file(bad)
    assert main(["validate-annotations", "--predicted", bad, "--truth", good]) == 2
    assert f"{bad}: tools[1]: {message}" in capsys.readouterr().err


def test_run_runtime_error_exits_3(tmp_path):
    data = {
        "tools": [
            {
                "schema": {"name": "t", "description": "", "parameters": {}},
                "annotation": {"reads": [], "writes": []},
                "latency": 1,
                "returns": [{}],
            }
        ],
        "script": [
            {"emit": [{"id": f"C{i}", "name": "t"}], "decode_time": 1} for i in range(9)
        ]
        + [{"final": "x", "decode_time": 1}],
        "context_budget": 4,
    }
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--workload", str(path)]) == 3


def test_compare_speedup_and_bound(tmp_path, capsys):
    report_path = tmp_path / "cmp.json"
    code = main(
        [
            "compare",
            "--workload", fixture_path("fig1"),
            "--mode", "sync-sequential",
            "--mode", "async-sequential",
            "--out-report", str(report_path),
        ]
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    async_cell = [c for c in report["cells"] if c["mode"] == "async-sequential"][0]
    assert abs(async_cell["speedup_vs_baseline"] - 19 / 13) < 1e-9
    assert abs(async_cell["speedup_bound"] - 1.9) < 1e-9
    assert async_cell["speedup_vs_baseline"] <= async_cell["speedup_bound"]


def test_compare_identical_modes_speedup_one(capsys):
    code = main(
        [
            "compare",
            "--workload", fixture_path("fig1"),
            "--mode", "sync-sequential",
            "--mode", "sync-sequential",
        ]
    )
    assert code == 0
    rows = [json.loads(l) for l in capsys.readouterr().out.strip().split("\n")]
    assert rows[1]["speedup_vs_baseline"] == 1.0


def test_compare_needs_two_modes():
    code = main(
        ["compare", "--workload", fixture_path("fig1"), "--mode", "sync-sequential"]
    )
    assert code == 2


def test_compare_sweep_writes_csv(tmp_path, capsys):
    report_path = tmp_path / "sweep.json"
    code = main(
        [
            "compare",
            "--workload", fixture_path("pairs"),
            "--mode", "sync-sequential",
            "--mode", "async-parallel",
            "--sweep", "1,2,5",
            "--out-report", str(report_path),
        ]
    )
    assert code == 0
    csv_lines = (tmp_path / "sweep.csv").read_text().strip().split("\n")
    assert csv_lines[0].startswith("delay,mode,")
    assert len(csv_lines) == 1 + 3 * 2
    ff_by_delay = {}
    for row in csv_lines[1:]:
        cols = row.split(",")
        if cols[1] == "async-parallel":
            ff_by_delay[float(cols[0])] = float(cols[4])
    assert ff_by_delay[1.0] < ff_by_delay[2.0] < ff_by_delay[5.0]


def test_dump_context_flag(tmp_path):
    out = tmp_path / "context.json"
    code = main(
        [
            "run",
            "--workload", fixture_path("fig1"),
            "--mode", "async-sequential",
            "--dump-context", str(out),
        ]
    )
    assert code == 0
    context = json.loads(out.read_text())
    assert context[0]["role"] == "user"
    assert any(m["role"] == "assistant" and m.get("tool_calls") for m in context)


def schema_file(tmp_path, name, tools):
    path = tmp_path / name
    path.write_text(json.dumps({"tools": tools}))
    return str(path)


def annotated_tool(name, writes=(), reads=()):
    return {
        "name": name,
        "description": "",
        "parameters": {},
        "annotation": {
            "reads": [{"path": p, "subtree": False} for p in reads],
            "writes": [{"path": p, "subtree": False} for p in writes],
            "session_read": False,
            "session_write": False,
        },
    }


def test_validate_annotations_identical_files(tmp_path, capsys):
    tools = [
        annotated_tool("a", writes=["/x"]),
        annotated_tool("b", reads=["/x"]),
        annotated_tool("c", reads=["/y"]),
    ]
    path = schema_file(tmp_path, "same.json", tools)
    assert main(["validate-annotations", "--predicted", path, "--truth", path]) == 0
    metrics = json.loads(capsys.readouterr().out.strip())
    assert metrics["accuracy"] == 1.0
    assert metrics["tp"] == 2  # (a,b) and (b,a) conflict


def test_validate_annotations_detects_overserialization(tmp_path, capsys):
    truth = schema_file(
        tmp_path,
        "truth.json",
        [annotated_tool("a", writes=["/x"]), annotated_tool("b", reads=["/y"])],
    )
    predicted = schema_file(
        tmp_path,
        "pred.json",
        [annotated_tool("a", writes=["/x"]), annotated_tool("b", reads=["/x"])],
    )
    assert main(["validate-annotations", "--predicted", predicted, "--truth", truth]) == 0
    metrics = json.loads(capsys.readouterr().out.strip())
    assert metrics["fp"] == 2 and metrics["fn"] == 0
    assert metrics["fp_rate"] == 1.0  # universe of 2 directed pairs


def test_validate_annotations_universe_mismatch_exits_2(tmp_path):
    a = schema_file(tmp_path, "a.json", [annotated_tool("a")])
    b = schema_file(tmp_path, "b.json", [annotated_tool("a"), annotated_tool("extra")])
    assert main(["validate-annotations", "--predicted", a, "--truth", b]) == 2


@pytest.mark.parametrize("path", ["files/{x", "/files/{x", "$session//x"])
def test_validate_annotations_rejects_malformed_template(tmp_path, capsys, path):
    bad = schema_file(tmp_path, "bad.json", [annotated_tool("a", writes=[path])])
    good = schema_file(tmp_path, "good.json", [annotated_tool("a", writes=["/x"])])
    assert main(["validate-annotations", "--predicted", bad, "--truth", good]) == 2
    assert "tool 'a'" in capsys.readouterr().err


@pytest.mark.parametrize("annotation", ["x", {"reads": 5}], ids=["string", "int-reads"])
def test_validate_annotations_rejects_malformed_annotation(tmp_path, capsys, annotation):
    tool = {"name": "a", "description": "", "parameters": {}, "annotation": annotation}
    bad = schema_file(tmp_path, "bad.json", [tool])
    good = schema_file(tmp_path, "good.json", [annotated_tool("a", writes=["/x"])])
    assert main(["validate-annotations", "--predicted", bad, "--truth", good]) == 2
    assert "tool 'a'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tool",
    [
        {"name": "a", "description": 5, "parameters": {}},
        {"name": "a", "description": "", "parameters": {"p": {"type": "string", "description": 5}}},
    ],
    ids=["schema", "parameter"],
)
def test_validate_annotations_rejects_non_string_description(tmp_path, capsys, tool):
    bad = schema_file(tmp_path, "bad.json", [tool])
    good = schema_file(tmp_path, "good.json", [annotated_tool("a", writes=["/x"])])
    assert main(["validate-annotations", "--predicted", bad, "--truth", good]) == 2
    assert "description must be a string, got 5" in capsys.readouterr().err


def test_validate_annotations_compares_templates_as_written(tmp_path, capsys):
    # A session template and the /-rooted path spelled the same way are one
    # region; two {param} templates are the same region only when they match.
    tools = [
        annotated_tool("session", writes=["$session/cwd/x"]),
        annotated_tool("rooted", reads=["/$session/cwd/x"]),
        annotated_tool("name", writes=["/files/{name}"]),
        annotated_tool("other", reads=["/files/{other}"]),
        annotated_tool("same", reads=["/files/{name}"]),
    ]
    path = schema_file(tmp_path, "templates.json", tools)
    assert main(["validate-annotations", "--predicted", path, "--truth", path]) == 0
    metrics = json.loads(capsys.readouterr().out.strip())
    assert (metrics["tp"], metrics["fp"], metrics["fn"], metrics["tn"]) == (4, 0, 0, 16)


@pytest.mark.parametrize("kind", [[], {"x": 1}], ids=["list", "object"])
def test_unhashable_parameter_type_exits_2(tmp_path, capsys, kind):
    schema = {"name": "a", "description": "", "parameters": {"p": {"type": kind}}}
    workload = tmp_path / "w.json"
    workload.write_text(json.dumps({"tools": [{"schema": schema}], "script": [{"final": "x"}]}))
    assert main(["run", "--workload", str(workload)]) == 2
    assert "unknown parameter type" in capsys.readouterr().err
    bad = schema_file(tmp_path, "bad.json", [schema])
    good = schema_file(tmp_path, "good.json", [annotated_tool("a")])
    assert main(["validate-annotations", "--predicted", bad, "--truth", good]) == 2
    assert "unknown parameter type" in capsys.readouterr().err


def test_run_rejects_reads_that_are_not_a_list(tmp_path, capsys):
    data = {
        "tools": [
            {
                "schema": {"name": "a", "description": "", "parameters": {}},
                "annotation": {"reads": 5},
                "latency": 1,
                "returns": [{}],
            }
        ],
        "script": [{"final": "done"}],
    }
    path = tmp_path / "bad_reads.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--workload", str(path)]) == 2
    assert "reads must be a list" in capsys.readouterr().err


def test_unannotated_tools_conflict_via_root_fallback(tmp_path, capsys):
    bare = [{"name": "a", "description": "", "parameters": {}},
            {"name": "b", "description": "", "parameters": {}}]
    path = schema_file(tmp_path, "bare.json", bare)
    assert main(["validate-annotations", "--predicted", path, "--truth", path]) == 0
    metrics = json.loads(capsys.readouterr().out.strip())
    assert metrics["tp"] == 2  # root fallback serializes the pair both ways


def test_run_does_not_import_scipy():
    # scipy is imported only by the significance tests; the CLI and every
    # run would otherwise pay about a second at start-up.
    src = str(pathlib.Path(futurecall.__file__).resolve().parents[1])
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import futurecall; "
        "from futurecall.cli import main; "
        "assert main(['run', '--workload', sys.argv[2], '--mode', 'async-parallel']) == 0; "
        "print('scipy' in sys.modules)"
    )
    done = subprocess.run(
        [sys.executable, "-c", code, src, fixture_path("fig1")],
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip().splitlines()[-1] == "False"


@pytest.mark.parametrize("clock", ["virtual", "wall"])
@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_run_rejects_bad_delay_scale(value, clock, capsys):
    argv = ["run", "--workload", fixture_path("fig1"), "--clock", clock, f"--delay-scale={value}"]
    assert main(argv) == 2
    assert "--delay-scale must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
def test_compare_rejects_bad_delay_scale(value, capsys):
    argv = ["compare", "--workload", fixture_path("fig1"), f"--delay-scale={value}"]
    argv += ["--mode", "sync-sequential", "--mode", "async-parallel", "--clock", "wall"]
    assert main(argv) == 2
    assert "--delay-scale must be a finite number > 0" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["5e-324", "1e-300"])
def test_wall_clock_rejects_a_scale_below_its_resolution(value, capsys):
    # Both are finite and > 0, yet one unit is shorter than a clock tick:
    # elapsed time would read as a jump of many units, or as infinity.
    argv = ["run", "--workload", fixture_path("fig1"), "--clock", "wall"]
    argv += [f"--delay-scale={value}", "--mode", "async-parallel"]
    assert main(argv) == 2
    assert "below the wall clock's resolution" in capsys.readouterr().err


def test_module_entry_point_runs_the_cli(capsys):
    root = pathlib.Path(futurecall.__file__).resolve().parents[2]
    done = subprocess.run(
        [sys.executable, "-m", "futurecall", "run",
         "--workload", "fixtures/fig1.json", "--mode", "async-parallel"],
        cwd=root, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    assert main(["run", "--workload", fixture_path("fig1"), "--mode", "async-parallel"]) == 0
    assert done.stdout == capsys.readouterr().out
