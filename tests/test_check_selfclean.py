"""The repo's own sources pass ``repro check`` — and stay that way.

Self-cleanliness is the acceptance bar that makes the linter a CI gate
rather than advice: any new finding in ``src/`` fails this test before it
fails the pipeline.  The companion tests prove the gate has teeth by
seeding violations into copies of real modules and into temp trees fed
through the CLI.
"""

from pathlib import Path

from repro.check.lint import lint_paths, lint_source
from repro.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"


def test_src_tree_is_self_clean():
    findings = lint_paths([str(SRC)])
    assert findings == [], "\n".join(f.render() for f in findings)


def test_seeded_wall_clock_in_engine_copy_is_detected():
    engine = (SRC / "repro" / "sim" / "engine.py").read_text()
    seeded = engine + "\n\nimport time\n_T0 = time.time()\n"
    rules = [f.rule for f in lint_source(seeded, "repro/sim/engine.py")]
    assert "R002" in rules


def test_seeded_set_iteration_in_controller_copy_is_detected():
    controller = (SRC / "repro" / "ring" / "controller.py").read_text()
    seeded = controller + (
        "\n\ndef _bad_drain(keys: set) -> None:\n"
        "    for key in keys:\n"
        "        print(key)\n"
    )
    rules = [f.rule for f in lint_source(seeded, "repro/ring/controller.py")]
    assert "R003" in rules


def test_cli_check_clean_tree_exits_zero(capsys):
    assert main(["check", str(SRC)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_check_fails_on_violation(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim"
    bad.mkdir(parents=True)
    (bad / "hot.py").write_text("import time\nx = time.time()\n")
    assert main(["check", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "R002" in out and "1 finding(s)" in out


def test_cli_check_json_output(tmp_path, capsys):
    bad = tmp_path / "repro" / "sim"
    bad.mkdir(parents=True)
    (bad / "hot.py").write_text("import random\nr = random.Random(1)\n")
    assert main(["check", "--json", str(tmp_path)]) == 1
    import json

    payload = json.loads(capsys.readouterr().out)
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "R001"


def test_cli_check_missing_path_is_a_clean_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "no" / "such" / "path")
    assert main(["check", str(SRC), missing]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.strip() == f"repro check: no such file or directory: {missing}"


def test_cli_check_self_test_passes(capsys):
    assert main(["check", "--self-test"]) == 0
    assert "self-test OK" in capsys.readouterr().out
