"""The ``repro check`` determinism linter: framework, rules, and self-test."""

import json

from repro.check import rules
from repro.check.lint import (
    SEEDED_VIOLATIONS,
    iter_python_files,
    lint_paths,
    lint_source,
    module_rel,
    render_json,
    render_text,
    self_test,
)
from repro.check.rules.base import Rule

SIM_PATH = "repro/sim/module.py"
RING_PATH = "repro/ring/module.py"


def rules_in(source, path=SIM_PATH):
    return [f.rule for f in lint_source(source, path)]


# ---------------------------------------------------------------------- framework


def test_module_rel_strips_leading_prefixes():
    assert module_rel("src/repro/sim/engine.py") == "repro/sim/engine.py"
    assert module_rel("/abs/path/src/repro/ring/network.py") == "repro/ring/network.py"
    assert module_rel("repro/direct/cache.py") == "repro/direct/cache.py"
    # No repro/ segment: bare basename, unscoped rules still apply.
    assert module_rel("/tmp/xyz/snippet.py") == "snippet.py"


def test_syntax_error_reports_r000():
    findings = lint_source("def broken(:\n", SIM_PATH)
    assert [f.rule for f in findings] == ["R000"]


def test_suppression_comment_is_per_rule():
    source = "import time\nx = time.time()  # repro: allow[R002]\n"
    assert rules_in(source) == []
    wrong_rule = "import time\nx = time.time()  # repro: allow[R001]\n"
    assert rules_in(wrong_rule) == ["R002"]


def test_suppression_comment_accepts_rule_list():
    source = (
        "import time, random\n"
        "x = time.time() + random.random()  # repro: allow[R001, R002]\n"
    )
    assert rules_in(source) == []


def test_render_text_and_json():
    findings = lint_source("import time\nx = time.time()\n", SIM_PATH)
    text = render_text(findings)
    assert "repro/sim/module.py:2" in text and "R002" in text
    assert text.endswith("1 finding(s)")
    payload = json.loads(render_json(findings))
    assert payload["count"] == 1
    assert payload["findings"][0]["rule"] == "R002"


def test_iter_python_files_walks_sorted(tmp_path):
    (tmp_path / "b.py").write_text("x = 1\n")
    (tmp_path / "a.py").write_text("x = 1\n")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "c.py").write_text("x = 1\n")
    (sub / "notes.txt").write_text("not python\n")
    names = [p.split("/")[-1] for p in iter_python_files([str(tmp_path)])]
    assert names == ["a.py", "b.py", "c.py"]


def test_lint_paths_on_files(tmp_path):
    bad = tmp_path / "repro" / "sim"
    bad.mkdir(parents=True)
    target = bad / "hot.py"
    target.write_text("import time\nx = time.time()\n")
    findings = lint_paths([str(target)])
    assert [f.rule for f in findings] == ["R002"]


def test_self_test_all_rules_fire():
    assert self_test() == []


def test_seeds_cover_exactly_the_registered_rules():
    assert sorted(SEEDED_VIOLATIONS) == [rule.rule_id for rule in rules.ALL_RULES]


def test_self_test_reports_a_registered_rule_without_a_seed(monkeypatch):
    class Unseeded(Rule):
        rule_id = "R999"

        def check(self, tree):
            return iter(())

    monkeypatch.setattr(rules, "ALL_RULES", rules.ALL_RULES + [Unseeded()])
    assert self_test() == ["R999: registered rule has no seeded violation"]


def test_multi_id_allow_comment_suppresses_both_rules():
    source = (
        "import time, random\n"
        "x = random.random() + time.time()  # repro: allow[R001,R002]\n"
    )
    assert rules_in(source) == []


def test_two_allow_groups_on_one_line_are_both_honored():
    source = (
        "import time, random\n"
        "x = random.random() + time.time()"
        "  # repro: allow[R001]  # repro: allow[R002]\n"
    )
    assert rules_in(source) == []


# ---------------------------------------------------------------------- R001


def test_r001_flags_random_calls_everywhere():
    source = "import random\nrng = random.Random(7)\n"
    assert rules_in(source, "repro/workload/generator.py") == ["R001"]
    assert rules_in("import random\nx = random.random()\n", "repro/hw.py") == ["R001"]
    assert rules_in("import random\nrandom.seed(0)\n", "top.py") == ["R001"]


def test_r001_exempts_the_streams_module():
    source = "import random\nrng = random.Random(7)\n"
    assert rules_in(source, "repro/sim/random.py") == []


def test_r001_ignores_annotations_and_instances():
    source = (
        "import random\n"
        "def gen(rng: random.Random) -> int:\n"
        "    return rng.randint(0, 9)\n"
    )
    assert rules_in(source, "repro/workload/zipf.py") == []


# ---------------------------------------------------------------------- R002


def test_r002_flags_wall_clock_in_simulator_packages():
    assert rules_in("import time\nx = time.time()\n", RING_PATH) == ["R002"]
    assert rules_in("import time\nx = time.perf_counter()\n", SIM_PATH) == ["R002"]
    source = "from datetime import datetime\nx = datetime.now()\n"
    assert rules_in(source, "repro/direct/machine.py") == ["R002"]


def test_r002_out_of_scope_modules_are_free():
    assert rules_in("import time\nx = time.time()\n", "repro/analysis/report.py") == []


def test_r002_bench_harness_is_allowlisted():
    source = "import time\nstart = time.perf_counter()\n"
    assert rules_in(source, "repro/sweep/bench.py") == []
    # The rest of the sweep package is still in scope.
    assert rules_in(source, "repro/sweep/runner.py") == ["R002"]


# ---------------------------------------------------------------------- R003


def test_r003_flags_iteration_over_set_typed_attribute():
    source = (
        "from typing import Set\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.pending: Set[str] = set()\n"
        "    def drain(self):\n"
        "        for key in self.pending:\n"
        "            print(key)\n"
    )
    assert rules_in(source) == ["R003"]


def test_r003_flags_bare_set_constructions():
    assert rules_in("for x in set([3, 1]):\n    pass\n") == ["R003"]
    assert rules_in("for x in frozenset((1, 2)):\n    pass\n") == ["R003"]
    assert rules_in("for x in {1, 2}:\n    pass\n") == ["R003"]
    assert rules_in("items = [y for y in {v for v in (1, 2)}]\n") == ["R003"]


def test_r003_flags_dict_keys_views():
    assert rules_in("d = {}\nfor k in d.keys():\n    pass\n") == ["R003"]


def test_r003_accepts_sorted_and_ordered_containers():
    source = (
        "from typing import Dict, Set\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self.pending: Set[str] = set()\n"
        "        self.ordered: Dict[str, None] = {}\n"
        "    def drain(self):\n"
        "        for key in sorted(self.pending):\n"
        "            print(key)\n"
        "        for key in self.ordered:\n"
        "            print(key)\n"
    )
    assert rules_in(source) == []


def test_r003_membership_tests_are_fine():
    source = (
        "seen = set()\n"
        "for x in range(5):\n"
        "    if x in seen:\n"
        "        continue\n"
        "    seen.add(x)\n"
    )
    assert rules_in(source) == []


def test_r003_dataclass_frozenset_fields():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass\n"
        "class Req:\n"
        "    shared: frozenset\n"
        "def grant(req: Req):\n"
        "    for name in req.shared:\n"
        "        print(name)\n"
    )
    assert rules_in(source) == ["R003"]


def test_r003_only_in_simulation_packages():
    source = "for x in {1, 2}:\n    pass\n"
    assert rules_in(source, "repro/analysis/report.py") == []


# ---------------------------------------------------------------------- R004


def test_r004_flags_exact_timestamp_equality():
    assert rules_in("def f(a, now):\n    return now == a\n") == ["R004"]
    assert rules_in("def f(e):\n    return e.started_at != e.finished_at\n") == ["R004"]


def test_r004_window_comparisons_are_fine():
    assert rules_in("def f(a, now):\n    return now <= a\n") == []
    assert rules_in("def f(e):\n    return e.started_at < e.deadline\n") == []


def test_r004_ignores_tags_and_none():
    assert rules_in("def f(kind):\n    return kind == 'time'\n") == []
    assert rules_in("def f(e):\n    return e.kind_time == 'abs'\n") == []
    assert rules_in("def f(e):\n    return e.started_at == None\n") == []


def test_r004_chained_comparisons():
    source = "def f(a, b, now):\n    return a <= now == b\n"
    assert rules_in(source) == ["R004"]


# ---------------------------------------------------------------------- R008


def test_r008_fires_on_mutable_default():
    assert "R008" in rules_in("def f(pending=[]):\n    return pending\n")
    assert "R008" in rules_in("def f(cache={}):\n    return cache\n")
    assert "R008" in rules_in("def f(seen=set()):\n    return seen\n")


def test_r008_silent_on_immutable_defaults():
    assert "R008" not in rules_in("def f(x=None, y=(), z=0):\n    return x\n")


# ---------------------------------------------------------------------- R009


def test_r009_fires_outside_with():
    assert "R009" in rules_in("def f():\n    ctx = sanitizing()\n    return ctx\n")


def test_r009_allows_with_and_enter_context():
    ok = (
        "def f(stack):\n"
        "    with sanitizing():\n"
        "        pass\n"
        "    stack.enter_context(injecting(None))\n"
    )
    assert "R009" not in rules_in(ok)


# ---------------------------------------------------------------------- R010


def test_r010_fires_without_sort_keys():
    assert "R010" in rules_in("import json\ndef f(d):\n    return json.dumps(d)\n")


def test_r010_allows_sorted_serialization():
    source = "import json\ndef f(d):\n    return json.dumps(d, sort_keys=True)\n"
    assert "R010" not in rules_in(source)
