"""The interprocedural flow analysis: call graph and lock order.

Covers the ``repro.check.flow`` subpackage (F001 deadlock detection with
witness chains), the runtime ``LockOrderWitness``, the lint rules
R006-R010, multi-id ``allow[]`` suppression, and the output renderers.
"""

import json
from pathlib import Path

import pytest

from repro.check.flow import (
    analyze_lock_order,
    analyze_paths,
    build_call_graph,
    flow_self_test,
)
from repro.check.flow.callgraph import CallGraph
from repro.check.lint import lint_source, self_test
from repro.check.render import render, render_github, render_sarif
from repro.check.sanitizer import LockOrderWitness, active_witness, sanitizing
from repro.errors import SanitizerError
from repro.ring.concurrency import LockManager, LockRequest

SRC = Path(__file__).resolve().parent.parent / "src"
SIM_PATH = "repro/sim/module.py"


def graph_of(source, path=SIM_PATH):
    graph = CallGraph()
    graph.add_module(source, path)
    graph.freeze()
    return graph


# ------------------------------------------------------------------ call graph


def test_self_call_resolves_to_same_class_method():
    graph = graph_of(
        "class A:\n"
        "    def f(self):\n"
        "        self.g()\n"
        "    def g(self):\n"
        "        pass\n"
        "class B:\n"
        "    def g(self):\n"
        "        pass\n"
    )
    caller = graph.functions[f"{SIM_PATH}::A.f"]
    targets = graph.resolve(caller, caller.calls[0])
    assert [t.qualname for t in targets] == [f"{SIM_PATH}::A.g"]


def test_self_call_without_own_method_falls_back_to_all_methods():
    graph = graph_of(
        "class A:\n"
        "    def f(self):\n"
        "        self.h()\n"
        "class B:\n"
        "    def h(self):\n"
        "        pass\n"
        "class C:\n"
        "    def h(self):\n"
        "        pass\n"
    )
    caller = graph.functions[f"{SIM_PATH}::A.f"]
    names = sorted(t.qualname for t in graph.resolve(caller, caller.calls[0]))
    assert names == [f"{SIM_PATH}::B.h", f"{SIM_PATH}::C.h"]


def test_bare_call_prefers_same_module():
    graph = CallGraph()
    graph.add_module("def helper():\n    pass\ndef f():\n    helper()\n", SIM_PATH)
    graph.add_module("def helper():\n    pass\n", "repro/ring/other.py")
    graph.freeze()
    caller = graph.functions[f"{SIM_PATH}::f"]
    targets = graph.resolve(caller, caller.calls[0])
    assert [t.qualname for t in targets] == [f"{SIM_PATH}::helper"]


def test_attribute_call_resolves_to_every_def_named():
    graph = CallGraph()
    graph.add_module("class A:\n    def go(self):\n        pass\n", SIM_PATH)
    graph.add_module(
        "class B:\n    def go(self):\n        pass\n"
        "def f(obj):\n    obj.go()\n",
        "repro/ring/other.py",
    )
    graph.freeze()
    caller = graph.functions["repro/ring/other.py::f"]
    names = sorted(t.qualname for t in graph.resolve(caller, caller.calls[0]))
    assert names == ["repro/ring/other.py::B.go", f"{SIM_PATH}::A.go"]


def test_nested_defs_are_indexed():
    graph = graph_of("def outer():\n    def inner():\n        pass\n    inner()\n")
    assert f"{SIM_PATH}::inner" in graph.functions


# ------------------------------------------------------------------ lock order


INVERTED = (
    "class Worker:\n"
    "    def grab_ab(self, request):\n"
    "        self.lock_a.acquire(request)\n"
    "        self.lock_b.acquire(request)\n"
    "        self.lock_b.release(request)\n"
    "        self.lock_a.release(request)\n"
    "\n"
    "    def grab_ba(self, request):\n"
    "        self.lock_b.acquire(request)\n"
    "        self.lock_a.acquire(request)\n"
    "        self.lock_a.release(request)\n"
    "        self.lock_b.release(request)\n"
)


def test_inverted_orders_report_a_cycle_with_witness_chains():
    analysis = analyze_lock_order(graph_of(INVERTED))
    assert len(analysis.cycles) == 1
    cycle = analysis.cycles[0]
    assert cycle.locks == ("lock_a", "lock_b")
    rendered = cycle.render()
    # Witness chains carry the acquire sites of both directions.
    assert "acquire 'lock_a'" in rendered and "acquire 'lock_b'" in rendered
    assert f"{SIM_PATH}:3" in rendered or f"{SIM_PATH}:4" in rendered


def test_consistent_orders_report_no_cycle():
    consistent = INVERTED.replace(
        "        self.lock_b.acquire(request)\n"
        "        self.lock_a.acquire(request)\n"
        "        self.lock_a.release(request)\n"
        "        self.lock_b.release(request)\n",
        "        self.lock_a.acquire(request)\n"
        "        self.lock_b.acquire(request)\n"
        "        self.lock_b.release(request)\n"
        "        self.lock_a.release(request)\n",
    )
    analysis = analyze_lock_order(graph_of(consistent))
    assert analysis.cycles == []
    assert len(analysis.edges) >= 1  # the order edge itself is still there


def test_release_cuts_the_region_before_a_reacquire():
    # The MasterController pattern: release, then retry admission.  The
    # re-acquire happens after the release, so no self-edge (deadlock)
    # may be reported.
    source = (
        "class MC:\n"
        "    def try_admit(self, request):\n"
        "        self.locks.try_acquire(request)\n"
        "\n"
        "    def query_finished(self, name, request):\n"
        "        self.locks.release(name)\n"
        "        self.try_admit(request)\n"
    )
    analysis = analyze_lock_order(graph_of(source))
    assert analysis.cycles == []


def test_interprocedural_edge_has_call_chain():
    source = (
        "class MC:\n"
        "    def admit(self, request):\n"
        "        self.locks.try_acquire(request)\n"
        "        self.notify(request)\n"
        "\n"
        "    def notify(self, request):\n"
        "        self.audit_lock.acquire(request)\n"
    )
    analysis = analyze_lock_order(graph_of(source))
    edges = [e for e in analysis.edges if e.target.lock == "audit_lock"]
    assert len(edges) == 1
    chain = edges[0].render_chain()
    assert "acquire 'locks'" in chain
    assert "MC.notify" in chain
    assert "acquire 'audit_lock'" in chain


def test_project_tree_has_no_lock_cycles():
    analysis = analyze_lock_order(build_call_graph([str(SRC)]))
    assert analysis.cycles == []
    # The one real acquire site (MasterController.try_admit) is found.
    assert any(s.function.endswith("MasterController.try_admit") for s in analysis.sites)


# ------------------------------------------------------------------ the driver


def test_analyze_paths_is_clean_on_src():
    assert analyze_paths([str(SRC)]) == []


def test_flow_self_test_passes():
    assert flow_self_test() == []


def test_seeded_violations_produce_findings(tmp_path):
    scratch = tmp_path / "repro" / "sim"
    scratch.mkdir(parents=True)
    (scratch / "bad.py").write_text(INVERTED)
    findings = analyze_paths([str(tmp_path)])
    rules = {f.rule for f in findings}
    assert rules == {"F001"}
    deadlock = next(f for f in findings if f.rule == "F001")
    assert "->" in deadlock.message  # witness chain present
    assert deadlock.line > 0


def test_allow_comment_suppresses_flow_finding(tmp_path):
    scratch = tmp_path / "repro" / "sim"
    scratch.mkdir(parents=True)
    suppressed = INVERTED.replace(
        "        self.lock_a.acquire(request)\n"
        "        self.lock_b.acquire(request)\n"
        "        self.lock_b.release(request)\n",
        "        self.lock_a.acquire(request)  # repro: allow[F001]\n"
        "        self.lock_b.acquire(request)\n"
        "        self.lock_b.release(request)\n",
        1,
    )
    (scratch / "bad.py").write_text(suppressed)
    assert [f.rule for f in analyze_paths([str(tmp_path)])] == []


# ------------------------------------------------------------- rules R006-R010


def rules_in(source, path=SIM_PATH):
    return [f.rule for f in lint_source(source, path)]


def test_r006_fires_on_inverted_module_order():
    findings = [f for f in lint_source(INVERTED, SIM_PATH) if f.rule == "R006"]
    assert len(findings) == 1
    assert "inverted order" in findings[0].message
    assert findings[0].line == 10  # the second acquire of the late function


def test_r006_silent_on_consistent_order():
    consistent = (
        "def f(self, r):\n"
        "    self.lock_a.acquire(r)\n"
        "    self.lock_b.acquire(r)\n"
        "    self.lock_b.release(r)\n"
        "def g(self, r):\n"
        "    self.lock_a.acquire(r)\n"
        "    self.lock_b.acquire(r)\n"
        "    self.lock_b.release(r)\n"
    )
    assert "R006" not in rules_in(consistent)


def test_r008_fires_on_mutable_default():
    assert "R008" in rules_in("def f(pending=[]):\n    return pending\n")
    assert "R008" in rules_in("def f(cache={}):\n    return cache\n")
    assert "R008" in rules_in("def f(seen=set()):\n    return seen\n")


def test_r008_silent_on_immutable_defaults():
    assert "R008" not in rules_in("def f(x=None, y=(), z=0):\n    return x\n")


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


def test_r010_fires_without_sort_keys():
    assert "R010" in rules_in("import json\ndef f(d):\n    return json.dumps(d)\n")


def test_r010_allows_sorted_serialization():
    source = "import json\ndef f(d):\n    return json.dumps(d, sort_keys=True)\n"
    assert "R010" not in rules_in(source)


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


def test_lint_self_test_covers_all_ten_rules():
    assert self_test() == []


# ------------------------------------------------------------------- renderers


def _sample_findings():
    return lint_source("import json\ndef f(d):\n    return json.dumps(d)\n", SIM_PATH)


def test_sarif_document_shape():
    document = json.loads(render_sarif(_sample_findings()))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-check"
    result = run["results"][0]
    assert result["ruleId"] == "R010"
    location = result["locations"][0]["physicalLocation"]
    assert location["region"]["startLine"] == 3
    assert location["region"]["startColumn"] >= 1
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"R006", "R008", "R009", "R010", "F001"} <= rule_ids


def test_github_format_emits_error_annotations():
    text = render_github(_sample_findings())
    assert text.startswith("::error file=")
    assert "title=R010" in text
    assert render_github([]).startswith("::notice")


def test_render_dispatch_and_unknown_format():
    findings = _sample_findings()
    assert "finding(s)" in render(findings, "text")
    assert json.loads(render(findings, "json"))["count"] == 1
    with pytest.raises(ValueError):
        render(findings, "html")


# ------------------------------------------------------------ runtime witness


def test_witness_raises_on_inversion_naming_both_sites():
    witness = LockOrderWitness()
    witness.record("q1", "rel_a", "site-one")
    witness.record("q1", "rel_b", "site-two")
    witness.release("q1")
    witness.record("q2", "rel_b", "site-three")
    with pytest.raises(SanitizerError) as excinfo:
        witness.record("q2", "rel_a", "site-four")
    message = str(excinfo.value)
    assert "site-four" in message and "site-two" in message
    assert "rel_a" in message and "rel_b" in message


def test_witness_consistent_orders_pass():
    witness = LockOrderWitness()
    for query in ("q1", "q2", "q3"):
        witness.record(query, "rel_a", f"{query}-a")
        witness.record(query, "rel_b", f"{query}-b")
        witness.release(query)
    assert witness.acquisitions == 6
    assert witness.edge_count == 1


def test_witness_two_query_interleaved_inversion():
    # The seeded scenario from the issue: two live queries acquiring in
    # opposite orders; the second acquisition of the second query trips.
    witness = LockOrderWitness()
    witness.record("q1", "parts", "q1 acquires parts")
    witness.record("q1", "orders", "q1 acquires orders")
    witness.record("q2", "orders", "q2 acquires orders")
    with pytest.raises(SanitizerError) as excinfo:
        witness.record("q2", "parts", "q2 acquires parts")
    message = str(excinfo.value)
    assert "q2 acquires parts" in message
    assert "q1 acquires orders" in message


def test_lock_manager_feeds_the_ambient_witness():
    with sanitizing():
        witness = active_witness()
        assert witness is not None
        manager = LockManager()
        granted = manager.try_acquire(
            LockRequest("q1", frozenset({"r1", "r2"}), frozenset({"r3"}))
        )
        assert granted
        assert witness.acquisitions == 3
        manager.release("q1")
        assert witness._held == {}
    assert active_witness() is None


def test_sorted_all_at_once_grants_never_trip_the_witness():
    with sanitizing():
        manager = LockManager()
        # Overlapping lock sets granted sequentially; sorted acquisition
        # order inside try_acquire keeps every pair consistent.
        manager.try_acquire(LockRequest("q1", frozenset({"a", "b", "c"}), frozenset()))
        manager.release("q1")
        manager.try_acquire(LockRequest("q2", frozenset({"c", "a"}), frozenset({"b"})))
        manager.release("q2")
        manager.try_acquire(LockRequest("q3", frozenset(), frozenset({"b", "a"})))
        manager.release("q3")


def test_zero_inversion_serving_run_is_byte_identical_to_unwitnessed():
    from repro.serve import ServeConfig
    from repro.serve.service import serve

    config = ServeConfig(
        machine="ring",
        rate_qps=20.0,
        duration_ms=400.0,
        scale=0.02,
        b_domain=25,
        processors=2,
    )
    plain = json.dumps(serve(config), sort_keys=True)
    with sanitizing():
        witnessed = json.dumps(serve(config), sort_keys=True)
    assert witnessed == plain
