import json
import math
import random

import pytest

from edgeplan.cli import main
from edgeplan.core import load_instance
from edgeplan.delay import (DelayOptions, build_delay_table, check_plan_feasible,
                            compute_cm, compute_cp, path_delay)
from edgeplan.gen import generate_instance, random_test_instance
from edgeplan.sim import SimEvent, SimTrace, simulate, trace_to_timeline
from edgeplan.solver import solve_brute_force

from conftest import data_path, make_2x2_instance


class TestSimulate:
    def test_golden_trace(self, golden_instance):
        trace = simulate(((0, 8), (1, 8)), golden_instance)
        assert trace.completion_time == pytest.approx(3.0, rel=1e-12)
        spans = [(e.start, e.end, e.kind, e.resource) for e in trace.events]
        assert spans == [
            (0.0, 1.0, "compute", "server:0"),
            (1.0, 2.0, "transfer", "link:0->1"),
            (2.0, 3.0, "compute", "server:1"),
        ]

    def test_zero_tokens_empty_trace(self):
        inst = make_2x2_instance(tokens=0)
        trace = simulate(((0, 8), (1, 8)), inst)
        assert trace.events == ()
        assert trace.completion_time == 0.0

    def test_linearity_in_rounds(self):
        inst = make_2x2_instance(tokens=4)
        trace = simulate(((0, 8), (1, 8)), inst)
        assert trace.completion_time == pytest.approx(4 * 3.0, rel=1e-12)
        assert trace.round_time == pytest.approx(3.0, rel=1e-12)
        assert len(trace.events) == 3

    def test_events_are_contiguous_and_ordered(self):
        inst = make_2x2_instance(tokens=3)
        trace = simulate(((0, 8), (1, 8)), inst)
        assert trace.events[0].start == 0.0
        for prev, cur in zip(trace.events, trace.events[1:]):
            assert cur.start == prev.end
        assert trace.round_time == trace.events[-1].end

    def test_missing_link_is_refused(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(
            cluster=type(inst.cluster)(servers=inst.cluster.servers,
                                       links=tuple(inst.cluster.links)[1:]))
        assert codes(check_plan_feasible(((0, 8), (1, 8)), inst)) == ["MissingLink"]

    def test_unknown_bits_are_refused(self, golden_instance):
        assert codes(check_plan_feasible(((0, 4), (1, 4)), golden_instance)) == \
            ["InfeasibleBits", "InfeasibleBits"]

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_closed_form(self, seed):
        rng = random.Random(5000 + seed)
        inst = random_test_instance(rng)
        table = build_delay_table(inst)
        result = solve_brute_force(inst, table)
        if result.plan is None:
            return
        trace = simulate(result.plan.assignments, inst)
        servers = [i for i, _ in result.plan.assignments]
        total, _, _ = path_delay(table.cp, table.cm, servers)
        assert trace.completion_time == total
        L = inst.model.num_layers
        assert len(trace.events) == min(inst.tokens, 1) * (2 * L - 1)


def event_rows(trace):
    """The timeline rows of a trace, one f-string per SimEvent: the
    reference the text rendering must equal once joined as a file."""
    return ["round,kind,resource,start_s,end_s"] + [
        f"1,{e.kind},{e.resource},{e.start!r},{e.end!r}" for e in trace.events]


def as_file(rows) -> str:
    return "\n".join(rows) + "\n"


class TestTimeline:
    def test_golden_rows(self, golden_instance):
        trace = simulate(((0, 8), (1, 8)), golden_instance)
        text = trace_to_timeline(trace)
        assert text == ("round,kind,resource,start_s,end_s\n"
                        "1,compute,server:0,0.0,1.0\n"
                        "1,transfer,link:0->1,1.0,2.0\n"
                        "1,compute,server:1,2.0,3.0\n")
        assert text == as_file(event_rows(trace))

    def test_empty_trace_is_header_only(self):
        assert trace_to_timeline(SimTrace((), 0, 0.0)) == "round,kind,resource,start_s,end_s\n"

    def test_zero_tokens_is_header_only(self):
        trace = simulate(((0, 8), (1, 8)), make_2x2_instance(tokens=0))
        assert trace_to_timeline(trace) == "round,kind,resource,start_s,end_s\n"

    def test_many_rounds_list_round_one(self):
        """101 rounds: the timeline lists round 1's three events alone."""
        trace = simulate(((0, 8), (1, 8)), make_2x2_instance(tokens=101))
        text = trace_to_timeline(trace)
        assert text == as_file(event_rows(trace))
        lines = text.splitlines()
        assert len(lines) == 1 + 3
        assert [line.split(",")[0] for line in lines[1:]] == ["1"] * 3

    def test_one_step_per_round(self):
        trace = SimTrace((SimEvent(0.0, 0.25, "compute", "server:2"),), 3, 0.75)
        assert trace_to_timeline(trace) == ("round,kind,resource,start_s,end_s\n"
                                            "1,compute,server:2,0.0,0.25\n")
        inst = generate_instance(4, 3, 1, (4, 8, 16), "uniform", tokens=12)
        single = simulate(((2, 8),), inst)
        assert trace_to_timeline(single) == as_file(event_rows(single))

    @pytest.mark.parametrize("durations, exponent", [((1e-5, 3e-5), "e-05"),
                                                     ((4e15, 7e15), "e+16")],
                             ids=["below-1e-4", "ends-from-1e16"])
    def test_exponent_reprs(self, durations, exponent):
        """Times whose repr has an exponent, small ("1e-05") or large
        ("1.1e+16"), are written as repr writes them."""
        first, second = durations
        events = (SimEvent(0.0, first, "compute", "server:0"),
                  SimEvent(first, first + second, "transfer", "link:0->1"))
        trace = SimTrace(events, 3, 3 * (first + second))
        text = trace_to_timeline(trace)
        assert text == as_file(event_rows(trace))
        assert exponent in text


def codes(violations):
    return [v.code for v in violations]


def reference_replay(assignments, instance, options=DelayOptions()):
    """The event-by-event replay that simulate must reproduce bit for bit:
    round 1's SimEvents from a running sum `t += dur`, and the completion
    time that path_delay sums from the n-token totals. Returns (events,
    completion time, timeline rows). Like simulate, it takes a plan
    check_plan_feasible accepts."""
    cluster, model = instance.cluster, instance.model
    L, n = model.num_layers, instance.tokens
    servers = [i for i, _ in assignments]
    cp = [{i: compute_cp(model.layers[l], cluster.servers[i], b, n, options)}
          for l, (i, b) in enumerate(assignments)]
    cm = [{i: {j: compute_cm(model.layers[l], cluster.link(i, j), b, n, model.batch_size,
                             model.embedding_size, options)}}
          for l, ((i, b), j) in enumerate(zip(assignments, servers[1:]))]
    steps = []
    for l, i in enumerate(servers):
        steps.append((cp[l][i], "compute", f"server:{i}"))
        if l + 1 < L:
            j = servers[l + 1]
            steps.append((cm[l][i][j], "transfer", f"link:{i}->{j}"))
    events = []
    t = 0.0
    for total, kind, resource in steps if n else ():
        dur = total / n
        events.append(SimEvent(t, t + dur, kind, resource))
        t += dur
    rows = ["round,kind,resource,start_s,end_s"]
    rows += [f"1,{e.kind},{e.resource},{e.start!r},{e.end!r}" for e in events]
    return tuple(events), path_delay(cp, cm, servers)[0], rows


def replays_as_reference(assignments, inst, options=DelayOptions()) -> bool:
    """True when check_plan_feasible accepts the plan and the replay
    equals the reference exactly; False when the checker rejects it, so
    neither replays it."""
    if check_plan_feasible(assignments, inst, options):
        return False
    events, completion, rows = reference_replay(assignments, inst, options)
    trace = simulate(assignments, inst, options)
    assert trace_to_timeline(trace) == as_file(rows)
    assert trace.completion_time == completion
    assert trace.events == events
    return True


class TestColumnarReplayOracle:
    @pytest.mark.parametrize("seed", range(120))
    def test_random_plans(self, seed):
        rng = random.Random(9000 + seed)
        inst = random_test_instance(rng, tokens=rng.randint(0, 40))
        options = DelayOptions(per_token_activation=rng.random() < 0.5)
        L, M = inst.model.num_layers, inst.cluster.num_servers
        for attempt in range(20):  # odd draws may reuse a server: the checker refuses
            servers = (rng.sample(range(M), L) if attempt % 2 == 0
                       else [rng.randrange(M) for _ in range(L)])
            plan = tuple((i, rng.choice(inst.feasible_bits[l]))
                         for l, i in enumerate(servers))
            if replays_as_reference(plan, inst, options):
                return
        pytest.fail("no replayable plan drawn")

    @pytest.mark.parametrize("tokens", [0, 1, 4096])
    @pytest.mark.parametrize("payload", ["per_token", "output_size"])
    def test_token_counts_and_payloads(self, tokens, payload):
        inst = generate_instance(3, 6, 4, (4, 8, 16), "heterogeneous", tokens=tokens)
        options = DelayOptions(per_token_activation=payload == "per_token")
        assert replays_as_reference(((5, 4), (0, 8), (3, 16), (1, 8)), inst, options)

    @pytest.mark.parametrize("tokens", [0, 1, 4096])
    def test_single_layer(self, tokens):
        inst = generate_instance(4, 3, 1, (4, 8, 16), "uniform", tokens=tokens)
        assert replays_as_reference(((2, 8),), inst)
        assert len(simulate(((2, 8),), inst).events) == min(tokens, 1)

    def test_server_reuse_is_refused(self):
        """No hop from a server to itself is free: the plan is refused."""
        inst = make_2x2_instance(tokens=3)
        assert not replays_as_reference(((0, 8), (0, 8)), inst)
        assert codes(check_plan_feasible(((0, 8), (0, 8)), inst)) == ["DuplicateServer"]

    REFUSALS = {((0, 8),): ["WrongLength"],
                ((2, 8), (1, 8)): ["UnknownServer", "MissingLink"],
                ((0, 4), (1, 8)): ["InfeasibleBits"]}

    @pytest.mark.parametrize("plan", list(REFUSALS))
    def test_refusals_match(self, plan):
        assert not replays_as_reference(plan, make_2x2_instance())
        assert codes(check_plan_feasible(plan, make_2x2_instance())) == self.REFUSALS[plan]


def test_cli_counts_every_round_and_lists_one(tmp_path):
    """`simulate` counts the events of all n rounds and writes round 1's."""
    plan, summary, timeline = (tmp_path / name for name in
                               ("plan.json", "summary.json", "timeline.csv"))
    inputs = ["--cluster", data_path("cluster_2x2.json"),
              "--model", data_path("model_2x2.json")]
    assert main(["plan", *inputs, "--bits", "8", "--tokens", "5",
                 "--out", str(plan)]) == 0
    assert main(["simulate", "--plan", str(plan), *inputs, "--out", str(timeline),
                 "--summary", str(summary)]) == 0
    doc = json.loads(summary.read_text())
    assert (doc["events"], doc["rounds"]) == (5 * (2 * 2 - 1), 5)
    lines = timeline.read_text().splitlines()
    assert len(lines) == 1 + 3
    assert doc["round_s"] == float(lines[-1].split(",")[-1])
    assert doc["round_s"] == pytest.approx(doc["completion_time_s"] / 5, rel=1e-12)


def test_cli_writes_the_rendered_timeline(tmp_path):
    """The timeline file holds, byte for byte, the text trace_to_timeline
    renders for the plan's replay."""
    assert main(["gen", "--seed", "7", "-m", "5", "-l", "4", "--out-dir", str(tmp_path)]) == 0
    cluster, model = tmp_path / "cluster.json", tmp_path / "model.json"
    inputs = ["--cluster", str(cluster), "--model", str(model)]
    plan, timeline = tmp_path / "plan.json", tmp_path / "timeline.csv"
    assert main(["plan", *inputs, "--bits", "8", "--tokens", "150", "--out", str(plan)]) == 0
    assert main(["simulate", "--plan", str(plan), *inputs, "--out", str(timeline)]) == 0
    assignments = tuple((a["server"], a["bits"])
                        for a in json.loads(plan.read_text())["assignments"])
    inst = load_instance(cluster, model, bit_menu=(8,), delta=math.inf, tokens=150)
    assert timeline.read_bytes() == trace_to_timeline(simulate(assignments, inst)).encode()
