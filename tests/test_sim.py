import json
import random

import pytest

import edgeplan.sim
from edgeplan.cli import main
from edgeplan.core import ModelProfile, ProblemInstance
from edgeplan.delay import (DelayOptions, build_delay_table, compute_cm, compute_cp,
                            evaluate_plan)
from edgeplan.gen import generate_instance, random_test_instance
from edgeplan.sim import InfeasiblePlan, SimEvent, SimTrace, simulate, trace_to_timeline
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
        assert len(trace.events) == 4 * 3

    def test_events_are_contiguous_and_ordered(self):
        inst = make_2x2_instance(tokens=3)
        trace = simulate(((0, 8), (1, 8)), inst)
        for prev, cur in zip(trace.events, trace.events[1:]):
            assert cur.start == prev.end
        assert trace.completion_time == trace.events[-1].end

    def test_missing_link_raises(self):
        inst = make_2x2_instance()
        inst = make_2x2_instance(
            cluster=type(inst.cluster)(servers=inst.cluster.servers,
                                       links=inst.cluster.links[1:]))
        with pytest.raises(InfeasiblePlan):
            simulate(((0, 8), (1, 8)), inst)

    def test_unknown_bits_raises(self, golden_instance):
        with pytest.raises(InfeasiblePlan):
            simulate(((0, 4), (1, 4)), golden_instance)

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_closed_form(self, seed):
        rng = random.Random(5000 + seed)
        inst = random_test_instance(rng)
        table = build_delay_table(inst)
        result = solve_brute_force(inst, table)
        if result.plan is None:
            return
        trace = simulate(result.plan.assignments, inst)
        total, _, _ = evaluate_plan(result.plan.assignments, table)
        assert trace.completion_time == pytest.approx(total, rel=1e-9)
        L = inst.model.num_layers
        assert len(trace.events) == inst.tokens * (2 * L - 1)


class TestTimeline:
    def test_golden_rows(self, golden_instance):
        trace = simulate(((0, 8), (1, 8)), golden_instance)
        rows = trace_to_timeline(trace)
        assert rows[0] == "round,kind,resource,start_s,end_s"
        assert len(rows) == 1 + 3
        assert rows[1].startswith("1,compute,server:0,0.0,1.0")

    def test_empty_trace_is_header_only(self):
        assert trace_to_timeline(SimTrace.from_steps((), 0)) == \
            ["round,kind,resource,start_s,end_s"]


def reference_replay(assignments, instance, options=DelayOptions()):
    """The event-by-event replay that the columnar trace must reproduce bit
    for bit: one SimEvent per event and a running sum `t += dur`. Returns
    (events, completion time, timeline rows)."""
    cluster, model = instance.cluster, instance.model
    L, n = model.num_layers, instance.tokens
    if len(assignments) != L:
        raise InfeasiblePlan(f"{len(assignments)} assignments for {L} layers")
    steps = []
    for l, (i, b) in enumerate(assignments):
        if not 0 <= i < cluster.num_servers:
            raise InfeasiblePlan(f"layer {l}: unknown server {i}")
        if b not in instance.feasible_bits[l]:
            raise InfeasiblePlan(f"layer {l}: {b} bits outside the feasible set "
                                 f"{instance.feasible_bits[l]}")
        layer = model.layers[l]
        steps.append((compute_cp(layer, cluster.servers[i], b, n, options),
                      "compute", l, f"server:{i}"))
        if l + 1 < L:
            j = assignments[l + 1][0]
            link = cluster.link(i, j)
            if i != j and link is None:
                raise InfeasiblePlan(f"no link {i}->{j} for layers {l}->{l + 1}")
            steps.append((compute_cm(layer, link, b, n, model.batch_size,
                                     model.embedding_size, options,
                                     same_server=i == j),
                           "transfer", l, f"link:{i}->{j}"))
    events = []
    t = 0.0
    for r in range(1, n + 1):
        for total, kind, l, resource in steps:
            dur = total / n
            events.append(SimEvent(t, t + dur, kind, r, l, resource))
            t += dur
    rows = ["round,kind,resource,start_s,end_s"]
    rows += [f"{e.round},{e.kind},{e.resource},{e.start!r},{e.end!r}" for e in events]
    return tuple(events), t, rows


def replays_as_reference(assignments, inst, options=DelayOptions()) -> bool:
    """True when the plan replays and the columnar trace equals the
    reference exactly; False when both refuse it with the same message."""
    try:
        events, completion, rows = reference_replay(assignments, inst, options)
    except InfeasiblePlan as e:
        with pytest.raises(InfeasiblePlan) as columnar:
            simulate(assignments, inst, options)
        assert str(columnar.value) == str(e)
        return False
    trace = simulate(assignments, inst, options)
    assert trace_to_timeline(trace) == rows
    assert trace.completion_time == completion
    assert [(e.start, e.end) for e in trace.events] == [(e.start, e.end) for e in events]
    assert trace.events == events
    return True


class TestColumnarReplayOracle:
    @pytest.mark.parametrize("seed", range(120))
    def test_random_plans(self, seed):
        rng = random.Random(9000 + seed)
        inst = random_test_instance(rng, tokens=rng.randint(0, 40))
        options = DelayOptions(per_token_activation=rng.random() < 0.5)
        L = inst.model.num_layers
        for _ in range(20):  # servers may repeat: same-server transfers occur
            plan = tuple((rng.randrange(inst.cluster.num_servers),
                          rng.choice(inst.feasible_bits[l])) for l in range(L))
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
        assert len(simulate(((2, 8),), inst).events) == tokens

    def test_same_server_transfers_take_no_time(self):
        inst = make_2x2_instance(tokens=3)
        assert replays_as_reference(((0, 8), (0, 8)), inst)
        transfers = [e for e in simulate(((0, 8), (0, 8)), inst).events
                     if e.kind == "transfer"]
        assert transfers and all(e.start == e.end for e in transfers)

    @pytest.mark.parametrize("plan", [((0, 8),), ((2, 8), (1, 8)), ((0, 4), (1, 8))])
    def test_refusals_match(self, plan):
        assert not replays_as_reference(plan, make_2x2_instance())


def test_cli_counts_events_without_building_them(tmp_path, monkeypatch):
    """`simulate` takes its event count and timeline from the columns."""
    plan, summary, timeline = (tmp_path / name for name in
                               ("plan.json", "summary.json", "timeline.csv"))
    inputs = ["--cluster", data_path("cluster_2x2.json"),
              "--model", data_path("model_2x2.json")]
    assert main(["plan", *inputs, "--bits", "8", "--tokens", "5",
                 "--out", str(plan)]) == 0

    def no_events(*args, **kwargs):
        raise AssertionError("simulate built per-event objects")
    monkeypatch.setattr(edgeplan.sim, "SimEvent", no_events)
    assert main(["simulate", "--plan", str(plan), *inputs, "--out", str(timeline),
                 "--summary", str(summary)]) == 0
    assert json.loads(summary.read_text())["events"] == 5 * (2 * 2 - 1)
    assert len(timeline.read_text().splitlines()) == 1 + 5 * 3
