import random

import pytest

from edgeplan.core import ModelProfile, ProblemInstance
from edgeplan.delay import build_delay_table, evaluate_plan
from edgeplan.gen import random_test_instance
from edgeplan.sim import InfeasiblePlan, SimTrace, simulate, trace_to_timeline
from edgeplan.solver import solve_brute_force

from conftest import make_2x2_instance


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
        assert trace_to_timeline(SimTrace((), 0.0)) == \
            ["round,kind,resource,start_s,end_s"]
