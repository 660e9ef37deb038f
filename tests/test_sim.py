import importlib.util
import json
import math
import os
import random

import numpy as np
import pytest

import edgeplan.sim
from edgeplan.cli import main
from edgeplan.core import load_instance
from edgeplan.delay import (DelayOptions, build_delay_table, check_plan_feasible,
                            compute_cm, compute_cp, path_delay)
from edgeplan.gen import generate_instance, random_test_instance
from edgeplan.sim import (SimEvent, SimStep, SimTrace, shortest_digits, shortest_reprs,
                          simulate, trace_to_timeline)
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
        assert trace.completion_time == pytest.approx(total, rel=1e-9)
        L = inst.model.num_layers
        assert len(trace.events) == inst.tokens * (2 * L - 1)


def event_rows(trace):
    """The timeline rows of a trace, one f-string per SimEvent: the
    reference the text rendering must equal once joined as a file."""
    return ["round,kind,resource,start_s,end_s"] + [
        f"{e.round},{e.kind},{e.resource},{e.start!r},{e.end!r}" for e in trace.events]


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
        assert trace_to_timeline(SimTrace((), 0)) == "round,kind,resource,start_s,end_s\n"

    def test_zero_tokens_is_header_only(self):
        trace = simulate(((0, 8), (1, 8)), make_2x2_instance(tokens=0))
        assert trace_to_timeline(trace) == "round,kind,resource,start_s,end_s\n"

    def test_round_labels_cross_digit_counts(self):
        """Rounds 9 -> 10 and 99 -> 100 change the label's width."""
        trace = simulate(((0, 8), (1, 8)), make_2x2_instance(tokens=101))
        text = trace_to_timeline(trace)
        assert text == as_file(event_rows(trace))
        lines = text.splitlines()
        assert len(lines) == 1 + 101 * 3
        for r in (9, 10, 99, 100, 101):
            assert [line.split(",")[0] for line in lines[3 * r - 2:3 * r + 1]] == [str(r)] * 3

    def test_one_step_per_round(self):
        trace = SimTrace((SimStep(0.25, "compute", 0, "server:2"),), 3)
        assert trace_to_timeline(trace) == ("round,kind,resource,start_s,end_s\n"
                                            "1,compute,server:2,0.0,0.25\n"
                                            "2,compute,server:2,0.25,0.5\n"
                                            "3,compute,server:2,0.5,0.75\n")
        inst = generate_instance(4, 3, 1, (4, 8, 16), "uniform", tokens=12)
        single = simulate(((2, 8),), inst)
        assert trace_to_timeline(single) == as_file(event_rows(single))

    @pytest.mark.parametrize("durations, exponent", [((1e-5, 3e-5), "e-05"),
                                                     ((4e15, 1e15), "e+16")],
                             ids=["below-1e-4", "ends-from-1e16"])
    def test_exponent_reprs(self, durations, exponent):
        """Ends whose repr has an exponent, small ("1e-05") or large
        ("1e+16"), are written as repr writes them."""
        steps = (SimStep(durations[0], "compute", 0, "server:0"),
                 SimStep(durations[1], "transfer", 0, "link:0->1"))
        trace = SimTrace(steps, 3)
        text = trace_to_timeline(trace)
        assert text == as_file(event_rows(trace))
        assert exponent in text


def load_script(name: str):
    """A script under scripts/ as a module, without running its main."""
    path = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "scripts", name + ".py")
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ORACLE = load_script("check_shortest_reprs")


@pytest.fixture(scope="module")
def oracle_values():
    return ORACLE.oracle_values(150_000, 35)


class TestShortestReprs:
    """The kernel's text against [repr(v) for v in a.tolist()] on the sets
    the CI step checks at 5 million values."""

    @pytest.mark.parametrize("name", list(ORACLE.oracle_values(15, 0)))
    def test_equals_repr(self, oracle_values, name):
        values = oracle_values[name]
        assert shortest_reprs(values) == [repr(v) for v in values.tolist()]

    def test_certifies_most_in_range_values(self, oracle_values):
        """Only ties, powers of two and log10 misses fall back. Below 1e12
        x * 10**k is a fine multiple of a power of two, so ties are rare and
        almost every log-uniform value is certified; near 1e15 it is a
        multiple of 1/2 or 1/4 and 17-digit ties are common."""
        values = oracle_values["log-uniform"]
        values = values[(values >= 1e-4) & (values < 1e12)]
        assert shortest_digits(values)[2].mean() > 0.999

    def test_falls_back_outside_the_proof(self):
        """Out of [1e-4, 1e15), powers of two and exact 17-digit ties
        are left to repr."""
        values = np.array([9.999999999999999e-05, 1e15, 1e16, 0.0, -1.5, np.nan, np.inf,
                           0.5, 1024.0, 2.0 ** -13, 1.0 + 2.0 ** -17])
        assert not shortest_digits(values)[2].any()
        assert shortest_reprs(values) == [repr(v) for v in values.tolist()]

    @pytest.mark.parametrize("value, digits", [(0.1, 1), (0.3, 1), (123.456, 6),
                                               (0.1 + 0.2, 17), (2.0 / 3.0, 16),
                                               (1e-4, 1), (1.0 / 3.0, 16), (4.35, 3)])
    def test_certified_digits(self, value, digits):
        d, e, certified = shortest_digits(np.array([value]))
        assert certified[0]
        assert str(int(d[0])).rstrip("0") == repr(value).replace(".", "").lstrip("0").rstrip("0")
        assert len(str(int(d[0])).rstrip("0")) == digits
        assert 10.0 ** int(e[0]) <= value < 10.0 ** (int(e[0]) + 1)


class TestTimelineAboveCrossover:
    """Traces with at least _KERNEL_MIN ends, so trace_to_timeline renders
    them through shortest_reprs: the text equals one f-string per event."""

    @staticmethod
    def rendered(durations, rounds: int) -> str:
        steps = tuple(SimStep(d, ("compute", "transfer")[k % 2], k // 2, f"server:{k}")
                      for k, d in enumerate(durations))
        trace = SimTrace(steps, rounds)
        assert trace.ends.size >= edgeplan.sim._KERNEL_MIN
        text = trace_to_timeline(trace)
        assert text == as_file(event_rows(trace))
        return text

    def test_first_ends_below_1e4(self):
        """The first ends print in scientific form and fall back to repr
        inside a block whose later ends are certified."""
        text = self.rendered((1e-5, 3e-6), 800)
        assert ",1e-05," in text and ",1.3000000000000001e-05\n" in text

    def test_integer_valued_ends(self):
        text = self.rendered((1.0, 2.0, 4.0), 400)
        assert ",7.0\n" in text and ",2800.0\n" in text

    def test_ends_crossing_1e15(self):
        text = self.rendered((3e11, 7e11), 1200)
        assert ",999000000000000.0\n" in text and ",1000000000000000.0\n" in text
        assert ",1.2e+15\n" not in text and ",1200000000000000.0\n" in text

    def test_more_than_one_block(self):
        """33,000 events: the seam at 2**15 falls inside a round."""
        self.rendered((0.0123, 4.5e-4, 0.0017), 11_000)

    def test_generated_trace_takes_the_kernel(self, monkeypatch):
        """Of a generated 4,096-token trace's ends at least 99 % take the
        certified path, and trace_to_timeline hands them to the kernel."""
        inst = generate_instance(3, 6, 4, (4, 8, 16), "heterogeneous", tokens=4096)
        trace = simulate(((5, 4), (0, 8), (3, 16), (1, 8)), inst)
        assert shortest_digits(trace.ends)[2].mean() >= 0.99
        calls = []
        kernel = edgeplan.sim.shortest_reprs
        monkeypatch.setattr(edgeplan.sim, "shortest_reprs",
                            lambda values: calls.append(values.size) or kernel(values))
        assert trace_to_timeline(trace) == as_file(event_rows(trace))
        assert calls == [trace.ends.size]


def codes(violations):
    return [v.code for v in violations]


def reference_replay(assignments, instance, options=DelayOptions()):
    """The event-by-event replay that the columnar trace must reproduce bit
    for bit: one SimEvent per event and a running sum `t += dur`. Returns
    (events, completion time, timeline rows). Like simulate, it takes a
    plan check_plan_feasible accepts."""
    cluster, model = instance.cluster, instance.model
    L, n = model.num_layers, instance.tokens
    steps = []
    for l, (i, b) in enumerate(assignments):
        layer = model.layers[l]
        steps.append((compute_cp(layer, cluster.servers[i], b, n, options),
                      "compute", l, f"server:{i}"))
        if l + 1 < L:
            j = assignments[l + 1][0]
            steps.append((compute_cm(layer, cluster.link(i, j), b, n, model.batch_size,
                                     model.embedding_size, options),
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
    """True when check_plan_feasible accepts the plan and the columnar
    trace equals the reference exactly; False when the checker rejects it,
    so neither replays it."""
    if check_plan_feasible(assignments, inst, options):
        return False
    events, completion, rows = reference_replay(assignments, inst, options)
    trace = simulate(assignments, inst, options)
    assert trace_to_timeline(trace) == as_file(rows)
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
        assert len(simulate(((2, 8),), inst).events) == tokens

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
