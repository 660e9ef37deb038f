import dataclasses
import hashlib
import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from edgeplan import core
from edgeplan.core import (ClusterSpec, LayerProfile, LinkSpec, ModelProfile,
                           ParseError, ProblemInstance, ServerSpec,
                           ValidationError, cluster_to_doc, json_text, load_instance,
                           load_json, model_to_doc, parse_cluster, save_instance,
                           validate_instance)
from edgeplan.gen import PROFILES, generate_cluster, generate_instance

from conftest import data_path, make_2x2_instance, object_layout
from oracles import link_violations


def codes(violations):
    return [v.code for v in violations]


def with_servers(inst, servers):
    return dataclasses.replace(inst, cluster=dataclasses.replace(inst.cluster, servers=servers))


def with_links(inst, links):
    return dataclasses.replace(inst, cluster=dataclasses.replace(inst.cluster, links=links))


def with_model(inst, **changes):
    return dataclasses.replace(inst, model=dataclasses.replace(inst.model, **changes))


def with_layer(inst, k, **changes):
    layers = list(inst.model.layers)
    layers[k] = dataclasses.replace(layers[k], **changes)
    return with_model(inst, layers=tuple(layers))


# (violation as printed, the 2x2 instance edited to break that one rule)
ONE_RULE_BROKEN = [
    ("DuplicateServerId: server ids [0, 1, 1] contain duplicates",
     lambda i: with_servers(i, i.cluster.servers + (ServerSpec(1, 1.0, 1.0),))),
    ("NonContiguousServerIds: server ids [0, 1, 3] are not 0..M-1",
     lambda i: with_servers(i, i.cluster.servers + (ServerSpec(3, 1.0, 1.0),))),
    ("NonPositiveThroughput: server 0 throughput 0.0",
     lambda i: with_servers(i, (ServerSpec(0, 0.0, 1e9), i.cluster.servers[1]))),
    ("SelfLink: link 0->0 is a self-loop",
     lambda i: with_links(i, (*i.cluster.links, LinkSpec(0, 0, 32.0)))),
    ("UnknownServerInLink: link 0->2 references unknown server",
     lambda i: with_links(i, (*i.cluster.links, LinkSpec(0, 2, 32.0)))),
    ("NegativePropagationDelay: link 0->1",
     lambda i: with_links(i, (LinkSpec(0, 1, 32.0, -1.0), tuple(i.cluster.links)[1]))),
    ("NegativeFlops: layer 0", lambda i: with_layer(i, 0, flops=-1.0)),
    ("NegativeOutputSize: layer 0", lambda i: with_layer(i, 0, output_size=-1.0)),
    ("NegativeParamCount: layer 1", lambda i: with_layer(i, 1, param_count=-1)),
    ("BadBatchSize: batch_size 0", lambda i: with_model(i, batch_size=0)),
    ("BadEmbeddingSize: embedding_size 0", lambda i: with_model(i, embedding_size=0)),
    ("NegativeTokens: tokens -1", lambda i: dataclasses.replace(i, tokens=-1)),
    ("DelayOverflow: tokens beyond the float range",
     lambda i: dataclasses.replace(i, tokens=10 ** 400)),
    ("ParamCountOverflow: layer 0 storage beyond the float range",
     lambda i: with_layer(i, 0, param_count=10 ** 400)),
    ("PayloadOverflow: batch_size * embedding_size beyond the float range",
     lambda i: with_model(i, embedding_size=10 ** 400)),
]


class TestValidateInstance:
    def test_well_formed_instance_is_clean(self):
        assert validate_instance(make_2x2_instance()) == []

    @pytest.mark.parametrize("expect, edit", ONE_RULE_BROKEN,
                             ids=[expect.split(":")[0] for expect, _ in ONE_RULE_BROKEN])
    def test_each_rule_is_reported_alone(self, expect, edit):
        """Each rule, broken alone, is the one violation reported; a
        layer is named by its position in the model."""
        assert list(map(str, validate_instance(edit(make_2x2_instance())))) == [expect]

    def test_payload_overflow_of_a_product(self):
        """Each factor is a float; their product is not."""
        inst = with_model(make_2x2_instance(), batch_size=10 ** 200, embedding_size=10 ** 200)
        assert codes(validate_instance(inst)) == ["PayloadOverflow"]

    def test_zero_capacity_link(self):
        inst = make_2x2_instance()
        bad = ClusterSpec(servers=inst.cluster.servers,
                          links=(LinkSpec(0, 1, 0.0), LinkSpec(1, 0, 32.0)))
        inst = make_2x2_instance(cluster=bad)
        assert codes(validate_instance(inst)) == ["LinkCapacityNonPositive"]

    def test_negative_storage_and_bad_precision(self):
        cluster = ClusterSpec(
            servers=(ServerSpec(0, 1.0, -1.0), ServerSpec(1, 1.0, 0.0)),
            links=())
        model = ModelProfile(layers=(LayerProfile(1.0, 1, 1.0, 7),),
                             batch_size=1, embedding_size=1)
        inst = ProblemInstance(cluster=cluster, model=model, bit_menu=(8,),
                               delta=0.0, tokens=1)
        got = codes(validate_instance(inst))
        assert "NegativeStorage" in got
        assert "BadOriginalPrecision" in got

    def test_empty_bit_menu_and_small_bits(self):
        inst = make_2x2_instance(bit_menu=())
        assert "EmptyBitMenu" in codes(validate_instance(inst))

    def test_validate_is_idempotent(self):
        inst = make_2x2_instance()
        assert validate_instance(inst) == validate_instance(inst)

    def test_feasible_bits_outside_menu(self):
        inst = make_2x2_instance(feasible_bits=((8,), (4,)))
        assert "FeasibleBitsNotInMenu" in codes(validate_instance(inst))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_numbers(self, value):
        inst = make_2x2_instance()
        servers = (ServerSpec(0, value, value), ServerSpec(1, 200.0, 1e9))
        links = (LinkSpec(0, 1, value, value), LinkSpec(1, 0, 32.0))
        layers = (LayerProfile(value, 10, value, 32), inst.model.layers[1])
        inst = make_2x2_instance(
            cluster=ClusterSpec(servers=servers, links=links),
            model=ModelProfile(layers=layers, batch_size=1, embedding_size=4))
        got = [v for v in validate_instance(inst) if v.code == "NonFiniteValue"]
        assert len(got) == 6  # ccs, storage, capacity, prop delay, flops, output size

    def test_bit_widths_outside_quantizer_range(self):
        inst = make_2x2_instance(bit_menu=(1, 8, 33), feasible_bits=((8,), (8,)))
        assert codes(validate_instance(inst)) == ["BitsTooSmall", "BitsTooLarge"]

    @pytest.mark.parametrize("delta, expect", [(math.nan, ["NonFiniteValue"]),
                                               (-1.0, ["NegativeDelta"]),
                                               (math.inf, [])])
    def test_delta_must_be_a_non_negative_number(self, delta, expect):
        assert codes(validate_instance(make_2x2_instance(delta=delta))) == expect

    def test_duplicate_link(self):
        inst = make_2x2_instance()
        links = (*inst.cluster.links, LinkSpec(0, 1, 64.0))
        inst = make_2x2_instance(cluster=ClusterSpec(inst.cluster.servers, links))
        assert codes(validate_instance(inst)) == ["DuplicateLink"]

    def test_every_repeat_is_reported_in_declaration_order(self):
        """Each declaration after a pair's first is one DuplicateLink, in the
        order of the links, beside that link's other violations."""
        links = (LinkSpec(1, 0, 32.0), LinkSpec(0, 1, 32.0), LinkSpec(0, 1, 64.0),
                 LinkSpec(1, 0, -1.0), LinkSpec(1, 1, 8.0), LinkSpec(0, 1, 8.0),
                 LinkSpec(1, 1, 8.0))
        inst = make_2x2_instance()
        inst = make_2x2_instance(cluster=ClusterSpec(inst.cluster.servers, links))
        assert list(map(str, validate_instance(inst))) == [
            "DuplicateLink: link 0->1 is declared twice",
            "DuplicateLink: link 1->0 is declared twice",
            "LinkCapacityNonPositive: link 1->0 capacity -1.0",
            "SelfLink: link 1->1 is a self-loop",
            "DuplicateLink: link 0->1 is declared twice",
            "DuplicateLink: link 1->1 is declared twice",
            "SelfLink: link 1->1 is a self-loop"]

    def test_servers_out_of_id_order(self):
        inst = make_2x2_instance()
        servers = tuple(reversed(inst.cluster.servers))
        inst = make_2x2_instance(cluster=ClusterSpec(servers, inst.cluster.links))
        assert codes(validate_instance(inst)) == ["ServerIdsOutOfOrder"]


class TestLoadJson:
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_every_line_end_loads_alike(self, tmp_path, end):
        p = tmp_path / "doc.json"
        p.write_bytes(end.join(['{', '  "a": [1.5,', '    "é"]', '}']).encode())
        assert load_json(p) == {"a": [1.5, "é"]}

    @pytest.mark.parametrize("end, line", [("\n", 3), ("\r\n", 3), ("\r", 1)],
                             ids=["lf", "crlf", "cr"])
    def test_parse_error_line_counts_lf_only(self, tmp_path, end, line):
        p = tmp_path / "doc.json"
        p.write_bytes(end.join(['{', '  "a": 1,', '  "b": }']).encode())
        with pytest.raises(ParseError, match=f"invalid JSON at line {line}: "):
            load_json(p)


class TestWriteOutputs:
    """write_outputs writes a str as its UTF-8 bytes and any other
    bytes-like object as its raw bytes, whole, whatever the locale."""

    def test_buffers_are_written_as_their_raw_bytes(self, tmp_path):
        values = np.array([[1.5, -0.0], [np.pi, 3e38]], dtype=np.float32)
        raw = bytes(range(256)) * 3
        core.write_outputs((tmp_path / "a.bin", values),
                           (tmp_path / "b.bin", memoryview(raw)[5:-7]),
                           (tmp_path / "c.bin", b""))
        assert (tmp_path / "a.bin").read_bytes() == values.tobytes()
        assert (tmp_path / "b.bin").read_bytes() == raw[5:-7]
        assert (tmp_path / "c.bin").read_bytes() == b""

    def test_str_is_its_utf8_bytes_in_any_locale(self, tmp_path):
        # under the C locale with UTF-8 mode off, a text-mode file would be
        # ASCII and refuse the "é"
        text = "a\né\r\n\tz\n"
        script = ("import sys\nfrom edgeplan.core import write_outputs\n"
                  f"write_outputs((sys.argv[1], {text!a}))\n")
        env = dict(os.environ, LC_ALL="C", PYTHONUTF8="0", PYTHONCOERCECLOCALE="0",
                   PYTHONPATH=os.path.dirname(os.path.dirname(core.__file__)))
        subprocess.run([sys.executable, "-c", script, str(tmp_path / "out.txt")],
                       env=env, check=True)
        assert (tmp_path / "out.txt").read_bytes() == text.encode("utf-8")

    def test_short_writes_are_continued(self, tmp_path, monkeypatch):
        class Short:
            """A file object whose write takes at most 7 bytes."""

            def __init__(self, path, mode, buffering=-1):
                self.f = open(path, mode, buffering=buffering)

            def write(self, b):
                return self.f.write(b[:7])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(core, "open", Short, raising=False)
        data = bytes(range(100))
        core.write_outputs((tmp_path / "a.bin", data), (tmp_path / "b.txt", "x" * 30))
        assert (tmp_path / "a.bin").read_bytes() == data
        assert (tmp_path / "b.txt").read_bytes() == b"x" * 30

    def test_failed_write_removes_what_the_call_wrote(self, tmp_path):
        first = tmp_path / "first.json"
        with pytest.raises(OSError, match="nodir"):
            core.write_outputs((first, "{}\n"), (tmp_path / "nodir" / "x.json", "{}\n"))
        assert not first.exists()

    def test_memory_error_removes_what_the_call_wrote(self, tmp_path, monkeypatch):
        class Exhausted:
            """A file object whose second file's write runs out of memory."""
            opened = []

            def __init__(self, path, mode, buffering=-1):
                self.f = open(path, mode, buffering=buffering)
                self.opened.append(path)

            def write(self, b):
                if len(self.opened) > 1:
                    raise MemoryError
                return self.f.write(b)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

        monkeypatch.setattr(core, "open", Exhausted, raising=False)
        with pytest.raises(MemoryError):
            core.write_outputs((tmp_path / "a.csv", "a\n"), (tmp_path / "b.json", "{}\n"))
        assert list(tmp_path.iterdir()) == []


class TestLoadInstance:
    def test_servers_sorted_by_id(self, tmp_path):
        doc = json.loads(Path(data_path("cluster_m4.json")).read_text())
        doc["servers"].reverse()
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps(doc))
        inst = load_instance(p, data_path("model_l3.json"),
                             bit_menu=(4, 8), delta=math.inf, tokens=4)
        ordered = load_instance(data_path("cluster_m4.json"),
                                data_path("model_l3.json"),
                                bit_menu=(4, 8), delta=math.inf, tokens=4)
        assert [s.id for s in inst.cluster.servers] == [0, 1, 2, 3]
        assert inst == ordered

    def test_fixture_counts(self):
        inst = load_instance(data_path("cluster_m4.json"),
                             data_path("model_l3.json"),
                             bit_menu=(4, 8), delta=math.inf, tokens=4)
        assert inst.cluster.num_servers == 4
        assert inst.model.num_layers == 3
        assert inst.feasible_bits == ((4, 8),) * 3

    def test_only_none_means_not_narrowed(self):
        paths = data_path("cluster_2x2.json"), data_path("model_2x2.json")
        kwargs = dict(bit_menu=(4, 8), delta=math.inf, tokens=1)
        assert load_instance(*paths, **kwargs).feasible_bits == ((4, 8), (4, 8))
        # an explicit sequence is taken as given, so an empty one does not
        # widen the two layers to the full menu
        with pytest.raises(ValidationError) as exc:
            load_instance(*paths, **kwargs, feasible_bits=[])
        assert codes(exc.value.violations) == ["FeasibleBitsLengthMismatch"]
        assert codes(validate_instance(make_2x2_instance(feasible_bits=()))) == \
            ["FeasibleBitsLengthMismatch"]

    def test_missing_layers_key(self, tmp_path):
        p = tmp_path / "model.json"
        p.write_text(json.dumps({"batch_size": 1, "embedding_size": 4}))
        with pytest.raises(ParseError, match="layers"):
            load_instance(data_path("cluster_2x2.json"), p,
                          bit_menu=(8,), delta=0.0, tokens=1)

    def test_negative_storage_rejected(self, tmp_path):
        p = tmp_path / "cluster.json"
        p.write_text(json.dumps({
            "servers": [{"id": 0, "ccs_flops": 1.0, "storage_bytes": -5.0}],
            "links": []}))
        with pytest.raises(ValidationError) as exc:
            load_instance(p, data_path("model_2x2.json"),
                          bit_menu=(8,), delta=0.0, tokens=1)
        assert any(v.code == "NegativeStorage" for v in exc.value.violations)

    def test_malformed_json(self, tmp_path):
        p = tmp_path / "cluster.json"
        p.write_text("{not json")
        with pytest.raises(ParseError):
            load_instance(p, data_path("model_2x2.json"),
                          bit_menu=(8,), delta=0.0, tokens=1)


# -- link entries ------------------------------------------------------------

LINK = {"src": 0, "dst": 1, "capacity_bps": 32.0, "prop_delay_s": 0.0}

# (id, the second link entry, the ParseError text)
BAD_LINK_FIELDS = [
    ("not_an_object", "x", 'c.json.links[1]: must be an object, got "x"'),
    ("missing_src", {k: v for k, v in LINK.items() if k != "src"},
     "c.json.links[1]: missing key 'src'"),
    ("dst_boolean", dict(LINK, dst=True), "c.json.links[1].dst: must be an integer, got true"),
    ("capacity_string", dict(LINK, capacity_bps="fast"),
     'c.json.links[1].capacity_bps: must be a number, got "fast"'),
    ("capacity_beyond_float", dict(LINK, capacity_bps=10 ** 400),
     "c.json.links[1].capacity_bps: must be a number, got "
     "1000000000000000000000000000000000000..."),
    ("prop_delay_null", dict(LINK, prop_delay_s=None),
     "c.json.links[1].prop_delay_s: must be a number, got null"),
]


COLUMNS = {"src": [0, 1], "dst": [1, 0], "capacity_bps": [32.0, 8.0],
           "prop_delay_s": [0.0, 0.0]}

# (id, the links of a column-layout document, the ParseError text)
BAD_LINK_COLUMNS = [
    ("not_an_object_or_array", "x", 'c.json.links: must be an array or an object, got "x"'),
    ("empty", {}, "c.json.links: missing key 'src'"),
    ("missing_capacity", {k: v for k, v in COLUMNS.items() if k != "capacity_bps"},
     "c.json.links: missing key 'capacity_bps'"),
    ("column_not_an_array", dict(COLUMNS, dst=1), "c.json.links.dst: must be an array, got 1"),
    ("delay_column_null", dict(COLUMNS, prop_delay_s=None),
     "c.json.links.prop_delay_s: must be an array, got null"),
    ("unequal_lengths", dict(COLUMNS, capacity_bps=[32.0]),
     "c.json.links.capacity_bps: must have as many entries as src (2), got 1"),
    ("src_null", dict(COLUMNS, src=[0, None]),
     "c.json.links.src[1]: must be an integer, got null"),
    ("src_float", dict(COLUMNS, src=[1.0, 1]), "c.json.links.src[0]: must be an integer, got 1.0"),
    ("dst_boolean", dict(COLUMNS, dst=[1, True]),
     "c.json.links.dst[1]: must be an integer, got true"),
    ("capacity_string", dict(COLUMNS, capacity_bps=[32.0, "fast"]),
     'c.json.links.capacity_bps[1]: must be a number, got "fast"'),
    ("capacity_beyond_float", dict(COLUMNS, capacity_bps=[10 ** 400, 8.0]),
     "c.json.links.capacity_bps[0]: must be a number, got "
     "1000000000000000000000000000000000000..."),
]


def cluster_doc(*links):
    return {"servers": [{"id": 0, "ccs_flops": 1.0, "storage_bytes": 1.0},
                        {"id": 1, "ccs_flops": 1.0, "storage_bytes": 1.0}],
            "links": list(links)}


class TestLinkFields:
    @pytest.mark.parametrize("entry, message", [case[1:] for case in BAD_LINK_FIELDS],
                             ids=[case[0] for case in BAD_LINK_FIELDS])
    def test_refusal_text(self, entry, message):
        with pytest.raises(ParseError) as exc:
            parse_cluster(cluster_doc(LINK, entry), "c.json")
        assert str(exc.value) == message

    def test_integers_and_a_missing_delay_read_as_floats(self):
        links = parse_cluster(cluster_doc(
            dict(LINK, capacity_bps=5, prop_delay_s=0),
            {"src": 1, "dst": 0, "capacity_bps": 2.0})).links
        assert list(links) == [LinkSpec(0, 1, 5.0, 0.0), LinkSpec(1, 0, 2.0, 0.0)]
        assert all(type(x) is float for lk in links
                   for x in (lk.capacity_bps, lk.propagation_delay))

    def test_clean_document_is_read_as_columns(self, monkeypatch):
        """Every link field of a generated cluster has exactly its JSON
        type, so in the writer's layout no link is read as a record and no
        link column entry by entry: the only read_fields or read_typed
        calls with a links path are the four array checks. The object
        layout, read record by record, parses to an equal cluster."""
        cluster = generate_instance(1, 48, 8).cluster
        doc = cluster_to_doc(cluster)
        assert len(doc["links"]["src"]) == 2256
        paths = []
        for name in ("read_fields", "read_typed"):
            monkeypatch.setattr(core, name, lambda *a, f=getattr(core, name):
                                paths.append(a[2:]) or f(*a))
        assert parse_cluster(doc, "c.json") == cluster
        assert [p for p in paths if "links" in p] == [
            ("c.json", "links", key) for key in ("src", "dst", "capacity_bps", "prop_delay_s")]
        assert parse_cluster(object_layout(doc), "c.json") == cluster

    @pytest.mark.parametrize("links, message", [case[1:] for case in BAD_LINK_COLUMNS],
                             ids=[case[0] for case in BAD_LINK_COLUMNS])
    def test_column_refusal_text(self, links, message):
        with pytest.raises(ParseError) as exc:
            parse_cluster({"servers": [], "links": links}, "c.json")
        assert str(exc.value) == message

    def test_missing_links_key_is_named(self):
        """links is required: a cluster without it is refused by its own
        name, not as an empty table missing its first column."""
        with pytest.raises(ParseError) as exc:
            parse_cluster({"servers": []}, "c.json")
        assert str(exc.value) == "c.json: missing key 'links'"

    def test_column_layout_defaults_and_unknown_keys(self):
        """A missing prop_delay_s column reads as 0.0 for every link, an
        integer capacity as a float, and a key outside the four is
        ignored, as in a link object."""
        links = parse_cluster({"servers": cluster_doc()["servers"], "links": {
            "src": [0, 1], "dst": [1, 0], "capacity_bps": [5, 2.0], "note": "x"}}).links
        assert list(links) == [LinkSpec(0, 1, 5.0, 0.0), LinkSpec(1, 0, 2.0, 0.0)]
        assert all(type(x) is float for lk in links
                   for x in (lk.capacity_bps, lk.propagation_delay))


SERVER = {"id": 1, "ccs_flops": 1.0, "storage_bytes": 1.0}

# (id, the second server entry, the ParseError text)
BAD_SERVER_FIELDS = [
    ("not_an_object", ["x"], 'c.json.servers[1]: must be an object, got ["x"]'),
    ("missing_id", {k: v for k, v in SERVER.items() if k != "id"},
     "c.json.servers[1]: missing key 'id'"),
    ("id_boolean", dict(SERVER, id=True), "c.json.servers[1].id: must be an integer, got true"),
    ("id_float", dict(SERVER, id=1.0), "c.json.servers[1].id: must be an integer, got 1.0"),
    ("ccs_beyond_float", dict(SERVER, ccs_flops=10 ** 400),
     "c.json.servers[1].ccs_flops: must be a number, got "
     "1000000000000000000000000000000000000..."),
    ("storage_null", dict(SERVER, storage_bytes=None),
     "c.json.servers[1].storage_bytes: must be a number, got null"),
]


class TestServerFields:
    @pytest.mark.parametrize("entry, message", [case[1:] for case in BAD_SERVER_FIELDS],
                             ids=[case[0] for case in BAD_SERVER_FIELDS])
    def test_refusal_text(self, entry, message):
        doc = cluster_doc()
        doc["servers"][1] = entry
        with pytest.raises(ParseError) as exc:
            parse_cluster(doc, "c.json")
        assert str(exc.value) == message

    def test_integers_read_as_floats_and_servers_sort_by_id(self):
        doc = cluster_doc()
        doc["servers"] = [dict(SERVER, ccs_flops=5, storage_bytes=0),
                          {"id": 0, "ccs_flops": 2.0, "storage_bytes": 3.0}]
        servers = parse_cluster(doc).servers
        assert servers == (ServerSpec(0, 2.0, 3.0), ServerSpec(1, 5.0, 0.0))
        assert all(type(x) is float for s in servers
                   for x in (s.compute_throughput, s.storage_capacity))


def scan_link(cluster, src, dst):
    """The reference lookup: the link declared src -> dst, by a scan of the
    cluster's links (a valid cluster declares each pair once)."""
    for lk in cluster.links:
        if lk.src == src and lk.dst == dst:
            return lk
    return None


class TestClusterLink:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_a_scan_on_generated_clusters(self, seed):
        """Ids -1 and M find no link: a numpy index would wrap -1 to M - 1."""
        cluster = generate_instance(seed, 9, 3, link_density=0.5).cluster
        pairs = [(i, j) for i in range(-1, 10) for j in range(-1, 10)]
        assert [cluster.link(i, j) for i, j in pairs] == \
            [scan_link(cluster, i, j) for i, j in pairs]
        assert sum(cluster.link(i, j) is None for i, j in pairs) > 9 * 9 // 4
        assert all(type(x) is float for lk in map(cluster.link, *zip(*pairs))
                   if lk is not None for x in (lk.capacity_bps, lk.propagation_delay))

    @pytest.mark.parametrize("seed, density", [(0, 0.2), (1, 0.3), (2, 0.5), (3, 1.0)])
    def test_view_matches_a_scan_at_every_pair(self, seed, density):
        """capacity is inf and delay 0 exactly where the scan finds no link,
        the diagonal among them; elsewhere both are the declared values. The
        generated links, reversed, get distinct delays."""
        generated = generate_instance(seed, 11, 3, link_density=density).cluster
        cluster = ClusterSpec(generated.servers, [
            dataclasses.replace(lk, propagation_delay=k / 64)
            for k, lk in enumerate(reversed(tuple(generated.links)))])
        capacity, delay = cluster.link_view
        assert capacity.shape == delay.shape == (11, 11)
        for i in range(11):
            for j in range(11):
                lk = scan_link(cluster, i, j)
                assert (capacity[i, j], delay[i, j]) == (
                    (math.inf, 0.0) if lk is None else (lk.capacity_bps, lk.propagation_delay))

    def test_view_is_built_once_and_read_only(self):
        cluster = generate_instance(1, 6, 3, link_density=0.5).cluster
        capacity, delay = cluster.link_view
        assert cluster.link_view[0] is capacity and cluster.link_view[1] is delay
        with pytest.raises(ValueError):
            capacity[0, 1] = 1.0
        with pytest.raises(ValueError):
            delay[0, 1] = 1.0


# -- link validation against the oracle ----------------------------------------

LINK_CODES = ("NonFiniteValue", "DuplicateLink", "LinkCapacityNonPositive", "SelfLink",
              "UnknownServerInLink", "NegativePropagationDelay")


def faulty_cluster(seed):
    """A cluster of 0 to 7 servers, its ids at times not 0..M-1 or not in
    order, with 0 to 4 faults injected into its links: a bad capacity or
    delay, a self-link, an id outside 0..M-1 or beyond intp, a pair
    declared two or three times."""
    rng = random.Random(seed)
    m = rng.randint(0, 7)
    ids = list(range(m))
    if m and rng.random() < 0.15:
        ids[rng.randrange(m)] = m + rng.randint(0, 2)
    if rng.random() < 0.15:
        rng.shuffle(ids)
    servers = tuple(ServerSpec(i, 1e9, 1e9) for i in ids)
    density = rng.choice((0.0, 0.4, 1.0))
    links = [LinkSpec(i, j, rng.uniform(1.0, 1e9), rng.choice((0.0, 1e-3)))
             for i in range(m) for j in range(m) if i != j and rng.random() < density]

    def some_link():
        if not links:
            links.append(LinkSpec(rng.randint(0, 3), rng.randint(0, 3), 8.0))
        return rng.randrange(len(links))

    for _ in range(rng.choice((0, 0, 1, 2, 4))):
        fault = rng.randrange(5)
        if fault == 0:
            k = some_link()
            links[k] = dataclasses.replace(links[k], capacity_bps=rng.choice(
                (math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0)))
        elif fault == 1:
            k = some_link()
            links[k] = dataclasses.replace(links[k], propagation_delay=rng.choice(
                (-1.0, -1e-300, math.inf)))
        elif fault == 2:
            i = rng.choice(ids or [0])
            links.insert(rng.randint(0, len(links)), LinkSpec(i, i, 8.0))
        elif fault == 3:
            k = some_link()
            bad = rng.choice((-1, m, 2 ** 63 - 1, 2 ** 63, 2 ** 70))
            links[k] = dataclasses.replace(links[k], **{rng.choice(("src", "dst")): bad})
        else:
            k = some_link()
            for _ in range(rng.choice((1, 2))):
                copy = dataclasses.replace(links[k], capacity_bps=rng.choice(
                    (links[k].capacity_bps, 16.0)))
                links.insert(rng.randint(k + 1, len(links)), copy)
    return ClusterSpec(servers, links)


class TestLinkValidationOracle:
    def test_same_violations_as_the_oracle(self):
        """On 400 faulty clusters, validate_instance reports the server
        violations, then exactly the oracle's link violations: codes,
        texts and order. The suite reaches every link rule often, ids
        beyond intp and clean clusters too."""
        codes_seen, clean, beyond_intp = {code: 0 for code in LINK_CODES}, 0, 0
        for seed in range(400):
            cluster = faulty_cluster(seed)
            servers_only = validate_instance(
                make_2x2_instance(cluster=ClusterSpec(cluster.servers, ())))
            expect = servers_only + link_violations(cluster)
            assert validate_instance(make_2x2_instance(cluster=cluster)) == expect, seed
            for v in expect[len(servers_only):]:
                codes_seen[v.code] += 1
            clean += expect == []
            beyond_intp += cluster.links.src.dtype == object or cluster.links.dst.dtype == object
        assert min(codes_seen.values()) >= 25, codes_seen
        assert clean >= 100 and beyond_intp >= 10

    def test_ids_at_the_intp_limits(self):
        """2**63 - 1 fits intp and 2**63 does not; both, and 2**70, are
        unknown servers, named as given."""
        cluster = ClusterSpec(make_2x2_instance().cluster.servers, (
            LinkSpec(0, 2 ** 63 - 1, 8.0), LinkSpec(2 ** 70, 1, 8.0), LinkSpec(2 ** 63, 0, 8.0),
            LinkSpec(2 ** 70, 1, 8.0)))
        assert list(map(str, validate_instance(make_2x2_instance(cluster=cluster)))) == [
            f"UnknownServerInLink: link 0->{2 ** 63 - 1} references unknown server",
            f"UnknownServerInLink: link {2 ** 70}->1 references unknown server",
            f"UnknownServerInLink: link {2 ** 63}->0 references unknown server",
            f"DuplicateLink: link {2 ** 70}->1 is declared twice",
            f"UnknownServerInLink: link {2 ** 70}->1 references unknown server"]
        assert cluster.links.src.dtype == object and cluster.links.dst.dtype == np.intp

    @pytest.mark.parametrize("beyond_intp", [False, True], ids=["intp", "object"])
    def test_unknown_and_known_ids_mixed(self, beyond_intp):
        """An unknown id, that pair declared again, a repeat of a known
        pair and a negative id: the same texts in the same order, whether
        only the links with an unknown id are read as Python values or,
        with an id of 2**70 in the column, every link is."""
        links = [LinkSpec(0, 1, 32.0), LinkSpec(600, 0, 8.0), LinkSpec(1, 0, 32.0),
                 LinkSpec(0, 1, 16.0), LinkSpec(600, 0, 8.0), LinkSpec(-1, 1, 8.0)]
        expect = ["UnknownServerInLink: link 600->0 references unknown server",
                  "DuplicateLink: link 0->1 is declared twice",
                  "DuplicateLink: link 600->0 is declared twice",
                  "UnknownServerInLink: link 600->0 references unknown server",
                  "UnknownServerInLink: link -1->1 references unknown server"]
        if beyond_intp:
            links.append(LinkSpec(2 ** 70, 0, 8.0))
            expect.append(f"UnknownServerInLink: link {2 ** 70}->0 references unknown server")
        cluster = ClusterSpec(make_2x2_instance().cluster.servers, links)
        assert (cluster.links.src.dtype == object) == beyond_intp
        violations = validate_instance(make_2x2_instance(cluster=cluster))
        assert list(map(str, violations)) == expect
        assert violations == link_violations(cluster)


class TestLinkColumns:
    def test_iteration_yields_python_scalars(self):
        for links in (generate_instance(1, 5, 2, link_density=0.5).cluster.links,
                      parse_cluster(cluster_doc(LINK, dict(LINK, src=1, dst=0))).links,
                      faulty_cluster(3).links,
                      ClusterSpec((), (LinkSpec(2 ** 70, 0, 1.0),)).links):
            assert [tuple(map(type, dataclasses.astuple(lk))) for lk in links] == \
                [(int, int, float, float)] * len(links)

    def test_two_loads_are_equal_and_hash_alike(self):
        doc = load_json(data_path("cluster_m4.json"))
        first, second = parse_cluster(doc), parse_cluster(load_json(data_path("cluster_m4.json")))
        assert first == second and hash(first) == hash(second)
        assert first.links.capacity_bps is not second.links.capacity_bps
        doc["links"][2]["capacity_bps"] *= 2
        assert parse_cluster(doc) != first
        # -0.0 equals 0.0, so it must hash alike
        zero, minus_zero = (ClusterSpec(first.servers, [LinkSpec(0, 1, 8.0, d)])
                            for d in (0.0, -0.0))
        assert zero == minus_zero and hash(zero) == hash(minus_zero)

    @pytest.mark.parametrize("links", [
        [LinkSpec(0, 1, 8.0), LinkSpec(1, 0, 9.0)],
        [LinkSpec(0, 1, 8.0, -0.0), LinkSpec(1, 0, 9.0)],
        [LinkSpec(0, 1, 8.0, -0.0), LinkSpec(1, 0, 9.0, -0.0)],
        [LinkSpec(-3, 2 ** 62, 8.0, 1e-3), LinkSpec(5, -1, 9.0)],
        [LinkSpec(2 ** 70, 0, 8.0), LinkSpec(0, 2 ** 63, -0.0, math.nan)],
        []], ids=["zeros", "one_minus_zero", "minus_zeros", "wide_ids", "beyond_intp", "none"])
    def test_document_holds_the_iterated_values(self, links):
        """The writer's link columns hold the values iteration yields,
        -0.0 kept apart from 0.0, whichever way it turns a column into
        Python values, and each layout of them parses back to the same
        columns."""
        cluster = ClusterSpec((), links)
        doc = cluster_to_doc(cluster)
        assert json.dumps(doc["links"], sort_keys=True) == json.dumps(
            {"src": [lk.src for lk in links], "dst": [lk.dst for lk in links],
             "capacity_bps": [lk.capacity_bps for lk in links],
             "prop_delay_s": [lk.propagation_delay for lk in links]}, sort_keys=True)
        # json.dumps, not json_text: one case holds a NaN
        text = json.dumps(doc)
        for layout in (json.loads(text), object_layout(json.loads(text))):
            assert json.dumps([c.tolist() for c in parse_cluster(layout).links.columns()]) == \
                json.dumps([c.tolist() for c in cluster.links.columns()])

    @pytest.mark.parametrize("density", [1.0, 0.6, 0.0])
    def test_generated_cluster_parses_alike_in_both_layouts(self, density):
        cluster = generate_instance(3, 12, 4, link_density=density).cluster
        text = json_text(cluster_to_doc(cluster))
        columns = parse_cluster(json.loads(text))
        objects = parse_cluster(object_layout(json.loads(text)))
        assert columns == objects == cluster
        assert [c.dtype for c in columns.links.columns()] == \
            [c.dtype for c in objects.links.columns()]

    def test_column_layout_parses_in_less_memory(self, tmp_path):
        """Parsing a generated 128-server cluster (16,256 links) from the
        column layout peaks below 0.6 of the object layout's peak: four
        arrays, not one JSON object per link."""
        doc = cluster_to_doc(generate_instance(1, 128, 4).cluster)
        peaks = []
        for name, layout in (("columns.json", doc), ("objects.json", object_layout(doc))):
            (tmp_path / name).write_text(json_text(layout))
            tracemalloc.start()
            try:
                parse_cluster(load_json(tmp_path / name))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.6 * peaks[1], peaks

    def test_equality_with_another_type_is_left_to_it(self):
        """A LinkRecord equals no other type, not even a tuple of the same
        LinkSpecs: its __eq__ returns NotImplemented and Python's fallback
        compares identity."""
        links = ClusterSpec((), (LinkSpec(0, 1, 1.0),)).links
        assert links.__eq__(tuple(links)) is NotImplemented
        assert links != tuple(links) and links != list(links)
        assert (links == 0) is False

    def test_columns_refuse_writes(self):
        for links in (generate_instance(1, 5, 2).cluster.links,
                      parse_cluster(load_json(data_path("cluster_m4.json"))).links,
                      ClusterSpec((), (LinkSpec(0, 1, 1.0),)).links):
            assert [c.dtype for c in links.columns()] == [np.intp, np.intp] + [np.float64] * 2
            for column in links.columns():
                with pytest.raises(ValueError):
                    column[0] = 1


# sha256 of the files save_instance writes for
# generate_instance(seed, 12, 5, "heterogeneous", link_density=0.6): the
# cluster, the cluster with its links rewritten as objects (the bytes the
# writer wrote before it wrote columns), the model
GENERATED_SHA256 = {
    1: ("5529a68fc6fb8cd9ffd3d532549e88e9bf6775fe463590aacdb15c5e58b1fd0c",
        "3661d00251457602bcac1b4a7c36d21486e07016509fa7eba19667b33b1a0869",
        "7514a60bf2bddef7f22d45e61f9af02e3e37c8e7666bef8c7e9eb5e528ca9cf5"),
    2: ("ce50e8a7c00916c4bdf1196338f06f82802f89a7ecf086a67af4937dabac985e",
        "5c41e7c628c5da58a33573cbb1453b1ba2163179a5518351bb1ae73ccac84123",
        "420cf784d8b7f8f92eb453089f896324d5c83557b8dcbd1f48a5151738fe48cc"),
}


@pytest.mark.parametrize("seed", sorted(GENERATED_SHA256))
def test_generated_files_are_pinned(tmp_path, seed):
    inst = generate_instance(seed, 12, 5, profile="heterogeneous", link_density=0.6)
    save_instance(inst, tmp_path / "cluster.json", tmp_path / "model.json")
    cluster, model = ((tmp_path / name).read_bytes() for name in ("cluster.json", "model.json"))
    objects = json_text(object_layout(json.loads(cluster))).encode()
    got = tuple(hashlib.sha256(data).hexdigest() for data in (cluster, objects, model))
    assert got == GENERATED_SHA256[seed]


def loop_cluster(rng, m, profile):
    """generate_cluster at full link density, drawn link by link: the
    reference of its array path, which must draw the same numbers."""
    servers = []
    for i in range(m):
        if profile == "uniform":
            ccs = rng.uniform(0.8e9, 1.2e9)
        else:
            ccs = 0.5e9 if i == 0 else 4.0e9 if i == 1 else rng.uniform(0.5e9, 4.0e9)
        servers.append(ServerSpec(i, ccs, rng.uniform(0.5e9, 4e9)))
    return ClusterSpec(tuple(servers), [LinkSpec(i, j, rng.uniform(1e7, 1e9), 0.0)
                                        for i in range(m) for j in range(m) if i != j])


@pytest.mark.parametrize("profile", PROFILES)
def test_full_clusters_draw_link_by_link(profile):
    for m in (0, 1, 2, 9):
        rng, reference = random.Random(m), random.Random(m)
        assert generate_cluster(rng, m, profile) == loop_cluster(reference, m, profile)
        assert rng.random() == reference.random()


# -- json_text against the stdlib's indented encoder --------------------------

def stdlib_text(doc) -> str:
    """The oracle: the json module's pure-Python indented encoder."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


# every character a separator rewrite could confuse, plus any other
json_strings = st.text(st.sampled_from(list('\n{}[],:"\\ éa\U0001F600')) | st.characters(),
                       max_size=6)
json_scalars = (st.booleans() | st.none() | st.integers(-2 ** 80, 2 ** 80)
                | st.sampled_from([-0.0, 5e-324, 1e308, 0.1])
                | st.floats(allow_nan=False, allow_infinity=False) | json_strings)
# json writes a number, bool or None key as its JSON text, quoted; the
# keys of one dict must sort, so they are all strings, all numbers or None
other_keys = (st.integers(-3, 3) | st.booleans() | st.floats(allow_nan=False,
                                                             allow_infinity=False))
string_dicts = st.dictionaries(json_strings, json_scalars, max_size=4)
flat_dicts = string_dicts | st.dictionaries(other_keys, json_scalars, max_size=3)
flat_lists = st.lists(json_scalars, max_size=4)
# lists of records, empty ones and records with different key sets among
# them, and lists that mix dicts and lists
records = (st.lists(flat_dicts, max_size=4) | st.lists(flat_lists, max_size=4)
           | st.lists(flat_lists.map(tuple) | flat_lists, max_size=4)
           | st.lists(flat_dicts | flat_lists, max_size=4))


def documents(depth: int):
    if depth == 0:
        return json_scalars | flat_dicts | flat_lists | records
    inner = documents(depth - 1)
    return (json_scalars | records | st.lists(inner, max_size=4)
            | st.lists(inner, max_size=3).map(tuple)
            | st.dictionaries(json_strings, inner, max_size=4)
            | st.dictionaries(other_keys, inner, max_size=3)
            | st.dictionaries(st.none(), inner, max_size=1))


@given(documents(4))
@settings(max_examples=400, deadline=None)
def test_json_text_is_the_stdlib_text(doc):
    assert json_text(doc) == stdlib_text(doc)


@given(st.sampled_from([math.nan, math.inf, -math.inf]),
       st.lists(st.tuples(st.sampled_from(["list", "dict", "records"]), string_dicts),
                max_size=4))
@settings(max_examples=100, deadline=None)
def test_json_text_refuses_non_finite_at_every_depth(bad, wrappers):
    doc = bad
    for kind, sibling in wrappers:
        doc = {"list": [doc], "dict": {**sibling, "~": doc},
               "records": [sibling, {**sibling, "~": doc}]}[kind]
    for encode in (json_text, stdlib_text):
        with pytest.raises(ValueError):
            encode(doc)


def test_save_instance_writes_the_stdlib_text_at_benchmark_scale(tmp_path):
    inst = generate_instance(1, 48, 5, (4, 8, 16), "heterogeneous")
    assert len(inst.cluster.links) == 48 * 47
    layers = tuple(dataclasses.replace(l, weights_ref=f"layer{k}")
                   for k, l in enumerate(inst.model.layers))
    inst = dataclasses.replace(inst, model=dataclasses.replace(inst.model, layers=layers))
    save_instance(inst, tmp_path / "cluster.json", tmp_path / "model.json")
    assert (tmp_path / "cluster.json").read_bytes() == \
        stdlib_text(cluster_to_doc(inst.cluster)).encode()
    assert (tmp_path / "model.json").read_bytes() == \
        stdlib_text(model_to_doc(inst.model)).encode()


# -- save/load round trip ---------------------------------------------------

servers_st = st.lists(
    st.tuples(st.floats(1.0, 1e12), st.floats(0.0, 1e12)),
    min_size=1, max_size=5,
).map(lambda rows: tuple(
    ServerSpec(i, ccs, cap) for i, (ccs, cap) in enumerate(rows)))


@st.composite
def instances(draw):
    servers = draw(servers_st)
    m = len(servers)
    links = []
    for src in range(m):
        for dst in range(m):
            if src != dst and draw(st.booleans()):
                links.append(LinkSpec(src, dst, draw(st.floats(1.0, 1e10)),
                                      draw(st.floats(0.0, 1.0))))
    n_layers = draw(st.integers(1, 4))
    layers = tuple(
        LayerProfile(draw(st.floats(0.0, 1e9)),
                     draw(st.integers(0, 10**7)),
                     draw(st.floats(0.0, 1e6)),
                     draw(st.sampled_from([8, 16, 32, 64])))
        for _ in range(n_layers))
    return ProblemInstance(
        cluster=ClusterSpec(servers=servers, links=tuple(links)),
        model=ModelProfile(layers=layers, batch_size=draw(st.integers(1, 8)),
                           embedding_size=draw(st.integers(1, 1024))),
        bit_menu=tuple(draw(st.sets(st.integers(2, 16), min_size=1, max_size=3))),
        delta=draw(st.floats(0.0, 10.0)),
        tokens=draw(st.integers(0, 32)),
    )


@given(instances())
@settings(max_examples=50, deadline=None)
def test_save_load_round_trip(tmp_path_factory, inst):
    tmp = tmp_path_factory.mktemp("rt")
    save_instance(inst, tmp / "c.json", tmp / "m.json")
    back = load_instance(tmp / "c.json", tmp / "m.json",
                         bit_menu=inst.bit_menu, delta=inst.delta,
                         tokens=inst.tokens, feasible_bits=inst.feasible_bits)
    assert back == inst
