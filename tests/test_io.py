"""Document parsing strictness and trace round-trips."""

from __future__ import annotations

import json
import math
import re
import sys
import tracemalloc
from types import SimpleNamespace
from typing import Iterator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcnsim import (
    Engine,
    EventKind,
    ParseError,
    RunConfig,
    SamplingMode,
    SimEvent,
    ValidationFailed,
    parse_network,
    parse_trace,
    serialize_trace,
)
from fcnsim.cli import main
from fcnsim.io import (
    ENTROPY_COLUMNS,
    iter_trace,
    read_trace,
    _FLOAT_TEXTS,
    _KEY_TEXTS,
    serialize_event,
    write_events,
    write_trace,
)
from helpers import chain_network, random_run, reference_record_to_event


_ABSORPTION = {"id": 1, "kind": "absorption", "node": 1, "engine_time": 0.5, "parents": [0]}
_TICK = {
    "id": 2, "kind": "clock_tick", "node": 3, "engine_time": 1.0, "parents": [],
    "pulse_id": 0, "counter": 0,
}
_DECAY = {
    "id": 3, "kind": "decay", "node": 1, "engine_time": 1.5, "parents": [1],
    "ds_internal": -1.0, "ds_signal": 2.0, "ds_vacuum": 0.0, "total": 1.0,
    "production_rate": 0.5, "lifetime_s": 2.0,
}


# The event with id 0 that _ABSORPTION names as its parent.
_ROOT = {"id": 0, "kind": "external_excitation", "node": 1, "engine_time": 0.0, "parents": []}


def _lines(*records) -> str:
    return "".join(json.dumps(r) + "\n" for r in records)


def _without(record: dict, *names: str) -> dict:
    return {k: v for k, v in record.items() if k not in names}


def chain_doc() -> dict:
    return {
        "schema_version": "1",
        "nodes": [
            {"id": 1, "ground_ev": 0.0, "excited_ev": 1.5, "gamma_ev": 6.582119569e-16},
            {"id": 2, "ground_ev": 0.0, "excited_ev": 1.5, "gamma_ev": 3.2910597845e-16},
            {"id": 3, "ground_ev": 0.0, "excited_ev": 1.5},
        ],
        "arcs": [
            {"id": 1, "source": 1, "target": 2, "distance_m": 149896229.0},
            {"id": 2, "source": 2, "target": 3, "distance_m": 74948114.5},
        ],
        "standard_clocks": [{"id": 3, "period_s": 1.0}],
        "injections": [{"node": 1, "at_s": 0.0}],
    }


# A field value written into the document text as the literal itself.
def _raw(literal: str) -> str:
    return f"<raw {literal}>"


_DROP = object()  # the field is removed
_U64_MESSAGE = "must be an unsigned 64-bit integer"

# (section, index, edit, exact str(ParseError)). ``edit`` updates the
# ``index``-th entry of ``section`` in chain_doc() (the document itself for
# "document"); an edit that is not a dict replaces the entry whole.
_NETWORK_DEFECTS = [
    ("document", 0, [], "document: expected an object, got list"),
    ("document", 0, {"schema_version": _DROP}, "document: missing required field 'schema_version'"),
    ("document", 0, {"schema_version": 1}, "document: field 'schema_version' must be a string"),
    ("document", 0, {"schema_version": None}, "document: field 'schema_version' must be a string"),
    ("document", 0, {"schema_version": "2"}, "document: unrecognized schema_version '2'"),
    ("document", 0, {"nodes": None}, "document: field 'nodes' must be an array"),
    ("document", 0, {"arcs": {}}, "document: field 'arcs' must be an array"),
    ("document", 0, {"standard_clocks": "x"}, "document: field 'standard_clocks' must be an array"),
    ("document", 0, {"injections": True}, "document: field 'injections' must be an array"),
    ("document", 0, {"zeta": 1, "alpha": 2}, "document: unknown field(s): alpha, zeta"),
    ("document", 0, {"extra": 1, "injections": 5}, "document: field 'injections' must be an array"),
    ("document", 0, {"schema_version": 1, "nodes": None}, "document: field 'schema_version' must be a string"),
    ("document", 0, {"nodes": [{"id": 1, "ground_ev": 1.0, "excited_ev": 0.0}, {"id": "x"}]},
     f"nodes[1]: field 'id' {_U64_MESSAGE}"),
    ("document", 0, {"nodes": [], "arcs": [7]}, "arcs[0]: expected an object, got int"),
    ("nodes", 0, 5, "nodes[0]: expected an object, got int"),
    ("nodes", 1, None, "nodes[1]: expected an object, got NoneType"),
    ("nodes", 2, [1], "nodes[2]: expected an object, got list"),
    ("nodes", 0, {"id": _DROP}, "nodes[0]: missing required field 'id'"),
    ("nodes", 0, {"ground_ev": _DROP}, "nodes[0]: missing required field 'ground_ev'"),
    ("nodes", 0, {"excited_ev": _DROP}, "nodes[0]: missing required field 'excited_ev'"),
    ("nodes", 0, {"id": "one"}, f"nodes[0]: field 'id' {_U64_MESSAGE}"),
    ("nodes", 0, {"id": True}, f"nodes[0]: field 'id' {_U64_MESSAGE}"),
    ("nodes", 0, {"id": 1.0}, f"nodes[0]: field 'id' {_U64_MESSAGE}"),
    ("nodes", 0, {"id": None}, f"nodes[0]: field 'id' {_U64_MESSAGE}"),
    ("nodes", 0, {"id": -1}, f"nodes[0]: field 'id' {_U64_MESSAGE}"),
    ("nodes", 0, {"id": 2**64}, f"nodes[0]: field 'id' {_U64_MESSAGE}"),
    ("nodes", 0, {"id": _raw(str(10**400))}, f"nodes[0]: field 'id' {_U64_MESSAGE}"),
    ("nodes", 0, {"ground_ev": True}, "nodes[0]: field 'ground_ev' must be a number"),
    ("nodes", 0, {"ground_ev": "0"}, "nodes[0]: field 'ground_ev' must be a number"),
    ("nodes", 0, {"ground_ev": None}, "nodes[0]: field 'ground_ev' must be a number"),
    ("nodes", 0, {"excited_ev": [1.5]}, "nodes[0]: field 'excited_ev' must be a number"),
    ("nodes", 0, {"excited_ev": _raw(str(10**400))}, "nodes[0]: field 'excited_ev' is beyond the float range"),
    ("nodes", 0, {"excited_ev": _raw("1e999")}, "nodes[0]: field 'excited_ev' must be finite"),
    ("nodes", 0, {"ground_ev": _raw("-1e999")}, "nodes[0]: field 'ground_ev' must be finite"),
    ("nodes", 0, {"gamma_ev": None}, "nodes[0]: field 'gamma_ev' must be a number"),
    ("nodes", 0, {"gamma_ev": False}, "nodes[0]: field 'gamma_ev' must be a number"),
    ("nodes", 0, {"gamma_ev": _raw("1e999")}, "nodes[0]: field 'gamma_ev' must be finite"),
    ("nodes", 0, {"gamma_ev": _raw(str(-(10**400)))}, "nodes[0]: field 'gamma_ev' is beyond the float range"),
    ("nodes", 0, {"position_m": None}, "nodes[0]: field 'position_m' must be an array"),
    ("nodes", 0, {"position_m": "abc"}, "nodes[0]: field 'position_m' must be an array"),
    ("nodes", 0, {"position_m": [1, 2]}, "nodes[0]: field 'position_m' must be an array of three numbers"),
    ("nodes", 0, {"position_m": [1, 2, 3, 4]}, "nodes[0]: field 'position_m' must be an array of three numbers"),
    ("nodes", 0, {"position_m": [1, 2, True]}, "nodes[0]: field 'position_m' must be an array of three numbers"),
    ("nodes", 0, {"position_m": [1, None, 3]}, "nodes[0]: field 'position_m' must be an array of three numbers"),
    ("nodes", 0, {"position_m": ["1", 2, 3]}, "nodes[0]: field 'position_m' must be an array of three numbers"),
    ("nodes", 0, {"position_m": [1, 2, _raw(str(10**400))]},
     "nodes[0]: field 'position_m' is beyond the float range"),
    ("nodes", 0, {"resonance_tolerance_ev": None}, "nodes[0]: field 'resonance_tolerance_ev' must be a number"),
    ("nodes", 0, {"resonance_tolerance_ev": _raw("1e999")},
     "nodes[0]: field 'resonance_tolerance_ev' must be finite"),
    ("nodes", 0, {"can_emit": 1}, "nodes[0]: field 'can_emit' must be a boolean"),
    ("nodes", 0, {"can_emit": None}, "nodes[0]: field 'can_emit' must be a boolean"),
    ("nodes", 0, {"can_detect": "yes"}, "nodes[0]: field 'can_detect' must be a boolean"),
    ("nodes", 0, {"zeta": 1, "colour": "red", "mass": 2}, "nodes[0]: unknown field(s): colour, mass, zeta"),
    ("nodes", 0, {"colour": "red", "can_detect": "yes"}, "nodes[0]: field 'can_detect' must be a boolean"),
    ("nodes", 0, {"id": "x", "ground_ev": _DROP}, f"nodes[0]: field 'id' {_U64_MESSAGE}"),
    ("nodes", 0, {"ground_ev": "x", "excited_ev": _DROP}, "nodes[0]: field 'ground_ev' must be a number"),
    ("nodes", 0, {"gamma_ev": None, "position_m": None}, "nodes[0]: field 'gamma_ev' must be a number"),
    ("nodes", 0, {"position_m": None, "resonance_tolerance_ev": "x"},
     "nodes[0]: field 'position_m' must be an array"),
    ("nodes", 0, {"resonance_tolerance_ev": "x", "can_emit": 1},
     "nodes[0]: field 'resonance_tolerance_ev' must be a number"),
    ("nodes", 0, {"can_emit": 1, "can_detect": 1}, "nodes[0]: field 'can_emit' must be a boolean"),
    ("arcs", 0, [], "arcs[0]: expected an object, got list"),
    ("arcs", 1, "x", "arcs[1]: expected an object, got str"),
    ("arcs", 0, {"id": _DROP}, "arcs[0]: missing required field 'id'"),
    ("arcs", 1, {"source": _DROP}, "arcs[1]: missing required field 'source'"),
    ("arcs", 0, {"target": _DROP}, "arcs[0]: missing required field 'target'"),
    ("arcs", 0, {"distance_m": _DROP}, "arcs[0]: missing required field 'distance_m'"),
    ("arcs", 0, {"id": 2**64}, f"arcs[0]: field 'id' {_U64_MESSAGE}"),
    ("arcs", 0, {"source": False}, f"arcs[0]: field 'source' {_U64_MESSAGE}"),
    ("arcs", 0, {"target": -1}, f"arcs[0]: field 'target' {_U64_MESSAGE}"),
    ("arcs", 0, {"target": 2.0}, f"arcs[0]: field 'target' {_U64_MESSAGE}"),
    ("arcs", 0, {"distance_m": True}, "arcs[0]: field 'distance_m' must be a number"),
    ("arcs", 0, {"distance_m": None}, "arcs[0]: field 'distance_m' must be a number"),
    ("arcs", 0, {"distance_m": _raw(str(10**400))}, "arcs[0]: field 'distance_m' is beyond the float range"),
    ("arcs", 0, {"distance_m": _raw("1e999")}, "arcs[0]: field 'distance_m' must be finite"),
    ("arcs", 0, {"b": 1, "a": 2}, "arcs[0]: unknown field(s): a, b"),
    ("arcs", 0, {"b": 1, "distance_m": "far"}, "arcs[0]: field 'distance_m' must be a number"),
    ("arcs", 0, {"source": "x", "target": "y"}, f"arcs[0]: field 'source' {_U64_MESSAGE}"),
    ("standard_clocks", 0, "x", "standard_clocks[0]: expected an object, got str"),
    ("standard_clocks", 0, {"id": _DROP}, "standard_clocks[0]: missing required field 'id'"),
    ("standard_clocks", 0, {"period_s": _DROP}, "standard_clocks[0]: missing required field 'period_s'"),
    ("standard_clocks", 0, {"id": -1}, f"standard_clocks[0]: field 'id' {_U64_MESSAGE}"),
    ("standard_clocks", 0, {"period_s": "1"}, "standard_clocks[0]: field 'period_s' must be a number"),
    ("standard_clocks", 0, {"period_s": _raw("1e999")}, "standard_clocks[0]: field 'period_s' must be finite"),
    ("standard_clocks", 0, {"first_tick_s": None}, "standard_clocks[0]: field 'first_tick_s' must be a number"),
    ("standard_clocks", 0, {"first_tick_s": _raw(str(10**400))},
     "standard_clocks[0]: field 'first_tick_s' is beyond the float range"),
    ("standard_clocks", 0, {"first_tick_s": _raw("-1e999")},
     "standard_clocks[0]: field 'first_tick_s' must be finite"),
    ("standard_clocks", 0, {"counter_start": 1.5}, "standard_clocks[0]: field 'counter_start' must be an integer"),
    ("standard_clocks", 0, {"counter_start": True}, "standard_clocks[0]: field 'counter_start' must be an integer"),
    ("standard_clocks", 0, {"counter_start": None}, "standard_clocks[0]: field 'counter_start' must be an integer"),
    ("standard_clocks", 0, {"tick": 1, "phase": 2}, "standard_clocks[0]: unknown field(s): phase, tick"),
    ("standard_clocks", 0, {"tick": 1, "counter_start": "0"},
     "standard_clocks[0]: field 'counter_start' must be an integer"),
    ("standard_clocks", 0, {"period_s": "1", "counter_start": "0"},
     "standard_clocks[0]: field 'period_s' must be a number"),
    ("injections", 0, None, "injections[0]: expected an object, got NoneType"),
    ("injections", 0, {"node": _DROP}, "injections[0]: missing required field 'node'"),
    ("injections", 0, {"at_s": _DROP}, "injections[0]: missing required field 'at_s'"),
    ("injections", 0, {"node": True}, f"injections[0]: field 'node' {_U64_MESSAGE}"),
    ("injections", 0, {"node": 2**64}, f"injections[0]: field 'node' {_U64_MESSAGE}"),
    ("injections", 0, {"at_s": "0"}, "injections[0]: field 'at_s' must be a number"),
    ("injections", 0, {"at_s": None}, "injections[0]: field 'at_s' must be a number"),
    ("injections", 0, {"at_s": _raw(str(10**400))}, "injections[0]: field 'at_s' is beyond the float range"),
    ("injections", 0, {"at_s": _raw("-1e999")}, "injections[0]: field 'at_s' must be finite"),
    ("injections", 0, {"z": 1, "y": 2}, "injections[0]: unknown field(s): y, z"),
    ("injections", 0, {"z": 1, "at_s": False}, "injections[0]: field 'at_s' must be a number"),
    ("injections", 0, {"node": "n", "at_s": _DROP}, f"injections[0]: field 'node' {_U64_MESSAGE}"),
    # Later rows go here, so that the case ids above, which count rows, stay as they are.
    ("nodes", 0, {"position_m": [_raw("1e999"), 2, 3]}, "nodes[0]: field 'position_m' must be finite"),
    ("nodes", 0, {"position_m": [1, _raw("-1e999"), 3]}, "nodes[0]: field 'position_m' must be finite"),
]


def _edited_document(section: str, index: int, edit) -> str:
    doc = chain_doc()
    if section == "document" and not isinstance(edit, dict):
        doc = edit
    elif not isinstance(edit, dict):
        doc[section][index] = edit
    else:
        target = doc if section == "document" else doc[section][index]
        for key, value in edit.items():
            if value is _DROP:
                del target[key]
            else:
                target[key] = value
    return re.sub(r'"<raw ([^>]*)>"', r"\1", json.dumps(doc))


class TestParseNetwork:
    @pytest.mark.parametrize(
        "section, index, edit, message", _NETWORK_DEFECTS,
        ids=[f"{case[0]}-{i}" for i, case in enumerate(_NETWORK_DEFECTS)],
    )
    def test_defect_message(self, tmp_path, capsys, section, index, edit, message):
        """Every defect names its place, and the first failed check wins."""
        text = _edited_document(section, index, edit)
        with pytest.raises(ParseError) as err:
            parse_network(text)
        assert str(err.value) == message
        net = tmp_path / "net.json"
        net.write_text(text)
        assert main(["validate", str(net)]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_chain_document(self):
        doc = parse_network(json.dumps(chain_doc()))
        assert len(doc.network.nodes) == 3
        assert len(doc.network.arcs) == 2
        assert len(doc.network.clocks) == 1
        assert doc.injections[0].node == 1

    def test_shipped_fixture_parses(self, fixtures_dir):
        doc = parse_network((fixtures_dir / "chain.net.json").read_bytes())
        assert len(doc.network.nodes) == 3

    def test_unknown_field_rejected(self):
        raw = chain_doc()
        raw["nodes"][0]["colour"] = "red"
        with pytest.raises(ParseError) as err:
            parse_network(json.dumps(raw))
        assert "colour" in str(err.value)
        assert "nodes[0]" in str(err.value)

    def test_unknown_top_level_field_rejected(self):
        raw = chain_doc()
        raw["extra"] = {}
        with pytest.raises(ParseError):
            parse_network(json.dumps(raw))

    def test_negative_distance_fails_validation(self):
        raw = chain_doc()
        raw["arcs"][0]["distance_m"] = -1
        with pytest.raises(ValidationFailed) as err:
            parse_network(json.dumps(raw))
        assert any("distance" in p for p in err.value.problems)

    def test_truncated_document(self):
        text = json.dumps(chain_doc())
        with pytest.raises(ParseError):
            parse_network(text[: len(text) // 2])

    def test_non_utf8_rejected(self):
        with pytest.raises(ParseError):
            parse_network(b"\xff\xfe{}")

    def test_wrong_schema_version(self):
        raw = chain_doc()
        raw["schema_version"] = "99"
        with pytest.raises(ParseError):
            parse_network(json.dumps(raw))

    def test_missing_required_field(self):
        raw = chain_doc()
        del raw["nodes"][0]["excited_ev"]
        with pytest.raises(ParseError) as err:
            parse_network(json.dumps(raw))
        assert "excited_ev" in str(err.value)

    def test_wrong_type_rejected(self):
        raw = chain_doc()
        raw["nodes"][0]["id"] = "one"
        with pytest.raises(ParseError):
            parse_network(json.dumps(raw))

    def test_degenerate_levels_fail_validation(self):
        raw = chain_doc()
        raw["nodes"][0]["excited_ev"] = 0.0
        with pytest.raises(ValidationFailed) as err:
            parse_network(json.dumps(raw))
        assert any("nodes[0]" in p for p in err.value.problems)

    def test_injection_at_unknown_node(self):
        raw = chain_doc()
        raw["injections"][0]["node"] = 42
        with pytest.raises(ValidationFailed) as err:
            parse_network(json.dumps(raw))
        assert any("unknown node 42" in p for p in err.value.problems)

    @pytest.mark.parametrize("edit, problem", [
        ({"first_tick_s": -1.0}, "standard_clocks[0]: clock at node 3: first tick must be finite and >= 0 s"),
        ({"period_s": 0}, "standard_clocks[0]: clock at node 3: period must be finite and > 0 s"),
    ], ids=["negative-first-tick", "zero-period"])
    def test_clock_problem_listed(self, tmp_path, capsys, edit, problem):
        """A clock the reader parses but cannot build is a validation problem."""
        raw = chain_doc()
        raw["standard_clocks"][0].update(edit)
        with pytest.raises(ValidationFailed) as err:
            parse_network(json.dumps(raw))
        assert err.value.problems == [problem]
        net = tmp_path / "net.json"
        net.write_text(json.dumps(raw))
        assert main(["validate", str(net)]) == 2
        assert capsys.readouterr() == ("", f"error: {problem}\n")

    @pytest.mark.parametrize("node, edit, problems", [
        (0, {"gamma_ev": 1e300}, [
            "nodes[0]: gamma_ev 1e+300 gives a lifetime of 6.58211956e-316 s, not a finite normal float",
            "injections[0]: unknown node 1",
            "arc 1: unknown source node 1",
        ]),
        (1, {"excited_ev": 5e-324}, [
            "nodes[1]: excited_ev - ground_ev = 5e-324 eV gives a wavelength of inf nm, not a finite normal float",
            "arc 1: unknown target node 2",
            "arc 2: unknown source node 2",
        ]),
    ], ids=["subnormal-lifetime", "infinite-wavelength"])
    def test_node_that_run_cannot_write_is_refused(self, tmp_path, capsys, node, edit, problems):
        """A lifetime or wavelength that is not a finite normal float would make
        ``run`` fail mid-trace (exit 3); the reader refuses the node instead."""
        raw = chain_doc()
        raw["nodes"][node].update(edit)
        with pytest.raises(ValidationFailed) as err:
            parse_network(json.dumps(raw))
        assert err.value.problems == problems
        net, out = tmp_path / "net.json", tmp_path / "trace.jsonl"
        net.write_text(json.dumps(raw))
        stderr = "".join(f"error: {problem}\n" for problem in problems)
        assert main(["validate", str(net)]) == 2
        assert capsys.readouterr() == ("", stderr)
        assert main(["run", str(net), "--until", "5.0", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", stderr)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json"]

    def test_all_problems_collected(self):
        raw = chain_doc()
        raw["arcs"][0]["distance_m"] = -1
        raw["injections"][0]["at_s"] = -2.0
        with pytest.raises(ValidationFailed) as err:
            parse_network(json.dumps(raw))
        assert len(err.value.problems) == 2

    def test_bool_is_not_a_number(self):
        raw = chain_doc()
        raw["nodes"][0]["ground_ev"] = True
        with pytest.raises(ParseError):
            parse_network(json.dumps(raw))

    def test_non_finite_literals_rejected(self):
        text = json.dumps(chain_doc()).replace("0.0", "NaN", 1)
        with pytest.raises(ParseError):
            parse_network(text)

    @pytest.mark.parametrize("field, where, path", [
        ("distance_m", "arcs[0]", ("arcs", 0, "distance_m")),
        ("position_m", "nodes[0]", ("nodes", 0, "position_m", 0)),
    ])
    def test_integer_beyond_float_range(self, fixtures_dir, tmp_path, capsys, field, where, path):
        doc = json.loads((fixtures_dir / "chain.net.json").read_text())
        *parents, last = path
        target = doc
        for key in parents:
            target = target[key]
        target[last] = "@"
        text = json.dumps(doc).replace('"@"', str(10**400))
        message = f"{where}: field {field!r} is beyond the float range"
        with pytest.raises(ParseError) as err:
            parse_network(text)
        assert str(err.value) == message
        net = tmp_path / "net.json"
        net.write_text(text)
        trace = str(fixtures_dir / "chain.expected-trace.jsonl")
        for argv in (["validate", str(net)], ["run", str(net), "--until", "1"],
                     ["timeline", trace, "--clock", "3", "--net", str(net)]):
            assert main(argv) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        (json.dumps({**chain_doc(), "standard_clocks": [{"id": 3, "period_s": 1.0, "counter_start": "@"}]})
         .replace('"@"', "9" * 5001), "Exceeds the limit (4300 digits) for integer string conversion"),
    ], ids=["deep-nesting", "digit-limit"])
    def test_undecodable_json_names_the_document(self, tmp_path, capsys, text, message):
        with pytest.raises(ParseError) as err:
            parse_network(text)
        assert str(err.value).startswith(f"document: invalid JSON: {message}")
        net = tmp_path / "net.json"
        net.write_text(text)
        assert main(["validate", str(net)]) == 2
        assert capsys.readouterr().err.startswith(f"error: document: invalid JSON: {message}")

    def test_malformed_parent_list_rejected(self):
        line = json.dumps(
            {"id": 0, "kind": "decay", "node": 1, "engine_time": 0.0, "parents": ["x"]}
        )
        with pytest.raises(ParseError, match=r"^line 1: 'parents' must be an array of integers$"):
            parse_trace(line + "\n")

    def test_document_matches_builder(self, fixtures_dir):
        """The shipped fixture and the in-code builder describe one network."""
        doc = parse_network((fixtures_dir / "chain.net.json").read_bytes())
        net, injections = chain_network()
        assert doc.network.arcs == net.arcs
        assert doc.network.clocks == net.clocks
        assert [(n.id, n.spec) for n in doc.network.nodes] == [(n.id, n.spec) for n in net.nodes]
        assert [(i.node, i.at_s) for i in doc.injections] == injections


class TestTraceRoundTrip:
    def test_chain_trace_round_trips(self, chain):
        net, injections = chain
        trace = Engine(net, RunConfig(run_until_s=5.0), injections).run()
        assert parse_trace(serialize_trace(trace)) == trace

    def test_single_event_round_trips(self, chain):
        """Each line, read after the lines before it, gives back its event."""
        net, injections = chain
        trace = Engine(net, RunConfig(run_until_s=5.0), injections).run()
        lines = [serialize_event(event) + "\n" for event in trace]
        for k, event in enumerate(trace):
            assert parse_trace("".join(lines[:k + 1]))[-1] == event

    @pytest.mark.parametrize("case_seed", range(5))
    def test_random_traces_round_trip(self, case_seed):
        _, _, _, trace = random_run(9000 + case_seed)
        assert parse_trace(serialize_trace(trace)) == trace

    def test_file_round_trip(self, chain, tmp_path):
        net, injections = chain
        config = RunConfig(run_until_s=5.0, mode=SamplingMode.STOCHASTIC, seed=3)
        trace = Engine(net, config, injections).run()
        path = tmp_path / "trace.jsonl"
        write_trace(trace, path)
        assert read_trace(path) == trace

    def test_write_trace_counts_lines_and_replaces_only_on_success(self, chain, tmp_path):
        net, injections = chain
        trace = Engine(net, RunConfig(run_until_s=5.0), injections).run()
        path = tmp_path / "trace.jsonl"
        path.write_bytes(b"earlier\n")

        def failing():
            yield from trace[:5]
            raise ValueError("stop")

        with pytest.raises(ValueError, match="stop"):
            write_trace(failing(), path)
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]
        assert path.read_bytes() == b"earlier\n"
        assert write_trace(iter(trace), path) == len(trace)
        assert path.read_text() == serialize_trace(trace)
        assert [p.name for p in tmp_path.iterdir()] == ["trace.jsonl"]

    @staticmethod
    def undrawn():
        raise AssertionError("an event was drawn")
        yield

    @pytest.mark.parametrize("slash, exists", [("", True), ("/", True), ("/", False)],
                             ids=["bare", "slash", "missing-slash"])
    def test_write_trace_refuses_a_directory_before_drawing(self, tmp_path, slash, exists):
        if exists:
            (tmp_path / "d").mkdir()
        path = f"{tmp_path / 'd'}{slash}"
        with pytest.raises(IsADirectoryError) as err:
            write_trace(self.undrawn(), path)
        assert err.value.filename == path
        assert [p.name for p in tmp_path.rglob("*")] == (["d"] if exists else [])

    def test_write_trace_names_the_path_it_cannot_create(self, tmp_path):
        path = tmp_path / "missing" / "t.jsonl"
        with pytest.raises(FileNotFoundError) as err:
            write_trace(self.undrawn(), path)
        assert err.value.filename == str(path)
        assert list(tmp_path.iterdir()) == []

    def test_malformed_line_rejected(self):
        with pytest.raises(ParseError, match=r"^line 1: invalid JSON: Expecting ',' delimiter$"):
            parse_trace('{"id": 0, "kind": "decay"\n')

    # The padded line takes the json.loads path, the bare line the scanner's.
    @pytest.mark.parametrize("pad", ["", " "], ids=["scanner", "loads"])
    @pytest.mark.parametrize(
        "record, field, literal",
        [
            (_ABSORPTION, "engine_time", "NaN"),
            (_ABSORPTION, "engine_time", "-Infinity"),
            (_DECAY, "lifetime_s", "Infinity"),
            (_TICK, "note", "NaN"),
        ],
    )
    def test_non_finite_literal_rejected(self, record, field, literal, pad):
        line = pad + json.dumps({**record, field: 0.25}).replace("0.25", literal)
        message = f"invalid JSON: non-finite number literal '{literal}' is not allowed"
        with pytest.raises(ParseError) as err:
            parse_trace(_lines(_ROOT) + line + "\n")
        assert str(err.value) == f"line 2: {message}"

    def test_unknown_kind_rejected(self):
        line = json.dumps(
            {"id": 0, "kind": "banana", "node": 1, "engine_time": 0.0, "parents": []}
        )
        with pytest.raises(ParseError, match=r"^line 1: unknown event kind 'banana'$"):
            parse_trace(line + "\n")

    def test_missing_base_field_rejected(self):
        line = json.dumps({"id": 0, "kind": "decay", "node": 1, "engine_time": 0.0})
        with pytest.raises(ParseError) as err:
            parse_trace(line + "\n")
        assert str(err.value) == "line 1: missing field(s): parents"

    @pytest.mark.parametrize(
        "record, message",
        [
            ({**_ABSORPTION, "engine_time": True}, "'engine_time' must be a number"),
            ({**_ABSORPTION, "engine_time": "0.5"}, "'engine_time' must be a number"),
            ({**_ABSORPTION, "parents": [1.5]}, "'parents' must be an array of integers"),
            ({**_ABSORPTION, "parents": 3}, "'parents' must be an array of integers"),
            ({**_ABSORPTION, "id": "0"}, "'id' and 'node' must be integers"),
            ({**_ABSORPTION, "node": 1.0}, "'id' and 'node' must be integers"),
            ([_ABSORPTION], "expected an object"),
            ("absorption", "expected an object"),
            ({**_ABSORPTION, "kind": 1}, "unknown event kind 1"),
            ({**_ABSORPTION, "kind": ["decay"]}, "unknown event kind ['decay']"),
            ({**_ABSORPTION, "kind": None}, "unknown event kind None"),
            ({"id": 0, "kind": "decay"}, "missing field(s): node, engine_time, parents"),
            (_without(_TICK, "pulse_id"), "missing field(s): pulse_id"),
            ({**_TICK, "counter": "3"}, "'counter' must be an integer"),
            ({**_TICK, "pulse_id": True}, "'pulse_id' must be an integer"),
            (
                _without(_DECAY, "ds_internal", "ds_signal", "ds_vacuum", "total"),
                "missing field(s): ds_internal, ds_signal, ds_vacuum, total",
            ),
            (_without(_DECAY, "lifetime_s"), "missing field(s): lifetime_s"),
            ({**_DECAY, "total": "-1"}, "'total' must be a number"),
            ({**_DECAY, "production_rate": None}, "'production_rate' must be a number"),
            ({**_ABSORPTION, "id": True}, "'id' and 'node' must be integers"),
            ({**_ABSORPTION, "node": False}, "'id' and 'node' must be integers"),
            (
                {"id": True, "kind": "absorption", "node": -5, "engine_time": 0.0, "parents": [False]},
                "'id' and 'node' must be integers",
            ),
            ({**_ABSORPTION, "id": -1}, "'id' must be an unsigned 64-bit integer, got -1"),
            ({**_ABSORPTION, "node": -5}, "'node' must be an unsigned 64-bit integer, got -5"),
            (
                {**_ABSORPTION, "node": 2**64},
                "'node' must be an unsigned 64-bit integer, got 18446744073709551616",
            ),
            ({**_ABSORPTION, "parents": [False]}, "'parents' must be an array of integers"),
            ({**_ABSORPTION, "parents": [0, True]}, "'parents' must be an array of integers"),
            (
                {**_ABSORPTION, "parents": [0, -3]},
                "'parents' must be an array of unsigned 64-bit integers",
            ),
            (
                {**_ABSORPTION, "parents": [2**64]},
                "'parents' must be an array of unsigned 64-bit integers",
            ),
        ],
    )
    def test_malformed_record_message(self, record, message):
        with pytest.raises(ParseError) as err:
            parse_trace("\n" + json.dumps(record) + "\n")
        assert str(err.value) == f"line 2: {message}"

    @pytest.mark.parametrize("sign", [1, -1])
    def test_integer_engine_time_beyond_float_range(self, sign):
        # float() rounds every int below this bound to a finite float and
        # overflows on the bound itself.
        bound = 2**1024 - 2**970
        _, event = parse_trace(_lines(_ROOT, {**_ABSORPTION, "engine_time": sign * (bound - 1)}))
        assert event.engine_time == sign * sys.float_info.max
        for t in (bound, 10**400):
            line = json.dumps({**_ABSORPTION, "engine_time": sign * t})
            with pytest.raises(ParseError) as err:
                parse_trace("\n" + line + "\n")
            assert str(err.value) == "line 2: 'engine_time' is beyond the float range"
        # The range is checked last: an earlier failed check keeps its message.
        for record, message in (
            ({**_ABSORPTION, "parents": [1.5]}, "'parents' must be an array of integers"),
            (_without(_TICK, "counter"), "missing field(s): counter"),
            ({**_DECAY, "total": "-1"}, "'total' must be a number"),
        ):
            with pytest.raises(ParseError) as err:
                parse_trace("\n" + json.dumps({**record, "engine_time": sign * 10**400}) + "\n")
            assert str(err.value) == f"line 2: {message}"

    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    @pytest.mark.parametrize(
        "record, field",
        [(_ABSORPTION, "engine_time"), ({**_DECAY, "parents": [0]}, "lifetime_s")],
        ids=["engine_time", "lifetime_s"],
    )
    def test_float_literal_beyond_range(self, record, field, literal):
        """JSON decodes such a literal to an infinity, which the reader rejects."""
        line = json.dumps({**record, field: "@"}).replace('"@"', literal)
        message = f"'{field}' is beyond the float range"
        with pytest.raises(ParseError) as err:
            parse_trace(_lines(_ROOT) + line + "\n")
        assert str(err.value) == f"line 2: {message}"
        assert _outcome(reference_record_to_event, json.loads(line), "line 2") == f"ParseError: line 2: {message}"
        # The largest finite literal still reads.
        assert parse_trace(_lines(_ROOT) + line.replace(literal, literal.replace("1e999", "1.7976931348623157e308")))

    @pytest.mark.parametrize("record, fields, message", [
        ({**_ABSORPTION, "parents": [1.5]}, ("engine_time",), "'parents' must be an array of integers"),
        ({**_DECAY, "total": "-1"}, ("lifetime_s",), "'total' must be a number"),
        (_without(_DECAY, "total"), ("lifetime_s",), "missing field(s): total"),
        ({**_DECAY, "engine_time": 10**400}, ("lifetime_s",), "'engine_time' is beyond the float range"),
        (_DECAY, ("lifetime_s", "engine_time"), "'engine_time' is beyond the float range"),
        (_DECAY, ("lifetime_s", "ds_internal"), "'ds_internal' is beyond the float range"),
    ])
    def test_float_literal_beyond_range_is_checked_last(self, record, fields, message):
        """An earlier failed check keeps its message; then engine_time, then
        the entropy columns in their order."""
        line = json.dumps({**record, **dict.fromkeys(fields, "@")}).replace('"@"', "1e999")
        with pytest.raises(ParseError) as err:
            parse_trace(line + "\n")
        assert str(err.value) == f"line 1: {message}"
        assert _outcome(reference_record_to_event, json.loads(line), "line 1") == f"ParseError: line 1: {message}"

    def test_largest_ids_parse(self):
        top = 2**64 - 1
        root, event = parse_trace(_lines({**_ROOT, "id": top - 1, "node": top},
                                         {**_ABSORPTION, "id": top, "parents": [top - 1]}))
        assert (root.id, root.node, event.id, event.parents) == (top - 1, top, top, frozenset({top - 1}))

    def test_well_formed_records_parse(self):
        _, *events = parse_trace(_lines(_ROOT, _ABSORPTION, _TICK, _DECAY))
        assert [e.kind for e in events] == [EventKind.ABSORPTION, EventKind.CLOCK_TICK, EventKind.DECAY]
        assert events[1].payload == {"pulse_id": 0, "counter": 0}

    def test_repeated_event_id_rejected(self, chain):
        net, injections = chain
        lines = serialize_trace(Engine(net, RunConfig(run_until_s=5.0), injections).run()).splitlines()
        assert len(lines) == 13
        with pytest.raises(ParseError) as err:
            parse_trace("\n".join([*lines, "", lines[-1]]) + "\n")
        assert str(err.value) == "line 15: event id 12 is not greater than id 12 on line 13"

    @pytest.mark.parametrize("repeat", [0, 5, 12])
    def test_repeated_event_id_names_its_first_line_in_text_and_files(self, chain, tmp_path, repeat):
        """An id repeated after a blank line names its first line, which is
        the last non-blank line before it."""
        net, injections = chain
        lines = serialize_trace(Engine(net, RunConfig(run_until_s=5.0), injections).run()).splitlines()
        text = "\n".join(["", *lines[:repeat + 1], "", lines[repeat], *lines[repeat + 1:]]) + "\n"
        message = f"line {repeat + 4}: event id {repeat} is not greater than id {repeat} on line {repeat + 2}"
        with pytest.raises(ParseError) as err:
            parse_trace(text)
        assert str(err.value) == message
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            list(iter_trace(path))
        assert str(err.value) == message

    @pytest.mark.parametrize("repeat", [0, 5, 12])
    def test_event_id_not_ascending_names_the_line_before_in_text_and_files(self, chain, tmp_path, repeat):
        """A repeated id is one case of an id that does not ascend; the
        message names the last non-blank line before it."""
        net, injections = chain
        lines = serialize_trace(Engine(net, RunConfig(run_until_s=5.0), injections).run()).splitlines()
        text = "\n".join(["", *lines, "", lines[repeat], lines[-1]]) + "\n"
        message = f"line 16: event id {repeat} is not greater than id 12 on line 14"
        with pytest.raises(ParseError) as err:
            parse_trace(text)
        assert str(err.value) == message
        path = tmp_path / "trace.jsonl"
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            list(iter_trace(path))
        assert str(err.value) == message

    def test_unicode_line_breaks_stay_inside_their_line(self, tmp_path):
        note = "a\u2028b\u2029c\x85d"
        first = json.dumps({**_ABSORPTION, "note": note}, ensure_ascii=False)
        assert "\u2028" in first and "\x85" in first
        text = _lines(_ROOT) + first + "\n" + json.dumps(_TICK) + "\r\n"
        events = parse_trace(text)
        assert [e.id for e in events] == [0, 1, 2]
        assert events[1].payload == {"note": note}
        path = tmp_path / "trace.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        assert read_trace(path) == events
        with pytest.raises(ParseError) as err:
            parse_trace(text + '{"id": 9\n')
        assert str(err.value) == "line 4: invalid JSON: Expecting ',' delimiter"

    def test_lone_carriage_return_stays_inside_its_line_in_files(self, tmp_path):
        text = _lines(_ROOT) + json.dumps(_ABSORPTION).replace(', "node"', ',\r"node"')
        assert "\r" in text
        path = tmp_path / "trace.jsonl"
        path.write_bytes(text.encode() + b"\n")
        assert read_trace(path) == parse_trace(text)
        path.write_bytes((text + '\n{"id": 9\n').encode())
        with pytest.raises(ParseError) as err:
            read_trace(path)
        assert str(err.value) == "line 3: invalid JSON: Expecting ',' delimiter"

    def test_only_json_whitespace_may_follow_a_record(self, tmp_path):
        record = json.dumps(_ABSORPTION)
        root, event = parse_trace(_lines(_ROOT) + record + " \t\r\n")
        path = tmp_path / "trace.jsonl"
        path.write_bytes((_lines(_ROOT) + record + "\r\n").encode())
        assert read_trace(path) == (root, event)
        for tail in ("\u2028", "\x85", "\xa0", "\x0b"):
            with pytest.raises(ParseError) as err:
                parse_trace(record + tail + "\n")
            assert str(err.value).startswith("line 1: invalid JSON: Extra data")

    def test_invalid_utf8_names_its_line(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_bytes(json.dumps(_ABSORPTION).encode() + b'\n\n{"id": 2, "note": "\xff"}\n')
        with pytest.raises(ParseError) as err:
            read_trace(path)
        assert str(err.value) == "line 3: invalid UTF-8: invalid start byte"

    @pytest.mark.parametrize("earlier, lineno", [
        (b'{"id": 9', 4),  # invalid JSON
        (json.dumps(_DECAY).encode(), 4),  # a parent that names no earlier event
        (json.dumps(_ROOT).encode(), 4),  # a repeated id
        (json.dumps(_without(_TICK, "counter")).encode(), 4),  # a missing field
        (b'{"id": 9, "note": "\xfe"}', 2),  # the first of two bad bytes
    ], ids=["json", "parent", "repeated-id", "field", "utf8"])
    def test_invalid_utf8_is_reported_before_any_other_error(self, tmp_path, earlier, lineno):
        """Read one line at a time, a file still reports its first bad byte
        rather than an error on an earlier line."""
        path = tmp_path / "trace.jsonl"
        path.write_bytes(_lines(_ROOT).encode() + earlier + b'\n\n{"id": 2, "note": "\xff"}\n')
        for read in (read_trace, lambda p: list(iter_trace(p))):
            with pytest.raises(ParseError) as err:
                read(path)
            assert str(err.value) == f"line {lineno}: invalid UTF-8: invalid start byte"

    def test_iter_trace_reads_one_line_at_a_time(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(_lines(_ROOT, _ABSORPTION) + '{"id": 9\n')
        events = iter_trace(path)
        assert (next(events), next(events)) == parse_trace(_lines(_ROOT, _ABSORPTION))
        with pytest.raises(ParseError) as err:
            next(events)
        assert str(err.value) == "line 3: invalid JSON: Expecting ',' delimiter"

    @pytest.mark.parametrize("field, value, message", [
        ("note", "[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ("node", "7" * 5001, "Exceeds the limit (4300 digits) for integer string conversion"),
    ], ids=["deep-nesting", "digit-limit"])
    def test_undecodable_json_names_its_line(self, tmp_path, field, value, message):
        """Nesting deeper than the recursion limit and an integer over
        CPython's digit limit are invalid JSON, not a crash."""
        line = json.dumps({**_ABSORPTION, field: "@"}).replace('"@"', value)
        path = tmp_path / "trace.jsonl"
        path.write_text(_lines(_ROOT) + line + "\n")
        for read in (read_trace, lambda p: parse_trace(p.read_text())):
            with pytest.raises(ParseError) as err:
                read(path)
            assert str(err.value).startswith(f"line 2: invalid JSON: {message}")

    def test_parents_must_name_earlier_events(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        excerpt = _lines({**_TICK, "id": 1}, {**_ABSORPTION, "id": 2}, {**_DECAY, "parents": [2]})
        path.write_text(excerpt)
        for read in (lambda: read_trace(path), lambda: parse_trace(excerpt)):
            with pytest.raises(ParseError) as err:
                read()
            assert str(err.value) == "line 2: parent 0 is not the id of an earlier event"
        path.write_text(_lines(_ROOT) + excerpt)
        assert [e.id for e in read_trace(path)] == [0, 1, 2, 3]
        # A parent on a later line, or the event itself, is not earlier; an
        # id that does not ascend is reported before its parents.
        for records, message in (
            ((_ROOT, {**_ABSORPTION, "parents": [2]}, _TICK), "line 2: parent 2 is not the id of an earlier event"),
            ((_ROOT, {**_ABSORPTION, "parents": [0, 1]}), "line 2: parent 1 is not the id of an earlier event"),
            ((_ROOT, _ABSORPTION, {**_ABSORPTION, "parents": [7]}),
             "line 3: event id 1 is not greater than id 1 on line 2"),
        ):
            with pytest.raises(ParseError) as err:
                parse_trace(_lines(*records))
            assert str(err.value) == message

    def test_padded_and_blank_lines(self):
        *_, event = parse_trace(_lines(_ROOT, _ABSORPTION) + " \t" + json.dumps(_DECAY) + " \r\n\r\n  \n")
        assert event.payload["total"] == 1.0
        (tick,) = parse_trace(" " + json.dumps(_TICK) + "\r")
        assert tick.payload == {"pulse_id": 0, "counter": 0}
        with pytest.raises(ParseError) as err:
            parse_trace(json.dumps(_ABSORPTION) + " x\n")
        assert str(err.value).startswith("line 1: invalid JSON: Extra data")

    def test_blank_lines_ignored(self, chain):
        net, injections = chain
        trace = Engine(net, RunConfig(run_until_s=5.0), injections).run()
        text = serialize_trace(trace) + "\n\n"
        assert parse_trace(text) == trace

    def test_reparsed_trace_relabels_identically(self, chain):
        from fcnsim import build_timeline, label_absorptions

        net, injections = chain
        trace = Engine(net, RunConfig(run_until_s=5.0), injections).run()
        reparsed = parse_trace(serialize_trace(trace))
        clock = net.clocks[0]
        original, _ = build_timeline(label_absorptions(trace, clock)[0], trace)
        recovered, _ = build_timeline(label_absorptions(reparsed, clock)[0], reparsed)
        assert recovered == original


# -- the hand-formatted writer against json.dumps ------------------------

_U64 = st.integers(min_value=0, max_value=2**64 - 1)
# Signed zero, subnormals, the largest float and both sides of the points
# where repr switches to exponent form (1e16 and 1e-4).
_FLOAT_EDGES = (
    -0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e16, 9999999999999998.0, 1.0000000000000002e16, 1e-5, 1e-4, 0.0001, 9.999999999999999e-05,
)
_ENGINE_KEYS = (
    "excitation_id", "energy_ev", "gamma_ev", *ENTROPY_COLUMNS[1:],
    "reason", "arc", "wavelength_nm", "pulse_id", "counter",
)
_BASE = ("id", "kind", "node", "engine_time", "parents")
# Non-ASCII, control characters, quotes and backslashes.
_TEXT = st.text(st.characters(codec="utf-8"), max_size=8) | st.sampled_from(
    ["", "é", "\u2028", '"', "\\", "\n\t\x00\x7f", "\U0001f600", "\udc80"]
)


def _floats(finite: bool):
    edges = _FLOAT_EDGES if finite else (*_FLOAT_EDGES, math.nan, math.inf, -math.inf)
    return st.floats(allow_nan=not finite, allow_infinity=not finite) | st.sampled_from(edges)


def _values(finite: bool):
    """Payload values; not finite, also NaNs and infinities, and tuples and
    int-keyed dicts, whose JSON text reads back as other values."""
    scalars = (
        st.none()
        | st.booleans()
        | st.integers(min_value=-(2**70), max_value=2**70)
        | _floats(finite)
        | _TEXT
    )

    def nested(inner):
        values = st.lists(inner, max_size=3) | st.dictionaries(_TEXT, inner, max_size=3)
        if finite:
            return values
        return values | st.lists(inner, max_size=3).map(tuple) | st.dictionaries(st.integers(0, 2), inner, max_size=2)

    return st.recursive(scalars, nested, max_leaves=6)


# Outside the writer's contract: ids that are not unsigned 64-bit ints, and
# engine_time values that are not an int or a float.
_BAD_IDS = st.integers(-5, -1) | st.sampled_from([2**64, True, False])
_BAD_TIMES = st.sampled_from([None, True, "0.5", [1.0]])
# Int engine_time values up to 10**400, with both sides of the float range's
# end (2**1024 - 2**970 is the least int that float() overflows on).
_INT_TIMES = st.integers(-(10**400), 10**400) | st.sampled_from(
    [10**400, -(10**400), 2**1024 - 2**970 - 1, 2**1024 - 2**970, 2**53 + 1]
)
_KEYS = st.sampled_from(_ENGINE_KEYS) | _TEXT.filter(lambda k: k not in _BASE)
# For finite and for any events: the payloads, ids, times and parents.
_FIELDS = {
    finite: (st.dictionaries(_KEYS, _values(finite), max_size=6), _U64, _floats(finite),
             st.frozensets(_U64, max_size=4))
    for finite in (True, False)
}
# Base field names, non-string keys, values json.dumps cannot write, and
# ids, times and parents the writer refuses.
_REFUSED_FIELDS = (
    st.dictionaries(
        _KEYS | st.sampled_from(_BASE) | st.integers(-3, 3) | st.tuples(st.integers(0, 2)),
        _values(False) | st.sets(st.integers(0, 2), max_size=2),
        max_size=6,
    ),
    _U64 | _BAD_IDS,
    _floats(False) | st.integers(-3, 3) | _INT_TIMES | _BAD_TIMES,
    st.frozensets(_U64 | _BAD_IDS | st.sampled_from(["a", "0"]), max_size=4),
)
_ENTROPY_VALUES = _floats(True) | st.integers()
_MISTYPED = st.sampled_from([None, True, "1", 1.5, [0]])


@st.composite
def _events(draw, finite: bool) -> SimEvent:
    kind = draw(st.sampled_from(EventKind))
    refused = not finite and draw(st.booleans())
    payloads, ids, times, parents = _REFUSED_FIELDS if refused else _FIELDS[finite]
    payload = draw(payloads)
    # The fields the reader checks, with the types it requires.
    if kind is EventKind.CLOCK_TICK:
        payload.update(pulse_id=draw(_U64), counter=draw(st.integers()))
    elif kind is EventKind.DECAY:
        payload.update({name: draw(_ENTROPY_VALUES) for name in ENTROPY_COLUMNS[1:]})
    if not finite and kind in (EventKind.CLOCK_TICK, EventKind.DECAY) and draw(st.booleans()):
        # Some of them dropped, or given a value of another type.
        read = [k for k in ("pulse_id", "counter", *ENTROPY_COLUMNS[1:]) if k in payload]
        for name in draw(st.lists(st.sampled_from(read), min_size=1, max_size=2, unique=True)):
            if draw(st.booleans()):
                del payload[name]
            else:
                payload[name] = draw(_MISTYPED)
    return SimEvent(
        id=draw(ids),
        kind=kind,
        node=draw(ids),
        engine_time=draw(times),
        parents=draw(parents),
        payload=payload,
    )


_FINITE_EVENTS = _events(finite=True)


@st.composite
def _finite_traces(draw) -> tuple[SimEvent, ...]:
    """Up to six finite events with ascending ids, each naming only earlier events as parents."""
    trace: list[SimEvent] = []
    events = draw(st.lists(_FINITE_EVENTS, max_size=6, unique_by=lambda e: e.id))
    for event in sorted(events, key=lambda e: e.id):
        parents = draw(st.frozensets(st.sampled_from([e.id for e in trace]), max_size=4)) if trace else frozenset()
        trace.append(event._replace(parents=parents))
    return tuple(trace)


# One event with every kind of payload value, then three the writer refuses:
# a payload that reuses a base field name, one with a non-string key, and an
# id that is not an unsigned int. 2**61 hashes to 1, so the parents do not
# iterate sorted.
_WRITER_EXAMPLES = (
    SimEvent(
        id=7, kind=EventKind.DECAY, node=2, engine_time=-0.0, parents=frozenset({2, 2**61, 7, 2**64 - 1}),
        payload={
            "gamma_ev": 2.2250738585072014e-308, "total": -1.7976931348623157e308, "ds_vacuum": -5e-324,
            "lifetime_s": 5e-324,
            "energy_ev": 1e16, "ds_signal": 9999999999999998.0, "production_rate": 1e-5,
            "ds_internal": 0.0001, "counter": -(2**70), "pulse_id": 2**64 + 1, "reason": "é\u2028\"\\\n\x00",
            "clé": "\U0001f600", "": None, "flag": True, "nested": [None, False, {"é": -0.0, "n": [1.5, "\t"]}],
        },
    ),
    SimEvent(
        id=1, kind=EventKind.ABSORPTION, node=4, engine_time=0.5, parents=frozenset({0}),
        payload={"arc": 2, "kind": "banana", "parents": [1]},
    ),
    SimEvent(
        id=1, kind=EventKind.ABSORPTION, node=4, engine_time=0.5, parents=frozenset({0}),
        payload={"arc": 2, 3: "three", None: 1.5},
    ),
    SimEvent(id=True, kind=EventKind.EMISSION, node=3, engine_time=1, parents=frozenset(), payload={}),
)
_EXAMPLE_IDS = ("values", "base-key", "int-key", "bool-id")


def _record(event: SimEvent) -> dict:
    """The json.dumps oracle of a trace line: the base fields, parents sorted, then the payload."""
    base = {"id": event.id, "kind": event.kind.value, "node": event.node, "engine_time": event.engine_time}
    return {**base, "parents": sorted(event.parents), **event.payload}


def _written(event: SimEvent) -> bool:
    """Whether the writer's contract has it write ``event`` rather than refuse
    it: the ``json.dumps`` line of its record reads back, by the reference
    reader, as the same event, its ``engine_time`` made a float."""
    try:  # json.dumps refuses a NaN or an infinity anywhere, and a value it cannot write
        line = json.dumps(_record(event), allow_nan=False)
        read = reference_record_to_event(json.loads(line))
        return read == event._replace(engine_time=float(event.engine_time))
    except (TypeError, ValueError, ParseError):
        return False


def _refusal(event: SimEvent) -> str:
    """The start of every refusal message: the event id."""
    return f"^event {re.escape(str(event.id))}: "


class _Float(float):
    """A float subclass, which the writer formats apart from exact floats."""


class _Str(str):
    """A str subclass, which the writer takes as a payload key."""


# Values that events of one stream share: zeros of both signs, values equal
# to 1.0 of other types, and a float and an equal float subclass. The times
# hold an int and an equal float.
_SHARED_VALUES = (0.0, -0.0, 1.0, 1, True, _Float(1.0), 2.5, _Float(2.5), -2.5, 1e16, 5e-324, "2.5")
_SHARED_TIMES = (0.5, 1, 1.0, 2**53 + 1, float(2**53 + 1), -0.0, 0.0)
_NOT_FINITE = (math.nan, math.inf, -math.inf)


@st.composite
def _streams(draw) -> list[SimEvent]:
    """Up to eight events whose payload values and engine_time objects come
    from pools they share, and maybe one the writer refuses among them: a
    NaN or an infinity in its payload or time, or a None time."""
    floats = draw(st.lists(_floats(True), max_size=3))
    values, times = st.sampled_from([*floats, *_SHARED_VALUES]), st.sampled_from([*floats, *_SHARED_TIMES])
    keys = st.lists(st.sampled_from(("energy_ev", "gamma_ev", "wavelength_nm", "note")), unique=True, max_size=3)
    events = []
    for i in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from((EventKind.EMISSION, EventKind.ABSORPTION, EventKind.DECAY)))
        payload = {key: draw(values) for key in draw(keys)}
        if kind is EventKind.DECAY:
            numbers = values.filter(lambda v: type(v) in (int, float))
            payload.update({name: draw(numbers) for name in ENTROPY_COLUMNS[1:]})
        events.append(SimEvent(i, kind, 1, draw(times), frozenset(), payload))
    if draw(st.booleans()):
        i = draw(st.integers(0, len(events) - 1))
        bad = draw(st.sampled_from(_NOT_FINITE))
        if draw(st.booleans()):
            events[i] = events[i]._replace(payload={**events[i].payload, "gamma_ev": bad})
        else:
            events[i] = events[i]._replace(engine_time=draw(st.sampled_from((bad, None))))
    return events


_T = 1.0
_STREAM_EXAMPLES = (
    # Zeros, 1.0, 1, True and a subclass; two events sharing one time
    # object; an int time, then an equal float, then the first again.
    [
        SimEvent(0, EventKind.EMISSION, 1, _T, frozenset(), {"energy_ev": 1.0, "gamma_ev": 0.0, "note": -0.0}),
        SimEvent(1, EventKind.EMISSION, 1, _T, frozenset({0}), {"energy_ev": -0.0, "gamma_ev": 1, "note": True}),
        SimEvent(2, EventKind.ABSORPTION, 1, 1, frozenset({1}), {"energy_ev": _Float(1.0), "note": 0.0}),
        SimEvent(3, EventKind.ABSORPTION, 1, float(1), frozenset({2}), {"energy_ev": True}),
        SimEvent(4, EventKind.ABSORPTION, 1, _T, frozenset({3}), {"energy_ev": 1}),
    ],
    # A NaN, an infinity and a None time after finite values were written,
    # with an event after them; and a None time first.
    *(
        [
            SimEvent(0, EventKind.EMISSION, 1, _T, frozenset(), {"gamma_ev": 2.5, "energy_ev": 1e308}),
            SimEvent(1, EventKind.EMISSION, 1, _T, frozenset(), {"gamma_ev": 2.5, "energy_ev": -1e308}),
            SimEvent(2, EventKind.EMISSION, 1, time, frozenset(), {"gamma_ev": 2.5, "energy_ev": bad}),
            SimEvent(3, EventKind.EMISSION, 1, _T, frozenset(), {"gamma_ev": 2.5}),
        ]
        for time, bad in ((_T, math.nan), (_T, math.inf), (_T, -math.inf), (None, 1e308))
    ),
    [SimEvent(0, EventKind.EMISSION, 1, None, frozenset(), {"gamma_ev": 2.5})],
    # Keys of a str subclass, equal to a key written before and not: json.dumps
    # writes them as strings, and they read back as keys equal to them.
    [
        SimEvent(0, EventKind.EMISSION, 1, _T, frozenset(), {"note": 1}),
        SimEvent(1, EventKind.EMISSION, 1, _T, frozenset(), {_Str("note"): 2, _Str("energy_ev"): 2.5}),
        SimEvent(2, EventKind.EMISSION, 1, _T, frozenset(), {_Str("é"): 3}),
    ],
)
_STREAM_IDS = (
    "shared", "nan-after", "inf-after", "-inf-after", "null-time-after", "null-time-first", "str-subclass-keys",
)


def _check_stream(events: list[SimEvent]) -> None:
    """One stream reuses float texts across events, and still writes each
    line as serialize_event writes the event alone and as json.dumps writes
    its record; the first event it refuses stops it, with serialize_event's
    message, after the lines before it."""
    lines, refusal = [], None
    for event in events:
        try:
            line = serialize_event(event)
        except ValueError as exc:
            assert not _written(event)
            refusal = str(exc)
            break
        assert _written(event) and line == json.dumps(_record(event), separators=(",", ":"))
        lines.append(line + "\n")
    written: list[str] = []
    sink = SimpleNamespace(write=written.append)
    if refusal is None:
        assert serialize_trace(events) == "".join(lines)
        assert write_events(events, sink) == len(events)
    else:
        for write in (serialize_trace, lambda events: write_events(events, sink)):
            with pytest.raises(ValueError) as err:
                write(events)
            assert str(err.value) == refusal
    assert written == lines


class TestWriter:
    @pytest.mark.parametrize("event", _WRITER_EXAMPLES, ids=_EXAMPLE_IDS)
    def test_examples_match_json_dumps(self, event):
        """The first example is written as json.dumps writes its record; the
        writer refuses the others, which no reader would read back as they are."""
        if event is _WRITER_EXAMPLES[0]:
            assert serialize_event(event) == json.dumps(_record(event), separators=(",", ":"))
        else:
            assert not _written(event)
            with pytest.raises(ValueError, match=_refusal(event)):
                serialize_event(event)

    @settings(max_examples=200)
    @given(event=_events(finite=False))
    def test_matches_json_dumps(self, event):
        """An event is written if and only if its line reads back as the same
        event, and then byte-equal to json.dumps; any other event raises
        ValueError naming the event."""
        if _written(event):
            assert serialize_event(event) == json.dumps(_record(event), separators=(",", ":"))
        else:
            with pytest.raises(ValueError, match=_refusal(event)):
                serialize_event(event)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("event", _WRITER_EXAMPLES, ids=_EXAMPLE_IDS)
    def test_non_finite_float_raises(self, event, value):
        """No trace reader accepts a NaN or an infinity, so the writer refuses
        one in engine_time, as a payload value, or nested in one. An example
        refused anyway may name another reason."""
        message = _refusal(event) + ("Out of range float values" if _written(event) else "")
        for bad in (
            event._replace(engine_time=value),
            event._replace(payload={**event.payload, "gamma_ev": value}),
            event._replace(payload={**event.payload, "note": [None, {"x": value}]}),
        ):
            with pytest.raises(ValueError, match=message):
                serialize_event(bad)

    @pytest.mark.parametrize("change, message", [
        ({"id": -1}, "event -1: id and node must be unsigned 64-bit integers, got node 4"),
        ({"node": 2**64}, "event 1: id and node must be unsigned 64-bit integers, got node 18446744073709551616"),
        ({"id": True}, "event True: id and node must be unsigned 64-bit integers, got node 4"),
        ({"parents": frozenset({0, "a"})}, "event 1: parents must be unsigned 64-bit integers"),
        ({"parents": frozenset({-1})}, "event 1: parents must be unsigned 64-bit integers"),
        ({"parents": frozenset({0, 2**64})}, "event 1: parents must be unsigned 64-bit integers"),
        ({"engine_time": "0.5"}, "event 1: engine_time must be an int or a finite float, got '0.5'"),
        ({"engine_time": None}, "event 1: engine_time must be an int or a finite float, got None"),
        ({"kind": "banana"}, "event 1: unknown event kind 'banana'"),
        ({"payload": {3: "three"}}, "event 1: payload key 3 is not a string or names a base field"),
        ({"payload": {(0, 1): 1}}, "event 1: payload key (0, 1) is not a string or names a base field"),
        ({"payload": {"parents": [1]}}, "event 1: payload key 'parents' is not a string or names a base field"),
        ({"payload": {"note": {0, 1}}}, "event 1: Object of type set is not JSON serializable"),
        ({"payload": {"t": (1, 2)}}, "event 1: payload value (1, 2) would read back as [1,2]"),
        ({"payload": {"nested": {1: 2}}}, 'event 1: payload value {1: 2} would read back as {"1":2}'),
        ({"kind": EventKind.DECAY, "payload": {}},
         "event 1: missing field(s): ds_internal, ds_signal, ds_vacuum, total, production_rate, lifetime_s"),
        ({"kind": EventKind.CLOCK_TICK, "payload": {"pulse_id": 0}}, "event 1: missing field(s): counter"),
        ({"kind": EventKind.CLOCK_TICK, "payload": {"pulse_id": True, "counter": 0}},
         "event 1: 'pulse_id' must be an integer"),
        ({"engine_time": 10**400}, "event 1: 'engine_time' is beyond the float range"),
    ], ids=[
        "negative-id", "node-2**64", "bool-id", "str-parent", "negative-parent", "parent-2**64",
        "str-time", "null-time", "kind", "int-key", "tuple-key", "base-key", "set-value", "tuple-value",
        "int-keyed-dict-value",
        "decay-without-fields", "tick-without-counter", "bool-pulse-id", "int-time-10**400",
    ])
    def test_refusal_names_the_event(self, change, message):
        """Each refused event raises ValueError, never a bare TypeError."""
        event = SimEvent(id=1, kind=EventKind.ABSORPTION, node=4, engine_time=0.5, parents=frozenset({0}),
                         payload={"arc": 2})._replace(**change)
        with pytest.raises(ValueError) as err:
            serialize_event(event)
        assert str(err.value) == message

    def test_payload_naming_a_base_field_is_refused(self):
        """json.dumps of this event's record reads back as event 7 at 0.25;
        the writer refuses the event instead of writing another one."""
        event = SimEvent(1, EventKind.EMISSION, 1, 1.0, frozenset({0}), {"arc": 2, "id": 7, "engine_time": 0.25})
        _, misread = parse_trace(_lines(_ROOT) + json.dumps(_record(event)) + "\n")
        assert (misread.id, misread.engine_time) == (7, 0.25)
        with pytest.raises(ValueError) as err:
            serialize_event(event)
        assert str(err.value) == "event 1: payload key 'id' is not a string or names a base field"

    @settings(max_examples=100)
    @given(trace=_finite_traces())
    def test_finite_traces_round_trip(self, trace):
        assert parse_trace(serialize_trace(trace)) == trace

    def test_parsed_events_reserialize_byte_for_byte(self, fixtures_dir):
        text = (fixtures_dir / "chain.expected-trace.jsonl").read_text()
        assert serialize_trace(parse_trace(text)) == text

    @pytest.mark.parametrize("events", _STREAM_EXAMPLES, ids=_STREAM_IDS)
    def test_stream_examples(self, events):
        _check_stream(events)

    @settings(max_examples=200)
    @given(events=_streams())
    def test_stream_writes_each_event_as_it_is_written_alone(self, events):
        _check_stream(events)

    def test_float_texts_stop_at_the_cap(self):
        """Once a stream holds ``_FLOAT_TEXTS`` float texts it keeps no more:
        20,000 more events whose floats are all new leave the traced peak
        under 64 KiB, where their texts would take over 2 MB."""
        def events() -> Iterator[SimEvent]:
            for i in range(_FLOAT_TEXTS + 20_000):
                if i == _FLOAT_TEXTS:  # the table is full; trace the rest
                    tracemalloc.start()
                yield SimEvent(i, EventKind.EMISSION, 1, 0.5, frozenset(), {"energy_ev": i + 0.5})

        try:
            assert write_events(events(), SimpleNamespace(write=len)) == _FLOAT_TEXTS + 20_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak

    @pytest.mark.parametrize("key", [3, (0, 1), "id", "engine_time", "parents"])
    def test_refused_key_after_the_key_texts_fill(self, key):
        """A stream keeps the text of each key it has checked, up to
        ``_KEY_TEXTS``; a key that is not a string or names a base field is
        still refused after the table has filled, and the stream goes on."""
        sink: list[str] = []
        events = [SimEvent(i, EventKind.EMISSION, 1, 0.5, frozenset(), {f"k{i}": 1, "arc": 2})
                  for i in range(_KEY_TEXTS + 10)]
        bad = SimEvent(len(events), EventKind.EMISSION, 1, 0.5, frozenset(), {"arc": 2, key: 1})
        message = f"event {bad.id}: payload key {key!r} is not a string or names a base field"
        with pytest.raises(ValueError) as err:
            write_events([*events, bad], SimpleNamespace(write=sink.append))
        assert str(err.value) == message
        assert "".join(sink) == serialize_trace(events)

    def test_key_texts_stop_at_the_cap(self):
        """Once a stream holds ``_KEY_TEXTS`` key texts it keeps no more:
        20,000 more events whose keys are all new leave the traced peak
        under 64 KiB, where their texts would take over 1 MB."""
        def events() -> Iterator[SimEvent]:
            for i in range(_KEY_TEXTS + 20_000):
                if i == _KEY_TEXTS:  # the table is full; trace the rest
                    tracemalloc.start()
                yield SimEvent(i, EventKind.EMISSION, 1, 0.5, frozenset(), {f"key number {i}": 1})

        try:
            assert write_events(events(), SimpleNamespace(write=len)) == _KEY_TEXTS + 20_000
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, peak


# -- the reader against the reference record check -----------------------

# Mixed JSON values: booleans, negative numbers, 2**64, ints beyond the
# float range, floats (no NaN, so events compare equal), strings, arrays,
# null and objects.
_MIXED = _values(finite=True) | st.sampled_from(
    [True, False, -1, -(2**64), 2**64, 2**64 - 1, 10**400, -(10**400), 1.5]
)


@st.composite
def _records(draw) -> dict:
    """A well-formed record of a random kind in which up to three base or
    payload fields are dropped or replaced by a mixed JSON value."""
    kind = draw(st.sampled_from(EventKind))
    record = {
        "id": draw(_U64), "kind": kind.value, "node": draw(_U64),
        "engine_time": draw(_floats(True)), "parents": draw(st.lists(_U64, max_size=3)),
    }
    if kind is EventKind.CLOCK_TICK:
        record.update(pulse_id=draw(_U64), counter=draw(st.integers()))
    elif kind is EventKind.DECAY:
        record.update({name: draw(_floats(True) | st.integers()) for name in ENTROPY_COLUMNS[1:]})
    record.update(draw(st.dictionaries(st.sampled_from(("reason", "arc", "note")), _MIXED, max_size=2)))
    kinds = st.sampled_from([k.value for k in EventKind])
    for name in draw(st.lists(st.sampled_from(list(record)), max_size=3, unique=True)):
        if draw(st.booleans()):
            del record[name]
        else:
            if name == "kind":
                record[name] = draw(kinds | _MIXED)
            elif name == "parents":
                record[name] = draw(st.lists(_U64 | _MIXED, max_size=3) | _MIXED)
            else:
                record[name] = draw(_MIXED)
    return record


def _outcome(read, *args):
    try:
        return read(*args)
    except ParseError as exc:
        return f"ParseError: {exc}"


class TestReaderAgainstReference:
    @settings(max_examples=400)
    @given(
        record=_records(),
        separators=st.sampled_from([(",", ":"), (", ", ": ")]),
        pad=st.sampled_from([("", ""), (" ", ""), ("", "\r"), ("\t", " ")]),
    )
    def test_same_event_or_same_message(self, record, separators, pad):
        line = pad[0] + json.dumps(record, separators=separators) + pad[1]
        expected = _outcome(reference_record_to_event, json.loads(line), "line 1")
        # In a trace, earlier events carry the record's well-formed parents
        # below its id, so the ids ascend.
        parents, event_id = record.get("parents"), record.get("id")
        below = event_id if type(event_id) is int else 2**64
        earlier = sorted(
            {p for p in parents if type(p) is int and 0 <= p < min(below, 2**64)}
            if type(parents) is list else ()
        )
        lineno = len(earlier) + 2
        from_trace = _outcome(parse_trace, "\n" + _lines(*({**_ROOT, "id": p} for p in earlier)) + line + "\n")
        if isinstance(expected, str):
            assert from_trace == expected.replace("line 1", f"line {lineno}", 1)
        elif max(expected.parents, default=-1) >= expected.id:
            later = min(p for p in expected.parents if p >= expected.id)
            assert from_trace == f"ParseError: line {lineno}: parent {later} is not the id of an earlier event"
        else:
            assert [e.id for e in from_trace[:-1]] == earlier
            assert from_trace[-1] == expected
