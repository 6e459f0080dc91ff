"""``verify_trace`` names each defect planted in the golden chain trace,
and a trace with one random change is refused by the reader, reported by
``verify_trace`` or read by every reading command, which never crashes."""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fcnsim import EventKind, ParseError, parse_trace, serialize_trace, verify_trace
from fcnsim.cli import main
from fcnsim.io import _BASE_KEY_SET, iter_trace
from fcnsim.network import parse_network_file
from helpers import network_document, random_run

_DROP = object()  # as a payload value: remove the field
# The event changed, its base and payload changes, and the problems with the
# chain network. The trace reader refuses the three "in memory" cases in a file.
_DEFECTS = {
    "golden": (None, {}, {}, []),
    "second-decay": (8, {}, {"excitation_id": 0}, ["8: excitation 0 decays again; event 3 decayed it"]),
    "lifetime-1e-6": (3, {}, {"lifetime_s": 1.000001}, ["3: lifetime_s 1.000001 is not lifetime(gamma_ev) = 1.0"]),
    "absorption-before-the-event-before-it": (10, {"engine_time": 3.0}, {}, [
        "10: engine_time 3.0 is earlier than 3.5 of event 9",
        "10: arrives at node 3 at engine_time 3.0; arc 2 from emission 9 arrives at node 3 at 3.75"]),
    "arrival-1-ulp-late": (5, {"engine_time": math.nextafter(1.5, 2.0)}, {}, [
        "5: arrives at node 2 at engine_time 1.5000000000000002; arc 1 from emission 4 arrives at node 2 at 1.5"]),
    "arrival-at-another-node": (10, {"node": 2}, {}, [
        "10: arrives at node 2 at engine_time 3.75; arc 2 from emission 9 arrives at node 3 at 3.75"]),
    "pulse-counter": (6, {}, {"counter": 3}, [
        "6: clock 3: pulse 2 (tick 2) is at engine_time 2.0 with counter 3; the network declares 2.0 with counter 2"]),
    "id-not-ascending-in-memory": (12, {"id": 11}, {}, ["11: id is not greater than id 11 before it"]),
    "parent-not-earlier-in-memory": (12, {"parents": (13,)}, {}, ["12: parent 13 is not an earlier event"]),
    "two-parents-in-memory": (5, {"parents": (4, 3)}, {}, ["5: it has more than one parent"]),
    "total-not-the-sum": (3, {}, {"total": 7.0}, [
        "3: total 7.0 is not ds_internal + ds_signal + ds_vacuum = 5744.236470264064"]),
    "production-rate-doubled": (3, {}, {"production_rate": 11488.472940528129}, [
        "3: production_rate 11488.472940528129 is not total / lifetime_s = 5744.236470264064"]),
    "decay-without-gamma": (3, {}, {"gamma_ev": _DROP}, ["3: gamma_ev None gives no lifetime"]),
    "decay-with-gamma-0": (3, {}, {"gamma_ev": 0}, ["3: gamma_ev 0 gives no lifetime"]),
    "entropy-term-nan": (8, {}, {"ds_vacuum": math.nan}, [
        "8: entropy terms (-58.022590608727924, 5802.259060872792, nan) are not three finite numbers"]),
    "entropy-terms-sum-to-inf": (3, {}, {"ds_signal": 1.7976931348623157e308, "ds_vacuum": 1.7976931348623157e308}, [
        "3: total must be finite, got inf"]),
    "int-entropy-terms-sum-beyond-floats": (3, {}, {"ds_internal": 0, "ds_signal": 2**1023, "ds_vacuum": 2**1023}, [
        f"3: total must be finite, got {2**1024}"]),
    "decay-parent-not-its-exciter": (8, {"parents": (4,)}, {}, [
        "8: its parent is not the event that excited excitation 1 at node 2"]),
    "excitation-id-not-an-integer": (8, {}, {"excitation_id": [1]}, [
        "8: its parent is not the event that excited excitation [1] at node 2"]),
    "emission-parent-not-a-decay": (9, {"parents": (5,)}, {}, ["9: its parent is not a decay at node 2"]),
    "decay-energy-not-its-emissions": (3, {}, {"energy_ev": 1.4}, ["4: its energy_ev 1.5 is not decay 3's 1.4"]),
    "energy-not-conserved": (5, {}, {"energy_ev": 1.4}, ["5: its arc or energy_ev differs from emission 4's"]),
    "signal-arrives-twice": (10, {"parents": (4,)}, {}, [
        "10: its parent is not an emission whose signal is still in flight"]),
    "emission-on-no-arc-of-its-node": (9, {}, {"arc": 1}, [
        "9: arc 1 is not an arc of the network from node 2", "10: its arc or energy_ev differs from emission 9's"]),
    "tick-at-no-node": (12, {"node": 4}, {}, [
        "12: node 4 is not a node of the network", "12: node 4 ticks, but the network declares no clock there"]),
}


@pytest.mark.parametrize("eid, base, payload, expected", _DEFECTS.values(), ids=_DEFECTS.keys())
def test_planted_defect_is_named(fixtures_dir, eid, base, payload, expected):
    """Nothing raises, and a one-pass stream gives what a list gives."""
    network = parse_network_file(fixtures_dir / "chain.net.json").network
    trace = list(iter_trace(fixtures_dir / "chain.expected-trace.jsonl"))
    if eid is not None:
        changed = {k: v for k, v in {**trace[eid].payload, **payload}.items() if v is not _DROP}
        trace[eid] = trace[eid]._replace(**base, payload=changed)
    expected = [f"event {problem}" for problem in expected]
    assert verify_trace(trace, network) == expected
    assert verify_trace(iter(trace), network) == expected


# -- one change to a valid trace --------------------------------------------

_MUTATIONS = ("drop", "duplicate", "swap", "shift-time", "retarget-parent", "flip-kind", "replace-value")
_SHIFTS = (-1.0, -1e-9, 1e-9, 0.25, 100.0)
_KINDS = tuple(kind.value for kind in EventKind)
_BEYOND = "@1e999"  # as a value: the JSON literal 1e999, which decodes to an infinity
_VALUES = (_BEYOND, -1, 0, 0.5, 2**64, "x", None, [0], True)


def _mutant(lines: list[str], mutation: str, i: int, j: int, k: int) -> str:
    """The text of a trace's ``lines`` with one ``mutation`` at line ``i``:
    ``j`` picks the other line (a parent is its id) or the payload field,
    and ``k`` the shift, the kind or the value. Each index wraps around."""
    lines = list(lines)
    i, other = i % len(lines), j % len(lines)
    if mutation == "drop":
        del lines[i]
    elif mutation == "duplicate":
        lines.insert(other, lines[i])
    elif mutation == "swap":
        lines[i], lines[other] = lines[other], lines[i]
    else:
        record = json.loads(lines[i])
        if mutation == "shift-time":
            record["engine_time"] += _SHIFTS[k % len(_SHIFTS)]
        elif mutation == "retarget-parent":
            record["parents"] = [json.loads(lines[other])["id"]]
        elif mutation == "flip-kind":
            record["kind"] = _KINDS[k % len(_KINDS)]
        else:
            fields = sorted(record.keys() - _BASE_KEY_SET) or ["note"]
            record[fields[j % len(fields)]] = _VALUES[k % len(_VALUES)]
        lines[i] = json.dumps(record, separators=(",", ":")).replace(f'"{_BEYOND}"', "1e999")
    return "".join(line + "\n" for line in lines)


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    """Each valid trace the mutants come from, as its network, network
    document and lines; each holds a clock at node 3. Built once, so that
    each example only changes one of them."""
    work = tmp_path_factory.mktemp("mutants")
    fixtures = Path(__file__).resolve().parent.parent / "fixtures"
    chain_net = fixtures / "chain.net.json"
    made = {"golden-chain": (parse_network_file(chain_net).network, chain_net,
                             (fixtures / "chain.expected-trace.jsonl").read_text().splitlines())}
    network, injections, _, trace = random_run(224)
    net = work / "random-224.net.json"
    net.write_text(json.dumps(network_document(network, injections)))
    made["random-224"] = (network, net, serialize_trace(trace).splitlines())
    return work, made


@settings(max_examples=300, deadline=None)
@given(source=st.sampled_from(("golden-chain", "random-224")), mutation=st.sampled_from(_MUTATIONS),
       i=st.integers(0, 200), j=st.integers(0, 200), k=st.integers(0, 20))
def test_mutated_trace_is_refused_reported_or_read(sources, source, mutation, i, j, k):
    """The reader refuses the mutant with a ParseError, or ``verify_trace``
    returns its problems without raising. ``report``, ``entropy`` and
    ``timeline --net`` exit 0 or 2, and 2 whenever the reader refuses it."""
    work, made = sources
    network, net, lines = made[source]
    text = _mutant(lines, mutation, i, j, k)
    try:
        events = parse_trace(text)
    except ParseError:
        refused = True
    else:
        refused = False
        assert isinstance(verify_trace(events, network), list)
    trace = work / "mutant.jsonl"
    trace.write_text(text)
    for argv in (["report", str(trace)], ["entropy", str(trace), "--out", str(work / "e.csv")],
                 ["timeline", str(trace), "--clock", "3", "--net", str(net), "--out", str(work / "t.csv")]):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 2 if refused else code in (0, 2), (argv, err.getvalue())
