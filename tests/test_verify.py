"""``verify_trace`` names each defect planted in the golden chain trace."""

from __future__ import annotations

import math

import pytest

from fcnsim import verify_trace
from fcnsim.io import iter_trace, parse_network_file

_DROP = object()  # as a payload value: remove the field
# The event changed, its base and payload changes, and the problems with the
# chain network. The trace reader refuses the two "in memory" cases in a file.
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
    "parent-not-earlier-in-memory": (12, {"parents": frozenset({13})}, {}, ["12: parent 13 is not an earlier event"]),
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
    "decay-parent-not-its-exciter": (8, {"parents": frozenset({4})}, {}, [
        "8: its parent is not the event that excited excitation 1 at node 2"]),
    "excitation-id-not-an-integer": (8, {}, {"excitation_id": [1]}, [
        "8: its parent is not the event that excited excitation [1] at node 2"]),
    "emission-parent-not-a-decay": (9, {"parents": frozenset({5})}, {}, ["9: its parent is not a decay at node 2"]),
    "decay-energy-not-its-emissions": (3, {}, {"energy_ev": 1.4}, ["4: its energy_ev 1.5 is not decay 3's 1.4"]),
    "energy-not-conserved": (5, {}, {"energy_ev": 1.4}, ["5: its arc or energy_ev differs from emission 4's"]),
    "signal-arrives-twice": (10, {"parents": frozenset({4})}, {}, [
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
