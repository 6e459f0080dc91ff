"""Command-line surface: exit codes, determinism, report output."""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import math
import os
import random
import signal
import subprocess
import sys
import textwrap
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fcnsim
from fcnsim.cli import main
from fcnsim.engine import _DECAY, Engine, RunConfig, SamplingMode
from fcnsim.events import EventKind
from fcnsim.io import iter_trace, parse_trace, serialize_trace
from fcnsim.network import parse_network_file
from fcnsim.verify import verify_trace
from helpers import SRC, mixed_network, network_document, random_network, run_fresh

# sha256 of ``run --until 5.0 --mode sto --seed 5`` on helpers.mixed_network,
# recorded from the engine that drew one scalar uniform per decay.
MIXED_STO_SHA256 = "de8a4124e9f8043b740a0c83fa6077e183f6458bb3da9e6841487150ed84c1de"


@pytest.fixture
def chain_net(fixtures_dir):
    return str(fixtures_dir / "chain.net.json")


@pytest.fixture
def chain_trace_file(chain_net, tmp_path):
    out = tmp_path / "trace.jsonl"
    assert main(["run", chain_net, "--until", "5.0", "--out", str(out)]) == 0
    return out


class TestValidate:
    def test_fixture_is_valid(self, chain_net, capsys):
        assert main(["validate", chain_net]) == 0
        assert "ok: 3 nodes" in capsys.readouterr().out

    def test_bad_document_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.net.json"
        bad.write_text(json.dumps({"schema_version": "1", "nodes": [
            {"id": 1, "ground_ev": 0.0, "excited_ev": 1.5, "wrong_field": 1}
        ]}))
        assert main(["validate", str(bad)]) == 2
        assert "wrong_field" in capsys.readouterr().err

    def test_missing_file_exits_2(self, tmp_path):
        assert main(["validate", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", ["validate", "timeline", "entropy", "report"])
    def test_directory_exits_2(self, command, tmp_path, capsys):
        """A directory given as the input is reported as a missing file is, not as a runtime error."""
        extra = ["--clock", "3"] if command == "timeline" else []
        assert main([command, str(tmp_path), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno 21] Is a directory") and str(tmp_path) in err

    @pytest.mark.parametrize("fraction", ["0", "-1", "nan"])
    def test_bad_coupling_fraction_prints_nothing_on_stdout(self, chain_net, fraction, capsys):
        assert main(["validate", chain_net, f"--coupling-fraction={fraction}"]) == 1
        assert capsys.readouterr() == (
            "", f"usage error: argument --coupling-fraction: expected a finite number > 0, got '{fraction}'\n"
        )

    def test_validation_problems_listed(self, tmp_path, capsys):
        bad = tmp_path / "bad.net.json"
        bad.write_text(json.dumps({
            "schema_version": "1",
            "nodes": [{"id": 1, "ground_ev": 0.0, "excited_ev": 1.5}],
            "arcs": [{"id": 1, "source": 1, "target": 99, "distance_m": 1.0}],
        }))
        assert main(["validate", str(bad)]) == 2
        assert "unknown target node 99" in capsys.readouterr().err


class TestRun:
    def test_same_seed_twice_is_byte_identical(self, chain_net, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = [chain_net, "--until", "5.0", "--mode", "sto", "--seed", "42"]
        assert main(["run", *args, "--out", str(a)]) == 0
        assert main(["run", *args, "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_deterministic_run_matches_golden(self, chain_net, tmp_path, fixtures_dir):
        out = tmp_path / "trace.jsonl"
        assert main(["run", chain_net, "--until", "5.0", "--out", str(out)]) == 0
        assert out.read_bytes() == (fixtures_dir / "chain.expected-trace.jsonl").read_bytes()

    def test_stdout_when_no_out(self, chain_net, capsys):
        assert main(["run", chain_net, "--until", "5.0"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 13

    def test_seed_range_writes_one_file_per_seed(self, chain_net, tmp_path):
        out = tmp_path / "trace.jsonl"
        code = main(["run", chain_net, "--until", "5.0", "--mode", "sto",
                     "--seeds", "1..3", "--out", str(out)])
        assert code == 0
        for seed in (1, 2, 3):
            assert (tmp_path / f"trace.seed{seed}.jsonl").exists()

    def test_seed_range_requires_stochastic(self, chain_net, tmp_path):
        code = main(["run", chain_net, "--until", "5.0",
                     "--seeds", "1..3", "--out", str(tmp_path / "t.jsonl")])
        assert code == 1

    def test_seed_range_requires_out(self, chain_net, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["run", chain_net, "--until", "5.0", "--mode", "sto", "--seeds", "1..2"]) == 1
        assert capsys.readouterr() == ("", "usage error: --seeds requires --out\n")
        assert list(tmp_path.iterdir()) == []

    def test_zero_horizon_is_runtime_error(self, chain_net, capsys):
        """Refused as a usage error (exit 1) where the flag is parsed; the name is kept."""
        assert main(["run", chain_net, "--until", "0"]) == 1
        assert capsys.readouterr() == ("", "usage error: argument --until: expected a finite number > 0, got '0'\n")

    @pytest.mark.parametrize("until", ["inf", "-inf", "nan"])
    def test_non_finite_horizon_is_runtime_error(self, chain_net, until, capsys):
        """Refused as a usage error (exit 1) where the flag is parsed; the name is kept."""
        assert main(["run", chain_net, f"--until={until}"]) == 1
        assert capsys.readouterr() == (
            "", f"usage error: argument --until: expected a finite number > 0, got '{until}'\n"
        )

    @pytest.mark.parametrize("flag, value", [
        ("--until", "-1"), ("--t-source", "inf"), ("--t-env", "0"), ("--vacuum-term", "nan"), ("--vacuum-term", "-inf"),
    ])
    def test_bad_flag_value_is_usage_error_before_any_event(self, chain_net, flag, value, capsys):
        """Each run flag value is checked where it is parsed: exit 1, nothing on stdout."""
        assert main(["run", chain_net, "--until", "5", f"{flag}={value}"]) == 1
        must = "a finite number" if flag == "--vacuum-term" else "a finite number > 0"
        assert capsys.readouterr() == ("", f"usage error: argument {flag}: expected {must}, got '{value}'\n")

    @pytest.mark.parametrize("clock, shown", [
        ({"period_s": 1e-20, "first_tick_s": 1.0}, "1e-20"),
        ({"period_s": 5e-324}, "5e-324"),
    ], ids=["1e-20-from-1", "5e-324"])
    @pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
    def test_clock_beyond_the_event_id_space_exits_2_before_any_event(
        self, fixtures_dir, tmp_path, clock, shown, out, capsys
    ):
        """Such a clock validates, but its ticks before the horizon alone
        would outnumber the unsigned 64-bit event ids a trace may hold. Its
        period is far within 2 ulps of the horizon, and that rule refuses it."""
        net = self.clock_network(fixtures_dir, tmp_path, clock)
        capsys.readouterr()
        trace = tmp_path / "trace.jsonl"
        assert main(["run", net, "--until", "3", *(["--out", str(trace)] if out else [])]) == 2
        assert capsys.readouterr() == ("", (
            f"error: clock 3: ticks every {shown} s could share an engine_time: "
            "the period is within 2 ulps of the horizon 3.0\n"
        ))
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json"]

    @staticmethod
    def clock_network(fixtures_dir, tmp_path, clock) -> str:
        """The chain fixture with one clock at node 3, which validates."""
        doc = json.loads((fixtures_dir / "chain.net.json").read_text())
        doc["standard_clocks"] = [{"id": 3, **clock}]
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        assert main(["validate", str(net)]) == 0
        return str(net)

    @pytest.mark.parametrize("clock, until, shown", [
        # About 10**14 ticks, the first 10**4 or so of them all at engine_time 1.0.
        ({"period_s": 1e-20, "first_tick_s": 1.0}, "1.000001", "1e-20 s could share an engine_time: "
         "the period is within 2 ulps of the horizon 1.000001"),
        # Exactly 2 ulps of the horizon, with a first tick 3 periods before it.
        ({"period_s": 2 * math.ulp(1.0), "first_tick_s": 1.0 - 6 * math.ulp(1.0)}, "1", "4.440892098500626e-16 s "
         "could share an engine_time: the period is within 2 ulps of the horizon 1.0"),
    ], ids=["1e-20-from-1", "2-ulps"])
    @pytest.mark.parametrize("out", [True, False], ids=["out", "stdout"])
    def test_clock_whose_ticks_could_share_an_engine_time_exits_2_before_any_event(
        self, fixtures_dir, tmp_path, clock, until, shown, out, capsys
    ):
        """Two ticks at one engine_time could not be counted apart. Above 2
        ulps of the horizon no two consecutive ticks round to one time."""
        net = self.clock_network(fixtures_dir, tmp_path, clock)
        capsys.readouterr()
        trace = tmp_path / "trace.jsonl"
        assert main(["run", net, "--until", until, *(["--out", str(trace)] if out else [])]) == 2
        assert capsys.readouterr() == ("", f"error: clock 3: ticks every {shown}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json"]

    def test_clock_just_above_two_ulps_of_the_horizon_runs(self, fixtures_dir, tmp_path, capsys):
        period = math.nextafter(2 * math.ulp(1.0), 1.0)
        net = self.clock_network(fixtures_dir, tmp_path, {"period_s": period, "first_tick_s": 1.0 - 3 * period})
        out = tmp_path / "trace.jsonl"
        assert main(["run", net, "--until", "1", "--out", str(out)]) == 0
        ticks = [e.engine_time for e in iter_trace(out) if e.kind is EventKind.CLOCK_TICK]
        assert len(ticks) == 4 and ticks == sorted(set(ticks)) and ticks[-1] <= 1.0

    @pytest.mark.parametrize(
        "flag, term",
        [("--t-env", "ds_signal must be finite, got inf"), ("--t-source", "ds_internal must be finite, got -inf")],
    )
    def test_temperature_too_small_for_k_b_t_is_refused_before_the_first_event(self, chain_net, flag, term, capsys):
        """k_B * 1e-320 K underflows to 0: the term it divides is infinite, so
        the engine refuses both decaying nodes before the first event."""
        assert main(["run", chain_net, "--until", "5", flag, "1e-320"]) == 2
        assert capsys.readouterr() == ("", f"error: node 1: {term}\nerror: node 2: {term}\n")

    @pytest.mark.parametrize(
        "flag, value", [(["--seed", "-1"], "-1"), (["--seed=-3"], "-3")], ids=["-1", "--seed=-3"]
    )
    def test_negative_seed_is_usage_error(self, chain_net, tmp_path, flag, value, capsys):
        args = ["run", chain_net, "--until", "5.0", "--mode", "sto", *flag, "--out", str(tmp_path / "t.jsonl")]
        assert main(args) == 1
        assert capsys.readouterr().err == (
            f"usage error: argument --seed: expected a non-negative integer, got '{value}'\n"
        )
        assert not (tmp_path / "t.jsonl").exists()

    def test_stochastic_run_matches_pinned_digest(self, tmp_path):
        net, injections = mixed_network()
        doc = tmp_path / "mixed.net.json"
        doc.write_text(json.dumps(network_document(net, injections)))
        assert parse_network_file(doc).network == net
        out = tmp_path / "trace.jsonl"
        args = ["run", str(doc), "--until", "5.0", "--mode", "sto", "--seed", "5", "--out", str(out)]
        assert main(args) == 0
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert sum(r["kind"] == "decay" for r in records) > 1024
        reasons = {r["reason"] for r in records if r["kind"] == "pass_through"}
        assert reasons == {"occupied", "off_resonance", "not_detector"}
        assert hashlib.sha256(out.read_bytes()).hexdigest() == MIXED_STO_SHA256


class TestRunStreams:
    """``run`` writes each event as the engine produces it: the bytes are those
    of the in-process trace, and a failed run leaves no partial file."""

    @pytest.fixture
    def mixed_net(self, tmp_path):
        net, injections = mixed_network()
        path = tmp_path / "net" / "mixed.net.json"
        path.parent.mkdir()
        path.write_text(json.dumps(network_document(net, injections)))
        return str(path)

    @staticmethod
    def in_process(net_path: str, mode: SamplingMode, seed: int) -> str:
        doc = parse_network_file(net_path)
        config = RunConfig(run_until_s=5.0, mode=mode, seed=seed)
        return serialize_trace(Engine(doc.network, config, [(i.node, i.at_s) for i in doc.injections]).run())

    @pytest.mark.parametrize("mode", list(SamplingMode), ids=lambda m: m.value[:3])
    def test_out_and_stdout_equal_in_process_trace(self, mixed_net, tmp_path, mode, capsys):
        expected = self.in_process(mixed_net, mode, 4)
        assert expected.count("\n") > 1000
        args = ["run", mixed_net, "--until", "5", "--mode", mode.value[:3], "--seed", "4"]
        out = tmp_path / "trace.jsonl"
        assert main([*args, "--out", str(out)]) == 0
        assert out.read_bytes() == expected.encode()
        err = f"run: {expected.count(chr(10))} events, until 5.0\n"
        assert capsys.readouterr().err == err
        assert main(args) == 0
        assert capsys.readouterr() == (expected, err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net", "trace.jsonl"]

    def test_each_seed_file_equals_in_process_trace(self, mixed_net, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["run", mixed_net, "--until", "5", "--mode", "sto", "--seeds", "2..4", "--out", str(out)]) == 0
        err = []
        for seed in (2, 3, 4):
            expected = self.in_process(mixed_net, SamplingMode.STOCHASTIC, seed)
            path = tmp_path / f"trace.seed{seed}.jsonl"
            assert path.read_bytes() == expected.encode()
            err.append(f"run: seed {seed}: {expected.count(chr(10))} events -> {path}\n")
        assert capsys.readouterr().err == "".join(err)
        assert len(list(tmp_path.iterdir())) == 4

    # With k_B * T underflowing to 0 the engine refuses both decaying nodes (exit 2).
    FAILING = ["--until", "5", "--t-env", "1e-320"]
    FAILURE = "error: node 1: ds_signal must be finite, got inf\nerror: node 2: ds_signal must be finite, got inf\n"

    @pytest.mark.parametrize("existing", [None, b"earlier\nbytes"], ids=["new", "existing"])
    def test_failed_run_leaves_out_as_it_was(self, chain_net, tmp_path, existing, capsys):
        out = tmp_path / "trace.jsonl"
        if existing is not None:
            out.write_bytes(existing)
        assert main(["run", chain_net, *self.FAILING, "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", self.FAILURE)
        assert [p.name for p in tmp_path.iterdir()] == ([] if existing is None else ["trace.jsonl"])
        if existing is not None:
            assert out.read_bytes() == existing

    def test_failed_seed_run_writes_no_seed_file(self, chain_net, tmp_path, capsys):
        out = tmp_path / "trace.jsonl"
        assert main(["run", chain_net, *self.FAILING, "--mode", "sto", "--seeds", "1..3", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", self.FAILURE)
        assert list(tmp_path.iterdir()) == []

    def test_failed_run_on_stdout_leaves_whole_lines(self, chain_net, fixtures_dir, monkeypatch, capsys):
        """The events before the failing decay stay on stdout, each a whole
        line; stderr holds the error alone, as when nothing was written. No
        input makes a started run fail, so the decay handler is made to."""

        def fail(engine, occ):
            raise ValueError("the decay failed")

        handlers = list(Engine._handlers)
        handlers[_DECAY] = fail
        monkeypatch.setattr(Engine, "_handlers", tuple(handlers))
        assert main(["run", chain_net, "--until", "5"]) == 3
        captured = capsys.readouterr()
        assert captured.err == "runtime error: the decay failed\n"
        golden = (fixtures_dir / "chain.expected-trace.jsonl").read_text().splitlines(keepends=True)
        first_decay = next(i for i, line in enumerate(golden) if '"kind":"decay"' in line)
        assert first_decay > 0
        assert captured.out == "".join(golden[:first_decay])

    @pytest.mark.parametrize("slash, exists", [("", True), ("/", True), ("/", False)],
                             ids=["bare", "slash", "missing-slash"])
    @pytest.mark.parametrize("seeds", [[], ["--mode", "sto", "--seeds", "1..2"]], ids=["one", "seeds"])
    def test_out_naming_a_directory_exits_2_before_any_engine_runs(
        self, chain_net, tmp_path, slash, exists, seeds, capsys
    ):
        """Nothing is written beside the directory or in it, not even a
        temporary file or a per-seed trace. A trailing separator names a
        directory whether or not it exists, so no file of that name is made."""
        out = tmp_path / "traces"
        if exists:
            out.mkdir()
        assert main(["run", chain_net, "--until", "5", *seeds, "--out", f"{out}{slash}"]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 21] Is a directory: '{out}{slash}'\n")
        assert [p.name for p in tmp_path.rglob("*")] == (["traces"] if exists else [])

    def test_out_in_a_missing_directory_names_that_path(self, chain_net, tmp_path, capsys):
        out = tmp_path / "missing" / "t.jsonl"
        assert main(["run", chain_net, "--until", "5", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: [Errno 2] No such file or directory: '{out}'\n")
        assert list(tmp_path.iterdir()) == []


    @pytest.mark.parametrize("node, problem", [
        # a 1e-305 s lifetime: an infinite production_rate
        ({"gamma_ev": 6.582119569e289}, "node 1: production_rate must be finite, got inf"),
    ], ids=["production-rate"])
    def test_non_finite_value_is_refused_before_the_first_event(self, fixtures_dir, tmp_path, node, problem, capsys):
        """No trace reader accepts a NaN or an infinity, so ``run`` writes none:
        the engine refuses the node before the first event, and ``run`` exits
        2 naming it, leaves ``--out`` as it was and writes nothing to stdout.
        ``validate`` refuses it with the same line, from the same code.
        (A lifetime or wavelength that is not a finite normal float is
        refused with the network.)"""
        doc = json.loads((fixtures_dir / "chain.net.json").read_text())
        doc["nodes"][0].update(node)
        net = tmp_path / "net.json"
        net.write_text(json.dumps(doc))
        out = tmp_path / "trace.jsonl"
        out.write_bytes(b"earlier\nbytes")
        assert main(["run", str(net), "--until", "5", "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"error: {problem}\n")
        assert out.read_bytes() == b"earlier\nbytes"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["net.json", "trace.jsonl"]
        assert main(["run", str(net), "--until", "5"]) == 2
        assert capsys.readouterr() == ("", f"error: {problem}\n")
        assert main(["validate", str(net)]) == 2
        assert capsys.readouterr() == ("", f"error: {problem}\n")


_CHAIN_DOC = json.loads((Path(__file__).resolve().parent.parent / "fixtures" / "chain.net.json").read_text())
_FIELDS = {  # per section of the chain document, the fields its objects may hold
    "nodes": ("id", "ground_ev", "excited_ev", "gamma_ev", "position_m", "can_emit"),
    "arcs": ("id", "source", "target", "distance_m"),
    "standard_clocks": ("id", "period_s", "first_tick_s", "counter_start"),
    "injections": ("node", "at_s"),
}
_PLACES = [(section, i, field) for section, fields in _FIELDS.items()
           for i in range(len(_CHAIN_DOC[section])) for field in fields]
_DROP = object()  # as a mutation's value: remove the field
_EXTREMES = (0.0, 5e-324, 1e308, 2**70)
_VALUES = (_DROP, None, "1.5", [1.5], True, {}, *_EXTREMES, *(-x for x in _EXTREMES))
_TEMPERATURES = [None, "5e-324", "1e-320", "1e-304", "1e-300", "1e308"]
# No entropy flag, or each of the three flags absent or extreme.
_ENTROPY_FLAGS = st.one_of(st.just({}), st.fixed_dictionaries({
    "t-source": st.sampled_from(_TEMPERATURES), "t-env": st.sampled_from(_TEMPERATURES),
    "vacuum-term": st.sampled_from([None, "-1e308", "5e-324", "1e308"])}))


@pytest.fixture(scope="module")
def net(tmp_path_factory):
    """Where each example writes its document."""
    return tmp_path_factory.mktemp("mutated") / "net.json"


@settings(max_examples=500, deadline=None)
@given(place=st.sampled_from(_PLACES), value=st.sampled_from(_VALUES), entropy=_ENTROPY_FLAGS)
# Nodes that run refuses under its default flags: an infinite production_rate, an infinite ds_signal.
@example(place=("nodes", 0, "gamma_ev"), value=6.582119569e289, entropy={})
@example(place=("nodes", 1, "excited_ev"), value=1e308, entropy={})
def test_every_input_exits_0_1_or_2_and_writes_only_whole_traces(net, place, value, entropy):
    """One field of one node, arc, clock or injection of the chain document
    dropped, retyped or set to an extreme number, and extreme entropy flags:
    ``validate`` and ``run`` exit 0, 1 or 2, never 3, with empty stdout on a
    non-zero exit, and every trace a run writes holds. With a node mutated
    and the default entropy flags, ``validate`` exits as ``run`` does."""
    section, index, field = place
    doc = {**_CHAIN_DOC, section: [dict(obj) for obj in _CHAIN_DOC[section]]}
    if value is _DROP:
        doc[section][index].pop(field, None)
    else:
        doc[section][index][field] = value
    net.write_text(json.dumps(doc))
    flags = [f"--{name}={flag}" for name, flag in entropy.items() if flag is not None]
    codes = []
    for argv in (["validate", str(net)], ["run", str(net), "--until", "3", *flags]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            codes.append(code := main(argv))
        assert code in (0, 1, 2), (argv, err.getvalue())
        if code:
            assert out.getvalue() == "", argv
        elif argv[0] == "run":
            assert verify_trace(parse_trace(out.getvalue()), parse_network_file(net).network) == []
    if section == "nodes" and not flags:
        assert codes[0] == codes[1], codes


class TestTimeline:
    def test_matches_golden(self, chain_trace_file, tmp_path, fixtures_dir):
        out = tmp_path / "timeline.csv"
        code = main(["timeline", str(chain_trace_file), "--clock", "3", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (fixtures_dir / "chain.expected-timeline.csv").read_bytes()

    def test_unknown_clock_exits_2_and_names_id(self, chain_trace_file, capsys):
        assert main(["timeline", str(chain_trace_file), "--clock", "777"]) == 2
        assert capsys.readouterr() == ("", "error: clock 777: no pulses in trace\n")

    def test_net_supplied_clock_spec(self, chain_trace_file, chain_net, tmp_path, fixtures_dir):
        out = tmp_path / "timeline.csv"
        code = main(["timeline", str(chain_trace_file), "--clock", "3",
                     "--net", chain_net, "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (fixtures_dir / "chain.expected-timeline.csv").read_bytes()

    def test_stdout_output(self, chain_trace_file, capsys):
        assert main(["timeline", str(chain_trace_file), "--clock", "3"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "event_id,node,pulse_id,label,time_number_s"
        assert out.splitlines()[1] == "5,2,1,1,1.0"

    @pytest.fixture
    def offset_clock(self, fixtures_dir, tmp_path):
        """The chain run with clock 3 at period 0.3 from 0.1: its first two
        pulses are 0.30000000000000004 apart, not 0.3."""
        doc = json.loads((fixtures_dir / "chain.net.json").read_text())
        doc["standard_clocks"][0].update(period_s=0.3, first_tick_s=0.1)
        net = tmp_path / "offset.net.json"
        net.write_text(json.dumps(doc))
        trace = tmp_path / "offset.jsonl"
        assert main(["run", str(net), "--until", "5.0", "--out", str(trace)]) == 0
        return doc, net, trace

    def test_time_numbers_do_not_depend_on_net(self, offset_clock, capsys):
        _, net, trace = offset_clock
        assert main(["timeline", str(trace), "--clock", "3"]) == 0
        plain = capsys.readouterr().out
        assert [row.split(",")[-1] for row in plain.splitlines()[1:]] == ["1.3", "3.6999999999999997"]
        assert main(["timeline", str(trace), "--clock", "3", "--net", str(net)]) == 0
        assert capsys.readouterr().out == plain

    def test_net_without_that_clock_exits_2_and_names_node(self, chain_trace_file, chain_net, capsys):
        assert main(["timeline", str(chain_trace_file), "--clock", "2", "--net", chain_net]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: no standard clock at node 2 in {chain_net}\n"
        assert captured.out == ""

    @pytest.mark.parametrize(
        "change, message",
        [
            (
                {"period_s": 0.25},
                "pulse 1 (tick 1) is at engine_time 0.4 with counter 1; {net} declares 0.35 with counter 1",
            ),
            (
                {"counter_start": 7},
                "pulse 0 (tick 0) is at engine_time 0.1 with counter 0; {net} declares 0.1 with counter 7",
            ),
        ],
        ids=["period", "counter"],
    )
    def test_net_disagreeing_with_recorded_pulses_exits_2(self, offset_clock, tmp_path, change, message, capsys):
        doc, _, trace = offset_clock
        doc["standard_clocks"][0].update(change)
        net = tmp_path / "other.net.json"
        net.write_text(json.dumps(doc))
        assert main(["timeline", str(trace), "--clock", "3", "--net", str(net)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: clock 3: {message.format(net=net)}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("with_net", [False, True], ids=["plain", "net"])
    def test_clock_that_never_ticked_exits_2(self, fixtures_dir, tmp_path, with_net, capsys):
        """A clock declared to start after the run has no pulses in the
        trace; ``--net`` only adds checks, so it refuses it as plain
        ``timeline`` does."""
        doc = json.loads((fixtures_dir / "chain.net.json").read_text())
        doc["standard_clocks"][0].update(first_tick_s=10.0)
        net = tmp_path / "late.net.json"
        net.write_text(json.dumps(doc))
        trace = tmp_path / "late.jsonl"
        assert main(["run", str(net), "--until", "5.0", "--out", str(trace)]) == 0
        capsys.readouterr()
        out = tmp_path / "timeline.csv"
        argv = ["timeline", str(trace), "--clock", "3", "--out", str(out)]
        assert main(argv + (["--net", str(net)] if with_net else [])) == 2
        assert capsys.readouterr() == ("", "error: clock 3: no pulses in trace\n")
        assert not out.exists()

    def test_bad_net_is_reported_before_bad_trace(self, chain_trace_file, chain_net, capsys):
        """``--net`` is read first, so with both inputs malformed the network is named."""
        _set_on_first(chain_trace_file, "absorption", "parents", [99])
        assert main(["timeline", str(chain_trace_file), "--clock", "2", "--net", chain_net]) == 2
        assert capsys.readouterr().err == f"error: no standard clock at node 2 in {chain_net}\n"


class TestEntropy:
    def test_columns_and_rows(self, chain_trace_file, capsys):
        assert main(["entropy", str(chain_trace_file)]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert lines[0] == "event_id,ds_internal,ds_signal,ds_vacuum,total,production_rate,lifetime_s"
        assert len(lines) == 3
        assert "0 second-law violations" in captured.err

    def test_file_output(self, chain_trace_file, tmp_path):
        out = tmp_path / "entropy.csv"
        assert main(["entropy", str(chain_trace_file), "--out", str(out)]) == 0
        rows = out.read_text().splitlines()
        assert rows[1].startswith("3,") and rows[2].startswith("8,")


class TestReport:
    def test_summary(self, chain_trace_file, capsys):
        assert main(["report", str(chain_trace_file)]) == 0
        out = capsys.readouterr().out
        assert "events: 13" in out
        assert "absorption: 2" in out
        assert "clock 3" in out
        assert "0 indistinguishable pairs" in out


def _rewrite_first(path: Path, kind: str, drop: tuple[str, ...]) -> int:
    """Remove ``drop`` from the first record of ``kind``; return its line number."""
    lines = path.read_text().splitlines()
    for lineno, line in enumerate(lines, start=1):
        record = json.loads(line)
        if record["kind"] == kind:
            lines[lineno - 1] = json.dumps({k: v for k, v in record.items() if k not in drop})
            path.write_text("\n".join(lines) + "\n")
            return lineno
    raise AssertionError(f"no {kind} record in {path}")


def _set_on_first(path: Path, kind: str, field: str, value) -> int:
    """Set ``field`` of the first record of ``kind``; return its line number."""
    lines = path.read_text().splitlines()
    lineno = next(n for n, line in enumerate(lines, start=1) if json.loads(line)["kind"] == kind)
    lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), field: value})
    path.write_text("\n".join(lines) + "\n")
    return lineno


ANALYSES = [["timeline", "--clock", "3"], ["entropy"], ["report"]]


class TestMalformedTrace:
    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    def test_repeated_event_id_exits_2(self, chain_trace_file, command, capsys):
        lines = chain_trace_file.read_text().splitlines()
        chain_trace_file.write_text("\n".join([*lines, lines[-1]]) + "\n")
        assert main([command[0], str(chain_trace_file), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 14: event id 12 is not greater than id 12 on line 13\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    def test_descending_event_id_exits_2(self, chain_trace_file, command, capsys):
        lines = chain_trace_file.read_text().splitlines()
        chain_trace_file.write_text("\n".join([*lines, lines[-2]]) + "\n")
        assert main([command[0], str(chain_trace_file), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: line 14: event id 11 is not greater than id 12 on line 13\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    @pytest.mark.parametrize("parent", [99, 12], ids=["unknown", "later"])
    def test_parent_naming_no_earlier_event_exits_2(self, chain_trace_file, command, parent, capsys):
        lineno = _set_on_first(chain_trace_file, "absorption", "parents", [parent])
        assert main([command[0], str(chain_trace_file), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line {lineno}: parent {parent} is not the id of an earlier event\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    def test_engine_time_beyond_float_range_exits_2(self, chain_trace_file, command, capsys):
        lineno = _set_on_first(chain_trace_file, "absorption", "engine_time", 10**400)
        assert main([command[0], str(chain_trace_file), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line {lineno}: 'engine_time' is beyond the float range\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    @pytest.mark.parametrize("literal", ["1e999", "-1e999"])
    @pytest.mark.parametrize("kind, field", [("absorption", "engine_time"), ("decay", "lifetime_s")])
    def test_float_literal_beyond_range_exits_2(self, chain_trace_file, command, kind, field, literal, capsys):
        lineno = _set_on_first(chain_trace_file, kind, field, "@")
        chain_trace_file.write_text(chain_trace_file.read_text().replace('"@"', literal))
        assert main([command[0], str(chain_trace_file), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line {lineno}: '{field}' is beyond the float range\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    @pytest.mark.parametrize("kind, field, value, literal", [
        ("absorption", "engine_time", math.nan, "NaN"),
        ("decay", "lifetime_s", math.inf, "Infinity"),
    ], ids=["nan-time", "infinite-lifetime"])
    def test_non_finite_literal_exits_2(self, chain_trace_file, command, kind, field, value, literal, capsys):
        lineno = _set_on_first(chain_trace_file, kind, field, value)
        assert main([command[0], str(chain_trace_file), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: line {lineno}: invalid JSON: non-finite number literal '{literal}' is not allowed\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    @pytest.mark.parametrize("kind, field, value, message", [
        ("decay", "note", "[" * 100_000 + "]" * 100_000, "maximum recursion depth exceeded"),
        ("absorption", "node", "7" * 5001, "Exceeds the limit (4300 digits) for integer string conversion"),
    ], ids=["deep-nesting", "digit-limit"])
    def test_undecodable_json_exits_2(self, chain_trace_file, command, kind, field, value, message, capsys):
        lineno = _set_on_first(chain_trace_file, kind, field, "@")
        chain_trace_file.write_text(chain_trace_file.read_text().replace('"@"', value))
        assert main([command[0], str(chain_trace_file), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: line {lineno}: invalid JSON: {message}")
        assert captured.out == ""

    @pytest.mark.parametrize("command", ANALYSES, ids=lambda c: c[0])
    def test_bad_byte_is_reported_before_an_earlier_bad_line(self, chain_trace_file, command, capsys):
        _set_on_first(chain_trace_file, "absorption", "parents", [99])
        with open(chain_trace_file, "ab") as fp:
            fp.write(b'{"note": "\xff"}\n')
        lines = chain_trace_file.read_bytes().count(b"\n")
        assert main([command[0], str(chain_trace_file), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: line {lines}: invalid UTF-8: invalid start byte\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", [["timeline", "--clock", "3"], ["report"]], ids=lambda c: c[0])
    def test_pulses_going_back_in_time_exit_2(self, tmp_path, command, capsys):
        """Clock 3 ticks at 0.0, 2.0, then 1.0: floor pairing would label the
        absorption at 1.5 with the wrong pulse, so the commands refuse it."""
        ticks = [
            {"id": k, "kind": "clock_tick", "node": 3, "engine_time": t, "parents": [], "pulse_id": k, "counter": k}
            for k, t in enumerate((0.0, 2.0, 1.0))
        ]
        trace = tmp_path / "trace.jsonl"
        trace.write_text("".join(json.dumps(r) + "\n" for r in [*ticks, {
            "id": 3, "kind": "absorption", "node": 1, "engine_time": 1.5, "parents": [], "arc": 1,
        }]))
        assert main([command[0], str(trace), *command[1:]]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: clock 3: pulse 2 at engine_time 1.0 is earlier than the pulse before it\n"
        assert captured.out == ""

    def test_report_on_tick_without_pulse_id_exits_2(self, chain_trace_file, capsys):
        lineno = _rewrite_first(chain_trace_file, "clock_tick", ("pulse_id",))
        assert main(["report", str(chain_trace_file)]) == 2
        assert capsys.readouterr().err == f"error: line {lineno}: missing field(s): pulse_id\n"

    def test_entropy_on_decay_without_entropy_columns_exits_2(self, chain_trace_file, capsys):
        columns = ("ds_internal", "ds_signal", "ds_vacuum", "total", "production_rate", "lifetime_s")
        lineno = _rewrite_first(chain_trace_file, "decay", columns)
        assert main(["entropy", str(chain_trace_file)]) == 2
        assert capsys.readouterr().err == (
            f"error: line {lineno}: missing field(s): {', '.join(columns)}\n"
        )


def test_run_killed_by_sigterm_leaves_no_temporary_file(tmp_path):
    """A run killed by SIGTERM while it writes removes its temporary file,
    leaves the prior ``--out`` as it was, and still ends killed by SIGTERM."""
    net, out = tmp_path / "fast.net.json", tmp_path / "out.jsonl"
    net.write_text(json.dumps({
        "schema_version": "1",
        "nodes": [{"id": 1, "ground_ev": 0.0, "excited_ev": 1.5}],
        "standard_clocks": [{"id": 1, "period_s": 1e-6}],
    }))
    out.write_bytes(b"prior\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "fcnsim.cli", "run", str(net), "--until", "1000", "--out", str(out)],
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=env,
    )
    try:
        deadline = time.monotonic() + 10
        while not list(tmp_path.glob(".*.tmp")):
            assert proc.poll() is None and time.monotonic() < deadline, "no temporary file"
            time.sleep(0.01)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=10) == -signal.SIGTERM
    finally:
        proc.kill()
        proc.wait()
    assert list(tmp_path.glob(".*.tmp")) == []
    assert out.read_bytes() == b"prior\n"


def test_run_memory_does_not_grow_with_horizon(tmp_path):
    """``run --out`` holds no trace: on a network with only a clock (1000
    ticks per second), the traced peak at 4 s stays within 10% of the peak
    at 1 s, where a run that kept its 4000 events would hold about 2 MB more."""
    net = tmp_path / "clock.net.json"
    net.write_text(json.dumps({
        "schema_version": "1",
        "nodes": [{"id": 1, "ground_ev": 0.0, "excited_ev": 1.5}],
        "standard_clocks": [{"id": 1, "period_s": 0.001}],
    }))

    def peak(until: str) -> int:
        tracemalloc.start()
        try:
            assert main(["run", str(net), "--until", until, "--out", str(tmp_path / "t.jsonl")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("1")  # warm-up: first-use caches are not the run's memory
    once, four_times = peak("1"), peak("4")
    assert four_times <= 1.1 * once + 64 * 1024, (once, four_times)


def test_run_memory_does_not_grow_with_horizon_when_payload_floats_repeat(tmp_path):
    """Two relays pass one excitation back and forth, a decay about every
    3 ms, so every decay and emission repeats its node's payload floats:
    the writer keeps one text per distinct value, and the traced peak at
    4 s (about 4000 events) stays within 10% of the peak at 1 s."""
    net = tmp_path / "relays.net.json"
    net.write_text(json.dumps({
        "schema_version": "1",
        "nodes": [{"id": i, "ground_ev": 0.0, "excited_ev": 1.5, "gamma_ev": 2.2e-13} for i in (1, 2)],
        "arcs": [{"id": 1, "source": 1, "target": 2, "distance_m": 3.0},
                 {"id": 2, "source": 2, "target": 1, "distance_m": 3.0}],
        "injections": [{"node": 1, "at_s": 0.0}],
    }))
    out = tmp_path / "t.jsonl"

    def peak(until: str) -> int:
        tracemalloc.start()
        try:
            assert main(["run", str(net), "--until", until, "--out", str(out)]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak("1")  # warm-up: first-use caches are not the run's memory
    once, four_times = peak("1"), peak("4")
    assert out.read_text().count('"kind":"decay"') > 1000
    assert four_times <= 1.1 * once + 64 * 1024, (once, four_times)


def test_entropy_memory_does_not_grow_with_other_events(tmp_path):
    """``entropy`` keeps the decay rows and no event: with 1000 decays, a
    trace with 4x the other events (1000 emissions instead of 250) peaks
    within 10% of the smaller one. A reader that kept the events would
    hold about 1 MB more; the reader's table of seen ids grows by less
    than 100 bytes per event."""
    root = {"id": 0, "kind": "external_excitation", "node": 1, "engine_time": 0.0, "parents": [],
            "excitation_id": 0, "energy_ev": 1.5}
    decay = {"kind": "decay", "node": 1, "engine_time": 1.0, "parents": [0], "excitation_id": 0,
             "energy_ev": 1.5, "gamma_ev": 1e-15, "ds_internal": -58.0, "ds_signal": 5802.25,
             "ds_vacuum": 0.0, "total": 5744.25, "production_rate": 13442.5, "lifetime_s": 0.4}
    trace = tmp_path / "t.jsonl"

    def peak(others: int) -> int:
        emissions = ({"id": i, "kind": "emission", "node": 1, "engine_time": 0.5, "parents": [i - 1],
                      "arc": 1, "energy_ev": 1.5, "wavelength_nm": 826.5} for i in range(1, others + 1))
        decays = ({**decay, "id": others + i, "lifetime_s": 0.4 + i} for i in range(1, 1001))
        trace.write_text("".join(json.dumps(r) + "\n" for r in (root, *emissions, *decays)))
        tracemalloc.start()
        try:
            assert main(["entropy", str(trace), "--out", str(tmp_path / "e.csv")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(250)  # warm-up: first-use caches are not the command's memory
    once, four_times = peak(250), peak(1000)
    assert four_times <= 1.1 * once + 64 * 1024, (once, four_times)


class TestCycleCollector:
    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("outcome", [0, 2, 3])
    def test_main_restores_collector_state(self, chain_trace_file, chain_net, enabled, outcome, capsys):
        argv = {
            0: ["report", str(chain_trace_file)],
            2: ["entropy", str(chain_net)],  # a network document is not a trace
            3: ["entropy", str(chain_trace_file), "--out", "/dev/full"],  # ENOSPC
        }[outcome]
        was = gc.isenabled()
        try:
            gc.enable() if enabled else gc.disable()
            assert main(argv) == outcome
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if was else gc.disable()

    def test_command_runs_with_collector_paused(self, chain_trace_file, monkeypatch):
        seen = []
        monkeypatch.setitem(fcnsim.cli._COMMANDS, "report", lambda args: seen.append(gc.isenabled()) or 0)
        assert gc.isenabled()
        assert main(["report", str(chain_trace_file)]) == 0
        assert seen == [False] and gc.isenabled()

    def test_cyclic_garbage_does_not_grow_with_trace_length(self, chain_net, tmp_path, capsys):
        """What the collector finds after each command is the same few hundred
        objects on a 13-event trace and on a ~5700-event one."""
        net, injections = random_network(random.Random(22))
        big_net = tmp_path / "big.net.json"
        big_net.write_text(json.dumps(network_document(net, injections)))

        def garbage(net_path: str, until: str, clock: int, name: str) -> tuple[list[int], int]:
            trace = str(tmp_path / f"{name}.jsonl")
            found = []
            for argv in (
                ["run", net_path, "--until", until, "--mode", "sto", "--seed", "1", "--out", trace],
                ["run", net_path, "--until", until, "--out", trace],
                ["timeline", trace, "--clock", str(clock)],
                ["entropy", trace],
                ["report", trace],
            ):
                assert main(argv) == 0  # warm-up: imports and first-call caches
                was = gc.isenabled()
                gc.disable()
                try:
                    gc.collect()
                    assert main(argv) == 0
                    found.append(gc.collect())
                finally:
                    gc.enable() if was else gc.disable()
            capsys.readouterr()
            return found, len(tuple(iter_trace(trace)))

        small, small_events = garbage(chain_net, "5", 3, "chain")
        large, large_events = garbage(str(big_net), "200", net.clocks[0].id, "big")
        assert (small_events, large_events) == (13, 5712)
        assert large == small
        assert max(small) < 1000


_NUMPY_PROBE = textwrap.dedent(
    """\
    import sys
    from fcnsim.cli import main

    net, out = sys.argv[1], sys.argv[2]
    trace = out + "/trace.jsonl"
    assert main(["validate", net]) == 0
    assert main(["run", net, "--until", "5.0", "--out", trace]) == 0
    assert main(["timeline", trace, "--clock", "3", "--out", out + "/timeline.csv"]) == 0
    assert main(["entropy", trace, "--out", out + "/entropy.csv"]) == 0
    assert main(["report", trace]) == 0
    assert main(["run", net, "--until", "5.0", "--mode", "sto", "--out", trace]) == 0
    """
)


def test_only_stochastic_runs_import_numpy(chain_net, tmp_path):
    """No command loads numpy, stochastic runs included: the engine
    computes its PCG64 stream itself, and numpy is only the tests' oracle."""
    proc = run_fresh(chain_net, str(tmp_path), code=_NUMPY_PROBE)
    assert proc.returncode == 0, proc.stderr
    assert "numpy" not in proc.modules


def test_cli_import_leaves_dataclasses_out():
    """Every command starts a process; the value types are NamedTuples, so
    importing the CLI loads no ``dataclasses`` (nor ``inspect``, which it
    pulls in)."""
    proc = run_fresh(code="import fcnsim.cli")
    assert proc.returncode == 0, proc.stderr
    assert not {"dataclasses", "inspect"} & proc.modules


def test_package_import_loads_no_submodule():
    """``import fcnsim`` alone loads none of its modules: each name is
    imported from its module on first use."""
    proc = run_fresh(code="import fcnsim")
    assert proc.returncode == 0, proc.stderr
    assert proc.fcnsim_modules == {"fcnsim"}


_CLI = {"fcnsim", "fcnsim.cli", "fcnsim.errors"}  # what every command loads
_NETWORK = {"fcnsim.network", "fcnsim.quantum", "fcnsim.constants"}  # what reading a network document adds


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["validate", "{net}"], {"fcnsim.events", *_NETWORK, "fcnsim.entropy"}),
        (["run", "{net}", "--until", "5.0", "--out", "{out}/t.jsonl"],
         {"fcnsim.io", "fcnsim.events", *_NETWORK, "fcnsim.engine", "fcnsim.entropy"}),
        (["timeline", "{trace}", "--clock", "3", "--net", "{net}", "--out", "{out}/t.csv"],
         {"fcnsim.io", "fcnsim.fold", "fcnsim.events", *_NETWORK, "fcnsim.chronology"}),
        (["entropy", "{trace}", "--out", "{out}/e.csv"], {"fcnsim.io", "fcnsim.fold", "fcnsim.events"}),
        (["report", "{trace}"], {"fcnsim.io", "fcnsim.fold", "fcnsim.events", "fcnsim.chronology"}),
    ],
    ids=["validate", "run", "timeline-net", "entropy", "report"],
)
def test_each_command_loads_only_its_modules(fixtures_dir, tmp_path, argv, loaded):
    """Every command starts a process, and each imports only the modules it
    runs: reading a trace loads no engine and no network code, and no
    command loads ``logging``."""
    paths = {"net": fixtures_dir / "chain.net.json", "trace": fixtures_dir / "chain.expected-trace.jsonl",
             "out": tmp_path}
    proc = run_fresh(*(arg.format(**paths) for arg in argv))
    assert proc.returncode == 0, proc.stderr
    assert proc.fcnsim_modules == _CLI | loaded
    assert not {"logging", "dataclasses", "inspect", "numpy"} & proc.modules


def test_validate_defaults_to_the_network_coupling_fraction(chain_net, capsys, monkeypatch):
    """Without ``--coupling-fraction``, validate classifies with
    ``network.DEFAULT_COUPLING_FRACTION``, read when the command runs."""
    assert main(["validate", chain_net, "--coupling-fraction", "1e30"]) == 0
    wide = capsys.readouterr().out
    assert "collective group: nodes 1, 2, 3" in wide
    monkeypatch.setattr("fcnsim.network.DEFAULT_COUPLING_FRACTION", 1e30)
    assert main(["validate", chain_net]) == 0
    assert capsys.readouterr().out == wide


class TestUsage:
    def test_no_arguments(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_bad_seed_range(self, chain_net, tmp_path):
        code = main(["run", chain_net, "--until", "5.0", "--mode", "sto",
                     "--seeds", "5..1", "--out", str(tmp_path / "t.jsonl")])
        assert code == 1

    @pytest.mark.parametrize("seeds", ["-2..1", "--1..2", "1..-2", "0..x", "1.5..2", "3", "1..2..3"])
    def test_seed_range_of_non_negative_integers(self, chain_net, tmp_path, seeds, capsys):
        """A range that names no run's seed is a usage error, never a run
        that stops at its first seed."""
        code = main(["run", chain_net, "--until", "5.0", "--mode", "sto",
                     f"--seeds={seeds}", "--out", str(tmp_path / "t.jsonl")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"usage error: --seeds expects A..B of non-negative integers, got '{seeds}'\n"
        )
        assert list(tmp_path.iterdir()) == []
