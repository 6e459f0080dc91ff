"""Engine behavior: scheduling, the chain oracle, sampling, determinism."""

from __future__ import annotations

import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from fcnsim import engine as engine_module
from fcnsim.engine import _exponential_delay
from fcnsim import (
    Arc,
    Engine,
    EntropyModel,
    EventKind,
    RunConfig,
    SamplingMode,
    StableConfiguration,
    StandardClockSpec,
    UnknownNode,
    ValidationFailed,
    lifetime,
    validate_network,
    wavelength_of,
)
from helpers import C, HBAR, make_node, random_network


def det_config(until: float = 5.0) -> RunConfig:
    return RunConfig(run_until_s=until)


def events_of(trace, kind):
    return [e for e in trace if e.kind is kind]


class TestPcg64Stream:
    @settings(max_examples=60, deadline=None)
    @given(
        # Seeds of one, two, up to four (the pool size) and more 32-bit words.
        seed=st.just(0)
        | st.integers(1, 2**32 - 1)
        | st.integers(2**32, 2**64 - 1)
        | st.integers(2**64, 2**128 - 1)
        | st.integers(2**128, 2**512),
        n=st.integers(1, 3 * engine_module._BLOCK),
    )
    @example(seed=2**200 + 17, n=2 * engine_module._BLOCK + 1)
    def test_uniforms_match_numpy_bit_for_bit(self, seed, n):
        stream = engine_module._uniforms(*engine_module._pcg64_seed(seed))
        ours = list(itertools.islice(stream, n))
        assert ours == np.random.Generator(np.random.PCG64(seed)).random(n).tolist()

    def test_negative_seed_rejected_as_numpy_rejects_it(self):
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            np.random.PCG64(-1)
        with pytest.raises(ValueError, match="^expected non-negative integer$"):
            Engine(validate_network([]), RunConfig(run_until_s=1.0, mode=SamplingMode.STOCHASTIC, seed=-1))


class TestDecayDelay:
    """The engine's decay delay: the lifetime in deterministic mode, else
    ``_exponential_delay(lifetime(gamma), u)`` of one uniform ``u``. The
    draws here take ``u`` from numpy's ``Generator(PCG64(seed))``, the
    oracle the engine's own PCG64 stream is compared against."""

    def test_deterministic_is_the_lifetime(self):
        net = validate_network([make_node(1, tau=3.0)], [])
        trace = Engine(net, det_config(), [(1, 0.0)]).run()
        assert [(e.kind, e.engine_time) for e in trace] == [
            (EventKind.EXTERNAL_EXCITATION, 0.0),
            (EventKind.DECAY, 3.0),
        ]

    def test_stochastic_statistics(self):
        """With a pinned seed, 1e5 draws match the exponential's moments."""
        rng = np.random.Generator(np.random.PCG64(7))
        tau = 2.0
        draws = [_exponential_delay(lifetime(HBAR / tau), rng.random()) for _ in range(100_000)]
        mean = sum(draws) / len(draws)
        var = sum((d - mean) ** 2 for d in draws) / (len(draws) - 1)
        assert 1.98 <= mean <= 2.02
        assert abs(var - tau * tau) / (tau * tau) < 0.05

    def test_distribution_passes_ks(self):
        from scipy import stats

        rng = np.random.Generator(np.random.PCG64(11))
        tau = 0.5
        draws = [_exponential_delay(lifetime(HBAR / tau), rng.random()) for _ in range(10_000)]
        assert stats.kstest(draws, "expon", args=(0, tau)).pvalue >= 0.01

    def test_exactly_one_uniform_per_draw(self):
        rng = np.random.Generator(np.random.PCG64(123))
        tau = 2.0
        d1 = _exponential_delay(lifetime(HBAR / tau), rng.random())
        d2 = _exponential_delay(lifetime(HBAR / tau), rng.random())
        mirror = np.random.Generator(np.random.PCG64(123))
        u1, u2 = mirror.random(), mirror.random()
        assert d1 == tau * -math.log1p(-u1)
        assert d2 == tau * -math.log1p(-u2)

    def test_stable_configuration(self):
        with pytest.raises(StableConfiguration):
            lifetime(None)


class TestChainFixture:
    def test_hand_computed_schedule(self, chain):
        """Injection at 0: A decays at 1.0, B absorbs 1.5, decays 3.5, C absorbs 3.75."""
        net, injections = chain
        trace = Engine(net, det_config(), injections).run()
        decays = events_of(trace, EventKind.DECAY)
        absorptions = events_of(trace, EventKind.ABSORPTION)
        assert [(d.node, d.engine_time) for d in decays] == [(1, 1.0), (2, 3.5)]
        assert [(a.node, a.engine_time) for a in absorptions] == [(2, 1.5), (3, 3.75)]

    def test_seven_event_trace_without_clock(self, chain):
        net, injections = chain
        bare = validate_network(net.nodes, net.arcs, [])
        trace = Engine(bare, det_config(), injections).run()
        assert [e.kind for e in trace] == [
            EventKind.EXTERNAL_EXCITATION,
            EventKind.DECAY,
            EventKind.EMISSION,
            EventKind.ABSORPTION,
            EventKind.DECAY,
            EventKind.EMISSION,
            EventKind.ABSORPTION,
        ]

    def test_run_until_truncates(self, chain):
        net, injections = chain
        bare = validate_network(net.nodes, net.arcs, [])
        trace = Engine(bare, det_config(until=0.5), injections).run()
        assert len(trace) == 1
        assert trace[0].kind is EventKind.EXTERNAL_EXCITATION

    def test_trace_is_totally_ordered(self, chain):
        net, injections = chain
        trace = Engine(net, det_config(), injections).run()
        assert [e.id for e in trace] == list(range(len(trace)))
        times = [e.engine_time for e in trace]
        assert times == sorted(times)

    def test_stable_node_absorbs_but_never_decays(self, chain):
        net, injections = chain
        trace = Engine(net, det_config(until=20.0), injections).run()
        assert all(d.node != 3 for d in events_of(trace, EventKind.DECAY))
        assert any(a.node == 3 for a in events_of(trace, EventKind.ABSORPTION))

    def test_emission_wavelength_matches_energy(self, chain):
        net, injections = chain
        trace = Engine(net, det_config(), injections).run()
        for emission in events_of(trace, EventKind.EMISSION):
            expected = wavelength_of(emission.payload["energy_ev"])
            assert emission.payload["wavelength_nm"] == expected


class TestEventsLoop:
    def test_events_yields_one_event_at_a_time(self, chain):
        net, injections = chain
        engine = Engine(net, det_config(), injections)
        first = next(engine.events())
        second = next(engine.events())
        assert first.id == 0 and second.id == 1
        assert (first, second) == Engine(net, det_config(), injections).run()[:2]

    def test_exhausted_on_empty_schedule(self):
        net = validate_network([make_node(1, tau=1.0)], [])
        assert next(Engine(net, det_config()).events(), None) is None

    def test_exhausted_is_sticky(self, chain):
        net, injections = chain
        engine = Engine(net, det_config(), injections)
        engine.run()
        assert engine.run() == ()
        assert next(engine.events(), None) is None

    def test_unknown_node_injection(self, chain):
        net, _ = chain
        with pytest.raises(UnknownNode):
            Engine(net, det_config(), [(99, 0.0)])

    def test_negative_injection_time_rejected(self, chain):
        net, _ = chain
        with pytest.raises(ValueError):
            Engine(net, det_config(), [(1, -0.1)])

    def test_non_finite_injection_time_rejected(self, chain):
        net, _ = chain
        with pytest.raises(ValueError):
            Engine(net, det_config(), [(1, float("nan"))])

    def test_injection_on_occupied_node_passes_through(self):
        net = validate_network([make_node(1, tau=2.0)], [])
        trace = Engine(net, det_config(), [(1, 0.0), (1, 1.0)]).run()
        kinds = [(e.kind, e.engine_time) for e in trace]
        assert (EventKind.EXTERNAL_EXCITATION, 0.0) in kinds
        passthrough = [e for e in trace if e.kind is EventKind.PASS_THROUGH]
        assert len(passthrough) == 1
        assert passthrough[0].engine_time == 1.0
        assert passthrough[0].payload["reason"] == "occupied"

    def test_simultaneous_occurrences_follow_scheduling_order(self):
        net = validate_network([make_node(1, tau=2.0), make_node(2, tau=2.0)], [])
        trace = Engine(net, det_config(), [(2, 1.0), (1, 1.0)]).run()
        first_two = [(e.node, e.kind) for e in trace[:2]]
        assert first_two == [
            (2, EventKind.EXTERNAL_EXCITATION),
            (1, EventKind.EXTERNAL_EXCITATION),
        ]

    def test_reinjection_after_decay_succeeds(self):
        net = validate_network([make_node(1, tau=1.0)], [])
        trace = Engine(net, det_config(), [(1, 0.0), (1, 3.0)]).run()
        excitations = events_of(trace, EventKind.EXTERNAL_EXCITATION)
        assert [e.engine_time for e in excitations] == [0.0, 3.0]
        ids = [e.payload["excitation_id"] for e in excitations]
        assert len(set(ids)) == 2


class TestSignalHandling:
    def two_targets(self, detect=True, gap=1.5):
        nodes = [
            make_node(1, tau=1.0),
            make_node(2, gap=gap, tau=1.0, can_detect=detect),
            make_node(3, tau=1.0),
        ]
        arcs = [
            Arc(id=1, source=1, target=2, distance_m=0.25 * C),
            Arc(id=2, source=1, target=3, distance_m=0.5 * C),
        ]
        return validate_network(nodes, arcs, [])

    def test_fanout_one_signal_per_arc_full_energy(self):
        net = self.two_targets()
        trace = Engine(net, det_config(), [(1, 0.0)]).run()
        emissions = [e for e in trace if e.kind is EventKind.EMISSION and e.node == 1]
        assert len(emissions) == 2
        assert {e.payload["arc"] for e in emissions} == {1, 2}
        assert all(e.payload["energy_ev"] == 1.5 for e in emissions)
        absorptions = events_of(trace, EventKind.ABSORPTION)
        assert {(a.node, a.engine_time) for a in absorptions} == {(2, 1.25), (3, 1.5)}

    def test_non_detector_target_passes_through(self):
        net = self.two_targets(detect=False)
        trace = Engine(net, det_config(), [(1, 0.0)]).run()
        passthrough = [e for e in trace if e.kind is EventKind.PASS_THROUGH and e.node == 2]
        assert len(passthrough) == 1
        assert passthrough[0].payload["reason"] == "not_detector"

    def test_off_resonance_target_passes_through(self):
        net = self.two_targets(gap=2.0)
        trace = Engine(net, det_config(), [(1, 0.0)]).run()
        passthrough = [e for e in trace if e.kind is EventKind.PASS_THROUGH and e.node == 2]
        assert passthrough and passthrough[0].payload["reason"] == "off_resonance"

    def test_occupied_detector_passes_through(self):
        # Node 2 decays first (tau 0.25); its signal occupies node 3 for
        # 10 s, so node 1's later signal must pass through.
        nodes = [make_node(1, tau=0.5), make_node(2, tau=0.25), make_node(3, tau=10.0)]
        arcs = [
            Arc(id=1, source=1, target=3, distance_m=0.0),
            Arc(id=2, source=2, target=3, distance_m=0.0),
        ]
        net = validate_network(nodes, arcs, [])
        trace = Engine(net, det_config(), [(1, 0.0), (2, 0.0)]).run()
        arrivals_at_3 = [
            e
            for e in trace
            if e.node == 3 and e.kind in (EventKind.ABSORPTION, EventKind.PASS_THROUGH)
        ]
        assert [(e.kind, e.engine_time) for e in arrivals_at_3] == [
            (EventKind.ABSORPTION, 0.25),
            (EventKind.PASS_THROUGH, 0.5),
        ]
        assert arrivals_at_3[1].payload["reason"] == "occupied"

    def test_mute_emitter_decays_silently(self):
        nodes = [make_node(1, tau=1.0, can_emit=False), make_node(2, tau=1.0)]
        arcs = [Arc(id=1, source=1, target=2, distance_m=0.0)]
        net = validate_network(nodes, arcs, [])
        trace = Engine(net, det_config(), [(1, 0.0)]).run()
        assert events_of(trace, EventKind.DECAY)
        assert not events_of(trace, EventKind.EMISSION)


class TestClockTicks:
    def test_tick_times_and_counters(self):
        net = validate_network(
            [make_node(1)], [], [StandardClockSpec(id=1, period_s=0.5, first_tick_s=0.25, counter_start=3)]
        )
        trace = Engine(net, det_config(until=2.0)).run()
        ticks = events_of(trace, EventKind.CLOCK_TICK)
        assert [t.engine_time for t in ticks] == [0.25, 0.75, 1.25, 1.75]
        assert [t.payload["counter"] for t in ticks] == [3, 4, 5, 6]

    def test_tick_on_horizon_is_included(self):
        net = validate_network([make_node(1)], [], [StandardClockSpec(id=1, period_s=1.0)])
        trace = Engine(net, det_config(until=3.0)).run()
        assert [t.engine_time for t in events_of(trace, EventKind.CLOCK_TICK)] == [0.0, 1.0, 2.0, 3.0]

    def test_ticks_chain_causally(self):
        net = validate_network([make_node(1)], [], [StandardClockSpec(id=1, period_s=1.0)])
        trace = Engine(net, det_config(until=3.0)).run()
        ticks = events_of(trace, EventKind.CLOCK_TICK)
        assert ticks[0].parents == ()
        for prev, cur in zip(ticks, ticks[1:]):
            assert cur.parents == (prev.id,)

    def test_clock_whose_ticks_could_share_an_engine_time_is_refused(self, chain):
        """About 10**14 ticks to the horizon, the first 10**4 or so of them
        at engine_time 1.0: the constructor refuses the clock, so no event
        is ever produced."""
        net, injections = chain
        net = validate_network(net.nodes, net.arcs, [StandardClockSpec(3, 1e-20, 1.0)])
        with pytest.raises(ValidationFailed) as err:
            Engine(net, RunConfig(1.000001), injections)
        assert err.value.problems == ["clock 3: ticks every 1e-20 s could share an engine_time: "
                                      "the period is within 2 ulps of the horizon 1.000001"]

    def test_each_refused_clock_is_named(self):
        clocks = [StandardClockSpec(1, 1e-20), StandardClockSpec(2, 0.5), StandardClockSpec(3, 5e-324)]
        net = validate_network([make_node(i) for i in (1, 2, 3)], [], clocks)
        with pytest.raises(ValidationFailed) as err:
            Engine(net, det_config(until=3.0))
        assert [p.split(":")[0] for p in err.value.problems] == ["clock 1", "clock 3"]

    def test_clock_after_the_horizon_is_not_checked(self):
        """A clock whose first tick is past the horizon never ticks."""
        net = validate_network([make_node(1)], [], [StandardClockSpec(1, 1e-20, 4.0)])
        assert Engine(net, det_config(until=3.0)).run() == ()

    def test_negative_first_tick_is_refused(self):
        """Its ticks would all sit at engine_time -1e20, and ticks before 0
        fall outside the argument that keeps ticks apart."""
        message = "clock at node 3: first tick must be finite and >= 0 s"
        with pytest.raises(ValueError, match=message):
            StandardClockSpec(3, 1.0, -1e20)
        with pytest.raises(ValueError, match=message):
            StandardClockSpec(3, 1.0, -1.0)
        with pytest.raises(ValueError, match=message):
            StandardClockSpec(3, 1.0)._replace(first_tick_s=-1.0)

    @settings(max_examples=300, deadline=None)
    @given(
        until=st.floats(min_value=5e-324, max_value=1e300),
        k=st.integers(1, 8),
        steps=st.integers(-3, 3),
    )
    @example(until=1.0, k=3, steps=0)
    @example(until=1.0, k=3, steps=1)
    @example(until=1e-310, k=2, steps=1)
    def test_ticks_are_refused_exactly_when_they_could_share_a_time(self, until, k, steps):
        """A clock with a tick ``k`` periods before the horizon and a period
        within a few floats of 2 ulps of it: refused at or below 2 ulps;
        above, its ticks have strictly increasing engine_times."""
        period = 2 * math.ulp(until)
        for _ in range(abs(steps)):
            period = math.nextafter(period, math.inf if steps > 0 else 0.0)
        first = until - k * period
        assume(period > 0 and first >= 0)
        net = validate_network([make_node(1)], [], [StandardClockSpec(1, period, first)])
        if period <= 2 * math.ulp(until):
            with pytest.raises(ValidationFailed):
                Engine(net, RunConfig(until))
            return
        times = [e.engine_time for e in Engine(net, RunConfig(until)).events()]
        assert times and times == sorted(set(times)) and times[-1] <= until


class TestDeterminism:
    def test_deterministic_reruns_are_identical(self, chain):
        net, injections = chain
        first = Engine(net, det_config(), injections).run()
        second = Engine(net, det_config(), injections).run()
        assert first == second

    def test_stochastic_same_seed_identical(self, chain):
        net, injections = chain
        config = RunConfig(run_until_s=5.0, mode=SamplingMode.STOCHASTIC, seed=42)
        first = Engine(net, config, injections).run()
        second = Engine(net, config, injections).run()
        assert first == second

    def test_stochastic_uses_sampled_delays(self, chain):
        net, injections = chain
        config = RunConfig(run_until_s=50.0, mode=SamplingMode.STOCHASTIC, seed=7)
        trace = Engine(net, config, injections).run()
        decays = events_of(trace, EventKind.DECAY)
        rng = np.random.Generator(np.random.PCG64(7))
        expected_first = 0.0 + _exponential_delay(lifetime(HBAR / 1.0), rng.random())
        assert decays[0].engine_time == expected_first

    def test_run_config_requires_positive_horizon(self):
        with pytest.raises(ValueError):
            RunConfig(run_until_s=0.0)

    @pytest.mark.parametrize("until", [math.inf, -math.inf, math.nan])
    def test_run_config_requires_finite_horizon(self, until):
        with pytest.raises(ValueError, match=r"^run_until must be > 0 s and finite, got "):
            RunConfig(run_until_s=until)

    def test_block_draws_match_scalar_draws_in_parent_order(self):
        """Each excitation takes the next uniform of the run's PCG64 stream.

        The run has more decays than one block of uniforms holds; every
        decay time must equal, bit for bit, its parent's time plus the
        next scalar draw of a fresh generator, taken in parent-id order.
        """
        nodes = [make_node(i, tau=0.002 * i) for i in (1, 2, 3)]
        arcs = [
            Arc(id=1, source=1, target=2, distance_m=0.0),
            Arc(id=2, source=2, target=3, distance_m=0.0005 * C),
            Arc(id=3, source=3, target=1, distance_m=0.0),
            Arc(id=4, source=1, target=3, distance_m=0.001 * C),
        ]
        net = validate_network(nodes, arcs, [])
        until = 8.0
        config = RunConfig(run_until_s=until, mode=SamplingMode.STOCHASTIC, seed=11)
        trace = Engine(net, config, [(1, 0.0)]).run()
        decay_of = {next(iter(e.parents)): e for e in trace if e.kind is EventKind.DECAY}
        assert len(decay_of) > 2 * engine_module._BLOCK
        rng = np.random.Generator(np.random.PCG64(11))
        exciting = (EventKind.EXTERNAL_EXCITATION, EventKind.ABSORPTION)
        for parent in (e for e in trace if e.kind in exciting):
            gamma = net.node_by_id[parent.node].spec.gamma_ev
            at = parent.engine_time + _exponential_delay(lifetime(gamma), rng.random())
            decay = decay_of.pop(parent.id, None)
            if decay is None:
                assert at > until
            else:
                assert decay.engine_time == at
        assert decay_of == {}

    def test_non_finite_entropy_raises_at_the_decay(self, chain, monkeypatch):
        """The constructor refuses the run before its stream is seeded, naming
        every clock and every decaying node it refuses at once."""
        net, injections = chain
        net = validate_network(net.nodes, net.arcs, [StandardClockSpec(3, 1e-20)])
        model = EntropyModel(environment_temperature_k=1e-310)
        monkeypatch.setattr(engine_module, "_uniforms", lambda *seed: pytest.fail("a uniform was drawn"))
        with pytest.raises(ValidationFailed) as err:
            Engine(net, RunConfig(5.0, SamplingMode.STOCHASTIC, 1, model), injections)
        assert err.value.problems == [
            "clock 3: ticks every 1e-20 s could share an engine_time: the period is within 2 ulps of the horizon 5.0",
            "node 1: ds_signal must be finite, got inf",
            "node 2: ds_signal must be finite, got inf",
        ]


@pytest.mark.parametrize("mode", list(SamplingMode), ids=lambda m: m.value)
@pytest.mark.parametrize("case_seed", range(40))
def test_step_loop_equals_run(case_seed, mode):
    """run() is events() collected: taking one event per events() call to
    exhaustion and streaming give run()'s trace, and nothing is left after."""
    network, injections = random_network(random.Random(case_seed))
    config = RunConfig(run_until_s=3.0, mode=mode, seed=case_seed)
    engine = Engine(network, config, injections)
    stepped = []
    while (event := next(engine.events(), None)) is not None:
        stepped.append(event)
    streaming = Engine(network, config, injections)
    streamed = tuple(streaming.events())
    assert tuple(stepped) == Engine(network, config, injections).run() == streamed
    assert tuple(streaming.events()) == ()
    assert streaming.run() == ()


def test_events_after_steps_continue_the_run(chain):
    net, injections = chain
    engine = Engine(net, det_config(), injections)
    first = next(engine.events()), next(engine.events())
    rest = engine.run()
    assert first + rest == Engine(net, det_config(), injections).run()
