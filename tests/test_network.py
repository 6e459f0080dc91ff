"""Network validation, propagation delay, and coupling classification."""

from __future__ import annotations

import math
import random

import pytest

from fcnsim import (
    Arc,
    ClockNode,
    CouplingKind,
    DegenerateLevels,
    EnergyLevel,
    EntropyBreakdown,
    EntropyModel,
    Network,
    RunConfig,
    StableConfiguration,
    StandardClockSpec,
    TwoLevelSpec,
    ValidationFailed,
    classify_coupling,
    propagation_delay,
    validate_network,
)
from helpers import chain_network, make_node, random_network


class TestValidation:
    def test_empty_network_is_valid(self):
        net = validate_network([], [], [])
        assert net.nodes == () and net.arcs == ()

    def test_chain_fixture_is_valid(self):
        net, _ = chain_network()
        assert len(net.nodes) == 3 and len(net.arcs) == 2 and len(net.clocks) == 1

    def test_dangling_arc_endpoint(self):
        with pytest.raises(ValidationFailed) as err:
            validate_network([make_node(1)], [Arc(id=1, source=1, target=99, distance_m=1.0)])
        assert any("unknown target node 99" in p for p in err.value.problems)

    def test_duplicate_node_id(self):
        with pytest.raises(ValidationFailed) as err:
            validate_network([make_node(1), make_node(1)])
        assert any("duplicate node id 1" in p for p in err.value.problems)

    def test_duplicate_arc_id(self):
        nodes = [make_node(1), make_node(2)]
        arcs = [
            Arc(id=1, source=1, target=2, distance_m=0.0),
            Arc(id=1, source=2, target=1, distance_m=0.0),
        ]
        with pytest.raises(ValidationFailed) as err:
            validate_network(nodes, arcs)
        assert any("duplicate arc id 1" in p for p in err.value.problems)

    def test_all_problems_reported_at_once(self):
        arcs = [Arc(id=1, source=7, target=8, distance_m=0.0)]
        with pytest.raises(ValidationFailed) as err:
            validate_network([make_node(1), make_node(1)], arcs)
        assert len(err.value.problems) >= 3

    def test_clock_needs_existing_host(self):
        with pytest.raises(ValidationFailed) as err:
            validate_network([make_node(1)], [], [StandardClockSpec(id=9, period_s=1.0)])
        assert any("unknown node 9" in p for p in err.value.problems)

    def test_one_clock_per_node(self):
        clocks = [StandardClockSpec(id=1, period_s=1.0), StandardClockSpec(id=1, period_s=0.5)]
        with pytest.raises(ValidationFailed) as err:
            validate_network([make_node(1)], [], clocks)
        assert any("more than one standard clock" in p for p in err.value.problems)

    def test_constructor_rejects_bad_values(self):
        with pytest.raises(ValueError):
            Arc(id=1, source=1, target=1, distance_m=1.0)
        with pytest.raises(ValueError):
            Arc(id=1, source=1, target=2, distance_m=-1.0)
        with pytest.raises(ValueError):
            Arc(id=1, source=1, target=2, distance_m=math.inf)
        with pytest.raises(ValueError):
            StandardClockSpec(id=1, period_s=0.0)
        with pytest.raises(ValueError):
            StandardClockSpec(id=1, period_s=1.0, first_tick_s=math.nan)
        with pytest.raises(ValueError):
            make_node(1, position_m=(math.nan, 0.0, 0.0))
        with pytest.raises(ValueError):
            make_node(1, resonance_tolerance_ev=-1e-9)

    def test_default_resonance_tolerance_scales_with_gap(self):
        node = make_node(1, gap=2.0)
        assert node.resonance_tolerance_ev == pytest.approx(2e-6, rel=1e-12)


_GROUND, _EXCITED = EnergyLevel("ground", 0.0), EnergyLevel("excited", 1.5)
_SPEC = TwoLevelSpec(_GROUND, _EXCITED, 1e-15)

# (valid value, field changes that break it, exception type, message).
_CHECKED_CASES = [
    (_GROUND, {"energy_ev": -1.0}, ValueError, "level 'ground': energy must be finite and >= 0, got -1.0"),
    (_SPEC, {"excited": _GROUND}, DegenerateLevels,
     "excited level (0.0 eV) must sit strictly above ground (0.0 eV)"),
    (_SPEC, {"gamma_ev": 0.0}, StableConfiguration,
     "gamma must be finite and > 0 when present, got 0.0; use None for a stable node"),
    (ClockNode(1, _SPEC), {"resonance_tolerance_ev": -1.0}, ValueError,
     "node 1: resonance tolerance must be finite and >= 0"),
    (ClockNode(1, _SPEC), {"position_m": (0.0, math.inf, 0.0)}, ValueError, "node 1: position must be finite"),
    (Arc(1, 1, 2, 1.0), {"target": 1}, ValueError, "arc 1: source and target must differ"),
    (Arc(1, 1, 2, 1.0), {"distance_m": -1.0}, ValueError, "arc 1: distance must be finite and >= 0 m"),
    (StandardClockSpec(3, 1.0), {"period_s": 0.0}, ValueError, "clock at node 3: period must be finite and > 0 s"),
    (StandardClockSpec(3, 1.0), {"first_tick_s": math.nan}, ValueError,
     "clock at node 3: first tick must be finite and >= 0 s"),
    (RunConfig(1.0), {"run_until_s": math.inf}, ValueError, "run_until must be > 0 s and finite, got inf"),
    (EntropyModel(), {"environment_temperature_k": 0.0}, ValueError,
     "environment temperature must be > 0 K, got 0.0"),
    (EntropyModel(), {"source_temperature_k": -1.0}, ValueError, "source temperature must be > 0 K, got -1.0"),
    (EntropyBreakdown(-1.0, 2.0, 0.0), {"ds_vacuum": math.nan}, ValueError, "ds_vacuum must be finite, got nan"),
]


class TestValueTypes:
    @pytest.mark.parametrize(
        "value, changes, error, message", _CHECKED_CASES,
        ids=[f"{type(case[0]).__name__}-{next(iter(case[1]))}" for case in _CHECKED_CASES],
    )
    def test_derived_values_are_checked(self, value, changes, error, message):
        """``_replace`` and ``_make`` run the constructor's checks."""
        fields = value._asdict() | changes
        with pytest.raises(error) as err:
            type(value)(**fields)
        assert str(err.value) == message
        with pytest.raises(error) as err:
            value._replace(**changes)
        assert str(err.value) == message
        with pytest.raises(error) as err:
            type(value)._make(fields.values())
        assert str(err.value) == message

    def test_valid_replace_keeps_the_type(self):
        clock = StandardClockSpec(3, 1.0, counter_start=4)
        half = clock._replace(period_s=0.5)
        assert type(half) is StandardClockSpec
        assert half == StandardClockSpec(3, 0.5, 0.0, 4)
        assert half.tick_time(3) == 1.5

    def test_values_are_immutable_tuples(self):
        arc = Arc(id=1, source=1, target=2, distance_m=1.0)
        assert arc == (1, 1, 2, 1.0) and hash(arc) == hash((1, 1, 2, 1.0))
        with pytest.raises(AttributeError):
            arc.distance_m = 2.0

    def test_network_lookups(self):
        net, _ = chain_network()
        assert net.node_by_id == {n.id: n for n in net.nodes}
        assert net.arc_by_id == {a.id: a for a in net.arcs}
        assert net.clock_by_node == {c.id: c for c in net.clocks}
        same = Network(net.nodes, net.arcs, net.clocks)
        assert same == net and hash(same) == hash(net)
        assert same.node_by_id == net.node_by_id
        fewer = net._replace(clocks=())
        assert fewer.clock_by_node == {} and fewer.node_by_id == net.node_by_id


class TestPropagationDelay:
    def test_one_second(self):
        arc = Arc(id=1, source=1, target=2, distance_m=299792458.0)
        assert propagation_delay(arc) == pytest.approx(1.0, rel=1e-12)

    def test_colocated_nodes(self):
        arc = Arc(id=1, source=1, target=2, distance_m=0.0)
        assert propagation_delay(arc) == 0.0

    def test_one_millisecond(self):
        arc = Arc(id=1, source=1, target=2, distance_m=2.99792458e5)
        assert propagation_delay(arc) == pytest.approx(1.0e-3, rel=1e-12)

    def test_additive_along_paths(self):
        rng = random.Random(11)
        arcs = [Arc(id=i, source=i, target=i + 1, distance_m=rng.uniform(0, 1e8)) for i in range(1, 6)]
        total = sum(propagation_delay(a) for a in arcs)
        assert total >= max(propagation_delay(a) for a in arcs)
        assert total == pytest.approx(sum(a.distance_m for a in arcs) / 2.99792458e8, rel=1e-12)


class TestCouplingClassification:
    def test_negligible_delay_forms_collective_pair(self):
        nodes = [make_node(1, tau=1.0), make_node(2, tau=1.0)]
        arcs = [Arc(id=1, source=1, target=2, distance_m=2.99792458e-10)]  # ~1e-18 s
        net = validate_network(nodes, arcs)
        result = classify_coupling(net, coupling_fraction=0.01)
        assert len(result.classes) == 1
        assert result.classes[0].kind == CouplingKind.CEN
        assert result.classes[0].members == (1, 2)
        assert result.sen_links == ()

    def test_long_delay_leaves_sequential_singletons(self):
        nodes = [make_node(1, tau=1.0), make_node(2, tau=1.0)]
        arcs = [Arc(id=1, source=1, target=2, distance_m=10 * 2.99792458e8)]  # 10 s
        net = validate_network(nodes, arcs)
        result = classify_coupling(net, coupling_fraction=0.01)
        assert [c.kind for c in result.classes] == [CouplingKind.SEN, CouplingKind.SEN]
        assert [c.members for c in result.classes] == [(1,), (2,)]
        assert result.sen_links == (1,)

    def test_mixed_chain(self):
        """Close A-B pair plus a far C: one collective class and a link."""
        nodes = [make_node(1, tau=1.0), make_node(2, tau=1.0), make_node(3, tau=1.0)]
        arcs = [
            Arc(id=1, source=1, target=2, distance_m=2.99792458e-10),
            Arc(id=2, source=2, target=3, distance_m=2.99792458e8),
        ]
        net = validate_network(nodes, arcs)
        result = classify_coupling(net, coupling_fraction=0.01)
        kinds = {c.members: c.kind for c in result.classes}
        assert kinds == {(1, 2): CouplingKind.CEN, (3,): CouplingKind.SEN}
        assert result.sen_links == (2,)

    def test_stable_nodes_count_as_infinitely_long_lived(self):
        nodes = [make_node(1), make_node(2)]  # both stable
        arcs = [Arc(id=1, source=1, target=2, distance_m=1e6)]
        net = validate_network(nodes, arcs)
        result = classify_coupling(net)
        assert result.classes[0].kind == CouplingKind.CEN

    def test_partition_and_idempotence(self):
        for case in range(25):
            net, _ = random_network(random.Random(300 + case))
            first = classify_coupling(net)
            seen: set[int] = set()
            for cls in first.classes:
                assert not (seen & set(cls.members)), "classes overlap"
                seen.update(cls.members)
            assert seen == {n.id for n in net.nodes}
            assert classify_coupling(net) == first
