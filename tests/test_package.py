"""The package's names: every one the package has ever exported, but for
those whose code was deleted, still imports from ``fcnsim``, lazily, and is
the object its module defines."""

from __future__ import annotations

import ast
from importlib import import_module
from pathlib import Path

import pytest

import fcnsim
from helpers import run_fresh

# Every name ``fcnsim`` exported when its ``__init__`` imported all of its
# modules, with the module it came from then, less those whose code was
# deleted since (each declared in CHANGES.md).
_EXPORTED = {
    "chronology": "CausalViolation ClockPulse ResolutionReport TimeLabel Timeline TraceIndex TripletState "
    "build_timeline clock_pulses label_absorptions pulses_from_trace resolution_report",
    "constants": "CONSTANTS PhysicalConstants",
    "engine": "Engine EventKind EventTrace RunConfig SamplingMode SimEvent",
    "entropy": "DEFAULT_ENTROPY_MODEL EntropyBreakdown EntropyLedger EntropyLedgerEntry EntropyLifetime "
    "EntropyModel breakdown_for_decay entropy_lifetime",
    "errors": "ClockMismatch DegenerateLevels FcnError NonPositiveEnergy ParseError "
    "StableConfiguration UnknownNode ValidationFailed",
    "io": "Injection NetworkDocument parse_network parse_network_file parse_trace read_trace serialize_trace "
    "write_trace",
    "network": "Arc ClockNode CouplingClass CouplingClassification CouplingKind Network StandardClockSpec "
    "classify_coupling propagation_delay validate_network",
    "quantum": "EnergyLevel TwoLevelSpec absorb lifetime signal_energy wavelength_of",
    "verify": "verify_trace",
}
_NAMES = [(module, name) for module, names in _EXPORTED.items() for name in names.split()]


@pytest.mark.parametrize("module, name", _NAMES, ids=[name for _, name in _NAMES])
def test_exported_name_is_its_module_object(module, name):
    namespace: dict = {}
    exec(f"from fcnsim import {name}", namespace)
    assert namespace[name] is getattr(import_module(f"fcnsim.{module}"), name)
    assert name in dir(fcnsim)


def test_event_types_live_in_events():
    """The engine and the network keep the event vocabulary they used to define."""
    from fcnsim import engine, events, network

    assert engine.EventKind is events.EventKind and engine.SimEvent is events.SimEvent
    assert network.NodeId is events.NodeId and network.EventId is events.EventId


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'Nonesuch'"):
        fcnsim.Nonesuch  # noqa: B018
    with pytest.raises(ImportError):
        exec("from fcnsim import Nonesuch", {})


def test_static_imports_match_the_lazy_table():
    """The ``TYPE_CHECKING`` imports that static tools read name exactly
    the names that ``__getattr__`` serves, from the same modules."""
    tree = ast.parse(Path(fcnsim.__file__).read_text(encoding="utf-8"))
    block = next(node for node in tree.body if isinstance(node, ast.If))
    static = {alias.name: node.module for node in block.body for alias in node.names}
    lazy = {name: module for name, module in fcnsim._HOME.items() if name != module}
    assert static == lazy
    assert sorted(static) == sorted(fcnsim.__all__)


def test_submodules_are_attributes_of_the_package():
    """``import fcnsim`` alone, then ``fcnsim.<module>.<name>``, works as
    it did when the package imported every module."""
    proc = run_fresh(code="import fcnsim; assert fcnsim.engine.EventKind is fcnsim.io.EventKind is fcnsim.EventKind")
    assert proc.returncode == 0, proc.stderr
