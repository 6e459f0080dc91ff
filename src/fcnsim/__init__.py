"""fcnsim: a discrete-event simulator of causal clock networks.

Unstable two-level nodes decay irreversibly, launching signals that
excite downstream detectors at light-speed delay; standard clocks emit
counted pulses; and time numbers exist only as labels derived by pairing
detections with pulses. The engine's internal scheduling parameter is
never an observable.

The names below are imported from their modules on first use (PEP 562),
so ``import fcnsim`` loads no submodule and each command of the CLI
loads only the modules it runs.
"""

from importlib import import_module
from typing import TYPE_CHECKING, Any

if TYPE_CHECKING:
    from .chronology import (CausalViolation, ClockPulse, ResolutionReport, TimeLabel, Timeline, TraceIndex,
                             TripletState, build_timeline, clock_pulses, label_absorptions, pulses_from_trace,
                             resolution_report)
    from .constants import CONSTANTS, PhysicalConstants
    from .engine import Engine, RunConfig, SamplingMode
    from .entropy import (DEFAULT_ENTROPY_MODEL, EntropyBreakdown, EntropyLedger, EntropyLedgerEntry,
                          EntropyLifetime, EntropyModel, breakdown_for_decay, entropy_lifetime)
    from .errors import (ClockMismatch, DegenerateLevels, FcnError, NonPositiveEnergy, ParseError, StableConfiguration,
                         UnknownNode, ValidationFailed)
    from .events import EventKind, EventTrace, SimEvent
    from .io import (Injection, NetworkDocument, parse_network, parse_network_file, parse_trace, read_trace,
                     serialize_trace, write_trace)
    from .network import (Arc, ClockNode, CouplingClass, CouplingClassification, CouplingKind, Network,
                          StandardClockSpec, classify_coupling, propagation_delay, validate_network)
    from .quantum import EnergyLevel, TwoLevelSpec, absorb, lifetime, signal_energy, wavelength_of
    from .verify import verify_trace

__version__ = "0.1.0"

# Each module with the names it exports here, as the block above imports them.
_EXPORTS = {
    "chronology": "CausalViolation ClockPulse ResolutionReport TimeLabel Timeline TraceIndex TripletState "
    "build_timeline clock_pulses label_absorptions pulses_from_trace resolution_report",
    "constants": "CONSTANTS PhysicalConstants",
    "engine": "Engine RunConfig SamplingMode",
    "entropy": "DEFAULT_ENTROPY_MODEL EntropyBreakdown EntropyLedger EntropyLedgerEntry EntropyLifetime "
    "EntropyModel breakdown_for_decay entropy_lifetime",
    "errors": "ClockMismatch DegenerateLevels FcnError NonPositiveEnergy ParseError "
    "StableConfiguration UnknownNode ValidationFailed",
    "events": "EventKind EventTrace SimEvent",
    "io": "Injection NetworkDocument parse_network parse_network_file parse_trace read_trace serialize_trace "
    "write_trace",
    "network": "Arc ClockNode CouplingClass CouplingClassification CouplingKind Network StandardClockSpec "
    "classify_coupling propagation_delay validate_network",
    "quantum": "EnergyLevel TwoLevelSpec absorb lifetime signal_energy wavelength_of",
    "verify": "verify_trace",
}
# Name -> home module; a module's own name, such as ``engine``, maps to itself.
_HOME = {name: module for module, names in _EXPORTS.items() for name in (module, *names.split())}
__all__ = [name for names in _EXPORTS.values() for name in names.split()]


def __getattr__(name: str) -> Any:
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    home = import_module(f"{__name__}.{module}")
    value = home if name == module else getattr(home, name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
