"""fcnsim: a discrete-event simulator of causal clock networks.

Unstable two-level nodes decay irreversibly, launching signals that
excite downstream detectors at light-speed delay; standard clocks emit
counted pulses; and time numbers exist only as labels derived by pairing
detections with pulses. The engine's internal scheduling parameter is
never an observable.
"""

from .chronology import (
    CausalViolation,
    ClockPulse,
    ResolutionReport,
    TimeLabel,
    Timeline,
    TraceIndex,
    TripletState,
    build_timeline,
    clock_pulses,
    extract_time,
    form_triplet,
    label_absorptions,
    pulses_from_trace,
    resolution_report,
)
from .constants import CONSTANTS, PhysicalConstants
from .engine import (
    Engine,
    EventKind,
    EventTrace,
    RunConfig,
    SamplingMode,
    SimEvent,
    sample_decay_delay,
)
from .entropy import (
    DEFAULT_ENTROPY_MODEL,
    EntropyBreakdown,
    EntropyLedger,
    EntropyLedgerEntry,
    EntropyLifetime,
    EntropyModel,
    breakdown_for_decay,
    entropy_lifetime,
)
from .errors import (
    ClockMismatch,
    DegenerateLevels,
    DuplicateEvent,
    Exhausted,
    FcnError,
    NoClockPulse,
    NonPositiveEnergy,
    NotExcited,
    ParseError,
    StableConfiguration,
    UnknownNode,
    ValidationFailed,
)
from .io import (
    Injection,
    NetworkDocument,
    parse_network,
    parse_network_file,
    parse_trace,
    read_trace,
    serialize_trace,
    write_trace,
)
from .network import (
    Arc,
    ClockNode,
    CouplingClass,
    CouplingClassification,
    CouplingKind,
    Network,
    StandardClockSpec,
    classify_coupling,
    propagation_delay,
    validate_network,
)
from .quantum import (
    ConfigurationState,
    EnergyLevel,
    ExcitationIds,
    TwoLevelSpec,
    absorb,
    decay,
    lifetime,
    signal_energy,
    wavelength_of,
)

__version__ = "0.1.0"
