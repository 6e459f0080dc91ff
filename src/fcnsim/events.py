"""The event vocabulary: the kinds of causal happening and the record of one.

The engine produces these events, the trace files hold them, and the
chronology labels them. This module imports nothing else of fcnsim, so a
command that only reads a trace loads neither the engine nor the network.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Any, NamedTuple

# Opaque identifiers; unique within one network/run.
NodeId = int
ArcId = int
EventId = int
PulseId = int
ExcitationId = int

# Shared by the network and trace readers: the largest id (ids are unsigned
# 64-bit), the exact types of a decoded JSON number (a bool is not one), and
# what a literal beyond the float range, such as 1e999, decodes to.
_MAX_ID = 2**64 - 1
_NUMBER = (int, float)
_INFINITE = frozenset((math.inf, -math.inf))


class EventKind(str, Enum):
    EXTERNAL_EXCITATION = "external_excitation"
    ABSORPTION = "absorption"
    DECAY = "decay"
    EMISSION = "emission"
    CLOCK_TICK = "clock_tick"
    PASS_THROUGH = "pass_through"


class SimEvent(NamedTuple):
    """One causal happening, as recorded in the trace.

    ``parents`` is ``()`` for a root or ``(p,)`` for the one event ``p``
    that caused this one: the causal graph is a forest, one cause per
    event, and a parent always precedes its children in (engine_time, id)
    order. ``payload`` is kind-specific and treated as immutable. A tuple,
    because the engine and the trace reader build one per event: they call
    ``tuple.__new__(SimEvent, fields)``, which skips the keyword handling
    of ``SimEvent(...)``.
    """

    id: EventId
    kind: EventKind
    node: NodeId
    engine_time: float
    parents: tuple[EventId, ...]
    payload: dict[str, Any]


EventTrace = tuple[SimEvent, ...]
