"""Per-decay entropy bookkeeping.

Each decay is decomposed into three entropy terms (internal change of the
node, transfer carried by the outgoing signal, and a constant vacuum
term), all in units of the Boltzmann constant. The production rate is
defined so that the duration of the entropy production process equals the
decay lifetime; ``entropy_lifetime`` recomputes that duration through the
rate rather than shortcutting, so the identity is checked numerically
instead of assumed.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import Iterator, NamedTuple

from .constants import CONSTANTS, Checked
from .errors import DuplicateEvent, NonPositiveEnergy
from .quantum import lifetime


class EntropyBreakdown(Checked, namedtuple("EntropyBreakdown", "ds_internal ds_signal ds_vacuum")):
    """Three-way entropy split for one decay, in k_B units."""

    __slots__ = ()

    def __new__(cls, ds_internal: float, ds_signal: float, ds_vacuum: float) -> EntropyBreakdown:
        terms = (ds_internal, ds_signal, ds_vacuum)
        for name, value in zip(cls._fields, terms):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        return tuple.__new__(cls, terms)

    def total(self) -> float:
        return self.ds_internal + self.ds_signal + self.ds_vacuum

    @property
    def is_admissible(self) -> bool:
        """True when the record respects the second law (total >= 0)."""
        return self.total() >= 0


class EntropyModel(
    Checked, namedtuple("EntropyModel", "source_temperature_k environment_temperature_k vacuum_term_kb")
):
    """Reservoir temperatures and vacuum offset supplying the magnitudes.

    The decomposition itself fixes only signs and structure; this model
    makes it concrete: the source loses delta_e at its own temperature,
    the environment gains it at the environment temperature, and the
    vacuum term is a constant knob.
    """

    __slots__ = ()

    def __new__(
        cls, source_temperature_k: float = 300.0, environment_temperature_k: float = 3.0, vacuum_term_kb: float = 0.0
    ) -> EntropyModel:
        if not source_temperature_k > 0:
            raise ValueError(f"source temperature must be > 0 K, got {source_temperature_k}")
        if not environment_temperature_k > 0:
            raise ValueError(f"environment temperature must be > 0 K, got {environment_temperature_k}")
        if not math.isfinite(vacuum_term_kb):
            raise ValueError(f"vacuum term must be finite, got {vacuum_term_kb}")
        return tuple.__new__(cls, (source_temperature_k, environment_temperature_k, vacuum_term_kb))


DEFAULT_ENTROPY_MODEL = EntropyModel()


class EntropyLifetime(NamedTuple):
    """Duration of the entropy production process for one decay.

    ``zero_entropy_change`` flags the degenerate case where the breakdown
    total is zero, or too small for its rate to be a normal float: the
    rate is undefined, and the duration falls back to the decay lifetime
    directly.
    """

    seconds: float
    zero_entropy_change: bool = False


class EntropyLedgerEntry(NamedTuple):
    """One ledger row: breakdown, lifetime, and production rate for a decay."""

    decay_event_id: int
    breakdown: EntropyBreakdown
    lifetime_s: float
    production_rate_kb_per_s: float


def breakdown_for_decay(delta_e_ev: float, model: EntropyModel) -> EntropyBreakdown:
    """Decompose the entropy change of one decay emitting ``delta_e_ev``.

    Internal term: -delta_e / (k_B * T_source). Signal term:
    +delta_e / (k_B * T_environment). Vacuum term: the model's constant.
    Raises NonPositiveEnergy for delta_e_ev <= 0, and ValueError (from
    EntropyBreakdown) for a term that is not finite, including a
    temperature so small that k_B * T underflows to 0.
    """
    if not delta_e_ev > 0:
        raise NonPositiveEnergy(f"decay energy must be > 0 eV, got {delta_e_ev}")
    kb = CONSTANTS.k_b_ev_per_k
    return EntropyBreakdown(
        ds_internal=-_per_kt(delta_e_ev, kb * model.source_temperature_k),
        ds_signal=_per_kt(delta_e_ev, kb * model.environment_temperature_k),
        ds_vacuum=model.vacuum_term_kb,
    )


def _per_kt(delta_e_ev: float, kt_ev: float) -> float:
    # Below about 1e-319 K, k_B * T underflows to 0; the limit of the
    # quotient is then +inf, which the breakdown rejects like any overflow.
    return delta_e_ev / kt_ev if kt_ev else math.inf


def decay_entropy(
    delta_e_ev: float, gamma_ev: float, model: EntropyModel
) -> tuple[EntropyBreakdown, float, float]:
    """Breakdown, lifetime (s) and production rate (k_B/s) of one decay.

    The single definition of a ledger row's numbers, shared by the ledger
    and the engine's decay payloads. The rate is total / lifetime.
    """
    breakdown = breakdown_for_decay(delta_e_ev, model)
    tau = lifetime(gamma_ev)
    return breakdown, tau, breakdown.total() / tau


def entropy_lifetime(breakdown: EntropyBreakdown, gamma_ev: float) -> EntropyLifetime:
    """Duration of the entropy production process, computed through the rate.

    The production rate is taken constant across the decay, so the duration
    is total / rate with rate = total / lifetime(gamma). The round trip
    through the rate is deliberate: it verifies numerically that the
    entropy clock and the decay clock agree. A zero total makes the rate
    undefined; the decay lifetime is returned with a diagnostic flag. A
    rate that is not a normal float (a total so small that the rate
    underflows to zero or a subnormal, or one that overflows) takes the
    same fallback: dividing by it would raise or lose the identity.
    """
    tau = lifetime(gamma_ev)
    total = breakdown.total()
    rate = total / tau
    if not sys.float_info.min <= abs(rate) <= sys.float_info.max:
        return EntropyLifetime(seconds=tau, zero_entropy_change=True)
    return EntropyLifetime(seconds=total / rate)


class EntropyLedger:
    """Append-only record of entropy rows, keyed by decay event id.

    Nothing in the engine or the CLI writes one: a run carries each decay's
    entropy row in the decay event's payload. ``entries()`` hands out
    immutable snapshots that are safe to share.
    """

    def __init__(self) -> None:
        self._entries: dict[int, EntropyLedgerEntry] = {}

    def record_decay(
        self,
        event_id: int,
        delta_e_ev: float,
        gamma_ev: float,
        model: EntropyModel,
    ) -> EntropyLedgerEntry:
        """Compose breakdown, lifetime, and rate into one row and append it.

        Raises DuplicateEvent if the event id was already recorded; rows are
        never mutated or removed. Second-law violations are recorded, not
        rejected: a bad entropy model should be visible, not fatal.
        """
        if event_id in self._entries:
            raise DuplicateEvent(f"decay event {event_id} already recorded")
        breakdown, tau, rate = decay_entropy(delta_e_ev, gamma_ev, model)
        entry = EntropyLedgerEntry(
            decay_event_id=event_id,
            breakdown=breakdown,
            lifetime_s=tau,
            production_rate_kb_per_s=rate,
        )
        self._entries[event_id] = entry
        return entry

    def get(self, event_id: int) -> EntropyLedgerEntry | None:
        return self._entries.get(event_id)

    def entries(self) -> tuple[EntropyLedgerEntry, ...]:
        """Snapshot of all rows in recording order."""
        return tuple(self._entries.values())

    def violation_count(self) -> int:
        return sum(1 for e in self._entries.values() if not e.breakdown.is_admissible)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[EntropyLedgerEntry]:
        return iter(self.entries())
