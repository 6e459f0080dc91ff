"""Per-decay entropy rows.

Each decay is decomposed into three entropy terms (internal change of the
node, transfer carried by the outgoing signal, and a constant vacuum
term), all in units of the Boltzmann constant. The production rate is
defined so that the duration of the entropy production process equals the
decay lifetime; ``entropy_lifetime`` recomputes that duration through the
rate rather than shortcutting, so the identity is checked numerically
instead of assumed. ``decay_row`` is the one definition of the row each
decay event carries, for the engine, ``fcnsim validate`` and
``verify_trace``: a trace is the one ledger.
"""

from __future__ import annotations

import math
import sys
from collections import namedtuple
from typing import TYPE_CHECKING, Iterable, NamedTuple

from .constants import CONSTANTS, Checked
from .errors import NonPositiveEnergy
from .quantum import lifetime, signal_energy

if TYPE_CHECKING:
    from .network import ClockNode, NodeId


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


def decay_row(delta_e_ev: float, gamma_ev: float, breakdown: EntropyBreakdown) -> dict[str, float]:
    """The payload of a decay after its ``excitation_id``: ``energy_ev``,
    ``gamma_ev``, the terms, their ``total``, ``production_rate`` = total /
    lifetime and ``lifetime_s``. The single definition of a row's numbers;
    raises ValueError for a total or rate that is not finite."""
    tau, total = lifetime(gamma_ev), breakdown.total()
    if not abs(total) <= sys.float_info.max:  # also an int total, of int terms, that no float holds
        raise ValueError(f"total must be finite, got {total}")
    if not math.isfinite(rate := total / tau):
        raise ValueError(f"production_rate must be finite, got {rate}")
    return {"energy_ev": delta_e_ev, "gamma_ev": gamma_ev, "ds_internal": breakdown.ds_internal,
            "ds_signal": breakdown.ds_signal, "ds_vacuum": breakdown.ds_vacuum, "total": total,
            "production_rate": rate, "lifetime_s": tau}


def decay_payloads(nodes: Iterable[ClockNode], model: EntropyModel) -> tuple[dict[NodeId, dict[str, float]], list[str]]:
    """Each decaying node's ``decay_row``, shared by the nodes with its gap
    and ``gamma_ev``, and ``node N: <field> must be finite, got <value>`` for
    each node whose row would not be finite."""
    table: dict[NodeId, dict[str, float]] = {}
    shared: dict[tuple[float, float], dict[str, float]] = {}
    problems: list[str] = []
    for node in nodes:
        if (gamma := node.spec.gamma_ev) is None:
            continue
        gap = signal_energy(node.spec)
        if (payload := shared.get((gap, gamma))) is None:
            try:
                payload = shared[gap, gamma] = decay_row(gap, gamma, breakdown_for_decay(gap, model))
            except ValueError as exc:
                problems.append(f"node {node.id}: {exc}")
                continue
        table[node.id] = payload
    return table, problems


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
    """Entropy rows as ``EntropyLedgerEntry`` values; it keeps none.

    Nothing in fcnsim uses one, since each decay event carries its row; it
    remains for the benchmark's entropy replay (``perfbench/layers.py``)."""

    def record_decay(self, event_id: int, delta_e_ev: float, gamma_ev: float, model: EntropyModel) -> EntropyLedgerEntry:
        """The row of decay ``event_id``, from ``decay_row``.

        Second-law violations are returned, not rejected: a bad entropy
        model should be visible, not fatal.
        """
        breakdown = breakdown_for_decay(delta_e_ev, model)
        row = decay_row(delta_e_ev, gamma_ev, breakdown)
        return EntropyLedgerEntry(event_id, breakdown, row["lifetime_s"], row["production_rate"])
