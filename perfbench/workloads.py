"""Seeded workload generators for the fcnsim benchmark.

Each generator takes the benchmark seed and returns a ``Workload``: a
network document (plain JSON data, exactly what ``fcnsim run`` reads) plus
the run flags the CLI pipeline needs. Generators use only the standard
library, so the program under test receives nothing but generated inputs.
``scale`` shrinks a workload for the benchmark's own self-test; the
benchmark itself always runs at scale 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable

# Values fcnsim.constants uses; repeated here so generating a workload does
# not import the package under test.
HBAR_EV_S = 6.582119569e-16
C_M_PER_S = 2.99792458e8

GAP_EV = 1.5  # the shared resonant channel
RANDOM_NODES = 3000
RANDOM_UNTIL_S = 3.0
RANDOM_INJECTIONS = 300
CHAIN_NODES = 2000
BROADCAST_DETECTORS = 500
# Clock periods and origins are fixed so that every seed meets the same
# clocks; the seed varies the detectors and the stochastic run.
BROADCAST_PERIODS_S = (0.002, 0.0025, 0.003, 0.0035, 0.004, 0.0045, 0.005, 0.006)


@dataclass(frozen=True)
class Workload:
    """One generated input: the network document plus CLI run flags.

    ``clock`` is the clock host the ``timeline`` command labels with.
    ``seed`` is the stochastic seed passed to ``run`` (ignored in det mode).
    """

    name: str
    doc: dict[str, Any]
    until_s: float
    mode: str
    seed: int
    clock: int
    params: dict[str, Any] = field(default_factory=dict)

    def run_flags(self) -> list[str]:
        flags = ["--until", repr(self.until_s), "--mode", self.mode]
        if self.mode == "sto":
            flags += ["--seed", str(self.seed)]
        return flags


def _node(
    node_id: int,
    tau_s: float | None,
    gap_ev: float = GAP_EV,
    can_emit: bool = True,
    can_detect: bool = True,
    x_m: float = 0.0,
) -> dict[str, Any]:
    node: dict[str, Any] = {
        "id": node_id,
        "ground_ev": 0.0,
        "excited_ev": gap_ev,
        "position_m": [x_m, 0.0, 0.0],
    }
    if tau_s is not None:
        node["gamma_ev"] = HBAR_EV_S / tau_s
    if not can_emit:
        node["can_emit"] = False
    if not can_detect:
        node["can_detect"] = False
    return node


def _doc(nodes, arcs, clocks, injections) -> dict[str, Any]:
    return {
        "schema_version": "1",
        "nodes": nodes,
        "arcs": arcs,
        "standard_clocks": clocks,
        "injections": injections,
    }


def _spread(rng: random.Random, n: int, lo: float, hi: float) -> list[float]:
    """n values evenly spaced over [lo, hi], in seeded random order.

    Evenly spaced rather than drawn, so every seed gets the same set of
    lifetimes and the amount of work varies little from seed to seed.
    """
    values = [lo + (hi - lo) * (k + 0.5) / n for k in range(n)]
    rng.shuffle(values)
    return values


def _flags(rng: random.Random, n: int, share: float) -> list[bool]:
    """Exactly round(share * n) of n flags set, in seeded random order."""
    k = round(share * n)
    flags = [True] * k + [False] * (n - k)
    rng.shuffle(flags)
    return flags


def random_workload(seed: int, scale: float = 1.0) -> Workload:
    """Random sparse network in stochastic mode: engine and trace I/O bound.

    3000 nodes, fan-out 3, lifetimes spread over [0.1, 1] s, 20% of nodes
    off the shared resonance, 5% stable, 2% not detecting, one 0.25 s clock
    with its first tick at 0.1 s, horizon 3 s. 300 injections in the first
    0.2 s bring the network to its steady state quickly.

    The network and its injections are the same for every seed: drawing
    them anew per seed moved the event count by 6-9% between quartiles,
    against 2.5% for a new stochastic stream alone. The seed picks the
    stochastic seed of the run and the clock's host.
    """
    rng = random.Random("random:network")
    n = max(4, round(RANDOM_NODES * scale))
    stable = _flags(rng, n, 0.05)
    off = _flags(rng, n, 0.2)
    deaf = _flags(rng, n, 0.02)
    taus = iter(_spread(rng, n - sum(stable), 0.1, 1.0))
    nodes = [
        _node(
            i,
            None if stable[i - 1] else next(taus),
            rng.choice((1.0, 2.0)) if off[i - 1] else GAP_EV,
            can_detect=not deaf[i - 1],
            x_m=rng.uniform(0, 1e8),
        )
        for i in range(1, n + 1)
    ]
    arcs = []
    for src in range(1, n + 1):
        # Three distinct targets other than src: draw from 1..n-1, skip over src.
        for t in rng.sample(range(1, n), 3):
            dst = t if t < src else t + 1
            transit_s = rng.uniform(0.01, 0.1)
            arcs.append(
                {"id": len(arcs) + 1, "source": src, "target": dst, "distance_m": transit_s * C_M_PER_S}
            )
    injections = [
        {"node": rng.randint(1, n), "at_s": rng.uniform(0.0, 0.2)}
        for _ in range(max(1, round(RANDOM_INJECTIONS * scale)))
    ]
    rng = random.Random(f"random:{seed}")
    clock_host = rng.randint(1, n)
    clocks = [{"id": clock_host, "period_s": 0.25, "first_tick_s": 0.1, "counter_start": 0}]
    return Workload(
        name="random",
        doc=_doc(nodes, arcs, clocks, injections),
        until_s=RANDOM_UNTIL_S * min(1.0, scale * 10),
        mode="sto",
        seed=rng.randrange(2**32),
        clock=clock_host,
        params={"nodes": n, "fan_out": 3, "injections": len(injections)},
    )


def chain_workload(seed: int, scale: float = 1.0) -> Workload:
    """Deterministic relay chain: chronology bound, engine and I/O light.

    Lifetime 10 ms and transit 10 ms per hop, one injection at the head,
    one 50 ms clock at the head with its first tick at 0.1 s. The seed sets
    the injection time; the chain itself is fixed.
    """
    rng = random.Random(f"chain:{seed}")
    n = max(3, round(CHAIN_NODES * scale))
    tau = 0.01
    transit = 0.01
    nodes = [_node(i, tau, x_m=(i - 1) * transit * C_M_PER_S) for i in range(1, n + 1)]
    arcs = [
        {"id": i, "source": i, "target": i + 1, "distance_m": transit * C_M_PER_S}
        for i in range(1, n)
    ]
    clocks = [{"id": 1, "period_s": 0.05, "first_tick_s": 0.1, "counter_start": 0}]
    injections = [{"node": 1, "at_s": rng.uniform(0.1, 0.2)}]
    # Each hop takes tau + transit; leave room for the wave to reach the end.
    until = 0.2 + n * (tau + transit) + 1.0
    return Workload(
        name="chain",
        doc=_doc(nodes, arcs, clocks, injections),
        until_s=until,
        mode="det",
        seed=0,
        clock=1,
        params={"nodes": n},
    )


def broadcast_workload(seed: int, scale: float = 1.0) -> Workload:
    """One hub re-injected 20 times, fanning out to 500 detectors.

    The detectors do not emit and live 0.5-2 s; most are still excited at
    the next shot, so most arrivals pass through as ``occupied``. 5% are off
    resonance and 2% do not detect. Eight clocks with 2-6 ms periods sit on
    detectors, with first ticks at 1-8 ms; stochastic mode, horizon 5 s.
    """
    rng = random.Random(f"broadcast:{seed}")
    n_det = max(len(BROADCAST_PERIODS_S), round(BROADCAST_DETECTORS * scale))
    hub = 1
    nodes = [_node(hub, 0.05)]
    off = _flags(rng, n_det, 0.05)
    deaf = _flags(rng, n_det, 0.02)
    taus = _spread(rng, n_det, 0.5, 2.0)
    for k in range(n_det):
        nodes.append(
            _node(
                k + 2,
                taus[k],
                2.0 if off[k] else GAP_EV,
                can_emit=False,
                can_detect=not deaf[k],
                x_m=rng.uniform(1e6, 3e7),
            )
        )
    arcs = [
        {"id": k, "source": hub, "target": node["id"], "distance_m": node["position_m"][0]}
        for k, node in enumerate(nodes[1:], start=1)
    ]
    hosts = rng.sample(range(2, n_det + 2), len(BROADCAST_PERIODS_S))
    clocks = [
        {"id": host, "period_s": period, "first_tick_s": 0.001 * k, "counter_start": 0}
        for k, (host, period) in enumerate(zip(hosts, BROADCAST_PERIODS_S), start=1)
    ]
    injections = [{"node": hub, "at_s": 0.01 + 0.25 * k} for k in range(20)]
    return Workload(
        name="broadcast",
        doc=_doc(nodes, arcs, clocks, injections),
        until_s=5.0 * min(1.0, scale * 10),
        mode="sto",
        seed=rng.randrange(2**32),
        clock=hosts[0],
        params={"detectors": n_det, "clocks": len(clocks)},
    )


GENERATORS: dict[str, Callable[..., Workload]] = {
    "random": random_workload,
    "chain": chain_workload,
    "broadcast": broadcast_workload,
}

# Why each workload exists: which layers it loads, and which it leaves flat.
WHY = {
    "random": (
        "Loads the engine and trace I/O, and is the only workload that pushes the "
        "stochastic RNG path and the per-decay entropy rows hard."
    ),
    "chain": (
        "Chronology-bound: deep labelled ancestry makes timeline and report dominate; "
        "engine and I/O changes should leave it flat."
    ),
    "broadcast": (
        "Wide fan-out and dense clock ticks with shallow ancestry: report rescans the "
        "trace once per clock, so a gain on the other two that costs this one shows here."
    ),
}
