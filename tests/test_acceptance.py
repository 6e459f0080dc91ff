"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion lines inline). Every tolerance is pinned here; nothing is
deferred to later calibration.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
from scipy import stats

from fcnsim import (
    ClockNode,
    Engine,
    EntropyModel,
    EventKind,
    RunConfig,
    breakdown_for_decay,
    build_timeline,
    clock_pulses,
    entropy_lifetime,
    label_absorptions,
    lifetime,
    resolution_report,
    validate_network,
    verify_trace,
)
from fcnsim.cli import main
from fcnsim.engine import _exponential_delay
from fcnsim.io import entropy_rows, parse_network_file, serialize_trace
from helpers import (
    HBAR,
    random_config,
    random_network,
    two_level,
)


def report(num: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def test_criterion_1_lifetime_identity():
    """lifetime(gamma) * gamma recovers hbar to 1e-12 over 20 decades."""
    start = time.perf_counter()
    gammas = np.logspace(-20, 0, 1000)
    worst = max(abs(lifetime(g) * g - HBAR) / HBAR for g in gammas)
    elapsed = time.perf_counter() - start
    report(1, "lifetime identity over 1000 log-spaced rates", worst <= 1e-12 and elapsed < 1.0,
           f"worst rel err {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_entropy_lifetime_identity():
    """The rate-path entropy duration equals the decay lifetime to 1e-9."""
    start = time.perf_counter()
    rng = random.Random(2)
    failures = 0
    zero_branch_seen = 0
    for i in range(1000):
        gamma = 10 ** rng.uniform(-20, 0)
        if i % 5 == 0:
            # Equal temperatures and no vacuum term cancel exactly.
            model = EntropyModel(source_temperature_k=250.0, environment_temperature_k=250.0,
                                 vacuum_term_kb=0.0)
        else:
            model = EntropyModel(
                source_temperature_k=rng.uniform(1.0, 1000.0),
                environment_temperature_k=rng.uniform(1.0, 1000.0),
                vacuum_term_kb=rng.uniform(-2.0, 2.0),
            )
        breakdown = breakdown_for_decay(rng.uniform(0.1, 10.0), model)
        result = entropy_lifetime(breakdown, gamma)
        if result.zero_entropy_change:
            zero_branch_seen += 1
        if not math.isclose(result.seconds, lifetime(gamma), rel_tol=1e-9):
            failures += 1
    elapsed = time.perf_counter() - start
    report(2, "entropy-production lifetime equals decay lifetime",
           failures == 0 and zero_branch_seen == 200 and elapsed < 1.0,
           f"{failures} failures, {zero_branch_seen} zero-total cases, {elapsed:.2f}s")


def test_criterion_3_second_law_decomposition():
    """The decay rows a run writes: a cold environment gives every total >= 0,
    a hot one flags every decay, counted as ``fcnsim entropy`` counts them."""
    start = time.perf_counter()
    rng = random.Random(3)
    hot_model = EntropyModel(source_temperature_k=300.0, environment_temperature_k=600.0,
                             vacuum_term_kb=0.0)
    counts = []
    for model in (EntropyModel(), hot_model):  # 300 K source, 3 K environment; then a 600 K one
        # 100 unconnected nodes, each excited once; the longest lifetime is hbar / 1e-18 eV, about 658 s.
        nodes = [ClockNode(i, two_level(rng.uniform(0.01, 10.0), 10 ** rng.uniform(-18, -2))) for i in range(100)]
        engine = Engine(validate_network(nodes), RunConfig(700.0, entropy_model=model), [(i, 0.0) for i in range(100)])
        rows = entropy_rows(engine.events())
        counts.append((len(rows), sum(1 for row in rows if row[4] < 0)))  # row[4] is the total
    elapsed = time.perf_counter() - start
    ok = counts == [(100, 0), (100, 100)] and elapsed < 1.0
    report(3, "second-law flags of run-written decay rows under cold and hot environments", ok,
           f"(rows, violations) {counts}, {elapsed:.2f}s")


def _random_suite(n_cases: int):
    for i in range(n_cases):
        rng = random.Random(40_000 + i)
        network, injections = random_network(rng)
        config = random_config(rng)
        trace = Engine(network, config, injections).run()
        yield network, trace


def test_criterion_4_and_5_qat_and_causality():
    """200 random networks: decay-once, provenance, exact arrival times."""
    start = time.perf_counter()
    problems: list[str] = []
    cases = 0
    events = 0
    for network, trace in _random_suite(200):
        cases += 1
        events += len(trace)
        problems += verify_trace(trace, network)
    elapsed = time.perf_counter() - start
    report(4, "irreversibility over 200 random networks",
           cases == 200 and not problems and elapsed < 30.0,
           f"{events} events, {len(problems)} problems, {elapsed:.1f}s")
    report(5, "bitwise causality in the same suite", not problems,
           "absorption time == emission time + distance/c")


def test_criterion_6_chain_fixture_oracle(fixtures_dir):
    """The shipped fixture reproduces the hand-computed trace and labels."""
    doc = parse_network_file(fixtures_dir / "chain.net.json")
    engine = Engine(doc.network, RunConfig(run_until_s=5.0),
                    [(i.node, i.at_s) for i in doc.injections])
    trace = engine.run()
    decays = [(e.node, e.engine_time) for e in trace if e.kind is EventKind.DECAY]
    absorptions = [(e.node, e.engine_time) for e in trace if e.kind is EventKind.ABSORPTION]
    golden = (fixtures_dir / "chain.expected-trace.jsonl").read_text()
    labels, _ = label_absorptions(trace, doc.network.clocks[0])
    timeline, violations = build_timeline(labels, trace)
    ok = (
        decays == [(1, 1.0), (2, 3.5)]
        and absorptions == [(2, 1.5), (3, 3.75)]
        and serialize_trace(trace) == golden
        and [lb.time_number_s for lb in timeline.entries] == [1.0, 3.0]
        and violations == ()
    )
    report(6, "chain fixture trace and timeline match the golden files", ok)


def test_criterion_7_stochastic_decay():
    """Seed 42, 1e5 draws at tau=2: mean within 1%, KS passes, rerun identical."""
    start = time.perf_counter()
    tau = 2.0
    gamma = HBAR / tau

    def draw_all(seed: int) -> np.ndarray:
        rng = np.random.Generator(np.random.PCG64(seed))
        return np.array([_exponential_delay(lifetime(gamma), rng.random()) for _ in range(100_000)])

    draws = draw_all(42)
    rerun = draw_all(42)
    mean = float(draws.mean())
    ks = stats.kstest(draws, "expon", args=(0, tau))
    elapsed = time.perf_counter() - start
    ok = (
        abs(mean - tau) / tau < 0.01
        and ks.pvalue >= 0.01
        and bool((draws == rerun).all())
        and elapsed < 5.0
    )
    report(7, "stochastic decay statistics and reproducibility", ok,
           f"mean {mean:.4f}, KS p {ks.pvalue:.3f}, {elapsed:.1f}s")


def test_criterion_8_chronology_properties():
    """Random traces: labels embed causal order; halving periods only refines."""
    start = time.perf_counter()
    checked = 0
    problems: list[str] = []
    for i in range(60):
        rng = random.Random(80_000 + i)
        network, injections = random_network(rng)
        if not network.clocks:
            continue
        config = random_config(rng)
        trace = Engine(network, config, injections).run()
        clock = network.clocks[0]
        horizon = max((e.engine_time for e in trace), default=0.0)

        def labeled(spec):
            pulses = clock_pulses(spec, until_s=horizon)
            labels, _ = label_absorptions(trace, spec, pulses)
            return build_timeline(labels, trace, observer=spec.id)

        timeline, violations = labeled(clock)
        if violations:
            problems.append(f"case {i}: {len(violations)} causal violations")
        coarse = resolution_report(timeline, trace)
        fine_tl, _ = labeled(clock._replace(period_s=clock.period_s * 0.5))
        fine = resolution_report(fine_tl, trace)
        if fine.indistinguishable_pairs > coarse.indistinguishable_pairs:
            problems.append(f"case {i}: refinement increased indistinguishable pairs")
        checked += 1
    elapsed = time.perf_counter() - start
    report(8, "chronology order embedding and refinement",
           checked >= 30 and not problems and elapsed < 10.0,
           f"{checked} clocked cases, {len(problems)} problems, {elapsed:.1f}s")


def test_criterion_9_end_to_end_determinism(fixtures_dir, tmp_path):
    """Two identical CLI runs give byte-identical traces and timeline CSVs."""
    net = str(fixtures_dir / "chain.net.json")
    traces = []
    csvs = []
    for tag in ("a", "b"):
        trace_path = tmp_path / f"{tag}.jsonl"
        csv_path = tmp_path / f"{tag}.csv"
        assert main(["run", net, "--until", "5.0", "--mode", "sto", "--seed", "42",
                     "--out", str(trace_path)]) == 0
        assert main(["timeline", str(trace_path), "--clock", "3", "--out", str(csv_path)]) == 0
        traces.append(trace_path.read_bytes())
        csvs.append(csv_path.read_bytes())
    ok = traces[0] == traces[1] and csvs[0] == csvs[1]
    report(9, "seeded CLI reruns are byte-identical end to end", ok)
