"""The benchmark's seed-7 traces and what the analysis commands print of
them keep their bytes.

``perfbench/workloads.py`` generates the three benchmark workloads; it is
loaded from its file, and nothing in it is changed or run beyond the
generators. Each trace digest is of ``serialize_trace`` over the in-process
run; the analysis digests are of ``report``'s stdout and of the
``timeline --clock`` CSV for the workload's timeline clock.
"""

from __future__ import annotations

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from fcnsim import Engine, RunConfig, SamplingMode, verify_trace
from fcnsim.cli import main
from fcnsim.io import serialize_trace
from fcnsim.network import parse_network

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED7_SHA256 = {
    "random": "93f5f3f2cffe99e614614a0563baa1e59ef0e255e633fc91c666572e6750e335",
    "chain": "7ec2a4a7695e033094cfc5535a61a6167445a6f73b316af83d8927ec1ed4fcbb",
    "broadcast": "d513953c7a89c581a06939bff9b6a4cb516a4458a9372188f476c3fb4a12082e",
}
# (report stdout, timeline CSV) of each seed-7 trace.
SEED7_ANALYSIS_SHA256 = {
    "random": (
        "274a1d56b63ce9d7003caa937adf571eb583f774a2a74a8ac00d7582e0a563f0",
        "41b90ece43c97fe01de6a2579668ce5431ec891e02eb8dc9058c840cf7725be5",
    ),
    "chain": (
        "1c1998399592512531ac7e29a50f747706382ae517d22966106353d6f6daeefd",
        "eb7a39d7e75f49b06dfe8fb910cbc9916dcbbea57c36ae0d126c3c422d25ea97",
    ),
    "broadcast": (
        "b3840d36bc01d0568340cb3dda78822181f50948187d051fe486690f3802aa17",
        "21980c9a852e0e38c5a76b4ba3c9b3e6b93c53dfd81bab5321c8bd13e0051276",
    ),
}


@pytest.fixture(scope="module")
def seed7():
    """A function of a workload's name: its seed-7 network, trace and
    timeline clock, each workload run once per module."""
    generators = runpy.run_path(str(_WORKLOADS))["GENERATORS"]
    made = {}

    def run(name):
        if name not in made:
            w = generators[name](7)
            doc = parse_network(json.dumps(w.doc))
            mode = SamplingMode.STOCHASTIC if w.mode == "sto" else SamplingMode.DETERMINISTIC
            trace = Engine(doc.network, RunConfig(w.until_s, mode, w.seed), doc.injections).run()
            made[name] = doc.network, trace, w.clock
        return made[name]

    return run


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", SEED7_SHA256)
def test_seed_7_trace_is_unchanged(seed7, name):
    network, trace, _ = seed7(name)
    assert _sha256(serialize_trace(trace).encode()) == SEED7_SHA256[name]
    assert verify_trace(trace, network) == []


@pytest.mark.parametrize("name", SEED7_ANALYSIS_SHA256)
def test_seed_7_analysis_outputs_are_unchanged(seed7, name, tmp_path, capsys):
    _, trace, clock = seed7(name)
    path, csv = tmp_path / "trace.jsonl", tmp_path / "timeline.csv"
    path.write_text(serialize_trace(trace), encoding="utf-8")
    assert main(["report", str(path)]) == 0
    report = capsys.readouterr().out
    assert main(["timeline", str(path), "--clock", str(clock), "--out", str(csv)]) == 0
    assert (_sha256(report.encode()), _sha256(csv.read_bytes())) == SEED7_ANALYSIS_SHA256[name]
