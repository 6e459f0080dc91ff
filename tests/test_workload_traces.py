"""The benchmark's seed-7 traces keep their bytes.

``perfbench/workloads.py`` generates the three benchmark workloads; it is
loaded from its file, and nothing in it is changed or run beyond the
generators. Each digest is of ``serialize_trace`` over the in-process run.
"""

from __future__ import annotations

import hashlib
import json
import runpy
from pathlib import Path

import pytest

from fcnsim import Engine, RunConfig, SamplingMode, verify_trace
from fcnsim.io import serialize_trace
from fcnsim.network import parse_network

_WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
SEED7_SHA256 = {
    "random": "93f5f3f2cffe99e614614a0563baa1e59ef0e255e633fc91c666572e6750e335",
    "chain": "7ec2a4a7695e033094cfc5535a61a6167445a6f73b316af83d8927ec1ed4fcbb",
    "broadcast": "d513953c7a89c581a06939bff9b6a4cb516a4458a9372188f476c3fb4a12082e",
}


@pytest.fixture(scope="module")
def generators():
    return runpy.run_path(str(_WORKLOADS))["GENERATORS"]


@pytest.mark.parametrize("name", SEED7_SHA256)
def test_seed_7_trace_is_unchanged(generators, name):
    w = generators[name](7)
    doc = parse_network(json.dumps(w.doc))
    mode = SamplingMode.STOCHASTIC if w.mode == "sto" else SamplingMode.DETERMINISTIC
    trace = Engine(doc.network, RunConfig(w.until_s, mode, w.seed), doc.injections).run()
    assert hashlib.sha256(serialize_trace(trace).encode()).hexdigest() == SEED7_SHA256[name]
    assert verify_trace(trace, doc.network) == []
