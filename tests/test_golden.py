"""Golden counters: every integer counter, the iteration count, convergence,
a hash of the centroid trajectory and the set of phase names, for a grid of
configurations, must equal the values recorded in ``golden_counters.json``.

A refactor that keeps the paradigms' cost structure leaves this file green.
Regenerate the data only when a change means to move a counter:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from ogrebench import runner
from ogrebench.config import COMPATIBLE_SCHEDULERS, RunConfig
from ogrebench.costs import ZERO_COSTS
from ogrebench.dataset import ScenarioSpec
from ogrebench.fabric import ClusterTopology

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                      "golden_counters.json")
# One spec stops at max_iter, the other converges.
SPECS = {"a": ScenarioSpec(600, 6, dims=3, seed=5, max_iter=3),
         "b": ScenarioSpec(800, 5, dims=2, seed=3, max_iter=10)}
TOPOLOGIES = {"4x4": ClusterTopology(4, 4), "3x2": ClusterTopology(3, 2),
              "1x2": ClusterTopology(1, 2)}
SPILL_THRESHOLD = 4096


def families():
    """(engine, scheduler, combine) triples: every compatible pairing, and
    mapreduce with and without its combiner."""
    for engine in sorted(COMPATIBLE_SCHEDULERS):
        for scheduler in sorted(COMPATIBLE_SCHEDULERS[engine]):
            for combine in ((False, True) if engine == "mapreduce" else (False,)):
                yield engine, scheduler, combine


def family_id(family) -> str:
    engine, scheduler, combine = family
    return f"{engine}-{scheduler}" + ("-combine" if combine else "")


def grid(family):
    """(key, RunConfig) for every spec, collective, reduction mode, store
    and topology of one family."""
    engine, scheduler, combine = family
    for spec, collective, deterministic, store, topo in itertools.product(
            sorted(SPECS), ("tree", "rdouble"), (True, False),
            ("colocated", "shared"), sorted(TOPOLOGIES)):
        key = (f"{family_id(family)}/{spec}/{collective}/"
               f"{'det' if deterministic else 'bench'}/{store}/{topo}")
        yield key, RunConfig(
            spec=SPECS[spec], engine=engine, scheduler=scheduler,
            store_mode=store, collective=collective,
            deterministic=deterministic, combine=combine,
            spill_threshold=SPILL_THRESHOLD, topology=TOPOLOGIES[topo],
            costs=ZERO_COSTS, compute_objective=False)


def fingerprint(outcome) -> dict:
    report, result = outcome.report, outcome.result
    out = {name: value for name, value in report.metrics.items()
           if isinstance(value, int)}
    out["iterations"] = report.iterations
    out["converged"] = report.converged
    digest = hashlib.sha256()
    for centroids in result.trajectory:
        digest.update(np.ascontiguousarray(centroids.coords,
                                           dtype=np.float64).tobytes())
    out["trajectory_sha256"] = digest.hexdigest()
    out["phases"] = sorted(report.metrics["phase_seconds"])
    return out


def comparable(key: str, values: dict) -> dict:
    """Mapreduce under multilevel on 3x2 runs 12 map tasks on 6 slots, so
    which node a map lands on depends on when containers come back; only the
    total of remote and node-local shuffle bytes is fixed there."""
    values = dict(values)
    if key.startswith("mapreduce-multilevel") and key.endswith("/3x2"):
        values["network_bytes+intra_node_bytes"] = (
            values.pop("network_bytes") + values.pop("intra_node_bytes"))
    return values


def measure(family) -> dict:
    return {key: fingerprint(runner.run(config)) for key, config in grid(family)}


@pytest.fixture(scope="module")
def golden():
    with open(GOLDEN) as fh:
        return json.load(fh)


@pytest.mark.parametrize("family", list(families()), ids=family_id)
def test_counters_match_golden(family, golden, tmp_path, monkeypatch):
    monkeypatch.setenv("OGREBENCH_WORKDIR", str(tmp_path))
    got = measure(family)
    want = {key: value for key, value in golden.items()
            if key.startswith(family_id(family) + "/")}
    assert sorted(got) == sorted(want)
    for key in sorted(want):
        assert comparable(key, got[key]) == comparable(key, want[key]), key


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        os.environ["OGREBENCH_WORKDIR"] = tmp
        data = {}
        for fam in families():
            data.update(measure(fam))
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(data)} configurations to {GOLDEN}")
