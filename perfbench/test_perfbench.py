"""Reduced-size runs of the benchmark: verdicts check out and every metric
named in BENCHMARK.json is emitted.

    python -m pytest perfbench/test_perfbench.py -q
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from cechlift import (  # noqa: E402
    BUILTIN_COMPLEXES,
    BundleCocycle,
    build_complex,
    builtin_complex,
    builtin_extension,
    euler_characteristic,
    obstruction_class,
    validate_cocycle,
)
from cechlift.cochain import _coboundary_snf  # noqa: E402

import inputs  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", BUILTIN_COMPLEXES)
def test_subdivision_keeps_euler_characteristic_and_cocycles(name):
    base = builtin_complex(name)
    facets, vmap = inputs.subdivide(base.facets)
    sd = build_complex(facets)
    assert euler_characteristic(sd) == euler_characteristic(base)
    assert sd.dim_count(0) == sum(base.dim_count(p) for p in base.simplices)
    ext = builtin_extension("q8_over_v4")
    classes = inputs.gf2_class_basis(base.edges(), base.triangles(), base.vertex_count)
    assert len(classes) == {"circle": 1, "sphere2": 0, "torus7": 2, "rp2_6": 1, "klein": 2}[name]
    vals = inputs.random_cocycle_values(base.edges(), base.vertex_count, ext.base, random.Random(7), classes, 3)
    s = BundleCocycle(base, ext.base, vals)
    assert validate_cocycle(s)[0]
    pulled = BundleCocycle(sd, ext.base, inputs.pullback_values(s, sd.edges(), vmap))
    assert validate_cocycle(pulled)[0]


def test_pullback_keeps_the_verdict():
    ext = builtin_extension("z4_over_z2")
    for name in ("rp2_6", "klein"):
        base = builtin_complex(name)
        s = BundleCocycle(base, ext.base, inputs.fixed_obstructed(base, name, ext.base))
        assert reference.brute_verdict(s, ext) is False
        facets, vmap = inputs.subdivide(base.facets)
        sd = build_complex(facets)
        pulled = BundleCocycle(sd, ext.base, inputs.pullback_values(s, sd.edges(), vmap))
        assert obstruction_class(pulled, ext).trivial is False
        image = reference.Gf2Image(sd.edges(), sd.triangles())
        assert reference.z2_verdict(image, sd.edges(), pulled.values, ext) is False


def test_reference_cohomology_of_builtins():
    assert reference.cohomology_factors(builtin_complex("torus7").facets, 1, 2) == [2, 2]
    assert reference.cohomology_factors(builtin_complex("rp2_6").facets, 2, 4) == [2]
    assert reference.cohomology_factors(builtin_complex("klein").facets, 1, 4) == [2, 4]
    assert reference.cohomology_factors(builtin_complex("sphere2").facets, 2, 3) == [3]


def test_batch_verdicts_check_out():
    wl = workloads.Batch(seed=5, scale=0.5)
    wl.setup()
    wl.run_pass()
    wrong, bad_lifts, notes = wl.check()
    assert (wrong, bad_lifts, wl.failed) == (0, 0, 0), notes + wl.errors
    assert wl.attempted == 2 * len(wl.groups) * len(wl.OPS)
    # one best time per instance, from the warm pass only
    assert len(wl.best["warm"]) == len(wl.groups) * len(wl.OPS) and not wl.best["cold"]


def test_ladder_runs_both_verdicts_on_every_mixed_rung():
    wl = workloads.Ladder(seed=5, scale=0.34)
    assert all(level == 1 for _, level in wl.rung_spec)
    wl.setup()
    wl.run_pass()
    wrong, bad_lifts, notes = wl.check()
    assert (wrong, bad_lifts, wl.failed) == (0, 0, 0), notes + wl.errors
    for ri, rung in enumerate(wl.rungs):
        verdicts = {out[0] for key, outs in wl.outcomes.items() if key[0] == ri for out in outs}
        assert verdicts == ({True, False} if rung.base_name in ("rp2_6", "klein") else {True})


def test_ladder_memory_does_not_grow_with_passes():
    # Each pass builds its rungs anew; the caches must not keep the old ones.
    wl = workloads.Ladder(seed=5, scale=0.34)
    wl.setup()
    wl.run_pass()
    held = _coboundary_snf.cache_info().currsize
    wl.run_pass()
    assert _coboundary_snf.cache_info().currsize == held


def _run(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0.2", "--trace", str(trace), "--scale", "0.34"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if trace:
            # every listed layer metric is exercised on every workload
            assert got["value"] != 0, m["name"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "batch", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
