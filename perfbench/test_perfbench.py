"""The benchmark's own checks: fixtures, metric names and units, exact counts,
the predicted zeros of the traced run, and run comparison refusals.

Workloads run in-process at tiny sizes (``bench.SMOKE``).
"""

import json
from pathlib import Path

import numpy as np
import pytest

import grasspack.cli
import grasspack.codebooks
from grasspack.codebooks import load_codebook
from grasspack.grassmann import min_chordal_distance, validate_stiefel

from perfbench import bench
from perfbench.compare import compare, parse_runs

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# layers each workload must leave untouched (the predictions in README.md);
# link and waveform still load their input codebooks
_DESIGN_LAYERS = ("codebooks.einsum", "codebooks.optimize", "codebooks.build", "codebooks.save",
                  "grassmann.", "schubert.", "linalg.")
IDLE = {
    "design": ("linksim.", "wavesim."),
    "link": _DESIGN_LAYERS + ("wavesim.",),
    "waveform": _DESIGN_LAYERS + ("linksim.",),
}


def _exact(name):
    return name.endswith((".calls", "_computed", ".points", ".matrices"))


@pytest.fixture(scope="module", params=bench.WORKLOADS)
def runs(request):
    w = request.param
    return w, {
        "plain": bench.run(w, seed=1, seconds=0, trace=False, smoke=True),
        "plain_seed2": bench.run(w, seed=2, seconds=0, trace=False, smoke=True),
        "traced": bench.run(w, seed=1, seconds=0, trace=True, smoke=True),
        "traced_again": bench.run(w, seed=1, seconds=0, trace=True, smoke=True),
    }


def test_fixture_manopt_4_2_8_rebuilds(tmp_path):
    out = tmp_path / "manopt.json"
    argv = ["design", "--method", "manopt", "-T", "4", "-M", "2", "--size", "8", "--seed", "0", "--out", str(out)]
    assert bench.call_cli(argv)[0] == 0
    fixture = load_codebook(bench.FIXTURES / "manopt_4_2_8_seed0.json")
    np.testing.assert_allclose(load_codebook(out).stack(), fixture.stack(), rtol=0, atol=1e-9)


def test_fixture_manopt_4_2_22_loads_with_known_mcd():
    book = load_codebook(bench.FIXTURES / "manopt_4_2_22_seed0.json")
    assert len(book) == 22 and all(validate_stiefel(w, 1e-8) for w in book)
    assert abs(min_chordal_distance(book)[0] - 0.999059796583) <= 1e-9


def test_metric_names_and_units_match_benchmark_json(runs):
    _, r = runs
    for key, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        got = {k: m["unit"] for k, m in r[key]["metrics"].items()}
        assert got == {m["name"]: m["unit"] for m in SPEC[section]}
        assert r[key]["correct"] and r[key]["failed"] == 0 and r[key]["attempted"] >= 1
    for name in ("setup_s", "part1_s", "part2_s", "quality1", "quality2"):
        assert r["plain"]["metrics"][name]["value"] > 0


def test_seed_changes_commands_but_not_metric_names(runs):
    w, r = runs
    assert set(r["plain"]["metrics"]) == set(r["plain_seed2"]["metrics"])
    one = bench.commands_for(w, 1, Path("out"), [], bench.SMOKE)
    two = bench.commands_for(w, 2, Path("out"), [], bench.SMOKE)
    assert [c.argv for c in one] != [c.argv for c in two]
    assert [c.argv[0] for c in one] == [c.argv[0] for c in two]


def test_counts_repeat_exactly_at_one_seed(runs):
    _, r = runs
    first, again = r["traced"]["metrics"], r["traced_again"]["metrics"]
    exact = [k for k in first if _exact(k)]
    assert exact and all(first[k]["value"] == again[k]["value"] for k in exact)


def test_predicted_zeros_hold(runs):
    w, r = runs
    metrics = r["traced"]["metrics"]
    idle = [k for k in metrics if k.startswith(IDLE[w])]
    assert idle and all(metrics[k]["value"] == 0 for k in idle)
    busy = {"design": "codebooks.einsum.calls", "link": "linksim.eigvalsh.calls", "waveform": "wavesim.fft.calls"}
    assert metrics[busy[w]]["value"] > 0


def test_tracing_restores_every_binding():
    before = (grasspack.cli.optimize_manopt, grasspack.codebooks.np, grasspack.codebooks.substream)
    bench.run("design", seed=3, seconds=0, trace=True, smoke=True)
    assert (grasspack.cli.optimize_manopt, grasspack.codebooks.np, grasspack.codebooks.substream) == before


def _stdout(threads, trace=0, value=1.0):
    env = {"workload": "link", "trace": trace, "blas_threads": threads}
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    result = {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}
    return f"env {json.dumps(env)}\n  text\n{json.dumps(result)}\n"


def test_compare_refuses_mixed_blas_threads_and_traced_runs():
    base = parse_runs(_stdout("2") * 3)
    assert len(base) == 3
    rows = compare(base, parse_runs(_stdout("2", value=1.01)), SPEC["end_to_end"])
    assert all(ok for *_, ok in rows)
    with pytest.raises(ValueError, match="BLAS"):
        compare(base, parse_runs(_stdout("1")), SPEC["end_to_end"])
    with pytest.raises(ValueError, match="traced"):
        compare(base, parse_runs(_stdout("2", trace=1)), SPEC["end_to_end"])
