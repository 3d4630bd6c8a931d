"""Self-test of the benchmark: its output contract and its failure rules.

    PYTHONPATH=src python -m pytest perfbench/tests -q

Runs from the root of a checkout; the short runs take a few seconds each.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
from workloads import END_TO_END, WORKLOADS, per_layer_metrics  # noqa: E402


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(workload, trace, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_spec_names_what_the_code_reports():
    spec = _spec()
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        w.name: w.why for w in WORKLOADS.values()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer_metrics()


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_short_run_emits_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 6
    expected = per_layer_metrics() if trace else END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace:  # every layer measured: -1 marks an unmeasured one
        assert all(
            v["value"] >= 0 for k, v in result["metrics"].items()
            if not k.startswith(("cli.self", "trace.overhead"))
        )


def test_unconverged_solve_that_exits_zero_is_counted_as_failed(tmp_path):
    session, _ = run.setup(WORKLOADS["gauss"], 5, str(tmp_path))
    argv = session.inputs.sample_argv()
    session.inputs.sample_argv = lambda: [*argv, "--solver-max-iters", "2"]
    session.sample_round(session.inputs.base)
    assert session.attempted == {"seq": 1, "picard": 1, "anderson": 1}
    assert session.failed == {"picard": 1, "anderson": 1}
    assert session.reasons["anderson"] == {"exit 0 with final residual above --solver-tol": 1}
    assert session.correct


def test_bare_directory_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("mlp", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_changed_public_signature_leaves_that_layer_unmeasured(tmp_path, monkeypatch):
    import parseq
    from tracing import LayerRun

    def changed(*args, **kwargs):
        raise TypeError("adjoint_solve() got an unexpected keyword argument 'tol'")

    monkeypatch.setattr(parseq, "adjoint_solve", changed)
    session, _ = run.setup(WORKLOADS["gauss"], 5, str(tmp_path))
    session.layers = LayerRun(session)
    session.invert_round(0)
    metrics = session.layers.metrics(per_layer_metrics())
    assert session.failed == {}
    assert metrics["invert.epochs_to_loss.exact"]["value"] == -1.0
    assert metrics["invert.epochs_to_loss.naive"]["value"] > 0


def test_composition_that_differs_from_the_cli_leaves_that_layer_unmeasured(tmp_path, monkeypatch):
    import parseq
    from tracing import LayerRun

    class OtherAdam(parseq.Adam):  # the CLI keeps its own Adam
        def __init__(self, lr):
            super().__init__(lr=2 * lr)

    monkeypatch.setattr(parseq, "Adam", OtherAdam)
    session, _ = run.setup(WORKLOADS["gauss"], 5, str(tmp_path))
    session.layers = LayerRun(session)
    session.invert_round(0)
    metrics = session.layers.metrics(per_layer_metrics())
    assert session.failed == {}
    for op in ("naive", "phantom", "exact"):
        assert metrics[f"invert.epochs_to_loss.{op}"]["value"] == -1.0
        assert metrics[f"predictors.vjp_calls_per_epoch.{op}"]["value"] == -1.0


def test_a_method_that_always_fails_breaks_the_ok_share_bound(tmp_path, monkeypatch):
    exact = run.INVERT_METHODS["exact"]
    monkeypatch.setitem(run.INVERT_METHODS, "exact", [*exact, "--epochs", "1"])
    session, _ = run.setup(WORKLOADS["mlp"], 5, str(tmp_path))
    session.sample_round(session.inputs.base)
    session.invert_round(0)
    metrics = session.end_to_end([1.0])
    assert session.reasons["exact"] == {"best_loss above --stop-loss": 1}
    # A failed inversion is no solution, so its time is not one of the
    # times to a solution.
    assert session.solved["exact"] == [] and len(session.walls["exact"]) == 1
    ok = metrics["ok_share"]["value"]
    # With exact passing the same run would read ok + 1/6: the drop is
    # beyond the bound whatever the other op types do.
    bound = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}["ok_share"]
    assert ok <= 5 / 6 and (1 / 6) / (ok + 1 / 6) > bound
