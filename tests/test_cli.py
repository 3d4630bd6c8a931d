"""End-to-end checks of the command-line interface.

Each test drives the installed entry point in a subprocess so exit codes,
stderr, and the files on disk are exactly what a shell user would see.
"""

import contextlib
import csv
import hashlib
import io
import json
import os
import struct
import tempfile
from collections import OrderedDict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parseq import cli
from parseq.chain import Chain, sequential_rollout
from parseq.gradients import InversionConfig, invert
from parseq.predictors import GaussianOptimalPredictor, random_mlp, save_gaussian, save_mlp
from parseq.rng import draw_noise_stack, draw_x_T, stream
from parseq.schedule import identity_subsequence, make_linear_beta_schedule, select_subsequence
from parseq.stackio import read_stack, write_stack

from cli_runner import run_cli


def write_raw_stack(path, rows, T, eta):
    """A PSDQ1 stack file written byte by byte, so that its payload may hold
    the NaN or +-inf that ``write_stack`` refuses."""
    rows = np.asarray(rows, dtype="<f8")
    with open(path, "wb") as fh:
        fh.write(struct.pack("<5sIIId", b"PSDQ1", *rows.shape, T, eta) + rows.tobytes())


@pytest.fixture(scope="module")
def fixtures(tmp_path_factory):
    """Predictor and data files shared by the CLI runs."""
    root = tmp_path_factory.mktemp("cli-fixtures")
    mu = np.array([0.5, -0.3, 1.0])
    var = np.array([1.2, 0.6, 2.0])
    save_gaussian(root / "gauss.json", mu, var)

    mlp = random_mlp(3, [16], np.random.default_rng(3), t_max=30)
    save_mlp(root / "mlp.json", mlp)

    bad = random_mlp(3, [16], np.random.default_rng(0), t_max=30)
    bad.weights[-1] = bad.weights[-1] * 1e308
    save_mlp(root / "diverge.json", bad)

    write_stack(root / "noise20.stack", draw_noise_stack(99, 20, 3), 20, 1.0)
    write_stack(root / "target.stack", np.array([0.4, -0.9, 0.2]), 20, 0.0)

    # a target whose true x_T is known: the rollout of stream draw 2001
    schedule = make_linear_beta_schedule(20)
    predictor = GaussianOptimalPredictor(mu, var, schedule)
    x0 = sequential_rollout(draw_x_T(2001, 3), schedule, identity_subsequence(20), predictor)[-1]
    write_stack(root / "selfgen.stack", x0, 20, 0.0)
    return {"root": root, "mu": mu, "var": var}


def read_trace(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


class TestSample:
    def test_sequential_and_picard_write_identical_x0(self, fixtures, tmp_path):
        base = ["sample", "--predictor", "zero", "--T", 3, "--seed", 7]
        assert run_cli(*base, "--mode", "sequential", "--out", tmp_path / "a").returncode == 0
        assert run_cli(*base, "--mode", "deq-picard", "--out", tmp_path / "b").returncode == 0
        a = (tmp_path / "a" / "x0.stack").read_bytes()
        b = (tmp_path / "b" / "x0.stack").read_bytes()
        assert a == b

    def test_shared_noise_anderson_matches_sequential(self, fixtures, tmp_path):
        root = fixtures["root"]
        base = [
            "sample", "--predictor", f"gaussian:{root / 'gauss.json'}",
            "--T", 20, "--eta", 1, "--seed", 3,
            "--noise-file", root / "noise20.stack",
        ]
        assert run_cli(*base, "--mode", "sequential",
                       "--out", tmp_path / "seq").returncode == 0
        assert run_cli(*base, "--mode", "deq-anderson", "--solver-tol", 1e-9,
                       "--out", tmp_path / "and").returncode == 0
        x_seq, _, _ = read_stack(tmp_path / "seq" / "x0.stack")
        x_and, _, _ = read_stack(tmp_path / "and" / "x0.stack")
        assert np.max(np.abs(x_seq - x_and)) <= 1e-6

    def test_thread_count_does_not_change_bits(self, fixtures, tmp_path):
        root = fixtures["root"]
        base = [
            "sample", "--mode", "deq-anderson",
            "--predictor", f"mlp:{root / 'mlp.json'}",
            "--T", 30, "--S", 10, "--seed", 5,
        ]
        assert run_cli(*base, "--threads", 1, "--out", tmp_path / "t1").returncode == 0
        assert run_cli(*base, "--threads", 8, "--out", tmp_path / "t8").returncode == 0
        for name in ("x0.stack", "residuals.csv"):
            assert (tmp_path / "t1" / name).read_bytes() == (
                tmp_path / "t8" / name
            ).read_bytes()

    def test_save_stack_writes_full_stack(self, fixtures, tmp_path):
        root = fixtures["root"]
        res = run_cli(
            "sample", "--mode", "deq-anderson",
            "--predictor", f"gaussian:{root / 'gauss.json'}",
            "--T", 20, "--S", 4, "--seed", 1, "--save-stack",
            "--out", tmp_path / "run",
        )
        assert res.returncode == 0
        stack, chain_T, eta = read_stack(tmp_path / "run" / "stack.stack")
        x0, _, _ = read_stack(tmp_path / "run" / "x0.stack")
        assert stack.shape == (4, 3)
        assert chain_T == 20 and eta == 0.0
        assert np.array_equal(stack[-1], x0[0])

    def test_threads_default_to_one_and_are_recorded(self, tmp_path):
        for flags, out in (([], "default"), (["--threads", 3], "three")):
            res = run_cli("sample", "--predictor", "zero", "--T", 3, *flags,
                          "--out", tmp_path / out)
            assert res.returncode == 0
        recorded = [json.loads((tmp_path / out / "manifest.json").read_text())["args"]["threads"]
                    for out in ("default", "three")]
        assert recorded == [1, 3]

    def test_manifest_records_the_solve(self, fixtures, tmp_path):
        # A budget too small to converge still exits 0, and the manifest
        # says so.
        root = fixtures["root"]
        base = ["sample", "--predictor", f"gaussian:{root / 'gauss.json'}",
                "--T", 20, "--seed", 4]
        res = run_cli(*base, "--mode", "deq-anderson", "--solver-max-iters", 2,
                      "--out", tmp_path / "short")
        assert res.returncode == 0
        manifest = json.loads((tmp_path / "short" / "manifest.json").read_text())
        header, rows = read_trace(tmp_path / "short" / "residuals.csv")
        assert manifest["solver"] == {
            "converged": False,
            "iters": 2,
            "final_residual": float(rows[-1][1]),
            "picard_fallbacks": 0,
        }
        assert run_cli(*base, "--mode", "deq-picard", "--solver-tol", 1e-9,
                       "--out", tmp_path / "full").returncode == 0
        solver = json.loads((tmp_path / "full" / "manifest.json").read_text())["solver"]
        assert solver["converged"] and solver["final_residual"] <= 1e-9
        assert run_cli(*base, "--mode", "sequential", "--out", tmp_path / "seq").returncode == 0
        assert "solver" not in json.loads((tmp_path / "seq" / "manifest.json").read_text())


class TestManifestRerun:
    def test_rerun_reproduces_outputs_byte_for_byte(self, fixtures, tmp_path):
        root = fixtures["root"]
        out = tmp_path / "run"
        res = run_cli(
            "sample", "--mode", "deq-anderson",
            "--predictor", f"mlp:{root / 'mlp.json'}",
            "--T", 30, "--S", 8, "--seed", 11, "--out", out,
        )
        assert res.returncode == 0
        before = {
            name: (out / name).read_bytes() for name in ("x0.stack", "residuals.csv")
        }
        manifest_before = json.loads((out / "manifest.json").read_text())
        for name in before:
            (out / name).unlink()

        assert run_cli("rerun", out / "manifest.json").returncode == 0
        for name, payload in before.items():
            assert (out / name).read_bytes() == payload
        manifest_after = json.loads((out / "manifest.json").read_text())
        manifest_before.pop("timings_ms")
        manifest_after.pop("timings_ms")
        assert manifest_after == manifest_before

    def test_rerun_can_redirect_outputs(self, fixtures, tmp_path):
        res = run_cli("sample", "--predictor", "zero", "--T", 5, "--seed", 2,
                      "--out", tmp_path / "a")
        assert res.returncode == 0
        res = run_cli("rerun", tmp_path / "a" / "manifest.json",
                      "--out", tmp_path / "b")
        assert res.returncode == 0
        assert (tmp_path / "a" / "x0.stack").read_bytes() == (
            tmp_path / "b" / "x0.stack"
        ).read_bytes()

    def test_picard_manifest_without_a_budget_reruns_at_the_current_default(
        self, fixtures, tmp_path
    ):
        # A manifest written before budgets were recorded holds
        # solver_max_iters null, so its rerun takes the current default:
        # S + 1 sweeps for Picard, 15 before that.  This S = 50 solve needs
        # 16 sweeps, so a manifest written under the old default reruns to a
        # converged solve and other bytes; naming 15 in its args reproduces
        # the old run.
        base = ["sample", "--mode", "deq-picard",
                "--predictor", f"gaussian:{fixtures['root'] / 'gauss.json'}",
                "--T", "1000", "--S", "50", "--seed", "11"]
        assert cli.main([*base, "--out", str(tmp_path / "new")]) == 0
        assert cli.main([*base, "--solver-max-iters", "15", "--out", str(tmp_path / "old")]) == 0
        new = json.loads((tmp_path / "new" / "manifest.json").read_text())
        old = json.loads((tmp_path / "old" / "manifest.json").read_text())
        assert new["args"]["solver_max_iters"] == 51
        assert (new["solver"]["iters"], new["solver"]["converged"]) == (16, True)
        assert (old["solver"]["iters"], old["solver"]["converged"]) == (15, False)

        # The old default's manifest: the same args, budget unset.
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({**old, "args": {**old["args"], "solver_max_iters": None}}))
        assert cli.main(["rerun", str(manifest), "--out", str(tmp_path / "rerun")]) == 0
        x0 = {d: (tmp_path / d / "x0.stack").read_bytes() for d in ("new", "old", "rerun")}
        assert x0["rerun"] == x0["new"] != x0["old"]

        manifest.write_text(json.dumps(old))
        assert cli.main(["rerun", str(manifest), "--out", str(tmp_path / "pinned")]) == 0
        assert (tmp_path / "pinned" / "x0.stack").read_bytes() == x0["old"]

    def test_rerun_rejects_manifest_without_command(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"args": {}}))
        res = run_cli("rerun", path)
        assert res.returncode == 4
        assert "command" in res.stderr

    @pytest.mark.parametrize(
        "command, edit, named",
        [
            ("sample", lambda m: 5, "manifest"),
            ("sample", lambda m: [m], "manifest"),
            ("sample", lambda m: {**m, "args": [1, 2]}, "args"),
            ("sample", lambda m: {**m, "command": ["sample"]}, "command"),
            ("sample", lambda m: {**m, "args": {k: v for k, v in m["args"].items()
                                                if k != "eta"}}, "eta"),
            ("sample", lambda m: {**m, "args": {**m["args"], "colour": "red"}}, "colour"),
            ("sample", lambda m: {**m, "args": {**m["args"], "T": "abc"}}, "T"),
            ("sample", lambda m: {**m, "args": {**m["args"], "eta": "0.5"}}, "eta"),
            ("sample", lambda m: {**m, "args": {**m["args"], "mode": "deq-newton"}}, "mode"),
            ("sample", lambda m: {**m, "args": {**m["args"], "save_stack": 1}}, "save_stack"),
            ("sample", lambda m: {**m, "args": {**m["args"], "mixing_beta": 1.0}},
             "mixing_beta"),
            ("sample", lambda m: {**m, "args": {**m["args"], "history_m": 5}}, "history_m"),
            ("invert", lambda m: {**m, "args": {**m["args"], "ridge_lambda": 1e-4}},
             "ridge_lambda"),
            ("invert", lambda m: {**m, "args": {**m["args"], "method": "deq-stochastic"}},
             "method"),
            # rerun's own flags, replaying this very manifest: only leaving
            # rerun out of the replayable commands stops the recursion.
            ("rerun", lambda m: m, "rerun"),
        ],
        ids=["number", "list", "args-list", "command-list", "missing-key", "unknown-key",
             "T-text", "eta-text", "mode-unknown", "save_stack-number", "retired-mixing-beta",
             "retired-history-m", "retired-ridge-lambda", "retired-deq-stochastic",
             "rerun-named"],
    )
    def test_rerun_rejects_malformed_manifest(self, command, edit, named, tmp_path, capsys):
        path = tmp_path / "manifest.json"
        flags = {"invert": ["--target", str(tmp_path / "target.stack")],
                 "rerun": [str(path)]}.get(command, [])
        ns = cli.build_parser().parse_args([command, *flags, "--out", str(tmp_path / "run")])
        args = {k: v for k, v in vars(ns).items() if k != "func"}
        path.write_text(json.dumps(edit({"command": command, "args": args})))
        assert cli.main(["rerun", str(path)]) == 4
        err = capsys.readouterr().err
        assert "manifest" in err and named in err
        assert not (tmp_path / "run").exists()


class TestRepeatedMainCalls:
    """One process calling ``cli.main`` again and again, as a batch script
    does: fixed costs are paid once and no call changes the next."""

    def test_parser_built_and_weight_file_parsed_once(self, fixtures, tmp_path, monkeypatch,
                                                      capsys):
        from parseq import predictors

        monkeypatch.setattr(predictors, "_MEMO", OrderedDict())
        monkeypatch.setattr(cli, "_PARSER", None)
        builds, parses = [], []
        build, parse = cli.build_parser, predictors._parse_mlp
        monkeypatch.setattr(cli, "build_parser", lambda: builds.append(1) or build())
        monkeypatch.setattr(predictors, "_parse_mlp", lambda p: parses.append(1) or parse(p))
        weights = tmp_path / "mlp.json"
        weights.write_bytes((fixtures["root"] / "mlp.json").read_bytes())
        argv = ["sample", "--predictor", f"mlp:{weights}", "--T", "30", "--S", "10"]
        for mode in ("sequential", "deq-picard", "deq-anderson", "sequential"):
            assert cli.main(argv + ["--mode", mode, "--out", str(tmp_path / mode)]) == 0
        assert cli.main(["rerun", str(tmp_path / "sequential" / "manifest.json")]) == 0
        assert (len(builds), len(parses)) == (1, 1)
        # A malformed rewrite still fails as a parse error, every time.
        weights.write_text(weights.read_text()[:-1])
        for _ in range(2):
            assert cli.main(argv + ["--out", str(tmp_path / "bad")]) == 4
        assert "not valid JSON" in capsys.readouterr().err
        assert len(builds) == 1

    def test_in_process_runs_match_fresh_processes(self, fixtures, tmp_path):
        base = ["sample", "--predictor", f"mlp:{fixtures['root'] / 'mlp.json'}",
                "--T", "30", "--S", "10", "--seed", "3"]
        runs = [["--save-stack", "--out"], ["--out"]]
        for j, flags in enumerate(runs):
            assert cli.main(base + flags + [str(tmp_path / f"in{j}")]) == 0
            assert run_cli(*base, *flags, tmp_path / f"fresh{j}").returncode == 0
        for j in range(len(runs)):
            inproc, fresh = tmp_path / f"in{j}", tmp_path / f"fresh{j}"
            assert sorted(os.listdir(inproc)) == sorted(os.listdir(fresh))
            manifests = []
            for out in (inproc, fresh):
                manifest = json.loads((out / "manifest.json").read_text())
                del manifest["timings_ms"]
                manifest["args"]["out"] = None
                manifests.append(manifest)
            assert manifests[0] == manifests[1]
            for name in manifests[0]["outputs"]:
                assert (inproc / name).read_bytes() == (fresh / name).read_bytes()
        assert "stack.stack" not in os.listdir(tmp_path / "in1")


class TestExitCodes:
    def test_subseq_without_S_is_usage_error(self, tmp_path):
        res = run_cli("sample", "--predictor", "zero", "--T", 20,
                      "--subseq", "quadratic", "--out", tmp_path / "x")
        assert res.returncode == 2
        assert "--S" in res.stderr

    def test_underflowing_schedule_is_usage_error(self, tmp_path, capsys):
        assert cli.main(["sample", "--T", "100000", "--S", "10",
                         "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("parseq: usage error: ")
        assert "sum to 1005, past -ln(5e-324)" in err and "underflows float64" in err

    @pytest.mark.parametrize("flag", ["--D", "--T"])
    @pytest.mark.parametrize("size", [2**59, 2**62, 10**30])
    def test_impossible_size_is_usage_error(self, tmp_path, flag, size):
        # 2**59 float64 entries take 4 EiB, which no allocation gets; the
        # larger sizes are beyond what a numpy array can hold at all.
        res = run_cli("sample", "--predictor", "zero", flag, size, "--out", tmp_path / "o")
        assert res.returncode == 2
        assert res.stderr.startswith("parseq: usage error: ") and "Traceback" not in res.stderr
        assert not (tmp_path / "o").exists()

    def test_zero_predictor_with_a_file_is_usage_error(self, tmp_path, capsys):
        # The path used to be ignored and recorded in the manifest.
        argv = ["sample", "--predictor", "zero:g.json", "--D", "4"]
        assert cli.main([*argv, "--out", str(tmp_path / "o")]) == 2
        assert "zero predictor takes no file" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("argv, message", [
        (["sample", "--subseq", "linear"], "--subseq requires --S"),
        (["sample", "--predictor", "mlp"],
         "mlp predictor needs a weights file: mlp:weights.json"),
        (["sample", "--predictor", "mlp:"],
         "mlp predictor needs a weights file: mlp:weights.json"),
        (["sample", "--predictor", "foo"], "unknown predictor 'foo'"),
        (["sample", "--predictor", "zero:"],
         "the zero predictor takes no file; its dimension is --D"),
        (["sample", "--predictor", "gaussian:"],
         "gaussian predictor names no file: write gaussian or gaussian:params.json"),
        (["trace", "--runs", "0"], "--runs must be >= 1, got 0"),
    ], ids=["subseq-without-S", "mlp-without-file", "mlp-colon", "unknown-kind",
            "zero-colon", "gaussian-colon", "runs-zero"])
    def test_cli_rules_exit_2_naming_the_rule(self, argv, message, tmp_path, capsys):
        assert cli.main([*argv, "--T", "10", "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"parseq: usage error: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_unknown_predictor_is_usage_error(self, tmp_path):
        res = run_cli("sample", "--predictor", "resnet", "--out", tmp_path / "x")
        assert res.returncode == 2
        assert "predictor" in res.stderr

    def test_truncated_stack_is_parse_error(self, fixtures, tmp_path):
        root = fixtures["root"]
        stub = tmp_path / "trunc.stack"
        stub.write_bytes((root / "noise20.stack").read_bytes()[:10])
        res = run_cli("eval-w2", "--samples", stub,
                      "--target", f"gaussian:{root / 'gauss.json'}")
        assert res.returncode == 4

    def test_wrong_schema_weight_file_is_parse_error(self, fixtures, tmp_path):
        root = fixtures["root"]
        res = run_cli("sample", "--predictor", f"mlp:{root / 'gauss.json'}",
                      "--T", 20, "--out", tmp_path / "x")
        assert res.returncode == 4
        assert "widths" in res.stderr

    @pytest.mark.parametrize(
        "kind, payload",
        [
            ("gaussian", 5),
            ("gaussian", [0.0, 1.0]),
            ("gaussian", {"mu": [0, 0], "var": "ab"}),
            ("gaussian", {"mu": {"a": 1}, "var": [1.0]}),
            ("gaussian", {"mu": [], "var": []}),
            ("mlp", "weights"),
            ("mlp", {"widths": [3, "a", 2], "weights": [], "biases": [],
                     "time_embed": "scalar_append"}),
            ("mlp", {"widths": 5, "weights": [], "biases": [],
                     "time_embed": "scalar_append"}),
            ("mlp", {"widths": [3, 2], "weights": [["x"] * 6], "biases": [[0, 0]],
                     "time_embed": "scalar_append"}),
            ("mlp", {"widths": [3, 2], "weights": [[0] * 6], "biases": [[0, "b"]],
                     "time_embed": "scalar_append"}),
        ],
        ids=["gauss-number", "gauss-list", "gauss-text-var", "gauss-object-mu", "gauss-empty",
             "mlp-text", "mlp-text-width", "mlp-number-widths", "mlp-text-weight",
             "mlp-text-bias"],
    )
    def test_malformed_predictor_file_is_parse_error(self, kind, payload, tmp_path, capsys):
        path = tmp_path / "params.json"
        path.write_text(json.dumps(payload))
        code = cli.main(["sample", "--predictor", f"{kind}:{path}", "--T", "10",
                         "--out", str(tmp_path / "x")])
        assert code == 4
        assert capsys.readouterr().err.startswith("parseq: ")

    @pytest.mark.parametrize("edit, message", [
        ({"time_embed": "sinusoid"},
         "unsupported time_embed 'sinusoid'; expected 'scalar_append'"),
        ({"widths": [3, 0, 2], "weights": [[], []], "biases": [[], [0, 0]]},
         "mlp widths must be positive, got [3, 0, 2]"),
        ({"weights": []}, "number of weight matrices does not match widths"),
        ({"widths": [3.9, 2.2]}, "mlp widths must be a list of integers"),
        ({"widths": [2, True]}, "mlp widths must be a list of integers"),
        ({"widths": ["3", "2"]}, "mlp widths must be a list of integers"),
        ({"widths": [3], "weights": [], "biases": []},
         "widths must list at least input and output layers"),
        ({"biases": []}, "need one weight matrix and bias per layer transition"),
        ({"biases": [[0.0]]}, "layer 0 bias shape (1,) is wrong"),
    ], ids=["time-embed", "zero-width", "weight-count", "float-widths", "bool-width",
            "text-widths", "one-width", "missing-bias", "short-bias"])
    def test_mlp_file_rules_exit_4_naming_the_rule(self, edit, message, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"widths": [3, 2], "weights": [[0.0] * 6],
                                    "biases": [[0.0, 0.0]], "time_embed": "scalar_append",
                                    **edit}))
        code = cli.main(["sample", "--predictor", f"mlp:{path}", "--T", "10",
                         "--out", str(tmp_path / "x")])
        assert code == 4
        assert capsys.readouterr().err == f"parseq: mlp weight file {path}: {message}\n"
        assert not (tmp_path / "x").exists()

    def test_missing_file_is_io_error(self, fixtures, tmp_path):
        res = run_cli("invert", "--target", tmp_path / "nope.stack",
                      "--T", 20, "--predictor", "zero", "--out", tmp_path / "x")
        assert res.returncode == 4

    def test_zero_row_target_is_parse_error(self, tmp_path, capsys):
        write_stack(tmp_path / "empty.stack", np.zeros((0, 3)), 20, 0.0)
        code = cli.main(["invert", "--target", str(tmp_path / "empty.stack"), "--T", "20",
                         "--predictor", "gaussian", "--D", "3", "--out", str(tmp_path / "x")])
        assert code == 4
        assert "holds no rows" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("method", ["naive", "deq"])
    def test_wrong_size_target_is_usage_error(self, method, tmp_path, capsys):
        write_stack(tmp_path / "t.stack", np.zeros(3), 20, 0.0)
        code = cli.main(["invert", "--target", str(tmp_path / "t.stack"), "--T", "20",
                         "--method", method, "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == (
            "parseq: usage error: target dimension 3 != predictor dimension 2\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["sample", "trace", "invert", "bench"])
    def test_negative_seed_is_usage_error(self, command, fixtures, tmp_path, capsys):
        extra = {"invert": ["--target", str(fixtures["root"] / "target.stack"), "--D", "3"],
                 "bench": ["--S-list", "2,5"]}.get(command, [])
        code = cli.main([command, "--predictor", "gaussian", "--T", "10", "--seed", "-1",
                         *extra, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("s_list", ["", ","])
    def test_empty_s_list_is_usage_error(self, s_list, tmp_path, capsys):
        code = cli.main(["bench", "--predictor", "zero", "--T", "10", "--S-list", s_list,
                         "--out", str(tmp_path / "x")])
        assert code == 2
        assert "--S-list" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threads", -3],
            ["--threads", 0],
            ["--D", 0],
            ["--solver-tol", "nan"],
            ["--eta", "nan"],
            ["--eta", "inf"],
        ],
        ids=["threads-negative", "threads-zero", "D-zero", "solver-tol-nan", "eta-nan",
             "eta-inf"],
    )
    def test_bad_flag_values_are_usage_errors(self, flags, tmp_path):
        res = run_cli("sample", "--mode", "deq-anderson", "--predictor", "gaussian",
                      "--T", 10, *flags, "--out", tmp_path / "x")
        assert res.returncode == 2
        assert "usage error" in res.stderr and "Traceback" not in res.stderr

    @pytest.mark.parametrize(
        "flags",
        [["--lr", "nan"], ["--lr", "inf"], ["--stop-loss", "nan"], ["--stop-loss", "inf"],
         ["--solver-tol", "nan"], ["--solver-max-iters", "0"]],
        ids=["lr-nan", "lr-inf", "stop-loss-nan", "stop-loss-inf", "solver-tol-nan",
             "solver-max-iters-zero"],
    )
    def test_bad_invert_flag_values_are_usage_errors(self, flags, fixtures, tmp_path, capsys):
        code = cli.main(["invert", "--target", str(fixtures["root"] / "target.stack"),
                         "--predictor", "gaussian", "--D", "3", "--T", "10", "--epochs", "3",
                         *flags, "--out", str(tmp_path / "x")])
        assert code == 2
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value", [("--history-m", "5"), ("--ridge-lambda", "1e-4")])
    @pytest.mark.parametrize("command", ["sample", "trace", "invert", "bench"])
    def test_retired_solver_flags_are_usage_errors(self, command, flag, value, fixtures,
                                                   tmp_path, capsys):
        # Anderson's window and ridge are fixed; a flag that sets them must
        # be refused, not silently ignored.
        extra = {"invert": ["--target", str(fixtures["root"] / "target.stack"), "--D", "3"],
                 "bench": ["--S-list", "2,5"]}.get(command, [])
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--predictor", "gaussian", "--T", "10", *extra,
                      flag, value, "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_retired_stochastic_method_is_usage_error(self, fixtures, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["invert", "--target", str(fixtures["root"] / "target.stack"),
                      "--predictor", "gaussian", "--D", "3", "--T", "10", "--eta", "1",
                      "--method", "deq-stochastic", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        assert "invalid choice: 'deq-stochastic'" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_eta_above_one_stays_a_numeric_failure(self, capsys, tmp_path):
        code = cli.main(["sample", "--predictor", "gaussian", "--T", "10", "--eta", "1.5",
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert "negative radicand" in capsys.readouterr().err

    def test_sequential_divergence_names_its_step(self, monkeypatch, capsys, tmp_path):
        # The predictor breaks at t = 10 alone, the third of the steps from
        # 20, 15, 10 and 5, so the rollout must stop there and say so.
        class InfAtTen(cli.ZeroPredictor):
            def predict(self, x, t):
                return np.full(np.shape(x), np.inf if t == 10 else 0.0)

        monkeypatch.setattr(cli, "ZeroPredictor", InfAtTen)
        code = cli.main(["sample", "--mode", "sequential", "--T", "20", "--S", "4",
                         "--out", str(tmp_path / "x")])
        assert code == 3
        assert capsys.readouterr().err.rstrip().endswith("after the step from t=10")

    def test_divergent_weights_exit_numeric_failure(self, fixtures, tmp_path):
        root = fixtures["root"]
        res = run_cli("sample", "--mode", "deq-anderson",
                      "--predictor", f"mlp:{root / 'diverge.json'}",
                      "--T", 20, "--seed", 0, "--out", tmp_path / "x")
        assert res.returncode == 3
        assert "numeric failure" in res.stderr

    def test_failed_sample_leaves_no_output_directory(self, tmp_path, capsys):
        # --out is made only once the rollout has finished, as invert,
        # trace and bench make theirs only after computing.
        weights = tmp_path / "huge.json"
        save_mlp(weights, random_mlp(3, [8], np.random.default_rng(0), t_max=20, scale=1e200))
        code = cli.main(["sample", "--predictor", f"mlp:{weights}", "--T", "20", "--S", "5",
                         "--mode", "sequential", "--out", str(tmp_path / "o")])
        assert code == 3
        assert capsys.readouterr().err.rstrip().endswith("after the step from t=16")
        assert not (tmp_path / "o").exists()


class TestTrace:
    def test_picard_reaches_tol_within_S_rows(self, tmp_path):
        res = run_cli("trace", "--mode", "deq-picard", "--predictor", "gaussian",
                      "--D", 4, "--T", 40, "--S", 5, "--runs", 3,
                      "--solver-tol", 1e-8, "--solver-max-iters", 10,
                      "--out", tmp_path / "tr")
        assert res.returncode == 0
        header, rows = read_trace(tmp_path / "tr" / "trace.csv")
        assert header == ["iter", "run0", "run1", "run2", "res_min", "res_max"]
        # residual index S is the confirming pass, so at most S + 1 rows
        assert len(rows) <= 6
        for col in (1, 2, 3):
            finals = [float(r[col]) for r in rows if r[col] != ""]
            assert finals[-1] <= 1e-8

    def test_anderson_trace_shorter_than_picard(self, tmp_path):
        # paired run on an affine (Gaussian-optimal) chain; both modes draw
        # the same x_T and noise because only the seed feeds the streams
        base = ["trace", "--predictor", "gaussian", "--D", 4,
                "--T", 200, "--S", 100, "--eta", 1, "--runs", 1, "--seed", 3,
                "--solver-tol", 1e-3, "--solver-max-iters", 60]
        assert run_cli(*base, "--mode", "deq-picard",
                       "--out", tmp_path / "pic").returncode == 0
        assert run_cli(*base, "--mode", "deq-anderson",
                       "--out", tmp_path / "and").returncode == 0
        _, pic = read_trace(tmp_path / "pic" / "trace.csv")
        _, ands = read_trace(tmp_path / "and" / "trace.csv")
        assert len(ands) < len(pic)
        assert float(ands[-1][1]) <= 1e-3

    def test_zero_predictor_trace_is_one_step_plus_confirmation(self, tmp_path):
        res = run_cli("trace", "--mode", "deq-picard", "--predictor", "zero",
                      "--T", 10, "--runs", 2, "--out", tmp_path / "tr")
        assert res.returncode == 0
        _, rows = read_trace(tmp_path / "tr" / "trace.csv")
        assert len(rows) == 2
        assert float(rows[1][1]) == 0.0 and float(rows[1][2]) == 0.0

    def test_noise_file_is_read_once_and_shape_checked(self, fixtures, tmp_path, monkeypatch,
                                                       capsys):
        reads = []
        read = cli.read_stack
        monkeypatch.setattr(cli, "read_stack", lambda p: reads.append(p) or read(p))
        noise = fixtures["root"] / "noise20.stack"
        base = ["trace", "--predictor", "gaussian", "--D", "3", "--T", "40", "--S", "20",
                "--eta", "1", "--runs", "3", "--noise-file", str(noise)]
        assert cli.main(base + ["--out", str(tmp_path / "ok")]) == 0
        assert len(reads) == 1
        assert cli.main(base + ["--D", "2", "--out", str(tmp_path / "bad")]) == 2
        assert "noise shape (20, 3) does not match (S=20, D=2)" in capsys.readouterr().err
        assert not (tmp_path / "bad").exists()

    def test_noisy_runs_build_one_chain_each(self, tmp_path, monkeypatch):
        # Run 0 solves the chain built from the flags, whose noise is run
        # 0's draw; each later run swaps in its own.  So the Gaussian terms
        # of the 100 timesteps are built once per run and never for a
        # chain that is not solved.
        builds = []
        terms = GaussianOptimalPredictor._terms
        monkeypatch.setattr(GaussianOptimalPredictor, "_terms",
                            lambda self, t: builds.append(np.shape(t)) or terms(self, t))
        argv = ["trace", "--predictor", "gaussian", "--D", "64", "--T", "1000", "--S", "100",
                "--eta", "1", "--runs", "5", "--out", str(tmp_path / "tr")]
        assert cli.main(argv) == 0
        assert builds == [(100,)] * 5


class TestResolvedDimension:
    """A file predictor sets D; the manifest records that D, not --D."""

    @pytest.mark.parametrize("predictor, D", [("gaussian:g3.json", 3), ("mlp:m4.json", 4)])
    @pytest.mark.parametrize("command", [
        ["sample", "--mode", "sequential"], ["sample", "--mode", "deq-picard"],
        ["trace", "--mode", "deq-picard", "--runs", "2"], ["bench", "--S-list", "2,3"],
        ["invert", "--target", "target.stack", "--epochs", "2"],
    ], ids=["sample-sequential", "sample-picard", "trace", "bench", "invert"])
    def test_manifest_records_the_dimension_that_ran(self, tmp_path, monkeypatch,
                                                     predictor, D, command):
        monkeypatch.chdir(tmp_path)
        save_gaussian("g3.json", np.zeros(3), np.ones(3))
        save_mlp("m4.json", random_mlp(4, [5], np.random.default_rng(0), t_max=12))
        write_stack("target.stack", np.full(D, 0.5), 12, 0.0)
        assert cli.main([*command, "--predictor", predictor, "--T", "12", "--out", "out"]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["args"]["D"] == D
        if command[0] == "invert":
            assert json.loads((tmp_path / "out" / "run.json").read_text())["config"]["D"] == D
        # run.json records --out, so the rerun writes where the first run did.
        outputs = {name: (tmp_path / "out" / name).read_bytes()
                   for name in manifest["outputs"] if name != "bench.csv"}  # wall_ms
        for name in outputs:
            (tmp_path / "out" / name).unlink()
        assert cli.main(["rerun", "out/manifest.json"]) == 0
        assert {name: (tmp_path / "out" / name).read_bytes() for name in outputs} == outputs


# (command and flags, recorded budget) on an S = 8 chain: a solve records
# the budget it ran (Anderson's 15, or 50 at eta > 0; Picard's S + 1) and a
# run that solves nothing records the flag as given.
_RECORDED_BUDGETS = {
    "sample-sequential": (["sample", "--mode", "sequential"], None),
    "sample-sequential-flag": (["sample", "--mode", "sequential", "--solver-max-iters", "7"], 7),
    "sample-anderson": (["sample", "--mode", "deq-anderson"], 15),
    "sample-anderson-eta": (["sample", "--mode", "deq-anderson", "--eta", "0.5"], 50),
    "sample-anderson-flag": (["sample", "--mode", "deq-anderson", "--solver-max-iters", "7"], 7),
    "sample-picard": (["sample", "--mode", "deq-picard"], 9),
    "sample-picard-eta": (["sample", "--mode", "deq-picard", "--eta", "0.5"], 9),
    "trace-anderson": (["trace", "--mode", "deq-anderson", "--runs", "2"], 15),
    "trace-anderson-eta": (["trace", "--mode", "deq-anderson", "--runs", "2", "--eta", "0.5"],
                           50),
    "trace-picard": (["trace", "--mode", "deq-picard", "--runs", "2"], 9),
    "bench": (["bench", "--S-list", "3,8"], 15),
    "bench-eta": (["bench", "--S-list", "3,8", "--eta", "0.5"], 50),
    "invert-naive": (["invert", "--method", "naive"], None),
    "invert-naive-flag": (["invert", "--method", "naive", "--solver-max-iters", "7"], 7),
    "invert-deq": (["invert", "--method", "deq"], 15),
    "invert-deq-eta": (["invert", "--method", "deq", "--eta", "0.5"], 50),
    "invert-deq-exact": (["invert", "--method", "deq", "--grad", "exact"], 15),
}


@pytest.mark.parametrize("argv, budget", list(_RECORDED_BUDGETS.values()),
                         ids=list(_RECORDED_BUDGETS))
def test_manifest_records_the_budget_each_command_ran(argv, budget, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    flags = ["--predictor", "zero", "--T", "20", "--seed", "1"]
    if argv[0] != "bench":
        flags += ["--S", "8"]
    if argv[0] == "invert":
        write_stack("target.stack", np.array([0.1, -0.2]), 20, 0.0)
        flags += ["--target", "target.stack", "--epochs", "2"]
    assert cli.main([*argv, *flags, "--out", "out"]) == 0
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["args"]["solver_max_iters"] == budget
    if argv[0] == "invert":
        assert json.loads((tmp_path / "out" / "run.json").read_text())["config"] == manifest["args"]


class TestBench:
    def test_report_covers_every_combination(self, fixtures, tmp_path):
        root = fixtures["root"]
        res = run_cli("bench", "--predictor", f"mlp:{root / 'mlp.json'}",
                      "--T", 30, "--S-list", "5,10", "--out", tmp_path / "bench")
        assert res.returncode == 0
        with open(tmp_path / "bench" / "bench.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["mode", "S", "wall_ms", "iters"]
        body = rows[1:]
        assert [(r[0], r[1]) for r in body] == [
            ("sequential", "5"), ("deq-anderson", "5"),
            ("sequential", "10"), ("deq-anderson", "10"),
        ]
        for r in body:
            assert float(r[2]) > 0.0
            if r[0] == "deq-anderson":
                assert int(r[3]) <= 15
            else:
                assert int(r[3]) == int(r[1])

    def test_S_flag_is_usage_error(self, tmp_path, capsys):
        # bench runs the --S-list lengths; an --S would be recorded in the
        # manifest but never run.
        argv = ["bench", "--predictor", "gaussian", "--D", "3", "--T", "10", "--S-list", "5"]
        assert cli.main([*argv, "--S", "3", "--out", str(tmp_path / "b")]) == 2
        assert "--S-list" in capsys.readouterr().err
        assert not (tmp_path / "b").exists()
        # A manifest that set it does not replay either; with "S": null it does.
        assert cli.main([*argv, "--out", str(tmp_path / "ok")]) == 0
        manifest = json.loads((tmp_path / "ok" / "manifest.json").read_text())
        assert manifest["args"]["S"] is None
        assert cli.main(["rerun", str(tmp_path / "ok" / "manifest.json"),
                         "--out", str(tmp_path / "null")]) == 0
        manifest["args"]["S"] = 3
        (tmp_path / "set.json").write_text(json.dumps(manifest))
        assert cli.main(["rerun", str(tmp_path / "set.json"), "--out", str(tmp_path / "c")]) == 2
        assert not (tmp_path / "c").exists()


#: SHA-256 of eval-w2's stdout and of its eval.json, on 40 rows of
#: ``stream(4, "scratch")`` against an 8-d Gaussian file.
EVAL_DIGESTS = (
    "4847ce7c33c96f5b26818a7fb80cf0c0bddfbd812fb4c6f486b1ca9012ce13ee",
    "4847ce7c33c96f5b26818a7fb80cf0c0bddfbd812fb4c6f486b1ca9012ce13ee",
)


class TestEvalW2:
    def test_outputs_match_recorded_digests(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        save_gaussian("g.json", np.linspace(-1.0, 1.0, 8), np.linspace(0.5, 2.0, 8))
        write_stack("samples.stack", stream(4, "scratch").standard_normal((40, 8)), 0, 0.0)
        argv = ["eval-w2", "--samples", "samples.stack", "--target", "gaussian:g.json",
                "--out", "ev"]
        assert cli.main(argv) == 0
        stdout = capsys.readouterr().out.encode()
        got = tuple(hashlib.sha256(data).hexdigest()
                    for data in (stdout, (tmp_path / "ev" / "eval.json").read_bytes()))
        assert got == EVAL_DIGESTS

    def test_self_sample_scores_near_zero(self, fixtures, tmp_path):
        root, mu, var = fixtures["root"], fixtures["mu"], fixtures["var"]
        draws = mu + np.sqrt(var) * stream(0, "scratch").standard_normal((10_000, 3))
        write_stack(tmp_path / "samples.stack", draws, 0, 0.0)
        res = run_cli("eval-w2", "--samples", tmp_path / "samples.stack",
                      "--target", f"gaussian:{root / 'gauss.json'}",
                      "--out", tmp_path / "ev")
        assert res.returncode == 0
        report = json.loads(res.stdout)
        assert report["w2"] <= 0.1 * np.linalg.norm(np.sqrt(var))
        assert report["moments"]["n"] == 10_000
        on_disk = json.loads((tmp_path / "ev" / "eval.json").read_text())
        assert on_disk == report

    def test_moments_record_mean_variance_and_count(self, tmp_path, capsys):
        save_gaussian(tmp_path / "g2.json", np.zeros(2), np.ones(2))
        write_stack(tmp_path / "two.stack", np.array([[0.0, 1.0], [2.0, 3.0]]), 0, 0.0)
        code = cli.main(["eval-w2", "--samples", str(tmp_path / "two.stack"),
                         "--target", f"gaussian:{tmp_path / 'g2.json'}"])
        assert code == 0
        moments = json.loads(capsys.readouterr().out)["moments"]
        assert moments == {"mean": [1.0, 2.0], "var_diag": [2.0, 2.0], "n": 2}
        assert type(moments["n"]) is int

    def test_single_sample_is_an_error(self, fixtures, tmp_path):
        root = fixtures["root"]
        write_stack(tmp_path / "one.stack", np.array([[0.1, 0.2, 0.3]]), 0, 0.0)
        res = run_cli("eval-w2", "--samples", tmp_path / "one.stack",
                      "--target", f"gaussian:{root / 'gauss.json'}")
        assert res.returncode == 4

    def test_dimension_mismatch_is_an_error(self, fixtures, tmp_path):
        root = fixtures["root"]
        write_stack(tmp_path / "d2.stack", np.zeros((5, 2)), 0, 0.0)
        res = run_cli("eval-w2", "--samples", tmp_path / "d2.stack",
                      "--target", f"gaussian:{root / 'gauss.json'}")
        assert res.returncode == 2
        assert "dimension" in res.stderr

    def test_dimension_mismatch_names_both_shapes(self, tmp_path, capsys):
        save_gaussian(tmp_path / "g2.json", np.zeros(2), np.ones(2))
        write_stack(tmp_path / "d3.stack", np.zeros((5, 3)), 0, 0.0)
        code = cli.main(["eval-w2", "--samples", str(tmp_path / "d3.stack"),
                         "--target", f"gaussian:{tmp_path / 'g2.json'}",
                         "--out", str(tmp_path / "ev")])
        assert code == 2
        assert capsys.readouterr().err == (
            "parseq: usage error: dimension mismatch: mu1 (3,), var1 (3,), mu2 (2,), "
            "var2 (2,); all four parameter vectors must share one shape\n")
        assert not (tmp_path / "ev").exists()


class TestNonFiniteInputs:
    """NaN and +-inf in an input file, and a negative Gaussian variance,
    exit 4 and name the file; finite samples whose statistics overflow
    exit 3.  No run prints a NaN or an Infinity, which JSON cannot hold."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("flag", ["--target", "--noise-file", "--samples"])
    def test_stack_flag(self, flag, bad, tmp_path, capsys):
        rows = np.full((3, 2), 0.5)
        rows[1, 1] = bad
        path = str(tmp_path / "bad.stack")
        write_raw_stack(path, rows, 20, 0.0)
        gauss = str(tmp_path / "g.json")
        save_gaussian(gauss, np.zeros(2), np.ones(2))
        argv = {
            "--target": ["invert", "--target", path, "--predictor", "gaussian", "--D", "2",
                         "--T", "20", "--epochs", "2"],
            "--noise-file": ["sample", "--noise-file", path, "--predictor", "gaussian",
                             "--D", "2", "--T", "20", "--S", "3", "--eta", "1"],
            "--samples": ["eval-w2", "--samples", path, "--target", f"gaussian:{gauss}"],
        }[flag]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert path in captured.err and "NaN or infinite" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "command, kind, text",
        [
            *[(command, "gaussian", text) for command in ("sample", "eval-w2") for text in (
                '{"mu": [0.0, 1.0], "var": [NaN, 1.0]}',
                '{"mu": [Infinity, 1.0], "var": [1.0, 1.0]}',
                '{"mu": [0.0, 1.0], "var": [1e999, 1.0]}',
            )],
            ("sample", "mlp", '{"widths": [3, 2], "weights": [[0, 0, 0, 0, 0, -Infinity]], '
                              '"biases": [[0, 0]], "time_embed": "scalar_append"}'),
            ("sample", "mlp", '{"widths": [3, 2], "weights": [[0, 0, 0, 0, 0, 0]], '
                              '"biases": [[NaN, 0]], "time_embed": "scalar_append"}'),
        ],
        ids=[f"{c}-{k}" for c in ("sample", "eval-w2")
             for k in ("nan-var", "inf-mu", "overflowing-var")] + ["mlp-inf-weight",
                                                                 "mlp-nan-bias"],
    )
    def test_json_file(self, command, kind, text, tmp_path, capsys):
        path = str(tmp_path / "params.json")
        with open(path, "w") as fh:
            fh.write(text)
        samples = str(tmp_path / "samples.stack")
        write_stack(samples, np.arange(6.0).reshape(3, 2), 0, 0.0)
        argv = {
            "sample": ["sample", "--predictor", f"{kind}:{path}", "--T", "10"],
            "eval-w2": ["eval-w2", "--samples", samples, "--target", f"gaussian:{path}"],
        }[command]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert path in captured.err and "finite" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["sample", "eval-w2"])
    def test_negative_variance_file_exits_4(self, command, tmp_path, capsys):
        path = str(tmp_path / "params.json")
        save_gaussian(path, np.zeros(2), np.array([1.0, -0.5]))
        samples = str(tmp_path / "samples.stack")
        write_stack(samples, np.arange(6.0).reshape(3, 2), 0, 0.0)
        argv = {
            "sample": ["sample", "--predictor", f"gaussian:{path}", "--T", "10"],
            "eval-w2": ["eval-w2", "--samples", samples, "--target", f"gaussian:{path}"],
        }[command]
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 4
        captured = capsys.readouterr()
        assert path in captured.err and "var entries must be >= 0" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("scale", [1e308, 1e200], ids=["moments", "distance"])
    def test_overflowing_samples_are_a_numeric_failure(self, scale, tmp_path, capsys):
        # At 1e308 the mean overflows; at 1e200 the moments are finite and
        # the squared distance to the target's mean overflows.
        samples = str(tmp_path / "big.stack")
        write_stack(samples, np.array([[scale, 0.0], [scale, 1.0]]), 0, 0.0)
        gauss = str(tmp_path / "g.json")
        save_gaussian(gauss, np.zeros(2), np.ones(2))
        code = cli.main(["eval-w2", "--samples", samples, "--target", f"gaussian:{gauss}",
                         "--out", str(tmp_path / "out")])
        assert code == 3
        captured = capsys.readouterr()
        assert "numeric failure" in captured.err
        assert captured.out == ""
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("method", [["naive"], ["deq", "--grad", "phantom"],
                                        ["deq", "--grad", "exact"]],
                             ids=["naive", "phantom", "exact"])
    @pytest.mark.parametrize("scale", [1e200, 1e308])
    def test_inversion_whose_loss_overflows_is_a_numeric_failure(self, scale, method,
                                                                 tmp_path, capsys):
        # At 1e200 every state stays finite and only the loss overflows; at
        # 1e308 the first gradient would overflow too.  Either way the first
        # epoch's loss ends the run, before run.json could hold an Infinity.
        gauss, target = str(tmp_path / "g.json"), str(tmp_path / "t.stack")
        save_gaussian(gauss, np.zeros(2), np.ones(2))
        write_stack(target, np.array([[scale, -scale]]), 100, 0.0)
        code = cli.main(["invert", "--predictor", f"gaussian:{gauss}", "--T", "100",
                         "--S", "10", "--target", target, "--epochs", "5",
                         "--method", *method, "--out", str(tmp_path / "out")])
        assert code == 3
        assert capsys.readouterr().err == (
            "parseq: numeric failure: the loss ||x_0 - target||^2 is not finite\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("mode", ["deq-anderson", "deq-picard"])
    def test_overflowing_residual_norms_are_recorded_finite(self, mode, tmp_path):
        # Biases of 1e200 keep every state finite, but each residual's sum
        # of squares overflows.  The recorded norms must stay finite, so the
        # manifest is valid JSON.
        path = tmp_path / "w.json"
        path.write_text('{"widths": [3, 2], "weights": [[1.5, 0.9, 0.0, -0.7, 1.4, 0.0]], '
                        '"biases": [[1e200, -1e200]], "time_embed": "scalar_append"}')
        out = tmp_path / "out"
        argv = ["sample", "--predictor", f"mlp:{path}", "--T", "1000", "--S", "100",
                "--mode", mode, "--out", str(out)]
        assert cli.main(argv) == 0

        def refuse(name):
            raise AssertionError(f"manifest holds {name}, which is not JSON")

        manifest = json.loads((out / "manifest.json").read_text(), parse_constant=refuse)
        _, rows = read_trace(out / "residuals.csv")
        residuals = [float(row[1]) for row in rows]
        assert np.isfinite(residuals).all() and max(residuals) > 1e200
        assert manifest["solver"]["final_residual"] == residuals[-1]


class TestInvert:
    def test_deq_run_writes_report_trace_and_recovered_state(self, fixtures, tmp_path):
        root = fixtures["root"]
        out = tmp_path / "inv"
        res = run_cli("invert", "--target", root / "target.stack",
                      "--method", "deq", "--grad", "phantom",
                      "--predictor", f"gaussian:{root / 'gauss.json'}",
                      "--T", 20, "--epochs", 40, "--lr", 0.05, "--seed", 1,
                      "--out", out)
        assert res.returncode == 0
        report = json.loads((out / "run.json").read_text())
        assert report["epochs_run"] == 40
        assert report["best_loss"] <= report["loss_trace"][0]
        assert report["x_T_hat_file"] == "x_T_hat.stack"
        assert len(report["solver_iters"]) == 40
        assert all(isinstance(n, int) and n >= 1 for n in report["solver_iters"])
        x_T_hat, _, _ = read_stack(out / "x_T_hat.stack")
        assert x_T_hat.shape == (1, 3)
        with open(out / "loss_trace.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "loss"]
        assert len(rows) == 41
        assert float(rows[1][1]) == report["loss_trace"][0]

    def test_self_generated_target_reaches_stop_loss(self, fixtures, tmp_path):
        root = fixtures["root"]
        res = run_cli("invert", "--target", root / "selfgen.stack",
                      "--method", "deq", "--grad", "phantom",
                      "--predictor", f"gaussian:{root / 'gauss.json'}",
                      "--T", 20, "--epochs", 200, "--lr", 0.05,
                      "--stop-loss", 1e-4, "--seed", 0, "--out", tmp_path / "inv")
        assert res.returncode == 0
        report = json.loads((tmp_path / "inv" / "run.json").read_text())
        assert report["best_loss"] <= 1e-4
        assert report["epochs_run"] < 200

    def test_exact_gradient_and_noisy_chain_run(self, fixtures, tmp_path):
        root = fixtures["root"]
        res = run_cli("invert", "--target", root / "target.stack",
                      "--method", "deq", "--grad", "exact", "--lr", 0.001,
                      "--predictor", f"gaussian:{root / 'gauss.json'}",
                      "--T", 20, "--S", 5, "--epochs", 10, "--out", tmp_path / "a")
        assert res.returncode == 0
        res = run_cli("invert", "--target", root / "target.stack",
                      "--method", "deq", "--eta", 0.5,
                      "--predictor", f"gaussian:{root / 'gauss.json'}",
                      "--T", 20, "--S", 5, "--epochs", 10, "--out", tmp_path / "b")
        assert res.returncode == 0
        run_a = json.loads((tmp_path / "a" / "run.json").read_text())
        run_b = json.loads((tmp_path / "b" / "run.json").read_text())
        assert run_a["config"]["grad"] == "exact"
        assert run_b["config"]["eta"] == 0.5


#: SHA-256 of x_T_hat.stack, loss_trace.csv and run.json for each (method,
#: grad, eta) of ``TestInvertBytes``, recorded when the sweep and the rollout
#: became one prefix sum in scaled coordinates; ``naive`` was re-recorded
#: when the rollout's backprop became the exact route's back-substitution.
#: The deq rows at eta 1 were recorded as the method ``deq-stochastic``,
#: which ``deq`` replaced with the same x_T_hat and loss bytes.  The run.json
#: digests were re-recorded when the Anderson window and ridge left the
#: recorded config, and the method ``deq-stochastic`` with them.  The deq
#: rows were re-recorded when Anderson's history became one ring of
#: ``HISTORY_M`` rows with one ridge solve for its weights.  The x_T_hat
#: digests were re-recorded when x_T_hat became the iterate of the lowest
#: measured loss instead of the step after the last epoch.
INVERT_DIGESTS = {
    ("naive", "phantom", "0"): (
        "dedf366264a7568e9c9327f814d980d2690ba630ababed24a5aa95159c3a51c2",
        "ced2670c8b9693e3acec8101b2eb96ec607ae7dea448ff90da3845aabcfc7a5f",
        "8ce026f6f6a499e1694dffb567845d542cc9433c319619c77a8be5e1558e1993",
    ),
    ("naive", "phantom", "1"): (
        "482cf185e496f7d5cd47b98dc3d38f1975139f4a3fdba69da84d43122f5265a2",
        "ec32e093dd4562c4e6e5aefd63169433e67b51989312ac25d75453f12e7342f3",
        "b11f4177fd170fbc54d51c938a7543110246cdd864b80b4b530814e859db1427",
    ),
    ("deq", "phantom", "0"): (
        "e3ec6c09aefdb2b52b2569b9421119b6ee1acdefda6389e9d412b7a5406b9acb",
        "7df52501d1388766207441c58af090b4783884480363b72559f50cafb1c3f8ab",
        "990c78b8d98782e52ae8f7bcdd39ff96aa8352282c23dad59828d2aaf9140c30",
    ),
    ("deq", "exact", "0"): (
        "09caad9381072c5f721957db061dc129301ca9139989e3f17f14a63efb91efea",
        "bd96f5a8ba062c9abdcd9042de98816a0201bddd0e398228927aa165dcb90141",
        "da24443d33432d0236f85f2a18a7198c6ba50f6baa60b69fc74eb383b6efd66a",
    ),
    ("deq", "phantom", "1"): (
        "da4c096fd22c8d6be7eb4bbc5ca2600a30cfbec0f28186acca6fdc08f450eb21",
        "0638254907a89033101b6fa33e0f06175a5ac9995a4a22408c6e81df1384645d",
        "255dbe845c9c1ae39ed21c3f2c23bc1bf7de38abcb9dcf97d3fa368cf5022db6",
    ),
    ("deq", "exact", "1"): (
        "7fe0d3654e38d12788b39ca3c107e796891da9f4b35886d6cc3589469e7419dd",
        "9ca9810bfa71748998634b69b17fcc0f75ee11220f44a5075486f1a4590ab363",
        "6ec79984a521361cbb2408b757250682a466ae8fbd9dd83faf193bdbab2fbe01",
    ),
}


class TestInvertBytes:
    """Every invert output on a small Gaussian chain, pinned to the bit.

    The Gaussian predictor acts elementwise and the paths are relative, so
    the bytes depend neither on BLAS nor on the temporary directory."""

    MU, VAR, TARGET = np.array([0.5, -1.0, 0.25]), np.array([0.5, 2.0, 1.0]), [0.4, -1.2, 0.9]

    def _invert(self, tmp_path, monkeypatch, method, grad, eta):
        monkeypatch.chdir(tmp_path)
        save_gaussian("g.json", self.MU, self.VAR)
        write_stack("target.stack", np.array(self.TARGET), 40, 0.0)
        argv = ["invert", "--predictor", "gaussian:g.json", "--T", "40", "--S", "6",
                "--eta", eta, "--seed", "5", "--threads", "1", "--target", "target.stack",
                "--method", method, "--grad", grad, "--epochs", "30", "--lr", "0.1",
                "--out", "out"]
        assert cli.main(argv) == 0
        return tmp_path / "out"

    @pytest.mark.parametrize("method, grad, eta", list(INVERT_DIGESTS),
                             ids=["-".join(key) for key in INVERT_DIGESTS])
    def test_outputs_match_recorded_digests(self, tmp_path, monkeypatch, method, grad, eta):
        out = self._invert(tmp_path, monkeypatch, method, grad, eta)
        got = tuple(hashlib.sha256((out / name).read_bytes()).hexdigest()
                    for name in ("x_T_hat.stack", "loss_trace.csv", "run.json"))
        assert got == INVERT_DIGESTS[(method, grad, eta)]

    @pytest.mark.parametrize("method, grad, eta", list(INVERT_DIGESTS),
                             ids=["-".join(key) for key in INVERT_DIGESTS])
    def test_rerun_reproduces_every_output(self, tmp_path, monkeypatch, method, grad, eta):
        out = self._invert(tmp_path, monkeypatch, method, grad, eta)
        names = ("x_T_hat.stack", "loss_trace.csv", "run.json")
        before = {name: (out / name).read_bytes() for name in names}
        manifest_before = json.loads((out / "manifest.json").read_text())
        budget = None if method == "naive" else (15 if eta == "0" else 50)
        assert manifest_before["args"]["solver_max_iters"] == budget
        assert json.loads(before["run.json"])["config"]["solver_max_iters"] == budget
        for name in names:
            (out / name).unlink()

        assert cli.main(["rerun", "out/manifest.json"]) == 0
        assert {name: (out / name).read_bytes() for name in names} == before
        manifest_after = json.loads((out / "manifest.json").read_text())
        manifest_before.pop("timings_ms")
        manifest_after.pop("timings_ms")
        assert manifest_after == manifest_before

    @pytest.mark.parametrize("method", ["naive", "deq"])
    def test_builds_the_chain_coefficients_once(self, tmp_path, monkeypatch, method):
        from parseq import chain, gradients

        builds = []
        build = chain.chain_coefficients
        for module in (chain, gradients):
            monkeypatch.setattr(module, "chain_coefficients",
                                lambda *a: builds.append(1) or build(*a), raising=False)
        out = self._invert(tmp_path, monkeypatch, method, "exact", "0")
        assert json.loads((out / "run.json").read_text())["epochs_run"] == 30
        assert len(builds) == 1

    @pytest.mark.parametrize("method", ["naive", "deq"])
    @pytest.mark.parametrize("eta", ["0", "1"])
    def test_eta_pins_the_seeds_noise_stack(self, tmp_path, monkeypatch, method, eta):
        # At eta 0 every sigma is zero, so no noise is drawn and none is pinned.
        chains = []
        run = cli.invert
        monkeypatch.setattr(cli, "invert", lambda t, cfg, c: chains.append(c) or run(t, cfg, c))
        self._invert(tmp_path, monkeypatch, method, "phantom", eta)
        (chain,) = chains
        if eta == "0":
            assert chain.noise is None and chain.scaled_noise is None
        else:
            assert chain.noise.tobytes() == draw_noise_stack(5, 6, 3).tobytes()

    def test_naive_at_eta_one_is_the_librarys_rollout_inversion(self, tmp_path, monkeypatch):
        out = self._invert(tmp_path, monkeypatch, "naive", "phantom", "1")
        schedule = make_linear_beta_schedule(40, eta=1.0)
        chain = Chain(schedule, select_subsequence(40, 6, "linear"),
                      GaussianOptimalPredictor(self.MU, self.VAR, schedule),
                      draw_noise_stack(5, 6, 3))
        cfg = InversionConfig(epochs=30, lr=0.1, gradient_mode="naive", seed=5)
        run = invert(np.array(self.TARGET), cfg, chain)
        x_T_hat, _, _ = read_stack(out / "x_T_hat.stack")
        assert x_T_hat[-1].tobytes() == run.x_T_hat.tobytes()


#: SHA-256 of x0.stack, stack.stack and (for a solve) residuals.csv.  The
#: deq-anderson rows, and their ``TRACE_DIGESTS``, were re-recorded when
#: Anderson's history became one ring of ``HISTORY_M`` rows with one ridge
#: solve for its weights.
SAMPLE_DIGESTS = {
    ("sequential", "0"): (
        "8a36d77e9c07f6acf4b064d1c3c2e2faec059f270a97ccee83d7e2eef043f2ad",
        "de7620e4b2e9607accdea34c320471ce9162725f77d746e9b0f5ad84df9cb501",
    ),
    ("sequential", "1"): (
        "ec6ad8726c19d451bdf21bab9da07afa44fb8aa62c0539b33edf2a0debc14167",
        "c169a0a13f6d690f025bc901b1f4dcdbcbdf46686cdf662b65f07b102048f486",
    ),
    ("deq-picard", "0"): (
        "e927d41fce800d038ed13cb23d3dd2650d8e63a466dea3d7d8bff2a052df8887",
        "4f4fb36120b000cd1ea7c0e3a2c83fc69f84320583cac9f0c90d1ac1538bcd47",
        "066f9bf5ba849963c1469a62564ec4ff0dd265e401a5c23598a1c88abebff33b",
    ),
    ("deq-picard", "1"): (
        "b6560f23a1aeb21318b93c1d4d04a0b6fd25360788cd8ddb11ff2e51ddaef227",
        "e756fc41a3933d01880b74ec7e4f8ecb09b18bd49359b3965bd63753143935e5",
        "254bef31ff7dbc4304490ad452d1b0e91a73134a3e76dde4ce958e3eea002bc1",
    ),
    ("deq-anderson", "0"): (
        "4a3b47b3a5c7c0c2ea4e01fcd38397ce96ccd6804c0bd927c202bc4a4ec609c9",
        "b51a5f7ceeb31c9db222e3bc62d585e500bfaf418cb8f7d6cfd7654e35311236",
        "fc9890114ede26054a419f37d56f745b92acd423b81f49c3c16d5e5c1a2cb0fb",
    ),
    ("deq-anderson", "1"): (
        "84a2ec1bb978c52948da74251e7472c99da26b3792bbd97cb3f36b1cff5fe532",
        "ce75db977e399fd4c2424c234ea5989b9626971ccbe33ee5ef31780f3fb81dbc",
        "8a8a34cf398c870a366a565b362ef24b807295d926d82cf8cd8e1c4b649cdc71",
    ),
}


#: SHA-256 of trace.csv over 3 runs of the same chain, by (mode, eta); at
#: eta 1 every run draws its own noise stack.
TRACE_DIGESTS = {
    ("deq-picard", "0"): "837cad8ee2d88272c0b3e8cf165221075a2170f99b985e233bfba01dc386a7a6",
    ("deq-picard", "1"): "2fc1c37e3c1107a32f2c3079d61bdcf96578f27c7385ddb1ccff3e349f367c8c",
    ("deq-anderson", "0"): "4ac1a0a44e6fef7e16bdd7e7fcb77a31780977671ba2397a7dad5e193819a0b1",
    ("deq-anderson", "1"): "49dffc1484e8e69c48c41a1f6e13ece638afdfad177cad77139d4e63c8c71271",
}


class TestSampleBytes:
    """Every sample output on a Gaussian chain (T 1000, S 50, D 8), pinned to
    the bit, signed zeros included: the chain coefficients, the rollout and
    both solvers all feed these files."""

    @pytest.mark.parametrize("mode, eta", list(SAMPLE_DIGESTS),
                             ids=["-".join(key) for key in SAMPLE_DIGESTS])
    def test_outputs_match_recorded_digests(self, tmp_path, monkeypatch, mode, eta):
        monkeypatch.chdir(tmp_path)
        save_gaussian("g.json", np.linspace(-1.0, 1.0, 8), np.linspace(0.5, 2.0, 8))
        argv = ["sample", "--predictor", "gaussian:g.json", "--T", "1000", "--S", "50",
                "--eta", eta, "--seed", "3", "--mode", mode, "--save-stack", "--out", "out"]
        assert cli.main(argv) == 0
        names = ("x0.stack", "stack.stack", "residuals.csv")[:len(SAMPLE_DIGESTS[(mode, eta)])]
        got = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
                    for name in names)
        assert got == SAMPLE_DIGESTS[(mode, eta)]

    @pytest.mark.parametrize("mode, eta", list(TRACE_DIGESTS),
                             ids=["-".join(key) for key in TRACE_DIGESTS])
    def test_trace_matches_recorded_digest(self, tmp_path, monkeypatch, mode, eta):
        monkeypatch.chdir(tmp_path)
        save_gaussian("g.json", np.linspace(-1.0, 1.0, 8), np.linspace(0.5, 2.0, 8))
        argv = ["trace", "--predictor", "gaussian:g.json", "--T", "1000", "--S", "50",
                "--eta", eta, "--seed", "3", "--mode", mode, "--runs", "3", "--out", "out"]
        assert cli.main(argv) == 0
        got = hashlib.sha256((tmp_path / "out" / "trace.csv").read_bytes()).hexdigest()
        assert got == TRACE_DIGESTS[(mode, eta)]


@pytest.mark.parametrize("grad", ["phantom", "exact"])
def test_deq_inversion_converges_every_anderson_solve(tmp_path, monkeypatch, grad):
    # The benchmark's Gaussian inversion chain (T 1000, S 10, D 16): each
    # epoch's Anderson solve, warm-started from the last fixed point, must
    # reach --solver-tol within its default budget of 15 iterations.
    monkeypatch.chdir(tmp_path)
    sched = make_linear_beta_schedule(1000)
    rng = np.random.default_rng(1)
    mu, var = rng.standard_normal(16), rng.uniform(0.3, 2.0, 16)
    save_gaussian("g.json", mu, var)
    x_T = stream(7, "x_T").standard_normal(16)
    pred = GaussianOptimalPredictor(mu, var, sched)
    target = sequential_rollout(x_T, sched, select_subsequence(1000, 10, "linear"), pred)[-1]
    write_stack("target.stack", target, 1000, 0.0)
    argv = ["invert", "--predictor", "gaussian:g.json", "--T", "1000", "--S", "10",
            "--subseq", "linear", "--target", "target.stack", "--method", "deq",
            "--grad", grad, "--lr", "0.1", "--stop-loss", "1e-3", "--epochs", "800",
            "--seed", "0", "--out", "out"]
    assert cli.main(argv) == 0
    run = json.loads((tmp_path / "out" / "run.json").read_text())
    assert run["best_loss"] <= 1e-3
    assert run["solver_converged"] == [True] * run["epochs_run"]
    assert max(run["solver_iters"]) <= 15


#: Solver tolerances on both sides of their bounds.
_TOLS = st.sampled_from(["1e-3", "0", "-1", "nan", "inf"])


def _bad_tol(tol):
    return tol in ("-1", "nan", "inf")


def _exit_code(argv):
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code


class TestArgvBoundary:
    """Every generated argument vector is well formed for argparse, so it
    must end in 0 or a usage error (2), never in a traceback."""

    @settings(max_examples=40, deadline=None)
    @given(
        threads=st.one_of(st.none(), st.integers(-3, 4)),
        seed=st.integers(-3, 3),
        D=st.integers(-2, 4),
        mode=st.sampled_from(["sequential", "deq-picard", "deq-anderson"]),
        tol=_TOLS,
    )
    def test_exit_code_is_success_or_usage_error(self, threads, seed, D, mode, tol):
        argv = ["sample", "--predictor", "gaussian", "--T", "4", "--D", str(D),
                "--seed", str(seed), "--mode", mode, "--solver-tol", tol]
        if threads is not None:
            argv += ["--threads", str(threads)]
        with tempfile.TemporaryDirectory() as out:
            code = _exit_code(argv + ["--out", out])
        bad_threads = threads is not None and threads < 1
        assert code == (2 if bad_threads or seed < 0 or D < 1 or _bad_tol(tol) else 0)

    @settings(max_examples=60, deadline=None)
    @given(
        # 73_253 is the shortest default schedule whose product underflows;
        # the huge sizes are past any allocation (2**59 float64 is 4 EiB).
        T=st.one_of(st.integers(1, 50), st.sampled_from([73_253, 2**59, 2**62, 10**30])),
        D=st.one_of(st.integers(1, 8), st.sampled_from([2**59, 2**62, 10**30])),
        predictor=st.sampled_from(["zero", "gaussian", "zero:x.json", "zero:", "gaussian:"]),
    )
    def test_sizes_exit_success_or_usage_error(self, T, D, predictor):
        argv = ["sample", "--mode", "sequential", "--predictor", predictor,
                "--T", str(T), "--D", str(D)]
        with tempfile.TemporaryDirectory() as out:
            code = cli.main(argv + ["--out", out])
        assert code == (0 if T <= 50 and D <= 8 and ":" not in predictor else 2)

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["invert", "trace", "bench"]),
        method=st.sampled_from(["naive", "deq"]),
        grad=st.sampled_from(["phantom", "exact"]),
        s_list=st.sampled_from(["2,4", "4", "", "0,2", "x"]),
        threads=st.integers(-1, 2),
        seed=st.integers(-3, 3),
        D=st.integers(-1, 3),
        tol=_TOLS,
    )
    def test_invert_trace_and_bench_exit_success_or_usage_error(
        self, command, method, grad, s_list, threads, seed, D, tol
    ):
        argv = ["--predictor", "gaussian", "--T", "4", "--D", str(D), "--seed", str(seed),
                "--threads", str(threads), "--solver-tol", tol]
        bad = threads < 1 or seed < 0 or D < 1 or _bad_tol(tol)
        with tempfile.TemporaryDirectory() as tmp:
            if command == "invert":
                target = os.path.join(tmp, "target.stack")
                write_stack(target, np.full(max(D, 1), 0.5), 4, 0.0)
                argv = ["invert", "--target", target, "--method", method, "--grad", grad,
                        "--epochs", "3", *argv]
            elif command == "trace":
                argv = ["trace", "--runs", "2", *argv]
            else:
                argv = ["bench", "--S-list", s_list, *argv]
                bad = bad or s_list not in ("2,4", "4")
            code = _exit_code(argv + ["--out", os.path.join(tmp, "out")])
        assert code == (2 if bad else 0)


_EVAL_VALUES = [-1.5, 0.0, 0.5, 2.0, 1e308, np.nan, np.inf, -np.inf]


@settings(max_examples=80, deadline=None)
@given(
    rows=st.integers(0, 4),
    D=st.integers(1, 4),
    values=st.lists(st.sampled_from(_EVAL_VALUES), min_size=16, max_size=16),
    samples_file=st.sampled_from(["stack", "truncated", "missing"]),
    target=st.sampled_from(["gaussian:params", "gaussian", "mlp:params", "gaussian:missing"]),
    target_D=st.integers(1, 4),
    mu=st.sampled_from([-1.0, 0.0, 1.5, np.nan, np.inf]),
    var=st.sampled_from([-1.0, 0.5, 2.0, np.nan, -np.inf]),
    out=st.booleans(),
)
def test_eval_w2_argv_exits_with_its_documented_code(rows, D, values, samples_file, target,
                                                     target_D, mu, var, out):
    data = np.array(values[: rows * D]).reshape(rows, D)
    with tempfile.TemporaryDirectory() as tmp:
        samples = os.path.join(tmp, "samples.stack")
        if samples_file != "missing":
            write_raw_stack(samples, data, 0, 0.0)
        if samples_file == "truncated":
            with open(samples, "r+b") as fh:
                fh.truncate(os.path.getsize(samples) - 3)
        params = os.path.join(tmp, "params.json")
        with open(params, "w") as fh:
            json.dump({"mu": [mu] * target_D, "var": [var] * target_D}, fh)
        spec = target.replace("params", params).replace("missing", os.path.join(tmp, "no.json"))
        argv = ["eval-w2", "--samples", samples, "--target", spec]
        if out:
            argv += ["--out", os.path.join(tmp, "out")]
        code = _exit_code(argv)
        wrote = os.path.exists(os.path.join(tmp, "out", "eval.json"))
    if not target.startswith("gaussian:"):
        expected = 2  # --target must name a Gaussian parameter file
    elif samples_file != "stack" or not np.isfinite(data).all():
        expected = 4
    elif target == "gaussian:missing" or not np.isfinite([mu, var]).all() or var < 0:
        expected = 4  # a negative variance is a schema error of the file
    elif rows < 2:
        expected = 4  # a variance needs two samples
    elif D != target_D:
        expected = 2
    elif (data == 1e308).any():
        expected = 3  # overflowing moments
    else:
        expected = 0
    assert code == expected
    assert wrote == (out and code == 0)


def _manifest_args(command, tmp):
    """The args a manifest of ``command`` records, on a small chain."""
    target, samples = os.path.join(tmp, "target.stack"), os.path.join(tmp, "samples.stack")
    write_stack(target, np.full(3, 0.5), 20, 0.0)
    write_stack(samples, np.arange(12.0).reshape(4, 3), 0, 0.0)
    params = os.path.join(tmp, "params.json")
    save_gaussian(params, np.zeros(3), np.ones(3))
    chain = ["--predictor", "gaussian", "--D", "3", "--T", "20"]
    argv = {
        "sample": ["sample", *chain, "--S", "4"],
        "invert": ["invert", *chain, "--target", target, "--epochs", "3"],
        "trace": ["trace", *chain, "--runs", "2"],
        "bench": ["bench", *chain, "--S-list", "2,4"],
        "eval-w2": ["eval-w2", "--samples", samples, "--target", f"gaussian:{params}"],
    }[command]
    ns = cli.build_parser().parse_args([*argv, "--out", os.path.join(tmp, "first")])
    return {k: v for k, v in vars(ns).items() if k != "func"}


#: What a manifest may record for each flag, written from the CLI's
#: documented flags: the JSON types (an int also serves a float flag), and
#: the values of a flag with choices.
_INT_FLAGS = {"T", "S", "D", "seed", "threads", "epochs", "runs", "solver_max_iters"}
_FLOAT_FLAGS = {"eta", "solver_tol", "tau", "lr", "stop_loss"}
_CHOICES = {"subseq": {"linear", "quadratic"}, "init": {"x_T", "zero"},
            "method": {"naive", "deq"}, "grad": {"phantom", "exact"}}
_MODES = {"sample": {"sequential", "deq-anderson", "deq-picard"},
          "trace": {"deq-anderson", "deq-picard"}}
_NULLABLE = {"S", "subseq", "noise_file", "solver_max_iters"}


def _recordable(command, key, value):
    if isinstance(value, (list, dict)):
        return False
    if value is None:
        return key in _NULLABLE or (command, key) == ("eval-w2", "out")
    if key == "save_stack" or isinstance(value, bool):
        return key == "save_stack" and isinstance(value, bool)
    if key == "mode":
        return value in _MODES[command]
    if key in _CHOICES:
        return value in _CHOICES[key]
    if key in _INT_FLAGS:
        return isinstance(value, int)
    if key in _FLOAT_FLAGS:
        return isinstance(value, (int, float))
    return isinstance(value, str)


_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-2, 3),
    st.sampled_from([-1.0, 0.0, 0.5, 2.0, float("nan"), float("inf")]),
    st.text(alphabet="0123456789,.-xT", max_size=4),
    st.sampled_from(["linear", "zero", "deq", "deq-stochastic", "exact", "deq-picard",
                     "sequential", "sample", "gaussian", "mlp:w.json"]),
)
_STRUCTURES = st.one_of(st.lists(st.integers(0, 2), max_size=2),
                        st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2))


@settings(max_examples=120, deadline=None)
@given(
    command=st.sampled_from(["sample", "invert", "trace", "bench", "eval-w2"]),
    edit=st.one_of(
        st.tuples(st.just("keep")),
        st.tuples(st.just("drop"), st.integers(0, 99)),
        st.tuples(st.just("add"), st.text(alphabet="abc_", min_size=1, max_size=4)),
        st.tuples(st.just("set"), st.integers(0, 99), st.one_of(_SCALARS, _STRUCTURES)),
        st.tuples(st.just("command"), _SCALARS),
        st.tuples(st.just("manifest"), st.one_of(_SCALARS, _STRUCTURES)),
        st.tuples(st.just("text"), st.sampled_from(["", "{", "[1,", "nul", "{\"args\": }"])),
    ),
)
def test_rerun_of_a_generated_manifest_exits_with_its_documented_code(command, edit):
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        args = _manifest_args(command, tmp)
        manifest = {"command": command, "args": args}
        kind, *rest = edit
        keys = sorted(args)
        if kind == "drop":
            del args[keys[rest[0] % len(keys)]]
        elif kind == "add":
            args["x_" + rest[0]] = 1
        elif kind == "set":
            key = keys[rest[0] % len(keys)]
            fits = (rest[1] == command if key == "command"
                    else _recordable(command, key, rest[1]))
            unchanged = type(rest[1]) is type(args[key]) and rest[1] == args[key]
            args[key] = rest[1]
        elif kind == "command":
            manifest["command"] = rest[0]
        elif kind == "manifest":
            manifest = rest[0]
        path = os.path.join(tmp, "manifest.json")
        with open(path, "w") as fh:
            fh.write(rest[0] if kind == "text" else json.dumps(manifest))
        err = io.StringIO()
        os.chdir(tmp)  # a replayed relative path stays inside this directory
        try:
            with contextlib.redirect_stderr(err):
                code = _exit_code(["rerun", path, "--out", os.path.join(tmp, "out")])
        finally:
            os.chdir(cwd)
    if kind == "keep" or (kind == "command" and rest[0] == command):
        assert code == 0
    elif kind == "set" and fits:
        # A well-typed value runs the command, which may reject it as usage
        # (2), numerics (3) or a file it names (4); the original runs.
        assert code in ((0,) if unchanged else (0, 2, 3, 4))
    else:
        assert code == 4
        assert "manifest" in err.getvalue()
    if code:
        assert err.getvalue().startswith("parseq: ")
