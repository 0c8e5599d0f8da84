"""Command-line surface: training demos, predict/sample, exit codes."""
import csv
import io
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from uncertain import cli
from uncertain.checkpoint import load_checkpoint, save_checkpoint
from uncertain.cli import build_bnn, build_deep_gp, build_flow, main
from uncertain.data import toy_flow_data, toy_regression
from uncertain.layers import gp as gp_module
from uncertain.rng import mix
from uncertain.tensor import Tape, Tensor, as_tensor, tensor_sum


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(["frobnicate"], capsys)
        assert code == 2

    def test_no_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli([], capsys)
        assert code == 2

    def test_missing_checkpoint_is_runtime_error(self, capsys, tmp_path):
        code, _, err = run_cli(
            ["predict", "--checkpoint", str(tmp_path / "nope.ckpt")], capsys)
        assert code == 1
        assert "error" in err

    def test_help_exits_zero(self, capsys):
        code, out, _ = run_cli(["--help"], capsys)
        assert code == 0

    @pytest.mark.parametrize("argv", [
        ["predict", "--mc-samples", "0"],
        ["predict", "--mc-samples", "-3"],
        ["sample", "--task", "flow", "--num", "-2"],
        ["sample", "--task", "lstm", "--num", "0"],
    ], ids=lambda argv: f"{argv[-2].lstrip('-')}={argv[-1]}")
    def test_nonpositive_count_is_usage_error(self, capsys, argv):
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert argv[-2] in err
        assert out == ""

    @pytest.mark.parametrize("grid", ["--grid=-1:1:0", "--grid=-1:1:-2"])
    def test_empty_grid_is_usage_error(self, capsys, grid):
        code, out, err = run_cli(["predict", grid], capsys)
        assert code == 2
        assert "--grid" in err
        assert out == ""

    @pytest.mark.parametrize("argv, config, key", [
        (["--batch-size", "0"], "", "batch_size"),
        ([], "kl_scale = half\n", "kl_scale"),
        (["--steps", "-1"], "", "max_steps"),
    ], ids=["batch_size", "kl_scale", "max_steps"])
    def test_bad_training_value_is_error(self, capsys, tmp_path, argv,
                                         config, key):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        code, out, err = run_cli(
            ["train-bnn", "--config", str(cfg),
             "--checkpoint", str(tmp_path / "m.ckpt")] + argv, capsys)
        assert code == 1
        assert err.startswith("error: ") and key in err
        assert out == ""
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("argv, message", [
        (["train-bnn", "--hidden", "0"],
         "build_bnn(0): units must be >= 1, got 0"),
        (["train-deep-gp", "--num-inducing", "0"],
         "build_deep_gp(4, 0): num_inducing must be >= 1, got 0"),
        (["train-deep-gp", "--hidden-units", "0"],
         "build_deep_gp(0, 8): units must be >= 1, got 0"),
        (["train-lstm", "--vocab", "0"],
         "build_lstm(16, 0): units must be >= 1, got 0"),
        (["train-lstm", "--seq-len", "1"], "seq_len must be >= 2, got 1"),
        (["sample", "--task", "lstm", "--seq-len", "1"],
         "seq_len must be >= 2, got 1"),
        (["train-flow", "--conditioner-hidden", "0"],
         "build_flow(4, 0, dims=2): hidden widths must be >= 1, got [0]"),
    ], ids=["hidden", "num_inducing", "hidden_units", "lstm_vocab",
            "lstm_seq_len", "sample_lstm_seq_len", "flow_conditioner_hidden"])
    def test_bad_model_size_is_usage_error(self, capsys, tmp_path, argv,
                                           message):
        ckpt = tmp_path / "m.ckpt"
        code, out, err = run_cli(argv + ["--checkpoint", str(ckpt)], capsys)
        assert code == 2
        assert err == f"error: {message}\n"
        assert out == ""
        assert not ckpt.exists()

    def test_subprocess_entry(self, tmp_path):
        proc = subprocess.run(
            [sys.executable, "-m", "uncertain.cli", "definitely-not-a-task"],
            capture_output=True,
        )
        assert proc.returncode == 2


class TestTrainBnn:
    def test_zero_steps_writes_initial_checkpoint(self, capsys, tmp_path):
        ckpt = tmp_path / "init.ckpt"
        code, out, _ = run_cli(
            ["train-bnn", "--steps", "0", "--checkpoint", str(ckpt)], capsys)
        assert code == 0
        assert out == ""  # no loss lines for zero steps
        state = load_checkpoint(ckpt)
        assert any(name.endswith("kernel_mu") for name in state)

    def test_loss_lines_format(self, capsys, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        code, out, _ = run_cli(
            ["train-bnn", "--steps", "3", "--checkpoint", str(ckpt)], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for i, line in enumerate(lines):
            fields = dict(part.split("=") for part in line.split())
            assert int(fields["step"]) == i
            float(fields["loss"])
            float(fields["kl"])

    def test_identical_seeds_reproduce_loss_lines(self, capsys, tmp_path):
        args = ["train-bnn", "--steps", "5", "--seed", "7"]
        _, first, _ = run_cli(args + ["--checkpoint", str(tmp_path / "a.ckpt")],
                              capsys)
        _, second, _ = run_cli(args + ["--checkpoint", str(tmp_path / "b.ckpt")],
                               capsys)
        assert first == second

    def test_csv_data_path(self, capsys, tmp_path):
        data = tmp_path / "points.csv"
        rng = np.random.default_rng(0)
        xs = rng.uniform(-1, 1, 40)
        data.write_text("x,y\n" + "\n".join(
            f"{v},{np.sin(v)}" for v in xs))
        code, out, _ = run_cli(
            ["train-bnn", "--steps", "2", "--data", str(data),
             "--checkpoint", str(tmp_path / "m.ckpt")], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2


class TestPredict:
    def test_bands_csv(self, capsys, tmp_path):
        ckpt = tmp_path / "m.ckpt"
        run_cli(["train-bnn", "--steps", "40", "--checkpoint", str(ckpt)],
                capsys)
        code, out, _ = run_cli(
            ["predict", "--task", "bnn", "--checkpoint", str(ckpt),
             "--grid=-2:2:9", "--mc-samples", "16"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert [r["x"] for r in rows][:2] == ["-2", "-1.5"]
        assert len(rows) == 9
        for row in rows:
            assert float(row["stddev"]) >= 0.0

    def test_predict_restores_training_state(self, capsys, tmp_path):
        # same checkpoint, two predict invocations: identical output
        ckpt = tmp_path / "m.ckpt"
        run_cli(["train-bnn", "--steps", "10", "--checkpoint", str(ckpt)],
                capsys)
        args = ["predict", "--checkpoint", str(ckpt), "--grid=-1:1:5"]
        _, first, _ = run_cli(args, capsys)
        _, second, _ = run_cli(args, capsys)
        assert first == second


def looped_predict(task, ckpt, seed, grid, samples):
    """The predict CSV rebuilt from the public API, one call per sample."""
    x, _ = toy_regression(64, seed, 0.05)
    if task == "bnn":
        model = build_bnn(16)
        model(Tensor(x[:1]), seed=mix(seed, "build"))
    else:
        model = build_deep_gp(4, 8)
        model(Tensor(x), seed=mix(seed, "build"))
    model.load_state_dict(load_checkpoint(ckpt))
    draws = np.stack([
        as_tensor(model(Tensor(grid), seed=mix(seed, "predict", s))).data[:, 0]
        for s in range(samples)])
    mean, std = draws.mean(axis=0), draws.std(axis=0)
    rows = [f"{g:.17g},{m:.17g},{d:.17g}"
            for g, m, d in zip(grid[:, 0], mean, std)]
    return "\n".join(["x,mean,stddev"] + rows) + "\n"


class TestPredictMatchesLoop:
    @pytest.mark.parametrize("task", ["bnn", "deep-gp"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_output_equals_looped_reference(self, capsys, tmp_path, task,
                                            seed):
        ckpt = tmp_path / "m.ckpt"
        train = "train-bnn" if task == "bnn" else "train-deep-gp"
        run_cli([train, "--steps", "5", "--seed", str(seed),
                 "--checkpoint", str(ckpt)], capsys)
        code, out, _ = run_cli(
            ["predict", "--task", task, "--seed", str(seed),
             "--checkpoint", str(ckpt), "--grid=-2:2:7",
             "--mc-samples", "12"], capsys)
        assert code == 0
        grid = np.linspace(-2.0, 2.0, 7)[:, None]
        assert out == looped_predict(task, ckpt, seed, grid, 12)


def parse_fresh(argv, capsys):
    """(exit code, stdout, stderr) of ``argv`` on a newly built parser."""
    try:
        cli.build_parser().parse_args(argv)
        code = 0
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """``main`` parses with one parser per process."""

    def test_parser_is_built_at_most_once(self, capsys, monkeypatch,
                                          tmp_path):
        calls = []
        real = cli.build_parser

        def counting():
            calls.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        missing = str(tmp_path / "nope.ckpt")
        assert run_cli(["predict", "--checkpoint", missing], capsys)[0] == 1
        assert run_cli(["sample", "--checkpoint", missing], capsys)[0] == 1
        assert len(calls) <= 1

    def test_a_flag_does_not_reach_the_next_call(self, capsys, tmp_path):
        ckpt = str(tmp_path / "gp.ckpt")
        assert run_cli(["train-deep-gp", "--steps", "5", "--checkpoint", ckpt],
                       capsys)[0] == 0
        query = ["predict", "--task", "deep-gp", "--checkpoint", ckpt]
        code, few, _ = run_cli(query + ["--mc-samples", "3", "--grid=-1:1:4"],
                               capsys)
        assert code == 0 and len(few.splitlines()) == 5
        code, out, _ = run_cli(query, capsys)
        assert code == 0
        src = str(pathlib.Path(cli.__file__).parents[1])
        fresh = subprocess.run(
            [sys.executable, "-m", "uncertain.cli", *query],
            capture_output=True, check=True,
            env={**os.environ, "PYTHONPATH": src})
        assert out.encode() == fresh.stdout
        assert len(out.splitlines()) == 62

    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["predict", "--help"],
        ["predict", "--mc-samples", "0"],
        ["train-bnn", "--steps", "many"],
        ["frobnicate"],
    ], ids=["help", "predict-help", "mc-samples=0", "steps=many", "unknown"])
    def test_help_and_usage_errors_after_an_earlier_call(self, capsys, argv,
                                                         tmp_path):
        want = parse_fresh(argv, capsys)
        assert want[0] in (0, 2)
        run_cli(["predict", "--checkpoint", str(tmp_path / "nope.ckpt"),
                 "--mc-samples", "5"], capsys)
        for _ in range(2):
            assert run_cli(argv, capsys) == want

    def test_a_replaced_subcommand_runs(self, capsys, monkeypatch, tmp_path):
        missing = str(tmp_path / "nope.ckpt")
        assert run_cli(["predict", "--checkpoint", missing], capsys)[0] == 1
        seen = []

        def run_predict(args):
            seen.append(args)
            return 0

        monkeypatch.setattr(cli, "run_predict", run_predict)
        assert run_cli(["predict", "--checkpoint", missing,
                        "--mc-samples", "4"], capsys) == (0, "", "")
        assert [args.mc_samples for args in seen] == [4]


class TestOtherTasks:
    def test_deep_gp_trains_and_predicts(self, capsys, tmp_path):
        ckpt = tmp_path / "gp.ckpt"
        code, out, _ = run_cli(
            ["train-deep-gp", "--steps", "5", "--checkpoint", str(ckpt)],
            capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 5
        code, out, _ = run_cli(
            ["predict", "--task", "deep-gp", "--checkpoint", str(ckpt),
             "--grid=-1:1:3", "--mc-samples", "8"], capsys)
        assert code == 0
        assert len(list(csv.DictReader(io.StringIO(out)))) == 3

    def test_flow_trains_and_samples(self, capsys, tmp_path):
        ckpt = tmp_path / "flow.ckpt"
        code, _, _ = run_cli(
            ["train-flow", "--steps", "5", "--checkpoint", str(ckpt)], capsys)
        assert code == 0
        code, out, _ = run_cli(
            ["sample", "--task", "flow", "--checkpoint", str(ckpt),
             "--num", "4"], capsys)
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        for row in rows:
            float(row["x0"]), float(row["x1"])

    def test_flow_on_three_columns_samples_three(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        data = tmp_path / "three.csv"
        rows = rng.normal(size=(40, 3))
        data.write_text("x0,x1,x2\n" + "".join(
            ",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        config = tmp_path / "three.cfg"
        config.write_text("features = x0,x1,x2\nbatch_size = 8\n")
        ckpt = tmp_path / "flow3.ckpt"
        code, _, err = run_cli(
            ["train-flow", "--steps", "3", "--data", str(data), "--config",
             str(config), "--checkpoint", str(ckpt)], capsys)
        assert code == 0, err
        code, out, err = run_cli(
            ["sample", "--task", "flow", "--checkpoint", str(ckpt),
             "--num", "4"], capsys)
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == "x0,x1,x2"
        assert len(lines) == 5
        for line in lines[1:]:
            assert np.all(np.isfinite([float(v) for v in line.split(",")]))
            assert len(line.split(",")) == 3

    def test_sample_flow_from_a_non_flow_checkpoint_fails(self, capsys,
                                                          tmp_path):
        ckpt = tmp_path / "bnn.ckpt"
        code, _, _ = run_cli(
            ["train-bnn", "--steps", "2", "--checkpoint", str(ckpt)], capsys)
        assert code == 0
        code, _, err = run_cli(
            ["sample", "--task", "flow", "--checkpoint", str(ckpt)], capsys)
        assert code == 1
        assert "no 'layer0/mask'" in err

    def test_lstm_trains_and_samples(self, capsys, tmp_path):
        ckpt = tmp_path / "lstm.ckpt"
        code, _, _ = run_cli(
            ["train-lstm", "--steps", "5", "--checkpoint", str(ckpt)], capsys)
        assert code == 0
        code, out, _ = run_cli(
            ["sample", "--task", "lstm", "--checkpoint", str(ckpt),
             "--num", "3", "--seq-len", "6"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        for line in lines:
            tokens = [int(t) for t in line.split(",")]
            assert len(tokens) == 6
            assert all(0 <= t < 8 for t in tokens)

    @pytest.mark.parametrize("task, lines", [("flow", 65), ("lstm", 64)])
    def test_sample_writes_its_csv_at_once(self, capsys, monkeypatch,
                                           tmp_path, task, lines):
        ckpt = str(tmp_path / f"{task}.ckpt")
        assert run_cli([f"train-{task}", "--steps", "2", "--checkpoint", ckpt],
                       capsys)[0] == 0

        class Counting(io.StringIO):
            writes = 0

            def write(self, text):
                Counting.writes += 1
                return super().write(text)

        out = Counting()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["sample", "--task", task, "--checkpoint", ckpt,
                     "--num", "64"]) == 0
        assert Counting.writes == 1
        assert len(out.getvalue().splitlines()) == lines


def edit_entry(name, change):
    """A checkpoint edit that replaces entry ``name`` by ``change`` of it."""

    def edit(state):
        state[name] = change(state[name])

    return edit


def widen(a):
    """One more column: the entry no longer agrees with the entries the
    model's sizes are read from."""
    return np.concatenate([a, a[:, :1]], axis=1)


class TestCheckpointMismatch:
    """A checkpoint that does not fit the model is one ``error:`` line
    naming the file, with exit 1, not a traceback."""

    @pytest.mark.parametrize("train, edit, query, message", [
        ("train-bnn", None, ["predict", "--task", "deep-gp"],
         "holds no deep-gp model: it has no 'layer0/whitened_mean' of rank 2"),
        ("train-flow", edit_entry("layer1/conditioner/w0", widen),
         ["sample", "--task", "flow"],
         "state entry 'layer1/conditioner/w0' has shape [2, 33], "
         "expected [2, 32]"),
        ("train-lstm", edit_entry("head/projection/kernel", widen),
         ["sample", "--task", "lstm"],
         "state entry 'head/projection/kernel' has shape [16, 9], "
         "expected [16, 8]"),
        ("train-bnn", edit_entry("layer0/kernel_mu", lambda a: a[0]),
         ["predict", "--task", "bnn"],
         "holds no bnn model: it has no 'layer0/kernel_mu' of rank 2"),
        ("train-bnn", edit_entry("layer0/kernel_mu", lambda a: a[:, :0]),
         ["predict", "--task", "bnn"],
         "build_bnn(0): units must be >= 1, got 0"),
    ], ids=["bnn_into_deep_gp", "flow_layer1_edited", "lstm_head_edited",
            "bnn_size_entry_misranked", "bnn_size_entry_empty"])
    def test_mismatch_is_runtime_error(self, capsys, tmp_path, train, edit,
                                       query, message):
        ckpt = str(tmp_path / "m.ckpt")
        code, _, _ = run_cli([train, "--steps", "2", "--checkpoint", ckpt],
                             capsys)
        assert code == 0
        if edit is not None:
            state = load_checkpoint(ckpt)
            edit(state)
            save_checkpoint(ckpt, state)
        code, out, err = run_cli(query + ["--checkpoint", ckpt], capsys)
        assert code == 1
        assert out == ""
        assert err == f"error: {ckpt}: {message}\n"


class TestSizesFromCheckpoint:
    """predict and sample rebuild a model at the sizes it was trained with,
    read from the checkpoint's entry shapes, with no size flag."""

    @pytest.mark.parametrize("demo, sizes, query, lines", [
        ("bnn", ["--hidden", "5"],
         ["predict", "--task", "bnn", "--grid=-1:1:5"], 6),
        ("deep-gp", ["--hidden-units", "3", "--num-inducing", "5"],
         ["predict", "--task", "deep-gp", "--grid=-1:1:5"], 6),
        ("flow", ["--num-couplings", "2", "--conditioner-hidden", "7"],
         ["sample", "--task", "flow", "--num", "4"], 5),
        ("lstm", ["--units", "6", "--vocab", "5"],
         ["sample", "--task", "lstm", "--num", "4"], 4),
    ], ids=["bnn", "deep-gp", "flow", "lstm"])
    def test_query_at_non_default_sizes(self, capsys, tmp_path, demo, sizes,
                                        query, lines):
        ckpt = str(tmp_path / "m.ckpt")
        code, _, err = run_cli([f"train-{demo}", "--steps", "3",
                                "--checkpoint", ckpt] + sizes, capsys)
        assert code == 0, err
        code, out, err = run_cli(query + ["--checkpoint", ckpt], capsys)
        assert (code, err) == (0, "")
        assert len(out.splitlines()) == lines
        if demo == "lstm":
            tokens = {int(t) for line in out.splitlines()
                      for t in line.split(",")}
            assert tokens <= set(range(5))


class TestEveryParameterTrains:
    """Every trainable parameter of each CLI demo moves within 50 steps at
    the CLI defaults: a parameter that never gets a gradient is capacity
    the demo pays for and does not use."""

    @pytest.mark.parametrize("demo", ["bnn", "deep-gp", "flow", "lstm"])
    def test_every_parameter_moves(self, capsys, tmp_path, monkeypatch,
                                   demo):
        models = []
        real_fit = cli.fit

        def recording_fit(model, *args, **kwargs):
            models.append(model)
            return real_fit(model, *args, **kwargs)

        monkeypatch.setattr(cli, "fit", recording_fit)
        states = []
        for steps in ("0", "50"):
            ckpt = tmp_path / f"{demo}-{steps}.ckpt"
            code, _, err = run_cli([f"train-{demo}", "--steps", steps,
                                    "--checkpoint", str(ckpt)], capsys)
            assert code == 0, err
            states.append(load_checkpoint(ckpt))
        before, after = states
        names = list(models[-1].trainable_variables())
        assert names
        unmoved = [n for n in names if np.array_equal(before[n], after[n])]
        assert unmoved == []


class TestFlowDemoConditioning:
    """The flow demo's couplings condition every coordinate on the other."""

    @pytest.mark.parametrize("parity", [0, 1])
    def test_active_output_depends_on_anchored_input(self, parity):
        flow = build_flow(2, 8)
        rng = np.random.default_rng(parity)
        for p in flow.trainable_variables().values():
            p.data[...] = 0.5 * rng.standard_normal(p.shape)
        coupling = flow.layers[parity]
        anchored = int(np.flatnonzero(coupling.mask.data)[0])
        active = 1 - anchored
        x0 = rng.standard_normal((1, 2))
        jac = np.empty((2, 2))
        for i in range(2):
            with Tape() as tape:
                x = tape.watch(Tensor(x0))
                y = coupling(x, seed=0)
                out = tensor_sum(y * Tensor(np.eye(2)[i]))
                jac[i] = tape.backward(out)[x.node_id].data[0]
        assert jac[anchored, anchored] == 1.0
        assert jac[anchored, active] == 0.0
        assert abs(jac[active, anchored]) > 1e-3

    def test_fits_the_column_swapped_banana(self, capsys, tmp_path):
        # the banana with x0 curved around a standard-normal x1: a coupling
        # that cannot condition x0 on x1 ends near 2.28 (MADE conditioners),
        # one that can near 1.62, at CLI defaults
        data = tmp_path / "swapped.csv"
        rows = toy_flow_data(2000, 0)[:, ::-1]
        data.write_text("x0,x1\n" + "".join(
            f"{a!r},{b!r}\n" for a, b in rows.tolist()))
        code, out, err = run_cli(
            ["train-flow", "--data", str(data),
             "--checkpoint", str(tmp_path / "flow.ckpt")], capsys)
        assert code == 0, err
        losses = [float(line.split()[1].split("=")[1])
                  for line in out.strip().splitlines()]
        assert len(losses) == 400
        assert np.mean(losses[-50:]) < 1.9


def deep_gp_losses(capsys, tmp_path, seed, steps=None):
    argv = ["train-deep-gp", "--seed", str(seed),
            "--checkpoint", str(tmp_path / "gp.ckpt")]
    if steps is not None:
        argv += ["--steps", str(steps)]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    return [float(line.split()[1].split("=")[1])
            for line in out.strip().splitlines()]


class TestDeepGpDemo:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_demo_fits(self, capsys, tmp_path, seed):
        # last-20 mean loss at CLI defaults: 2.01 (seed 0) and 1.16 (seed 1)
        # with whitened inducing variables and linear inner means; 35.5 and
        # 38.0 with unwhitened q(u) and zero inner means.  Which seeds stay
        # under the bound depends on the host's SIMD and BLAS kernels: see
        # ROADMAP item 5.
        losses = deep_gp_losses(capsys, tmp_path, seed)
        assert len(losses) == 300
        assert np.mean(losses[-20:]) < 3.0

    def test_k_zz_floor_does_not_decide_the_run(self, capsys, tmp_path,
                                                 monkeypatch):
        base = deep_gp_losses(capsys, tmp_path, 0, steps=2)
        monkeypatch.setattr(gp_module, "_KZZ_FLOOR", 2e-10)
        moved = deep_gp_losses(capsys, tmp_path, 0, steps=2)
        assert abs(moved[1] - base[1]) < 1e-9 * abs(base[1])


class TestConfigIntegration:
    def test_config_file_drives_training(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 4\nhidden = 4\nnum_examples = 16\n")
        ckpt = tmp_path / "m.ckpt"
        code, out, _ = run_cli(
            ["train-bnn", "--config", str(cfg), "--checkpoint", str(ckpt)],
            capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 4
        state = load_checkpoint(ckpt)
        assert state["layer0/kernel_mu"].shape == (1, 4)

    def test_flag_overrides_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps = 50\n")
        code, out, _ = run_cli(
            ["train-bnn", "--config", str(cfg), "--steps", "2",
             "--checkpoint", str(tmp_path / "m.ckpt")], capsys)
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    @pytest.mark.parametrize("line", ["prefetch = 2", "learning_rte = 0.1"])
    def test_unknown_config_key_is_usage_error(self, capsys, tmp_path, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"steps = 2\n{line}\n")
        ckpt = tmp_path / "m.ckpt"
        code, out, err = run_cli(
            ["train-bnn", "--config", str(cfg), "--checkpoint", str(ckpt)],
            capsys)
        assert code == 2
        assert out == ""
        assert str(cfg) in err
        assert repr(line.split(" = ")[0]) in err
        assert not ckpt.exists()

    def test_known_config_keys_are_the_keys_read(self):
        """_CONFIG_KEYS lists exactly the keys cli.py passes to _resolve or
        config_get, so a newly read key cannot be rejected as unknown."""
        import re

        from uncertain import cli

        with open(cli.__file__, encoding="utf-8") as fh:
            source = fh.read()
        read = set(re.findall(
            r'(?:_resolve\(args, \w+|config_get\(\w+), "(\w+)"', source))
        read |= set().union(*cli._SIZES.values())  # read by _sizes
        assert read == cli._CONFIG_KEYS

    def test_every_size_is_a_flag_of_its_train_command(self):
        parser = cli.build_parser()
        for demo, sizes in cli._SIZES.items():
            for key in sizes:
                flag = "--" + key.replace("_", "-")
                args = parser.parse_args([f"train-{demo}", flag, "3"])
                assert getattr(args, key) == 3, (demo, flag)

    def test_queries_reject_size_data_and_steps_flags(self, capsys):
        # predict and sample read every model size from the checkpoint; the
        # lstm's generation length, --seq-len, is the one size sample takes
        sizes = [key for demo_sizes in cli._SIZES.values()
                 for key in demo_sizes if key != "seq_len"]
        assert len(sizes) == 7
        for command in ("predict", "sample"):
            for key in sizes + ["data", "steps"]:
                flag = "--" + key.replace("_", "-")
                code, out, err = parse_fresh([command, flag, "3"], capsys)
                assert code == 2, (command, flag)
                assert f"unrecognized arguments: {flag} 3" in err
                assert out == ""

    def test_malformed_config_is_runtime_error(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("what even is this\n")
        code, _, err = run_cli(
            ["train-bnn", "--config", str(cfg),
             "--checkpoint", str(tmp_path / "m.ckpt")], capsys)
        assert code == 1
        assert "run.cfg:1" in err
