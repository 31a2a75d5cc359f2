"""Tests for the command-line front end: in-process entry point calls,
artifact layout, manifests, and exit codes."""

import json
import os

import numpy as np
import pytest
from numpy.testing import assert_allclose

from kanc import cli, device, networks, symbolic, training


def run(*argv) -> int:
    return cli.main(list(argv))


def read(path) -> str:
    with open(path) as fh:
        return fh.read()


def oracle_checkpoint_file(tmp_path, target="Q_D", name="oracle.txt",
                           step_mv=50):
    spec = networks.preset("oracle", target)
    ck = networks.Checkpoint(spec, None,
                             {"target": target, "seed": 0, "step_mv": step_mv})
    path = tmp_path / name
    networks.save_checkpoint(ck, path)
    return str(path)


def trained_kan_checkpoint_file(tmp_path, widths=(2, 2, 1)):
    spec = networks.NetworkSpec("kan", widths, "charge-scale", grid=4)
    params = networks.init_params(spec, seed=0, grid_size=4)
    ds = device.generate_dataset(50)
    params, _, _ = training.run_lbfgs_stage(spec, params, ds, "Q_S",
                                            epochs=30, lr=1.0)
    ck = networks.Checkpoint(spec, params,
                             {"target": "Q_S", "seed": 0, "step_mv": 50,
                              "epochs": 30})
    path = tmp_path / "kan.txt"
    networks.save_checkpoint(ck, path)
    return str(path)


class TestUsageErrors:
    def test_no_arguments_is_usage_error(self, capsys):
        assert run() == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_command(self, capsys):
        assert run("plot") == 2

    def test_invalid_step_rejected_with_usage(self, capsys):
        """A grid step outside the published table exits 2 with a usage
        message."""
        assert run("gen-data", "--step", "7", "--out", "x.csv") == 2
        err = capsys.readouterr().err
        assert "usage" in err

    @pytest.mark.parametrize("argv,flag", [
        (("train", "--family", "mlp", "--seed", "abc"), "--seed"),
        (("train", "--family", "mlp", "--plateau-window", "0"),
         "--plateau-window"),
        (("gen-data", "--step", "7", "--out", "x.csv"), "--step"),
    ], ids=["bad-int", "unknown-flag", "bad-choice"])
    def test_parse_errors_are_one_line(self, tmp_path, capsys, monkeypatch,
                                       argv, flag):
        monkeypatch.chdir(tmp_path)
        assert run(*argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert flag in err
        assert os.listdir(tmp_path) == []

    def test_version_flag_exits_cleanly(self, capsys):
        assert run("--version") == 0

    def test_help_exits_cleanly(self, capsys):
        assert run("--help") == 0


class TestGenData:
    def test_writes_dataset_and_manifest(self, tmp_path):
        out = tmp_path / "grid50.csv"
        assert run("gen-data", "--step", "50", "--out", str(out)) == 0
        lines = read(out).strip().split("\n")
        assert lines[0] == "V_D,V_G,I_D,Q_D,Q_S,Q_G,split"
        splits = [ln.rsplit(",", 1)[1] for ln in lines[1:]]
        assert splits.count("train") == 289
        assert splits.count("test") == 26936
        manifest = json.loads(read(str(out) + ".manifest.json"))
        assert manifest["command"] == "gen-data"
        assert manifest["config"]["step_mv"] == 50
        assert manifest["outputs"] == ["grid50.csv"]

    def test_file_round_trips_through_loader(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run("gen-data", "--step", "50", "--out", str(out)) == 0
        ds = device.load_dataset(out)
        want = device.generate_dataset(50)
        assert ds.step_mv == 50
        assert_allclose(ds.train_field("I_D"), want.train_field("I_D"),
                        rtol=1e-12)

    def test_rerun_is_byte_identical(self, tmp_path):
        out = tmp_path / "g.csv"
        assert run("gen-data", "--step", "20", "--out", str(out)) == 0
        first = read(out), read(str(out) + ".manifest.json")
        assert run("gen-data", "--step", "20", "--out", str(out)) == 0
        assert (read(out), read(str(out) + ".manifest.json")) == first

    def test_unwritable_path_fails_with_message(self, tmp_path, capsys):
        target = tmp_path / "missing-dir" / "g.csv"
        assert run("gen-data", "--step", "50", "--out", str(target)) == 2
        assert "error" in capsys.readouterr().err


class TestTrain:
    def flags(self, out_dir, *extra):
        return ("train", "--family", "mlp", "--target", "Q_S", "--step-mv",
                "50", "--seed", "0", "--epochs", "5", "--out-dir",
                str(out_dir)) + extra

    def test_artifacts_and_loss_trace_length(self, tmp_path):
        """A run with an explicit epoch budget leaves a checkpoint and one
        loss row per epoch."""
        assert run(*self.flags(tmp_path)) == 0
        ck = networks.load_checkpoint(tmp_path / "checkpoint.txt")
        assert ck.meta["target"] == "Q_S"
        assert ck.meta["seed"] == 0
        log_lines = read(tmp_path / "trainlog.csv").strip().split("\n")
        assert log_lines[0] == "epoch,loss,lr"
        assert len(log_lines) == 1 + 5
        manifest = json.loads(read(tmp_path / "manifest.json"))
        assert sorted(manifest["outputs"]) == ["checkpoint.txt",
                                               "trainlog.csv"]
        assert manifest["seed"] == 0
        assert set(manifest) == {"version", "command", "config", "seed",
                                 "inputs", "outputs"}

    def test_same_flags_give_identical_checkpoints(self, tmp_path):
        assert run(*self.flags(tmp_path / "a")) == 0
        assert run(*self.flags(tmp_path / "b")) == 0
        assert read(tmp_path / "a" / "checkpoint.txt") == \
            read(tmp_path / "b" / "checkpoint.txt")
        assert read(tmp_path / "a" / "trainlog.csv") == \
            read(tmp_path / "b" / "trainlog.csv")

    def test_config_file_matches_equivalent_flags(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text(
            "[run]\n"
            f"out_dir = {tmp_path / 'ini'}\n"
            "[train]\n"
            "family = mlp\n"
            "target = Q_S\n"
            "step_mv = 50\n"
            "seed = 0\n"
            "epochs = 5\n")
        assert run("train", "--config", str(cfg)) == 0
        assert run(*self.flags(tmp_path / "flags")) == 0
        assert read(tmp_path / "ini" / "checkpoint.txt") == \
            read(tmp_path / "flags" / "checkpoint.txt")
        manifest = json.loads(read(tmp_path / "ini" / "manifest.json"))
        assert str(cfg) in manifest["inputs"]

    @pytest.mark.parametrize("sweep", [(), ("--sweep", "2")],
                             ids=["single", "sweep"])
    def test_diverged_ladder_checkpoint_loads(self, tmp_path, monkeypatch,
                                              sweep):
        """A kan run whose second ladder stage diverges stops on that
        stage's grid, coarser than the ladder's last: the checkpoint's
        header names the grid its coefficients have, and eval reads it."""
        real = training.run_lbfgs_stage

        def diverge_on_grid_4(spec, params, *args):
            new, losses, diverged = real(spec, params, *args)
            return new, losses, diverged or params.grid_size == 4

        monkeypatch.setattr(training, "run_lbfgs_stage", diverge_on_grid_4)
        out = tmp_path / "train"
        assert run("train", "--family", "kan", "--target", "Q_S",
                   "--step-mv", "50", "--seed", "0", "--ladder", "2,4,8",
                   "--epochs", "3", "--out-dir", str(out), *sweep) == 3
        paths = sorted(out.glob("checkpoint*.txt"))
        assert len(paths) == (2 if sweep else 1)
        for path in paths:
            assert "grid 4" in read(path).split("\n")
            ck = networks.load_checkpoint(path)
            assert ck.spec.grid == ck.params.grid_size == 4
            assert run("eval", "--checkpoint", str(path), "--out-dir",
                       str(tmp_path / "eval")) == 0

    def test_flags_override_config_file(self, tmp_path):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nfamily = mlp\ntarget = Q_S\n"
                       "step_mv = 50\nepochs = 5\nseed = 0\n")
        out = tmp_path / "o"
        assert run("train", "--config", str(cfg), "--epochs", "3",
                   "--out-dir", str(out)) == 0
        assert len(read(out / "trainlog.csv").strip().split("\n")) == 1 + 3

    def test_bad_configs_exit_2(self, tmp_path, capsys):
        cases = [
            ("[train]\nfamily = mlp\nturbo = yes\n", "unknown [train] key"),
            ("[train]\nfamily = gan\n", "unknown family"),
            ("[train]\nfamily = mlp\nstep_mv = 7\n", "unsupported grid step"),
            ("[train]\nfamily = mlp\nepochs = soon\n", "bad value"),
            ("[extras]\nx = 1\n", "unknown config sections"),
            ("[run]\nout_dir = x\n", "needs a [train] section"),
            # a constant of the training recipe, not a setting
            ("[train]\nfamily = mlp\nloss_weight = 100\n",
             "unknown [train] key"),
        ]
        for text, message in cases:
            cfg = tmp_path / "bad.ini"
            cfg.write_text(text)
            assert run("train", "--config", str(cfg)) == 2, text
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, text

    def test_unknown_run_key_exits_2_before_writing(self, tmp_path, capsys,
                                                   monkeypatch):
        """A misspelt ``out_dir`` is rejected, not ignored with the
        artifacts written to the working directory."""
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nfamily = mlp\ntarget = Q_S\nstep_mv = 50\n"
                       "epochs = 2\n[run]\noutdir = o\n")
        assert run("train", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == "error: unknown [run] key 'outdir'\n"
        assert os.listdir(tmp_path) == ["run.ini"]

    def test_settings_are_one_set(self):
        """The TrainConfig fields, the [train] keys and the train flags
        name the same settings."""
        fields = set(training.TrainConfig.__dataclass_fields__)
        sub = next(a for a in cli.build_parser()._actions
                   if a.dest == "command")
        dests = {a.dest for a in sub.choices["train"]._actions}
        assert fields == set(cli.TRAIN_FIELDS)
        assert dests - {"help", "config", "out_dir", "sweep"} == fields

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run("train", "--config", str(tmp_path / "nope.ini")) == 2

    def test_family_required(self, capsys):
        assert run("train", "--epochs", "1") == 2
        assert "family" in capsys.readouterr().err

    def test_divergent_run_exits_3_with_artifacts(self, tmp_path):
        rc = run("train", "--family", "mlp", "--target", "I_D", "--step-mv",
                 "50", "--epochs", "30", "--lr", "1e8", "--out-dir",
                 str(tmp_path))
        assert rc == 3
        assert (tmp_path / "checkpoint.txt").exists()
        assert (tmp_path / "trainlog.csv").exists()

    @pytest.mark.parametrize("extra", [
        ("--sweep", "-1"),
        ("--seed", "-1"),
        ("--epochs", "0"),
        ("--epochs", "-5"),
        ("--family", "kan", "--epochs", "4"),      # five ladder stages
        ("--family", "kan", "--ladder", "2,4", "--epochs", "1"),
        ("--family", "kan", "--arch", "nope"),
        ("--family", "kan", "--arch", "mlp1"),
        ("--family", "mlp", "--arch", "oracle"),
    ])
    def test_bad_flags_exit_2_before_writing(self, tmp_path, capsys, extra):
        out = tmp_path / "o"
        assert run(*self.flags(out), *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("extra", [
        ("--lr", "nan"),
        ("--lr", "0"),
        ("--lr", "inf"),
        ("--lr=-1",),
        ("--epochs", "1.5"),
        ("--sweep", "two"),
        ("--step-mv", "7"),
        ("--seed", "1e3"),
        ("--family", "kan", "--ladder", "0,2"),
        ("--family", "kan", "--ladder", "4,2"),
    ])
    def test_bad_numeric_flags_exit_2_before_writing(self, tmp_path, capsys,
                                                     extra):
        out = tmp_path / "o"
        assert run(*self.flags(out), *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("ladder", ["2,x", "", "2,,4.5"])
    def test_bad_ladder_flag_names_itself(self, tmp_path, capsys, ladder):
        """A ladder flag that does not parse says which flag and value,
        as the same value in ``[train]`` does."""
        out = tmp_path / "o"
        assert run(*self.flags(out, "--family", "kan", "--ladder",
                               ladder)) == 2
        assert capsys.readouterr().err == (
            f"error: bad value for --ladder: {ladder!r}\n")
        assert not out.exists()

    def test_config_numeric_values_are_checked(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nfamily = mlp\nlr = nan\n"
                       f"[run]\nout_dir = {tmp_path / 'o'}\n")
        assert run("train", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("error: lr must be")
        assert not (tmp_path / "o").exists()

    def test_config_unknown_target_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nfamily = mlp\ntarget = Q_X\n"
                       f"[run]\nout_dir = {tmp_path / 'o'}\n")
        assert run("train", "--config", str(cfg)) == 2
        assert capsys.readouterr().err.startswith("error: unknown target")
        assert not (tmp_path / "o").exists()

    def test_config_epochs_below_one_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.ini"
        cfg.write_text("[train]\nfamily = mlp\nepochs = 0\n"
                       f"[run]\nout_dir = {tmp_path / 'o'}\n")
        assert run("train", "--config", str(cfg)) == 2
        assert "epochs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_sweep_writes_all_replicas_and_table(self, tmp_path):
        assert run("train", "--family", "mlp", "--target", "Q_S",
                   "--step-mv", "50", "--epochs", "2", "--sweep", "3",
                   "--out-dir", str(tmp_path)) == 0
        for seed in (0, 1, 2):
            assert (tmp_path / f"checkpoint_seed{seed}.txt").exists()
            assert (tmp_path / f"trainlog_seed{seed}.csv").exists()
        table = read(tmp_path / "sweep.csv").strip().split("\n")
        assert table[0] == "seed,diverged,train_mape,test_mape,final_loss"
        assert len(table) == 1 + 3
        assert [ln.split(",")[0] for ln in table[1:]] == ["0", "1", "2"]


class TestEval:
    def test_oracle_checkpoint_scores_zero(self, tmp_path):
        """Evaluating a perfect-surrogate checkpoint reports zero error on
        both splits."""
        ck_path = oracle_checkpoint_file(tmp_path)
        out = tmp_path / "rep"
        assert run("eval", "--checkpoint", ck_path, "--out-dir",
                   str(out)) == 0
        lines = read(out / "summary.csv").strip().split("\n")
        assert len(lines) == 2
        target, step, seed, train_mape, test_mape = lines[1].split(",")[:5]
        assert (target, step, seed) == ("Q_D", "50", "0")
        assert float(train_mape) == 0.0
        assert float(test_mape) == 0.0
        assert (out / "sweep_0_Q_D_vd0.4.csv").exists()
        assert (out / "sweep_0_Q_D_vd0.8.csv").exists()

    def test_dataset_file_input_is_hashed(self, tmp_path):
        data = tmp_path / "g.csv"
        assert run("gen-data", "--step", "50", "--out", str(data)) == 0
        ck_path = oracle_checkpoint_file(tmp_path)
        out = tmp_path / "rep"
        assert run("eval", "--checkpoint", ck_path, "--data", str(data),
                   "--out-dir", str(out)) == 0
        manifest = json.loads(read(out / "manifest.json"))
        assert set(manifest["inputs"]) == {ck_path, str(data)}
        assert all(len(h) == 64 for h in manifest["inputs"].values())

    def test_checkpoint_without_kind_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ck.txt"
        lines = read(oracle_checkpoint_file(tmp_path)).split("\n")
        path.write_text("\n".join(ln for ln in lines if ln != "kind oracle"))
        assert run("eval", "--checkpoint", str(path), "--out-dir",
                   str(tmp_path / "rep")) == 2
        assert "'kind'" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", [
        lambda ls: ls[:50] + ls[150:],                       # points missing
        lambda ls: ls + [ls[7]],                             # point twice
        lambda ls: ls[:-1] + [ls[-1].rsplit(",", 1)[0]],     # column cut off
    ])
    def test_incomplete_dataset_file_exits_2(self, tmp_path, capsys, edit):
        data = tmp_path / "g.csv"
        assert run("gen-data", "--step", "50", "--out", str(data)) == 0
        header, *lines = read(data).splitlines()
        data.write_text("\n".join([header] + edit(lines)) + "\n")
        out = tmp_path / "rep"
        assert run("eval", "--checkpoint", oracle_checkpoint_file(tmp_path),
                   "--data", str(data), "--out-dir", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("arch,name,dims,n_values", [
        ("mlp1", "L0.W", "16 2", 32),       # transposed, same size
        ("kan1", "L0.w_b", "1 3", 3),       # a row short
        ("kan1", "L1.bias", "2", 2),        # one node too many
        ("kan1", "L1.coeffs", "3 2 19", 114),
        ("fkan1", "L0.cos", "2 8 8", 128),  # axes swapped, same size
    ])
    def test_array_of_wrong_shape_exits_2(self, tmp_path, capsys, arch, name,
                                          dims, n_values):
        """An array whose shape is not the one its spec implies is rejected
        at load time with a one-line message, by every command."""
        spec = networks.preset(arch, "Q_S")
        path = tmp_path / "ck.txt"
        networks.save_checkpoint(networks.Checkpoint(
            spec, networks.init_params(spec, seed=0),
            {"target": "Q_S", "seed": 0, "step_mv": 50}), path)
        lines = read(path).split("\n")
        at = next(k for k, ln in enumerate(lines)
                  if ln.startswith(f"array {name} "))
        lines[at] = f"array {name} {dims}"
        lines[at + 1] = " ".join(["0.5"] * n_values)
        path.write_text("\n".join(lines))
        commands = [("eval",)]
        if spec.kind == "kan":
            commands.append(("symbolic", "--mode", "posthoc"))
        for command in commands:
            out = tmp_path / command[0]
            assert run(*command, "--checkpoint", str(path), "--out-dir",
                       str(out)) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert name in err
            assert not out.exists()

    def test_missing_checkpoint_exits_2(self, tmp_path, capsys):
        assert run("eval", "--checkpoint", str(tmp_path / "no.txt"),
                   "--out-dir", str(tmp_path)) == 2
        assert "error" in capsys.readouterr().err

    def test_network_without_target_exits_2(self, tmp_path, capsys):
        """A network checkpoint with no ``meta target`` is neither scored
        as a current by eval nor fitted as a charge by symbolic."""
        spec = networks.preset("kan1", "Q_S")
        path = tmp_path / "ck.txt"
        networks.save_checkpoint(networks.Checkpoint(
            spec, networks.init_params(spec, seed=0),
            {"seed": 0, "step_mv": 50}), path)
        for command in ("eval", "symbolic"):
            out = tmp_path / command
            assert run(command, "--checkpoint", str(path), "--out-dir",
                       str(out)) == 2
            assert capsys.readouterr().err == \
                "error: checkpoint has no 'meta target' entry\n"
            assert not out.exists()

    def test_oracle_without_target_exits_2(self, tmp_path, capsys):
        path = tmp_path / "ck.txt"
        lines = read(oracle_checkpoint_file(tmp_path)).split("\n")
        path.write_text("\n".join(ln for ln in lines
                                  if not ln.startswith("meta target ")))
        for command, flag in (("eval", "--checkpoint"),
                              ("report", "--checkpoints"),
                              ("derivs", "--checkpoint")):
            out = tmp_path / command
            assert run(command, flag, str(path), "--out-dir", str(out)) == 2
            assert capsys.readouterr().err == \
                "error: checkpoint has no 'meta target' entry\n"
            assert not out.exists()

    def test_checkpoint_without_step_needs_the_flag(self, tmp_path, capsys):
        """With no ``meta step_mv`` the grid step is not guessed."""
        path = tmp_path / "ck.txt"
        lines = read(oracle_checkpoint_file(tmp_path)).split("\n")
        path.write_text("\n".join(ln for ln in lines
                                  if not ln.startswith("meta step_mv ")))
        out = tmp_path / "rep"
        assert run("eval", "--checkpoint", str(path), "--out-dir",
                   str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "--step" in err
        assert not out.exists()
        assert run("eval", "--checkpoint", str(path), "--step", "50",
                   "--out-dir", str(out)) == 0
        assert read(out / "summary.csv").split("\n")[1].startswith("Q_D,50,")

    def test_step_and_data_are_exclusive(self, tmp_path, capsys):
        """A dataset file and a step to regenerate one are two answers to
        one question; neither is dropped."""
        data = tmp_path / "g.csv"
        assert run("gen-data", "--step", "20", "--out", str(data)) == 0
        capsys.readouterr()
        out = tmp_path / "rep"
        assert run("eval", "--checkpoint", oracle_checkpoint_file(tmp_path),
                   "--step", "50", "--data", str(data), "--out-dir",
                   str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "--step" in err and "--data" in err
        assert not out.exists()


class TestDerivs:
    def test_default_biases_give_two_files(self, tmp_path):
        ck_path = oracle_checkpoint_file(tmp_path)
        out = tmp_path / "d"
        assert run("derivs", "--checkpoint", ck_path, "--out-dir",
                   str(out)) == 0
        for name in ("deriv_vd0.4.csv", "deriv_vd0.8.csv"):
            lines = read(out / name).strip().split("\n")
            assert lines[0] == "V_G,first,second"
            assert len(lines) == 1 + 821

    def test_custom_bias_list(self, tmp_path):
        ck_path = oracle_checkpoint_file(tmp_path)
        out = tmp_path / "d"
        assert run("derivs", "--checkpoint", ck_path, "--vd", "0.3",
                   "--out-dir", str(out)) == 0
        assert (out / "deriv_vd0.3.csv").exists()
        assert not (out / "deriv_vd0.4.csv").exists()

    @pytest.mark.parametrize("bad", ["nan", "inf", "5", "-0.01", "0.83"])
    def test_bias_outside_the_grid_exits_2_and_writes_nothing(
            self, tmp_path, capsys, bad):
        """Each drain bias must be finite and in [0, V_MAX]; one bad value
        among good ones rejects the whole command before any file exists."""
        ck_path = oracle_checkpoint_file(tmp_path)
        out = tmp_path / "d"
        assert run("derivs", "--checkpoint", ck_path, "--vd", "0.3", bad,
                   "--out-dir", str(out)) == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --vd")
        assert not out.exists()

    def test_bias_at_both_ends_of_the_grid(self, tmp_path):
        ck_path = oracle_checkpoint_file(tmp_path)
        out = tmp_path / "d"
        assert run("derivs", "--checkpoint", ck_path, "--vd", "0", "0.82",
                   "--out-dir", str(out)) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "deriv_vd0.82.csv", "deriv_vd0.csv", "manifest.json"]


class TestSymbolic:
    def test_iterative_round_log(self, tmp_path):
        """Six edges pinned two at a time leave a three-round log plus the
        rendered formula."""
        ck_path = trained_kan_checkpoint_file(tmp_path)
        out = tmp_path / "sr"
        assert run("symbolic", "--checkpoint", ck_path, "--mode",
                   "iterative", "--k", "2", "--retrain-epochs", "2",
                   "--out-dir", str(out)) == 0
        rounds = read(out / "rounds.csv").strip().split("\n")
        assert rounds[0] == "round,edges,train_mape,retrain_epochs,diverged"
        assert len(rounds) == 1 + 3
        assert [ln.split(",")[0] for ln in rounds[1:]] == ["1", "2", "3"]
        assert all(len(ln.split(",")[1].split(";")) == 2
                   for ln in rounds[1:])
        text = read(out / "formula.txt").strip()
        assert "V_D" in text or "V_G" in text
        blob = json.loads(read(out / "formula.json"))
        assert blob["text"] == text
        assert np.isfinite(blob["train_mape"])
        assert blob["tree"]["op"] in ("add", "mul", "call", "pow", "num",
                                      "var")

    def test_posthoc_is_single_round(self, tmp_path):
        ck_path = trained_kan_checkpoint_file(tmp_path)
        out = tmp_path / "sr"
        assert run("symbolic", "--checkpoint", ck_path, "--mode", "posthoc",
                   "--out-dir", str(out)) == 0
        rounds = read(out / "rounds.csv").strip().split("\n")
        assert len(rounds) == 1 + 1

    def test_formula_text_evaluates_as_written(self, tmp_path):
        """formula.txt, read as a numpy expression, is the scored tree:
        it matches the tree on the 20 mV test split within 1e-12."""
        ck_path = trained_kan_checkpoint_file(tmp_path)
        out = tmp_path / "sr"
        assert run("symbolic", "--checkpoint", ck_path, "--mode", "posthoc",
                   "--step", "20", "--out-dir", str(out)) == 0
        text = read(out / "formula.txt").strip()
        model, _ = symbolic.posthoc_sr(networks.load_checkpoint(ck_path),
                                       device.generate_dataset(20))
        assert text == model.text
        xy = device.generate_dataset(20).test_inputs()
        names = {"exp": np.exp, "log": np.log, "sin": np.sin, "cos": np.cos,
                 "tan": np.tan, "tanh": np.tanh, "atan": np.arctan,
                 "abs": np.abs, "sign": np.sign}
        with np.errstate(all="ignore"):
            written = eval(text.replace("^", "**"),
                           {**names, "V_D": xy[:, 0], "V_G": xy[:, 1]})
        assert_allclose(written, model.eval(xy[:, 0], xy[:, 1]),
                        rtol=1e-12, atol=0)
        assert json.loads(read(out / "formula.json"))["nonfinite_points"] == 0

    def test_pole_inside_the_box_is_reported(self, tmp_path, capsys):
        """An edge pinned to 1/x with its pole at V_D = 0.5 V makes the
        formula infinite on that master-grid row: formula.json stays strict
        JSON, with null errors beside the count of points, stderr says so in
        one line, and the exit code stays 0."""
        spec = networks.NetworkSpec("kan", (2, 1), "charge-scale", grid=4)
        params = networks.init_params(spec, seed=0, grid_size=4)
        slope = 1.0 / device.V_MAX    # the tree's slope on raw volts
        params = symbolic.fix_edge(params, (0, 0, 0), symbolic.EdgeFit(
            "1/x", 1.0, -0.5 * slope, 1.0, 0.0, 1.0))
        path = tmp_path / "pole.txt"
        networks.save_checkpoint(networks.Checkpoint(
            spec, params, {"target": "Q_S", "seed": 0, "step_mv": 50}), path)
        out = tmp_path / "sr"
        assert run("symbolic", "--checkpoint", str(path), "--mode", "posthoc",
                   "--out-dir", str(out)) == 0
        n_axis = device.generate_dataset(50).vg_axis.size

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        blob = json.loads(read(out / "formula.json"), parse_constant=reject)
        assert blob["nonfinite_points"] == n_axis
        assert blob["train_mape"] is None and blob["test_mape"] is None
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert f"not finite at {n_axis} points" in err

    def test_nan_constant_is_null(self, tmp_path, capsys):
        """An edge whose samples overflow to both +inf and -inf gets a nan
        offset, so the formula has a nan constant: formula.json writes it
        as null and stays strict JSON, and stderr reports the non-finite
        points."""
        spec = networks.NetworkSpec("kan", (2, 1), "charge-scale", grid=4)
        params = networks.init_params(spec, seed=0, grid_size=4)
        params.layers[0].coeffs[0, 0] = 1e308 * (-1.0) ** np.arange(7)
        params.layers[0].w_s[0, 0] = 1e10
        path = tmp_path / "nan.txt"
        networks.save_checkpoint(networks.Checkpoint(
            spec, params, {"target": "Q_S", "seed": 0, "step_mv": 50}), path)
        out = tmp_path / "sr"
        assert run("symbolic", "--checkpoint", str(path), "--mode", "posthoc",
                   "--out-dir", str(out)) == 0
        assert "nan" in read(out / "formula.txt")

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = read(out / "formula.json")
        blob = json.loads(text, parse_constant=reject)
        assert '"value": null' in text
        assert blob["train_mape"] is None and blob["nonfinite_points"] > 0
        assert "not finite" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        ("--retrain-epochs", "-5"),
        ("--retrain-epochs", "0"),
        ("--lr", "nan"),
        ("--lr", "inf"),
        ("--lr", "-1"),
    ])
    def test_bad_numeric_flags_exit_2_before_writing(self, tmp_path, capsys,
                                                     extra):
        ck_path = oracle_checkpoint_file(tmp_path)
        out = tmp_path / "sr"
        assert run("symbolic", "--checkpoint", ck_path, "--out-dir", str(out),
                   *extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert extra[0] in err
        assert not out.exists()

    def test_dense_network_checkpoint_rejected(self, tmp_path, capsys):
        spec = networks.preset("mlp1", "Q_S")
        ck = networks.Checkpoint(spec, networks.init_params(spec, 0),
                                 {"target": "Q_S", "step_mv": 50})
        path = tmp_path / "mlp.txt"
        networks.save_checkpoint(ck, path)
        assert run("symbolic", "--checkpoint", str(path), "--out-dir",
                   str(tmp_path)) == 2
        assert "error" in capsys.readouterr().err


class TestReport:
    def test_multi_checkpoint_summary(self, tmp_path):
        a = oracle_checkpoint_file(tmp_path, "Q_D", "a.txt")
        b = oracle_checkpoint_file(tmp_path, "I_D", "b.txt")
        out = tmp_path / "rep"
        assert run("report", "--checkpoints", a, b, "--out-dir",
                   str(out)) == 0
        lines = read(out / "summary.csv").strip().split("\n")
        assert len(lines) == 3
        assert lines[1].startswith("Q_D,50,")
        assert lines[2].startswith("I_D,50,")
        manifest = json.loads(read(out / "manifest.json"))
        assert "sweep_1_I_D_vd0.8.csv" in manifest["outputs"]

    @pytest.mark.parametrize("steps,named", [
        ((50, 20), "50 mV, 20 mV"),
        ((50, None), "50 mV, none"),
    ])
    def test_checkpoints_of_different_steps_need_the_flag(
            self, tmp_path, capsys, steps, named):
        """Checkpoints trained on different grids are not all scored on
        the first one's split."""
        paths = [oracle_checkpoint_file(tmp_path, "Q_S", f"{k}.txt", step)
                 for k, step in enumerate(steps)]
        if steps[1] is None:
            lines = read(paths[1]).split("\n")
            with open(paths[1], "w") as fh:
                fh.write("\n".join(ln for ln in lines
                                   if not ln.startswith("meta step_mv ")))
        out = tmp_path / "rep"
        assert run("report", "--checkpoints", *paths, "--out-dir",
                   str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: the checkpoints were trained at different steps "
            f"({named}); pass --step\n")
        assert not out.exists()
        assert run("report", "--checkpoints", *paths, "--step", "50",
                   "--out-dir", str(out)) == 0
        rows = read(out / "summary.csv").strip().split("\n")[1:]
        assert [r.split(",")[1] for r in rows] == ["50", "50"]
