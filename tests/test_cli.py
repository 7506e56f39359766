"""Command-line surface: exit codes, flag/config precedence, file outputs."""
import json

import numpy as np
import pytest

from devdan import cli, kernel, step_backend
from devdan.checkpoint import load_checkpoint, save_checkpoint, state_hash
from devdan.cli import EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, main
from devdan.errors import CheckpointError
from devdan.model import DevdanConfig, DevdanModel
from devdan.prequential import parameter_count, run_single
from devdan.streams import PAIRS, DatasetSpec


def run_cli(*argv):
    return main(list(argv))


class TestRun:
    def test_smoke_writes_csvs_and_summary(self, tmp_path):
        code = run_cli(
            "run", "--dataset", "sea", "--samples", "3000", "--batch", "1000",
            "--seeds", "2", "--out", str(tmp_path), "--prefix", "smoke",
        )
        assert code == EXIT_OK
        assert (tmp_path / "smoke_seed0.csv").exists()
        assert (tmp_path / "smoke_seed1.csv").exists()
        doc = json.loads((tmp_path / "smoke_summary.json").read_text())
        assert doc["summary"]["default"]["runs"] == 2
        assert doc["effective_config"]["dataset"] == "sea"
        assert [r["step"] for r in doc["runs"]] == [step_backend()] * 2

    def test_summary_records_the_step_of_each_worker(self, tmp_path, monkeypatch):
        """Each run entry names the training step of the process that trained
        it: here --jobs workers whose kernel build fails, for want of the
        compiler, as in test_missing_compiler_falls_back_to_numpy."""
        monkeypatch.setattr(kernel, "_state", None)
        monkeypatch.setattr(kernel, "COMPILER", str(tmp_path / "no-such-cc"))
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        code = run_cli(
            "run", "--dataset", "sea", "--samples", "1000", "--batch", "500",
            "--seeds", "2", "--jobs", "2", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "run_summary.json").read_text())
        assert [r["step"].startswith("numpy (build failed") for r in doc["runs"]] == [True] * 2
        assert kernel._state is None  # the workers' loads, not this process's

    def test_summary_key_order(self, tmp_path):
        code = run_cli(
            "run", "--dataset", "sea", "--samples", "1000", "--batch", "500",
            "--seeds", "1", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "run_summary.json").read_text())
        assert list(doc) == ["dataset", "configs", "seeds", "summary", "runs", "effective_config"]
        assert doc["effective_config"]["samples"] == 1000

    def test_no_generative_flag(self, tmp_path):
        code = run_cli(
            "run", "--dataset", "sea", "--samples", "2000", "--batch", "1000",
            "--seeds", "1", "--no-generative", "--out", str(tmp_path),
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "run_summary.json").read_text())
        assert doc["configs"]["default"]["enable_generative"] is False
        assert doc["effective_config"]["no_generative"] is True

    def test_reset_all_flag(self, tmp_path):
        """The retired variant: the flag is unknown and so is the file key."""
        with pytest.raises(SystemExit) as exit_info:
            run_cli("run", "--reset-all", "--out", str(tmp_path))
        assert exit_info.value.code == EXIT_CONFIG
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"reset_all": True}))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
        assert not list(tmp_path.glob("*.csv"))

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps({"dataset": "sea", "samples": 2000, "batch": 1000, "seeds": 1}))
        code = run_cli(
            "run", "--config", str(cfg), "--samples", "3000",
            "--out", str(tmp_path), "--prefix", "ov",
        )
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "ov_summary.json").read_text())
        assert doc["effective_config"]["samples"] == 3000  # flag wins
        assert doc["effective_config"]["batch"] == 1000    # file value kept

    def test_unknown_config_key_rejected(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"dataset": "sea", "bogus_knob": 7}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG

    @pytest.mark.parametrize("doc, message", [
        ({"lr_generative": None}, "lr_generative is null, expected a number"),
        ({"jobs": "two"}, 'jobs is "two", expected an integer'),
        ({"samples": True}, "samples is true, expected an integer"),
        ({"prefix": 5}, "prefix is 5, expected a string"),
        ({"no_grow": "no"}, 'no_grow is "no", expected true or false'),
        ({"selection": "best"}, 'selection is "best", expected one of random, confidence'),
        ({"seeds": 2.0}, "seeds is 2.0, expected a positive seed count or a non-empty list of "
                         "non-negative seeds"),
        ({"permutations": [[0]]}, f"permutations is [[0]], expected {PAIRS.of}"),
        ({"samples": 2000, "batch": 1000, "seeds": 1, "permutations": []},
         f"permutations is [], expected {PAIRS.of}"),
    ])
    def test_value_that_does_not_convert_is_config_error(self, tmp_path, capsys, doc, message):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(doc))
        assert run_cli("run", "--config", str(cfg), "--out", str(tmp_path)) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert [path.name for path in tmp_path.iterdir()] == ["bad.json"]

    @pytest.mark.parametrize("argv", [("run", "--samples", "1000", "--batch", "500"),
                                      ("gen", "sea", "10")])
    def test_env_seed_that_is_not_an_integer(self, tmp_path, monkeypatch, capsys, argv):
        monkeypatch.setenv("DEVDAN_SEED", "abc")
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
        expected = 'config error: DEVDAN_SEED is "abc", expected a non-negative integer\n'
        assert capsys.readouterr().err == expected

    @pytest.mark.parametrize("argv, env, message", [
        (("gen", "sea", "5", "--seed", "-1"), None, "seed is -1, expected a non-negative integer"),
        (("run", "--seed-base", "-3"), None, "seed_base is -3, expected a non-negative integer"),
        (("run",), "-3", 'DEVDAN_SEED is "-3", expected a non-negative integer'),
        (("run", "--seeds", "0"), None, "seeds is 0, expected a positive seed count or a "
                                        "non-empty list of non-negative seeds"),
        (("gen", "sea", "-5"), None, "count is -5, expected a positive integer"),
        (("gen", "hyperplane", "0"), None, "count is 0, expected a positive integer"),
        (("run", "--samples", "500", "--batch", "1000"), None,
         "total_samples is 500, expected at least batch_size (1000)"),
        (("run", "--samples", "2000", "--batch", "500", "--seeds", "1", "--jobs", "0"), None,
         "jobs is 0, expected a positive integer"),
        (("run", "--samples", "2000", "--batch", "500", "--seeds", "1", "--selection",
          "confidence", "--label-fraction", "0.5", "--delta", "nan"), None,
         "delta is nan, expected a finite number above 0.5"),
    ])
    def test_bad_seed_is_config_error(self, tmp_path, monkeypatch, capsys, argv, env, message):
        """A seed numpy refuses, a seed count that trains nothing, a gen row
        count that writes none, a stream shorter than one batch, a job count
        below 1 or a confidence threshold that reveals no label exits 2
        naming the setting, before anything is written."""
        if env is not None:
            monkeypatch.setenv("DEVDAN_SEED", env)
        assert run_cli(*argv, "--out", str(tmp_path / "out")) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "out").exists()

    def test_file_with_no_whole_batch_fails_each_seed(self, tmp_path, capsys):
        """A CSV file shorter than one batch fails every seed with a
        ConfigError naming its row count and the batch size; the summary
        records each failure and the run exits 1."""
        path = tmp_path / "two.csv"
        path.write_text("a,b,label\n0.1,0.2,0\n0.3,0.4,1\n")
        code = run_cli("run", "--dataset", "csv", "--csv-path", str(path), "--batch", "10",
                       "--seeds", "2", "--out", str(tmp_path / "out"))
        assert code == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.count("ConfigError: the csv source holds 2 rows, fewer than "
                         "batch_size (10)") == 2
        doc = json.loads((tmp_path / "out" / "run_summary.json").read_text())
        assert doc["summary"]["default"]["failures"] == 2

    def test_run_options_are_the_settings_flags(self):
        """The config-file keys, in summary order, and `devdan run`'s
        options: --config and a flag for every key but permutations, each
        reading its text as its kind's type, with the choices it names; the
        no_* flags take no value."""
        assert list(cli.SETTINGS) == [
            "dataset", "samples", "batch", "seeds", "seed_base", "label_fraction", "selection",
            "delta", "lr_generative", "lr_discriminative", "momentum", "mask_fraction",
            "no_generative", "no_grow", "no_prune", "csv_path", "label_column", "idx_images",
            "idx_labels", "permutations", "out", "prefix", "checkpoint_out", "jobs"]
        run = cli.build_parser()._subparsers._group_actions[0].choices["run"]
        options = [(a.option_strings, a.type.__name__ if a.type else "str", a.choices, a.const)
                   for a in run._actions]
        text, integer, number = ("str", None, None), ("int", None, None), ("float", None, None)
        switch = ("str", None, True)
        assert options == [
            (["-h", "--help"], *text), (["--config"], *text),
            (["--dataset"], "str", ("sea", "hyperplane", "csv", "idx"), None),
            (["--samples"], *integer), (["--batch"], *integer), (["--seeds"], *integer),
            (["--seed-base"], *integer), (["--label-fraction"], *number),
            (["--selection"], "str", ("random", "confidence"), None), (["--delta"], *number),
            (["--lr-generative"], *number), (["--lr-discriminative"], *number),
            (["--momentum"], *number), (["--mask-fraction"], *number),
            (["--no-generative"], *switch), (["--no-grow"], *switch), (["--no-prune"], *switch),
            (["--csv-path"], *text), (["--label-column"], *integer), (["--idx-images"], *text),
            (["--idx-labels"], *text), (["--out"], *text), (["--prefix"], *text),
            (["--checkpoint-out"], *text), (["--jobs"], *integer),
        ]

    def test_invalid_dataset_in_config(self, tmp_path):
        cfg = tmp_path / "bad2.json"
        cfg.write_text(json.dumps({"dataset": "parquet"}))
        assert run_cli("run", "--config", str(cfg)) == EXIT_CONFIG

    def test_missing_csv_path_is_config_error(self, tmp_path):
        assert (
            run_cli("run", "--dataset", "csv", "--out", str(tmp_path))
            == EXIT_CONFIG
        )

    def test_permutation_schedule_from_config(self, tmp_path):
        cfg = tmp_path / "perm.json"
        cfg.write_text(json.dumps({
            "dataset": "sea", "samples": 2000, "batch": 1000, "seeds": 1,
            "permutations": [[0, [0, 1, 2]], [1000, [2, 0, 1]]],
        }))
        code = run_cli("run", "--config", str(cfg), "--out", str(tmp_path), "--prefix", "p")
        assert code == EXIT_OK
        doc = json.loads((tmp_path / "p_summary.json").read_text())
        assert doc["dataset"]["permutations"][1][0] == 1000

    def test_checkpoint_out(self, tmp_path):
        code = run_cli(
            "run", "--dataset", "sea", "--samples", "2000", "--batch", "1000",
            "--seeds", "1", "--out", str(tmp_path),
            "--checkpoint-out", str(tmp_path / "ck"),
        )
        assert code == EXIT_OK
        assert (tmp_path / "ck" / "run_seed0.ckpt.json").exists()

    def test_checkpoints_are_the_suite_final_models(self, tmp_path):
        code = run_cli(
            "run", "--dataset", "sea", "--samples", "2000", "--batch", "1000",
            "--seeds", "2", "--seed-base", "5", "--jobs", "2", "--out", str(tmp_path),
            "--checkpoint-out", str(tmp_path / "ck"),
        )
        assert code == EXIT_OK
        dataset = DatasetSpec(source="sea", total_samples=2000, batch_size=1000)
        for seed in (5, 6):
            saved = load_checkpoint(tmp_path / "ck" / f"run_seed{seed}.ckpt.json")
            _, model = run_single(dataset, DevdanConfig(), seed)
            assert saved.config.seed == model.config.seed == seed
            assert state_hash(saved) == state_hash(model)


class TestGen:
    def test_sea_columns_and_labels(self, tmp_path):
        out = tmp_path / "sea.csv"
        assert run_cli("gen", "sea", "500", "--seed", "7", "--out", str(out)) == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "f0,f1,f2,label"
        assert len(lines) == 501
        labels = {line.rsplit(",", 1)[1] for line in lines[1:]}
        assert labels <= {"0", "1"}

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli("gen", "hyperplane", "300", "--seed", "3", "--out", str(a))
        run_cli("gen", "hyperplane", "300", "--seed", "3", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("DEVDAN_SEED", "11")
        run_cli("gen", "sea", "100", "--out", str(a))
        run_cli("gen", "sea", "100", "--seed", "11", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()


class TestInspect:
    def test_fresh_model_summary(self, tmp_path, capsys):
        model = DevdanModel(3, 2, DevdanConfig(seed=0))
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(model, path)
        assert run_cli("inspect", str(path)) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["hidden_nodes"] == 1
        assert doc["parameter_count"] == parameter_count(model)
        assert doc["monitors"]["generative_bias"]["count"] == 0

    def test_inspect_after_training_matches_memory(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        model = DevdanModel(3, 2, DevdanConfig(seed=1))
        for _ in range(200):
            x = rng.uniform(size=3)
            model.generative_step(x)
            model.discriminative_step(x, int(rng.integers(2)))
        path = tmp_path / "t.ckpt.json"
        save_checkpoint(model, path)
        assert run_cli("inspect", str(path)) == EXIT_OK
        doc = json.loads(capsys.readouterr().out)
        assert doc["hidden_nodes"] == model.width
        assert doc["parameter_count"] == parameter_count(model)

    def test_truncated_checkpoint_exit_one(self, tmp_path):
        model = DevdanModel(3, 2, DevdanConfig(seed=2))
        path = tmp_path / "x.ckpt.json"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:100])
        assert run_cli("inspect", str(path)) == EXIT_RUNTIME

    REFUSED = {  # what a model refuses -> (the edit of a checkpoint, the refusal)
        "config": (lambda doc: doc["config"].update(mask_fraction=1.5),
                   "mask_fraction is 1.5, expected a number in [0, 1]"),
        "n_in": (lambda doc: doc.update(n_in=0),
                 "n_in is 0, expected a positive integer"),
        "rng_state": (lambda doc: doc["rng_state"].update(bit_generator="RandomState"),
                      'rng_state.bit_generator is "RandomState", expected one of PCG64, '
                      "PCG64DXSM, MT19937, Philox, SFC64"),
    }

    @pytest.mark.parametrize("refused", list(REFUSED))
    def test_checkpoint_no_model_can_take_exit_one(self, tmp_path, capsys, refused):
        """A checkpoint whose config, size or generator a model refuses is a
        CheckpointError naming the file, and inspect exits 1 with it."""
        edit, message = self.REFUSED[refused]
        path = tmp_path / "m.ckpt.json"
        save_checkpoint(DevdanModel(3, 2), path)
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError) as info:
            load_checkpoint(path)
        assert str(info.value) == f"{path}: {message}"
        assert run_cli("inspect", str(path)) == EXIT_RUNTIME
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    def test_missing_file_exit_one(self, tmp_path):
        assert run_cli("inspect", str(tmp_path / "nope.json")) == EXIT_RUNTIME
