"""Configuration parsing, run identity hashing, and the command line."""

import json
import sys

import numpy as np
import pytest

from test_checkpoint import set_flag_bits
from hdkg.cli import main
from hdkg.config import (
    HASH_EXCLUDED,
    RunConfig,
    build_config,
    canonical_text,
    config_hash,
    load_preset,
    parse_config_text,
    validate,
)
from hdkg.errors import ConfigError
from hdkg.ranking import METRICS_CSV_FIELDS

TRAIN = ("a\tr0\tb\nb\tr0\tc\nc\tr1\ta\na\tr1\tc\nb\tr1\ta\nc\tr0\tb\n"
         "a\tr0\tc\nb\tr0\ta\n")
VALID = "a\tr1\tb\n"
TEST = "c\tr1\tb\n"


@pytest.fixture()
def dataset_dir(tmp_path):
    data = tmp_path / "data"
    data.mkdir()
    (data / "train.txt").write_text(TRAIN)
    (data / "valid.txt").write_text(VALID)
    (data / "test.txt").write_text(TEST)
    return data


class TestParseConfigText:
    def test_values_comments_and_blanks(self):
        text = "\n# full line comment\n d = 32   # trailing\nmode=hardware\n"
        assert parse_config_text(text) == {"d": "32", "mode": "hardware"}

    def test_unknown_key_reports_source_line(self):
        with pytest.raises(ConfigError, match=r"my.cfg:2: unknown key 'dee'"):
            parse_config_text("d = 8\ndee = 9\n", source="my.cfg")

    def test_missing_equals(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("just words\n")


class TestBuildConfig:
    def test_coercion(self):
        cfg = build_config(overrides={"d": "16", "lr": "0.5",
                                      "reciprocal": "off", "adaptive": "yes"})
        assert cfg.d == 16 and cfg.lr == 0.5
        assert cfg.reciprocal is False and cfg.adaptive is True

    def test_bad_boolean(self):
        with pytest.raises(ConfigError, match="expected a boolean"):
            build_config(overrides={"filtered": "maybe"})

    def test_bad_integer(self):
        with pytest.raises(ConfigError, match="epochs"):
            build_config(overrides={"epochs": "three"})

    @pytest.mark.parametrize("lr", ["inf", "-inf", "nan"])
    def test_non_finite_lr(self, lr):
        with pytest.raises(ConfigError, match="lr must be positive and finite"):
            build_config(overrides={"lr": lr})

    def test_only_the_neg_score_sign(self):
        assert build_config(overrides={"score_sign": "neg"}).score_sign == "neg"
        with pytest.raises(ConfigError, match="score_sign must be neg"):
            build_config(overrides={"score_sign": "pos"})

    def test_only_the_tanh_activation(self):
        assert build_config(overrides={"activation": "tanh"}).activation == "tanh"
        with pytest.raises(ConfigError, match="activation must be tanh"):
            build_config(overrides={"activation": "identity"})

    def test_fixed_point_width_bounded(self):
        assert build_config(overrides={"fix_bits": "64"}).fix_bits == 64
        with pytest.raises(ConfigError, match=r"fix_bits 65, .*\[2, 64\]"):
            build_config(overrides={"fix_bits": "65"})

    def test_none_overrides_are_skipped(self):
        cfg = build_config(overrides={"d": None, "D": "64"})
        assert cfg.d == RunConfig().d and cfg.D == 64

    def test_precedence_preset_then_file_then_override(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("d = 32\nepochs = 7\n")
        cfg = build_config(preset="fb15k237", config_path=path,
                           overrides={"epochs": "3"})
        assert cfg.d == 32          # file beats preset (preset says 128)
        assert cfg.epochs == 3      # override beats file
        assert cfg.batch_size == 128  # preset value survives untouched

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            build_config(config_path=tmp_path / "absent.cfg")

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            build_config(preset="v100")

    def test_packaged_presets_validate(self):
        for name in ("fb15k237", "u50", "u280"):
            build_config(preset=name)  # validate() runs inside

    def test_presets_load_without_a_presets_package(self, monkeypatch):
        # ``presets`` has no __init__.py; a zipped install cannot import it
        # as a namespace package, so loading must go through ``hdkg``.
        monkeypatch.setitem(sys.modules, "hdkg.presets", None)
        for name in ("fb15k237", "u50", "u280"):
            assert load_preset(name)
        with pytest.raises(ConfigError, match="unknown preset 'v100'"):
            load_preset("v100")

    def test_preset_fb15k237_pins_model_shape(self):
        values = load_preset("fb15k237")
        assert values["d"] == "128" and values["D"] == "256"
        assert values["epochs"] == "50"


class TestValidate:
    def base(self, **kwargs):
        cfg = RunConfig()
        for key, value in kwargs.items():
            setattr(cfg, key, value)
        return cfg

    @pytest.mark.parametrize("field,value,message", [
        ("mode", "quantum", "mode must be"),
        ("drop_frac", 1.0, "drop_frac"),
        ("frac_bits", 8, "frac_bits out of range"),
        ("sweep_capacities", "32,zero", "bad sweep capacity"),
        ("sweep_policies", "lru,mru", "bad sweep policy"),
        ("drop_strategy", "low", "drop strategy"),
        ("lr", 0.0, "lr must be positive"),
        ("lr", float("inf"), "lr must be positive and finite"),
        ("score_sign", "pos", "score_sign must be neg"),
        ("dtype", "float16", "dtype"),
        ("fix_bits", 1, "total_bits must lie in"),
        ("metric", "dot", "unknown metric"),
        ("cache_policy", "mru", "unknown cache policy"),
    ])
    def test_rejections(self, field, value, message):
        with pytest.raises(ConfigError, match=message):
            validate(self.base(**{field: value}))


class TestRunIdentity:
    def test_path_fields_do_not_change_the_hash(self):
        a = RunConfig()
        b = RunConfig(dataset="/x/data", out_dir="/y/out", checkpoint="/z.hdck")
        assert config_hash(a) == config_hash(b)
        for name in HASH_EXCLUDED:
            assert f"{name}=" not in canonical_text(a)

    def test_computation_fields_do_change_it(self):
        assert config_hash(RunConfig()) != config_hash(RunConfig(d=32))
        assert config_hash(RunConfig()) != config_hash(RunConfig(seed=1))

    def test_canonical_text_is_sorted_and_boolean_lowercase(self):
        lines = canonical_text(RunConfig()).splitlines()
        assert lines == sorted(lines)
        assert "reciprocal=true" in lines
        assert "adaptive=false" in lines


def run_cli(*argv):
    return main(list(argv))


class TestCliIngest:
    def test_writes_cache_and_stats(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        assert run_cli("ingest", "--dataset", str(dataset_dir),
                       "--out-dir", str(out)) == 0
        assert (out / "dataset.hdkg").exists()
        stats = json.loads((out / "dataset_stats.json").read_text())
        assert stats["n_entities"] == 3 and stats["n_relations"] == 2
        assert stats["n_train"] == 8

    def test_cache_roundtrips_through_cli(self, dataset_dir, tmp_path):
        out = tmp_path / "out"
        run_cli("ingest", "--dataset", str(dataset_dir), "--out-dir", str(out))
        out2 = tmp_path / "out2"
        assert run_cli("ingest", "--dataset", str(out / "dataset.hdkg"),
                       "--out-dir", str(out2)) == 0

    def test_missing_dataset_is_exit_3(self, tmp_path, capsys):
        assert run_cli("ingest", "--dataset", str(tmp_path / "none"),
                       "--out-dir", str(tmp_path)) == 3
        assert "data error" in capsys.readouterr().err

    def test_triples_not_utf8_are_exit_3(self, dataset_dir, tmp_path, capsys):
        (dataset_dir / "test.txt").write_bytes(TEST.encode() + b"\xff\xfe\n")
        assert run_cli("ingest", "--dataset", str(dataset_dir),
                       "--out-dir", str(tmp_path / "out")) == 3
        err = capsys.readouterr().err
        assert "data error" in err and "test.txt:2: not valid UTF-8" in err

    @pytest.mark.parametrize("corrupt", [
        lambda blob: blob.replace(b"\x01\x00\x00\x00a", b"\x01\x00\x00\x00\xff"),
        lambda blob: blob + b"\x00",
        lambda blob: blob[:28] + (2 ** 62).to_bytes(8, "little") + blob[36:],
    ], ids=["name-not-utf8", "trailing-bytes", "train-count-overflows"])
    def test_corrupt_cache_is_exit_3(self, dataset_dir, tmp_path, capsys, corrupt):
        out = tmp_path / "out"
        run_cli("ingest", "--dataset", str(dataset_dir), "--out-dir", str(out))
        cache = out / "dataset.hdkg"
        blob = cache.read_bytes()
        cache.write_bytes(corrupt(blob))
        assert cache.read_bytes() != blob
        assert run_cli("ingest", "--dataset", str(cache),
                       "--out-dir", str(tmp_path / "out2")) == 3
        assert "data error" in capsys.readouterr().err

    def test_no_dataset_is_exit_2(self, tmp_path, capsys):
        assert run_cli("ingest", "--out-dir", str(tmp_path)) == 2
        assert "configuration error" in capsys.readouterr().err


TRAIN_ARGS = ("--d", "4", "--D", "16", "--epochs", "2", "--batch-size", "8",
              "--chunk-T", "3", "--lr", "0.1", "--seed", "3")


@pytest.fixture()
def trained_dir(dataset_dir, tmp_path):
    out = tmp_path / "run"
    code = run_cli("train", "--dataset", str(dataset_dir),
                   "--out-dir", str(out), *TRAIN_ARGS)
    assert code == 0
    return out


class TestCliTrain:
    def test_infinite_lr_is_exit_2(self, dataset_dir, tmp_path, capsys):
        assert run_cli("train", "--dataset", str(dataset_dir),
                       "--out-dir", str(tmp_path), "--lr", "inf") == 2
        assert "lr must be positive and finite" in capsys.readouterr().err
        assert not (tmp_path / "model.hdck").exists()

    def test_base_matrix_the_checkpoint_rejects_is_exit_2(self, dataset_dir, tmp_path,
                                                          capsys):
        assert run_cli("train", "--dataset", str(dataset_dir), "--out-dir", str(tmp_path),
                       "--d", "64", "--D", "270000", "--epochs", "0") == 2
        assert "base matrix 64 x 270000 exceeds" in capsys.readouterr().err
        assert not (tmp_path / "model.hdck").exists()

    def test_overflowing_lr_stops_at_the_step_that_overflows(self, dataset_dir,
                                                             tmp_path, capsys):
        # One step at lr 1e308 overflows the embeddings; the step itself
        # raises, before any refresh or score reads them.
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("train", "--dataset", str(dataset_dir),
                           "--out-dir", str(tmp_path), *TRAIN_ARGS[:6], "--seed", "3",
                           "--batch-size", "1", "--lr", "1e308")
        assert code == 4
        assert "non-finite value in e_r after the update" in capsys.readouterr().err
        assert not (tmp_path / "model.hdck").exists()

    def test_overflow_in_the_last_step_writes_no_checkpoint(self, tmp_path, capsys):
        # One batch per epoch: no later score would see the overflow, and the
        # checkpoint loader would reject the file.
        data = tmp_path / "data"
        data.mkdir()
        (data / "train.txt").write_text("a\tknows\tb\n")
        (data / "valid.txt").write_text("b\tknows\tc\n")
        (data / "test.txt").write_text("c\tknows\ta\n")
        out = tmp_path / "out"
        with np.errstate(over="ignore", invalid="ignore"):
            code = run_cli("train", "--dataset", str(data), "--out-dir", str(out),
                           "--run-preset", "fb15k237", "--d", "8", "--D", "32",
                           "--epochs", "1", "--lr", "1.7e308")
        assert code == 4
        assert "non-finite value in e_r after the update" in capsys.readouterr().err
        assert not (out / "model.hdck").exists()

    def test_identity_activation_is_exit_2(self, dataset_dir, tmp_path, capsys):
        assert run_cli("train", "--dataset", str(dataset_dir),
                       "--out-dir", str(tmp_path), "--activation", "identity") == 2
        assert "activation must be tanh" in capsys.readouterr().err
        assert not (tmp_path / "model.hdck").exists()

    def test_artifacts(self, trained_dir):
        assert (trained_dir / "model.hdck").exists()
        lines = (trained_dir / "train_metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        first = json.loads(lines[0])
        assert first["epoch"] == 1 and np.isfinite(first["loss"])
        assert "config_hash" in first and "stage_seconds" not in first
        timing = (trained_dir / "train_timing.jsonl").read_text().splitlines()
        assert "stage_seconds" in json.loads(timing[0])

    def test_metrics_file_deterministic_across_out_dirs(self, dataset_dir,
                                                        trained_dir, tmp_path):
        other = tmp_path / "other"
        run_cli("train", "--dataset", str(dataset_dir),
                "--out-dir", str(other), *TRAIN_ARGS)
        assert ((other / "train_metrics.jsonl").read_bytes()
                == (trained_dir / "train_metrics.jsonl").read_bytes())
        assert ((other / "model.hdck").read_bytes()
                == (trained_dir / "model.hdck").read_bytes())


class TestCliEval:
    def test_eval_writes_metrics(self, dataset_dir, trained_dir):
        code = run_cli("eval", "--dataset", str(dataset_dir),
                       "--checkpoint", str(trained_dir / "model.hdck"),
                       "--out-dir", str(trained_dir), "--split", "test",
                       "--d", "4", "--D", "16")
        assert code == 0
        row = json.loads((trained_dir / "eval_metrics.json").read_text())
        assert row["split"] == "test" and row["mode"] == "filtered"
        assert 0.0 < row["mrr"] <= 1.0
        csv_lines = (trained_dir / "eval_metrics.csv").read_text().splitlines()
        assert csv_lines[0].startswith("split,mode,mrr")

    def test_missing_checkpoint_flag_is_exit_2(self, dataset_dir, tmp_path):
        assert run_cli("eval", "--dataset", str(dataset_dir),
                       "--out-dir", str(tmp_path)) == 2

    def test_wrong_shape_checkpoint_is_exit_3(self, dataset_dir, trained_dir,
                                              tmp_path, capsys):
        bigger = tmp_path / "bigger"
        bigger.mkdir()
        for name in ("train.txt", "valid.txt", "test.txt"):
            (bigger / name).write_text((dataset_dir / name).read_text())
        (bigger / "train.txt").write_text(TRAIN + "d\tr0\ta\n")
        assert run_cli("eval", "--dataset", str(bigger),
                       "--checkpoint", str(trained_dir / "model.hdck"),
                       "--out-dir", str(tmp_path)) == 3
        assert "do not match" in capsys.readouterr().err

    def test_corrupt_checkpoint_is_exit_3(self, dataset_dir, tmp_path):
        bad = tmp_path / "bad.hdck"
        bad.write_bytes(b"JUNKJUNKJUNK" * 30)
        assert run_cli("eval", "--dataset", str(dataset_dir),
                       "--checkpoint", str(bad), "--out-dir", str(tmp_path)) == 3

    def test_checkpoint_count_past_the_file_is_exit_3(self, dataset_dir, trained_dir,
                                                      tmp_path, capsys):
        bad = tmp_path / "bad.hdck"
        blob = (trained_dir / "model.hdck").read_bytes()
        bad.write_bytes(blob[:16] + (2 ** 62).to_bytes(8, "little") + blob[24:])
        assert run_cli("eval", "--dataset", str(dataset_dir),
                       "--checkpoint", str(bad), "--out-dir", str(tmp_path)) == 3
        assert "truncated parameter" in capsys.readouterr().err

    @pytest.mark.parametrize("bit, message", [(1, "flag bit 1"), (9, "unknown flag bits 9"),
                                              (2, "flag bit 2")])
    def test_flag_bits_it_cannot_honour_are_exit_3(self, dataset_dir, trained_dir,
                                                   tmp_path, capsys, bit, message):
        bad = tmp_path / "flagged.hdck"
        bad.write_bytes((trained_dir / "model.hdck").read_bytes())
        set_flag_bits(bad, bit)
        assert run_cli("eval", "--dataset", str(dataset_dir),
                       "--checkpoint", str(bad), "--out-dir", str(tmp_path),
                       "--d", "4", "--D", "16") == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "eval_metrics.json").exists()

    def test_missing_checkpoint_file_is_exit_3(self, dataset_dir, tmp_path,
                                               capsys):
        assert run_cli("eval", "--dataset", str(dataset_dir),
                       "--checkpoint", str(tmp_path / "absent.hdck"),
                       "--out-dir", str(tmp_path)) == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, artifact", [
        ("eval", "eval_metrics.json"), ("drop-dims-eval", "drop_dims_metrics.json"),
        ("quantize-eval", "quantize_metrics.json")],
        ids=["eval", "drop-dims-eval", "quantize-eval"])
    def test_nan_parameters_are_exit_3(self, dataset_dir, trained_dir, tmp_path,
                                       capsys, command, artifact):
        # Caught on load: a NaN score would rank as mrr inf in eval, and
        # break the entropy histogram in drop-dims-eval.
        from hdkg.checkpoint import load_checkpoint, save_checkpoint
        state, _ = load_checkpoint(trained_dir / "model.hdck")
        state.e_v[0, 0] = np.nan
        poisoned = tmp_path / "nan.hdck"
        save_checkpoint(poisoned, state, seed=3, config_hash=bytes(32))
        assert run_cli(command, "--dataset", str(dataset_dir),
                       "--checkpoint", str(poisoned),
                       "--out-dir", str(tmp_path), "--d", "4", "--D", "16") == 3
        assert "non-finite value in e_v" in capsys.readouterr().err
        assert not (tmp_path / artifact).exists()


    @pytest.mark.parametrize("command, stem", [
        ("eval", "eval_metrics"), ("drop-dims-eval", "drop_dims_metrics"),
        ("quantize-eval", "quantize_metrics")],
        ids=["eval", "drop-dims-eval", "quantize-eval"])
    def test_json_names_the_checkpoint_config(self, dataset_dir, trained_dir,
                                              tmp_path, command, stem):
        from hdkg.checkpoint import load_checkpoint, save_checkpoint
        state, _ = load_checkpoint(trained_dir / "model.hdck")
        tagged = tmp_path / "tagged.hdck"
        save_checkpoint(tagged, state, seed=3, config_hash=bytes(range(32)))
        assert run_cli(command, "--dataset", str(dataset_dir),
                       "--checkpoint", str(tagged),
                       "--out-dir", str(tmp_path), "--d", "4", "--D", "16") == 0
        row = json.loads((tmp_path / f"{stem}.json").read_text())
        assert row["checkpoint_config_hash"] == bytes(range(32)).hex()
        assert row["config_hash"] != row["checkpoint_config_hash"]
        header = (tmp_path / f"{stem}.csv").read_text().splitlines()[0]
        assert header == ",".join(METRICS_CSV_FIELDS)


class TestCliRobustness:
    def test_quantize_eval(self, dataset_dir, trained_dir):
        code = run_cli("quantize-eval", "--dataset", str(dataset_dir),
                       "--checkpoint", str(trained_dir / "model.hdck"),
                       "--out-dir", str(trained_dir), "--fix-bits", "8",
                       "--frac-bits", "4", "--d", "4", "--D", "16")
        assert code == 0
        row = json.loads((trained_dir / "quantize_metrics.json").read_text())
        assert row["mode"] == "fix8.4"

    def test_too_wide_fixed_point_is_exit_2(self, dataset_dir, trained_dir,
                                            tmp_path, capsys):
        assert run_cli("quantize-eval", "--dataset", str(dataset_dir),
                       "--checkpoint", str(trained_dir / "model.hdck"),
                       "--out-dir", str(tmp_path), "--fix-bits", "2000",
                       "--frac-bits", "4", "--d", "4", "--D", "16") == 2
        assert "configuration error" in capsys.readouterr().err
        assert not (tmp_path / "quantize_metrics.json").exists()

    def test_drop_dims_eval_both_strategies(self, dataset_dir, trained_dir):
        for strategy in ("entropy", "random"):
            code = run_cli("drop-dims-eval", "--dataset", str(dataset_dir),
                           "--checkpoint", str(trained_dir / "model.hdck"),
                           "--out-dir", str(trained_dir), "--drop-frac", "0.25",
                           "--drop-strategy", strategy, "--d", "4", "--D", "16")
            assert code == 0
            row = json.loads((trained_dir / "drop_dims_metrics.json").read_text())
            assert row["mode"] == f"drop0.25.{strategy}"

    def test_bad_strategy_is_exit_2(self, dataset_dir, trained_dir, tmp_path):
        assert run_cli("drop-dims-eval", "--dataset", str(dataset_dir),
                       "--checkpoint", str(trained_dir / "model.hdck"),
                       "--out-dir", str(tmp_path),
                       "--drop-strategy", "lowest") == 2


class TestCliReconstruct:
    def test_topk_payload(self, dataset_dir, trained_dir):
        code = run_cli("reconstruct", "--dataset", str(dataset_dir),
                       "--checkpoint", str(trained_dir / "model.hdck"),
                       "--out-dir", str(trained_dir), "--vertex", "0",
                       "--relation", "0", "--topk", "2",
                       "--d", "4", "--D", "16")
        assert code == 0
        payload = json.loads((trained_dir / "reconstruct.json").read_text())
        assert len(payload["candidates"]) == 2
        assert {"vertex", "name", "score"} <= set(payload["candidates"][0])

    def test_vertex_out_of_range_is_exit_2(self, dataset_dir, trained_dir,
                                           tmp_path):
        assert run_cli("reconstruct", "--dataset", str(dataset_dir),
                       "--checkpoint", str(trained_dir / "model.hdck"),
                       "--out-dir", str(tmp_path), "--vertex", "99",
                       "--d", "4", "--D", "16") == 2


class TestCliSimulate:
    def test_report_and_sweep(self, dataset_dir, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--dataset", str(dataset_dir),
                       "--out-dir", str(out), "--run-preset", "u50",
                       "--sweep-capacities", "2,4",
                       "--sweep-policies", "lru,lfu")
        assert code == 0
        report = json.loads((out / "simreport.json").read_text())
        assert report["single_batch_latency_ms"] > 0
        assert report["config"]["name"] == "u50"
        rows = (out / "cache_sweep.csv").read_text().splitlines()
        assert len(rows) == 1 + 4  # header + 2 capacities x 2 policies

    def test_engine_override(self, dataset_dir, tmp_path):
        out = tmp_path / "sim"
        code = run_cli("simulate", "--dataset", str(dataset_dir),
                       "--out-dir", str(out), "--n-engines", "2")
        assert code == 0
        report = json.loads((out / "simreport.json").read_text())
        assert report["config"]["mem_engines"] == 2

    def test_unknown_cost_preset_is_exit_2(self, dataset_dir, tmp_path):
        assert run_cli("simulate", "--dataset", str(dataset_dir),
                       "--out-dir", str(tmp_path), "--preset", "v100") == 2


class TestCliMisc:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli("--version")
        assert exc.value.code == 0
        assert "hdkg" in capsys.readouterr().out

    def test_unknown_run_preset_is_exit_2(self, dataset_dir, tmp_path):
        assert run_cli("train", "--dataset", str(dataset_dir),
                       "--out-dir", str(tmp_path), "--run-preset", "nope") == 2
