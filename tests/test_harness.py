import json
import subprocess
import sys

import numpy as np
import pytest

from rankmbo.config import (
    ExperimentConfig,
    ValidationError,
    apply_profile,
    load_config,
    parse_config,
    preset_path,
    reseed,
    set_by_path,
)
from rankmbo.harness import RUN_ARTIFACTS, compare, run, save_compare_rows, sweep

FAST_CFG = """
[task]
name = quadratic_bowl
pool_size = 200
keep_fraction = 0.6
seed = 0

[train]
objective = dar
hidden = 8
iterations = 60
batch_size = 16
learning_rate = 0.001

[search]
steps = 10
num_candidates = 4

[diagnostics]
eval_pool_size = 150
eval_near_fraction = 0.1
radii = 0.5, 1.0, 3.0
w1_sample_size = 8
"""

# one bad value per validated key, as ``section.key`` and the raw config text;
# the dotted field names are part of the CLI contract
BAD_VALUES = [
    ("task.name", "nope"),
    ("task.pool_size", "1"),
    ("task.pool_size", "many"),
    ("task.keep_fraction", "0.0"),
    ("task.keep_fraction", "1.5"),
    ("task.keep_fraction", "0.0001"),
    ("task.noise_std", "-1.0"),
    ("train.objective", "foo"),
    ("train.hidden", "0"),
    ("train.iterations", "0"),
    ("train.iterations", "abc"),
    ("train.batch_size", "0"),
    ("train.learning_rate", "-0.1"),
    ("train.optimizer", "rmsprop"),
    ("train.weight_decay", "-0.1"),
    ("train.margin", "-0.1"),
    ("train.near_fraction", "0.0"),
    ("train.near_fraction", "1.0"),
    ("train.intra_ratio", "-0.1"),
    ("train.intra_ratio", "1.5"),
    ("search.step_size", "-0.1"),
    ("search.steps", "-1"),
    ("search.num_candidates", "0"),
    ("search.init_rule", "best"),
    ("diagnostics.eval_pool_size", "1"),
    ("diagnostics.eval_near_fraction", "0.0"),
    ("diagnostics.radii", "2.0, 1.0"),
    ("diagnostics.w1_sample_size", "0"),
    ("diagnostics.mse_rank_audit_trials", "-1"),
    ("diagnostics.marginal_audit_trials", "-1"),
]

# one bad key per section for the CLI, as (field, line in FAST_CFG, replacement)
CLI_BAD_LINES = [
    ("task.name", "name = quadratic_bowl", "name = nope"),
    ("train.objective", "objective = dar", "objective = foo"),
    ("search.num_candidates", "num_candidates = 4", "num_candidates = 0"),
    ("diagnostics.w1_sample_size", "w1_sample_size = 8", "w1_sample_size = 0"),
]


class TestConfig:
    def test_defaults_parse(self):
        cfg = parse_config("")
        assert cfg.train.objective == "dar"
        assert cfg.task.name == "branin"

    def test_values_parse(self):
        cfg = parse_config(FAST_CFG)
        assert cfg.task.pool_size == 200
        assert cfg.diagnostics.radii == (0.5, 1.0, 3.0)
        assert cfg.train.iterations == 60

    def test_seed_derivation(self):
        cfg = parse_config(FAST_CFG)
        seeds = cfg.resolved_seeds()
        assert seeds == {"task": 0, "train": 1, "search": 2, "diagnostics": 3}
        reseed(cfg, 10)
        assert cfg.resolved_seeds() == {
            "task": 10, "train": 11, "search": 12, "diagnostics": 13,
        }

    def test_explicit_seed_wins(self):
        text = FAST_CFG.replace("[train]\n", "[train]\nseed = 99\n").replace(
            "[search]\n", "[search]\nseed = 7\n"
        )
        cfg = parse_config(text)
        assert cfg.train.seed == 99 and cfg.search.seed == 7
        assert cfg.resolved_seeds() == {
            "task": 0, "train": 99, "search": 7, "diagnostics": 3,
        }
        with pytest.raises(ValidationError) as excinfo:
            parse_config("[search]\nseed = 1.5\n")
        assert excinfo.value.field == "search.seed"

    @pytest.mark.parametrize("field, value", BAD_VALUES)
    def test_bad_value_names_field(self, field, value):
        section, key = field.split(".")
        with pytest.raises(ValidationError) as excinfo:
            parse_config(f"[{section}]\n{key} = {value}\n")
        assert excinfo.value.field == field

    def test_invalid_near_fraction_names_field(self):
        with pytest.raises(ValidationError) as excinfo:
            parse_config("[diagnostics]\neval_near_fraction = 1.5\n")
        assert excinfo.value.field == "diagnostics.eval_near_fraction"

    @pytest.mark.parametrize(
        "radii, message",
        [
            ("", "at least one radius"),
            ("0.0, 1.0", "positive"),
            ("-1.0", "positive"),
            ("1.0, 1.0", "strictly ascending"),
            ("2.0, 1.0", "strictly ascending"),
        ],
    )
    def test_bad_radii_name_field(self, radii, message):
        with pytest.raises(ValidationError, match=message) as excinfo:
            parse_config(f"[diagnostics]\nradii = {radii}\n")
        assert excinfo.value.field == "diagnostics.radii"

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("[train]\nlearningrate = 0.1\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ValidationError):
            parse_config("[models]\nx = 1\n")

    def test_profiles(self):
        cfg = parse_config(FAST_CFG)
        apply_profile(cfg, "paper")
        assert cfg.train.hidden == 2048
        assert cfg.search.num_candidates == 128
        apply_profile(cfg, "desk")
        assert cfg.train.hidden == 64
        assert cfg.search.num_candidates == 32

    def test_set_by_path(self):
        cfg = ExperimentConfig()
        set_by_path(cfg, "train.intra_ratio", "0.3")
        assert cfg.train.intra_ratio == 0.3
        with pytest.raises(ValidationError):
            set_by_path(cfg, "train.nope", 1)

    def test_presets_ship_and_validate(self):
        for name in ("branin_dar_desk", "branin_mse_desk", "branin_rank_global_desk"):
            cfg = load_config(preset_path(name))
            assert cfg.task.name == "branin"


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = parse_config(FAST_CFG)
    manifest = run(cfg, out)
    return out, manifest


class TestRun:
    def test_exactly_the_contracted_artifacts(self, run_dir):
        out, _ = run_dir
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted(RUN_ARTIFACTS)

    def test_manifest_contents(self, run_dir):
        out, manifest = run_dir
        on_disk = json.loads((out / "manifest.json").read_text())
        assert on_disk["seeds"] == {"task": 0, "train": 1, "search": 2, "diagnostics": 3}
        assert on_disk["objective"] == "dar"
        assert on_disk["version"].startswith("rankmbo-")
        assert "wall_clock_s" in on_disk
        assert on_disk["search"]["best_normalized"] == manifest["search"]["best_normalized"]
        assert on_disk["dataset"]["y_min_full"] < on_disk["dataset"]["y_max_full"]

    def test_rerun_is_byte_identical(self, run_dir, tmp_path):
        out, _ = run_dir
        cfg = parse_config(FAST_CFG)
        run(cfg, tmp_path / "again")
        for name in RUN_ARTIFACTS:
            if name == "manifest.json":
                continue  # differs in wall clock only
            assert (tmp_path / "again" / name).read_bytes() == (out / name).read_bytes()

    def test_unknown_objective_rejected_before_writing(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        cfg.train.objective = "foo"
        out = tmp_path / "run"
        with pytest.raises(ValidationError) as excinfo:
            run(cfg, out)
        assert excinfo.value.field == "train.objective"
        assert not out.exists()

    def test_audit_artifacts_appear_when_enabled(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        cfg.diagnostics.mse_rank_audit_trials = 3
        cfg.diagnostics.marginal_audit_trials = 2
        manifest = run(cfg, tmp_path / "aud")
        assert (tmp_path / "aud" / "audit_mse_rank.csv").exists()
        assert (tmp_path / "aud" / "audit_marginal.csv").exists()
        audits = manifest["diagnostics"]["audits"]
        assert audits["mse_rank"]["trials"] == 3
        assert audits["marginal"]["violations"] == 0


class TestSweep:
    def test_single_cell_matches_run(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        rows = sweep(cfg, {}, seeds=[0], out_dir=tmp_path / "sw")
        assert len(rows) == 1
        direct = run(reseed(parse_config(FAST_CFG), 0), tmp_path / "direct")
        assert rows[0]["mean_best_normalized"] == pytest.approx(
            direct["search"]["best_normalized"]
        )
        assert rows[0]["std_best_normalized"] == 0.0

    def test_grid_counts(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        rows = sweep(
            cfg,
            {"train.intra_ratio": [0.0, 0.1]},
            seeds=[0, 1, 2],
            out_dir=tmp_path / "sw",
        )
        assert len(rows) == 2
        run_dirs = list((tmp_path / "sw").glob("cell_*/seed_*"))
        assert len(run_dirs) == 6
        assert (tmp_path / "sw" / "summary.csv").exists()
        for row in rows:
            assert row["n_failed"] == 0
            assert 0.0 <= row["std_best_normalized"]

    def test_cell_failure_recorded_not_fatal(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        # a pool of 3 at keep_fraction 0.6 keeps 1 design, fewer than the 2 a
        # dataset needs
        rows = sweep(
            cfg,
            {"train.intra_ratio": [0.1], "task.pool_size": [3]},
            seeds=[0],
            out_dir=tmp_path / "sw",
        )
        assert rows[0]["n_failed"] == 1
        assert rows[0]["mean_best_normalized"] is None


    def test_bad_grid_value_fails_its_cell_without_artifacts(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        rows = sweep(
            cfg, {"train.objective": ["foo", "mse"]}, seeds=[0], out_dir=tmp_path / "sw"
        )
        assert [row["n_failed"] for row in rows] == [1, 0]
        assert rows[0]["mean_best_normalized"] is None
        assert not (tmp_path / "sw" / "cell_000").exists()
        manifest = json.loads(
            (tmp_path / "sw" / "cell_001" / "seed_0" / "manifest.json").read_text()
        )
        assert manifest["objective"] == "mse"


class TestCompare:
    def test_self_comparison_identical_rows(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        run(cfg, tmp_path / "a")
        rows = compare([tmp_path / "a", tmp_path / "a"])
        a, b = rows
        assert {k: v for k, v in a.items() if k != "run"} == {
            k: v for k, v in b.items() if k != "run"
        }

    def test_sorted_by_best_normalized(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        run(cfg, tmp_path / "a")
        cfg2 = parse_config(FAST_CFG)
        cfg2.train.objective = "mse"
        run(cfg2, tmp_path / "b")
        rows = compare([tmp_path / "a", tmp_path / "b"])
        scores = [r["best_normalized"] for r in rows]
        assert scores == sorted(scores, reverse=True)
        save_compare_rows(rows, tmp_path / "cmp.csv")
        header = (tmp_path / "cmp.csv").read_text().splitlines()[0]
        assert header.startswith("run,objective,best_true,best_normalized,overall_rank_error")

    def test_missing_manifest_names_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing"):
            compare([tmp_path / "missing"])


class TestCli:
    def _cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "rankmbo", *args],
            capture_output=True,
            text=True,
        )

    def test_run_ok_exit_zero(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        proc = self._cli("run", "--config", str(cfg_file), "--out", str(tmp_path / "out"))
        assert proc.returncode == 0, proc.stderr
        assert (tmp_path / "out" / "manifest.json").exists()

    def test_validation_error_exit_one_no_files(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(
            FAST_CFG.replace("eval_near_fraction = 0.1", "eval_near_fraction = 1.5")
        )
        out = tmp_path / "out"
        proc = self._cli("run", "--config", str(cfg_file), "--out", str(out))
        assert proc.returncode == 1
        assert not out.exists()
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err["field"] == "diagnostics.eval_near_fraction"

    @pytest.mark.parametrize("field, line, bad", CLI_BAD_LINES)
    def test_bad_value_exit_one_names_field(self, tmp_path, field, line, bad):
        assert line in FAST_CFG
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG.replace(line, bad))
        out = tmp_path / "out"
        proc = self._cli("run", "--config", str(cfg_file), "--out", str(out))
        assert proc.returncode == 1
        assert not out.exists()
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err["field"] == field
        assert err["stage"] == "run"

    def test_bad_radii_exit_one_names_field(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG.replace("radii = 0.5, 1.0, 3.0", "radii = 1.0, 0.5"))
        out = tmp_path / "out"
        proc = self._cli("diagnose", "--config", str(cfg_file), "--out", str(out))
        assert proc.returncode == 1
        assert not out.exists()
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err["field"] == "diagnostics.radii"
        assert err["stage"] == "diagnose"

    def test_staged_pipeline_and_compare(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "out"
        for stage in ("gen-data", "train", "search", "diagnose"):
            proc = self._cli(stage, "--config", str(cfg_file), "--out", str(out))
            assert proc.returncode == 0, (stage, proc.stderr)
        for name in (
            "dataset.csv", "dataset.json", "model.json", "loss_trace.csv",
            "search.csv", "search.json", "diagnostics.csv", "diagnostics.json",
        ):
            assert (out / name).exists(), name

    def test_train_without_dataset_is_runtime_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        proc = self._cli("train", "--config", str(cfg_file), "--out", str(tmp_path / "nope"))
        assert proc.returncode == 2

    def test_seed_override_changes_artifacts(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        a = self._cli("run", "--config", str(cfg_file), "--out", str(tmp_path / "a"), "--seed", "5")
        b = self._cli("run", "--config", str(cfg_file), "--out", str(tmp_path / "b"), "--seed", "6")
        assert a.returncode == 0 and b.returncode == 0
        assert (tmp_path / "a" / "dataset.csv").read_bytes() != (
            tmp_path / "b" / "dataset.csv"
        ).read_bytes()
        manifest = json.loads((tmp_path / "a" / "manifest.json").read_text())
        assert manifest["seeds"]["task"] == 5

    def test_sweep_cli(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        proc = self._cli(
            "sweep", "--config", str(cfg_file), "--out", str(tmp_path / "sw"),
            "--set", "train.intra_ratio=0.0,0.1", "--seeds", "0",
        )
        assert proc.returncode == 0, proc.stderr
        summary = (tmp_path / "sw" / "summary.csv").read_text().splitlines()
        assert len(summary) == 3  # header + two cells

    def test_compare_cli_missing_manifest(self, tmp_path):
        proc = self._cli("compare", str(tmp_path / "ghost"), "--out", str(tmp_path / "c.csv"))
        assert proc.returncode == 2
