import configparser
import csv
import json
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rankmbo.config import (
    ExperimentConfig,
    TrainBlock,
    ValidationError,
    apply_profile,
    load_config,
    parse_config,
    preset_path,
    reseed,
    set_by_path,
)
from rankmbo.artifacts import write_csv, write_json
from rankmbo.cli import main
from rankmbo.diagnostics import RadiusRow, save_radius_rows
from rankmbo.harness import (
    RUN_ARTIFACTS,
    build_dataset,
    compare,
    run,
    run_diagnostics,
    save_compare_rows,
    sweep,
    train_model,
)
from rankmbo.objectives import DarConfig, RankConfig, partition, train_dar
from rankmbo.search import SearchConfig, propose_candidates
from rankmbo.surrogate import TrainConfig, init_surrogate, load_model, save_model

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
    ("task.noise_std", "nan"),
    ("task.seed", "-1"),
    ("train.objective", "foo"),
    ("train.hidden", "0"),
    ("train.iterations", "0"),
    ("train.iterations", "abc"),
    ("train.batch_size", "0"),
    ("train.learning_rate", "-0.1"),
    ("train.learning_rate", "nan"),
    ("train.learning_rate", "inf"),
    ("train.margin", "-0.1"),
    ("train.margin", "nan"),
    ("train.seed", "-1"),
    ("train.near_fraction", "0.0"),
    ("train.near_fraction", "1.0"),
    ("train.intra_ratio", "-0.1"),
    ("train.intra_ratio", "1.5"),
    ("search.step_size", "-0.1"),
    ("search.step_size", "inf"),
    ("search.seed", "-1"),
    ("search.steps", "-1"),
    ("search.num_candidates", "0"),
    ("diagnostics.eval_pool_size", "1"),
    ("diagnostics.eval_near_fraction", "0.0"),
    ("diagnostics.radii", "2.0, 1.0"),
    ("diagnostics.radii", "nan"),
    ("diagnostics.radii", "1.0, nan"),
    ("diagnostics.w1_sample_size", "0"),
    ("diagnostics.w1_sample_size", "513"),
    ("diagnostics.mse_rank_audit_trials", "-1"),
    ("diagnostics.marginal_audit_trials", "-1"),
    ("diagnostics.seed", "-1"),
]

# one bad key per section for the CLI, as (field, line in FAST_CFG, replacement)
CLI_BAD_LINES = [
    ("task.name", "name = quadratic_bowl", "name = nope"),
    ("train.objective", "objective = dar", "objective = foo"),
    ("search.num_candidates", "num_candidates = 4", "num_candidates = 0"),
    ("diagnostics.w1_sample_size", "w1_sample_size = 8", "w1_sample_size = 0"),
    # above the exact-solve cap, although this eval pool would cap the sample
    ("diagnostics.w1_sample_size", "w1_sample_size = 8", "w1_sample_size = 513"),
]


# every key a config file may set, per section and in manifest order
FILE_KEYS = {
    "task": ["name", "pool_size", "keep_fraction", "noise_std", "seed"],
    "train": [
        "iterations", "batch_size", "learning_rate", "seed", "margin",
        "near_fraction", "intra_ratio", "objective", "hidden",
    ],
    "search": ["step_size", "steps", "num_candidates", "seed"],
    "diagnostics": [
        "eval_pool_size", "eval_near_fraction", "radii", "w1_sample_size",
        "mse_rank_audit_trials", "marginal_audit_trials", "seed",
    ],
}


def _keys_set(text):
    """The dotted keys a config text sets."""
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    parser.read_string(text)
    return {f"{section}.{key}" for section in parser.sections() for key in parser[section]}


def _file_keys_without_derived_seeds():
    """Every file key but the train, search and diagnostics seeds, which
    default to offsets from the task seed."""
    keys = {f"{section}.{key}" for section, names in FILE_KEYS.items() for key in names}
    return keys - {"train.seed", "search.seed", "diagnostics.seed"}


def read_csv_rows(path):
    """Rows of a CSV file as ``csv.reader`` parses them."""
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


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

    def test_text_parses_by_declared_type(self):
        # an int set by path must not make the key parse later text as int
        cfg = ExperimentConfig()
        set_by_path(cfg, "train.margin", 1)
        set_by_path(cfg, "train.margin", "0.5")
        assert cfg.train.margin == 0.5
        set_by_path(cfg, "train.seed", "4")
        assert cfg.train.seed == 4

    def test_retired_keys_are_unknown(self):
        for key in ("optimizer", "weight_decay", "weight_init_scale"):
            with pytest.raises(TypeError):
                TrainConfig(**{key: getattr(TrainConfig(), key)})
        with pytest.raises(TypeError):
            SearchConfig(init_rule="topk")
        for path, value in [
            ("train.optimizer", "adam"),
            ("train.weight_decay", "0.0"),
            ("train.weight_init_scale", "1.0"),
            ("search.init_rule", "topk"),
        ]:
            section, key = path.split(".")
            with pytest.raises(ValidationError, match="unknown key") as excinfo:
                parse_config(f"[{section}]\n{key} = {value}\n")
            assert excinfo.value.field == path

    def test_readme_config_block_is_the_schema(self):
        text = (Path(__file__).parents[1] / "README.md").read_text()
        section = text.split("## Config files", 1)[1]
        block = section.split("```ini\n", 1)[1].split("```", 1)[0]
        assert parse_config(block).to_dict() == ExperimentConfig().to_dict()
        assert _keys_set(block) == _file_keys_without_derived_seeds()

    def test_file_schema(self):
        cfg = ExperimentConfig()
        assert sum(len(keys) for keys in FILE_KEYS.values()) == 25
        assert {section: list(keys) for section, keys in cfg.to_dict().items()} == FILE_KEYS
        for section, keys in FILE_KEYS.items():
            block = getattr(cfg, section)
            for key in keys:
                set_by_path(cfg, f"{section}.{key}", getattr(block, key))
            for name in {f.name for f in fields(block)} - set(keys):
                with pytest.raises(ValidationError, match="unknown key"):
                    set_by_path(cfg, f"{section}.{name}", getattr(block, name))
        with pytest.raises(ValidationError, match="unknown key") as excinfo:
            parse_config("[train]\nadam_beta1 = 0.5\n")
        assert excinfo.value.field == "train.adam_beta1"

    def test_model_json_echoes_adam_constants_in_order(self):
        echo = TrainConfig().to_dict()
        assert list(echo) == [
            "iterations", "batch_size", "learning_rate", "optimizer", "adam_beta1",
            "adam_beta2", "adam_eps", "weight_decay", "weight_init_scale", "seed",
        ]
        assert (echo["adam_beta1"], echo["adam_beta2"], echo["adam_eps"]) == (0.9, 0.999, 1e-8)
        assert (echo["optimizer"], echo["weight_decay"], echo["weight_init_scale"]) == (
            "adam", 0.0, 1.0,
        )
        with pytest.raises(TypeError):
            TrainConfig(adam_beta1=0.5)

    def test_train_section_has_the_library_defaults(self):
        # one set of defaults: [train] declares no value of its own for a
        # runtime key, so an unset key trains as the library default does
        assert {"batch_size", "learning_rate"}.isdisjoint(TrainBlock.__annotations__)
        assert (TrainConfig().batch_size, TrainConfig().learning_rate) == (256, 3e-4)
        cfg = ExperimentConfig()
        for cls in (TrainConfig, RankConfig, DarConfig):
            assert cfg.train_config(cls) == cls(seed=cfg.resolved_seeds()["train"])

    def test_search_json_echoes_init_rule_in_order(self):
        echo = SearchConfig().to_dict()
        assert list(echo) == ["step_size", "steps", "num_candidates", "init_rule", "seed"]
        assert echo["init_rule"] == "topk"

    def test_presets_ship_and_validate(self):
        for name in ("branin_dar_desk", "branin_mse_desk", "branin_rank_global_desk"):
            cfg = load_config(preset_path(name))
            assert cfg.task.name == "branin"

    def test_presets_set_every_file_key(self):
        for name in ("branin_dar_desk", "branin_mse_desk", "branin_rank_global_desk"):
            text = preset_path(name).read_text()
            assert _keys_set(text) == _file_keys_without_derived_seeds(), name


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
        # the dataset's recipe is config.task and seeds.task; only the pool
        # extrema are recorded beside them
        assert list(on_disk["dataset"]) == ["y_min_full", "y_max_full"]
        assert on_disk["dataset"]["y_min_full"] < on_disk["dataset"]["y_max_full"]
        assert "threads" not in on_disk

    def test_manifest_times_stages_and_records_environment(self, run_dir):
        _, manifest = run_dir
        stages = manifest["stage_s"]
        assert list(stages) == ["data", "train", "search", "diagnostics", "write"]
        assert all(t >= 0.0 for t in stages.values())
        assert sum(stages.values()) <= manifest["wall_clock_s"]
        assert manifest["peak_rss_mb"] > 0.0
        assert set(manifest["blas_thread_env"]) >= {"OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"}

    def test_manifest_records_the_peak_rss_each_stage_ended_at(self, run_dir):
        out, manifest = run_dir
        on_disk = json.loads((out / "manifest.json").read_text())
        peaks = on_disk["stage_peak_rss_mb"]
        assert list(peaks) == list(on_disk["stage_s"])
        assert all(0.0 < mb <= on_disk["peak_rss_mb"] for mb in peaks.values())
        # ru_maxrss never falls, and the last write ends after every stage
        assert peaks["write"] == max(peaks.values())
        assert peaks == manifest["stage_peak_rss_mb"]

    def test_manifest_counts_minor_page_faults(self, run_dir):
        out, manifest = run_dir
        on_disk = json.loads((out / "manifest.json").read_text())
        for faults in (manifest["minor_page_faults"], on_disk["minor_page_faults"]):
            assert type(faults) is int and faults >= 0

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

    @pytest.mark.parametrize("key", ["mse_rank_audit_trials", "marginal_audit_trials"])
    def test_run_diagnostics_rejects_negative_audit_trials(self, key):
        cfg = parse_config(FAST_CFG)
        _, dataset = build_dataset(cfg)
        model, _ = train_model(cfg, dataset)
        setattr(cfg.diagnostics, key, -1)
        with pytest.raises(ValidationError) as excinfo:
            run_diagnostics(cfg, model, dataset)
        assert (excinfo.value.field, excinfo.value.message) == (key, "must be non-negative")


    def test_sections_with_unset_seeds_are_refused_at_run_time(self):
        cfg = parse_config(FAST_CFG)
        _, dataset = build_dataset(cfg)
        model = init_surrogate(dataset.task.dim, 8, seed=1)
        with pytest.raises(ValidationError, match="must be set") as excinfo:
            train_dar(model, dataset, cfg.train)
        assert excinfo.value.field == "seed"
        part = partition(dataset, cfg.train.near_fraction)
        with pytest.raises(ValidationError, match="must be set") as excinfo:
            propose_candidates(model, dataset, part, cfg.search)
        assert excinfo.value.field == "seed"


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

    def test_grid_value_with_comma_keeps_row_width(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        # the second cell fails validation, so its score cells are empty
        sweep(
            cfg,
            {"diagnostics.radii": ["0.5,1.0,3.0", "3.0,1.0"]},
            seeds=[0],
            out_dir=tmp_path / "sw",
        )
        header, *rows = read_csv_rows(tmp_path / "sw" / "summary.csv")
        assert [len(row) for row in rows] == [len(header)] * 2
        assert [row[0] for row in rows] == ["0.5,1.0,3.0", "3.0,1.0"]
        assert rows[1][header.index("mean_best_normalized")] == ""

    def test_bad_grid_value_fails_its_cell_without_artifacts(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        rows = sweep(
            cfg, {"train.objective": ["foo", "mse"]}, seeds=[0], out_dir=tmp_path / "sw"
        )
        assert [row["n_failed"] for row in rows] == [1, 0]
        assert rows[0]["mean_best_normalized"] is None
        assert not (tmp_path / "sw" / "cell_000").exists()
        failures = json.loads((tmp_path / "sw" / "failures.json").read_text())
        assert failures == [
            {
                "cell": 0,
                "seed": 0,
                "error": "ValidationError",
                "message": failures[0]["message"],
                "stage": "run",
                "field": "train.objective",
            }
        ]
        assert failures[0]["message"].startswith("train.objective: ")
        manifest = json.loads(
            (tmp_path / "sw" / "cell_001" / "seed_0" / "manifest.json").read_text()
        )
        assert manifest["objective"] == "mse"

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_job_names_its_stage_and_leaves_no_artifacts(self, tmp_path):
        cfg = parse_config(FAST_CFG.replace("learning_rate = 0.001", "learning_rate = 1e200"))
        rows = sweep(cfg, {}, seeds=[0], out_dir=tmp_path / "sw")
        assert rows[0]["n_failed"] == 1
        (failure,) = json.loads((tmp_path / "sw" / "failures.json").read_text())
        assert (failure["error"], failure["stage"]) == ("TrainingDiverged", "train")
        assert sorted(p.name for p in (tmp_path / "sw").iterdir()) == [
            "failures.json",
            "summary.csv",
        ]

    def test_empty_seed_list_rejected_before_writing(self, tmp_path):
        out = tmp_path / "sw"
        with pytest.raises(ValidationError) as excinfo:
            sweep(parse_config(FAST_CFG), {}, [], out)
        assert excinfo.value.field == "seeds"
        assert not out.exists()

    def test_negative_seed_rejected_before_writing(self, tmp_path):
        out = tmp_path / "sw"
        with pytest.raises(ValidationError) as excinfo:
            sweep(parse_config(FAST_CFG), {}, [0, -1], out)
        assert excinfo.value.field == "seeds"
        assert not out.exists()

    def test_repeated_seed_rejected_before_writing(self, tmp_path):
        # a repeated seed would rerun into the same job directory and count twice
        out = tmp_path / "sw"
        with pytest.raises(ValidationError) as excinfo:
            sweep(parse_config(FAST_CFG), {}, [0, 1, 0], out)
        assert excinfo.value.field == "seeds"
        assert not out.exists()

    def test_unparsable_grid_value_rejected_before_writing(self, tmp_path):
        out = tmp_path / "sw"
        with pytest.raises(ValidationError) as excinfo:
            sweep(parse_config(FAST_CFG), {"train.hidden": ["8", "abc"]}, [0], out)
        assert excinfo.value.field == "train.hidden"
        assert not out.exists()

    def test_seed_axis_wins_over_base_seed(self, tmp_path):
        cfg = parse_config(FAST_CFG)
        rows = sweep(cfg, {"task.seed": ["1", "2"]}, seeds=[0], out_dir=tmp_path / "sw")
        assert [row["n_failed"] for row in rows] == [0, 0]
        for ci, task_seed in enumerate((1, 2)):
            job = tmp_path / "sw" / f"cell_{ci:03d}" / "seed_0"
            manifest = json.loads((job / "manifest.json").read_text())
            # the axis sets task.seed; the other sections keep the base seed's
            assert manifest["seeds"] == {
                "task": task_seed, "train": 1, "search": 2, "diagnostics": 3
            }
            cfg = reseed(parse_config(FAST_CFG), 0)
            cfg.task.seed = task_seed
            direct = run(cfg, tmp_path / f"direct_{ci}")
            assert rows[ci]["mean_best_normalized"] == direct["search"]["best_normalized"]
            assert (job / "dataset.csv").read_bytes() == (
                tmp_path / f"direct_{ci}" / "dataset.csv"
            ).read_bytes()


class TestAtomicWrites:
    WRITERS = {
        # the second row is not a RadiusRow: raises after the header is written
        "csv": lambda path: save_radius_rows([RadiusRow(1.0, 3, 0.5), None], path),
        # the second row is not a dict: raises after the header is written
        "compare": lambda path: save_compare_rows([{"run": "a"}, None], path),
        # the second value is not serializable: raises inside json.dump
        "json": lambda path: write_json(path, {"a": 1, "b": object()}),
    }

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_writer_raising_mid_write_leaves_no_file(self, tmp_path, kind):
        with pytest.raises((AttributeError, TypeError)):
            self.WRITERS[kind](tmp_path / "artifact")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", sorted(WRITERS))
    def test_writer_raising_mid_write_keeps_previous_file(self, tmp_path, kind):
        (tmp_path / "artifact").write_text("previous\n")
        with pytest.raises((AttributeError, TypeError)):
            self.WRITERS[kind](tmp_path / "artifact")
        assert [p.name for p in tmp_path.iterdir()] == ["artifact"]
        assert (tmp_path / "artifact").read_text() == "previous\n"


class TestWriteCsv:
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False),
                st.floats(allow_nan=False).map(np.float64),
                st.none(),
            ),
            min_size=1,
            max_size=6,
        )
    )
    def test_floats_round_trip_and_none_is_empty(self, tmp_path, cells):
        path = tmp_path / "cells.csv"
        write_csv(path, ["c"] * len(cells), [cells])
        header, row = read_csv_rows(path)
        assert len(row) == len(header)
        for cell, text in zip(cells, row):
            if cell is None:
                assert text == ""
            else:
                assert struct.pack("<d", float(text)) == struct.pack("<d", cell)


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

    def test_run_dir_with_comma_keeps_row_width(self, tmp_path):
        run_dir = tmp_path / "a,b"
        run(parse_config(FAST_CFG), run_dir)
        save_compare_rows(compare([run_dir]), tmp_path / "cmp.csv")
        header, row = read_csv_rows(tmp_path / "cmp.csv")
        assert len(row) == len(header)
        assert row[0] == str(run_dir)

    def test_runs_with_different_radii_keep_every_column(self, tmp_path):
        radii = {"dar": "0.5, 1.0, 3.0", "mse": "0.25, 2.0"}
        manifests = {}
        for objective, text in radii.items():
            cfg = parse_config(FAST_CFG.replace("radii = 0.5, 1.0, 3.0", f"radii = {text}"))
            cfg.train.objective = objective
            manifests[objective] = run(cfg, tmp_path / objective)
        save_compare_rows(compare([tmp_path / "dar", tmp_path / "mse"]), tmp_path / "cmp.csv")
        header, *rows = read_csv_rows(tmp_path / "cmp.csv")
        # radius columns ascend, whichever run scored best
        columns = [f"rank_error@d={d}" for d in ("0.25", "0.5", "1", "2", "3")]
        assert header == [
            "run", "objective", "best_true", "best_normalized", "overall_rank_error", *columns
        ]
        for row in rows:
            assert len(row) == len(header)
            cells = dict(zip(header, row))
            errors = manifests[cells["objective"]]["diagnostics"]["radius_errors"]
            expected = {f"rank_error@d={e['d']:g}": e["rank_error"] for e in errors}
            for column in columns:
                value = expected.get(column)
                assert cells[column] == ("" if value is None else format(value, ".17g"))

    def test_radii_equal_to_six_digits_get_separate_columns(self, tmp_path):
        cfg = parse_config(
            FAST_CFG.replace("radii = 0.5, 1.0, 3.0", "radii = 1.0000001, 1.0000002, 3.0")
        )
        manifest = run(cfg, tmp_path / "a")
        (row,) = compare([tmp_path / "a"])
        columns = [key for key in row if key.startswith("rank_error@d=")]
        assert columns == [
            "rank_error@d=1.0000001",
            "rank_error@d=1.0000002",
            "rank_error@d=3",
        ]
        errors = manifest["diagnostics"]["radius_errors"]
        assert [row[c] for c in columns] == [e["rank_error"] for e in errors]

    def test_missing_manifest_names_directory(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing"):
            compare([tmp_path / "missing"])


def diverging_cfg(tmp_path):
    """The mse desk preset at learning rate 1e200 and 50 iterations, whose
    training diverges within a few iterations."""
    text = preset_path("branin_mse_desk").read_text()
    text = text.replace("learning_rate = 0.0003", "learning_rate = 1e200")
    text = text.replace("iterations = 5000", "iterations = 50")
    cfg_file = tmp_path / "c.cfg"
    cfg_file.write_text(text)
    train = load_config(cfg_file).train
    assert (train.learning_rate, train.iterations) == (1e200, 50)
    return cfg_file


class TestCli:
    def _cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "rankmbo", *args],
            capture_output=True,
            text=True,
        )

    def test_diverging_run_prints_only_the_json_diagnostic(self, tmp_path):
        out = tmp_path / "out"
        proc = self._cli("run", "--config", str(diverging_cfg(tmp_path)), "--out", str(out))
        assert proc.returncode == 2
        (line,) = proc.stderr.splitlines()
        record = json.loads(line)
        assert (record["error"], record["stage"]) == ("TrainingDiverged", "train")

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
            "dataset.csv", "model.json", "loss_trace.csv",
            "search.csv", "search.json", "diagnostics.csv", "diagnostics.json",
        ):
            assert (out / name).exists(), name
        # search and diagnose reload model.json, so their outputs match the
        # one-process run only if the model file round-trips exactly
        proc = self._cli("run", "--config", str(cfg_file), "--out", str(tmp_path / "run"))
        assert proc.returncode == 0, proc.stderr
        for name in RUN_ARTIFACTS:
            if name != "manifest.json":
                assert (out / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name

    def test_search_without_model_is_runtime_error(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        proc = self._cli("search", "--config", str(cfg_file), "--out", str(tmp_path / "nope"))
        assert proc.returncode == 2
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert err["stage"] == "search"
        assert not (tmp_path / "nope").exists()

    @pytest.mark.parametrize("seeds", ["x", ",", "0,y", "-1,-2", "0,0"])
    def test_bad_sweep_seeds_exit_one_before_writing(self, tmp_path, seeds):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "sw"
        proc = self._cli(
            "sweep", "--config", str(cfg_file), "--out", str(out), f"--seeds={seeds}"
        )
        assert proc.returncode == 1
        assert not out.exists()
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert (err["field"], err["stage"]) == ("seeds", "sweep")

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

    def test_unparsable_sweep_grid_exit_one_before_writing(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "sw"
        proc = self._cli(
            "sweep", "--config", str(cfg_file), "--out", str(out), "--set", "train.hidden=abc"
        )
        assert proc.returncode == 1
        assert not out.exists()
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert (err["field"], err["stage"]) == ("train.hidden", "sweep")

    def test_repeated_sweep_axis_exit_one_before_writing(self, tmp_path):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "sw"
        proc = self._cli(
            "sweep", "--config", str(cfg_file), "--out", str(out),
            "--set", "train.hidden=8", "--set", "train.hidden=16",
        )
        assert proc.returncode == 1
        assert not out.exists()
        err = json.loads(proc.stderr.strip().splitlines()[-1])
        assert (err["field"], err["stage"]) == ("train.hidden", "sweep")

    def test_compare_cli_missing_manifest(self, tmp_path):
        proc = self._cli("compare", str(tmp_path / "ghost"), "--out", str(tmp_path / "c.csv"))
        assert proc.returncode == 2


class TestCliMain:
    """``cli.main`` in this process, for the paths the subprocess tests reach
    only from a child interpreter."""

    AUDIT_CFG = FAST_CFG + "mse_rank_audit_trials = 2\nmarginal_audit_trials = 2\n"

    def test_diagnose_writes_the_audit_csvs_of_run(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(self.AUDIT_CFG)
        common = ["--config", str(cfg_file), "--out"]
        assert main(["run", *common, str(tmp_path / "run")]) == 0
        staged = tmp_path / "staged"
        for stage in ("gen-data", "train", "diagnose"):
            assert main([stage, *common, str(staged)]) == 0, stage
        for name in ("audit_mse_rank.csv", "audit_marginal.csv"):
            assert (staged / name).read_bytes() == (tmp_path / "run" / name).read_bytes()

    def test_compare_writes_the_table(self, tmp_path, capsys):
        run(parse_config(FAST_CFG), tmp_path / "a")
        dirs = [str(tmp_path / "a"), str(tmp_path / "a")]
        assert main(["compare", *dirs, "--out", str(tmp_path / "cli.csv")]) == 0
        assert "(2 rows)" in capsys.readouterr().out
        save_compare_rows(compare(dirs), tmp_path / "lib.csv")
        assert (tmp_path / "cli.csv").read_bytes() == (tmp_path / "lib.csv").read_bytes()

    def test_runtime_error_writes_error_json_into_existing_out(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "out"
        out.mkdir()  # no model.json to search with
        assert main(["search", "--config", str(cfg_file), "--out", str(out)]) == 2
        printed = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        record = json.loads((out / "error.json").read_text())
        assert record == printed
        assert (record["error"], record["stage"]) == ("FileNotFoundError", "search")
        assert "field" not in record

    def test_success_removes_a_stale_error_json(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "out"
        out.mkdir()
        assert main(["search", "--config", str(cfg_file), "--out", str(out)]) == 2
        assert (out / "error.json").is_file()
        for command in ("train", "search"):
            assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 0
        assert not (out / "error.json").exists()
        assert (out / "search.csv").is_file()

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_diverging_training_reports_its_iteration(self, tmp_path, capsys):
        cfg_file = diverging_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert (record["error"], record["stage"]) == ("TrainingDiverged", "train")
        assert type(record["iteration"]) is int and 0 <= record["iteration"] < 50
        assert f"at iteration {record['iteration']}" in record["message"]
        assert json.loads((out / "error.json").read_text()) == record

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_run_leaves_only_error_json(self, tmp_path, capsys):
        # the data stage wrote dataset.csv before training diverged
        cfg_file = diverging_cfg(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
        record = json.loads((out / "error.json").read_text())
        assert (record["error"], record["stage"]) == ("TrainingDiverged", "train")
        assert type(record["iteration"]) is int
        assert [path.name for path in out.iterdir()] == ["error.json"]

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_failed_run_keeps_the_files_it_did_not_write(self, tmp_path, capsys):
        cfg_file = diverging_cfg(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        kept = {"notes.txt": b"mine", "model.json": b"an earlier model", "search.csv": b"x"}
        for name, data in kept.items():
            (out / name).write_bytes(data)
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 2
        left = {path.name: path.read_bytes() for path in out.iterdir()}
        assert left.pop("error.json") and left == kept

    def test_search_and_diagnose_in_a_run_directory_reproduce_it(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "run"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        names = ("search.csv", "search.json", "diagnostics.csv")
        before = {name: (out / name).read_bytes() for name in names}
        for name in names:
            (out / name).unlink()
        for stage in ("search", "diagnose"):
            assert main([stage, "--config", str(cfg_file), "--out", str(out)]) == 0, stage
        for name in names:
            assert (out / name).read_bytes() == before[name], name

    def _assert_search_and_diagnose_refuse(self, cfg_file, out, field, capsys):
        """Both stages exit 1 naming ``field`` and leave every file in ``out``
        as it was."""
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        for command in ("search", "diagnose"):
            assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 1
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert (err["field"], err["stage"]) == (field, command)
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    @pytest.mark.parametrize(
        "field, line, changed",
        [
            ("train.objective", "objective = dar", "objective = mse"),
            ("train.hidden", "hidden = 8", "hidden = 16"),
            ("train.learning_rate", "learning_rate = 0.001", "learning_rate = 0.002"),
            ("train.seed", "hidden = 8", "hidden = 8\nseed = 5"),
            # a model trained on other data: every [task] key
            ("task.name", "name = quadratic_bowl", "name = branin"),
            ("task.pool_size", "pool_size = 200", "pool_size = 300"),
            ("task.keep_fraction", "keep_fraction = 0.6", "keep_fraction = 0.5"),
            ("task.noise_std", "keep_fraction = 0.6", "keep_fraction = 0.6\nnoise_std = 0.1"),
            ("task.seed", "seed = 0", "seed = 1"),
        ],
        ids=[
            "objective",
            "hidden",
            "learning_rate",
            "seed",
            "task_name",
            "task_pool_size",
            "task_keep_fraction",
            "task_noise_std",
            "task_seed",
        ],
    )
    def test_model_of_another_config_refused(self, tmp_path, capsys, field, line, changed):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert line in FAST_CFG
        cfg_file.write_text(FAST_CFG.replace(line, changed))
        self._assert_search_and_diagnose_refuse(cfg_file, out, field, capsys)

    def test_model_of_another_dim_refused_naming_task(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
        trained, model = load_model(out / "model.json"), init_surrogate(3, 8, seed=0)
        model.objective, model.train_config = trained.objective, trained.train_config
        save_model(model, out / "model.json")
        self._assert_search_and_diagnose_refuse(cfg_file, out, "task.name", capsys)

    def test_model_without_task_section_refused(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
        data = json.loads((out / "model.json").read_text())
        del data["task"]
        (out / "model.json").write_text(json.dumps(data))
        self._assert_search_and_diagnose_refuse(cfg_file, out, "task.name", capsys)

    def test_train_needs_no_gen_data(self, tmp_path, capsys):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        assert main(["run", "--config", str(cfg_file), "--out", str(tmp_path / "run")]) == 0
        out = tmp_path / "fresh" / "train"
        assert main(["train", "--config", str(cfg_file), "--out", str(out)]) == 0
        assert sorted(p.name for p in out.iterdir()) == ["loss_trace.csv", "model.json"]
        for name in ("loss_trace.csv", "model.json"):
            assert (out / name).read_bytes() == (tmp_path / "run" / name).read_bytes(), name

    @pytest.mark.parametrize("field, value", BAD_VALUES)
    def test_staged_bad_value_exit_one_before_writing(self, tmp_path, capsys, field, value):
        section, key = field.split(".")
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(f"[{section}]\n{key} = {value}\n")
        out = tmp_path / "out"
        for command in ("gen-data", "train", "search", "diagnose"):
            assert main([command, "--config", str(cfg_file), "--out", str(out)]) == 1
            assert not out.exists()
            err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert (err["field"], err["stage"]) == (field, command)

    @pytest.mark.parametrize("command", ["gen-data", "train", "run"])
    def test_negative_seed_flag_names_task_seed(self, tmp_path, capsys, command):
        cfg_file = tmp_path / "c.cfg"
        cfg_file.write_text(FAST_CFG)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg_file), "--out", str(out), "--seed", "-3"]) == 1
        assert not out.exists()
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["field"] == "task.seed"
