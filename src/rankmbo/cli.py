"""Command-line entry point.

Subcommands mirror the pipeline stages (gen-data, train, search, diagnose),
plus run (all stages), sweep (grid of runs), and compare (join manifests).
Every command validates its config, flags included, before it writes.  Each
staged command rebuilds the offline dataset from the config, as ``run`` does,
and reads only a ``model.json`` trained under that config (search, diagnose),
so they work in a ``run`` directory too; only ``run`` writes ``manifest.json``.
Exit codes: 0 ok, 1 validation error, 2 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .artifacts import write_json
from .config import PROFILES, ValidationError, apply_profile, load_config, reseed, validate
from .diagnostics import save_report_summary
from .harness import build_dataset, compare, error_record, run, run_diagnostics
from .harness import run_search, save_compare_rows, save_diagnostics, save_training
from .harness import sweep, train_model
from .objectives import get_objective
from .search import save_search_result
from .surrogate import load_model
from .tasks import get_task, save_dataset

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankmbo",
        description="Offline model-based optimization with ranking surrogates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None, help="override the base seed")
        p.add_argument(
            "--profile", choices=tuple(PROFILES), default=None, help="scale profile"
        )

    for name in ("gen-data", "train", "search", "diagnose", "run"):
        add_common(sub.add_parser(name))
    p = sub.add_parser("sweep")
    add_common(p)
    p.add_argument(
        "--set",
        dest="grid",
        action="append",
        default=[],
        metavar="PATH=V1,V2",
        help="grid axis, e.g. train.intra_ratio=0.0,0.1 (repeatable)",
    )
    p.add_argument("--seeds", default="0", help="comma-separated base seeds")
    p = sub.add_parser("compare")
    p.add_argument("run_dirs", nargs="+", help="run directories with manifests")
    p.add_argument("--out", required=True, help="comparison CSV path")
    return parser


def _load(args):
    """The config with the profile and seed flags applied, validated before
    any command writes."""
    cfg = load_config(args.config)
    apply_profile(cfg, args.profile)
    if args.seed is not None:
        reseed(cfg, args.seed)
    validate(cfg)
    return cfg


def _stage(args, trained: bool):
    """A staged command's validated config, output directory, dataset and,
    when ``trained``, the model of ``model.json``; ``--out`` is made only
    once the config has validated and the model has loaded and matched it."""
    cfg = _load(args)
    out = Path(args.out)
    model = _trained_model(cfg, out / "model.json") if trained else None
    out.mkdir(parents=True, exist_ok=True)
    return cfg, out, build_dataset(cfg)[1], model


def _trained_model(cfg, path: Path):
    """The model at ``path``, unless a config key differs from its training."""
    model = load_model(path)
    expected = cfg.train_config(get_objective(cfg.train.objective)[0]).to_dict()
    for key, got, want in [
        ("train.objective", model.objective, cfg.train.objective),
        ("train.hidden", model.layer_sizes[1:3], [cfg.train.hidden] * 2),
        *((f"train.{k}", (model.train_config or {}).get(k), v) for k, v in expected.items()),
        ("task.name", f"dim {model.dim}", f"dim {get_task(cfg.task.name).dim}"),
    ]:
        if got != want:
            raise ValidationError(key, f"model.json was trained with {got}, not {want}")
    return model


def _cmd_gen_data(args) -> int:
    _, out, dataset, _ = _stage(args, trained=False)
    save_dataset(dataset, out / "dataset.csv")
    print(f"wrote {out / 'dataset.csv'} ({len(dataset)} points)")
    return EXIT_OK


def _cmd_train(args) -> int:
    cfg, out, dataset, _ = _stage(args, trained=False)
    model, trace = train_model(cfg, dataset)
    save_training(out, model, trace)
    print(f"trained {cfg.train.objective} surrogate; final loss {trace[-1]:.6g}")
    return EXIT_OK


def _cmd_search(args) -> int:
    cfg, out, dataset, model = _stage(args, trained=True)
    result = run_search(cfg, model, dataset)
    save_search_result(result, out / "search.csv", out / "search.json")
    print(f"best true {result.best_true:.6g}, normalized {result.best_normalized:.4f}")
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    cfg, out, dataset, model = _stage(args, trained=True)
    report, audits = run_diagnostics(cfg, model, dataset)
    save_diagnostics(out, report, audits)
    save_report_summary(report, out / "diagnostics.json")
    print(f"overall ranking error {report.overall_error:.4f}")
    return EXIT_OK


def _cmd_run(args) -> int:
    cfg = _load(args)
    manifest = run(cfg, args.out, profile=args.profile)
    print(
        f"run complete: best_normalized={manifest['search']['best_normalized']:.4f} "
        f"overall_rank_error={manifest['diagnostics']['overall_error']:.4f}"
    )
    return EXIT_OK


def _cmd_sweep(args) -> int:
    cfg = _load(args)
    grid = {}
    for axis in args.grid:
        if "=" not in axis:
            raise ValidationError(axis, "expected PATH=V1,V2,...")
        path, values = (part.strip() for part in axis.split("=", 1))
        if path in grid:
            raise ValidationError(path, "repeated --set axis")
        grid[path] = [v.strip() for v in values.split(",") if v.strip()]
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise ValidationError("seeds", f"cannot parse {args.seeds!r} as integers")
    rows = sweep(cfg, grid, seeds, args.out)
    print(f"sweep complete: {len(rows)} cells x {len(seeds)} seeds")
    return EXIT_OK


def _cmd_compare(args) -> int:
    rows = compare(args.run_dirs)
    save_compare_rows(rows, args.out)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "train": _cmd_train,
    "search": _cmd_search,
    "diagnose": _cmd_diagnose,
    "run": _cmd_run,
    "sweep": _cmd_sweep,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = _COMMANDS[args.command]
    try:
        return command(args)
    except Exception as exc:
        record = error_record(exc, args.command)
        print(json.dumps(record), file=sys.stderr)
        if isinstance(exc, ValidationError):
            return EXIT_VALIDATION
        out = getattr(args, "out", None)
        if out is not None and Path(out).is_dir():
            write_json(Path(out) / "error.json", record)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
