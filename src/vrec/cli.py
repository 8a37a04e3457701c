"""Command-line entry point wiring configs, data, training stages, and reports.

Every subcommand reads a JSON run configuration (see config.py for the
schema), applies flag overrides, and writes its outputs under the configured
directory. Each stage command loads its inputs and runs one stage of
pipeline.py. Exit codes: 0 success, 1 runtime failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

from .backbone import Backbone
from .checkpoint import load_model
from .config import SEED_ENV_VAR, ConfigError, RunConfig, check_max_positions, load_config
from .evaluation import timing_overhead, write_metrics_csv
from .pipeline import (SWEEPS, VARIANTS, VERIFIER_DATA, ablate, build_labelings, load_corpus,
                       load_verifier_data, run_collection, run_eval, run_stage0,
                       run_stage1, run_stage2, step_scalability, sweep)
from .reasoning import export_traces, homogeneity, run_reasoning
from .verifiers import make_bank

__all__ = ["main"]


class UsageError(Exception):
    """Malformed flag value; reported like an argparse usage failure (exit 2)."""


# -- shared plumbing -------------------------------------------------------


def _resolved(args) -> RunConfig:
    cfg = load_config(args.config)
    seed, source = getattr(args, "seed", None), "--seed"
    if seed is None and SEED_ENV_VAR in os.environ:
        seed, source = os.environ[SEED_ENV_VAR], SEED_ENV_VAR
    if seed is not None:
        try:
            cfg = cfg.with_seed(int(seed))
        except ValueError as e:
            raise ConfigError(f"{source}: {e}")
    if getattr(args, "out", None):
        cfg = replace(cfg, out=Path(args.out))
    if getattr(args, "m", None) is not None:
        cfg = cfg.with_m(args.m)
    if cfg.out is None:
        raise ConfigError("no output directory: set 'out' in the config or pass --out")
    cfg.out.mkdir(parents=True, exist_ok=True)
    return cfg


def _load_stage(cfg: RunConfig, name: str):
    path = cfg.out / name
    if not path.exists():
        raise FileNotFoundError(f"{path} not found; run the earlier stages first")
    return load_model(path)


def _number(tok: str) -> int | float:
    try:
        return int(tok)
    except ValueError:
        return float(tok)


def _step_count(text: str) -> int:
    """A latent step count (``--m``, each of ``--steps``): a whole number of 0 or more."""
    if not text.strip().isdigit():
        raise argparse.ArgumentTypeError(
            f"step counts are non-negative whole numbers, got {text.strip()!r}")
    return int(text)


def _parse_list(text: str, flag: str, parse=int) -> list:
    try:
        return [parse(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}")
    except argparse.ArgumentTypeError as e:
        raise UsageError(f"{flag}: {e}")


# -- subcommands -----------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = _resolved(args)
    if cfg.synth is None:
        raise ConfigError("gen-data requires a data.synth section")
    items, _ = load_corpus(cfg, out_dir=cfg.out)
    print(f"wrote {len(items)} items and {cfg.synth.n_users} interaction logs to {cfg.out}")
    return 0


def cmd_label(args) -> int:
    cfg = _resolved(args)
    if not cfg.dimensions:
        raise ConfigError("label requires at least one entry in 'dimensions'")
    items, split = load_corpus(cfg)
    for lab in build_labelings(cfg, items, split, out_dir=cfg.out):
        print(f"{lab.dimension}: {lab.d_i} classes -> {cfg.out}/labeling_{lab.dimension}.jsonl")
    return 0


def cmd_pretrain_backbone(args) -> int:
    cfg = _resolved(args)
    items, split = load_corpus(cfg)
    backbone = Backbone(cfg.model_config(len(items)))
    losses = run_stage0(backbone, split, cfg)
    final = f", final loss {losses[-1]:.4f}" if losses else ""
    print(f"stage 0: {len(split.train)} samples, {len(losses)} epochs{final} "
          f"-> {cfg.out / 'stage0.ckpt'}")
    return 0


def cmd_collect(args) -> int:
    cfg = _resolved(args)
    items, split = load_corpus(cfg)
    backbone, _ = _load_stage(cfg, "stage0.ckpt")
    labelings = build_labelings(cfg, items, split)
    dataset = run_collection(backbone, split, labelings, cfg)
    positives = int(dataset.positive.sum())
    print(f"collected {len(dataset)} traces ({positives} positive) "
          f"-> {cfg.out / VERIFIER_DATA}")
    return 0


def cmd_pretrain_verifiers(args) -> int:
    cfg = _resolved(args)
    if not cfg.dimensions:
        raise ConfigError("pretrain-verifiers requires at least one entry in 'dimensions'")
    items, split = load_corpus(cfg)
    backbone, _ = _load_stage(cfg, "stage0.ckpt")
    labelings = build_labelings(cfg, items, split)
    dataset = load_verifier_data(cfg.out / VERIFIER_DATA, labelings, backbone)
    _, history = run_stage1(backbone, dataset, labelings, cfg)
    summary = "0 epochs"
    if not dataset.r_steps.shape[1]:
        summary = "no trace has a latent step, nothing to fit"
    elif history:
        acc, neg_h = history[-1]
        summary = f"accuracy {acc:.3f}, negative entropy {neg_h:.3f}"
    print(f"stage 1: {summary} -> {cfg.out / 'stage1.ckpt'}")
    return 0


def cmd_finetune(args) -> int:
    cfg = _resolved(args)
    items, split = load_corpus(cfg)
    backbone, bank = _load_stage(cfg, "stage1.ckpt")
    if bank is None:
        raise ValueError("stage1.ckpt holds no verifier bank; run pretrain-verifiers first")
    stage0, _ = _load_stage(cfg, "stage0.ckpt")  # stage 1 leaves the backbone as it found it
    if stage0.values.tobytes() != backbone.values.tobytes():
        raise ValueError(f"{cfg.out / 'stage1.ckpt'} is stale: its backbone is not the one in "
                         f"{cfg.out / 'stage0.ckpt'}; run pretrain-verifiers again")
    labelings = build_labelings(cfg, items, split)
    rows = run_stage2(backbone, bank, split, labelings, cfg)
    summary = "0 epochs"
    if rows:
        last = rows[-1]
        summary = (f"total {last['total']:.4f}, "
                   f"val recall@5 {last.get('val_recall@5', float('nan')):.4f}")
    print(f"stage 2: {summary} -> {cfg.out / 'final.ckpt'}")
    return 0


def cmd_eval(args) -> int:
    cfg = _resolved(args)
    _, split = load_corpus(cfg)
    backbone, bank = _load_stage(cfg, "final.ckpt")
    report = run_eval(backbone, bank, split, cfg, args.m)
    for k in cfg.eval_ks:
        print(f"recall@{k} {report.recall[k]:.4f}  ndcg@{k} {report.ndcg[k]:.4f}  "
              f"({report.n_samples} samples)")
    return 0


def cmd_ablate(args) -> int:
    cfg = _resolved(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()] \
        if args.variants else None
    for row in ablate(cfg, variants=variants):
        print(f"{row['variant']}: recall@5 {row['recall@5']:.4f} "
              f"ndcg@5 {row['ndcg@5']:.4f}")
    return 0


def cmd_sweep(args) -> int:
    cfg = _resolved(args)
    values = _parse_list(args.values, "--values", _number)
    if not values:
        raise UsageError("--values must list at least one value")
    for row in sweep(cfg, args.param, values):
        print(f"{args.param}={row['value']}: recall@5 {row['recall@5']:.4f}")
    return 0


def cmd_step_scan(args) -> int:
    cfg = _resolved(args)
    steps = _parse_list(args.steps, "--steps", _step_count)
    if not steps:
        raise UsageError("--steps must list at least one step count")
    for row in step_scalability(cfg, steps=steps):
        print(f"m={row['m']}: recall@5 {row['recall@5']:.4f}")
    return 0


def cmd_bench(args) -> int:
    cfg = _resolved(args)
    steps = _parse_list(args.steps, "--steps", _step_count) if args.steps \
        else [1, 2, 4, 6, 8, 10]
    items, split = load_corpus(cfg)
    final = cfg.out / "final.ckpt"
    if final.exists():
        backbone, bank = load_model(final)
        if bank is None:
            raise ValueError(f"{final} holds no verifier bank; bench needs one")
    else:
        if not cfg.dimensions:
            raise ConfigError("bench requires at least one labeling dimension")
        backbone = Backbone(cfg.model_config(len(items)))
        labelings = build_labelings(cfg, items, split)
        bank = make_bank([(lab.dimension, lab.d_i) for lab in labelings],
                         d_m=backbone.cfg.d_m, seed=cfg.hyper.seed)  # untrained
    check_max_positions(backbone.cfg.max_positions, steps)
    result = timing_overhead(backbone, bank, split.test or split.train,
                             steps=steps, out_dir=cfg.out)
    for row in result["rows"]:
        print(f"m={row['m']}: without {row['t_without_s']*1e3:.3f} ms, "
              f"with {row['t_with_s']*1e3:.3f} ms, overhead {row['overhead_pct']:.2f}%")
    return 0


def cmd_inspect(args) -> int:
    cfg = _resolved(args)
    _, split = load_corpus(cfg)
    backbone, bank = _load_stage(cfg, "final.ckpt")
    m = args.m if args.m is not None else backbone.cfg.m
    samples = split.test or split.valid or split.train
    traces = [run_reasoning(backbone, bank, s.history, m)[0] for s in samples]
    export_traces(traces, cfg.out / "traces.jsonl", include_vectors=args.vectors)
    per_step = []
    if m > 0 and len(traces) >= 2:
        for t in range(m):
            mean_cos, projection = homogeneity(traces, t)
            per_step.append({"step": t, "mean_cosine": mean_cos,
                             "projection": projection.tolist()})
            print(f"step {t}: mean pairwise cosine {mean_cos:.4f}")
    (cfg.out / "inspect.json").write_text(
        json.dumps({"m": m, "n_traces": len(traces), "per_step": per_step},
                   indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(traces)} traces -> {cfg.out / 'traces.jsonl'}")
    return 0


# -- plot-data: long-form (x, y, series) tables from existing reports -------


def _plot_rows(path: Path) -> list[dict]:
    """Each metric of each row as a point, at x the column before recall@5."""
    with path.open(encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    x_column = reader.fieldnames[reader.fieldnames.index("recall@5") - 1]
    return [{"x": row[x_column], "y": float(value), "series": column}
            for row in rows for column, value in row.items()
            if column.startswith(("recall@", "ndcg@")) and value != ""]


def cmd_plot_data(args) -> int:
    cfg = _resolved(args)
    sources = [cfg.out / name for name in ("ablation.csv", "steps.csv")
               if (cfg.out / name).exists()] + sorted(cfg.out.glob("sweep_*.csv"))
    if not sources:
        raise FileNotFoundError(f"nothing to plot under {cfg.out}: expected "
                                "ablation.csv, steps.csv, or sweep_*.csv")
    for src in sources:
        rows = _plot_rows(src)
        write_metrics_csv(cfg.out / f"plot_{src.name}", rows, ["x", "y", "series"])
        print(f"{src.name} -> plot_{src.name} ({len(rows)} points)")
    return 0


# -- parser ----------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vrec",
        description="Latent reasoning recommender with verifier adjustment: "
                    "data, staged training, evaluation, and reports.")
    subs = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    def add(name, func, help_text, with_m=False):
        sub = subs.add_parser(name, help=help_text, description=help_text)
        sub.set_defaults(func=func)
        sub.add_argument("--config", required=True, help="path to a JSON run config")
        sub.add_argument("--seed", type=int, default=None,
                         help=f"override every seed (also {SEED_ENV_VAR} env var)")
        sub.add_argument("--out", default=None, help="override the output directory")
        if with_m:
            sub.add_argument("--m", type=_step_count, default=None,
                             help="override the reasoning step count")
        return sub

    add("gen-data", cmd_gen_data, "write a synthetic corpus as JSON lines")
    add("label", cmd_label, "build and save group labelings per dimension")
    add("pretrain-backbone", cmd_pretrain_backbone, "stage 0: recommendation-only training")
    add("collect-verifier-data", cmd_collect,
        "stage 1 data: greedy-decode traces into positives/negatives")
    add("pretrain-verifiers", cmd_pretrain_verifiers,
        "stage 1: fit the verifier bank on collected traces")
    add("finetune", cmd_finetune, "stage 2: joint verifiable fine-tuning")
    add("eval", cmd_eval, "rank the test split and write metrics", with_m=True)
    add("ablate", cmd_ablate, "train and evaluate ablation variants").add_argument(
        "--variants", default=None,
        help=f"comma-separated variant names (default: full): {', '.join(VARIANTS)}")
    sub = add("sweep", cmd_sweep, "train and evaluate across one hyper-parameter")
    sub.add_argument("--param", required=True,
                     help=f"hyper-parameter to sweep: {', '.join(SWEEPS)}")
    sub.add_argument("--values", required=True, help="comma-separated values")
    add("step-scan", cmd_step_scan, "metrics per reasoning step count").add_argument(
        "--steps", required=True, help="comma-separated step counts")
    add("bench", cmd_bench, "inference timing with and without verification").add_argument(
        "--steps", default=None, help="comma-separated step counts (default 1,2,4,6,8,10)")
    add("inspect", cmd_inspect, "export traces, per-step homogeneity, and a 2-D projection",
        with_m=True).add_argument("--vectors", action="store_true",
                                  help="include raw latent vectors in traces.jsonl")
    add("plot-data", cmd_plot_data, "rewrite report CSVs as (x, y, series) tables")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # runtime failure contract: exit 1 with a message
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
