"""Command-line entry point.

Subcommands: fit, transform, evaluate, synth, scenario, baseline-pca.
Config precedence is built-in defaults < --config file < command-line
overrides; every run directory receives the effective config and a manifest
of the artifacts written. Exit codes: 0 success, 2 usage or configuration
error, 1 runtime error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import io as fio
from .core import FedfilmError, corrected_rows, identity_adapter
from .federation import AGGREGATION_MODES, ScenarioPlan, run_federated_fit, run_scenario
from .metrics import METRIC_SUBSETS, aggregate_scores, evaluate
from .objective import TARGETS, TrainConfig
from .synth import SynthSpec, generate, pca


class UsageError(FedfilmError):
    """Bad flags or configuration; maps to exit code 2."""


def _add_config_flags(parser, *, training=True, metrics=True):
    grp = parser.add_argument_group("config overrides")
    grp.add_argument("--config", help="JSON config file (flat key/value)")
    if training:
        grp.add_argument("--mu", type=float, help="proximal coefficient")
        grp.add_argument("--lambda", dest="lam", type=float, help="l2 coefficient")
        grp.add_argument("--learning-rate", type=float)
        grp.add_argument("--local-epochs", type=int)
        grp.add_argument("--rounds", type=int)
        grp.add_argument("--minibatch-size", type=int)
        grp.add_argument("--train-fraction", type=float)
        grp.add_argument("--target", choices=TARGETS,
                         help="reconstruction target: each batch's own embedding "
                              "(self) or its embedding on the pooled moments (pooled)")
        grp.add_argument("--aggregation-mode", choices=AGGREGATION_MODES)
        grp.add_argument("--threads", type=int, help="reserved worker cap, 0 = auto; unused")
    if metrics:
        grp.add_argument("--metric-subset", choices=sorted(METRIC_SUBSETS))
        grp.add_argument("--knn-k", type=int)
        grp.add_argument("--kmeans-restarts", type=int)
    grp.add_argument("--seed", type=int)


def _effective_config(args) -> fio.RunConfig:
    cfg = fio.RunConfig(train=TrainConfig())
    if getattr(args, "config", None):
        cfg = fio.load_config(args.config, base=cfg)
    # each override flag's dest is its config field's name
    overrides = {key: getattr(args, name) for key, (_, name, _) in fio.CONFIG_KEYS.items()
                 if getattr(args, name, None) is not None}
    return fio.config_from_dict(overrides, base=cfg)


def _prepare_outdir(path) -> Path:
    out = Path(path)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _finish(outdir: Path, command: str, artifacts: list[str], cfg: fio.RunConfig | None):
    if cfg is not None:
        fio.save_config(outdir / "effective_config.json", cfg)
        artifacts = artifacts + ["effective_config.json"]
    fio.save_manifest(outdir, command, artifacts, cfg)


def _cmd_fit(args) -> int:
    cfg = _effective_config(args)
    emb, meta = fio.load_embeddings(args.embeddings, args.metadata)
    init = fio.load_adapter(args.init_adapter) if args.init_adapter \
        else identity_adapter(meta.batch_names, emb.d)
    adapter, log = run_federated_fit(emb, meta, cfg.train, init,
                                     mode=cfg.aggregation_mode)
    out = _prepare_outdir(args.out)
    fio.save_adapter(out / "adapter.json", adapter)
    fio.save_training_log(out / "training_log.csv", log)
    _finish(out, "fit", ["adapter.json", "training_log.csv"], cfg)
    return 0


def _cmd_transform(args) -> int:
    emb, meta = fio.load_embeddings(args.embeddings, args.metadata)
    adapter = fio.load_adapter(args.adapter)
    corrected = corrected_rows(emb, meta, adapter)  # raises before --out is created
    out = _prepare_outdir(args.out)
    # the writer's workers compute and format their rows from the shared input
    fio.save_embedding_rows(out / "corrected_embeddings.csv", emb.cell_ids, emb.d, corrected)
    _finish(out, "transform", ["corrected_embeddings.csv"], None)
    return 0


def _cmd_evaluate(args) -> int:
    self_test = args.bio is not None or args.batch is not None
    if self_test:
        if args.bio is None or args.batch is None:
            raise UsageError("--bio and --batch must be given together")
        if args.embeddings or args.metadata:
            raise UsageError("--bio/--batch (aggregate self-test) excludes "
                             "--embeddings/--metadata")
        overall = aggregate_scores(args.bio, args.batch)
        print(f"bio={args.bio!r} batch={args.batch!r} overall={overall!r}")
        return 0
    if not (args.embeddings and args.metadata):
        raise UsageError("evaluate needs --embeddings and --metadata "
                         "(or --bio/--batch for the aggregate self-test)")
    if not args.out:
        raise UsageError("evaluate needs --out")
    cfg = _effective_config(args)
    emb, meta = fio.load_embeddings(args.embeddings, args.metadata)
    report = evaluate(emb, meta, subset=cfg.metric_subset, knn_k=cfg.knn_k,
                      seed=cfg.train.seed, kmeans_restarts=cfg.kmeans_restarts)
    out = _prepare_outdir(args.out)
    artifacts = fio.save_report(out, report)
    _finish(out, "evaluate", artifacts, cfg)
    print(f"bio={report.bio!r} batch={report.batch!r} overall={report.overall!r}")
    return 0


def _cmd_synth(args) -> int:
    spec = SynthSpec(
        n_batches=args.batches,
        n_types=args.types,
        dim=args.dim,
        cells_per_batch=args.cells_per_batch,
        centroid_scale=args.centroid_scale,
        noise_sigma=args.noise_sigma,
        effect_scale_range=(args.scale_lo, args.scale_hi),
        effect_shift_sigma=args.shift_sigma,
        seed=args.seed if args.seed is not None else 0,
    )
    emb, meta, truth = generate(spec)
    out = _prepare_outdir(args.out)
    fio.save_embeddings(out / "embeddings.csv", emb)
    fio.save_metadata(out / "metadata.csv", meta)
    fio.save_ground_truth(out / "ground_truth.json", truth)
    _finish(out, "synth", ["embeddings.csv", "metadata.csv", "ground_truth.json"], None)
    return 0


def _cmd_scenario(args) -> int:
    if (args.features is None) == (args.embeddings is None):
        raise UsageError("scenario needs exactly one of --features (cumulative "
                         "re-embedding) or --embeddings (fixed embedding)")
    cfg = _effective_config(args)
    try:
        plan = fio.load_plan(args.plan)
    except fio.LoadError as exc:
        raise UsageError(str(exc)) from exc
    if plan.mode == "cumulative" and args.features and plan.pca_components is None:
        raise UsageError("cumulative scenarios over raw features need "
                         "pca_components in the plan")
    if plan.mode == "continual" and args.features:
        raise UsageError("continual scenarios run on a fixed --embeddings matrix")
    data_path = args.features if args.features else args.embeddings
    data, meta = fio.load_embeddings(data_path, args.metadata)
    if args.embeddings and plan.pca_components is not None and plan.mode == "cumulative":
        # precomputed embeddings: stages subset the fixed matrix, no re-embed
        plan = ScenarioPlan(mode=plan.mode, stages=plan.stages, pca_components=None)
    results = run_scenario(plan, data, meta, cfg.train, mode=cfg.aggregation_mode,
                           knn_k=cfg.knn_k,
                           kmeans_restarts=cfg.kmeans_restarts,
                           metrics_seed=cfg.train.seed)
    out = _prepare_outdir(args.out)
    artifacts = []
    earlier = None  # the previous stage's file and matrix, whose lines a continual stage repeats
    for stage in results:
        sdir = out / f"stage{stage.stage_index}"
        sdir.mkdir(exist_ok=True)
        fio.save_embeddings(sdir / "corrected_embeddings.csv", stage.corrected, earlier)
        earlier = (sdir / "corrected_embeddings.csv", stage.corrected)
        fio.save_adapter(sdir / "adapter.json", stage.adapter)
        fio.save_training_log(sdir / "training_log.csv", stage.log)
        names = ["corrected_embeddings.csv", "adapter.json", "training_log.csv",
                 *fio.save_report(sdir, stage.report, stem="metrics"),
                 *fio.save_report(sdir, stage.baseline_report, stem="baseline_metrics")]
        artifacts += [f"{sdir.name}/{name}" for name in names]
    _finish(out, "scenario", artifacts, cfg)
    return 0


def _cmd_baseline_pca(args) -> int:
    features = fio.load_embedding_matrix(args.features)
    emb = pca(features, args.components)
    out = _prepare_outdir(args.out)
    fio.save_embeddings(out / "embeddings.csv", emb)
    _finish(out, "baseline-pca", ["embeddings.csv"], None)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedfilm",
        description="Post-hoc batch-effect correction of cell embeddings with "
                    "batch-indexed FiLM adapters fit by a simulated federated loop.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="fit an adapter on embeddings + metadata")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--metadata", required=True)
    p.add_argument("--init-adapter", help="starting adapter (default: identity)")
    p.add_argument("--out", required=True, help="run directory")
    _add_config_flags(p, metrics=False)
    p.set_defaults(func=_cmd_fit)

    p = sub.add_parser("transform", help="apply an adapter to embeddings")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--metadata", required=True)
    p.add_argument("--adapter", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("evaluate", help="integration metrics report")
    p.add_argument("--embeddings")
    p.add_argument("--metadata")
    p.add_argument("--out")
    p.add_argument("--bio", type=float,
                   help="aggregate self-test: precomputed bio score")
    p.add_argument("--batch", type=float,
                   help="aggregate self-test: precomputed batch score")
    _add_config_flags(p, training=False)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("synth", help="write a seeded synthetic benchmark instance")
    p.add_argument("--batches", type=int, required=True)
    p.add_argument("--types", type=int, required=True)
    p.add_argument("--dim", type=int, required=True)
    p.add_argument("--cells-per-batch", type=int, required=True)
    p.add_argument("--centroid-scale", type=float, default=3.0)
    p.add_argument("--noise-sigma", type=float, default=0.5)
    p.add_argument("--scale-lo", type=float, default=1.0,
                   help="low end of the multiplicative effect range")
    p.add_argument("--scale-hi", type=float, default=1.0)
    p.add_argument("--shift-sigma", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("scenario", help="run a cumulative or continual plan")
    p.add_argument("--plan", required=True, help="JSON scenario plan")
    p.add_argument("--features", help="raw feature matrix (cumulative re-embedding)")
    p.add_argument("--embeddings", help="fixed precomputed embedding matrix")
    p.add_argument("--metadata", required=True)
    p.add_argument("--out", required=True)
    _add_config_flags(p)
    p.set_defaults(func=_cmd_scenario)

    p = sub.add_parser("baseline-pca", help="PCA baseline embedding of raw features")
    p.add_argument("--features", required=True)
    p.add_argument("--components", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_baseline_pca)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, fio.ConfigError) as exc:
        print(f"fedfilm {args.command}: {exc}", file=sys.stderr)
        return 2
    except (FedfilmError, OSError) as exc:  # OSError: an --out or output file that cannot be written
        print(f"fedfilm {args.command}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
