"""Command-line entry point.

Commands: featurize | pretrain | finetune | evaluate | embed | ablate | gen-toy.

Configuration lives in a flat UTF-8 key-value file ("pretrain.lr = 1e-5",
'#' comments), overridden by repeatable --set KEY=VALUE flags and then by
the named convenience flags (--seed, --out-dir, ...).  Unknown keys are
rejected, never ignored.  Every command is a pure function of (config file,
flags, seed, input files); outputs land under out_dir.

Env: CT_LOG_LEVEL in {error, info, debug} (default info).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys

from .augment import AugmentConfig
from .featurize import GaussianBasis, graph_to_json
from .geometry import NeighborConfig
from .loss import LossConfig
from .model import (
    ConfigMismatch,
    CorruptCheckpoint,
    ModelConfig,
    load_checkpoint,
    params_from_arrays,
)
from .pipeline import (
    FinetuneConfig,
    PretrainConfig,
    ablation_run,
    entry_graph,
    evaluate,
    export_embeddings,
    finetune,
    pretrain,
)
from .structure_io import atomic_open, load_dataset, naming
from .toydata import write_toy_dataset

logger = logging.getLogger("xtalssl")


class UnknownCommand(ValueError):
    pass


class InvalidConfig(ValueError):
    pass


_COMMANDS = ("featurize", "pretrain", "finetune", "evaluate", "embed", "ablate", "gen-toy")


def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "1", "yes", "on"):
        return True
    if lowered in ("false", "0", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_tuple(raw: str) -> tuple[float, ...]:
    return tuple(float(part) for part in raw.split(","))


def _parse_int_list(raw: str) -> list[int]:
    return [int(part) for part in raw.split(",")]


_SCHEMA = {
    "seed": int,
    "data_root": str,
    "index_file": str,
    "checkpoint": str,
    "out_dir": str,
    "model.hidden_dim": int,
    "model.n_conv": int,
    "model.proj_dim": int,
    "model.head_hidden": int,
    "neighbor.cutoff": float,
    "neighbor.max_neighbors": int,
    "basis.d_min": float,
    "basis.d_max": float,
    "basis.step": float,
    "basis.var": float,
    "augment.enable_perturb": _parse_bool,
    "augment.enable_atom_mask": _parse_bool,
    "augment.enable_edge_mask": _parse_bool,
    "augment.max_displacement": float,
    "augment.mask_fraction": float,
    "loss.lambda": float,
    "loss.eps": float,
    "pretrain.lr": float,
    "pretrain.batch": int,
    "pretrain.epochs": int,
    "pretrain.val_fraction": float,
    "finetune.lr": float,
    "finetune.batch": int,
    "finetune.epochs": int,
    "finetune.split": _parse_float_tuple,
    "finetune.init_checkpoint": str,
    "ablate.seeds": _parse_int_list,
}


def parse_config_text(text: str) -> dict[str, str]:
    """Flat 'key = value' lines; '#' starts a comment; blank lines ignored."""
    kv: dict[str, str] = {}
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got {raw_line.strip()!r}")
        key, _, value = line.partition("=")
        kv[key.strip()] = value.strip()
    return kv


def _typed(kv: dict[str, str]) -> dict[str, object]:
    typed: dict[str, object] = {}
    for key, raw in kv.items():
        if key not in _SCHEMA:
            raise InvalidConfig(f"unknown config key: {key!r}")
        try:
            typed[key] = _SCHEMA[key](raw)
        except (ValueError, TypeError):
            raise InvalidConfig(f"invalid value for {key!r}: {raw!r}") from None
    return typed


@dataclasses.dataclass
class RunConfig:
    seed: int
    data_root: str | None
    index_file: str | None
    checkpoint: str | None
    out_dir: str | None
    model: ModelConfig
    neighbor: NeighborConfig
    basis: GaussianBasis
    pretrain: PretrainConfig
    finetune: FinetuneConfig
    ablate_seeds: list[int]


def build_run_config(kv: dict[str, str]) -> RunConfig:
    typed = _typed(kv)

    def section(prefix: str) -> dict[str, object]:
        return {key.split(".", 1)[1]: value
                for key, value in typed.items() if key.startswith(prefix + ".")}

    seed = int(typed.get("seed", 0))
    try:
        neighbor = NeighborConfig(**section("neighbor"))
        basis = GaussianBasis(**section("basis"))
        augment = AugmentConfig(**section("augment"))
        loss_kwargs = section("loss")
        if "lambda" in loss_kwargs:
            loss_kwargs["lam"] = loss_kwargs.pop("lambda")
        loss = LossConfig(**loss_kwargs)
        model = ModelConfig(edge_feat_dim=basis.n_centers, **section("model"))
        pre = PretrainConfig(augment=augment, neighbor=neighbor, basis=basis, loss=loss,
                             seed=seed, **section("pretrain"))
        fine = FinetuneConfig(neighbor=neighbor, basis=basis, seed=seed, **section("finetune"))
    except ValueError as exc:
        raise InvalidConfig(f"invalid configuration: {exc}") from None
    return RunConfig(
        seed=seed,
        data_root=typed.get("data_root"),
        index_file=typed.get("index_file"),
        checkpoint=typed.get("checkpoint"),
        out_dir=typed.get("out_dir"),
        model=model, neighbor=neighbor, basis=basis, pretrain=pre, finetune=fine,
        ablate_seeds=list(typed.get("ablate.seeds", [0, 1, 2])),
    )


def _setup_logging() -> None:
    raw = os.environ.get("CT_LOG_LEVEL", "info").strip().lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if raw not in levels:
        raise InvalidConfig(f"CT_LOG_LEVEL must be one of {sorted(levels)}, got {raw!r}")
    logging.basicConfig(level=levels[raw], stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")
    logger.setLevel(levels[raw])


def _gather_kv(args: argparse.Namespace) -> dict[str, str]:
    kv: dict[str, str] = {}
    if getattr(args, "config", None):
        with open(args.config, "r", encoding="utf-8") as fh:
            kv.update(parse_config_text(fh.read()))
    for pair in getattr(args, "set", None) or []:
        if "=" not in pair:
            raise InvalidConfig(f"--set expects KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        kv[key.strip()] = value.strip()
    for flag, key in (("seed", "seed"), ("out_dir", "out_dir"), ("data_root", "data_root"),
                      ("index_file", "index_file"), ("checkpoint", "checkpoint"),
                      ("init_checkpoint", "finetune.init_checkpoint")):
        value = getattr(args, flag, None)
        if value is not None:
            kv[key] = str(value)
    return kv


def _require(cfg: RunConfig, field: str) -> str:
    value = getattr(cfg, field)
    if value is None:
        raise InvalidConfig(f"missing required config key: {field!r}")
    return value


def _load_data(cfg: RunConfig):
    return load_dataset(_require(cfg, "data_root"), index_file=cfg.index_file)


def _write(path: str, content: str) -> None:
    with atomic_open(path) as fh:
        fh.write(content.encode("utf-8"))


def _load_model_for_inference(cfg: RunConfig, need_head: bool):
    path = _require(cfg, "checkpoint")
    ck_cfg, arrays = load_checkpoint(path)
    has_head = "head.w1" in arrays
    if need_head and (not has_head or "label_mean" not in arrays):
        raise CorruptCheckpoint("not a fine-tuned model checkpoint (missing head or label stats)")
    with naming(path, CorruptCheckpoint, ConfigMismatch):
        params = params_from_arrays(ck_cfg, arrays,
                                    with_projector="projector.w1" in arrays, with_head=has_head)
    return params, arrays


def _cmd_featurize(cfg: RunConfig) -> int:
    data = _load_data(cfg)
    out_dir = _require(cfg, "out_dir")
    os.makedirs(out_dir, exist_ok=True)
    lines = [graph_to_json(entry_graph(entry, cfg.neighbor, cfg.basis), id=entry.id)
             for entry in data.entries]
    _write(os.path.join(out_dir, "graphs.jsonl"), "\n".join(lines) + "\n")
    logger.info("featurized %d structures", len(data.entries))
    return 0


def _cmd_pretrain(cfg: RunConfig) -> int:
    data = _load_data(cfg)
    out_dir = _require(cfg, "out_dir")
    result = pretrain(data, cfg.model, cfg.pretrain, out_dir=out_dir)
    _write(os.path.join(out_dir, "report.json"), result.report.to_json())
    return 0


def _cmd_finetune(cfg: RunConfig) -> int:
    data = _load_data(cfg)
    out_dir = _require(cfg, "out_dir")
    result = finetune(data, cfg.model, cfg.finetune, out_dir=out_dir)
    _write(os.path.join(out_dir, "report.json"), result.report.to_json())
    return 0


def _cmd_evaluate(cfg: RunConfig) -> int:
    data = _load_data(cfg)
    out_dir = _require(cfg, "out_dir")
    params, arrays = _load_model_for_inference(cfg, need_head=True)
    metrics = evaluate(params, data, float(arrays["label_mean"]), float(arrays["label_std"]),
                       batch=cfg.finetune.batch, neighbor=cfg.neighbor, basis=cfg.basis)
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, "evaluation.json"),
           json.dumps(metrics, sort_keys=True, indent=2) + "\n")
    print(f"mae {metrics['mae']!r} over {metrics['n_entries']} entries")
    return 0


def _cmd_embed(cfg: RunConfig) -> int:
    data = _load_data(cfg)
    out_dir = _require(cfg, "out_dir")
    params, _ = _load_model_for_inference(cfg, need_head=False)
    os.makedirs(out_dir, exist_ok=True)
    _write(os.path.join(out_dir, "embeddings.csv"),
           export_embeddings(params, data, neighbor=cfg.neighbor, basis=cfg.basis))
    return 0


def _cmd_ablate(cfg: RunConfig) -> int:
    data = _load_data(cfg)
    out_dir = _require(cfg, "out_dir")
    ablation_run(data, data, cfg.model, cfg.pretrain, cfg.finetune,
                 seeds=cfg.ablate_seeds, out_dir=out_dir)
    return 0


_HANDLERS = {
    "featurize": _cmd_featurize,
    "pretrain": _cmd_pretrain,
    "finetune": _cmd_finetune,
    "evaluate": _cmd_evaluate,
    "embed": _cmd_embed,
    "ablate": _cmd_ablate,
}


def _build_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"xtalssl {command}")
    if command == "gen-toy":
        parser.add_argument("--n", type=int, required=True)
        parser.add_argument("--seed", type=int, default=0)
        parser.add_argument("--out", required=True)
        return parser
    parser.add_argument("--config")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--out-dir", dest="out_dir")
    parser.add_argument("--data-root", dest="data_root")
    parser.add_argument("--index-file", dest="index_file")
    parser.add_argument("--set", action="append", metavar="KEY=VALUE")
    if command in ("evaluate", "embed"):
        parser.add_argument("--checkpoint")
    if command == "finetune":
        parser.add_argument("--init-checkpoint", dest="init_checkpoint")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        _setup_logging()
        if not argv:
            raise UnknownCommand(f"no command given; expected one of {', '.join(_COMMANDS)}")
        command, rest = argv[0], argv[1:]
        if command not in _COMMANDS:
            raise UnknownCommand(f"unknown command {command!r}; expected one of {', '.join(_COMMANDS)}")
        try:
            args = _build_parser(command).parse_args(rest)
        except SystemExit as exc:
            return int(exc.code or 0)
        if command == "gen-toy":
            index_path = write_toy_dataset(args.n, args.seed, args.out)
            logger.info("wrote toy dataset index: %s", index_path)
            return 0
        cfg = build_run_config(_gather_kv(args))
        return _HANDLERS[command](cfg)
    except (UnknownCommand, InvalidConfig) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
