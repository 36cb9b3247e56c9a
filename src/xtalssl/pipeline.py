"""Training orchestration: Adam, pre-training, fine-tuning, ablation harness.

Determinism contract: every run is a pure function of (configs, master seed,
input files).  The master seed fans out into independent per-purpose streams
(split / init / shuffle / augment / validation views) via SeedSequence spawn
keys, so e.g. changing the number of epochs never perturbs the weight init.
Wall-clock time is measured and logged but deliberately kept out of the
canonical report JSON so reports stay byte-identical across reruns.

Every call runs its encoder on two threads: the calling thread and one
worker thread that lives as long as the call (``_second_thread``), both
through ``_on_both_threads``.  For the whole call BLAS runs one thread, so
outputs do not depend on the BLAS thread variable.  The worker runs when
BLAS is pinned and two cores are usable; otherwise the calling thread does
both parts in turn, with the same results.

- Pretraining first builds each crystal's neighbor candidate list, once
  for the whole call, splitting the crystals into two contiguous halves,
  one per thread (``_view_candidates``).  Every epoch and validation pass
  takes its views from these lists.
- Pretraining encodes view a of a batch on the calling thread and view b
  on the worker, forward and backward (``_twin_embeddings``).  Each view
  records on its own tape and accumulates into its own gradients, which are
  summed in a fixed order once both are done, so results never depend on
  thread timing.
- Inference (``export_embeddings``, ``evaluate`` and fine-tuning's
  validation and test predictions) splits its ordered crystals into two
  contiguous halves, one per thread (``_encode_halves``).  The encoder has
  no batch norm, so a graph's latent does not depend on what it is merged
  with, and the split is the same whether or not the worker runs.
  Fine-tuning's training steps run on the calling thread alone.
"""

from __future__ import annotations

import contextlib
import contextvars
import ctypes
import dataclasses
import functools
import json
import logging
import os
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field

import numpy as np

from .augment import AugmentConfig, make_views, view_candidates
from .autodiff import Tape, Tensor, active_tape
from .featurize import CrystalGraph, GaussianBasis, build_graph, merge_graphs
from .geometry import (
    CandidateList,
    DegenerateCell,
    NeighborConfig,
    SingularLattice,
    build_neighbor_list,
)
from .loss import BatchTooSmall, LossConfig, bt_loss_from_embeddings, mae_metric, mse_loss
from .model import (
    ModelConfig,
    ModelParams,
    alias_params,
    check_basis_width,
    encode,
    init_params,
    load_encoder,
    project,
    regress,
    save_checkpoint,
)
from .structure_io import (
    Dataset,
    DatasetEntry,
    EmptyDataset,
    SplitSpec,
    atomic_open,
    naming,
    split_dataset,
)

logger = logging.getLogger("xtalssl")


class MissingGradient(ValueError):
    pass


class UnlabeledDataset(ValueError):
    pass


class NonFiniteLoss(ValueError):
    """A training loss, gradient or validation loss that is NaN or infinite."""


class InvalidLabelStats(ValueError):
    """Label standardization statistics that are non-finite, or a std that is not positive."""


# seed fan-out: the root SeedSequence(seed) drives dataset splitting (see
# structure_io.split_dataset); spawned children drive everything else
_INIT, _SHUFFLE, _AUGMENT, _VAL_VIEWS = 1, 2, 3, 4


def rng_for(seed: int, purpose_id: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(purpose_id,)))


class Adam:
    """Standard Adam with bias-corrected moments."""

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, tensors: list[Tensor], lr: float):
        self.tensors = list(tensors)
        self.lr = float(lr)
        self.m = [np.zeros_like(t.data) for t in self.tensors]
        self.v = [np.zeros_like(t.data) for t in self.tensors]
        self.step_count = 0

    def step(self) -> None:
        self.step_count += 1
        bc1 = 1.0 - self.beta1 ** self.step_count
        bc2 = 1.0 - self.beta2 ** self.step_count
        for i, t in enumerate(self.tensors):
            if t.grad is None:
                raise MissingGradient(f"parameter {i} has no gradient")
            g = t.grad
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * (g * g)
            m_hat = self.m[i] / bc1
            v_hat = self.v[i] / bc2
            t.data = t.data - self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


def _check_lr_and_seed(stage: str, cfg) -> None:
    # lr 0 is legal: a run that leaves the loaded weights as they are
    if not (np.isfinite(cfg.lr) and cfg.lr >= 0):
        raise ValueError(f"{stage} lr must be finite and >= 0, got {cfg.lr}")
    if cfg.seed < 0:  # numpy's SeedSequence takes no negative entropy
        raise ValueError(f"seed must be >= 0, got {cfg.seed}")


@dataclass(frozen=True)
class PretrainConfig:
    lr: float = 1e-5
    batch: int = 64
    epochs: int = 15
    val_fraction: float = 0.05
    augment: AugmentConfig = field(default_factory=AugmentConfig)
    neighbor: NeighborConfig = field(default_factory=NeighborConfig)
    basis: GaussianBasis = field(default_factory=GaussianBasis)
    loss: LossConfig = field(default_factory=LossConfig)
    seed: int = 0

    def __post_init__(self):
        _check_lr_and_seed("pretrain", self)
        if self.batch < 2:
            raise ValueError("pretrain batch must be >= 2 (loss needs batch statistics)")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")


@dataclass(frozen=True)
class FinetuneConfig:
    lr: float = 1e-3
    batch: int = 128
    epochs: int = 200
    split: tuple[float, float, float] = (0.6, 0.2, 0.2)
    init_checkpoint: str | None = None
    neighbor: NeighborConfig = field(default_factory=NeighborConfig)
    basis: GaussianBasis = field(default_factory=GaussianBasis)
    seed: int = 0

    def __post_init__(self):
        _check_lr_and_seed("finetune", self)
        if self.batch < 1:
            raise ValueError("finetune batch must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        SplitSpec(fractions=self.split, seed=self.seed)  # checks the fractions


@dataclass
class RunReport:
    kind: str
    config: dict
    epochs: list[dict]
    best_epoch: int
    n_train: int
    n_val: int
    n_test: int | None = None
    test_mae: float | None = None
    wall_clock_seconds: float | None = None

    def to_json(self) -> str:
        """Canonical JSON; wall clock is logged, not serialized, so reruns match byte for byte."""
        payload = {
            "kind": self.kind,
            "config": self.config,
            "epochs": self.epochs,
            "best_epoch": self.best_epoch,
            "n_train": self.n_train,
            "n_val": self.n_val,
        }
        if self.n_test is not None:
            payload["n_test"] = self.n_test
        if self.test_mae is not None:
            payload["test_mae"] = self.test_mae
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _config_echo(mcfg: ModelConfig, tcfg) -> dict:
    echo = {"model": dataclasses.asdict(mcfg)}
    echo.update(dataclasses.asdict(tcfg))
    return json.loads(json.dumps(echo))  # tuples -> lists, everything jsonable


def _snapshot(params: ModelParams) -> list[np.ndarray]:
    return [t.data.copy() for t in params.trainable()]


def _restore(params: ModelParams, snapshot: list[np.ndarray]) -> None:
    for t, data in zip(params.trainable(), snapshot):
        t.data = data.copy()


def _batches(order: np.ndarray, batch: int, drop_below: int) -> list[np.ndarray]:
    out = [order[i:i + batch] for i in range(0, len(order), batch)]
    return [b for b in out if len(b) >= drop_below]


def _naming(entry_id: str):
    """Re-raise a cell that the neighbor search rejects with the entry's id in front."""
    return naming(f"entry {entry_id!r}", DegenerateCell, SingularLattice)


def entry_graph(entry: DatasetEntry, neighbor: NeighborConfig, basis: GaussianBasis) -> CrystalGraph:
    """The crystal graph of one dataset entry; a rejected cell names the entry."""
    with _naming(entry.id):
        return build_graph(entry.structure, build_neighbor_list(entry.structure, neighbor), basis)


@functools.cache
def _blas_threads():
    """OpenBLAS's (get, set) pair for its thread count, or None for a BLAS this cannot reach.

    Looks the pair up once, on first use, under the symbol names of
    numpy's wheels and of system builds, through a numpy extension module,
    whose BLAS dependency ``dlsym`` searches too.
    """
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
    except (AttributeError, OSError):
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
        get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
        set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


def _usable_cores() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# the BLAS thread count is global to the process: calls that overlap in
# user threads share one pin, and the last to exit restores the count
_pin_lock = threading.Lock()
_pin_depth = 0
_pin_restore = 0


@contextlib.contextmanager
def _second_thread():
    """One BLAS thread for a call, and a one-thread executor for its second part or None.

    One BLAS thread per compute thread makes outputs independent of the
    BLAS thread variable.  The worker runs when BLAS is pinned and this
    process may use two cores.  A BLAS ``_blas_threads`` cannot reach is
    left as it is, and the call gets no worker.
    """
    global _pin_depth, _pin_restore
    blas = _blas_threads()
    if blas is None:
        yield None
        return
    get, set_ = blas
    with _pin_lock:
        if _pin_depth == 0:
            _pin_restore = get()
            set_(1)
        _pin_depth += 1
    try:
        with (ThreadPoolExecutor(max_workers=1, thread_name_prefix="xtalssl-worker")
              if _usable_cores() >= 2 else contextlib.nullcontext()) as worker:
            yield worker
    finally:
        with _pin_lock:
            _pin_depth -= 1
            if _pin_depth == 0:
                set_(_pin_restore)


def _on_both_threads(worker, run_a, run_b):
    """(run_a(), run_b()), run_b on ``worker`` in a copy of this thread's context.

    The copy carries ``np.errstate`` over.  An exception from either side
    is raised only once both have finished, a's before b's.  Without a
    worker both run here in turn.
    """
    if worker is None:
        return run_a(), run_b()
    future = worker.submit(contextvars.copy_context().run, run_b)
    try:
        a = run_a()
    finally:
        wait([future])
    return a, future.result()


def _on_halves(worker, items, run) -> tuple:
    """(run(first ceil(n/2) items), run(the rest)), the rest on ``worker``.

    An empty second half is not submitted.
    """
    half = (len(items) + 1) // 2
    return _on_both_threads(worker if half < len(items) else None,
                            lambda: run(items[:half]), lambda: run(items[half:]))


def _encode_halves(worker, params: ModelParams, items: list, batch: int,
                   graph_of=None) -> np.ndarray:
    """Latents (len(items), hidden_dim) of ``items`` in order, the second half on ``worker``.

    ``items`` are graphs, or entries that ``graph_of`` turns into graphs.
    The first ceil(n/2) items run on this thread, the rest on ``worker``
    (if any; an empty half is not submitted).  Each half builds the graphs
    of at most ``batch`` items at a time and encodes them merged, so a bad
    entry raises before any later entry of its half is touched, and the
    first half's error is raised before the second's.  A graph of two or
    more nodes encodes to the same bits alone or merged; a lone one-node
    graph takes a one-row product and may differ from its merged latent by
    round-off.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")

    def run(part):
        latents = []
        for lo in range(0, len(part), batch):
            chunk = part[lo:lo + batch]
            graphs = chunk if graph_of is None else [graph_of(x) for x in chunk]
            merged, seg = merge_graphs(graphs)
            latents.append(encode(params, merged, seg, len(graphs)).data)
        return latents

    a, b = _on_halves(worker, items, run)
    if not a:
        return np.zeros((0, params.config.hidden_dim))
    return np.concatenate(a + b)


def _twin_embeddings(worker, params: ModelParams, merged,
                     n_graphs: int) -> tuple[Tensor, Tensor]:
    """Projections of view a, on this thread, and of view b, on ``worker`` (if any).

    ``merged`` holds each view's (graph, segment ids).  Under a tape each
    view records on a sub-tape of its own against an alias of ``params``,
    and the tape gets one record.  Its backward walks both sub-tapes at
    once, then adds the alias gradients into ``params``, b's first: the
    order one reverse walk over a then b adds them in, so every gradient
    is bit for bit that of a single tape.
    """
    tape = active_tape()
    aliases = [params, params] if tape is None else [alias_params(params) for _ in merged]
    subs = [Tape(), Tape()]

    def embed(i):
        p, (graph, seg) = aliases[i], merged[i]
        with contextlib.nullcontext() if tape is None else subs[i]:
            return project(p, encode(p, graph, seg, n_graphs))

    za, zb = _on_both_threads(worker, lambda: embed(0), lambda: embed(1))
    if tape is not None:
        def backward(_):
            _on_both_threads(worker, subs[0].walk, subs[1].walk)
            for alias in reversed(aliases):
                for real, t in zip(params.trainable(), alias.trainable()):
                    if t.grad is not None:
                        real.grad = t.grad if real.grad is None else real.grad + t.grad

        # the loss reads both embeddings, so za has a gradient whenever zb has
        tape.record(za, backward)
    return za, zb


def _view_candidates(worker, pcfg: PretrainConfig, entries) -> list[CandidateList]:
    """Each entry's candidate list, in order, the second half on ``worker``.

    A bad cell raises before any later entry of its half is touched, the
    first half's error before the second's, each naming its entry.
    """
    def run(part):
        out = []
        for e in part:
            with _naming(e.id):
                out.append(view_candidates(e.structure, pcfg.augment, pcfg.neighbor))
        return out

    a, b = _on_halves(worker, entries, run)
    return a + b


def _bt_batch_loss(worker, params: ModelParams, pcfg: PretrainConfig, entries, candidates,
                   rng) -> Tensor:
    """Barlow Twins loss between two augmented views of each entry, view b on any ``worker``.

    ``candidates`` holds each entry's ``view_candidates`` list.
    """
    views = [make_views(e.structure, pcfg.augment, pcfg.neighbor, pcfg.basis, rng, c)
             for e, c in zip(entries, candidates)]
    merged = [merge_graphs(list(side)) for side in zip(*views)]
    del views  # the merged copies hold the same data; free these before the forward pass
    za, zb = _twin_embeddings(worker, params, merged, len(entries))
    return bt_loss_from_embeddings(za, zb, pcfg.loss)


def _fit(stage: str, params: ModelParams, tcfg: PretrainConfig | FinetuneConfig, entries,
         train_idx: np.ndarray, drop_below: int,
         batch_loss, val_loss) -> tuple[list[dict], int, list[np.ndarray]]:
    """The Adam loop both stages share.

    Each epoch shuffles ``train_idx`` (indices into ``entries``) with the
    ``_SHUFFLE`` stream, takes one Adam step on ``batch_loss(batch_idx)``
    per batch of at least ``drop_below`` entries, then one ``val_loss()``
    (None without validation data).  Returns the epoch log, the
    best-validation epoch and its weights, or the last epoch and its
    weights when no epoch was validated.  A non-finite loss or gradient
    raises NonFiniteLoss before the step that would apply it.  Those checks
    report a divergence, so numpy's floating-point warnings are off while
    losses and gradients are computed; the Adam step, whose result nothing
    checks, keeps them.
    """
    adam = Adam(params.trainable(), tcfg.lr)
    shuffle_rng = rng_for(tcfg.seed, _SHUFFLE)
    epochs_log: list[dict] = []
    best_epoch, best_val, best_state = tcfg.epochs, np.inf, None

    for epoch in range(1, tcfg.epochs + 1):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        batch_losses = []
        for number, batch_idx in enumerate(_batches(order, tcfg.batch, drop_below), start=1):
            params.zero_grad()
            with Tape() as tape, np.errstate(all="ignore"):
                loss = batch_loss(batch_idx)
                tape.backward(loss)
            if not (np.isfinite(loss.data).all()
                    and all(t.grad is None or np.isfinite(t.grad).all()
                            for t in params.trainable())):
                ids = ", ".join(entries[i].id for i in batch_idx)
                raise NonFiniteLoss(f"{stage} epoch {epoch} batch {number}: non-finite loss "
                                    f"or gradient on entries {ids}")
            adam.step()
            batch_losses.append(float(loss.data))
        if not batch_losses:
            raise BatchTooSmall(f"training split yields no batch of size >= {drop_below}")
        train_loss = float(np.mean(batch_losses))

        with np.errstate(all="ignore"):
            val = val_loss()
        if val is not None and not np.isfinite(val):
            raise NonFiniteLoss(f"{stage} epoch {epoch}: validation loss is {val}")
        if val is not None and val < best_val:
            best_val, best_epoch, best_state = val, epoch, _snapshot(params)
        epochs_log.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val})
        logger.info("%s epoch %d/%d train_loss=%.6f val_loss=%s", stage, epoch, tcfg.epochs,
                    train_loss, "n/a" if val is None else f"{val:.6f}")

    if best_state is None:
        best_state = _snapshot(params)
    return epochs_log, best_epoch, best_state


@dataclass
class PretrainResult:
    params: ModelParams
    report: RunReport
    final_path: str | None
    best_path: str | None


def pretrain(data: Dataset, mcfg: ModelConfig, pcfg: PretrainConfig,
             out_dir=None) -> PretrainResult:
    """Self-supervised pre-training; writes final and best-validation checkpoints."""
    t_start = time.perf_counter()
    check_basis_width(mcfg, pcfg.basis)
    n = len(data.entries)
    if n == 0:
        raise EmptyDataset("pretrain needs a nonempty dataset")

    perm = rng_for(pcfg.seed, 0).permutation(n)  # purpose 0: split
    n_val = int(np.floor(pcfg.val_fraction * n))
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]

    params = init_params(mcfg, rng_for(pcfg.seed, _INIT), with_projector=True, with_head=False)
    augment_rng = rng_for(pcfg.seed, _AUGMENT)

    def batch_loss(batch_idx, rng):
        return _bt_batch_loss(worker, params, pcfg, [data.entries[i] for i in batch_idx],
                              [candidates[i] for i in batch_idx], rng)

    def val_loss():
        # fresh stream each epoch -> identical validation views every epoch
        val_rng = rng_for(pcfg.seed, _VAL_VIEWS)
        losses = [float(batch_loss(b, val_rng).data)
                  for b in _batches(val_idx, pcfg.batch, drop_below=2)]
        return float(np.mean(losses)) if losses else None

    # the thread that encodes view b of every batch, for the whole run
    with _second_thread() as worker:
        # one search per crystal per call serves the views of every epoch
        # and validation pass
        candidates = _view_candidates(worker, pcfg, data.entries)
        epochs_log, best_epoch, best_state = _fit(
            "pretrain", params, pcfg, data.entries, train_idx, 2,
            lambda b: batch_loss(b, augment_rng), val_loss)

    final_path = best_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        final_path = os.path.join(out_dir, "pretrain_final.ckpt")
        best_path = os.path.join(out_dir, "pretrain_best.ckpt")
        save_checkpoint(final_path, params)
        final_state = _snapshot(params)
        _restore(params, best_state)
        save_checkpoint(best_path, params)
        _restore(params, final_state)

    wall = time.perf_counter() - t_start
    logger.info("pretrain wall clock: %.2fs", wall)
    report = RunReport(kind="pretrain", config=_config_echo(mcfg, pcfg), epochs=epochs_log,
                       best_epoch=best_epoch, n_train=len(train_idx), n_val=n_val,
                       wall_clock_seconds=wall)
    return PretrainResult(params=params, report=report, final_path=final_path, best_path=best_path)


@dataclass
class FinetuneResult:
    params: ModelParams
    report: RunReport
    label_mean: float
    label_std: float
    checkpoint_path: str | None


def _predict_std(worker, params: ModelParams, items: list, batch: int,
                 graph_of=None) -> np.ndarray:
    """Inference-mode standardized predictions, one scalar per item of ``_encode_halves``.

    The head runs over the latents in chunks of ``batch`` rows from the
    start, not per half: its products round differently on other row counts.
    """
    latents = _encode_halves(worker, params, items, batch, graph_of)
    preds = [regress(params, Tensor(latents[lo:lo + batch])).data[:, 0]
             for lo in range(0, len(latents), batch)]
    return np.concatenate(preds) if preds else np.zeros(0)


def finetune(data: Dataset, mcfg: ModelConfig, fcfg: FinetuneConfig,
             out_dir=None) -> FinetuneResult:
    """Supervised fine-tuning; reports test MAE of the best-validation epoch."""
    t_start = time.perf_counter()
    if data.kind != "labeled":
        raise UnlabeledDataset("finetune needs a labeled dataset")
    check_basis_width(mcfg, fcfg.basis)

    train_d, val_d, test_d = split_dataset(data, SplitSpec(fractions=fcfg.split, seed=fcfg.seed))
    if not train_d.entries:
        raise EmptyDataset("finetune training split is empty")

    graphs_train = [entry_graph(e, fcfg.neighbor, fcfg.basis) for e in train_d.entries]
    graphs_val = [entry_graph(e, fcfg.neighbor, fcfg.basis) for e in val_d.entries]
    graphs_test = [entry_graph(e, fcfg.neighbor, fcfg.basis) for e in test_d.entries]
    y_train = np.array([e.label for e in train_d.entries], dtype=np.float64)
    y_val = np.array([e.label for e in val_d.entries], dtype=np.float64)
    y_test = np.array([e.label for e in test_d.entries], dtype=np.float64)

    label_mean = float(y_train.mean())
    label_std = float(y_train.std())
    if label_std < 1e-12:
        label_std = 1.0  # constant labels: leave the scale alone
    y_train_std = (y_train - label_mean) / label_std
    y_val_std = (y_val - label_mean) / label_std

    params = init_params(mcfg, rng_for(fcfg.seed, _INIT), with_projector=False, with_head=True)
    if fcfg.init_checkpoint is not None:
        load_encoder(params, fcfg.init_checkpoint)

    def batch_loss(batch_idx):
        merged, seg = merge_graphs([graphs_train[i] for i in batch_idx])
        pred = regress(params, encode(params, merged, seg, len(batch_idx)))
        return mse_loss(pred, y_train_std[batch_idx])

    def val_loss():
        if not graphs_val:
            return None
        pred = _predict_std(worker, params, graphs_val, fcfg.batch)
        return float(np.mean((pred - y_val_std) ** 2))

    # the thread that encodes the second half of every prediction, for the whole run
    with _second_thread() as worker:
        epochs_log, best_epoch, best_state = _fit(
            "finetune", params, fcfg, train_d.entries, np.arange(len(graphs_train)), 1,
            batch_loss, val_loss)
        _restore(params, best_state)

        test_mae = None
        if len(graphs_test) > 0:
            test_pred = _predict_std(worker, params, graphs_test, fcfg.batch)
            test_mae = mae_metric(test_pred * label_std + label_mean, y_test)
            logger.info("finetune test MAE (original units): %.6f", test_mae)

    ckpt_path = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        ckpt_path = os.path.join(out_dir, "finetune_model.ckpt")
        save_checkpoint(ckpt_path, params, label_stats=(label_mean, label_std))

    wall = time.perf_counter() - t_start
    logger.info("finetune wall clock: %.2fs", wall)
    report = RunReport(kind="finetune", config=_config_echo(mcfg, fcfg), epochs=epochs_log,
                       best_epoch=best_epoch, n_train=len(train_d.entries),
                       n_val=len(val_d.entries), n_test=len(test_d.entries),
                       test_mae=test_mae, wall_clock_seconds=wall)
    return FinetuneResult(params=params, report=report, label_mean=label_mean,
                          label_std=label_std, checkpoint_path=ckpt_path)


def evaluate(params: ModelParams, data: Dataset, label_mean: float, label_std: float,
             batch: int = 128, neighbor: NeighborConfig = NeighborConfig(),
             basis: GaussianBasis = GaussianBasis()) -> dict:
    """MAE of a fine-tuned model over every entry of a labeled dataset.

    ``label_mean`` and ``label_std`` undo the standardization of the
    labels the model was fine-tuned on; they must be finite, and the std
    positive.
    """
    if data.kind != "labeled":
        raise UnlabeledDataset("evaluate needs a labeled dataset")
    check_basis_width(params.config, basis)
    if not data.entries:
        raise EmptyDataset("evaluate needs a nonempty dataset")
    if not (np.isfinite(label_mean) and np.isfinite(label_std) and label_std > 0):
        raise InvalidLabelStats(f"label_mean and label_std must be finite and label_std > 0, "
                                f"got {label_mean} and {label_std}")
    labels = np.array([e.label for e in data.entries], dtype=np.float64)
    with _second_thread() as worker:
        pred = _predict_std(worker, params, data.entries, batch,
                            lambda e: entry_graph(e, neighbor, basis)) * label_std + label_mean
    return {"n_entries": len(data.entries), "mae": mae_metric(pred, labels)}


def export_embeddings(params: ModelParams, data: Dataset,
                      neighbor: NeighborConfig = NeighborConfig(),
                      basis: GaussianBasis = GaussianBasis(), batch: int = 128) -> str:
    """CSV of per-entry latents: id, z0..z{H-1}[, label]; rows sorted by id.

    Crystals are encoded in merged batches of at most ``batch``.
    """
    check_basis_width(params.config, basis)
    hidden = params.config.hidden_dim
    header = ["id"] + [f"z{i}" for i in range(hidden)] + (
        ["label"] if data.kind == "labeled" else [])
    lines = [",".join(header)]
    entries = sorted(data.entries, key=lambda e: e.id)
    with _second_thread() as worker:
        latents = _encode_halves(worker, params, entries, batch,
                                 lambda e: entry_graph(e, neighbor, basis))
    for entry, z in zip(entries, latents):
        row = [entry.id] + [repr(float(v)) for v in z]
        if data.kind == "labeled":
            row.append(repr(float(entry.label)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# ablation harness
# ---------------------------------------------------------------------------

ABLATION_ARMS: dict[str, AugmentConfig] = {
    "RP": AugmentConfig(enable_perturb=True, enable_atom_mask=False, enable_edge_mask=False),
    "AM+EM": AugmentConfig(enable_perturb=False, enable_atom_mask=True, enable_edge_mask=True),
    "RP+AM+EM": AugmentConfig(enable_perturb=True, enable_atom_mask=True, enable_edge_mask=True),
}


@dataclass
class AblationRow:
    arm: str
    seeds: list[int]
    maes: list[float]

    @property
    def mean(self) -> float:
        return float(np.mean(self.maes))

    @property
    def std(self) -> float:
        return float(np.std(self.maes))  # population std over seeds


def ablation_run(pretrain_data: Dataset, finetune_data: Dataset, mcfg: ModelConfig,
                 pcfg: PretrainConfig, fcfg: FinetuneConfig, seeds: list[int],
                 out_dir=None, arms: dict[str, AugmentConfig] | None = None) -> list[AblationRow]:
    """One pretrain+finetune per (arm, seed); aggregates test MAE per arm."""
    if not seeds:
        raise ValueError("ablation needs at least one seed")
    arms = ABLATION_ARMS if arms is None else arms
    # partition sizes do not depend on the seed, so one split checks every arm's test set
    if not split_dataset(finetune_data, SplitSpec(fractions=fcfg.split, seed=fcfg.seed))[2].entries:
        raise ValueError("ablation requires a nonempty test split")
    rows = []
    for arm_name, augment in arms.items():
        maes = []
        for seed in seeds:
            logger.info("ablation arm=%s seed=%d", arm_name, seed)
            arm_pcfg = dataclasses.replace(pcfg, augment=augment, seed=seed)
            result = pretrain(pretrain_data, mcfg, arm_pcfg, out_dir=None)
            with tempfile.TemporaryDirectory() as tmp:
                ckpt = os.path.join(tmp, "pretrain.ckpt")
                save_checkpoint(ckpt, result.params)
                arm_fcfg = dataclasses.replace(fcfg, seed=seed, init_checkpoint=ckpt)
                ft = finetune(finetune_data, mcfg, arm_fcfg, out_dir=None)
            maes.append(ft.report.test_mae)
        rows.append(AblationRow(arm=arm_name, seeds=list(seeds), maes=maes))
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with atomic_open(os.path.join(out_dir, "ablation.csv")) as fh:
            fh.write(ablation_csv(rows).encode("utf-8"))
        with atomic_open(os.path.join(out_dir, "ablation_runs.csv")) as fh:
            fh.write(ablation_runs_csv(rows).encode("utf-8"))
    return rows


def ablation_csv(rows: list[AblationRow]) -> str:
    lines = ["arm,n_seeds,mean_test_mae,std_test_mae"]
    for r in rows:
        lines.append(f"{r.arm},{len(r.seeds)},{r.mean!r},{r.std!r}")
    return "\n".join(lines) + "\n"


def ablation_runs_csv(rows: list[AblationRow]) -> str:
    lines = ["arm,seed,test_mae"]
    for r in rows:
        for seed, mae in zip(r.seeds, r.maes):
            lines.append(f"{r.arm},{seed},{mae!r}")
    return "\n".join(lines) + "\n"
