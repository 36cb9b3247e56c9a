"""Span tracer and traced replays of the benchmark's four phases.

Each replay repeats, step for step and with the same random streams, what
one public entry point does (``pipeline.pretrain``, ``pipeline.finetune``,
``pipeline.export_embeddings`` and the ``xtalssl featurize`` command), but
calls each layer's public function inside a span.  The benchmark checks
that a replay returns exactly what the entry point returned, so the spans
decompose the same program the end-to-end metrics time.
"""

from __future__ import annotations

import math
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

from xtalssl.augment import mask_atoms, mask_edges, random_perturb
from xtalssl.autodiff import Tape
from xtalssl.featurize import build_graph, graph_to_json, merge_graphs
from xtalssl.geometry import build_neighbor_list
from xtalssl.loss import bt_loss_from_embeddings, mse_loss
from xtalssl.model import encode, init_params, project, regress
from xtalssl.pipeline import Adam, rng_for
from xtalssl.structure_io import SplitSpec, parse_cif, split_dataset

# seed fan-out of pipeline.pretrain / pipeline.finetune (purpose ids of rng_for)
_SPLIT, _INIT, _SHUFFLE, _AUGMENT, _VAL_VIEWS = 0, 1, 2, 3, 4


class Tracer:
    """In-memory spans: [name, parent index or -1, start s, end s]."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, list[int]] = defaultdict(list)
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """fn(*args, **kwargs) inside a span named ``name``."""
        rec = [name, self._stack[-1] if self._stack else -1, time.perf_counter(), 0.0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[3] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the time its direct children cover."""
        out = [end - start for _, _, start, end in self.spans]
        for _, parent, start, end in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out


def _batches(order: np.ndarray, batch: int, drop_below: int) -> list[np.ndarray]:
    out = [order[i:i + batch] for i in range(0, len(order), batch)]
    return [b for b in out if len(b) >= drop_below]


def _view(tr: Tracer, s, pcfg, rng):
    # augment.augment_once, layer by layer
    aug = pcfg.augment
    if aug.enable_perturb:
        s = tr.call("augment.random_perturb", random_perturb, s, rng, aug.max_displacement)
    nl = tr.call("geometry.build_neighbor_list", build_neighbor_list, s, pcfg.neighbor)
    g = tr.call("featurize.build_graph", build_graph, s, nl, pcfg.basis)

    def mask(g):
        if aug.enable_atom_mask:
            g = mask_atoms(g, rng, aug.mask_fraction)
        if aug.enable_edge_mask:
            g = mask_edges(g, rng, aug.mask_fraction)
        return g

    return tr.call("augment.mask", mask, g)


def _bt_loss(tr: Tracer, params, pcfg, structures, rng, encode_span: str, count: bool):
    views_a, views_b = [], []
    for s in structures:
        views_a.append(_view(tr, s, pcfg, rng))
        views_b.append(_view(tr, s, pcfg, rng))
    merged_a, seg_a = tr.call("featurize.merge_graphs", merge_graphs, views_a)
    merged_b, seg_b = tr.call("featurize.merge_graphs", merge_graphs, views_b)
    if count:
        tr.counts["featurize.nodes_per_batch"] += [merged_a.n_nodes, merged_b.n_nodes]
        tr.counts["featurize.edges_per_batch"] += [merged_a.n_edges, merged_b.n_edges]
    n = len(structures)
    za = tr.call("model.heads", project, params,
                 tr.call(encode_span, encode, params, merged_a, seg_a, n))
    zb = tr.call("model.heads", project, params,
                 tr.call(encode_span, encode, params, merged_b, seg_b, n))
    return tr.call("loss.barlow_twins", bt_loss_from_embeddings, za, zb, pcfg.loss)


def replay_pretrain(tr: Tracer, data, mcfg, pcfg) -> list[dict]:
    """pipeline.pretrain without checkpoints; returns its per-epoch log."""
    n = len(data.entries)
    perm = rng_for(pcfg.seed, _SPLIT).permutation(n)
    n_val = int(np.floor(pcfg.val_fraction * n))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    structures = [e.structure for e in data.entries]
    params = init_params(mcfg, rng_for(pcfg.seed, _INIT), with_projector=True, with_head=False)
    adam = Adam(params.trainable(), pcfg.lr)
    shuffle_rng = rng_for(pcfg.seed, _SHUFFLE)
    augment_rng = rng_for(pcfg.seed, _AUGMENT)

    def step(batch_idx):
        params.zero_grad()
        with Tape() as tape:
            loss = _bt_loss(tr, params, pcfg, [structures[i] for i in batch_idx], augment_rng,
                            "model.encode_train", count=True)
            tr.call("autodiff.backward", tape.backward, loss)
        tr.call("pipeline.adam_step", adam.step)
        return float(loss.data)

    def validate():
        val_rng = rng_for(pcfg.seed, _VAL_VIEWS)
        losses = [float(_bt_loss(tr, params, pcfg, [structures[i] for i in b], val_rng,
                                 "model.encode_infer", count=False).data)
                  for b in _batches(val_idx, pcfg.batch, drop_below=2)]
        return float(np.mean(losses)) if losses else None

    log = []
    for epoch in range(1, pcfg.epochs + 1):
        order = train_idx[shuffle_rng.permutation(len(train_idx))]
        losses = [tr.call("pretrain.step", step, b)
                  for b in _batches(order, pcfg.batch, drop_below=2)]
        val_loss = tr.call("pretrain.validate", validate) if n_val >= 2 else None
        log.append({"epoch": epoch, "train_loss": float(np.mean(losses)), "val_loss": val_loss})
    return log


def _graphs(tr: Tracer, entries, neighbor, basis) -> list:
    return [tr.call("featurize.build_graph", build_graph, e.structure,
                    tr.call("geometry.build_neighbor_list", build_neighbor_list,
                            e.structure, neighbor), basis)
            for e in entries]


def _predict(tr: Tracer, params, graphs, batch: int) -> np.ndarray:
    preds = []
    for lo in range(0, len(graphs), batch):
        part = graphs[lo:lo + batch]
        merged, seg = tr.call("featurize.merge_graphs", merge_graphs, part)
        latent = tr.call("model.encode_infer", encode, params, merged, seg, len(part))
        preds.append(tr.call("model.heads", regress, params, latent).data[:, 0])
    return np.concatenate(preds) if preds else np.zeros(0)


def replay_finetune(tr: Tracer, data, mcfg, fcfg) -> list[dict]:
    """pipeline.finetune from a fresh init; returns its per-epoch log."""
    train_d, val_d, test_d = split_dataset(data, SplitSpec(fractions=fcfg.split, seed=fcfg.seed))
    graphs_train = _graphs(tr, train_d.entries, fcfg.neighbor, fcfg.basis)
    graphs_val = _graphs(tr, val_d.entries, fcfg.neighbor, fcfg.basis)
    graphs_test = _graphs(tr, test_d.entries, fcfg.neighbor, fcfg.basis)
    y_train = np.array([e.label for e in train_d.entries], dtype=np.float64)
    y_val = np.array([e.label for e in val_d.entries], dtype=np.float64)
    mean = float(y_train.mean())
    std = float(y_train.std())
    std = std if std >= 1e-12 else 1.0
    y_train_std = (y_train - mean) / std
    y_val_std = (y_val - mean) / std

    params = init_params(mcfg, rng_for(fcfg.seed, _INIT), with_projector=False, with_head=True)
    adam = Adam(params.trainable(), fcfg.lr)
    shuffle_rng = rng_for(fcfg.seed, _SHUFFLE)

    def step(batch_idx):
        params.zero_grad()
        merged, seg = tr.call("featurize.merge_graphs", merge_graphs,
                              [graphs_train[i] for i in batch_idx])
        with Tape() as tape:
            latent = tr.call("model.encode_train", encode, params, merged, seg, len(batch_idx))
            pred = tr.call("model.heads", regress, params, latent)
            loss = tr.call("loss.mse", mse_loss, pred, y_train_std[batch_idx])
            tr.call("autodiff.backward", tape.backward, loss)
        tr.call("pipeline.adam_step", adam.step)
        return float(loss.data)

    log = []
    best_val, best_state = math.inf, None
    for epoch in range(1, fcfg.epochs + 1):
        order = shuffle_rng.permutation(len(graphs_train))
        losses = [tr.call("finetune.step", step, b)
                  for b in _batches(order, fcfg.batch, drop_below=1)]
        val_loss = None
        if graphs_val:
            pred = tr.call("finetune.predict", _predict, tr, params, graphs_val, fcfg.batch)
            val_loss = float(np.mean((pred - y_val_std) ** 2))
            if val_loss < best_val:
                best_val, best_state = val_loss, [t.data.copy() for t in params.trainable()]
        log.append({"epoch": epoch, "train_loss": float(np.mean(losses)), "val_loss": val_loss})
    if best_state is not None:
        for t, data_ in zip(params.trainable(), best_state):
            t.data = data_.copy()
    if graphs_test:
        tr.call("finetune.predict", _predict, tr, params, graphs_test, fcfg.batch)
    return log


def replay_embed(tr: Tracer, params, data, neighbor, basis) -> str:
    """pipeline.export_embeddings, one span per layer call; returns the CSV text."""
    hidden = params.config.hidden_dim
    header = ["id"] + [f"z{i}" for i in range(hidden)] + (
        ["label"] if data.kind == "labeled" else [])
    lines = [",".join(header)]

    def one(entry):
        g = _graphs(tr, [entry], neighbor, basis)[0]
        z = tr.call("model.encode_infer", encode, params, g).data[0]
        row = [entry.id] + [repr(float(v)) for v in z]
        if data.kind == "labeled":
            row.append(repr(float(entry.label)))
        return ",".join(row)

    for entry in sorted(data.entries, key=lambda e: e.id):
        lines.append(tr.call("embed.crystal", one, entry))
    return "\n".join(lines) + "\n"


def replay_featurize(tr: Tracer, root: str, index_path: str, neighbor, basis) -> str:
    """What ``xtalssl featurize --index-file`` computes; returns the JSONL text."""
    ids = sorted(line.split(",")[0].strip()
                 for line in Path(index_path).read_text(encoding="utf-8").splitlines()
                 if line.strip())

    def one(entry_id):
        text = (Path(root) / f"{entry_id}.cif").read_text(encoding="utf-8")
        s = tr.call("structure_io.parse_cif", parse_cif, text)
        nl = tr.call("geometry.build_neighbor_list", build_neighbor_list, s, neighbor)
        g = tr.call("featurize.build_graph", build_graph, s, nl, basis)
        return tr.call("featurize.graph_to_json", graph_to_json, g, id=entry_id)

    return "\n".join(tr.call("featurize.crystal", one, i) for i in ids) + "\n"
