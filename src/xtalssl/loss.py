"""Redundancy-reduction loss over the batch cross-correlation, plus regression losses.

Each loss stage is one autodiff primitive with a hand-written backward.
The backwards evaluate, in reverse order and on the same memory layouts,
the expressions a chain of elementwise tape ops would, so the gradients
are bit for bit those of that chain (``tests/oracles.py`` keeps it).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import ShapeMismatch, Tensor, _accum, _maybe_record


class BatchTooSmall(ValueError):
    pass


@dataclass(frozen=True)
class LossConfig:
    lam: float = 0.0051
    eps: float = 1e-5

    def __post_init__(self):
        if not (np.isfinite(self.lam) and self.lam >= 0):
            raise ValueError(f"lam must be finite and >= 0, got {self.lam}")
        if not (np.isfinite(self.eps) and self.eps >= 0):
            raise ValueError(f"eps must be finite and >= 0, got {self.eps}")


def _standardize(x: np.ndarray, eps: float):
    """(x - mean) / (population std + eps) per column, and what its backward needs."""
    centered = x - x.mean(axis=0, keepdims=True)
    sigma = np.sqrt((centered * centered).mean(axis=0, keepdims=True))
    denom = sigma + eps
    live = denom > 0.0  # false only for eps == 0 on a constant column
    inv = 1.0 / np.where(live, denom, 1.0)
    return centered * inv, (centered, sigma, inv, live)


def _standardize_backward(g: np.ndarray, centered, sigma, inv, live) -> np.ndarray:
    # d/dx of (x - mu) * inv, including inv's dependence on x through sigma;
    # if sigma == 0 the second term vanishes because centered == 0 there
    safe_sigma = np.where(sigma > 0.0, sigma, 1.0)
    g_mean = g.mean(axis=0, keepdims=True)
    gd_mean = (g * centered).mean(axis=0, keepdims=True)
    dx = inv * (g - g_mean) - (inv * inv) * centered * (gd_mean / safe_sigma)
    return np.where(live, dx, 0.0)


def cross_correlation(za: Tensor, zb: Tensor, eps: float = 1e-5) -> Tensor:
    """C = (1/B) * standardize(Za)^T standardize(Zb), per-column batch stats."""
    if za.data.ndim != 2 or za.data.shape != zb.data.shape:
        raise ShapeMismatch(f"embedding batches differ: {za.data.shape} vs {zb.data.shape}")
    batch = za.data.shape[0]
    if batch < 2:
        raise BatchTooSmall("cross correlation needs a batch of at least 2")
    a_n, a_saved = _standardize(za.data, eps)
    b_n, b_saved = _standardize(zb.data, eps)
    # a C-order copy: the product on the transposed view rounds differently
    a_t = np.ascontiguousarray(a_n.T)
    scale = 1.0 / batch
    out = Tensor((a_t @ b_n) * scale)

    def backward(g):
        g = g * scale
        # zb before za, and za's gradient as an F-order transpose: the order
        # and layout of the op chain's reverse walk, whose rounding this keeps
        _accum(zb, _standardize_backward(a_t.T @ g, *b_saved))
        _accum(za, _standardize_backward((g @ b_n.T).T, *a_saved))

    return _maybe_record(out, (za, zb), backward)


def barlow_twins_loss(c: Tensor, cfg: LossConfig = LossConfig()) -> Tensor:
    """sum_i (1 - C_ii)^2 + lam * sum_{i != j} C_ij^2."""
    if c.data.ndim != 2 or c.data.shape[0] != c.data.shape[1]:
        raise ShapeMismatch(f"cross correlation must be square, got {c.data.shape}")
    eye = np.eye(c.data.shape[0])
    # (1 - C_ii)^2 = (C - I)_ii^2 and off-diagonal entries of C - I equal C's,
    # so one weighted elementwise square covers both terms
    residual = c.data - eye
    weight = eye + cfg.lam * (1.0 - eye)
    out = Tensor((residual * residual * weight).sum())

    def backward(g):
        g_r = float(g) * weight * residual
        _accum(c, g_r + g_r)

    return _maybe_record(out, (c,), backward)


def bt_loss_from_embeddings(za: Tensor, zb: Tensor, cfg: LossConfig = LossConfig()) -> Tensor:
    return barlow_twins_loss(cross_correlation(za, zb, cfg.eps), cfg)


def mse_loss(pred: Tensor, target: np.ndarray) -> Tensor:
    target = np.asarray(target, dtype=np.float64).reshape(-1, 1)
    if pred.data.ndim != 2 or pred.data.shape[1] != 1:
        raise ShapeMismatch(f"pred must be a column, got {pred.data.shape}")
    if pred.data.shape[0] != target.shape[0]:
        raise ShapeMismatch(f"pred/target lengths differ: {pred.data.shape[0]} vs {target.shape[0]}")
    if target.shape[0] < 1:
        raise BatchTooSmall("mse needs at least one sample")
    diff = pred.data - target
    scale = 1.0 / target.shape[0]
    out = Tensor((diff * diff).sum() * scale)

    def backward(g):
        g_d = float(g * scale) * diff
        _accum(pred, g_d + g_d)

    return _maybe_record(out, (pred,), backward)


def mae_metric(pred: np.ndarray, target: np.ndarray) -> float:
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    if pred.shape != target.shape:
        raise ShapeMismatch(f"pred/target lengths differ: {pred.shape} vs {target.shape}")
    return float(np.mean(np.abs(pred - target)))
