"""Independent oracle implementations used by the test suite.

Everything in here is written against the mathematical definitions, not the
package internals: brute-force supercell neighbor search, double-loop
cross-correlation, naive loss sums, and a hand-rolled Kolmogorov-Smirnov
statistic. Tests compare package outputs against these.
"""

import numpy as np


def supercell_neighbors(lattice, frac, cutoff, max_neighbors):
    """Brute-force neighbor search over a 5x5x5 supercell (images -2..2).

    Returns edges as a list of (src, dst, (i0, i1, i2), distance), the
    nearest max_neighbors per src, ties broken by (distance, dst,
    lexicographic image), sorted by (src, distance, dst, image).
    """
    lattice = np.asarray(lattice, dtype=np.float64)
    frac = np.asarray(frac, dtype=np.float64)
    n = frac.shape[0]
    candidates = []
    for i in range(n):
        for j in range(n):
            for i0 in range(-2, 3):
                for i1 in range(-2, 3):
                    for i2 in range(-2, 3):
                        if i == j and i0 == 0 and i1 == 0 and i2 == 0:
                            continue
                        disp = (frac[j] + np.array([i0, i1, i2]) - frac[i]) @ lattice
                        dist = float(np.linalg.norm(disp))
                        if dist <= cutoff:
                            candidates.append((i, j, (i0, i1, i2), dist))
    edges = []
    for i in range(n):
        mine = [c for c in candidates if c[0] == i]
        mine.sort(key=lambda c: (c[3], c[1], c[2]))
        edges.extend(mine[:max_neighbors])
    return edges


def periodic_distance(lattice, fa, fb, image=(0, 0, 0)):
    """Distance from site fa to the copy of fb translated by ``image`` (fractional inputs)."""
    delta = np.asarray(fb, dtype=np.float64) + np.asarray(image) - np.asarray(fa, dtype=np.float64)
    return float(np.linalg.norm(delta @ np.asarray(lattice, dtype=np.float64)))


def naive_cross_correlation(za, zb, eps):
    """Double-loop evaluation: standardize each column, then C_ij = mean_b(a_bi * b_bj)."""
    za = np.asarray(za, dtype=np.float64)
    zb = np.asarray(zb, dtype=np.float64)
    n, d = za.shape

    def standardize(z):
        out = np.empty_like(z)
        for col in range(d):
            mu = sum(z[b, col] for b in range(n)) / n
            var = sum((z[b, col] - mu) ** 2 for b in range(n)) / n
            out[:, col] = [(z[b, col] - mu) / (np.sqrt(var) + eps) for b in range(n)]
        return out

    a = standardize(za)
    b = standardize(zb)
    c = np.zeros((d, d))
    for i in range(d):
        for j in range(d):
            c[i, j] = sum(a[batch, i] * b[batch, j] for batch in range(n)) / n
    return c


def naive_bt_loss(c, lam):
    c = np.asarray(c, dtype=np.float64)
    d = c.shape[0]
    on_diag = sum((1.0 - c[i, i]) ** 2 for i in range(d))
    off_diag = sum(c[i, j] ** 2 for i in range(d) for j in range(d) if i != j)
    return on_diag + lam * off_diag


def naive_mse(pred, target):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    return sum((p - t) ** 2 for p, t in zip(pred, target)) / len(pred)


def naive_mae(pred, target):
    pred = np.asarray(pred, dtype=np.float64).reshape(-1)
    target = np.asarray(target, dtype=np.float64).reshape(-1)
    return sum(abs(p - t) for p, t in zip(pred, target)) / len(pred)


def ks_statistic_uniform(samples, lo, hi):
    """sup_x |ECDF(x) - F(x)| against Uniform[lo, hi], by the sorted-sample formula."""
    x = np.sort(np.asarray(samples, dtype=np.float64))
    n = x.size
    cdf = (x - lo) / (hi - lo)
    upper = np.arange(1, n + 1) / n - cdf
    lower = cdf - np.arange(0, n) / n
    return float(max(upper.max(), lower.max()))
