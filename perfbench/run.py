#!/usr/bin/env python3
"""Training-throughput benchmark of xtalssl, one workload per process.

Run from the repository root:

    python3 perfbench/run.py --workload toy5 --seed 0 --seconds 20 --trace 0

The run generates the workload's CIF files from the seed (see
``workloads.py``), loads them, then calls the four phases a user runs, one
call at a time from one client (a closed loop), until --seconds have
passed:

- pretrain:  ``pipeline.pretrain``
- finetune:  ``pipeline.finetune``
- embed:     ``pipeline.export_embeddings``
- featurize: what ``xtalssl featurize`` calls (load_dataset, then
  build_neighbor_list, build_graph and graph_to_json per crystal)

Every output is checked.  With ``--trace 0`` a round makes the workload's
``Spec.calls`` of each phase, and the result carries the end-to-end
metrics: set-up time, each phase's median crystals/s at a nominal machine
speed (see ``PROBES``), and peak memory.  With ``--trace 1`` a round makes
one call of each phase and also replays the phases
layer by layer inside spans (``replay.py``), checks that the replay returns
exactly what the entry point returned, and the result carries the per-layer
metrics.  The last line of stdout is the JSON result; the run's environment,
input descriptors and samples go to ``perfbench/_out/``, and with
``--trace 1`` the spans too.  The exit code is 0 only if every check passed.
"""

from __future__ import annotations

import os
import sys
import time

# One BLAS thread: the matrices are at most a few thousand rows by 169
# columns, and a single thread keeps run-to-run spread low on a small,
# shared machine.  Must be set before numpy is imported.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [SRC, HERE]

try:
    import argparse
    import importlib.util
    import json
    import math
    import platform
    import resource
    import shutil
    import signal
    import statistics
    import subprocess
    import tempfile
    import traceback

    import numpy as np

    import xtalssl
    from xtalssl.featurize import GaussianBasis, build_graph, graph_from_json, graph_to_json
    from xtalssl.geometry import NeighborConfig, build_neighbor_list
    from xtalssl.model import ModelConfig, init_params
    from xtalssl.pipeline import FinetuneConfig, PretrainConfig, export_embeddings, finetune, pretrain
    from xtalssl.structure_io import load_dataset

    import replay
    from workloads import SPECS, make_items, write_workload
except ImportError as exc:
    sys.stderr.write(f"perfbench: cannot import the program from {SRC}: {exc}\n")
    sys.exit(2)

if not os.path.abspath(xtalssl.__file__).startswith(SRC + os.sep):
    sys.stderr.write(f"perfbench: imported xtalssl from {xtalssl.__file__}, not from {SRC}\n")
    sys.exit(2)

OUT_DIR = os.path.join(HERE, "_out")
REFERENCE_PATH = os.path.join(HERE, "reference.json")
REFERENCE_SEED = 0
SETUP_REPEATS = 7
# what a fresh interpreter imports before a user's first call
_IMPORT_PROGRAM = ("import time; t0 = time.perf_counter(); "
                   "import numpy, xtalssl.featurize, xtalssl.geometry, xtalssl.model, "
                   "xtalssl.pipeline, xtalssl.structure_io; print(time.perf_counter() - t0)")
NEIGHBOR = NeighborConfig()
BASIS = GaussianBasis()
MODEL = ModelConfig(edge_feat_dim=BASIS.n_centers)

PHASES = ("pretrain", "finetune", "embed", "featurize")

# spans whose median self time is a per-layer metric; each also reports its
# call count per round
LAYER_SPANS = (
    "structure_io.parse_cif",
    "geometry.build_neighbor_list",
    "augment.random_perturb",
    "augment.mask",
    "featurize.build_graph",
    "featurize.merge_graphs",
    "featurize.graph_to_json",
    "model.encode_train",
    "model.encode_infer",
    "model.heads",
    "loss.barlow_twins",
    "autodiff.backward",
    "pipeline.adam_step",
)


# ---------------------------------------------------------------------------
# set-up


def configs(spec, seed: int, n_total: int):
    pcfg = PretrainConfig(batch=spec.batch, epochs=spec.pretrain_epochs,
                          val_fraction=2.5 / n_total,  # two validation crystals
                          neighbor=NEIGHBOR, basis=BASIS, seed=seed)
    # train takes n_train crystals, validation and test one each
    train = (spec.n_train + 0.5) / n_total
    val = 1.2 / n_total
    fcfg = FinetuneConfig(batch=spec.batch, epochs=spec.finetune_epochs,
                          split=(train, val, 1.0 - train - val),
                          neighbor=NEIGHBOR, basis=BASIS, seed=seed)
    return pcfg, fcfg


def import_seconds() -> float:
    """Seconds a fresh interpreter takes to import numpy and the program."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROGRAM],
                          env=os.environ | {"PYTHONPATH": SRC},
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.split()[-1])


def set_up(workload: str, seed: int, work: str):
    """Generate, write and load the workload, and init the embedding model."""
    items = make_items(workload, seed)
    data_dir = tempfile.mkdtemp(prefix="data-", dir=work)
    index = write_workload(items, data_dir)
    data = load_dataset(data_dir, index)
    params = init_params(MODEL, np.random.default_rng(seed), with_projector=False, with_head=False)
    return data_dir, index, data, params


# ---------------------------------------------------------------------------
# phases: each makes one call a user makes and returns its output


def run_pretrain(ctx):
    result = pretrain(ctx["data"], MODEL, ctx["pcfg"], out_dir=None)
    return result.report.epochs


def run_finetune(ctx):
    result = finetune(ctx["data"], MODEL, ctx["fcfg"], out_dir=None)
    return {"epochs": result.report.epochs, "test_mae": result.report.test_mae}


def run_embed(ctx):
    return export_embeddings(ctx["params"], ctx["data"], NEIGHBOR, BASIS)


def run_featurize(ctx):
    data = load_dataset(ctx["data_dir"], ctx["index"])
    lines = [graph_to_json(build_graph(e.structure, build_neighbor_list(e.structure, NEIGHBOR),
                                       BASIS), id=e.id)
             for e in data.entries]
    text = "\n".join(lines) + "\n"
    with open(os.path.join(ctx["work"], "graphs.jsonl"), "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _finite(x) -> bool:
    return x is not None and math.isfinite(x)


def epoch_problems(epochs, n_epochs: int, what: str) -> list[str]:
    if len(epochs) != n_epochs:
        return [f"{what}: {len(epochs)} epochs logged, expected {n_epochs}"]
    bad = [e["epoch"] for e in epochs if not (_finite(e["train_loss"]) and _finite(e["val_loss"]))]
    return [f"{what}: non-finite loss in epochs {bad}"] if bad else []


def output_problems(phase: str, out, ctx) -> list[str]:
    """Failed output checks of one call; embed and featurize give one per bad crystal."""
    spec = ctx["spec"]
    if phase == "pretrain":
        return epoch_problems(out, spec.pretrain_epochs, phase)
    if phase == "finetune":
        problems = epoch_problems(out["epochs"], spec.finetune_epochs, phase)
        return problems + ([] if _finite(out["test_mae"]) else ["finetune: non-finite test MAE"])
    checker = check_embed_rows if phase == "embed" else check_featurize_lines
    return checker(out, ctx["data"])


def check_embed_rows(text: str, data) -> list[str]:
    """Per-crystal problems in an embeddings CSV, as messages."""
    lines = text.splitlines()
    ids = sorted(e.id for e in data.entries)
    if len(lines) != len(ids) + 1:
        return [f"embed: {len(lines) - 1} rows for {len(ids)} crystals"] * len(ids)
    problems = []
    for entry_id, line in zip(ids, lines[1:]):
        cells = line.split(",")
        values = np.array(cells[1:1 + MODEL.hidden_dim], dtype=np.float64)
        if cells[0] != entry_id or len(cells) != MODEL.hidden_dim + 2 \
                or not np.isfinite(values).all():
            problems.append(f"embed: bad row for {entry_id}")
    return problems


def check_featurize_lines(text: str, data) -> list[str]:
    """Per-crystal problems in a graphs.jsonl text, as messages."""
    lines = text.splitlines()
    if len(lines) != len(data.entries):
        return [f"featurize: {len(lines)} lines for {len(data.entries)} crystals"] * len(data.entries)
    problems = []
    for entry, line in zip(data.entries, lines):
        g, gid = graph_from_json(line)
        per_src = np.bincount(g.edges[:, 0], minlength=g.n_nodes)
        if gid != entry.id or g.n_nodes != entry.structure.n_sites \
                or per_src.min() < 1 or per_src.max() > NEIGHBOR.max_neighbors \
                or g.edge_feat.shape[1] != BASIS.n_centers or not np.isfinite(g.edge_feat).all():
            problems.append(f"featurize: bad graph for {entry.id}")
    return problems


def embed_summary(text: str) -> dict:
    z = np.array([line.split(",")[1:1 + MODEL.hidden_dim] for line in text.splitlines()[1:]],
                 dtype=np.float64)
    return {"row_norms": np.linalg.norm(z, axis=1).tolist(), "col_means": z.mean(axis=0).tolist()}


def reference_view(outputs: dict) -> dict:
    """The seed-independent outputs stored as the reference of REFERENCE_SEED."""
    return {
        "pretrain_epochs": outputs["pretrain"],
        "finetune_epochs": outputs["finetune"]["epochs"],
        "finetune_test_mae": outputs["finetune"]["test_mae"],
        "embed": embed_summary(outputs["embed"]),
    }


def _close(a, b, what: str, problems: list[str]) -> None:
    if isinstance(a, dict):
        for k in a:
            _close(a[k], b.get(k) if isinstance(b, dict) else None, f"{what}.{k}", problems)
    elif isinstance(a, list):
        if not isinstance(b, list) or len(a) != len(b):
            problems.append(f"{what}: shape differs from reference")
        else:
            for i, (x, y) in enumerate(zip(a, b)):
                _close(x, y, f"{what}[{i}]", problems)
    elif isinstance(a, float):
        # tolerance covers BLAS kernels that sum in another order on other CPUs
        if not isinstance(b, (int, float)) or not math.isclose(a, b, rel_tol=1e-6, abs_tol=1e-9):
            problems.append(f"{what}: {a!r} != reference {b!r}")
    elif a != b:
        problems.append(f"{what}: {a!r} != reference {b!r}")


# ---------------------------------------------------------------------------
# environment and input descriptors


def git_sha() -> str | None:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return None  # not a git checkout


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "numba_present": importlib.util.find_spec("numba") is not None,
        "git_sha": git_sha(),
        "machine": platform.machine(),
    }


def images_per_structure(lattice: np.ndarray, cutoff: float) -> int:
    """Periodic images the neighbor search enumerates for one cell."""
    volume = abs(float(np.linalg.det(lattice)))
    count = 1
    for i in range(3):
        cross = np.cross(lattice[(i + 1) % 3], lattice[(i + 2) % 3])
        count *= 2 * math.ceil(cutoff / (volume / float(np.linalg.norm(cross)))) + 1
    return count


def descriptors(data, featurized: str, batch: int) -> dict:
    def spread(values):
        return {"min": min(values), "median": statistics.median(values), "max": max(values)}

    edges = [graph_from_json(line)[0].n_edges for line in featurized.splitlines()]
    return {
        "structures": len(data.entries),
        "sites_per_structure": spread([e.structure.n_sites for e in data.entries]),
        "images_per_structure": spread([images_per_structure(e.structure.lattice, NEIGHBOR.cutoff)
                                        for e in data.entries]),
        "edges_per_structure": spread(edges),
        "edges_per_view": batch * statistics.median(edges),
    }


# ---------------------------------------------------------------------------
# the run


class Counter:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        self.problems.append(message)


def timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


# Machine-speed probes.  A small shared host's speed can swing by up to 1.8x
# within seconds and between minutes (other tenants share its cores), every
# phase slows with it, and so wall-clock throughputs of unchanged code spread
# past their bounds from run to run.  A probe is a fixed piece, about 2 ms, of the
# benchmark's own work that calls nothing of the program, so no change to the
# program moves it.  One runs just before each timed call and one every
# PROBE_PERIOD_S during it, from a timer signal in the same thread, so the
# probes see the machine the call ran on.  A call's wall time less its
# probes' time, scaled by their mean time against the probe's nominal time,
# is the time the call would take at the nominal machine speed.  Kinds of
# work slow by different shares, so each phase has a probe like its own
# work: JSON encoding of floats for featurize, BLAS, small-array and
# interpreter work for the rest.  The raw wall-clock figures and the probe
# times go to the result file.
_PROBE_RNG = np.random.default_rng(20220504)
_PROBE_A = _PROBE_RNG.standard_normal((640, 169))
_PROBE_B = _PROBE_RNG.standard_normal((169, 128))
_PROBE_V = _PROBE_RNG.standard_normal(64)
_PROBE_ROWS = _PROBE_RNG.standard_normal((10, 16)).tolist()
_PROBE_FEATURES = _PROBE_RNG.standard_normal((30, 41))
PROBE_PERIOD_S = 0.05


def probe_compute() -> float:
    """Seconds the fixed BLAS, small-array and interpreter probe work takes now."""
    t0 = time.perf_counter()
    _PROBE_A @ _PROBE_B
    for _ in range(100):
        np.add(_PROBE_V, 1.0)
    acc = 0
    for i in range(8000):
        acc += i * i
    for _ in range(2):
        json.dumps(_PROBE_ROWS, separators=(",", ":"))
    return time.perf_counter() - t0


def probe_json() -> float:
    """Seconds the fixed float-to-JSON probe work takes now."""
    t0 = time.perf_counter()
    json.dumps(_PROBE_FEATURES.tolist(), separators=(",", ":"))
    return time.perf_counter() - t0


# nominal probe times, about their medians on a 2-vCPU x86-64 VM
COMPUTE_NOMINAL_S = 0.0022
JSON_NOMINAL_S = 0.0014
# each phase's probe and its nominal time
PROBES = {
    "pretrain": (probe_compute, COMPUTE_NOMINAL_S),
    "finetune": (probe_compute, COMPUTE_NOMINAL_S),
    "embed": (probe_compute, COMPUTE_NOMINAL_S),
    "featurize": (probe_json, JSON_NOMINAL_S),
}


class ProbedClock:
    """Times calls with probes before and during each (see ``PROBES``)."""

    def __init__(self, probe):
        self.probe = probe
        self.probes: list[float] = []
        self._busy = False

    def _on_alarm(self, signum, frame):
        if not self._busy:  # a probe slower than the period skips the next
            self._busy = True
            try:
                self.probes.append(self.probe())
            finally:
                self._busy = False

    def __call__(self, fn, *args):
        """(wall s less the probes during the call, mean probe s, fn(*args))."""
        self.probes = [self.probe()]
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            wall = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return wall - sum(self.probes[1:]), statistics.mean(self.probes), out


def plain_clock(fn, *args):
    """(wall s, None, fn(*args))."""
    wall, out = timed(fn, *args)
    return wall, None, out


RUNNERS = {"pretrain": run_pretrain, "finetune": run_finetune,
           "embed": run_embed, "featurize": run_featurize}


def phase_work(ctx) -> dict:
    """Crystals one call of each phase processes."""
    spec, n = ctx["spec"], len(ctx["data"].entries)
    return {"pretrain": spec.n_train * spec.pretrain_epochs,
            "finetune": spec.n_train * spec.finetune_epochs,
            "embed": n, "featurize": n}


def call_phase(phase: str, ctx, counter: Counter, outputs: dict, clock=plain_clock):
    """One checked call: (wall s, probe s, output), the output None if the call failed."""
    # an operation is a pretrain or finetune call, or one crystal of the others
    ops = 1 if phase in ("pretrain", "finetune") else len(ctx["data"].entries)
    counter.attempted += ops
    try:
        wall, probe_s, out = clock(RUNNERS[phase], ctx)
    except Exception:  # a raising phase is a failed operation; keep measuring
        counter.fail(ops, f"{phase} raised:\n{traceback.format_exc()}")
        return None, None, None
    try:
        problems = output_problems(phase, out, ctx)
    except Exception:  # a check that cannot read the output fails it
        problems = [f"{phase} check raised:\n{traceback.format_exc()}"] * ops
    if not problems and outputs.setdefault(phase, out) != out:
        problems = [f"{phase}: output differs from the first call"] * ops
    if problems:
        counter.fail(min(len(problems), ops), "; ".join(problems[:3]))
        return wall, probe_s, None
    return wall, probe_s, out


def run_rounds(seconds: float, calls: dict, one_call) -> int:
    """Whole rounds of ``one_call(phase)``, ``calls[phase]`` back to back per phase.

    Stops when the next round would end more than half a round past
    ``seconds``; returns the rounds run.
    """
    start = time.perf_counter()
    rounds = 0
    while True:
        for phase in PHASES:
            for _ in range(calls[phase]):
                one_call(phase)
        rounds += 1
        now = time.perf_counter()
        if now + 0.5 * (now - start) / rounds >= start + seconds:
            return rounds


def measure(ctx, counter: Counter, outputs: dict, seconds: float) -> dict:
    """Closed-loop calls for ``seconds``, timed with probes.

    Returns each phase's call walls less probes, and each call's mean probe.
    """
    samples = {p: {"wall_s": [], "probe_s": []} for p in PHASES}
    clocks = {p: ProbedClock(PROBES[p][0]) for p in PHASES}

    def one_call(phase):
        wall, probe_s, out = call_phase(phase, ctx, counter, outputs, clocks[phase])
        if out is not None:
            samples[phase]["wall_s"].append(wall)
            samples[phase]["probe_s"].append(probe_s)

    run_rounds(seconds, dict(zip(PHASES, ctx["spec"].calls)), one_call)
    return samples


def measure_traced(ctx, counter: Counter, outputs: dict, seconds: float, tracer):
    """Rounds of one call and one traced replay of each phase, for ``seconds``.

    Returns the untraced and traced walls of the phase calls, and the rounds run.
    """
    data = ctx["data"]
    replays = {
        "pretrain": lambda: replay.replay_pretrain(tracer, data, MODEL, ctx["pcfg"]),
        "finetune": lambda: replay.replay_finetune(tracer, data, MODEL, ctx["fcfg"]),
        "embed": lambda: replay.replay_embed(tracer, ctx["params"], data, NEIGHBOR, BASIS),
        "featurize": lambda: replay.replay_featurize(tracer, ctx["data_dir"], ctx["index"],
                                                     NEIGHBOR, BASIS),
    }
    samples = {"untraced_s": [], "traced_s": []}

    def one_call(phase):
        wall, _, out = call_phase(phase, ctx, counter, outputs)
        if out is None:
            return
        # the replay counts as an operation of its own
        counter.attempted += 1
        try:
            traced_wall, replayed = timed(tracer.call, f"{phase}.replay", replays[phase])
            if phase in ("pretrain", "finetune"):
                expected = out if phase == "pretrain" else out["epochs"]
                same = [e["train_loss"] for e in replayed] == [e["train_loss"] for e in expected]
            else:
                same = replayed == out
        except Exception:
            counter.fail(1, f"{phase} replay raised:\n{traceback.format_exc()}")
            return
        if not same:
            counter.fail(1, f"{phase}: traced replay's result differs from the untraced call")
            return
        samples["untraced_s"].append(wall)
        samples["traced_s"].append(traced_wall)

    return samples, run_rounds(seconds, dict.fromkeys(PHASES, 1), one_call)


def layer_metrics(tracer, rounds: int, samples: dict) -> dict:
    self_times = tracer.self_times()
    by_name: dict[str, list[float]] = {}
    for (name, *_), own in zip(tracer.spans, self_times):
        by_name.setdefault(name, []).append(own)
    metrics = {}
    for name in LAYER_SPANS:
        values = by_name.get(name, [])
        metrics[f"{name}_ms"] = (1e3 * statistics.median(values) if values else 0.0, "ms")
        metrics[f"{name}_calls"] = (len(values) / rounds, "count")
    for key in ("featurize.nodes_per_batch", "featurize.edges_per_batch"):
        values = tracer.counts.get(key, [])
        metrics[key] = (statistics.median(values) if values else 0.0, "count")
    steps = [(end - start, own) for (name, _, start, end), own in zip(tracer.spans, self_times)
             if name == "pretrain.step"]
    total = sum(d for d, _ in steps)
    metrics["trace.unattributed_frac"] = (sum(o for _, o in steps) / total if total else 1.0,
                                          "fraction")
    untraced = sum(samples["untraced_s"])
    metrics["trace.overhead_frac"] = (sum(samples["traced_s"]) / untraced - 1.0 if untraced
                                      else 0.0, "fraction")
    return metrics


def throughputs(samples: dict, crystals: dict, adjusted: bool) -> dict:
    """Each phase's per-call crystals/s, raw or at the nominal machine speed."""
    return {p: [crystals[p] / wall * (pr / PROBES[p][1] if adjusted else 1.0)
                for wall, pr in zip(samples[p]["wall_s"], samples[p]["probe_s"])]
            for p in PHASES}


def end_to_end_metrics(samples: dict, crystals: dict, setup_s: float) -> dict:
    metrics = {"setup_s": (setup_s, "s")}
    for phase, values in throughputs(samples, crystals, adjusted=True).items():
        metrics[f"{phase}_xtals_per_s"] = (statistics.median(values) if values else 0.0,
                                           "crystals/s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help=f"store this run's outputs as the seed-{REFERENCE_SEED} reference")
    args = parser.parse_args(argv)
    if args.write_reference and args.seed != REFERENCE_SEED:
        parser.error(f"--write-reference needs --seed {REFERENCE_SEED}")
    spec = SPECS[args.workload]

    os.makedirs(OUT_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"work-{args.workload}-", dir=OUT_DIR)
    try:
        # each repeat: a fresh interpreter's import of the program, then this
        # process's generation, writing and loading of the workload and model
        # init.  Wall clock: most of it is the child's import, which probes
        # in this process do not follow.
        setup_times = []
        for _ in range(SETUP_REPEATS):
            imported = import_seconds()
            wall, (data_dir, index, data, params) = timed(set_up, args.workload, args.seed, work)
            setup_times.append(imported + wall)
        setup_s = statistics.median(setup_times)
        pcfg, fcfg = configs(spec, args.seed, len(data.entries))
        ctx = {"spec": spec, "data": data, "data_dir": data_dir, "index": index, "params": params,
               "pcfg": pcfg, "fcfg": fcfg, "work": work}

        counter = Counter()
        outputs: dict = {}
        tracer = replay.Tracer() if args.trace else None
        if tracer:
            samples, rounds = measure_traced(ctx, counter, outputs, args.seconds, tracer)
        else:
            samples, rounds = measure(ctx, counter, outputs, args.seconds), None

        if len(outputs) == len(PHASES):
            observed = reference_view(outputs)
            if args.write_reference:
                stored = {}
                if os.path.exists(REFERENCE_PATH):
                    with open(REFERENCE_PATH, encoding="utf-8") as fh:
                        stored = json.load(fh)
                stored[args.workload] = observed
                with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
                    json.dump(stored, fh, indent=1, sort_keys=True)
                    fh.write("\n")
            elif args.seed == REFERENCE_SEED:
                with open(REFERENCE_PATH, encoding="utf-8") as fh:
                    reference = json.load(fh)[args.workload]
                problems: list[str] = []
                _close(observed, reference, "reference", problems)
                counter.attempted += 1
                if problems:
                    counter.fail(1, "; ".join(problems[:5]))

        crystals = phase_work(ctx)
        metrics = (layer_metrics(tracer, rounds, samples) if tracer
                   else end_to_end_metrics(samples, crystals, setup_s))
        info = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "rounds": rounds, "environment": environment(),
            "inputs": descriptors(data, outputs["featurize"], spec.batch)
            if "featurize" in outputs else None,
            "setup_times_s": setup_times,
            "samples": samples, "problems": counter.problems,
            "probe_nominal_s": {p: PROBES[p][1] for p in PHASES},
            "raw_xtals_per_s": None if tracer else {
                p: statistics.median(v) if v else None
                for p, v in throughputs(samples, crystals, adjusted=False).items()},
            "fail_frac": counter.failed / max(counter.attempted, 1),
        }
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        with open(stem + ".json", "w", encoding="utf-8") as fh:
            json.dump(info | {"metrics": metrics}, fh, indent=1)
        if tracer:
            with open(stem + "-spans.json", "w", encoding="utf-8") as fh:
                json.dump({"fields": ["name", "parent", "start_s", "end_s"],
                           "spans": tracer.spans}, fh)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for problem in counter.problems:
        sys.stderr.write(f"perfbench: check failed: {problem}\n")
    print(json.dumps({k: info[k] for k in ("environment", "inputs")}))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} fail_frac = {info['fail_frac']:.6g} ({counter.failed}/{counter.attempted})")
    correct = counter.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": counter.attempted,
        "failed": counter.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
