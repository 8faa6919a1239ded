"""tmlnet benchmark: end-to-end and per-layer timings of training and evaluation.

Run from the repository root:

    python3 bench/run.py --workload dhlac-train --seed 1 --seconds 35 --trace 0

The package is imported from ``src/`` and driven only through its public
Python API, the same calls ``tmlnet train`` and ``tmlnet eval`` make. Each run
generates its stripe data from ``--seed``, sets up several times (median
reported), then repeats the workload's fixed job in a closed loop while
another repetition fits in ``--seconds``, checks the outputs, and prints a report whose last
line is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``. BLAS runs one thread, and every timing is process CPU time
(wall time is printed alongside, not reported as a metric). ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer metrics.
See ``bench/README.md`` for the workloads and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import gc
import glob
import json
import math
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

# One BLAS thread, set before numpy loads. On a 2-vCPU Xeon VM a second thread
# left dhlac-train and hlac-eval as fast as before (68 ms per step, 3.6 s per
# pass) and made cooc-train 12% faster, but it doubled the CPU drawn; with both
# vCPUs busy the host takes them away for a share of the time that changes from
# minute to minute, and one stalled thread holds up the other.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402
from numpy.lib.stride_tricks import sliding_window_view  # noqa: E402

from spans import Hook, Tracer, full_hooks, light_hooks  # noqa: E402
from tmlnet import gradcheck, layers, tml, training  # noqa: E402
from tmlnet.cli import DEFAULTS, build_network  # noqa: E402
from tmlnet.datasets import (  # noqa: E402
    StripeSpec,
    gen_stripe_dataset,
    load_dataset_dir,
    write_idx_images,
    write_idx_labels,
)
from tmlnet.network import init_params, load_network, network_forward, save_network  # noqa: E402

SETUP_REPEATS = 9
GRADCHECK_TRIALS = 3
PRODUCT_CHECK_IMAGES = 4


@dataclass(frozen=True)
class Workload:
    arch: str
    stripes: StripeSpec  # rng_seed is replaced by --seed
    epochs: int  # 0: forward-only evaluate of the test split
    eval_batch: int
    min_test_acc: float | None  # best-epoch test_acc must reach it; None: not gated


WORKLOADS = {
    # 1.5x chance is 5 sigma above chance on 600 test images
    "dhlac-train": Workload("dhlac", StripeSpec(), 5, 256, 1.5 / 6),
    # runnable, but not in BENCHMARK.json: see bench/README.md
    "cooc-train": Workload("cooc", StripeSpec(), 5, 256, None),
    "hlac-eval": Workload(
        "baseline+hlac", StripeSpec(num_classes=8, crop=64, samples_per_class=128), 0, 256, None
    ),
}


def tiny(wl: Workload) -> Workload:
    """Seconds-long variant for the smoke test; too short to learn, so not gated."""
    crop = 24 if wl.epochs == 0 else wl.stripes.crop
    stripes = replace(wl.stripes, canvas=96, crop=crop, samples_per_class=6)
    return replace(wl, stripes=stripes, epochs=min(wl.epochs, 1), eval_batch=16, min_test_acc=None)


# ---------------------------------------------------------------------------
# machine record
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path) as f:
            return f.read().strip()
    except OSError:
        return ""


def _blas_threads():
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be queried."""
    libs = glob.glob(str(Path(np.__file__).parents[1] / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_record(seed: int) -> dict:
    model = next(
        (ln.split(":", 1)[1].strip() for ln in _read("/proc/cpuinfo").splitlines()
         if ln.startswith("model name")),
        platform.processor(),
    )
    caches = {}
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        kind = {"Data": "d", "Instruction": "i"}.get(_read(index + "/type"), "")
        caches[f"L{_read(index + '/level')}{kind}"] = _read(index + "/size")
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "cpu": model,
        "nproc": len(os.sched_getaffinity(0)),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '')}".strip(),
        "blas_threads": _blas_threads(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# set-up: data, IDX round trip, network, checkpoint round trip
# ---------------------------------------------------------------------------


@dataclass
class Setup:
    built: object  # the network as initialized in memory
    spec: object  # the same network after save_network -> load_network
    train: object
    test: object
    times: dict


def setup(wl: Workload, seed: int, workdir: Path) -> Setup:
    """Build the workload's data and network; `times` are CPU seconds per stage."""
    t0 = time.process_time()
    train, test = gen_stripe_dataset(replace(wl.stripes, rng_seed=seed))
    t1 = time.process_time()
    for split, ds in (("train", train), ("test", test)):
        write_idx_images(list(ds.images), workdir / f"{split}-images.idx")
        write_idx_labels(ds.labels.tolist(), workdir / f"{split}-labels.idx")
    train, test = load_dataset_dir(workdir)
    t2 = time.process_time()
    cfg = dict(DEFAULTS, seed=seed)
    if wl.arch == "cooc":  # the 1x1 bank `tmlnet train --arch cooc` defaults to
        cfg.update(kernel_h=1, kernel_w=1)
    num_classes = int(max(train.labels.max(), test.labels.max())) + 1
    built = build_network(wl.arch, train.images.shape[1:], num_classes, cfg)
    init_params(built, np.random.default_rng(seed))
    t3 = time.process_time()
    save_network(built, workdir / "net.net")
    spec = load_network(workdir / "net.net")
    t4 = time.process_time()
    times = {
        "datasets.gen_s": t1 - t0,
        "datasets.idx_s": t2 - t1,
        "network.init_s": t3 - t2,
        "network.checkpoint_s": t4 - t3,
        "setup_s": t4 - t0,
    }
    return Setup(built, spec, train, test, times)


# ---------------------------------------------------------------------------
# correctness checks (outside every timed region)
# ---------------------------------------------------------------------------


class Checks:
    def __init__(self):
        self.results: list[tuple[str, bool, str]] = []

    def add(self, name: str, ok: bool, detail: str = ""):
        self.results.append((name, bool(ok), detail))

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def check_checkpoint(checks: Checks, built, loaded, xb):
    same_params = all(
        np.array_equal(a[k], b[k])
        for pa, pb in ((built.params, loaded.params), (built.side_params, loaded.side_params))
        for a, b in zip(pa, pb)
        for k in a
    )
    checks.add("checkpoint params round-trip bit for bit", same_params)
    mem, _ = network_forward(built, xb)
    disk, _ = network_forward(loaded, xb)
    checks.add("checkpoint logits equal in-memory logits bit for bit", np.array_equal(mem, disk))


def product_form_features(x: np.ndarray, weights: np.ndarray, eps: float) -> np.ndarray:
    """Pooled prod_{p,q,k} (x + eps) ** w over every valid window, without log/exp."""
    kh, kw = weights.shape[:2]
    win = sliding_window_view(x + eps, (kh, kw), axis=(0, 1))  # (H', W', K, kh, kw)
    w = weights.transpose(2, 0, 1, 3)  # (K, kh, kw, M)
    return np.prod(win[..., None] ** w, axis=(2, 3, 4)).mean(axis=(0, 1))


def check_frozen_bank(checks: Checks, spec, images: np.ndarray):
    ((chain, i, layer),) = [e for e in spec.tml_entries() if not e[2].trainable]
    kernels = tml.TmlKernels(layer.tml, spec.param_dict(chain, i)["w"])
    pooled = layers.gap_forward(tml.forward_batch(images, kernels))
    literal = np.stack([product_form_features(x, kernels.weights, layer.tml.eps) for x in images])
    err = float(np.max(np.abs(pooled - literal) / np.abs(literal)))
    checks.add("frozen-bank pooled features match the literal product form", err <= 1e-10,
               f"max rel err {err:.3e} (tolerance 1e-10)")


def check_training(checks: Checks, wl: Workload, reps: list, num_classes: int):
    first = reps[0]
    inv_ok = all(
        r["inv"].min_weight >= 0 and r["inv"].max_sum_abs_err <= 1e-9 and r["inv"].steps == r["steps"]
        for r in reps
    )
    worst = max(r["inv"].max_sum_abs_err for r in reps)
    checks.add("kernel weights >= 0 and sum to c1 within 1e-9 after every step", inv_ok,
               f"min weight {min(r['inv'].min_weight for r in reps):.3e}, max sum error {worst:.3e}")
    checks.add("every epoch loss finite",
               all(math.isfinite(m.mean_loss) for r in reps for m in r["metrics"]))
    checks.add("repetitions reproduce the first one's metrics exactly",
               all(r["metrics"] == first["metrics"] for r in reps))
    if wl.min_test_acc is not None:
        # best epoch, not last: at the default learning rate accuracy is not
        # monotone and can fall back to chance for an epoch (seed 18: 0.73 -> 0.17)
        best = max(m.test_acc for m in first["metrics"])
        checks.add(f"test_acc beats chance ({1 / num_classes:.4f})", best >= wl.min_test_acc,
                   f"best epoch test_acc {best:.4f}, required >= {wl.min_test_acc:.4f}")


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def train_config(wl: Workload, seed: int) -> training.TrainConfig:
    return training.TrainConfig(
        lam=DEFAULTS["lambda"], learning_rate=DEFAULTS["learning_rate"],
        momentum=DEFAULTS["momentum"], batch_size=DEFAULTS["batch_size"],
        epochs=wl.epochs, rng_seed=seed,
    )


def warm_up(wl: Workload, s: Setup, seed: int):
    """A few untimed steps or one eval batch on a throwaway copy, so the
    allocator has grown its arenas before the first timed repetition."""
    spec = copy.deepcopy(s.spec)
    if wl.epochs:
        cfg = train_config(wl, seed)
        state = training.OptimizerState.zeros_like(spec)
        rng = np.random.default_rng(seed)
        for _, batch in zip(range(3), training.batches(s.train, cfg.batch_size, rng)):
            training.train_step(spec, batch, cfg, state, rng)
    training.evaluate(spec, s.test.subset(wl.eval_batch), wl.eval_batch)


def run_job(wl: Workload, s: Setup, seed: int, tracer: Tracer) -> dict:
    """One repetition of the workload's fixed job under `tracer`; returns its record."""
    gc.collect()
    if wl.epochs:
        spec = copy.deepcopy(s.spec)
        inv = training.InvariantLog()
        with tracer:
            t0, w0 = time.process_time(), time.perf_counter()
            metrics = training.train_loop(
                spec, s.train, train_config(wl, seed), test_ds=s.test, invariants=inv
            )
            run_s, wall_s = time.process_time() - t0, time.perf_counter() - w0
        return {"run_s": run_s, "wall_s": wall_s, "metrics": metrics, "inv": inv,
                "steps": len(tracer.spans("train_step", "step"))}
    with tracer:
        t0, w0 = time.process_time(), time.perf_counter()
        acc = training.evaluate(s.spec, s.test, wl.eval_batch)
        run_s, wall_s = time.process_time() - t0, time.perf_counter() - w0
    return {"run_s": run_s, "wall_s": wall_s, "acc": acc}


def measure(wl: Workload, s: Setup, seed: int, seconds: float, traced: bool):
    """Closed loop: repeat the job while another repetition fits in `seconds`
    (at least once; at least once each way when traced).

    Returns (untraced records, traced records, failures); traced runs alternate
    a light repetition with a fully traced one.
    """
    plain, full, failures = [], [], 0
    deadline = time.perf_counter() + seconds
    while True:
        use_full = traced and len(full) < len(plain)
        tracer = Tracer(full_hooks() if use_full else light_hooks())
        t0 = time.perf_counter()
        try:
            record = run_job(wl, s, seed, tracer)
        except Exception:  # a raised step or eval batch: count it, keep measuring
            traceback.print_exc()
            failures += 1
        else:
            record["tracer"] = tracer
            (full if use_full else plain).append(record)
        now = time.perf_counter()
        done = plain and (full or not traced)
        if (done or failures) and now + (now - t0) > deadline:
            return plain, full, failures


def fastest_half(reps: list) -> list:
    """The faster half of the repetitions by CPU time, rounded up.

    On a shared VM the CPU time of the same job drifts by up to 25% over
    stretches of 10-30 s (cache, memory bandwidth and sibling-thread
    contention from other guests, which CPU time does not leave out). The
    contention only ever adds time, so the fastest repetitions of a run are the
    ones that measured the program.
    """
    return sorted(reps, key=lambda r: r["run_s"])[: (len(reps) + 1) // 2]


def pct(values, q):
    return float(np.percentile(np.asarray(values), q)) if values else float("nan")


def end_to_end(wl: Workload, reps: list) -> dict:
    if wl.epochs:
        latencies = [d for r in reps for d in r["tracer"].spans("train_step", "step")]
    else:
        latencies = [d for r in reps for d in r["tracer"].spans("network_forward", "eval")]
    # every evaluate call covers a whole split, so its rate is one sample
    eval_rates = [
        n / d for r in reps for n, d in zip(r["tracer"].sizes["evaluate"],
                                            r["tracer"].spans("evaluate", "eval"))
    ]
    return {
        "run_cpu_s": (statistics.median(r["run_s"] for r in reps), "s"),
        "step_cpu_ms_p50": (pct(latencies, 50) * 1e3, "ms"),
        "step_cpu_ms_p90": (pct(latencies, 90) * 1e3, "ms"),
        "eval_images_per_cpu_s": (statistics.median(eval_rates), "img/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }, len(latencies)


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

STEP_BUCKETS = [
    "conv.fwd", "conv.bwd", "tml.fwd", "tml.bwd_w", "tml.bwd_x", "pool.fwd", "pool.bwd",
    "act.fwd", "act.bwd", "fc.fwd", "fc.bwd", "gap.fwd", "gap.bwd",
    "loss", "batch", "network", "update", "project",
]
EVAL_BUCKETS = ["conv.fwd", "tml.fwd", "pool.fwd", "act.fwd", "fc.fwd", "gap.fwd", "dropout.fwd",
                "network"]


def shape_costs(spec, xb) -> dict:
    """Per-sample multiply-accumulates of every conv and TML layer, from the shapes
    the layers are called with (one untimed forward of a single image).

    Forward and each backward product (d_w, d_x) cost H'*W'*kh*kw*Cin*Cout MACs.
    A layer whose input is the network input computes a d_x nobody reads.
    """
    calls = []

    def capture(concept):
        def count(tracer, args):
            if not tracer.in_layer:  # a layer built on another counts once
                w = getattr(args[1], "weights", args[1])
                calls.append((concept, args[0].shape, w.shape))
        return count

    hooks = [
        Hook(layers, "conv2d_forward", "conv.fwd", layer=True, count=capture("conv")),
        Hook(tml, "forward_batch", "tml.fwd", layer=True, count=capture("tml")),
    ]
    with Tracer(hooks):
        network_forward(spec, xb[:1])
    costs = {c: {"macs": 0, "dx": 0, "dx_used": 0} for c in ("conv", "tml")}
    for concept, x_shape, (kh, kw, cin, cout) in calls:
        c = costs[concept]
        c["macs"] += (x_shape[1] - kh + 1) * (x_shape[2] - kw + 1) * kh * kw * cin * cout
        dx = int(np.prod(x_shape[1:]))
        c["dx"] += dx
        c["dx_used"] += 0 if tuple(x_shape[1:]) == tuple(spec.input_shape) else dx
    return costs


def per_layer(wl: Workload, s: Setup, setup_med: dict, plain: list, full: list) -> dict:
    out = {k: (v, "s") for k, v in setup_med.items() if k != "setup_s"}
    self_s, counts = {}, {}
    for r in full:
        for k, v in r["tracer"].self_s.items():
            self_s[k] = self_s.get(k, 0.0) + v
        for k, v in r["tracer"].counts.items():
            counts[k] = counts.get(k, 0.0) + v
    steps = sum(len(r["tracer"].spans("train_step", "step")) for r in full)
    images = sum(n for r in full for n in r["tracer"].sizes["evaluate"])
    for b in STEP_BUCKETS:
        out[f"step.{b}_ms"] = (self_s.get(f"step.{b}", 0.0) / steps * 1e3 if steps else 0.0, "ms")
    for b in EVAL_BUCKETS:
        out[f"eval.{b}_ms"] = (
            self_s.get(f"eval.{b}", 0.0) / images * 1e6 if images else 0.0, "ms/kimg"
        )

    costs = shape_costs(s.spec, s.train.images)
    samples_per_step = len(s.train) / math.ceil(len(s.train) / DEFAULTS["batch_size"])
    for concept, bwd_ms in (
        ("conv", out["step.conv.bwd_ms"][0]),
        ("tml", out["step.tml.bwd_w_ms"][0] + out["step.tml.bwd_x_ms"][0]),
    ):
        c = costs[concept]
        gflop = 2 * 2 * c["macs"] * samples_per_step / 1e9 if wl.epochs else 0.0
        out[f"{concept}.bwd_gflop_per_step"] = (gflop, "GFLOP")
        out[f"{concept}.bwd_gflops"] = (gflop / (bwd_ms / 1e3) if bwd_ms else 0.0, "GFLOP/s")
        out[f"{concept}.dx_useful_frac"] = (c["dx_used"] / c["dx"] if c["dx"] else 0.0, "frac")

    evals = [d for r in full for d in r["tracer"].spans("evaluate", "eval")]
    per_job = wl.epochs or 1  # hlac-eval: one evaluate pass is its job
    out["training.eval_s_per_epoch"] = (sum(evals) / (len(full) * per_job), "s")
    out["tml.resets"] = (counts.get("tml.resets", 0.0) / len(full), "count")
    total = counts.get("tml.input_total", 0.0)
    out["tml.input_zero_frac"] = (counts.get("tml.input_zero", 0.0) / total if total else 0.0,
                                  "frac")
    last = full[0]["metrics"][-1] if wl.epochs else None
    out["training.test_acc"] = (last.test_acc if last else full[0]["acc"], "frac")
    out["training.final_loss"] = (last.mean_loss if last else 0.0, "loss")
    traced_s = statistics.median(r["run_s"] for r in full)
    plain_s = statistics.median(r["run_s"] for r in plain)
    out["trace.overhead_frac"] = (traced_s / plain_s - 1.0, "frac")
    return out


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measurement window")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="smoke-test sizes; not for timing")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    wl = WORKLOADS[args.workload]
    if args.tiny:
        wl = tiny(wl)
    print("machine " + json.dumps(machine_record(args.seed)))
    print(f"workload {args.workload}: arch {wl.arch}, {wl.stripes.num_classes} classes x "
          f"{wl.stripes.samples_per_class} train and test crops of {wl.stripes.crop}x"
          f"{wl.stripes.crop}, epochs {wl.epochs}, train batch {DEFAULTS['batch_size']}, "
          f"eval batch {wl.eval_batch}, seed {args.seed}")

    checks = Checks()
    if wl.epochs:
        ok = gradcheck.run_all(seed=args.seed, trials=GRADCHECK_TRIALS, emit=lambda m: None)
        checks.add(f"gradcheck.run_all ({GRADCHECK_TRIALS} trials)", ok)

    times = []
    with tempfile.TemporaryDirectory(prefix=".bench-tmp-", dir=ROOT) as tmp:
        for _ in range(SETUP_REPEATS):
            s = setup(wl, args.seed, Path(tmp))  # keep one set-up alive, not all of them
            times.append(s.times)
    setup_med = {k: statistics.median(t[k] for t in times) for k in s.times}
    num_classes = s.spec.num_classes
    check_checkpoint(checks, s.built, s.spec, s.test.images[: wl.eval_batch])
    if not wl.epochs:
        check_frozen_bank(checks, s.spec, s.test.images[:PRODUCT_CHECK_IMAGES])

    warm_up(wl, s, args.seed)
    plain, full, failures = measure(wl, s, args.seed, args.seconds, bool(args.trace))
    reps = plain + full
    if wl.epochs and reps:
        check_training(checks, wl, reps, num_classes)
    elif reps:
        checks.add("every evaluate pass gives the same accuracy",
                   len({r["acc"] for r in reps}) == 1)

    missing = sorted({m for r in reps for m in r["tracer"].missing})
    if missing:
        print("hooks not found, their spans read 0: " + ", ".join(missing))
    print("run_cpu_s per repetition " + " ".join(f"{r['run_s']:.3f}" for r in reps))
    print("wall_s per repetition " + " ".join(f"{r['wall_s']:.3f}" for r in reps))
    kept = fastest_half(plain)
    e2e, n_lat = end_to_end(wl, kept) if kept else ({}, 0)
    steps = sum(len(r["tracer"].spans("train_step", "step")) for r in reps)
    batches = sum(len(r["tracer"].spans("network_forward", "eval")) for r in reps)
    attempted = steps + batches + failures + len(checks.results)
    failed = failures + checks.failed

    for name, ok, detail in checks.results:
        print(f"check {'ok  ' if ok else 'FAIL'} {name}" + (f": {detail}" if detail else ""))
    print(f"repetitions {len(plain)} untraced, {len(full)} traced; {steps} train steps, "
          f"{batches} eval batches; end-to-end metrics from the fastest {len(kept)} untraced "
          f"repetitions, latency samples {n_lat} "
          f"({'train_step' if wl.epochs else f'eval batch of {wl.eval_batch}'})")
    print(f"setup_s {setup_med['setup_s']:.6f} s (CPU, median of {SETUP_REPEATS})")
    for k, (v, unit) in e2e.items():
        print(f"{k} {v:.6g} {unit}")
    if wl.epochs and reps:
        last = reps[0]["metrics"][-1]
        print(f"test_acc {last.test_acc:.6g} frac (epoch {last.epoch}, measured, not gated; "
              "by epoch " + " ".join(f"{m.test_acc:.4f}" for m in reps[0]["metrics"]) + ")")
        print(f"final_loss {last.mean_loss:.6g} loss (epoch {last.epoch})")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations and checks)")

    if args.trace:
        metrics = per_layer(wl, s, setup_med, plain, full) if full and plain else {}
        for k, (v, unit) in metrics.items():
            print(f"layer {k} {v:.6g} {unit}")
    else:
        metrics = dict(e2e, setup_s=(setup_med["setup_s"], "s"))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
