"""End-to-end benchmark of the zslkit CLI, with a separate traced run for
per-layer numbers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

The benchmark is a closed loop: one caller runs one ``python -m zslkit.cli``
command at a time, each in a fresh process, and starts the next only when
the previous one has exited. It keeps starting commands while the median
command time still fits in ``--seconds``. Child processes get one BLAS
thread. CPU time and peak RSS come from ``os.wait4`` on each child.

Set-up (perfbench/generate.py, its own process) generates the workload from
``--seed`` and writes its inputs through ``zslkit.io``, at least SETUPS
times and for at least SETUP_MIN_S seconds; ``setup_s`` is the median.

With ``--trace 0`` the last line of stdout is a JSON object holding the
end-to-end metrics. With ``--trace 1`` untraced and traced commands
alternate (the traced ones run under perfbench/tracer.py) and the JSON
object holds the per-layer metrics, including ``trace.overhead_s``, the
difference of the two median wall times.

``--smoke`` runs all three workloads at a tiny size, traced and untraced,
and checks the outputs, the span accounting and the metric names against
BENCHMARK.json.

This process uses the standard library only and stays small, because the
peak RSS that ``os.wait4`` reports for a child includes the peak RSS of the
process that started it. The program is run from ``src/`` of the checkout
that holds this file; without it the benchmark exits with code 2 and prints
no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

from spec import WORKLOADS, Workload

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUPS, SETUP_MIN_S = 3, 2.0
CHILD_TIMEOUT_S = 60.0
NPROC = len(os.sched_getaffinity(0))
# One BLAS thread per child: the matrix products here are too small to gain
# from a second thread, and a spinning second thread makes wall and CPU time
# depend on whatever else holds the other cores of a shared host.
BLAS_THREADS = 1
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update({var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS})
    return env


# ---------------------------------------------------------------------------
# one process
# ---------------------------------------------------------------------------

@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    rss_mb: float
    error: str | None = None
    accuracy: float | None = None
    trace: dict | None = None


def run_process(argv: list[str], workdir: Path) -> tuple[Sample, str]:
    """Run argv to completion; return its timings and stdout."""
    out_path, err_path = workdir / "stdout.txt", workdir / "stderr.txt"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=workdir)
        done = threading.Event()
        watchdog = threading.Timer(
            CHILD_TIMEOUT_S, lambda: done.is_set() or proc.kill())
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            done.set()
            watchdog.cancel()
            watchdog.join()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    sample = Sample(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)
    if proc.returncode != 0:
        tail = err_path.read_text(encoding="utf-8", errors="replace").strip()
        sample.error = f"exit code {proc.returncode}: {tail[-300:]}"
    return sample, out_path.read_text(encoding="utf-8", errors="replace")


def set_up(workload: Workload, seed: int, traced: bool,
           tiny: bool = False) -> dict:
    """Untraced runs repeat the set-up to time it; traced runs and the smoke
    run set up once."""
    repeats, min_seconds = (1, 0.0) if traced else (SETUPS, SETUP_MIN_S)
    workdir = WORK / workload.name
    WORK.mkdir(parents=True, exist_ok=True)
    out = WORK / f"{workload.name}-setup.json"
    argv = [sys.executable, str(HERE / "generate.py"), "--workload",
            workload.name, "--seed", str(seed), "--repeats", str(repeats),
            "--min-seconds", str(min_seconds),
            "--workdir", str(workdir), "--out", str(out)]
    argv += ["--trace"] * traced + ["--tiny"] * tiny
    sample, _ = run_process(argv, WORK)
    if sample.error is not None:
        raise SystemExit(f"error: set-up failed: {sample.error}")
    return json.loads(out.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------

class CheckFailed(Exception):
    pass


ACCURACY_FLOOR = 0.3  # chance among 8 validation classes is 0.125
CHECKPOINT_MAGIC = b"ZSLCKPT1\n"  # then a JSON line, then W_e as raw <f8


def printed(stdout: str, key: str) -> float:
    for line in stdout.splitlines():
        if line.startswith(key + "\t"):
            return float(line.split("\t")[1])
    raise CheckFailed(f"output has no {key!r} line")


def check_checkpoint(path: Path, d: int, m: int) -> None:
    """W_e must have shape (d+1, m+1) and finite entries."""
    with open(path, "rb") as f:
        if f.readline() != CHECKPOINT_MAGIC:
            raise CheckFailed("checkpoint has a bad magic line")
        meta = json.loads(f.readline())
        if (meta.get("d"), meta.get("m")) != (d, m):
            raise CheckFailed(f"checkpoint is d={meta.get('d')} m={meta.get('m')}, "
                              f"expected d={d} m={m}")
        count = 0
        while chunk := f.read(1 << 20):
            values = array("d")
            values.frombytes(chunk)
            if sys.byteorder == "big":
                values.byteswap()
            if not all(map(math.isfinite, values)):
                raise CheckFailed("checkpoint W_e has non-finite entries")
            count += len(values)
    if count != (d + 1) * (m + 1):
        raise CheckFailed(f"checkpoint holds {count} values, expected "
                          f"{(d + 1) * (m + 1)}")


def check_output(workload: Workload, setup: dict, stdout: str) -> float:
    """Raise CheckFailed unless the command's outputs are right; return the
    normalized accuracy it reported."""
    if workload.kind == "train":
        check_checkpoint(Path(setup["config"]).parent / "model.ckpt",
                         setup["d"], setup["m"])
        accuracy = printed(stdout, "best_val_accuracy")
        if not accuracy >= ACCURACY_FLOOR:
            raise CheckFailed(f"best_val_accuracy {accuracy} < {ACCURACY_FLOOR}")
        return accuracy
    if workload.kind == "eval":
        accuracy = printed(stdout, "normalized_accuracy")
        if accuracy != setup["expected_accuracy"]:
            raise CheckFailed(f"normalized_accuracy {accuracy!r} != oracle "
                              f"{setup['expected_accuracy']!r}")
        return accuracy
    values = [float(line.split("\t")[-1]) for line in stdout.splitlines()
              if line[:1] in ("0", "1")]
    if len(values) != 11 or not all(0.0 <= v <= 1.0 for v in values):
        raise CheckFailed(f"ablate printed {values}; expected 11 accuracies "
                          "in [0, 1]")
    return values[-1]  # linear grid, use_wx=1 use_wy=1: the full model


def run_once(workload: Workload, setup: dict, index: int, traced: bool) -> Sample:
    config = Path(setup["config"])
    cli_args = [*workload.command, "--config", str(config)]
    spans_path = config.parent / f"spans-{index}.json"
    if traced:
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path),
                f"cmd-{index}", *cli_args]
    else:
        argv = [sys.executable, "-m", "zslkit.cli", *cli_args]
    sample, stdout = run_process(argv, config.parent)
    if sample.error is None:
        try:
            sample.accuracy = check_output(workload, setup, stdout)
        except (CheckFailed, OSError, ValueError) as exc:
            sample.error = f"output check: {exc}"
    if traced and spans_path.exists():
        sample.trace = json.loads(spans_path.read_text(encoding="utf-8"))
        spans_path.unlink()
        if sample.error is None:
            sample.error = check_accounting(sample.trace, sample.wall_s)
    elif traced and sample.error is None:
        sample.error = "traced child wrote no spans"
    return sample


def closed_loop(seconds: float, step) -> list:
    """Call step(i) one at a time while the median step time still fits."""
    results, durations = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(step(len(results)))
        durations.append(time.perf_counter() - t0)
        if time.perf_counter() - start + statistics.median(durations) > seconds:
            return results


# ---------------------------------------------------------------------------
# span accounting
# ---------------------------------------------------------------------------

EMPTY = {"s": 0.0, "self_s": 0.0, "calls": 0, "durations": [], "work": 0,
         "last": None}


def layer_totals(spans) -> dict:
    """Per span name: total s, self s (span minus its direct children),
    calls, every call's duration, summed work and the last extra value."""
    child_s = [0.0] * len(spans)
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict = {}
    for i, (name, start, end, _, _, work) in enumerate(spans):
        agg = out.setdefault(name, {**EMPTY, "durations": []})
        agg["s"] += end - start
        agg["self_s"] += end - start - child_s[i]
        agg["calls"] += 1
        agg["durations"].append(end - start)
        if isinstance(work, list):  # [work, extra]
            work, agg["last"] = work
        agg["work"] += work or 0
    return out


def check_accounting(trace: dict, outside_wall: float) -> str | None:
    """Self times of all spans plus import time must add up to the traced
    child's own wall time, no self time may be negative, and the child's
    wall time must fit inside the wall time measured from outside."""
    totals = layer_totals(trace["spans"])
    self_sum = sum(a["self_s"] for a in totals.values())
    if abs(self_sum + trace["import_s"] - trace["wall_s"]) > 1e-3 + 1e-3 * trace["wall_s"]:
        return (f"span self times {self_sum:.6f} s + import "
                f"{trace['import_s']:.6f} s != traced wall {trace['wall_s']:.6f} s")
    negative = [n for n, a in totals.items() if a["self_s"] < -1e-6]
    if negative:
        return f"negative self time in {negative}"
    if trace["wall_s"] > outside_wall:
        return "traced wall time exceeds the process wall time"
    return None


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def tail(values) -> tuple[str, float] | None:
    """Highest of p50, p90, p99 with at least ten samples beyond it."""
    best = None
    for p in (50, 90, 99):
        if len(values) * (100 - p) / 100 >= 10:
            best = (f"p{p}", statistics.quantiles(values, n=100,
                                                  method="inclusive")[p - 1])
    return best


END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("rows_per_s", "1/s"),
)


def end_to_end(workload: Workload, setup: dict, samples: list[Sample],
               iterations: int) -> tuple[dict, list[str]]:
    walls = [s.wall_s for s in samples]
    wall = statistics.median(walls)
    n, rows = len(samples), setup["rows"]
    accs = [s.accuracy for s in samples if s.accuracy is not None]
    values = {
        "setup_s": statistics.median(setup["setup_s"]),
        "wall_s": wall,
        "cpu_s": statistics.median(s.cpu_s for s in samples),
        "peak_rss_mb": statistics.median(s.rss_mb for s in samples),
        "rows_per_s": rows / wall,
    }
    notes = {
        "setup_s": f"median of {len(setup['setup_s'])} set-ups",
        "wall_s": f"median of n={n}; samples "
                  + " ".join(f"{w:.3f}" for w in walls),
        "cpu_s": f"user+sys, median of n={n}",
        "peak_rss_mb": f"median of n={n}, max {max(s.rss_mb for s in samples):.1f}",
        "rows_per_s": f"{rows} feature rows / median wall_s",
    }
    lines = [f"{name}\t{values[name]:.6g} {unit}\t{notes[name]}"
             for name, unit in END_TO_END]
    # Printed but not in BENCHMARK.json: the tail percentile needs n >= 20,
    # train_iters_per_s and error_rate are 0 on some workload or run, and
    # accuracy moves with each seed's problem by more than any bound.
    tail_wall = tail(walls)
    lines.append(f"wall_s.{tail_wall[0]}\t{tail_wall[1]:.6g} s\tn={n}"
                 if tail_wall else
                 f"wall_s.tail\tn/a\tn={n}; a percentile needs 10 samples beyond it")
    if iterations:
        lines.append(f"train_iters_per_s\t{iterations / wall:.6g} 1/s\t"
                     f"{iterations} iterations per command / median wall_s")
    if accs:
        lines.append(f"accuracy\t{statistics.median(accs):.6g}\tnormalized "
                     f"accuracy the command reports, median of n={len(accs)}")
    failed = sum(s.error is not None for s in samples)
    lines.append(f"error_rate\t{failed / n:.6g}\t{failed} failed of {n} attempted")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}, lines


PER_LAYER = (
    ("optim.adam_step.s", "s"), ("optim.adam_step.calls", "count"),
    ("optim.adam_step.us_p50", "us"), ("optim.adam_step.us_p95", "us"),
    ("optim.adam_step.gb_per_s", "GB/s"),
    ("kernels.nll_and_grad.s", "s"), ("kernels.nll_and_grad.calls", "count"),
    ("kernels.nll_and_grad.us_p50", "us"), ("kernels.nll_and_grad.us_p95", "us"),
    ("kernels.nll_and_grad.gflop_per_s", "GFLOP/s"),
    ("train.train.s", "s"), ("train.train.calls", "count"),
    ("train.train.self_s", "s"), ("train.train.self_us_per_iter", "us"),
    ("train.iterations", "count"), ("train.last_nll", "nats"),
    ("evaluate.evaluate_zsl.s", "s"), ("evaluate.evaluate_zsl.calls", "count"),
    ("evaluate.evaluate_zsl.self_s", "s"),
    ("evaluate.normalized_accuracy.s", "s"),
    ("evaluate.ablate_embeddings.s", "s"), ("evaluate.ablate_linear_terms.s", "s"),
    ("model.score_matrix.s", "s"), ("model.score_matrix.calls", "count"),
    ("io.load_features.s", "s"), ("io.load_features.mb_per_s", "MB/s"),
    ("io.load_dataset.self_s", "s"), ("io.load_labels.s", "s"),
    ("io.load_checkpoint.s", "s"), ("io.save_checkpoint.s", "s"),
    ("io.save_features.s", "s"), ("io.save_features.mb_per_s", "MB/s"),
    ("embeddings.build_class_embeddings.s", "s"),
    ("embeddings.build_class_embeddings.calls", "count"),
    ("cli.main.s", "s"), ("cli.main.self_s", "s"),
    ("process.import_s", "s"), ("trace.overhead_s", "s"),
)
COMPUTED = {"optim.adam_step.gb_per_s", "kernels.nll_and_grad.gflop_per_s"}


def per_layer(setup: dict, untraced: list[Sample],
              traced: list[Sample]) -> tuple[dict, list[str]]:
    """Per-command medians over the traced commands; call percentiles and
    rates pool every call of every traced command. io.save_features comes
    from the traced set-up."""
    commands = [layer_totals(s.trace["spans"]) for s in traced if s.trace]
    setups = [layer_totals(spans) for spans in setup["setup_spans"]]

    def med(groups, layer, key):
        return (statistics.median(g.get(layer, EMPTY)[key] for g in groups)
                if groups else 0.0)

    def rate(groups, layer, scale):
        seconds = sum(g.get(layer, EMPTY)["s"] for g in groups)
        work = sum(g.get(layer, EMPTY)["work"] for g in groups)
        return work / seconds / scale if seconds else 0.0

    def pct_us(layer, q):
        durations = [d for g in commands for d in g.get(layer, EMPTY)["durations"]]
        if len(durations) < 2:
            return durations[0] * 1e6 if durations else 0.0
        return statistics.quantiles(durations, n=100, method="inclusive")[q - 1] * 1e6

    values: dict = {}
    for layer in ("optim.adam_step", "kernels.nll_and_grad", "train.train",
                  "evaluate.evaluate_zsl", "evaluate.normalized_accuracy",
                  "evaluate.ablate_embeddings", "evaluate.ablate_linear_terms",
                  "model.score_matrix", "io.load_features", "io.load_labels",
                  "io.load_checkpoint", "io.save_checkpoint", "io.load_dataset",
                  "embeddings.build_class_embeddings", "cli.main"):
        for key in ("s", "calls", "self_s"):
            values[f"{layer}.{key}"] = med(commands, layer, key)
    for layer in ("optim.adam_step", "kernels.nll_and_grad"):
        values[f"{layer}.us_p50"] = pct_us(layer, 50)
        values[f"{layer}.us_p95"] = pct_us(layer, 95)
    values["optim.adam_step.gb_per_s"] = rate(commands, "optim.adam_step", 1e9)
    values["kernels.nll_and_grad.gflop_per_s"] = rate(
        commands, "kernels.nll_and_grad", 1e9)
    iterations = values["train.iterations"] = med(commands, "train.train", "work")
    last = [g["train.train"]["last"] for g in commands
            if g.get("train.train", EMPTY)["last"] is not None]
    values["train.last_nll"] = last[-1] if last else 0.0
    values["train.train.self_us_per_iter"] = (
        values["train.train.self_s"] / iterations * 1e6 if iterations else 0.0)
    values["io.load_features.mb_per_s"] = rate(commands, "io.load_features", 1e6)
    values["io.save_features.s"] = med(setups, "io.save_features", "s")
    values["io.save_features.mb_per_s"] = rate(setups, "io.save_features", 1e6)
    values["process.import_s"] = (statistics.median(
        s.trace["import_s"] for s in traced if s.trace) if commands else 0.0)
    values["trace.overhead_s"] = (statistics.median(s.wall_s for s in traced)
                                  - statistics.median(s.wall_s for s in untraced))
    lines = [f"{name}\t{values[name]:.6g} {unit}"
             + ("\tcomputed from array shapes" if name in COMPUTED else "")
             for name, unit in PER_LAYER]
    lines.append(f"# medians over n={len(commands)} traced commands; "
                 f"trace.overhead_s compares them with n={len(untraced)} "
                 "untraced ones")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}, lines


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(seed: int, setup: dict) -> dict:
    return {"nproc": NPROC, **setup["env"],
            "blas_threads": {var: str(BLAS_THREADS) for var in BLAS_THREAD_VARS},
            "git_commit": git_commit(), "seed": seed}


def benchmark(workload: Workload, seed: int, seconds: float, trace: bool) -> None:
    try:
        setup = set_up(workload, seed, trace)
        print("env\t" + json.dumps(environment(seed, setup), sort_keys=True))
        print(f"workload\t{workload.name}\t{workload.why}")
        if trace:
            pairs = closed_loop(seconds, lambda i: (
                run_once(workload, setup, 2 * i, False),
                run_once(workload, setup, 2 * i + 1, True)))
            untraced, traced = [u for u, _ in pairs], [t for _, t in pairs]
            samples = untraced + traced
            metrics, lines = per_layer(setup, untraced, traced)
        else:
            samples = closed_loop(seconds, lambda i: run_once(workload, setup, i, False))
            metrics, lines = end_to_end(workload, setup, samples,
                                        workload.iterations(tiny=False))
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for line in lines:
        print(line)
    errors = [s.error for s in samples if s.error is not None]
    for error in errors:
        print(f"failed\t{error}")
    print(json.dumps({"correct": not errors, "attempted": len(samples),
                      "failed": len(errors), "metrics": metrics}))


def smoke() -> int:
    """All three workloads at a tiny size, traced and untraced."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    try:
        for workload in WORKLOADS.values():
            setup = set_up(workload, 0, True, tiny=True)
            untraced = run_once(workload, setup, 0, False)
            traced = run_once(workload, setup, 1, True)
            problems += [f"{workload.name}: {s.error}"
                         for s in (untraced, traced) if s.error]
            if traced.trace is None:
                continue
            for kind, (metrics, _) in (
                    ("end_to_end", end_to_end(workload, setup, [untraced],
                                              workload.iterations(tiny=True))),
                    ("per_layer", per_layer(setup, [untraced], [traced]))):
                want = {m["name"]: m["unit"] for m in declared[kind]}
                got = {k: v["unit"] for k, v in metrics.items()}
                if got != want:
                    problems.append(f"{workload.name}: {kind} metrics {got} "
                                    f"differ from BENCHMARK.json {want}")
            totals = layer_totals(traced.trace["spans"])
            print(f"smoke\t{workload.name}\ttraced wall "
                  f"{traced.trace['wall_s']:.4f} s = import "
                  f"{traced.trace['import_s']:.4f} s + self times "
                  f"{sum(a['self_s'] for a in totals.values()):.4f} s "
                  f"over {len(totals)} layers")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    for problem in problems:
        print(f"smoke failed\t{problem}")
    print("smoke FAILED" if problems else "smoke ok")
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "zslkit" / "__init__.py").is_file():
        print(f"error: no zslkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    for name in WORKLOADS if args.workload == "all" else [args.workload]:
        benchmark(WORKLOADS[name], args.seed, args.seconds, bool(args.trace))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
