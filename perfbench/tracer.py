"""Span tracer for the CLI benchmark.

Run as a script, it is the traced child process: it imports zslkit, wraps
the public functions of each layer at the attribute that their callers
resolve at call time, runs ``zslkit.cli.main`` on the remaining arguments,
and writes the spans it kept in memory to a JSON file:

    python3 perfbench/tracer.py SPANS_OUT RUN_ID train --config exp.cfg

Each span is ``[name, start, end, parent, run_id, work]``: perf_counter
seconds, the index of the enclosing span (-1 for none), and a work count
computed from the arguments or result where the layer has one.
"""

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    def wrap(self, name, fn, work=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                    self.run_id, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if work is not None:
                span[5] = work(args, kwargs, result)
            return result
        return traced

    def install(self, targets) -> None:
        for module, attr, name, work in targets:
            original = getattr(module, attr)
            self._installed.append((module, attr, original))
            setattr(module, attr, self.wrap(name, original, work))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()


# Work counters, computed from array shapes and file sizes, not measured.

def kernel_flops(args, kwargs, result):
    """Multiply-adds of the four matrix products in one nll_and_grad call."""
    W_e, Phi_e, _, Psi_e = args[:4]
    d1, m1 = W_e.shape
    B, K = Phi_e.shape[0], Psi_e.shape[0]
    return 2 * (d1 * m1 * K + B * d1 * K + B * K * m1 + d1 * B * m1)


def adam_bytes(args, kwargs, result):
    """Seven float64 arrays of the parameter shape read or written per step."""
    params = args[1]
    return 7 * 8 * params.size


def file_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def train_iterations(args, kwargs, result):
    return [args[2].max_iterations,
            result.records[-1].train_nll if result.records else None]


def io_targets(io):
    return [(io, name, f"io.{name}",
             file_bytes if name in ("load_features", "save_features") else None)
            for name in sorted(vars(io))
            if name.startswith(("load_", "save_")) and callable(getattr(io, name))]


def cli_targets():
    import zslkit.cli as cli
    from zslkit import evaluate, io, kernels

    train_module = sys.modules["zslkit.train"]  # zslkit.train is the function
    return [
        (kernels, "nll_and_grad", "kernels.nll_and_grad", kernel_flops),
        (train_module, "adam_step", "optim.adam_step", adam_bytes),
        (train_module, "evaluate_zsl", "evaluate.evaluate_zsl", None),
        (train_module, "train", "train.train", train_iterations),
        (evaluate, "evaluate_zsl", "evaluate.evaluate_zsl", None),
        (evaluate, "score_matrix", "model.score_matrix", None),
        (evaluate, "normalized_accuracy", "evaluate.normalized_accuracy", None),
        (evaluate, "build_class_embeddings", "embeddings.build_class_embeddings", None),
        (cli, "train", "train.train", train_iterations),
        (cli, "evaluate_zsl", "evaluate.evaluate_zsl", None),
        (cli, "build_class_embeddings", "embeddings.build_class_embeddings", None),
        (cli, "ablate_embeddings", "evaluate.ablate_embeddings", None),
        (cli, "ablate_linear_terms", "evaluate.ablate_linear_terms", None),
        *io_targets(io),
    ]


def main(argv) -> int:
    out_path, run_id, cli_args = argv[0], argv[1], argv[2:]
    import zslkit.cli

    tracer = Tracer(run_id)
    tracer.install(cli_targets())
    import_s = time.perf_counter() - _T0
    code = 1
    try:
        code = tracer.wrap("cli.main", zslkit.cli.main)(cli_args)
    finally:
        wall_s = time.perf_counter() - _T0
        with open(out_path, "w", encoding="utf-8") as out:
            json.dump({"import_s": import_s, "wall_s": wall_s,
                       "spans": tracer.spans}, out)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
