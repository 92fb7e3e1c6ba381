"""Workload definitions of the CLI benchmark (standard library only, so the
measuring process stays small)."""

from __future__ import annotations

from dataclasses import dataclass

N_CLASSES, N_SEEN, N_VAL = 40, 24, 8
ABLATE_MODELS = 11  # 7 embedding subsets + 4 linear-term masks


@dataclass(frozen=True)
class Shape:
    d: int  # image-feature dimension
    per_class: int  # feature rows per class
    word_dim: int
    n_attributes: int  # each attribute offers three values
    n_internal: int  # taxonomy nodes between the root and the class leaves

    @property
    def m(self) -> int:
        return (3 * self.n_attributes + 1 + self.n_internal + N_CLASSES
                + self.word_dim)

    @property
    def rows(self) -> int:
        return N_CLASSES * self.per_class


@dataclass(frozen=True)
class Workload:
    name: str
    command: tuple[str, ...]  # CLI words before --config
    shape: Shape
    tiny: Shape  # the same command at a size that runs in a fraction of a second
    settings: tuple[tuple[str, object], ...]  # non-path config entries
    why: str

    @property
    def kind(self) -> str:
        return self.command[0]

    def config(self, tiny: bool) -> dict:
        settings = dict(self.settings)
        if tiny and "max_iterations" in settings:
            settings.update(max_iterations=20, eval_every=10)
        return settings

    def iterations(self, tiny: bool) -> int:
        """Training iterations one command runs."""
        per_model = self.config(tiny).get("max_iterations", 0)
        return per_model * (ABLATE_MODELS if self.kind == "ablate" else 1)


WORKLOADS = {w.name: w for w in (
    Workload(
        "train-wide", ("train",),
        Shape(d=2048, per_class=5, word_dim=300, n_attributes=60, n_internal=20),
        Shape(d=48, per_class=10, word_dim=12, n_attributes=4, n_internal=3),
        (("optimizer", "adam"), ("learning_rate", 0.01), ("batch_size", 100),
         ("max_iterations", 30), ("eval_every", 15)),
        "the paper's shape (d=2048, m=541): optimizer and kernel work on "
        "large matrices"),
    Workload(
        "ablate-small", ("ablate", "--grid", "all"),
        Shape(d=64, per_class=60, word_dim=20, n_attributes=8, n_internal=7),
        Shape(d=16, per_class=10, word_dim=6, n_attributes=3, n_internal=2),
        (("optimizer", "adam"), ("learning_rate", 0.01), ("batch_size", 50),
         ("max_iterations", 200), ("eval_every", 10)),
        "11 small models (d=64, m=92): per-step overhead in train, "
        "validation scoring and small-shape kernel calls"),
    Workload(
        "eval-large", ("eval",),
        Shape(d=512, per_class=100, word_dim=300, n_attributes=60, n_internal=20),
        Shape(d=32, per_class=20, word_dim=12, n_attributes=4, n_internal=3),
        (("eval_split", "zsl_test"),),
        "text parsing and the id join of a 4000-row feature file (d=512); "
        "no optimizer or kernel runs"),
)}
