"""Structural diagnostics over task vectors.

Three read-only analyses explain why two post-training deltas are hard to
combine directly: per-layer L2 norms expose magnitude disparity between
them, sign interference counts opposing update directions over the support
of one sparsified vector, and module-wise activation shows where each
vector concentrates its largest entries.

Each reads any `VectorSource` one tensor at a time; only the sweep holds a
vector, its second one pruned. All functions are pure; identical inputs
produce bitwise identical outputs.
"""

from __future__ import annotations

import csv
import io
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .archive import atomic_write_text, read_json
from .errors import ConfigError, InvalidPatternError
from .task_vector import (
    Scratch,
    VectorSource,
    global_l2_norm,
    keep_masks,
    quantile_threshold,
    require_finite,
    require_matching,
    sparsify,
)

DEFAULT_LAYER_PATTERN = r"layers\.(\d+)"


class ModuleClass(str, Enum):
    ATTENTION = "Attention"
    EMBEDDING = "Embedding"
    LM_HEAD = "LMHead"
    LAYER_NORM = "LayerNorm"
    MLP = "MLP"
    OTHER = "Other"


@dataclass(frozen=True)
class ModuleRule:
    """One ordered classification rule: first matching rule wins."""

    pattern: str
    module_class: ModuleClass
    exact: bool = False

    def matches(self, name: str) -> bool:
        return name == self.pattern if self.exact else self.pattern in name


# Ordered so that e.g. "post_attention_layernorm" hits the norm rule before
# the attention rule.
DEFAULT_MODULE_RULES: tuple[ModuleRule, ...] = (
    ModuleRule("norm", ModuleClass.LAYER_NORM),
    ModuleRule("ln", ModuleClass.LAYER_NORM),
    ModuleRule("embed", ModuleClass.EMBEDDING),
    ModuleRule("lm_head", ModuleClass.LM_HEAD),
    ModuleRule("output.weight", ModuleClass.LM_HEAD, exact=True),
    ModuleRule("attn", ModuleClass.ATTENTION),
    ModuleRule("q_proj", ModuleClass.ATTENTION),
    ModuleRule("k_proj", ModuleClass.ATTENTION),
    ModuleRule("v_proj", ModuleClass.ATTENTION),
    ModuleRule("o_proj", ModuleClass.ATTENTION),
    ModuleRule("mlp", ModuleClass.MLP),
    ModuleRule("gate_proj", ModuleClass.MLP),
    ModuleRule("up_proj", ModuleClass.MLP),
    ModuleRule("down_proj", ModuleClass.MLP),
    ModuleRule("fc", ModuleClass.MLP),
)


@dataclass
class LayerNormProfile:
    """Per-layer L2 norms plus the norm of tensors without a layer index,
    and the global norm."""

    per_layer: dict[int, float]
    non_layer: float
    global_norm: float


@dataclass(frozen=True)
class InterferenceReport:
    """Opposite-sign fraction over the support of the second sparsified vector."""

    retention_a: float
    retention_b: float
    conflict_ratio: float
    denominator_count: int

    @classmethod
    def of(
        cls, retention_a: float, retention_b: float, conflicts: int, denominator: int
    ) -> "InterferenceReport":
        """The report of `conflicts` opposite signs over a support of `denominator` entries."""
        ratio = conflicts / denominator if denominator else 0.0
        return cls(retention_a, retention_b, ratio, denominator)


def opposite_signs(a: np.ndarray, b: np.ndarray, scratch: Scratch) -> tuple[np.ndarray, int]:
    """For one tensor of each vector: a mask of the entries where both are
    non-zero with opposite signs, and the size of `b`'s support. The mask
    lies in `scratch`, valid until its next user."""
    opposite, other = scratch.flags[:, : a.size]
    np.signbit(a, out=opposite)
    opposite ^= np.signbit(b, out=other)
    opposite &= np.not_equal(a, 0, out=other)
    support = np.not_equal(b, 0, out=other)
    opposite &= support
    return opposite, int(np.count_nonzero(support))


def layerwise_norms(tv: VectorSource, layer_pattern: str = DEFAULT_LAYER_PATTERN) -> LayerNormProfile:
    """Group tensors by the layer index captured by `layer_pattern`, from
    the per-tensor partials of one `global_l2_norm` pass."""
    try:
        compiled = re.compile(layer_pattern)
    except re.error as exc:
        raise InvalidPatternError(f"bad layer pattern {layer_pattern!r}: {exc}") from exc
    if compiled.groups < 1:
        raise InvalidPatternError(
            f"layer pattern {layer_pattern!r} needs a capturing group for the index"
        )
    partials: dict[str, float] = {}
    global_norm = global_l2_norm(tv, partials)
    per_layer_sq: dict[int, float] = {}
    non_layer_sq = 0.0
    for name, sq in partials.items():
        if not math.isfinite(sq):  # inf or NaN in the tensor, or finite squares that overflow
            require_finite(tv)
        match = compiled.search(name)
        if match is None:
            non_layer_sq += sq
            continue
        try:
            idx = int(match.group(1))
        except (TypeError, ValueError):  # the group captured nothing, or not an integer
            raise InvalidPatternError(
                f"layer pattern {layer_pattern!r} captures {match.group(1)!r} in tensor {name!r}"
            ) from None
        per_layer_sq[idx] = per_layer_sq.get(idx, 0.0) + sq
    return LayerNormProfile(
        per_layer={k: math.sqrt(s) for k, s in sorted(per_layer_sq.items())},
        non_layer=math.sqrt(non_layer_sq),
        global_norm=global_norm,
    )


def sign_interference(
    tv_a: VectorSource,
    tv_b: VectorSource,
    retention_a: float,
    retention_b: float,
) -> InterferenceReport:
    """Fraction of sparsified-b support positions where a and b disagree in sign.

    Both vectors are sparsified at their own retention first; an entry of
    `tv_a` zeroed by its own pruning has sign 0 and cannot conflict. The
    denominator is the support size of sparsified `tv_b`, which makes the
    measure deliberately asymmetric in its arguments.
    """
    return interference_sweep(tv_a, tv_b, [retention_a], retention_b)[0]


def interference_sweep(
    tv_a: VectorSource,
    tv_b: VectorSource,
    retentions_a: Sequence[float],
    retention_b: float,
) -> list[InterferenceReport]:
    """One interference report per retention of the first vector.

    `tv_b` is sparsified once, into a resident copy; `tv_a` is never: one
    select finds its cut at every retention, and one pass counts, per cut,
    the kept entries of `tv_a` that oppose the sign of sparsified `tv_b`.
    """
    require_matching(tv_a.shapes, tv_b.shapes)
    sparse_b = sparsify(tv_b, retention_b)
    cuts = quantile_threshold(tv_a, retentions_a)
    conflicts = [0] * len(cuts)
    denominator = 0
    scratch = Scratch(tv_a.shapes.values())
    for name, a, masks in keep_masks(tv_a, cuts, scratch):
        opposite, support = opposite_signs(a, sparse_b.read(name), scratch)
        denominator += support
        # Kept entries of `tv_a` at these positions conflict; dropped ones have sign 0.
        positions = np.flatnonzero(opposite)
        for i, mask in enumerate(masks):
            conflicts[i] += int(np.count_nonzero(mask[positions]))
    return [
        InterferenceReport.of(r, retention_b, c, denominator)
        for r, c in zip(retentions_a, conflicts)
    ]


def classify_module(
    tensor_name: str, rules: Sequence[ModuleRule] = DEFAULT_MODULE_RULES
) -> ModuleClass:
    """First matching rule wins; unmatched names classify as Other."""
    for rule in rules:
        if rule.matches(tensor_name):
            return rule.module_class
    return ModuleClass.OTHER


def modulewise_activation(
    tv: VectorSource,
    retention: float,
    rules: Sequence[ModuleRule] = DEFAULT_MODULE_RULES,
) -> dict[ModuleClass, float]:
    """Per module class: retained entries / total parameters of that class.

    Retained means non-zero after sparsifying at `retention`; classes with
    zero parameters are omitted.
    """
    cuts = quantile_threshold(tv, [retention])
    totals: dict[ModuleClass, int] = {}
    retained: dict[ModuleClass, int] = {}
    for name, v, (mask,) in keep_masks(tv, cuts, Scratch(tv.shapes.values())):
        cls = classify_module(name, rules)
        totals[cls] = totals.get(cls, 0) + v.size
        retained[cls] = retained.get(cls, 0) + int(np.count_nonzero(v[mask]))
    return {cls: retained[cls] / totals[cls] for cls in totals if totals[cls] > 0}


# --- rule files and report emission -------------------------------------------


def load_module_rules(path: str | Path) -> list[ModuleRule]:
    """Read an ordered rule list from a JSON array of {"pattern","class"},
    each with an optional JSON boolean "exact".

    Any unreadable or malformed file raises ConfigError naming it.
    """
    raw = read_json(path, "rule file")
    if not isinstance(raw, list):
        raise ConfigError(f"rule file {path} must hold a JSON array")
    rules = []
    for index, item in enumerate(raw):
        if not (isinstance(item, dict) and isinstance(item.get("pattern"), str) and "class" in item):
            raise ConfigError(
                f"rule file {path}: item {index} needs a string 'pattern' and a 'class'"
            )
        try:
            module_class = ModuleClass(item["class"])
        except ValueError:
            raise ConfigError(
                f"rule file {path}: item {index} has unknown class {item['class']!r}"
            ) from None
        exact = item.get("exact", False)
        if not isinstance(exact, bool):
            raise ConfigError(f"rule file {path}: item {index} has a non-boolean 'exact' {exact!r}")
        rules.append(ModuleRule(item["pattern"], module_class, exact))
    return rules


def write_norms_csv(profile: LayerNormProfile, path: str | Path) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["layer_index", "l2_norm"])
    for idx, norm in profile.per_layer.items():
        writer.writerow([idx, repr(norm)])
    writer.writerow(["non_layer", repr(profile.non_layer)])
    atomic_write_text(path, buffer.getvalue())


def write_interference_csv(reports: Sequence[InterferenceReport], path: str | Path) -> None:
    # Columns carry explicit "fraction" names: retention, not sparsity percent.
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(
        ["retention_a_fraction", "retention_b_fraction", "conflict_ratio", "denominator_count"]
    )
    for r in reports:
        writer.writerow([repr(r.retention_a), repr(r.retention_b), repr(r.conflict_ratio), r.denominator_count])
    atomic_write_text(path, buffer.getvalue())


def write_modulewise_csv(ratios: dict[ModuleClass, float], retention: float, path: str | Path) -> None:
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["module_class", "retention_fraction", "activated_fraction"])
    for cls in sorted(ratios, key=lambda c: c.value):
        writer.writerow([cls.value, repr(retention), repr(ratios[cls])])
    atomic_write_text(path, buffer.getvalue())
