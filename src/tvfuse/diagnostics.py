"""Structural diagnostics over task vectors.

Three read-only analyses explain why two post-training deltas are hard to
combine directly: per-layer L2 norms expose magnitude disparity between
them, sign interference counts opposing update directions over the support
of one sparsified vector, and module-wise activation shows where each
vector concentrates its largest entries.

All functions are pure; identical inputs produce bitwise identical outputs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Sequence

import numpy as np

from .archive import atomic_write_text
from .errors import ConfigError, EmptyVectorError, InvalidPatternError, ShapeMismatchError
from .task_vector import TaskVector, _keep_masks, quantile_threshold, sparsify

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
    """Per-layer L2 norms plus the norm of tensors without a layer index."""

    per_layer: dict[int, float]
    non_layer: float


@dataclass(frozen=True)
class InterferenceReport:
    """Opposite-sign fraction over the support of the second sparsified vector."""

    retention_a: float
    retention_b: float
    conflict_ratio: float
    denominator_count: int


def layerwise_norms(tv: TaskVector, layer_pattern: str = DEFAULT_LAYER_PATTERN) -> LayerNormProfile:
    """Group tensors by the layer index captured by `layer_pattern`."""
    try:
        compiled = re.compile(layer_pattern)
    except re.error as exc:
        raise InvalidPatternError(f"bad layer pattern {layer_pattern!r}: {exc}") from exc
    if compiled.groups < 1:
        raise InvalidPatternError(
            f"layer pattern {layer_pattern!r} needs a capturing group for the index"
        )
    per_layer_sq: dict[int, float] = {}
    non_layer_sq = 0.0
    for name in tv.sorted_names():
        v = tv.tensors[name]
        sq = float(np.sum(np.square(v)))
        match = compiled.search(name)
        if match is None:
            non_layer_sq += sq
            continue
        idx = int(match.group(1))
        per_layer_sq[idx] = per_layer_sq.get(idx, 0.0) + sq
    return LayerNormProfile(
        per_layer={k: math.sqrt(s) for k, s in sorted(per_layer_sq.items())},
        non_layer=math.sqrt(non_layer_sq),
    )


def count_conflicts(
    sparse_a: TaskVector, sparse_b: TaskVector, retention_a: float, retention_b: float
) -> InterferenceReport:
    """Sign interference of two already sparsified vectors (no further pruning).

    The retentions only label the report; the vectors must share names and shapes.
    """
    conflicts = 0
    denominator = 0
    for name in sparse_b.sorted_names():
        a = sparse_a.tensors[name]
        b = sparse_b.tensors[name]
        support = b != 0.0
        denominator += int(np.count_nonzero(support))
        conflicts += int(np.count_nonzero(np.sign(a[support]) * np.sign(b[support]) < 0))
    ratio = conflicts / denominator if denominator else 0.0
    return InterferenceReport(
        retention_a=retention_a,
        retention_b=retention_b,
        conflict_ratio=ratio,
        denominator_count=denominator,
    )


def sign_interference(
    tv_a: TaskVector,
    tv_b: TaskVector,
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
    tv_a: TaskVector,
    tv_b: TaskVector,
    retentions_a: Sequence[float],
    retention_b: float,
) -> list[InterferenceReport]:
    """One interference report per retention of the first vector.

    `tv_b` is sparsified once; `tv_a` is never sparsified: one select finds
    its cut at every retention, and one pass counts, per cut, the kept
    entries of `tv_a` that oppose the sign of sparsified `tv_b`.
    """
    if not retentions_a:
        raise ValueError("retention list must be non-empty")
    if set(tv_a.tensors) != set(tv_b.tensors):
        raise ShapeMismatchError("task vectors disagree on tensor names")
    for name in tv_a.tensors:
        if tv_a.shapes[name] != tv_b.shapes[name]:
            raise ShapeMismatchError(f"tensor {name!r} shapes differ")
    sparse_b = sparsify(tv_b, retention_b)
    cuts = quantile_threshold(tv_a, retentions_a)
    conflicts = [0] * len(cuts)
    denominator = 0
    for name, masks in _keep_masks(tv_a, cuts):
        a = tv_a.tensors[name]
        b = sparse_b.tensors[name]
        support = np.flatnonzero(b)
        denominator += support.size
        # Kept entries of `tv_a` at these positions conflict; dropped ones have sign 0.
        opposite = support[np.sign(a[support]) * np.sign(b[support]) < 0]
        for i, mask in enumerate(masks):
            conflicts[i] += int(np.count_nonzero(mask[opposite]))
    return [
        InterferenceReport(
            retention_a=r,
            retention_b=retention_b,
            conflict_ratio=c / denominator if denominator else 0.0,
            denominator_count=denominator,
        )
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
    tv: TaskVector,
    retention: float,
    rules: Sequence[ModuleRule] = DEFAULT_MODULE_RULES,
) -> dict[ModuleClass, float]:
    """Per module class: retained entries / total parameters of that class.

    Retained means non-zero after sparsifying at `retention`; classes with
    zero parameters are omitted.
    """
    if tv.num_parameters == 0:
        raise EmptyVectorError("task vector has no parameters")
    cuts = quantile_threshold(tv, [retention])
    totals: dict[ModuleClass, int] = {}
    retained: dict[ModuleClass, int] = {}
    for name, (mask,) in _keep_masks(tv, cuts):
        v = tv.tensors[name]
        cls = classify_module(name, rules)
        totals[cls] = totals.get(cls, 0) + v.size
        retained[cls] = retained.get(cls, 0) + int(np.count_nonzero(v[mask]))
    return {cls: retained[cls] / totals[cls] for cls in totals if totals[cls] > 0}


# --- rule files and report emission -------------------------------------------


def load_module_rules(path: str | Path) -> list[ModuleRule]:
    """Read an ordered rule list from a JSON array of {"pattern","class"}.

    Any unreadable or malformed file raises ConfigError naming it.
    """
    try:
        raw = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot load rule file {path}: {exc}") from exc
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
        rules.append(ModuleRule(item["pattern"], module_class, bool(item.get("exact", False))))
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
