from __future__ import annotations

import itertools
import math
import re
import threading
import tracemalloc

import numpy as np
import pytest

from tvfuse import diagnostics as diag
from tvfuse import task_vector as tvec
from tvfuse.archive import byte_sorted
from tvfuse.diagnostics import ModuleClass
from tvfuse.errors import (
    ConfigError,
    EmptyVectorError,
    InvalidPatternError,
    NameSetMismatchError,
    NonFiniteVectorError,
    ShapeMismatchError,
)
from tvfuse.task_vector import (
    Cut,
    StoredVector,
    TaskVector,
    global_l2_norm,
    load_task_vector,
    quantile_threshold,
    save_task_vector,
    sparsify,
    write_vector,
)


def vec(values, name="w") -> TaskVector:
    arr = np.asarray(values, dtype=np.float64)
    return TaskVector(
        tensors={name: arr}, shapes={name: arr.shape}, source_base_id="", source_ft_id=""
    )


def multi(named: dict) -> TaskVector:
    tensors = {k: np.asarray(v, dtype=np.float64) for k, v in named.items()}
    return TaskVector(
        tensors=tensors,
        shapes={k: v.shape for k, v in tensors.items()},
        source_base_id="",
        source_ft_id="",
    )


@pytest.fixture(params=["resident", "stored"])
def source(request, tmp_path):
    """Save a vector and read it back, as a resident `TaskVector` or a `StoredVector`."""
    paths = (tmp_path / f"v{i}.safetensors" for i in itertools.count())

    def make(tv: TaskVector):
        path = next(paths)
        save_task_vector(tv, path)
        return load_task_vector(path) if request.param == "resident" else StoredVector(path)

    return make


# --- layer-wise norms ------------------------------------------------------------


def test_layer_norm_three_four_five():
    profile = diag.layerwise_norms(vec([3.0, 4.0], name="model.layers.0.mlp.w"))
    assert profile.per_layer == {0: 5.0}
    assert profile.non_layer == 0.0


def test_non_layer_tensor_goes_to_non_layer_bucket():
    profile = diag.layerwise_norms(vec([3.0, 4.0], name="lm_head.weight"))
    assert profile.per_layer == {}
    assert profile.non_layer == 5.0


def test_layer_norms_consistent_with_global_norm(source):
    tv = source(multi({"model.layers.0.w": np.array([3.0]), "model.layers.1.w": np.array([4.0])}))
    profile = diag.layerwise_norms(tv)
    assert profile.per_layer == {0: 3.0, 1: 4.0}
    total = global_l2_norm(tv, {})
    summed = math.sqrt(sum(n * n for n in profile.per_layer.values()) + profile.non_layer**2)
    assert abs(summed - total) / total <= 1e-9
    assert total == 5.0


def test_invalid_pattern_rejected():
    with pytest.raises(InvalidPatternError):
        diag.layerwise_norms(vec([1.0]), layer_pattern="layers[")
    with pytest.raises(InvalidPatternError):
        diag.layerwise_norms(vec([1.0]), layer_pattern="layers")  # no group
    with pytest.raises(InvalidPatternError, match=r"captures 'a' in tensor 'model\.layers\.a\.w'"):
        diag.layerwise_norms(vec([1.0], name="model.layers.a.w"), layer_pattern=r"layers\.(\w+)")
    with pytest.raises(InvalidPatternError, match="captures None"):
        diag.layerwise_norms(vec([1.0], name="model.layers.w"), layer_pattern=r"layers\.(\d+)?")


# --- sign interference --------------------------------------------------------------


def test_interference_worked_example():
    a = vec([1.0, -1.0, 2.0, -3.0])
    b = vec([0.5, 2.0, -1.0, 1.0])  # sparsifies at 0.75 to [0, 2, -1, 1]
    assert sparsify(b, 0.75).tensors["w"].tolist() == [0.0, 2.0, -1.0, 1.0]
    report = diag.sign_interference(a, b, 1.0, 0.75)
    assert report.denominator_count == 3
    assert report.conflict_ratio == 1.0


def test_interference_identical_vectors_zero():
    rng = np.random.default_rng(2)
    a = vec(rng.standard_normal(100))
    b = vec(a.tensors["w"].copy())
    for ra, rb in [(1.0, 1.0), (0.5, 0.2), (0.1, 0.9)]:
        assert diag.sign_interference(a, b, ra, rb).conflict_ratio == 0.0


def test_interference_counts_support_of_second_vector():
    a = vec([1.0, 2.0, 3.0])
    b = vec([1.0, -2.0, 0.0])
    report = diag.sign_interference(a, b, 1.0, 1.0)
    assert report.denominator_count == 2
    assert report.conflict_ratio == 0.5


def test_interference_is_asymmetric():
    a = vec([5.0, -0.1, 0.1, -5.0])
    b = vec([-1.0, 1.0, 1.0, 1.0])
    forward = diag.sign_interference(a, b, 0.5, 1.0)
    backward = diag.sign_interference(b, a, 1.0, 0.5)
    assert forward.denominator_count != backward.denominator_count


def test_interference_shape_mismatch():
    with pytest.raises(ShapeMismatchError):
        diag.sign_interference(vec([1.0]), vec([1.0, 2.0]), 1.0, 1.0)
    with pytest.raises(NameSetMismatchError, match=r"\['v', 'w'\]"):
        diag.interference_sweep(vec([1.0]), vec([1.0], name="v"), [1.0, 0.5], 1.0)


def brute_force_interference(a, b, retention_a, retention_b):
    sa = sparsify(vec(a), retention_a).tensors["w"]
    sb = sparsify(vec(b), retention_b).tensors["w"]
    den = 0
    conf = 0
    for x, y in zip(sa, sb):
        if y != 0:
            den += 1
            if (x > 0 and y < 0) or (x < 0 and y > 0):
                conf += 1
    return conf / den if den else 0.0, den


def test_interference_matches_brute_force():
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(4, 200))
        a = rng.standard_normal(n)
        b = rng.standard_normal(n)
        ra = float(rng.choice([1.0, 0.5, 0.3, 0.1]))
        rb = float(rng.choice([1.0, 0.5, 0.3, 0.1]))
        got = diag.sign_interference(vec(a), vec(b), ra, rb)
        want_ratio, want_den = brute_force_interference(a, b, ra, rb)
        assert got.denominator_count == want_den
        assert got.conflict_ratio == want_ratio


def test_sweep_single_point_equals_single_call():
    rng = np.random.default_rng(19)
    a, b = vec(rng.standard_normal(60)), vec(rng.standard_normal(60))
    sweep = diag.interference_sweep(a, b, [1.0], 0.1)
    single = diag.sign_interference(a, b, 1.0, 0.1)
    assert sweep == [single]


def test_sweep_monotone_on_adversarial_vector():
    # Small-magnitude entries of `a` all oppose `b`; pruning a removes them first.
    n = 100
    a = np.concatenate([-0.01 * np.arange(1, n // 2 + 1), np.arange(1, n // 2 + 1) + 1.0])
    b = np.ones(n)
    retentions = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2, 0.1]
    reports = diag.interference_sweep(vec(a), vec(b), retentions, 1.0)
    ratios = [r.conflict_ratio for r in reports]
    assert all(x >= y for x, y in zip(ratios, ratios[1:]))
    for r, retention in zip(reports, retentions):
        want_ratio, want_den = brute_force_interference(a, b, retention, 1.0)
        assert r.conflict_ratio == want_ratio and r.denominator_count == want_den


def test_diagnostics_make_no_pruned_copy(monkeypatch):
    rng = np.random.default_rng(29)
    a_values, b_values = rng.standard_normal(50), rng.standard_normal(50)
    a, b = vec(a_values), vec(b_values)
    retentions = [1.0, 0.7, 0.4, 0.1]
    want = [brute_force_interference(a_values, b_values, r, 0.1) for r in retentions]

    def refuse(tv, p):
        raise AssertionError("a diagnostic pruned a vector into a copy")

    monkeypatch.setattr(diag, "sparsify", refuse)
    monkeypatch.setattr(tvec, "sparsify", refuse)
    reports = diag.interference_sweep(a, b, retentions, 0.1)
    assert [(r.conflict_ratio, r.denominator_count) for r in reports] == want
    assert diag.sign_interference(a, b, 0.4, 0.1) == reports[2]
    assert diag.modulewise_activation(a, 0.1) == {ModuleClass.OTHER: 0.1}


def test_sweep_holds_memory_bounded_by_the_largest_tensor(tmp_path):
    # Tensors large enough that the headers parsed per tensor, which do grow
    # with the count, stay small next to the data.
    size = 65_536
    peaks = {}
    for count in (16, 64):
        rng = np.random.default_rng(count)
        shapes = {f"model.layers.{i:02d}.mlp.w": (size,) for i in range(count)}
        stored = []
        for label in ("a", "b"):
            path = tmp_path / f"{label}{count}.safetensors"
            tensors = ((name, [rng.standard_normal(size)]) for name in byte_sorted(shapes))
            write_vector(path, shapes, tensors, {})
            stored.append(StoredVector(path))
        # tracemalloc counts every thread's allocations: a thread that an
        # earlier test left running would show up as a higher peak.
        assert threading.enumerate() == [threading.main_thread()], threading.enumerate()
        tracemalloc.start()
        try:
            diag.interference_sweep(*stored, [1.0, 0.5, 0.1], 0.1)
            peaks[count] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks[64] <= 1.5 * peaks[16], peaks


def sweep_over_pruned_copies(tv_a, tv_b, retentions_a, retention_b):
    """The sweep as counted over resident copies of both vectors pruned by
    `sparsify`: sign conflicts over the support of pruned `tv_b`."""
    sparse_b = sparsify(tv_b, retention_b)
    reports = []
    for retention in retentions_a:
        sparse_a = sparsify(tv_a, retention)
        conflicts = denominator = 0
        for name in tv_a.shapes:
            a, b = sparse_a.tensors[name], sparse_b.tensors[name]
            support = b != 0
            opposite = support & (a != 0) & (np.signbit(a) != np.signbit(b))
            conflicts += int(np.count_nonzero(opposite))
            denominator += int(np.count_nonzero(support))
        reports.append(diag.InterferenceReport.of(retention, retention_b, conflicts, denominator))
    return reports


# Tensors in byte-wise name order, so their concatenation is the order the
# tie rule keeps ties in.
EXACTNESS_CASES = {
    # At 0.6, b's cut keeps 3 and 2, then 5 of the 8 ties at 1: the two in
    # t0 and three of t1's four.
    "ties-across-tensors": (
        {"t0": [1.0, -1.0, 1.0], "t1": [-1.0, -1.0, 1.0, 1.0], "t2": [1.0, 1.0, -1.0, -1.0]},
        {"t0": [3.0, 1.0, -1.0], "t1": [1.0, -1.0, 1.0, -1.0], "t2": [-1.0, 1.0, 0.5, 2.0]},
        0.6,
        Cut(1.0, 7, 2),
    ),
    "signed-zeros": (
        {"t0": [-0.0, 0.0, 1.0, -1.0, -0.0], "t1": [0.0, -2.0, 0.0, 3.0]},
        {"t0": [0.0, -0.0, -0.0, 0.0, 1.0], "t1": [-0.0, 2.0, -1.0, -0.0]},
        0.3,
        Cut(1.0, 3, 1),
    ),
    # b's cut at 0 keeps two of its zeros as ties, neither of them support.
    "signed-zeros-kept-as-ties": (
        {"t0": [-0.0, 0.0, 1.0, -1.0, -0.0], "t1": [0.0, -2.0, 0.0, 3.0]},
        {"t0": [0.0, -0.0, -0.0, 0.0, 1.0], "t1": [-0.0, 2.0, -1.0, -0.0]},
        0.5,
        Cut(0.0, 5, 3),
    ),
    # A cut at 0 keeps every entry of b, and its zeros are not its support.
    "full-retention-of-b": (
        {"t0": [-1.0, 2.0, 0.0, -0.0], "t1": [1.0, -0.5, 4.0]},
        {"t0": [1.0, -0.0, 0.0, -3.0], "t1": [0.0, 0.5, -2.0]},
        1.0,
        Cut(0.0, 7, 4),
    ),
}


@pytest.mark.parametrize("case", EXACTNESS_CASES)
def test_sweep_matches_pruned_copies_and_brute_force(source, case):
    named_a, named_b, retention_b, cut_b = EXACTNESS_CASES[case]
    tv_a, tv_b = multi(named_a), multi(named_b)
    assert quantile_threshold(tv_b, [retention_b]) == [cut_b]
    retentions = [1.0, 0.7, 0.5, 0.3, 0.1]
    reports = diag.interference_sweep(source(tv_a), source(tv_b), retentions, retention_b)
    assert reports == sweep_over_pruned_copies(tv_a, tv_b, retentions, retention_b)
    a, b = (np.concatenate([named[name] for name in sorted(named)]) for named in (named_a, named_b))
    for retention, report in zip(retentions, reports):
        want = brute_force_interference(a, b, retention, retention_b)
        assert (report.conflict_ratio, report.denominator_count) == want


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_sweep_over_a_non_finite_vector_raises_as_sparsify_does(source, bad):
    def named(origin, values):
        tensors = {name: np.asarray(v, dtype=np.float64) for name, v in values.items()}
        shapes = {name: v.shape for name, v in tensors.items()}
        return TaskVector(tensors, shapes, source_base_id="", source_ft_id=origin)

    a = named("sft.safetensors", {"t0": [1.0, np.nan], "t1": [1.0, 2.0], "t2": [1.0, 2.0]})
    b = named("rlvr.safetensors", {"t0": [1.0, 2.0], "t1": [3.0, bad], "t2": [np.nan, 1.0]})
    with pytest.raises(NonFiniteVectorError) as pruning:
        sparsify(b, 0.5)
    message = "tensor 't1' of rlvr.safetensors holds inf or NaN"
    assert str(pruning.value) == message
    # The second vector is checked first, as it was pruned first.
    with pytest.raises(NonFiniteVectorError, match=re.escape(message)):
        diag.interference_sweep(source(a), source(b), [1.0, 0.5], 0.5)


def test_sweep_points_equal_independent_calls(source):
    rng = np.random.default_rng(23)
    a, b = source(vec(rng.standard_normal(80))), source(vec(rng.standard_normal(80)))
    retentions = [1.0, 0.7, 0.4, 0.1]
    sweep = diag.interference_sweep(a, b, retentions, 0.1)
    for r, report in zip(retentions, sweep):
        assert report == diag.sign_interference(a, b, r, 0.1)


# --- module classification ------------------------------------------------------------

# 40 names spanning the two transformer naming families the default rules target.
MODULE_FIXTURE = [
    ("model.embed_tokens.weight", ModuleClass.EMBEDDING),
    ("model.layers.0.self_attn.q_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.0.self_attn.q_proj.bias", ModuleClass.ATTENTION),
    ("model.layers.0.self_attn.k_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.0.self_attn.k_proj.bias", ModuleClass.ATTENTION),
    ("model.layers.0.self_attn.v_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.0.self_attn.v_proj.bias", ModuleClass.ATTENTION),
    ("model.layers.0.self_attn.o_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.0.mlp.gate_proj.weight", ModuleClass.MLP),
    ("model.layers.0.mlp.up_proj.weight", ModuleClass.MLP),
    ("model.layers.0.mlp.down_proj.weight", ModuleClass.MLP),
    ("model.layers.0.input_layernorm.weight", ModuleClass.LAYER_NORM),
    ("model.layers.0.post_attention_layernorm.weight", ModuleClass.LAYER_NORM),
    ("model.layers.1.self_attn.q_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.1.mlp.gate_proj.weight", ModuleClass.MLP),
    ("model.layers.1.input_layernorm.weight", ModuleClass.LAYER_NORM),
    ("model.layers.1.post_attention_layernorm.weight", ModuleClass.LAYER_NORM),
    ("model.norm.weight", ModuleClass.LAYER_NORM),
    ("lm_head.weight", ModuleClass.LM_HEAD),
    ("model.layers.2.self_attn.rotary_emb.inv_freq", ModuleClass.ATTENTION),
    ("model.layers.10.self_attn.q_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.10.self_attn.k_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.10.self_attn.v_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.10.self_attn.o_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.10.mlp.gate_proj.weight", ModuleClass.MLP),
    ("model.layers.10.mlp.up_proj.weight", ModuleClass.MLP),
    ("model.layers.10.mlp.down_proj.weight", ModuleClass.MLP),
    ("model.layers.10.input_layernorm.weight", ModuleClass.LAYER_NORM),
    ("model.layers.10.post_attention_layernorm.weight", ModuleClass.LAYER_NORM),
    ("model.layers.31.self_attn.q_proj.weight", ModuleClass.ATTENTION),
    ("model.layers.31.mlp.down_proj.weight", ModuleClass.MLP),
    ("model.layers.31.post_attention_layernorm.weight", ModuleClass.LAYER_NORM),
    ("output.weight", ModuleClass.LM_HEAD),
    ("tok_embeddings.weight", ModuleClass.EMBEDDING),
    ("transformer.h.0.ln_1.weight", ModuleClass.LAYER_NORM),
    ("transformer.h.0.ln_2.weight", ModuleClass.LAYER_NORM),
    ("transformer.ln_f.weight", ModuleClass.LAYER_NORM),
    ("model.layers.5.fc1.weight", ModuleClass.MLP),
    ("model.layers.5.fc2.weight", ModuleClass.MLP),
    ("model.decoder.embed_positions.weight", ModuleClass.EMBEDDING),
]


def test_module_fixture_has_forty_names_and_five_classes():
    assert len(MODULE_FIXTURE) == 40
    assert len({n for n, _ in MODULE_FIXTURE}) == 40
    assert {c for _, c in MODULE_FIXTURE} == {
        ModuleClass.ATTENTION,
        ModuleClass.EMBEDDING,
        ModuleClass.LM_HEAD,
        ModuleClass.LAYER_NORM,
        ModuleClass.MLP,
    }


@pytest.mark.parametrize("name,expected", MODULE_FIXTURE)
def test_default_rules_classify_fixture(name, expected):
    assert diag.classify_module(name, diag.DEFAULT_MODULE_RULES) == expected


def test_unmatched_name_is_other():
    router = "model.layers.9.router.weight"
    assert diag.classify_module(router, diag.DEFAULT_MODULE_RULES) == ModuleClass.OTHER


def test_rule_file_round_trip(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text(
        '[{"pattern": "bias", "class": "Other"}, {"pattern": "proj", "class": "Attention"}]'
    )
    rules = diag.load_module_rules(path)
    assert diag.classify_module("model.q_proj.bias", rules) == ModuleClass.OTHER
    assert diag.classify_module("model.q_proj.weight", rules) == ModuleClass.ATTENTION


def test_rule_file_exact_must_be_a_boolean(tmp_path):
    path = tmp_path / "rules.json"
    path.write_text('[{"pattern": "layers", "class": "MLP", "exact": false}]')
    assert diag.classify_module("model.layers.0.w", diag.load_module_rules(path)) == ModuleClass.MLP
    path.write_text('[{"pattern": "layers", "class": "MLP", "exact": true}]')
    assert diag.classify_module("model.layers.0.w", diag.load_module_rules(path)) == ModuleClass.OTHER
    path.write_text('[{"pattern": "layers", "class": "MLP", "exact": "false"}]')
    with pytest.raises(ConfigError, match="rules.json: item 0 has a non-boolean 'exact'"):
        diag.load_module_rules(path)


# --- module-wise activation -------------------------------------------------------------


def test_single_class_activation_matches_retention():
    rng = np.random.default_rng(31)
    tv = multi({"model.layers.0.mlp.w": rng.standard_normal(200)})
    ratios = diag.modulewise_activation(tv, 0.1)
    assert ratios == {ModuleClass.MLP: 0.1}


def test_top_entries_concentrate_in_one_class(source):
    rng = np.random.default_rng(37)
    big = rng.standard_normal(100) + np.sign(rng.standard_normal(100)) * 10
    small = rng.standard_normal(100) * 1e-3
    tv = source(multi({"model.layers.0.mlp.w": big, "model.layers.0.self_attn.q_proj.w": small}))
    ratios = diag.modulewise_activation(tv, 0.25)
    assert ratios[ModuleClass.MLP] == 0.5  # 2 x retention with equal-sized classes
    assert ratios[ModuleClass.ATTENTION] == 0.0


@pytest.mark.parametrize("named", [{}, {"model.layers.0.mlp.w": []}], ids=["no-tensors", "empty-tensor"])
def test_module_activation_of_an_empty_vector_raises(named):
    with pytest.raises(EmptyVectorError, match="task vector has no parameters"):
        diag.modulewise_activation(multi(named), 0.1)


@pytest.mark.parametrize("retention", [1.0, 0.6, 0.3])
def test_module_activation_counts_the_entries_sparsify_keeps(source, retention):
    # Zeros of both signs; at 1.0 and 0.6 the cut is 0 and keeps zeros, at 0.3
    # it is 1, and its ties run out inside the attention tensor.
    tv = multi(
        {
            "lm_head.weight": [0.0, 0.0, -0.0],
            "model.layers.0.mlp.w": [0.0, -0.0, 1.0, -1.0, 2.0, 0.0],
            "model.layers.0.self_attn.q_proj.w": [-0.0, 3.0, 1.0, 0.0],
        }
    )
    sparse = sparsify(tv, retention)
    totals: dict = {}
    kept: dict = {}
    for name, values in sparse.tensors.items():
        cls = diag.classify_module(name, diag.DEFAULT_MODULE_RULES)
        totals[cls] = totals.get(cls, 0) + values.size
        kept[cls] = kept.get(cls, 0) + int(np.count_nonzero(values))
    want = {cls: kept[cls] / totals[cls] for cls in totals}
    assert diag.modulewise_activation(source(tv), retention) == want


def test_full_retention_activates_everything():
    rng = np.random.default_rng(41)
    tv = multi(
        {
            "model.layers.0.mlp.w": rng.uniform(0.5, 1.0, 64),
            "lm_head.weight": rng.uniform(0.5, 1.0, 32),
        }
    )
    ratios = diag.modulewise_activation(tv, 1.0)
    assert ratios == {ModuleClass.MLP: 1.0, ModuleClass.LM_HEAD: 1.0}


# --- CSV emission ---------------------------------------------------------------------


def test_csv_writers(tmp_path):
    rng = np.random.default_rng(43)
    tv = multi({"model.layers.0.mlp.w": rng.standard_normal(10)})
    diag.write_norms_csv(diag.layerwise_norms(tv), tmp_path / "norms.csv")
    reports = diag.interference_sweep(tv, tv, [1.0, 0.5], 0.5)
    diag.write_interference_csv(reports, tmp_path / "sweep.csv")
    diag.write_modulewise_csv(diag.modulewise_activation(tv, 0.5), 0.5, tmp_path / "mods.csv")
    assert "retention_a_fraction" in (tmp_path / "sweep.csv").read_text().splitlines()[0]
    assert (tmp_path / "norms.csv").read_text().startswith("layer_index")
    assert "module_class" in (tmp_path / "mods.csv").read_text()


def test_csv_writer_failure_leaves_previous_file(tmp_path):
    a = vec([1.0, -2.0, 3.0])
    path = tmp_path / "sweep.csv"
    diag.write_interference_csv(diag.interference_sweep(a, a, [1.0], 1.0), path)
    before = path.read_bytes()
    report = diag.sign_interference(a, a, 0.5, 1.0)
    with pytest.raises(AttributeError):
        diag.write_interference_csv([report, object()], path)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv"]
