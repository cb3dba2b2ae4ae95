"""Every top-level name in the package has a user in the program.

A function, class or module-level name in `src/tvfuse` must be used in its
own module beyond its definition, or be referenced from another module of
the package or of the benchmark (`perfbench/`). Package `__init__.py` files
only re-export, so neither side counts them, and tests do not count as
users: a helper that only tests reach belongs with the tests.

The benchmark patches some names by their string (``tracer.patch(pipeline,
"merge", ...)``), so a string constant equal to a name counts as a
reference too.

A `_`-prefixed name is private to its module: no other module of the
package imports it.

A top-level function whose own body returns a value has a caller in the
program that uses that value: at least one reference to it is not a call
whose result is dropped as a bare statement, unless it is listed here with
why it stays.

Only `task_vector` references the select, the tie rule and the rescale, so
pruning is implemented once; and only it reads a resident vector's
`.tensors`, so every other module reads vectors through `VectorSource`.

Every default of a top-level function, of a top-level class's `__init__` and
of a field of a dataclass outside the config is both set and used by some call
in the program. A default that no program call sets doubles a configuration
that no program runs, so it becomes a constant, unless it is listed here with
why it stays. A default that no program call uses repeats a setting whose one
default lives in the config, or serves only the tests, so the parameter
becomes required.

Every leaf field of the pipeline config is type-checked by its annotation,
and is either recorded by the stage files built from it (`pipeline._BUILT_FROM`)
or listed here as a field a resume may change.
"""

from __future__ import annotations

import ast
import functools
from collections import Counter
from dataclasses import is_dataclass
from pathlib import Path
from typing import get_type_hints

import pytest

from tvfuse import pipeline
from tvfuse.errors import ConfigError
from tvfuse.pipeline import PipelineConfig

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "tvfuse"
BENCHMARK = ROOT / "perfbench"
EXEMPT = {"__all__", "__version__", "logger"}


def _modules(directory: Path) -> list[Path]:
    return sorted(p for p in directory.rglob("*.py") if p.name != "__init__.py")


def _definitions(tree: ast.Module) -> list[str]:
    names: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.extend(
                n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)
            )
    return [name for name in names if name not in EXEMPT]


def _local_uses(tree: ast.Module) -> Counter:
    """Names a module loads or reads as attributes."""
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def _references(tree: ast.Module) -> set[str]:
    """Names another module can reach a definition by: uses, imports and strings."""
    refs = set(_local_uses(tree))
    for node in ast.walk(tree):
        if isinstance(node, ast.alias):
            refs.add(node.name.rsplit(".", 1)[-1])
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            refs.add(node.value)
    return refs


def unused_names() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _modules(PACKAGE)}
    others = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _modules(BENCHMARK)}
    others.update(trees)
    references = {path: _references(tree) for path, tree in others.items()}
    unused = []
    for path, tree in trees.items():
        local = _local_uses(tree)
        for name in _definitions(tree):
            if local[name]:
                continue
            if any(name in refs for other, refs in references.items() if other != path):
                continue
            unused.append(f"{path.relative_to(PACKAGE)}:{name}")
    return unused


def test_every_top_level_name_has_a_user_outside_the_tests():
    unused = unused_names()
    assert not unused, f"names no program code uses: {unused}"


def private_imports() -> list[str]:
    found = []
    for path in _modules(PACKAGE):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom):
                found.extend(
                    f"{path.relative_to(PACKAGE)}: {node.module or '.'}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and not alias.name.startswith("__")
                )
    return found


def test_no_module_imports_another_modules_private_name():
    found = private_imports()
    assert not found, f"imports of private names: {found}"


def _returns_value(function: ast.FunctionDef | ast.AsyncFunctionDef) -> bool:
    """Whether the function's own body, not a nested def's, returns a value."""
    stack = list(function.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Return) and node.value is not None:
            return True
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return False


def _value_uses(tree: ast.Module) -> Counter:
    """Names a module reads, except as the callee of a call whose result it drops."""
    dropped = {
        id(node.value.func)
        for node in ast.walk(tree)
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
    }
    uses: Counter = Counter()
    for node in ast.walk(tree):
        if id(node) in dropped:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses[node.id] += 1
        elif isinstance(node, ast.Attribute):
            uses[node.attr] += 1
    return uses


def discarded_returns() -> list[str]:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _modules(PACKAGE)}
    others = [ast.parse(path.read_text(encoding="utf-8")) for path in _modules(BENCHMARK)]
    uses = sum(map(_value_uses, [*trees.values(), *others]), Counter())
    return [
        f"{path.relative_to(PACKAGE)}:{node.name}"
        for path, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and _returns_value(node)
        and not uses[node.name]
    ]


# Functions whose value no program code reads, each with why it stays.
UNREAD_ON_PURPOSE = {
    # perfbench/worker.py wraps `task_vector.sparsify` and `diagnostics.sparsify`
    # by name (a `getattr` that must resolve), and acceptance criteria 3 and 6
    # call it. Once perfbench reads in-program spans (ROADMAP item 3(b)), it
    # needs no such name.
    "task_vector.py:sparsify",
}


def test_every_returned_value_has_a_reader():
    found = discarded_returns()
    unexpected = sorted(set(found) - UNREAD_ON_PURPOSE)
    assert not unexpected, f"functions whose every caller drops the return value: {unexpected}"
    stale = sorted(UNREAD_ON_PURPOSE - set(found))
    assert not stale, f"listed as unread, but a program caller reads them: {stale}"


# Defaults that no program call sets, each with why it stays.
UNSET_ON_PURPOSE = {
    # The console script calls `main()`, and argparse then reads `sys.argv`.
    "cli.py:main(argv)",
    # Where the mock server listens: the address a caller serves it on.
    "evaluator/mock_server.py:MockInferenceServer(host)",
    "evaluator/mock_server.py:MockInferenceServer(port)",
    # `prune_and_rescale` sets them on the record once the rescale is known.
    "task_vector.py:SparsityInfo(rescale_gamma)",
    "task_vector.py:SparsityInfo(epsilon)",
}

# `_build` fills these from a JSON object that may omit any key, so their
# fields hold the one default of each setting.
CONFIG_DATACLASSES = {"PipelineConfig", "SearchSettings", "BackendSettings", "MockSettings"}


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def _defaults(tree: ast.Module) -> list[tuple[str, str, int | None]]:
    """(callee, parameter, position) of each default of a top-level function,
    of a top-level class's `__init__` or of a field of a top-level dataclass
    outside the config; the callee of the last two is the class. The
    position counts the arguments a call passes before it, and is None for
    a keyword-only parameter."""
    found = []
    for node in tree.body:
        function, skip = node, 0
        if isinstance(node, ast.ClassDef) and _is_dataclass(node):
            if node.name not in CONFIG_DATACLASSES:
                fields = [f for f in node.body if isinstance(f, ast.AnnAssign)]
                found += [(node.name, f.target.id, i) for i, f in enumerate(fields) if f.value]
            continue
        if isinstance(node, ast.ClassDef):
            inits = [f for f in node.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"]
            if not inits:
                continue
            function, skip = inits[0], 1  # `self`
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = function.args
        positional = [*args.posonlyargs, *args.args]
        first = len(positional) - len(args.defaults)
        found += [(node.name, a.arg, first + i - skip) for i, a in enumerate(positional[first:])]
        found += [
            (node.name, a.arg, None)
            for a, default in zip(args.kwonlyargs, args.kw_defaults)
            if default is not None
        ]
    return found


def _not_handed_on(tree: ast.Module) -> set[int]:
    """Ids of the nodes in which a name is read without being handed on to
    someone who may call it: a callee, an annotation, an `except` clause, an
    `isinstance` or `issubclass` check, a `|` union and the object of an
    attribute read (`TrialRecord.from_json`)."""
    subtrees = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            subtrees.append(node.func)
            if getattr(node.func, "id", None) in ("isinstance", "issubclass"):
                subtrees += node.args[1:]
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            subtrees.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            subtrees.append(node.returns)
        elif isinstance(node, ast.ExceptHandler):
            subtrees.append(node.type)
        elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            subtrees += [node.left, node.right]
        elif isinstance(node, ast.Attribute):
            subtrees.append(node.value)
    return {id(n) for subtree in subtrees if subtree is not None for n in ast.walk(subtree)}


def default_uses() -> tuple[list[str], list[str]]:
    """The defaults that no call in the package or the benchmark sets, and
    those that none uses. A call sets a default when it passes its argument
    by keyword, by position or through a `*` or `**` argument, and uses it
    when it omits the argument or unpacks one. A reference that is not a
    call uses every default of its callee, as whoever it hands the callee on
    to may omit any argument (`perfbench/worker.py` wraps
    `pipeline.run_pipeline`). A call is matched to its callee by name, and
    `cls(...)` in a class to the class."""
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in _modules(PACKAGE)}
    callers = [*trees.values()]
    callers += [ast.parse(path.read_text(encoding="utf-8")) for path in _modules(BENCHMARK)]
    # Per callee: (arguments passed by position, keywords passed, unpacks) of each call.
    calls: dict[str, list[tuple[int, set[str], bool]]] = {}
    references: Counter = Counter()
    for tree in callers:
        skipped = _not_handed_on(tree)
        for top in tree.body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    name = getattr(node.func, "id", getattr(node.func, "attr", None))
                    if name == "cls" and isinstance(top, ast.ClassDef):
                        name = top.name
                    keywords = {kw.arg for kw in node.keywords}
                    unpacks = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
                    calls.setdefault(name, []).append((len(node.args), keywords, unpacks))
                elif isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in skipped:
                    if isinstance(node.ctx, ast.Load):
                        references[getattr(node, "id", getattr(node, "attr", None))] += 1
    unset, unused = [], []
    for path, tree in trees.items():
        for callee, parameter, position in _defaults(tree):
            passed = [
                unpacks or parameter in keywords or (position is not None and count > position)
                for count, keywords, unpacks in calls.get(callee, [])
            ]
            omitted = [
                unpacks or parameter not in keywords and (position is None or count <= position)
                for count, keywords, unpacks in calls.get(callee, [])
            ]
            label = f"{path.relative_to(PACKAGE)}:{callee}({parameter})"
            if not any(passed):
                unset.append(label)
            if not (references[callee] or any(omitted)):
                unused.append(label)
    return unset, unused


def test_every_defaulted_parameter_has_a_program_caller():
    found = sorted(set(default_uses()[0]) - UNSET_ON_PURPOSE)
    assert not found, f"defaults that no program call sets: {found}"


def test_every_default_is_used_by_a_program_call():
    """A default that every program call overrides doubles a setting whose
    default lives elsewhere, in the config, or serves only the tests."""
    found = default_uses()[1]
    assert not found, f"defaults that no program call uses: {found}"


PRUNING = {"RadixSelect", "KeepMasks", "rescale_gamma"}


def _names_and_imports(tree: ast.Module) -> set[str]:
    """Names a module imports or loads; attributes are left out, since
    `SparsityInfo.rescale_gamma` is a field, not the function."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_only_task_vector_selects_masks_and_rescales():
    found = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in _modules(PACKAGE)
        if path.name != "task_vector.py"
        for name in sorted(PRUNING & _names_and_imports(ast.parse(path.read_text("utf-8"))))
    ]
    assert not found, f"pruning outside task_vector: {found}"


# The query evaluator's derivations of the two objectives from raw outputs.
OBJECTIVES = {"extract_answer", "perplexity"}


def _imports_and_loads(tree: ast.Module) -> set[str]:
    """Names a module imports or reads; a field or a local that is only
    assigned, such as `TrialRecord.perplexity`, is left out."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.alias):
            names.add(node.name.rsplit(".", 1)[-1])
    return names


def test_only_the_query_evaluator_derives_answers_and_perplexity():
    found = [
        f"{path.relative_to(PACKAGE)}: {name}"
        for path in _modules(PACKAGE)
        if path.relative_to(PACKAGE).as_posix() not in ("evaluator/backend.py", "evaluator/answers.py")
        for name in sorted(OBJECTIVES & _imports_and_loads(ast.parse(path.read_text("utf-8"))))
    ]
    assert not found, f"answers or perplexity derived outside the query evaluator: {found}"


def test_only_task_vector_reads_resident_tensors():
    found = [
        f"{path.relative_to(PACKAGE)}:{node.lineno}"
        for path in _modules(PACKAGE)
        if path.name != "task_vector.py"
        for node in ast.walk(ast.parse(path.read_text("utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "tensors"
    ]
    assert not found, f"`.tensors` read outside task_vector: {found}"


def _leaf_fields(cls: type, prefix: str = "") -> list[str]:
    """Dotted paths of every field of the dataclass `cls` that is not itself a dataclass."""
    leaves = []
    for name, hint in get_type_hints(cls).items():
        if is_dataclass(hint):
            leaves += _leaf_fields(hint, f"{prefix}{name}.")
        else:
            leaves.append(f"{prefix}{name}")
    return leaves


@pytest.mark.parametrize("path", _leaf_fields(PipelineConfig))
def test_every_config_field_rejects_a_wrongly_typed_value(path):
    config = PipelineConfig()
    *parents, name = path.split(".")
    # No leaf annotation admits an empty list: not a number, a string, None,
    # a pair or an object.
    setattr(functools.reduce(getattr, parents, config), name, [])
    with pytest.raises(ConfigError) as info:
        config.validate()
    message = str(info.value)
    assert message.startswith(f"{path} must be ") and ";" not in message, message


def test_type_walker_rejects_an_annotation_it_does_not_handle():
    with pytest.raises(TypeError, match="list"):
        pipeline._type_problems([1], list[int], "field")


# Config fields that no stage file records, each with why a resume may change it.
RESUME_MAY_CHANGE = {
    # The inputs reach the stages through their digests, which the stages record.
    "base_path",
    "sft_path",
    "rlvr_path",
    "pool_path",
    # Where the stage files are, not what they hold.
    "workspace",
    # More trials extend the replayed log; fewer select from its prefix.
    "search.n_trials",
    # Chooses from the trials once they are all logged.
    "search.selection_rule",
    # How many queries are in flight; their results are gathered in order.
    "search.concurrency",
    # Takes these coefficients in place of the search, which logs nothing.
    "fixed_coefficients",
    # How the HTTP backend is reached and how long it is waited for.
    "backend.url",
    "backend.max_attempts",
    "backend.timeout",
}


@pytest.mark.parametrize("path", _leaf_fields(PipelineConfig))
def test_every_config_field_is_recorded_by_a_stage_or_may_change_on_resume(path):
    parts = path.split(".")
    # A leaf is recorded when a stage names it or a dataclass above it.
    covering = {".".join(parts[:i]) for i in range(1, len(parts) + 1)}
    recorded = sorted(
        stage for stage, keys in pipeline._BUILT_FROM.items() if covering.intersection(keys)
    )
    assert bool(recorded) != (path in RESUME_MAY_CHANGE), (path, recorded)
