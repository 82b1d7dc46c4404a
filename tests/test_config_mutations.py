"""One-edit mutations of every shipped config: each edit either parses or
fails with a `ConfigError` whose message starts with the dotted path of what
it rejects, never with a bare exception.

An edit deletes one object key, or replaces one value (an object member or a
list element, at any depth) with one of `VALUES`, which include the NaN,
infinity and oversized integer that `json` reads. Every edit of every config
runs; a parse takes well under a millisecond, so the set takes seconds.
"""

import copy
import re

import pytest

from racksim.config import ConfigError, ExperimentConfig

from conftest import CONFIG_DIR, load_raw

VALUES = (None, True, False, 0, -1, 0.5, float("nan"), float("inf"), 10**400,
          "", "x", [], {}, [1], {"a": 1})
PATH_MESSAGE = re.compile(r"^[a-z_]+(\.[\w-]+|\[\d+\])*: ")


def locations(node, trail=()):
    """(trail, is_key) for every value below `node`; `is_key` marks an
    object member, which an edit may also delete."""
    if isinstance(node, dict):
        for key, child in node.items():
            yield trail + (key,), True
            yield from locations(child, trail + (key,))
    elif isinstance(node, list):
        for i, child in enumerate(node):
            yield trail + (i,), False
            yield from locations(child, trail + (i,))


def edits(raw):
    """Every one-edit mutation of `raw`: (description, edited copy)."""
    for trail, is_key in locations(raw):
        changes = [(f"{v!r}", v) for v in VALUES]
        if is_key:
            changes.append(("deleted", None))
        for label, value in changes:
            out = copy.deepcopy(raw)
            parent = out
            for step in trail[:-1]:
                parent = parent[step]
            if label == "deleted":
                del parent[trail[-1]]
            else:
                parent[trail[-1]] = value
            yield f"{'/'.join(map(str, trail))} = {label}", out


def test_edits_cover_deletion_and_every_value():
    raw = {"a": [1, {"b": 2}]}
    got = [label for label, _ in edits(raw)]
    # a, a[0], a[1], a[1].b: four values, two of them object members
    assert len(got) == 4 * len(VALUES) + 2
    assert "a = deleted" in got and "a/1/b = deleted" in got
    assert "a/0 = deleted" not in got
    assert dict(edits(raw))["a/1/b = {'a': 1}"] == {"a": [1, {"b": {"a": 1}}]}


@pytest.mark.parametrize("name", sorted(p.stem for p in CONFIG_DIR.glob("*.json")))
def test_every_one_edit_mutation_parses_or_names_its_path(name):
    raw = load_raw(name)
    bad = []
    n = 0
    for label, mutated in edits(raw):
        n += 1
        try:
            ExperimentConfig.from_dict(mutated)
        except ConfigError as exc:
            if not PATH_MESSAGE.match(str(exc)):
                bad.append(f"{label}: ConfigError without a path: {exc}")
        except Exception as exc:    # noqa: BLE001 -- any other escape is a bug
            bad.append(f"{label}: {type(exc).__name__}: {exc}")
    assert n > 100
    assert bad == []


@pytest.mark.parametrize("path, over", [
    (r"sweep\.loads\[0\]", {"sweep": {"loads": [float("nan")]}}),
    (r"workload\.service\.modes\[1\]", {"workload": {"service": {
        "kind": "bimodal", "modes": [[0.5, 10.0], [0.5, float("nan")]]}}}),
], ids=["load", "mode"])
def test_a_nan_fails_at_its_path(path, over):
    raw = {"policy": {"kind": "random"},
           "workload": {"service": {"kind": "exponential", "mean_us": 50.0}}}
    raw.update(over)
    with pytest.raises(ConfigError, match=rf"^{path}: must be a finite number"):
        ExperimentConfig.from_dict(raw)
