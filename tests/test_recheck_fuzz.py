"""Hostile edits to certificate documents never crash `recheck`.

One small certificate of each kind is built once.  Hypothesis then replaces
or deletes a single field, at any depth, and `nervecert recheck` must end
with exit 0 (still confirmed), 1 (malformed document) or 5 (refuted),
never with a traceback or another exit code.
"""

from __future__ import annotations

import copy
import json

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from nervecert.certificates import consistency_failure_cert
from nervecert.cli import main
from nervecert.fileio import document_to_text

from test_cli import EDGE, PATH, PATH_FAMILY, TRIANGLE_FAMILY

DELETE = object()
REPEAT = object()  # a copy of a sibling value: a repeated parameter under 'params'
# "+1", "01" and "0/1" respell values every family document already holds
# ("1" and "0"), so a single edit plants a second spelling of a decoded value
HOSTILE = [None, True, False, 1.5, -1, 10**30, "", "1/0", "+1", "01", "0/1", [], {}, DELETE, REPEAT]


def _cli_cert(directory, name, *argv) -> dict:
    out = directory / f"{name}.json"
    main([*argv, "-o", str(out)])
    return json.loads(out.read_text())


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def certificates(workdir) -> dict[str, dict]:
    def put(name, doc):
        path = workdir / f"{name}.in.json"
        path.write_text(document_to_text(doc))
        return str(path)

    tri, edge = put("tri", TRIANGLE_FAMILY), put("edge", EDGE)
    fam, path = put("fam", PATH_FAMILY), put("path", PATH)
    k4 = _cli_cert(workdir, "k4", "build", "skeleton", "3", "1")
    k5 = _cli_cert(workdir, "k5", "build", "skeleton", "4", "1")
    k4_path, k5_path = put("k4c", k4), put("k5c", k5)
    corrupt = ["certificate", fam, path, "-d", "1", "--corrupt-witness", "0:37/2,1/2"]
    docs = {
        "obstruction-vanishes": _cli_cert(workdir, "vk4", "vk", k4_path, "-d", "1"),
        "obstruction-nonvanishing": _cli_cert(workdir, "vk5", "vk", k5_path, "-d", "1"),
        "vkf-demo": _cli_cert(workdir, "demo", "vkf-demo", "-d", "1"),
        "nerve-mismatch": _cli_cert(workdir, "nm", "certificate", tri, edge, "-d", "1"),
        "witness-violation": _cli_cert(
            workdir, "wv", *corrupt, "--corrupt-stage", "witness"
        ),
        "lemma-violation": _cli_cert(workdir, "lv", *corrupt),
    }
    docs["consistency-failure"] = consistency_failure_cert(docs["obstruction-nonvanishing"])
    assert len({doc["kind"] for doc in docs.values()}) == 6
    return docs


def _recheck(workdir, doc) -> int:
    path = workdir / "mutated.json"
    path.write_text(json.dumps(doc))
    return main(["recheck", str(path)])


def test_every_certificate_confirms_untouched(certificates, workdir):
    for name, doc in certificates.items():
        assert _recheck(workdir, doc) == 0, name


def _paths(node, prefix=()):
    """Every dict key and list slot under node, as a path of keys/indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


def _mutate(doc, path, value):
    """Apply one edit at path and return the edited document."""
    if not path:
        assume(value is not DELETE and value is not REPEAT)
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    if value is DELETE:
        if isinstance(parent, dict):
            del parent[key]
        else:
            parent.pop(key)
    elif value is REPEAT:
        keys = parent if isinstance(parent, dict) else range(len(parent))
        siblings = [k for k in keys if k != key]
        assume(siblings)
        parent[key] = copy.deepcopy(parent[siblings[0]])
    else:
        parent[key] = copy.deepcopy(value)
    return doc


@settings(max_examples=1200, deadline=None, derandomize=True)
@given(data=st.data())
def test_hostile_field_edits_never_crash_recheck(certificates, workdir, data):
    name = data.draw(st.sampled_from(sorted(certificates)), label="kind")
    doc = copy.deepcopy(certificates[name])
    path = data.draw(st.sampled_from([(), *_paths(doc)]), label="path")
    value = data.draw(st.sampled_from(HOSTILE), label="value")
    assert _recheck(workdir, _mutate(doc, path, value)) in (0, 1, 5)


def _params_holders(node, prefix=()):
    """Paths of every 'params' object under node."""
    if isinstance(node, dict):
        for key, child in node.items():
            if key == "params" and isinstance(child, dict):
                yield prefix + (key,)
            else:
                yield from _params_holders(child, prefix + (key,))


def test_a_repeated_parameter_is_a_malformed_document(certificates, workdir, capsys):
    seen = 0
    for name, doc in certificates.items():
        for path in _params_holders(doc):
            seen += 1
            mutated = copy.deepcopy(doc)
            params = mutated
            for key in path:
                params = params[key]
            first, second = sorted(params, key=int)[:2]
            params[second] = params[first]
            capsys.readouterr()
            assert _recheck(workdir, mutated) == 1, name
            err = capsys.readouterr().err
            assert f"'params' repeats the value {params[first]}" in err
            assert "Traceback" not in err and "hint" not in err
    assert seen == 4  # both obstruction reports, the demo, the embedded report
