from __future__ import annotations

import hashlib
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from viewgraph import dataset
from viewgraph.dataset import (
    COUNT,
    STRING_OR_NULL,
    STRINGS,
    TOKENS,
    Corpus,
    FileFormatError,
    Idea,
    LabelSet,
    load_corpus,
    load_viewpoints,
    problem,
    read_headed,
    read_jsonl,
    recording_writes,
    save_corpus,
    split_corpus,
    write_atomic,
    write_headed,
    write_jsonl,
)
from viewgraph.graph import GraphConfig

FOUR = LabelSet(("Reject", "Accept (Poster)", "Accept (Oral)", "Accept (Spotlight)"))


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def header(labels=FOUR.labels):
    return json.dumps({"labels": list(labels)})


def record(idea_id, label=None, **kw):
    rec = {"id": idea_id, "title": f"t-{idea_id}", "text": f"Text of {idea_id}.",
           "label": label, "timestamp": 100, "split": None}
    rec.update(kw)
    return json.dumps(rec)


class TestLoadCorpus:
    def test_three_records_order_preserved(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [header(), record("a"), record("b"), record("c")])
        corpus = load_corpus(path)
        assert [i.id for i in corpus.ideas] == ["a", "b", "c"]

    def test_accept_oral_maps_to_index_2(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [header(), record("a", label="Accept (Oral)")])
        corpus = load_corpus(path)
        assert corpus.ideas[0].label == 2

    def test_duplicate_id_names_line_and_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [header(), record("p1"), record("p2"), record("p3"), record("p1")])
        with pytest.raises(FileFormatError) as err:
            load_corpus(path)
        assert "p1" in str(err.value)
        assert "line 5" in str(err.value)  # header is line 1

    def test_malformed_line_carries_line_number_and_raw(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [header(), record("a"), "{not json"])
        with pytest.raises(FileFormatError) as err:
            load_corpus(path)
        assert str(err.value).startswith(f"{path}: line 3: invalid JSON")
        assert "{not json" in str(err.value)

    @pytest.mark.parametrize(
        "lines, line_no, message",
        [
            ([header(), record("a", timestamp=[1])], 2, "key 'timestamp' must be an int, got list"),
            ([header(), record("a", timestamp=True)], 2, "key 'timestamp' must be an int, got bool"),
            ([header(), record("a", timestamp=1.5)], 2, "key 'timestamp' must be an int, got float"),
            ([header(), record("a", timestamp="7")], 2, "key 'timestamp' must be an int, got str"),
            ([header(), record("a"), record("b", timestamp=-1)], 3, "key 'timestamp' must be >= 0, got -1"),
            ([header(), record("a", text=None)], 2, "key 'text' must be a str, got NoneType"),
            ([header(), record(7)], 2, "key 'id' must be a str, got int"),
            ([header(), record("a"), record("b", title=["x"])], 3, "key 'title' must be a str, got list"),
            ([header(), record("a", label=3)], 2, "key 'label' must be a str, got int"),
            ([header(), record("a", label=True)], 2, "key 'label' must be a str, got bool"),
            ([header(), record("a", split=1)], 2, "key 'split' must be a str, got int"),
            ([json.dumps({"labels": 5}), record("a")], 1, "header key 'labels' must be a list, got int"),
            ([json.dumps({"labels": "ab"}), record("a")], 1, "header key 'labels' must be a list, got str"),
            ([json.dumps({"labels": ["a", 2]}), record("a")], 1, "header key 'labels' must be a list of strings, got item 2"),
        ],
        ids=["timestamp-list", "timestamp-bool", "timestamp-float", "timestamp-str", "timestamp-negative",
             "text-null", "id-int", "title-list", "label-int", "label-bool", "split-int", "labels-int", "labels-str",
             "labels-item"],
    )
    def test_value_of_wrong_kind_carries_line_number(self, tmp_path, lines, line_no, message):
        path = tmp_path / "c.jsonl"
        write_lines(path, lines)
        with pytest.raises(FileFormatError) as err:
            load_corpus(path)
        assert str(err.value) == f"{path}: line {line_no}: {message}"

    def test_missing_timestamp_reads_as_zero(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [header(), json.dumps({"id": "a", "text": "Text of a."})])
        assert load_corpus(path).ideas[0].timestamp == 0

    def test_unknown_label_named(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [header(), record("a", label="Strong Accept")])
        with pytest.raises(FileFormatError) as err:
            load_corpus(path)
        assert "Strong Accept" in str(err.value)

    def test_round_trip(self, tmp_path):
        path = tmp_path / "c.jsonl"
        write_lines(path, [header(), record("a", label="Reject"), record("b", split="test")])
        corpus = load_corpus(path)
        out = tmp_path / "out.jsonl"
        save_corpus(corpus, out)
        again = load_corpus(out)
        assert again.label_set == corpus.label_set
        assert again.ideas == corpus.ideas


class TestLabelSet:
    def test_needs_two_labels(self):
        with pytest.raises(ValueError):
            LabelSet(("only",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            LabelSet(("a", "b", "a"))


def make_corpus(n, labeled=True, labels=("Reject", "Accept")):
    ls = LabelSet(labels)
    ideas = [
        Idea(
            id=f"i{j}",
            title=f"i{j}",
            text=f"Idea {j} text.",
            label=(j % len(labels)) if labeled else None,
            timestamp=j,
        )
        for j in range(n)
    ]
    return Corpus(label_set=ls, ideas=ideas)


class TestSplit:
    def test_sizes_and_determinism(self):
        corpus = make_corpus(10)
        one = split_corpus(corpus, (0.7, 0.1, 0.2), seed=7)
        two = split_corpus(corpus, (0.7, 0.1, 0.2), seed=7)
        sizes = {s: len(one.split_ideas(s)) for s in ("train", "validation", "test")}
        assert sizes == {"train": 7, "validation": 1, "test": 2}
        assert [i.split for i in one.ideas] == [i.split for i in two.ideas]

    def test_byte_identical_serialization(self, tmp_path):
        corpus = make_corpus(10)
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_corpus(split_corpus(corpus, (0.7, 0.1, 0.2), seed=7), a)
        save_corpus(split_corpus(corpus, (0.7, 0.1, 0.2), seed=7), b)
        assert a.read_bytes() == b.read_bytes()

    def test_85_15_on_66_ideas(self):
        corpus = make_corpus(66)
        split = split_corpus(corpus, (0.85, 0.0, 0.15), seed=1)
        sizes = [len(split.split_ideas(s)) for s in ("train", "validation", "test")]
        assert sizes == [56, 0, 10]

    def test_seeds_differ(self):
        corpus = make_corpus(10)
        one = split_corpus(corpus, (0.7, 0.1, 0.2), seed=1)
        two = split_corpus(corpus, (0.7, 0.1, 0.2), seed=2)
        assert [i.split for i in one.ideas] != [i.split for i in two.ideas]

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(ValueError):
            split_corpus(make_corpus(10), (0.5, 0.5, 0.5), seed=0)

    def test_unlabeled_forced_to_test(self):
        ls = LabelSet(("Reject", "Accept"))
        ideas = [
            Idea(id=f"i{j}", title="", text="Some text.", label=(0 if j < 8 else None), timestamp=0)
            for j in range(10)
        ]
        split = split_corpus(Corpus(label_set=ls, ideas=ideas), (0.7, 0.1, 0.2), seed=3)
        for idea in split.ideas:
            if idea.label is None:
                assert idea.split == "test"

    def test_too_many_unlabeled_rejected(self):
        ls = LabelSet(("Reject", "Accept"))
        ideas = [
            Idea(id=f"i{j}", title="", text="Some text.", label=None, timestamp=0)
            for j in range(10)
        ]
        with pytest.raises(ValueError):
            split_corpus(Corpus(label_set=ls, ideas=ideas), (0.7, 0.1, 0.2), seed=3)

    def test_refuses_presplit_corpus(self):
        corpus = split_corpus(make_corpus(10), (0.7, 0.1, 0.2), seed=1)
        with pytest.raises(ValueError):
            split_corpus(corpus, (0.7, 0.1, 0.2), seed=2)

    @given(
        n=st.integers(min_value=4, max_value=40),
        frac=st.sampled_from([(0.7, 0.1, 0.2), (0.5, 0.25, 0.25), (0.85, 0.0, 0.15)]),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        labeled_rate=st.floats(min_value=0.8, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_no_train_idea_unlabeled(self, n, frac, seed, labeled_rate):
        rng = np.random.default_rng(seed)
        ls = LabelSet(("Reject", "Accept"))
        ideas = [
            Idea(
                id=f"i{j}",
                title="",
                text="Body text.",
                label=int(rng.integers(2)) if rng.random() < labeled_rate else None,
                timestamp=j,
            )
            for j in range(n)
        ]
        corpus = Corpus(label_set=ls, ideas=ideas)
        n_test = n - round(n * frac[0]) - round(n * frac[1])
        unlabeled = sum(1 for i in ideas if i.label is None)
        if unlabeled > n_test:
            with pytest.raises(ValueError):
                split_corpus(corpus, frac, seed)
            return
        split = split_corpus(corpus, frac, seed)
        assert all(i.label is not None for i in split.split_ideas("train"))
        assert all(i.label is not None for i in split.split_ideas("validation"))


class TestJsonl:
    def test_round_trip_keeps_non_ascii_text(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        rows = [{"text": "Überprüfung – naïve café"}, {"text": "plain"}]
        write_jsonl(path, rows)
        assert "Überprüfung – naïve café" in path.read_text(encoding="utf-8")
        assert list(read_jsonl(path)) == [(1, rows[0]), (2, rows[1])]

    def test_failed_write_leaves_old_file(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"n": 1}])

        def rows():
            yield {"n": 2}
            raise RuntimeError("writer died")

        with pytest.raises(RuntimeError):
            write_jsonl(path, rows())
        assert list(read_jsonl(path)) == [(1, {"n": 1})]
        assert [p.name for p in tmp_path.iterdir()] == ["rows.jsonl"]

    def test_bad_line_named(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"n": 1}\n\n{"n": \n', encoding="utf-8")
        with pytest.raises(ValueError, match="line 3"):
            list(read_jsonl(path))

    @pytest.mark.parametrize(
        "second, message",
        [
            ({"viewpoints": ["b."]}, "line 2: missing key 'idea_id'"),
            ({"idea_id": "b"}, "line 2: missing key 'viewpoints'"),
            (["b", ["b."]], "line 2: expected a JSON object"),
            ({"idea_id": "b", "viewpoints": 5}, "line 2: key 'viewpoints' must be a list, got int"),
            ({"idea_id": 7, "viewpoints": ["b."]}, "line 2: key 'idea_id' must be a str, got int"),
            # only a corpus's label and split, and a prediction's label, may be null
            ({"idea_id": "b", "viewpoints": ["b."], "timestamp": None}, "line 2: key 'timestamp' must be an int, got NoneType"),
        ],
        ids=["idea_id", "viewpoints", "not-an-object", "viewpoints-type", "idea_id-type", "timestamp-null"],
    )
    def test_viewpoints_line_without_key_named(self, tmp_path, second, message):
        path = tmp_path / "views.jsonl"
        write_jsonl(path, [{"idea_id": "a", "viewpoints": ["a."]}, second])
        with pytest.raises(ValueError, match="^" + re.escape(f"{path}: {message}")):
            load_viewpoints(path)


@pytest.mark.parametrize("fail_at", ["write", "replace"])
def test_failed_write_leaves_old_file_and_no_temp(tmp_path, monkeypatch, fail_at):
    path = tmp_path / "report.json"
    write_atomic(path, "old")
    if fail_at == "write":
        real = Path.write_bytes

        def half_then_fail(self, data):
            real(self, data[: len(data) // 2])
            raise OSError("no space left on device")

        monkeypatch.setattr(Path, "write_bytes", half_then_fail)
    else:
        monkeypatch.setattr(os, "replace", lambda src, dst: (_ for _ in ()).throw(OSError("read-only file system")))
    with pytest.raises(OSError):
        write_atomic(path, "new contents")
    assert path.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["report.json"]


def test_write_into_a_directory_not_made_yet_makes_it(tmp_path):
    path = tmp_path / "new" / "deeper" / "report.json"
    write_atomic(path, "contents")
    assert path.read_text() == "contents"
    assert [p.name for p in path.parent.iterdir()] == ["report.json"]


def test_recording_writes_maps_each_path_to_the_sha256_of_its_last_bytes(tmp_path):
    write_atomic(tmp_path / "before.json", "unrecorded")
    with recording_writes() as written:
        write_atomic(tmp_path / "a.json", "first")
        write_atomic(tmp_path / "a.json", "second")
        write_jsonl(tmp_path / "b.jsonl", [{"text": "caf\u00e9"}])
    write_atomic(tmp_path / "after.json", "unrecorded")
    assert written == {path: hashlib.sha256(path.read_bytes()).hexdigest()
                       for path in (tmp_path / "a.json", tmp_path / "b.jsonl")}


# Values of each kind with a cheap test: accepted ones, and ones that fail
# on type, on an item or on the kind's range rule.
CHEAP_CASES = {
    STRING_OR_NULL: ["x", "", None, 0, False, ["x"]],
    COUNT: [0, 7, -1, True, 1.0, "3", None],
    STRINGS: [[], ["a", ""], ("a",), ["a", 1], ["a", None], "ab", None],
}


@pytest.mark.parametrize("kind", list(CHEAP_CASES))
def test_cheap_tests_change_no_verdict(kind, monkeypatch):
    """``problem`` gives every value the verdict, and the message, of its
    generic path, with or without the kind's cheap test."""
    cheap = [problem(value, kind) for value in CHEAP_CASES[kind]]
    assert None in cheap and any(cheap)
    monkeypatch.setattr(dataset, "_CHEAP", {})
    assert cheap == [problem(value, kind) for value in CHEAP_CASES[kind]]


# the message of a tokens value whose first bad item follows
TOKEN_ITEM = f"must be {TOKENS}, got item "


@pytest.mark.parametrize(
    "value, message",
    [([], None), ([[1, 2]], None), ([[0, 0], [3, 4]], None), ([[1, -2]], TOKEN_ITEM + "[1, -2]"),
     ([[1, True]], TOKEN_ITEM + "[1, True]"), ([[1]], TOKEN_ITEM + "[1]"), ([[1, 2, 3]], TOKEN_ITEM + "[1, 2, 3]"),
     ([(1, 2)], TOKEN_ITEM + "(1, 2)"), ([[1.0, 2]], TOKEN_ITEM + "[1.0, 2]"), ([[1, 2], None], TOKEN_ITEM + "None"),
     ("x", "must be a list, got str"), ({}, "must be a list, got dict")],
)
def test_tokens_value_names_its_first_bad_item(value, message):
    """A tokens value is a list of [prompt, completion] lists of ints >= 0."""
    assert problem(value, TOKENS) == message


# A headed file with one plain header key, one config section and two arrays.
HEADED_KINDS = {"rows": (COUNT, None), "config": (GraphConfig, None)}


def headed_layout(header):
    return {"a": ("<f8", (header["rows"], 2)), "b": ("|u1", (header["rows"],))}


class TestHeaded:
    def write(self, path, rows=3, **header):
        a, b = np.arange(rows * 2, dtype="<f8").reshape(rows, 2), np.ones(rows, "|u1")
        config = {"k": 5, "m": 10, "weight_floor": 0.0, "hybrid": False}
        write_headed(path, {"rows": rows, "config": config, **header}, [a, b])
        return a, b

    def test_round_trip(self, tmp_path):
        path = tmp_path / "x.bin"
        a, b = self.write(path, extra="kept")
        header, arrays = read_headed(path, "x file", HEADED_KINDS, headed_layout)
        assert header["extra"] == "kept" and list(arrays) == ["a", "b"]
        assert np.array_equal(arrays["a"], a) and np.array_equal(arrays["b"], b)
        assert arrays["a"].shape == (3, 2) and not arrays["a"].flags.writeable
        line = json.dumps({"rows": 3, "config": header["config"], "extra": "kept"}).encode()
        assert path.read_bytes() == line + b"\n" + a.tobytes() + b.tobytes()

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda h, blob: (b"3", blob), "header must be an object, got int"),
            (lambda h, blob: (h.replace(b'"rows": 3', b'"rows": -1'), blob), "header 'rows' must be >= 0, got -1"),
            (lambda h, blob: (h.replace(b'"k": 5, ', b""), blob), "config has no k"),
            (lambda h, blob: (h.replace(b'"k": 5', b'"k": 0'), blob), "config.k: must be >= 1, got 0"),
            (lambda h, blob: (h, blob[:-1]), "blob is 50 bytes, expected 51"),
            (lambda h, blob: (h.replace(b'"rows": 3', b'"rows": 2'), blob), "blob is 51 bytes, expected 34"),
        ],
        ids=["not-object", "negative-rows", "config-missing-k", "bad-config", "truncated", "fewer-rows"],
    )
    def test_damage_named(self, tmp_path, change, message):
        path = tmp_path / "x.bin"
        self.write(path)
        line, blob = change(*path.read_bytes().split(b"\n", 1))
        path.write_bytes(line + b"\n" + blob)
        with pytest.raises(FileFormatError) as err:
            read_headed(path, "x file", HEADED_KINDS, headed_layout)
        assert str(err.value) == f"x file {path}: {message}"
