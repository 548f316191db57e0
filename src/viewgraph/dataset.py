"""Idea corpora: loading, label sets, and deterministic splits;
``read_file``, through which every run file is read; and the headed
layout of the binary run files (embeddings, graph, model): one JSON
header line, then little-endian arrays back to back.

Corpus files are UTF-8 JSON-lines. The first line is a header object
``{"labels": [...]}`` declaring the ordered label set (index 0 is the
worst label). Every following line is one idea record::

    {"id": str, "title": str, "text": str, "label": name-or-null,
     "timestamp": int, "split": "train"|"validation"|"test"|null}
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import typing
from contextlib import contextmanager, suppress
from contextvars import ContextVar
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import cache
from itertools import accumulate
from pathlib import Path
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

SPLITS = ("train", "validation", "test")


class OutputError(OSError):
    """Raised for an output file or directory that cannot be written; the
    message names it and says why."""


class FileFormatError(ValueError):
    """Raised for a file that cannot be opened, decoded or parsed, or that
    holds a bad record. The message names the file after its ``noun``,
    such as "graph file", and the line at fault, if any."""

    def __init__(self, path: str | Path, message: str, line_no: Optional[int] = None, noun: str = ""):
        at = "" if line_no is None else f": line {line_no}"
        super().__init__(f"{noun + ' ' if noun else ''}{path}{at}: {message}")


@dataclass(frozen=True)
class LabelSet:
    """Ordered set of quality label names; index 0 is the worst label."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValueError(f"label set needs at least 2 labels, got {len(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate label names in {list(self.labels)}")
        object.__setattr__(self, "labels", tuple(self.labels))

    def __len__(self) -> int:
        return len(self.labels)

    def index_of(self, name: str) -> int:
        try:
            return self.labels.index(name)
        except ValueError:
            raise ValueError(f"'label' must be one of {list(self.labels)}, got {name!r}") from None


@dataclass(frozen=True)
class Idea:
    """One research idea (id, title, body text, optional label, timestamp)."""

    id: str
    title: str
    text: str
    label: Optional[int] = None
    timestamp: int = 0
    split: Optional[str] = None

    def __post_init__(self):
        if not self.text:
            raise ValueError(f"idea {self.id!r} has empty text")
        if self.timestamp < 0:
            raise ValueError(f"idea {self.id!r} has negative timestamp {self.timestamp}")
        if self.split is not None and self.split not in SPLITS:
            raise ValueError(f"idea {self.id!r} has unknown split {self.split!r}")
        if self.split == "train" and self.label is None:
            raise ValueError(f"train idea {self.id!r} has no label")


@dataclass
class Corpus:
    label_set: LabelSet
    ideas: list[Idea] = field(default_factory=list)

    def __post_init__(self):
        self._by_id: dict[str, Idea] = {}
        for idea in self.ideas:
            if idea.id in self._by_id:
                raise ValueError(f"duplicate idea id {idea.id!r}")
            self._by_id[idea.id] = idea
            if idea.label is not None and not (0 <= idea.label < len(self.label_set)):
                raise ValueError(f"idea {idea.id!r} label {idea.label} out of range")

    def by_id(self, idea_id: str) -> Optional[Idea]:
        """The idea with this id, or None."""
        return self._by_id.get(idea_id)

    def split_ideas(self, split: str) -> list[Idea]:
        if split not in SPLITS:
            raise ValueError(f"unknown split {split!r}")
        return [i for i in self.ideas if i.split == split]


def load_corpus(path: str | Path) -> Corpus:
    """Parse a JSON-lines corpus file; the header line declares the label
    set. Record order is preserved."""
    lines = read_jsonl(path)
    line_no, obj = next(lines, (None, None))
    if line_no is None:
        raise FileFormatError(path, "empty corpus file: missing header line", 1)
    try:
        if not isinstance(obj, dict) or "labels" not in obj:
            raise ValueError(f"first line must be a header {{\"labels\": [...]}}, got: {obj!r}")
        if broken := problem(obj["labels"], STRINGS):
            raise ValueError(f"header key 'labels' {broken}")
        label_set = LabelSet(tuple(obj["labels"]))
    except ValueError as exc:
        raise FileFormatError(path, str(exc), line_no) from None

    def make(id, text, title="", label=None, timestamp=0, split=None) -> Idea:
        return Idea(id, title, text, None if label is None else label_set.index_of(label), timestamp, split)

    optional = {"title": str, "label": STRING_OR_NULL, "timestamp": COUNT, "split": STRING_OR_NULL}
    return Corpus(label_set, read_records(path, lines, make, {"id": str, "text": str}, optional, unique="id"))


def save_corpus(corpus: Corpus, path: str | Path) -> None:
    names = corpus.label_set.labels
    records = [
        {**vars(idea), "label": None if idea.label is None else names[idea.label]}
        for idea in corpus.ideas
    ]
    write_jsonl(path, [{"labels": list(names)}] + records)


def split_corpus(
    corpus: Corpus,
    fractions: Sequence[float],
    seed: int,
) -> Corpus:
    """Assign train/validation/test tags deterministically.

    Split sizes are the rounded fractions of the corpus size (test takes
    the remainder). Ideas without labels are forced into the test split;
    there must be enough labeled ideas to fill train and validation.
    """
    if broken := fractions_problem(fractions):
        raise ValueError(f"fractions {broken}")
    already = [i.id for i in corpus.ideas if i.split is not None]
    if already:
        raise ValueError(f"corpus already split (e.g. idea {already[0]!r}); refusing to resplit")

    n = len(corpus.ideas)
    n_train = round(n * fractions[0])
    n_val = round(n * fractions[1])
    n_test = n - n_train - n_val
    if n_test < 0:
        raise ValueError(f"rounded fractions overflow corpus of size {n}")

    unlabeled = [i for i, idea in enumerate(corpus.ideas) if idea.label is None]
    if len(unlabeled) > n_test:
        raise ValueError(
            f"{len(unlabeled)} unlabeled ideas cannot fit the test split of size {n_test}"
        )

    rng = np.random.default_rng(seed)
    order = [int(i) for i in rng.permutation(n)]
    labeled_order = [i for i in order if corpus.ideas[i].label is not None]
    assignment: dict[int, str] = {i: "test" for i in unlabeled}
    for pos, idx in enumerate(labeled_order):
        if pos < n_train:
            assignment[idx] = "train"
        elif pos < n_train + n_val:
            assignment[idx] = "validation"
        else:
            assignment[idx] = "test"

    ideas = [replace(idea, split=assignment[i]) for i, idea in enumerate(corpus.ideas)]
    return Corpus(label_set=corpus.label_set, ideas=ideas)


@dataclass(frozen=True)
class IdeaViewpoints:
    """Viewpoints extracted from one idea, as stored in viewpoints.jsonl."""

    idea_id: str
    viewpoints: tuple[str, ...]
    timestamp: int = 0
    pairs: tuple[tuple[str, str, str, str], ...] = ()  # (left, connector, polarity, right)
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        if not self.viewpoints:
            raise ValueError(f"idea {self.idea_id!r} has no viewpoints")
        object.__setattr__(self, "viewpoints", tuple(self.viewpoints))
        object.__setattr__(self, "pairs", tuple(tuple(p) for p in self.pairs))


def save_viewpoints(records: Iterable[IdeaViewpoints], path: str | Path) -> None:
    write_jsonl(path, map(vars, records))


def load_viewpoints(path: str | Path) -> list[IdeaViewpoints]:
    return read_records(
        path,
        read_jsonl(path),
        IdeaViewpoints,
        {"idea_id": str, "viewpoints": TEXTS},
        {"timestamp": COUNT, "pairs": PAIRS, "prompt_tokens": COUNT, "completion_tokens": COUNT},
        unique="idea_id",
    )


def save_tokens(tokens: list[list[int]], path: str | Path) -> None:
    write_atomic(path, json.dumps(tokens))


def load_tokens(path: str | Path) -> list[list[int]]:
    """A tokens file: the ``[prompt_tokens, completion_tokens]`` of each
    idea's extraction, in viewpoints.jsonl order."""
    tokens = read_json(path, "tokens file")
    if broken := problem(tokens, TOKENS):
        raise FileFormatError(path, broken, noun="tokens file")
    return tokens


def normalize_text(text: str) -> str:
    """Lower-cased text with runs of whitespace collapsed to one space."""
    return " ".join(text.lower().split())


def first_match(texts: Sequence[str]) -> dict[str, int]:
    """Each normalized text of ``texts`` -> the index of the first text that
    normalizes to it, which is written last, as the texts go in reverse."""
    return {key: i for i, key in reversed(list(enumerate(map(normalize_text, texts))))}


# Within ``recording_writes``: each path written -> the sha256 of its bytes.
_written: ContextVar[Optional[dict]] = ContextVar("written", default=None)


@contextmanager
def recording_writes() -> Iterator[dict[Path, str]]:
    """A dict that maps each path ``write_atomic`` writes within the block
    to the sha256 of the bytes it wrote there, the last write winning."""
    token = _written.set({})
    try:
        yield _written.get()
    finally:
        _written.reset(token)


def write_atomic(path: str | Path, data: str | bytes) -> None:
    """Write ``data`` (text as UTF-8) to ``path`` atomically: it goes to a
    temp file next to ``path``, which then replaces ``path``. A write that
    fails leaves ``path`` as it was, and no temp file, and raises an
    OutputError naming ``path``. A directory on the way to ``path`` that
    does not exist yet is made."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    data = data.encode("utf-8") if isinstance(data, str) else data
    try:
        try:
            tmp.write_bytes(data)
        except FileNotFoundError:  # the directory is made only when missing
            path.parent.mkdir(parents=True, exist_ok=True)
            tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException as exc:
        with suppress(OSError):  # there may be no temp file, nor a directory to hold one
            tmp.unlink()
        if isinstance(exc, OSError):
            raise OutputError(f"cannot write {path}: {exc.strerror or exc}") from exc
        raise
    if (written := _written.get()) is not None:
        written[path] = hashlib.sha256(data).hexdigest()


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write one JSON object per line, atomically."""
    write_atomic(path, "".join(_encode_row(row) + "\n" for row in rows))


# ``json.dumps(row, ensure_ascii=False)``, without making an encoder per row
_encode_row = json.JSONEncoder(ensure_ascii=False).encode


def read_file(path: str | Path, noun: str = "", binary: bool = False) -> str | bytes:
    """The text of ``path`` decoded as UTF-8, or its bytes when ``binary``.
    A file that cannot be opened or decoded raises a FileFormatError
    naming it after ``noun``. Every reader of a run file starts here."""
    try:
        with open(path, "rb") as file:
            data = file.read()
    except OSError as exc:
        raise FileFormatError(path, exc.strerror, noun=noun) from None
    if binary:
        return data
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(path, f"not UTF-8 ({exc})", noun=noun) from None


def _parse(text: str | bytes, path: str | Path, noun: str, what: str = ""):
    try:
        return json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except ValueError as exc:  # not JSON, or bytes not UTF-8
        raise FileFormatError(path, f"{what}not JSON ({exc})", noun=noun) from None


def read_json(path: str | Path, noun: str = ""):
    """The JSON value of ``path``, read by ``read_file``; text that is not
    JSON raises a FileFormatError naming the file."""
    return _parse(read_file(path, noun), path, noun)


def write_headed(path: str | Path, header: dict, arrays: Iterable[np.ndarray]) -> None:
    """Write a binary run file in the headed layout, atomically: ``header``
    as one JSON line, then each array's bytes, back to back."""
    write_atomic(path, b"".join([json.dumps(header).encode("utf-8"), b"\n", *(a.tobytes() for a in arrays)]))


def read_headed(path: str | Path, noun: str, kinds: dict, layout: Callable[[dict], dict]) -> tuple[dict, dict]:
    """The header and the read-only arrays of a file written by
    ``write_headed``. The header must be an object; its value at each key
    of ``kinds`` must be of that key's (kind, rule), and a dataclass
    section must hold every field. ``layout(header)`` maps each array's
    name, in file order, to its (dtype, shape); the blob must hold exactly
    those arrays. Any fault raises a FileFormatError naming the file after
    ``noun``."""

    def fail(message: str):
        raise FileFormatError(path, message, noun=noun)

    line, _, blob = read_file(path, noun, binary=True).partition(b"\n")
    header = _parse(line, path, noun, "header is ")
    if not isinstance(header, dict):
        fail(f"header must be an object, got {type(header).__name__}")
    for key, (kind, rule) in kinds.items():
        value = header.get(key)
        if not is_dataclass(kind):
            if broken := problem(value, kind, rule):
                fail(f"header {key!r} {broken}")
        elif bad := next(check({key: value}, kinds), None):
            fail(f"{bad[0]}: {bad[1]}")
        elif missing := [name for name in field_kinds(kind) if name not in value]:
            fail(f"{key} has no {', '.join(missing)}")
    shapes = [(name, np.dtype(dtype), tuple(shape)) for name, (dtype, shape) in layout(header).items()]
    starts = list(accumulate((dtype.itemsize * math.prod(shape) for _, dtype, shape in shapes), initial=0))
    if len(blob) != starts[-1]:
        fail(f"blob is {len(blob)} bytes, expected {starts[-1]}")
    return header, {name: np.frombuffer(blob, dtype, math.prod(shape), start).reshape(shape)
                    for (name, dtype, shape), start in zip(shapes, starts)}


def read_jsonl(path: str | Path, noun: str = "") -> Iterator[tuple[int, object]]:
    """Yield the line number and the JSON value of each non-blank line of
    ``path``, read by ``read_file``. Lines end at "\\n" only: a raw U+2028
    may sit inside a JSON string."""
    for line_no, line in enumerate(read_file(path, noun).split("\n"), start=1):
        if line.strip():
            try:  # a line that is one JSON value and nothing else, as run files' lines are
                obj, end = _scan_once(line, 0)
                if end != len(line):
                    raise ValueError
            except (StopIteration, ValueError):  # anything else: json.loads gives the value or the error
                try:
                    obj = json.loads(line)
                except ValueError as exc:  # not JSON, or an int too long to convert
                    raise FileFormatError(path, f"invalid JSON ({getattr(exc, 'msg', exc)}): {line!r}", line_no, noun) from None
            yield line_no, obj


# json.loads' own scanner: from the start of a line, it reads what json.loads
# reads, without json.loads' checks of the type, the BOM and whitespace
_scan_once = json.JSONDecoder().scan_once


# --- value kinds and the one checker of config, corpus and record values ---
# A kind is a plain type (an int is never a bool, a float may be an int, a
# list may be a tuple), a dataclass (a config section: an object whose keys
# are its fields), or one of these names, each with its type, the test every
# list item must pass and its range rule; STRING_OR_NULL also accepts None.
# A rule maps a value to None or to what is wrong with it.
COUNT = "an int >= 0"
STRING_OR_NULL = "a string or null"
TEXTS = "a list of non-empty strings"
STRINGS = "a list of strings"
NUMBERS = "a list of numbers"
PAIRS = "a list of [left, connector, polarity, right] string lists"
TOKENS = "a list of [prompt_tokens, completion_tokens] lists of ints >= 0"
BLOCKS = "a list of [name, shape] lists, each shape a list of ints >= 0"


def must(test: Callable, what: str) -> Callable:
    """The rule that a value passes ``test``; ``what`` says how."""
    return lambda value: None if test(value) else f"must be {what}, got {value!r}"


def at_least(low) -> Callable:
    return must(lambda value: value >= low, f">= {low}")


def fractions_problem(fractions) -> Optional[str]:
    """The rule for (train, validation, test) fractions: 3 finite shares
    >= 0 that sum to 1."""
    if len(fractions) != 3:
        return f"must be 3 values, got {list(fractions)}"
    if not all(math.isfinite(f) for f in fractions):
        return f"must be finite, got {list(fractions)}"
    if abs(sum(fractions) - 1.0) > 1e-9:
        return f"must sum to 1, got {sum(fractions)}"
    if any(f < 0 for f in fractions):
        return f"must be non-negative, got {list(fractions)}"
    return None


def _token_pair(p) -> bool:
    return type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is int and p[0] >= 0 and p[1] >= 0


_KINDS = {
    COUNT: (int, None, at_least(0)),
    STRING_OR_NULL: (str, None, None),
    TEXTS: (list, lambda x: isinstance(x, str) and x != "", None),
    STRINGS: (list, lambda x: isinstance(x, str), None),
    NUMBERS: (list, lambda x: problem(x, float) is None, None),
    PAIRS: (list, lambda p: isinstance(p, list) and len(p) == 4 and all(isinstance(x, str) for x in p), None),
    TOKENS: (list, _token_pair, None),
    BLOCKS: (list, lambda b: isinstance(b, list) and len(b) == 2 and isinstance(b[0], str)
             and isinstance(b[1], list) and all(problem(d, COUNT) is None for d in b[1]), None),
}
_ACCEPTED = {float: (int, float), list: (list, tuple), STRING_OR_NULL: (str, type(None))}


# Cheap tests of the kinds most file values have, each passing only values
# that its kind's generic check passes: ``problem`` tries one first, and
# only a value that fails it takes the generic path, which words the
# message.
_CHEAP = {
    STRING_OR_NULL: lambda v: v is None or type(v) is str,
    COUNT: lambda v: type(v) is int and v >= 0,
    STRINGS: lambda v: type(v) is list and set(map(type, v)) <= {str},
}


def problem(value, kind, rule: Optional[Callable] = None) -> Optional[str]:
    """Why ``value`` is not of ``kind`` or breaks ``rule``; None when it is
    neither."""
    # a plain type matched exactly, or a value that passes its kind's cheap test: only the rule is left
    if type(value) is kind or (kind in _CHEAP and _CHEAP[kind](value)):
        return (rule and rule(value)) or None
    base, item_ok, kind_rule = _KINDS.get(kind, (kind, None, None))
    if not isinstance(value, _ACCEPTED.get(kind, _ACCEPTED.get(base, base))) or (isinstance(value, bool) and base is not bool):
        article = "an" if base.__name__[0] in "aeiou" else "a"
        return f"must be {article} {base.__name__}, got {type(value).__name__}"
    bad = [x for x in value if not item_ok(x)] if item_ok else []
    if bad:
        return f"must be {kind}, got item {bad[0]!r}"
    return (kind_rule and kind_rule(value)) or (rule and rule(value)) or None


def setting(default, rule: Optional[Callable] = None, kind=None):
    """A config field of ``kind`` (by default its annotated type) whose
    value must pass ``rule``."""
    return field(default=default, metadata={"rule": rule, "kind": kind})


@cache
def field_kinds(cls) -> dict:
    """Field name -> (kind, rule) of the dataclass ``cls``."""
    hints = typing.get_type_hints(cls)
    return {f.name: (f.metadata.get("kind") or hints[f.name], f.metadata.get("rule")) for f in fields(cls)}


def check(data: dict, kinds: dict, prefix: str = "") -> Iterator[tuple[str, str]]:
    """The dotted path and problem of each value of ``data`` whose key has
    no (kind, rule) in ``kinds``, that is not of its kind, or that breaks
    its rule. A section is checked against its dataclass's fields."""
    for key, value in data.items():
        path = prefix + key
        if key not in kinds:
            yield path, "unknown key"
            continue
        kind, rule = kinds[key]
        if not is_dataclass(kind):
            if broken := problem(value, kind, rule):
                yield path, broken
        elif isinstance(value, dict):
            yield from check(value, field_kinds(kind), path + ".")
        else:
            yield path, "must be an object"


class Checked:
    """Base of the config types: constructing one raises a ValueError
    naming each field whose value is not of its kind or breaks its rule."""

    def __post_init__(self):
        problems = [f"{path}: {broken}" for path, broken in check(vars(self), field_kinds(type(self)))]
        if problems:
            raise ValueError("; ".join(problems))


def plain(config) -> dict:
    """A config or config section as a plain dict, each section a dict in
    turn; the other fields hold immutable JSON values, so none is copied."""
    return {f.name: plain(value) if is_dataclass(value := getattr(config, f.name)) else value for f in fields(config)}


def read_records(path: str | Path, lines: Iterable[tuple[int, object]], make: Callable, required: dict,
                 optional: dict, unique: str, noun: str = "") -> list:
    """``make`` called with the ``required`` and ``optional`` keys of each
    JSON object of ``lines``, the (line number, value) pairs of ``path``
    from ``read_jsonl``, in order. A line that is not an object, lacks a
    ``required`` key, holds a value not of its kind at a key, repeats an
    earlier line's value at the ``unique`` key, or that ``make`` refuses
    raises a FileFormatError naming the file after ``noun``, the line and
    the key."""
    kinds = {**required, **optional}
    first_line: dict = {}
    records = []
    for line_no, obj in lines:
        try:
            if type(obj) is dict and obj.keys() == kinds.keys():
                values, given = obj, kinds  # every key and no other, as the writers write them
            else:
                if not isinstance(obj, dict):
                    raise ValueError(f"expected a JSON object, got {obj!r}")
                for key in required:
                    if key not in obj:
                        raise ValueError(f"missing key {key!r}")
                values = given = {key: obj[key] for key in kinds if key in obj}
            for key in given:  # in the order of ``kinds``: the first bad key is named
                value, kind = values[key], kinds[key]
                # ``problem``'s cheap tests first, inline: only a value that fails them is passed on
                if type(value) is not kind and not (kind in _CHEAP and _CHEAP[kind](value)) and (
                        broken := problem(value, kind)):
                    raise ValueError(f"key {key!r} {broken}")
            if obj[unique] in first_line:
                raise ValueError(f"duplicate {unique} {obj[unique]!r} (first seen on line {first_line[obj[unique]]})")
            first_line[obj[unique]] = line_no
            records.append(make(**values))
        except ValueError as exc:
            raise FileFormatError(path, str(exc), line_no, noun) from None
    return records
