"""Chat-completion client for viewpoint and relation extraction.

Completions follow a bracketed block grammar: each input sentence gets a
``[Sentence N]`` header, its text, an ``[Extracted Viewpoints in Sentence N]``
header, then one bracketed item per viewpoint. Relation completions list
``{[left], [connector], [supporting|opposing], [right]}`` tuples.

Grammar tolerance (the remote model is not trusted to be exact): markers
match case-insensitively, prose between and after bracketed items is
ignored, nested brackets inside an item are rejected. Only an item that
reads ``[Sentence N]`` (any case, N digits, whitespace around it ignored)
is a sentence marker; ``[Sentence-level attention helps]`` is a viewpoint.
Likewise only ``[Extracted Viewpoints in Sentence N]`` or ``[Extracted
Viewpoints]`` is a viewpoint header; ``[Extracted viewpoints help.]`` is a
viewpoint.
``render`` fills a prompt's placeholders in one pass, so placeholder text
inside a title or an abstract reaches the prompt as it is.

The mock backend derives its completion from the prompt alone (one
viewpoint per sentence of the abstract), so extraction is reproducible
offline and byte-identical across calls.
"""

from __future__ import annotations

import os
import re
import time
from dataclasses import dataclass
from typing import Sequence

from .dataset import Checked, Idea, IdeaViewpoints, at_least, first_match, must, normalize_text, setting

POLARITIES = ("supporting", "opposing")


class LlmParseError(ValueError):
    """Completion text did not match the expected grammar."""

    def __init__(self, message: str, raw: str):
        super().__init__(f"{message}; raw completion: {raw[:2000]!r}")


class LlmTransportError(RuntimeError):
    """A remote call that failed."""


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be non-negative")

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens


_PLACEHOLDER_RE = re.compile(r"\{(title|abstract|viewpoints)\}")


def render(template: str, **values: str) -> str:
    """``template`` with each ``{title}``, ``{abstract}`` and ``{viewpoints}``
    replaced by its value in one pass; a placeholder without a value
    raises a KeyError."""
    return _PLACEHOLDER_RE.sub(lambda m: values[m.group(1)], template)


VIEWPOINT_TEMPLATE = (
    "You are an annotator. Work through the abstract below sentence by sentence\n"
    "and pull out every viewpoint stated in each sentence. A viewpoint is one\n"
    "atomic idea, argument, or fact, granular enough that it cannot be split\n"
    "further. A sentence may hold one or several viewpoints. Rewrite pronouns\n"
    "and elided subjects so that every viewpoint stands on its own.\n"
    "\n"
    "Answer in exactly this layout, one block per sentence:\n"
    "\n"
    "[Sentence 1]\n"
    "<the sentence>\n"
    "[Extracted Viewpoints in Sentence 1]\n"
    "[<first viewpoint>]\n"
    "[<second viewpoint>]\n"
    "\n"
    "Title: {title}\n"
    "\n"
    "[The Start of Abstract]\n"
    "{abstract}\n"
    "[The End of Abstract]\n"
)

RELATION_TEMPLATE = (
    "You are an annotator. Below are an abstract and the viewpoints extracted\n"
    "from it. Find pairs of semantically related viewpoints. For each pair give\n"
    "a logical connector and say whether the relation is \"supporting\"\n"
    "(continuation, cause-effect, exemplification, ...) or \"opposing\"\n"
    "(contrast, contradiction, ...).\n"
    "\n"
    "Write one pair per line in exactly this form:\n"
    "{[<viewpoint one>], [<connector>], [supporting or opposing], [<viewpoint two>]}\n"
    "\n"
    "Title: {title}\n"
    "\n"
    "[The Start of Abstract]\n"
    "{abstract}\n"
    "[The End of Abstract]\n"
    "\n"
    "[The Start of Extracted Viewpoints]\n"
    "{viewpoints}\n"
    "[The End of Extracted Viewpoints]\n"
)


BACKOFF_S = 1.0  # the first retry's delay; each later retry doubles it
ATTEMPTS = 3  # an embedding request's attempts, and llm.max_retries's default


def post_json(endpoint: str, payload: dict, where: str, attempts: int, timeout: float):
    """The decoded JSON body of a POST of ``payload`` to ``endpoint``.
    Connection errors, timeouts, 429 and 5xx are retried with exponential
    backoff, up to ``attempts`` tries; any other failure, such as a 401
    for a bad key, raises an LlmTransportError at once, and a body that is
    not JSON a ValueError. Each message starts with ``where``, which names
    the endpoint. The bearer token is $VIEWGRAPH_API_KEY, when it is set."""
    import requests  # only the remote paths load the HTTP client

    headers = {"Content-Type": "application/json"}
    if key := os.environ.get("VIEWGRAPH_API_KEY"):
        headers["Authorization"] = f"Bearer {key}"
    last = ""
    for attempt in range(1, attempts + 1):
        if attempt > 1:
            time.sleep(BACKOFF_S * 2 ** (attempt - 2))
        try:
            resp = requests.post(endpoint, json=payload, headers=headers, timeout=timeout)
        except (requests.ConnectionError, requests.Timeout) as exc:
            # the innermost reason, such as a refused socket's, not the HTTP client's own retry text
            while (inner := exc.__cause__ or exc.__context__) is not None:
                exc = inner
            last = str(exc)
            continue
        except requests.RequestException as exc:
            raise LlmTransportError(f"{where}: request failed, not retried: {exc}") from exc
        if resp.status_code == 429 or resp.status_code >= 500:
            last = f"HTTP {resp.status_code}"
            continue
        if resp.status_code >= 400:
            raise LlmTransportError(f"{where}: refused with HTTP {resp.status_code}, not retried: {resp.text[:200]}")
        try:
            return resp.json()
        except ValueError:
            raise ValueError(f"{where}: response is not JSON: {resp.text[:200]}") from None
    raise LlmTransportError(f"{where}: request failed after {attempts} attempts: {last}")


@dataclass
class LlmBackend(Checked):
    """The ``llm`` config section, and the chat-completion client it sets
    up; ``backend="mock"`` needs no network. ``price_per_million`` is read
    by eval, ``relations`` by ``extract_corpus``."""

    backend: str = setting("mock", must(lambda v: v in ("mock", "remote"), "mock or remote"))
    endpoint: str = ""
    model: str = ""
    temperature: float = setting(0.1, must(lambda v: 0.0 <= v <= 2.0, "in [0, 2]"))
    max_retries: int = setting(ATTEMPTS, at_least(1))
    price_per_million: float = setting(0.0, at_least(0.0))
    relations: bool = False
    max_inflight: int = setting(4, at_least(1))

    def __post_init__(self):
        super().__post_init__()
        if self.backend == "remote" and not self.endpoint:
            raise ValueError("endpoint: must be set when backend is remote")

    def complete(self, prompt: str, purpose: str, seed: int = 0) -> tuple[str, TokenUsage]:
        """One completion; ``seed`` picks the mock's relation connectors
        and polarities. A remote completion is one ``post_json`` call."""
        if self.backend == "mock":
            text, words = _mock_completion(prompt, purpose, seed)
            return text, TokenUsage(_prompt_words(prompt), words)
        payload = {"model": self.model, "messages": [{"role": "user", "content": prompt}], "temperature": self.temperature}
        body = post_json(self.endpoint, payload, f"chat completion endpoint {self.endpoint}", self.max_retries, 120)
        try:
            text = body["choices"][0]["message"]["content"]
            usage = body.get("usage") or {}
            pt = usage.get("prompt_tokens")
            ct = usage.get("completion_tokens")
            if pt is None or ct is None:
                # provider omitted usage metadata: approximate by word count
                pt, ct = _word_count(prompt), _word_count(text)
            return text, TokenUsage(int(pt), int(ct))
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            raise LlmParseError(f"malformed completion payload: {exc}", str(body)) from exc


def _word_count(text: str) -> int:
    return len(text.split())


# Each template's text up to its first placeholder, and its word count.
# It ends in a space, so no word of a prompt runs across its end.
_HEADS = [(head, _word_count(head))
          for head in (t[: t.index("{title}")] for t in (VIEWPOINT_TEMPLATE, RELATION_TEMPLATE))]


def _prompt_words(prompt: str) -> int:
    """``_word_count(prompt)``, with a template's head counted once."""
    for head, words in _HEADS:
        if prompt.startswith(head):
            return words + _word_count(prompt[len(head) :])
    return _word_count(prompt)


_VIEWPOINT_HEADER_RE = re.compile(r"\[\s*extracted\s+viewpoints(?:\s+in\s+sentence\s+[0-9]+)?\s*\]", re.IGNORECASE)
_SENTENCE_MARKER_RE = re.compile(r"\s*sentence\s+[0-9]+\s*", re.IGNORECASE)


def parse_viewpoint_response(raw: str) -> list[str]:
    """Pull viewpoint texts out of a bracketed completion, document order."""
    headers = list(_VIEWPOINT_HEADER_RE.finditer(raw))
    if not headers:
        raise LlmParseError("no '[Extracted Viewpoints ...]' marker found", raw)
    viewpoints: list[str] = []
    for h, header in enumerate(headers):
        start = header.end()
        stop = headers[h + 1].start() if h + 1 < len(headers) else len(raw)
        pos = start
        while pos < stop:
            open_at = raw.find("[", pos, stop)
            if open_at < 0:
                break
            close_at = raw.find("]", open_at + 1, stop)
            if close_at < 0:
                break  # unclosed bracket: trailing prose, ignored
            content = raw[open_at + 1 : close_at]
            if "[" in content:
                raise LlmParseError("nested bracket inside a viewpoint item", raw)
            if _SENTENCE_MARKER_RE.fullmatch(content):
                break  # next sentence block begins
            text = content.strip()
            if text:
                viewpoints.append(text)
            pos = close_at + 1
    return viewpoints


def _is_marker(text: str) -> bool:
    """Whether ``text``, as a bracketed item, would read as a marker. ASCII
    text whose lowercase holds neither ``entence`` nor ``xtracted`` matches
    no marker; other text goes to the regexes, as IGNORECASE also matches
    ``ſ`` to ``s`` and the Kelvin sign to ``k``."""
    if text.isascii() and "entence" not in (lower := text.lower()) and "xtracted" not in lower:
        return False
    return bool(_SENTENCE_MARKER_RE.fullmatch(text) or _VIEWPOINT_HEADER_RE.fullmatch(f"[{text}]"))


_PAIR_RE = re.compile(
    r"\{\s*\[([^\[\]]*)\]\s*,\s*\[([^\[\]]*)\]\s*,\s*\[([^\[\]]*)\]\s*,\s*\[([^\[\]]*)\]\s*\}",
    re.DOTALL,
)


def parse_relation_response(raw: str, viewpoints: Sequence[str]) -> tuple[list[tuple[str, str, str, str]], int]:
    """Parse ``(left, connector, polarity, right)`` tuples; each endpoint
    is stored as the input viewpoint ``first_match`` finds for it.

    Pairs with unmatched endpoints, unknown polarity, or equal endpoints
    are dropped and counted, not fatal. Duplicates (same unordered
    endpoint pair and polarity) are collapsed.
    """
    index = first_match(viewpoints)
    pairs: list[tuple[str, str, str, str]] = []
    seen: set[tuple[frozenset, str]] = set()
    dropped = 0
    for m in _PAIR_RE.finditer(raw):
        left_raw, connector, polarity_raw, right_raw = (g.strip() for g in m.groups())
        i, j = index.get(normalize_text(left_raw)), index.get(normalize_text(right_raw))
        polarity = next((p for p in POLARITIES if polarity_raw.lower().startswith(p[:6])), None)
        if i is None or j is None or polarity is None or i == j:
            dropped += 1
            continue
        key = (frozenset((i, j)), polarity)
        if key in seen:
            continue
        seen.add(key)
        pairs.append((viewpoints[i], connector, polarity, viewpoints[j]))
    return pairs, dropped


def extract_viewpoints(idea: Idea, backend: LlmBackend) -> tuple[list[str], TokenUsage]:
    """One prompted call; returns >= 1 viewpoint texts in document order."""
    prompt = render(VIEWPOINT_TEMPLATE, title=idea.title, abstract=idea.text)
    completion, usage = backend.complete(prompt, purpose="viewpoint_extraction")
    texts = parse_viewpoint_response(completion)
    if not texts:
        raise LlmParseError("completion contained no viewpoint items", completion)
    return texts, usage


def extract_relations(viewpoints: Sequence[str], idea: Idea, backend: LlmBackend, seed: int = 0) -> tuple[list, TokenUsage, int]:
    """One prompted call; returns the pairs (as ``parse_relation_response``),
    the usage and the number of pairs dropped."""
    if len(viewpoints) < 2:
        raise ValueError("relation extraction needs at least 2 viewpoints")
    listing = "\n".join(f"[{v}]" for v in viewpoints)
    prompt = render(RELATION_TEMPLATE, title=idea.title, abstract=idea.text, viewpoints=listing)
    completion, usage = backend.complete(prompt, purpose="relation_extraction", seed=seed)
    pairs, dropped = parse_relation_response(completion, viewpoints)
    return pairs, usage, dropped


# --- mock backend ---------------------------------------------------------

_ABSTRACT_START, _ABSTRACT_END = "[The Start of Abstract]", "[The End of Abstract]"
_VIEWPOINT_LIST_RE = re.compile(
    r"\[The Start of Extracted Viewpoints\]\s*(.*?)\s*\[The End of Extracted Viewpoints\]",
    re.DOTALL,
)
_CONNECTORS = ("therefore", "moreover", "however", "for example")
_SENTENCE_END_RE = re.compile(r"([.!?])\s+")
_BRACKETS_RE = re.compile(r"[\[\]{}]")


def _split_sentences(text: str) -> list[str]:
    # split after each [.!?] that whitespace follows; the mark stays with its sentence
    parts = _SENTENCE_END_RE.split(text.strip())  # text, mark, text, mark, ..., text
    sentences = map(str.__add__, parts[::2], parts[1::2] + [""])
    return [s for s in map(str.strip, sentences) if s]


def _sanitize(text: str) -> str:
    # mock output must stay inside the bracket grammar
    if "[" in text or "]" in text or "{" in text or "}" in text:
        text = _BRACKETS_RE.sub("", text)
    return text.strip()


def _mock_completion(prompt: str, purpose: str, seed: int) -> tuple[str, int]:
    """The mock's completion and its word count."""
    if purpose == "relation_extraction":
        text = _mock_relations(prompt, seed)
        return text, _word_count(text)
    return _mock_viewpoints(prompt)


def _mock_viewpoints(prompt: str) -> tuple[str, int]:
    # the text between the first start marker and the first end marker after it
    start = prompt.find(_ABSTRACT_START)
    stop = prompt.find(_ABSTRACT_END, start + len(_ABSTRACT_START)) if start >= 0 else -1
    abstract = prompt[start + len(_ABSTRACT_START) : stop].strip() if stop >= 0 else prompt
    # a sentence that reads as a marker, such as "Sentence 2", is dropped
    sentences = [s for s in map(_sanitize, _split_sentences(abstract)) if s and not _is_marker(s)]
    sentences = sentences or ["empty abstract"]
    # each sentence s is one block, its own viewpoint, which holds 7 words
    # and s's twice, as s is stripped
    blocks = [f"[Sentence {i}]\n{s}\n[Extracted Viewpoints in Sentence {i}]\n[{s}]" for i, s in enumerate(sentences, 1)]
    return "\n".join(blocks), sum(7 + 2 * _word_count(s) for s in sentences)


def _mock_relations(prompt: str, seed: int) -> str:
    m = _VIEWPOINT_LIST_RE.search(prompt)
    if not m:
        return ""
    views = parse_viewpoint_response("[Extracted Viewpoints in Sentence 1]\n" + m.group(1))
    lines = []
    for i in range(0, len(views) - 1, 2):
        connector = _CONNECTORS[(seed + i) % len(_CONNECTORS)]
        polarity = POLARITIES[(seed + i // 2) % 2]
        lines.append(f"{{[{views[i]}], [{connector}], [{polarity}], [{views[i + 1]}]}}")
    return "\n".join(lines)


# --- batch extraction over a corpus ---------------------------------------


def extract_corpus(ideas: Sequence[Idea], backend: LlmBackend, seed: int = 0) -> tuple[list[IdeaViewpoints], dict]:
    """Extract viewpoints (and relations when ``backend.relations``) for
    every idea; ``seed`` goes to each relation completion.

    Remote calls run concurrently up to ``backend.max_inflight``; results
    are returned in input order. The summary dict reports the aggregates
    (viewpoints per idea, words per viewpoint, pair density when relations
    are on) plus the average tokens per idea.
    """

    def one(idea: Idea) -> tuple[IdeaViewpoints, int]:
        try:
            texts, usage = extract_viewpoints(idea, backend)
            pairs, dropped = [], 0
            prompt_tokens, completion_tokens = usage.prompt_tokens, usage.completion_tokens
            if backend.relations and len(texts) >= 2:
                pairs, rel_usage, dropped = extract_relations(texts, idea, backend, seed)
                prompt_tokens += rel_usage.prompt_tokens
                completion_tokens += rel_usage.completion_tokens
        except ValueError as exc:  # a completion that does not parse
            raise ValueError(f"idea {idea.id!r}: {exc}") from None
        except LlmTransportError as exc:  # a remote call that failed
            raise LlmTransportError(f"idea {idea.id!r}: {exc}") from None
        rec = IdeaViewpoints(
            idea_id=idea.id,
            viewpoints=tuple(texts),
            timestamp=idea.timestamp,
            pairs=pairs,
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
        )
        return rec, dropped

    if backend.backend == "remote" and backend.max_inflight > 1 and len(ideas) > 1:
        from concurrent.futures import ThreadPoolExecutor  # remote only: it also loads logging

        with ThreadPoolExecutor(max_workers=backend.max_inflight) as pool:
            results = list(pool.map(one, ideas))
    else:
        results = [one(idea) for idea in ideas]

    records = [r for r, _ in results]
    dropped_pairs = sum(d for _, d in results)
    summary = summarize_extraction(records, backend.relations)
    summary["dropped_pairs"] = dropped_pairs
    return records, summary


def summarize_extraction(records: Sequence[IdeaViewpoints], relations: bool = False) -> dict:
    """Aggregates of an extraction; eval prices its token counts."""
    n_views = [len(r.viewpoints) for r in records]
    words = [_word_count(v) for r in records for v in r.viewpoints]
    tokens = [r.prompt_tokens + r.completion_tokens for r in records]
    summary = {
        "ideas": len(records),
        "avg_viewpoints_per_idea": sum(n_views) / len(n_views) if n_views else 0.0,
        "avg_words_per_viewpoint": sum(words) / len(words) if words else 0.0,
        "avg_tokens_per_evaluation": sum(tokens) / len(tokens) if tokens else 0.0,
    }
    if relations:
        pair_counts = [len(r.pairs) for r in records]
        densities = [
            len(r.pairs) / (n * (n - 1) / 2)
            for r, n in zip(records, n_views)
            if n >= 2
        ]
        summary["total_pairs"] = sum(pair_counts)
        summary["avg_pairs_per_idea"] = sum(pair_counts) / len(records) if records else 0.0
        summary["avg_edge_density"] = sum(densities) / len(densities) if densities else 0.0
    return summary
