from __future__ import annotations

import importlib.util
import json
import random
import re
import threading
import time
from pathlib import Path

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from viewgraph import llm, pipeline
from viewgraph.cli import main as cli_main
from viewgraph.dataset import Corpus, Idea, LabelSet, save_corpus
from viewgraph.embedding import EmbeddingProvider, embed
from viewgraph.fixtures import demo_corpus, separable_corpus
from viewgraph.llm import (
    RELATION_TEMPLATE,
    VIEWPOINT_TEMPLATE,
    LlmBackend,
    LlmParseError,
    LlmTransportError,
    TokenUsage,
    extract_corpus,
    extract_relations,
    extract_viewpoints,
    parse_relation_response,
    parse_viewpoint_response,
    render,
)

ROOT = Path(__file__).resolve().parent.parent
CLIP_SENTENCE = (
    "State-of-the-art computer vision systems are trained to predict a fixed set "
    "of predetermined object categories."
)


def idea(text, idea_id="i0", title="A title"):
    return Idea(id=idea_id, title=title, text=text, timestamp=0)


class TestParse:
    def test_single_item(self):
        raw = "[Sentence 1]\nA.\n[Extracted Viewpoints in Sentence 1]\n[A is true.]"
        assert parse_viewpoint_response(raw) == ["A is true."]

    def test_two_sentences_two_plus_one(self):
        raw = (
            "[Sentence 1]\nFirst sentence.\n"
            "[Extracted Viewpoints in Sentence 1]\n[s1v1]\n[s1v2]\n"
            "[Sentence 2]\nSecond sentence.\n"
            "[Extracted Viewpoints in Sentence 2]\n[s2v1]\n"
        )
        assert parse_viewpoint_response(raw) == ["s1v1", "s1v2", "s2v1"]

    def test_trailing_prose_ignored(self):
        raw = "[Extracted Viewpoints in Sentence 1]\n[only claim]\nI hope this helps!"
        assert parse_viewpoint_response(raw) == ["only claim"]

    def test_no_marker_is_parse_error(self):
        with pytest.raises(LlmParseError) as err:
            parse_viewpoint_response("Sure! The viewpoints are: one, two.")
        assert "; raw completion: 'Sure! The viewpoints are" in str(err.value)

    def test_nested_brackets_rejected(self):
        raw = "[Extracted Viewpoints in Sentence 1]\n[a [nested] claim]"
        with pytest.raises(LlmParseError):
            parse_viewpoint_response(raw)

    def test_markers_case_insensitive(self):
        raw = "[EXTRACTED VIEWPOINTS IN SENTENCE 1]\n[shouting works]"
        assert parse_viewpoint_response(raw) == ["shouting works"]

    def test_unclosed_bracket_is_trailing_prose(self):
        raw = "[Extracted Viewpoints in Sentence 1]\n[kept]\n[never closed"
        assert parse_viewpoint_response(raw) == ["kept"]

    def test_item_starting_with_the_word_sentence_is_a_viewpoint(self):
        raw = (
            "[Sentence 1]\nIt attends.\n[Extracted Viewpoints in Sentence 1]\n"
            "[Sentence-level attention improves recall]\n[Recall matters]"
        )
        assert parse_viewpoint_response(raw) == ["Sentence-level attention improves recall", "Recall matters"]

    def test_item_starting_with_extracted_viewpoints_is_a_viewpoint(self):
        raw = (
            "[Extracted Viewpoints in Sentence 1]\n[Extracted viewpoints help graders.]\n"
            "[Extracted Viewpoints in Sentence 2]\n[Graphs help too.]\n[Extracted Viewpoints]\n[Last one.]"
        )
        assert parse_viewpoint_response(raw) == ["Extracted viewpoints help graders.", "Graphs help too.", "Last one."]

    @pytest.mark.parametrize("marker", ["[Sentence 2]", "[ SENTENCE 12 ]", "[sentence\t3]"])
    def test_sentence_marker_ends_the_block(self, marker):
        raw = f"[Extracted Viewpoints in Sentence 1]\n[kept]\n{marker}\nNext one.\n[not a viewpoint]"
        assert parse_viewpoint_response(raw) == ["kept"]


_marker = re.compile(r"\s*sentence\s+[0-9]+\s*|\s*extracted\s+viewpoints(\s+in\s+sentence\s+[0-9]+)?\s*", re.IGNORECASE)
viewpoint_text = (
    st.text(
        alphabet=st.characters(
            whitelist_categories=("L", "N", "P", "Zs"), blacklist_characters="[]{}"
        ),
        min_size=1,
        max_size=60,
    )
    .map(lambda s: " ".join(s.split()))
    .filter(lambda s: s and not _marker.fullmatch(s))
)


class TestRoundTrip:
    @given(st.lists(viewpoint_text, min_size=1, max_size=10))
    @settings(max_examples=200, deadline=None)
    def test_render_parse_round_trip(self, texts):
        raw = oracles.render_viewpoint_response([("Some sentence.", texts)])
        assert parse_viewpoint_response(raw) == texts


class TestMockBackend:
    def test_deterministic_over_100_calls(self):
        backend = LlmBackend()
        first = extract_viewpoints(idea("One claim. Another claim."), backend)
        for _ in range(99):
            assert extract_viewpoints(idea("One claim. Another claim."), backend) == first

    def test_sentence_becomes_viewpoint_verbatim(self):
        backend = LlmBackend()
        texts, usage = extract_viewpoints(idea(CLIP_SENTENCE + " It also does more."), backend)
        assert texts[0] == CLIP_SENTENCE
        assert usage.total == usage.prompt_tokens + usage.completion_tokens
        assert usage.prompt_tokens > 0

    def test_sentence_starting_with_the_word_sentence_extracted(self):
        texts, _ = extract_viewpoints(idea("Sentence embeddings help retrieval. Graphs help too."), LlmBackend())
        assert texts == ["Sentence embeddings help retrieval.", "Graphs help too."]

    def test_sentence_starting_with_extracted_viewpoints_extracted(self):
        texts, _ = extract_viewpoints(idea("Extracted viewpoints help graders. Graphs help too."), LlmBackend())
        assert texts == ["Extracted viewpoints help graders.", "Graphs help too."]
        texts, _ = extract_viewpoints(idea("Extracted viewpoints help graders."), LlmBackend())
        assert texts == ["Extracted viewpoints help graders."]

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("Graphs help. Sentence 2", ["Graphs help."]),
            ("Graphs help. Extracted Viewpoints", ["Graphs help."]),
            ("Sentence 2", ["empty abstract"]),
        ],
    )
    def test_sentence_reading_as_a_marker_dropped(self, text, expected):
        texts, _ = extract_viewpoints(idea(text), LlmBackend())
        assert texts == expected

    def test_empty_text_rejected_at_idea_boundary(self):
        with pytest.raises(ValueError):
            Idea(id="x", title="", text="", timestamp=0)


class TestRelations:
    def test_pair_with_however_opposing(self):
        views = ["Systems predict fixed categories.", "Fixed categories limit generality."]
        raw = (
            "{[Systems predict fixed categories.], [however], [opposing], "
            "[Fixed categories limit generality.]}"
        )
        pairs, dropped = parse_relation_response(raw, views)
        assert dropped == 0
        assert pairs == [(views[0], "however", "opposing", views[1])]

    def test_unmatched_endpoint_dropped_and_counted(self):
        views = ["alpha beta", "gamma delta"]
        raw = "{[alpha beta], [so], [supporting], [made up claim]}"
        pairs, dropped = parse_relation_response(raw, views)
        assert pairs == []
        assert dropped == 1

    def test_endpoint_matching_is_case_and_space_insensitive(self):
        views = ["Alpha  Beta", "Gamma Delta"]
        raw = "{[alpha beta], [thus], [supporting], [GAMMA   DELTA]}"
        pairs, _ = parse_relation_response(raw, views)
        assert pairs == [("Alpha  Beta", "thus", "supporting", "Gamma Delta")]

    def test_duplicates_collapsed(self):
        views = ["a claim", "b claim"]
        raw = (
            "{[a claim], [so], [supporting], [b claim]}\n"
            "{[b claim], [thus], [supporting], [a claim]}"
        )
        pairs, _ = parse_relation_response(raw, views)
        assert len(pairs) == 1

    def test_empty_completion_is_empty_result(self, monkeypatch):
        monkeypatch.setattr(LlmBackend, "complete", lambda self, prompt, purpose, seed=0: ("", TokenUsage(3, 0)))
        result = extract_relations(["first claim", "second claim"], idea("First claim. Second claim."), LlmBackend())
        assert result == ([], TokenUsage(3, 0), 0)

    def test_needs_two_viewpoints(self):
        with pytest.raises(ValueError):
            extract_relations(["only one"], idea("One."), LlmBackend())

    def test_mock_relations_deterministic(self):
        backend = LlmBackend()
        the_idea = idea("A one. B two. C three. D four.")
        views, _ = extract_viewpoints(the_idea, backend)
        first, _, _ = extract_relations(views, the_idea, backend, seed=9)
        second, _, _ = extract_relations(views, the_idea, backend, seed=9)
        assert first == second
        assert first  # consecutive pairing yields at least one pair


class TestTokenUsage:
    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=50, deadline=None)
    def test_total_is_sum(self, p, c):
        assert TokenUsage(p, c).total == p + c


brace_free = st.text(alphabet=st.characters(blacklist_characters="{\x00"), max_size=40)
with_placeholders = st.lists(
    st.sampled_from(["{title}", "{abstract}", "{viewpoints}", "{", "}", "x", " "]), max_size=8
).map("".join)


class TestTemplates:
    def test_render_binds_all_placeholders(self):
        out = render(VIEWPOINT_TEMPLATE, title="T", abstract="A")
        assert "{title}" not in out and "{abstract}" not in out

    def test_unbound_placeholder_rejected(self):
        with pytest.raises(KeyError, match="viewpoints"):
            render(RELATION_TEMPLATE, title="T", abstract="A")

    @given(brace_free, brace_free, brace_free)
    @settings(max_examples=100, deadline=None)
    def test_render_equals_replace_chain_for_brace_free_values(self, title, abstract, viewpoints):
        for template in (VIEWPOINT_TEMPLATE, RELATION_TEMPLATE):
            chained = template.replace("{title}", title).replace("{abstract}", abstract)
            chained = chained.replace("{viewpoints}", viewpoints)
            assert render(template, title=title, abstract=abstract, viewpoints=viewpoints) == chained

    @given(with_placeholders, with_placeholders, with_placeholders)
    @settings(max_examples=100, deadline=None)
    def test_placeholder_text_in_a_value_is_kept(self, title, abstract, viewpoints):
        # each placeholder goes to a sentinel first: the template holds no NUL
        expected = (
            RELATION_TEMPLATE.replace("{title}", "\x00T").replace("{abstract}", "\x00A").replace("{viewpoints}", "\x00V")
            .replace("\x00T", title).replace("\x00A", abstract).replace("\x00V", viewpoints)
        )
        assert render(RELATION_TEMPLATE, title=title, abstract=abstract, viewpoints=viewpoints) == expected

    def test_placeholder_text_in_title_and_abstract_reaches_the_prompts(self, monkeypatch):
        prompts = []
        complete = LlmBackend.complete

        def recording(self, prompt, purpose, seed=0):
            prompts.append(prompt)
            return complete(self, prompt, purpose, seed)

        monkeypatch.setattr(LlmBackend, "complete", recording)
        the_idea = idea("Graphs use {viewpoints} here. They cite {title} too.", title="On {abstract} splicing")
        records, _ = extract_corpus([the_idea], LlmBackend(relations=True))
        assert records[0].viewpoints == ("Graphs use viewpoints here.", "They cite title too.")
        assert len(prompts) == 2
        for prompt in prompts:
            assert "Title: On {abstract} splicing\n" in prompt
            assert "[The Start of Abstract]\nGraphs use {viewpoints} here. They cite {title} too.\n" in prompt


class TestRemoteBackend:
    def _response(self, payload, status=200):
        class Resp:
            status_code = status
            text = str(payload)

            def raise_for_status(self):
                if status >= 400:
                    raise requests.HTTPError(f"{status}")

            def json(self):
                return payload

        return Resp()

    def test_usage_fallback_counts_words(self, monkeypatch):
        good = {"choices": [{"message": {"content": "[Extracted Viewpoints in Sentence 1]\n[a b c]"}}]}
        monkeypatch.setattr(requests, "post", lambda url, **kw: self._response(good))
        backend = LlmBackend(backend="remote", endpoint="http://x", model="m")
        _, usage = extract_viewpoints(idea("Three words here."), backend)
        assert usage.completion_tokens == len(good["choices"][0]["message"]["content"].split())
        assert usage.prompt_tokens > 0


# a reply that posts to a loopback port nothing listens on
REFUSED = object()


class TestTransportPolicy:
    """One retry policy for both remote endpoints: each transport case is
    run against a chat completion and an embedding request, both sent by
    ``post_json``."""

    @pytest.fixture(autouse=True)
    def no_backoff(self, monkeypatch):
        monkeypatch.setattr(llm, "BACKOFF_S", 0.0)

    GOOD = {
        "completion": {"choices": [{"message": {"content": "[Extracted Viewpoints in Sentence 1]\n[ok]"}}],
                       "usage": {"prompt_tokens": 5, "completion_tokens": 7}},
        "embedding": {"data": [{"embedding": [0.6, 0.8]}]},
    }
    # case -> the replies to successive posts (the last one repeats): an
    # exception to raise, an HTTP status or a 200 body, or REFUSED; then
    # the posts made, and the error's type and message after the
    # endpoint
    CASES = {
        "ok-on-third-attempt": ([requests.ConnectionError("down"), requests.ConnectionError("down"), 200], 3, None, None),
        "connection-errors": ([requests.ConnectionError("down")], 3, LlmTransportError, "request failed after 3 attempts: down"),
        "refused-socket": ([REFUSED], 3, LlmTransportError, "request failed after 3 attempts: [Errno 111] Connection refused"),
        "400": ([400], 1, LlmTransportError, "refused with HTTP 400, not retried: denied"),
        "401": ([401], 1, LlmTransportError, "refused with HTTP 401, not retried: denied"),
        "404": ([404], 1, LlmTransportError, "refused with HTTP 404, not retried: denied"),
        "429": ([429], 3, LlmTransportError, "request failed after 3 attempts: HTTP 429"),
        "500": ([500], 3, LlmTransportError, "request failed after 3 attempts: HTTP 500"),
        "503": ([503], 3, LlmTransportError, "request failed after 3 attempts: HTTP 503"),
        "invalid-url": ([requests.exceptions.MissingSchema("no scheme")], 1, LlmTransportError, "request failed, not retried: no scheme"),
        "not-json": ([b"<html>gateway</html>"], 1, ValueError, "response is not JSON: <html>gateway</html>"),
    }

    def request(self, endpoint: str):
        if endpoint == "completion":
            return LlmBackend(backend="remote", endpoint="http://x", model="m").complete("Anything.", "viewpoint_extraction")
        return embed(["a"], EmbeddingProvider(provider="remote", dimension=2, endpoint="http://x"))

    @pytest.mark.parametrize("case", CASES)
    @pytest.mark.parametrize("endpoint", ["completion", "embedding"])
    def test_case(self, monkeypatch, refused_endpoint, endpoint, case):
        replies, posts, error, message = self.CASES[case]
        made, real_post = [], requests.post

        def fake_post(url, **kw):
            made.append(url)
            reply = replies[min(len(made), len(replies)) - 1]
            if reply is REFUSED:  # the HTTP client's own ConnectionError, with its own cause chain
                return real_post(refused_endpoint, **kw)
            if isinstance(reply, Exception):
                raise reply
            resp = requests.models.Response()
            resp.status_code, resp.encoding = (reply if isinstance(reply, int) else 200), "utf-8"
            resp._content = (reply if isinstance(reply, bytes) else
                             json.dumps(self.GOOD[endpoint]).encode() if reply == 200 else b"denied")
            return resp

        monkeypatch.setattr(requests, "post", fake_post)
        if message is None:
            result = self.request(endpoint)
            if endpoint == "completion":
                assert result == ("[Extracted Viewpoints in Sentence 1]\n[ok]", TokenUsage(5, 7))
            else:
                assert result.rows.tolist() == [[0.6, 0.8]]
        else:
            with pytest.raises(error) as err:
                self.request(endpoint)
            where = "chat completion endpoint" if endpoint == "completion" else "embedding endpoint"
            assert type(err.value) is error and str(err.value) == f"{where} http://x: {message}"
        assert made == ["http://x"] * posts

    @pytest.mark.parametrize("key", ["k", None], ids=["key", "no-key"])
    @pytest.mark.parametrize("endpoint", ["completion", "embedding"])
    def test_api_key_sent_as_bearer_token(self, monkeypatch, endpoint, key):
        """$VIEWGRAPH_API_KEY is the bearer token of both endpoints; unset,
        no Authorization header is sent."""
        if key is None:
            monkeypatch.delenv("VIEWGRAPH_API_KEY", raising=False)
        else:
            monkeypatch.setenv("VIEWGRAPH_API_KEY", key)
        sent = []

        def fake_post(url, headers, **kw):
            sent.append(headers)
            return json_reply(self.GOOD[endpoint])

        monkeypatch.setattr(requests, "post", fake_post)
        self.request(endpoint)
        expected = {"Content-Type": "application/json"}
        if key is not None:
            expected["Authorization"] = f"Bearer {key}"
        assert sent == [expected]


def json_reply(body) -> requests.models.Response:
    """A 200 reply whose body is ``body`` as JSON."""
    resp = requests.models.Response()
    resp.status_code, resp.encoding, resp._content = 200, "utf-8", json.dumps(body).encode()
    return resp


class TestPayloadFaults:
    """A 200 reply that holds no usable completion: extraction fails
    naming the idea and the fault, and ``viewgraph extract`` exits 2."""

    HEADER = "[Extracted Viewpoints in Sentence 1]\n"
    NO_CHOICES = {"choices": []}
    NEGATIVE_USAGE = {"choices": [{"message": {"content": HEADER + "[ok]"}}],
                      "usage": {"prompt_tokens": -1, "completion_tokens": 3}}
    # case -> (the 200 body, the fault, the raw completion the error quotes)
    CASES = {
        "no-choices": (NO_CHOICES, "malformed completion payload: list index out of range", str(NO_CHOICES)),
        "negative-usage": (NEGATIVE_USAGE, "malformed completion payload: token counts must be non-negative",
                           str(NEGATIVE_USAGE)),
        "header-without-items": ({"choices": [{"message": {"content": HEADER}}]},
                                 "completion contained no viewpoint items", HEADER),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_case(self, tmp_path, monkeypatch, capsys, case):
        body, fault, raw = self.CASES[case]
        monkeypatch.setattr(requests, "post", lambda url, **kw: json_reply(body))
        message = f"idea 'a': {fault}; raw completion: {raw!r}"
        backend = LlmBackend(backend="remote", endpoint="http://x", model="m")
        with pytest.raises(ValueError) as err:
            extract_corpus([idea("One claim.", "a")], backend)
        assert str(err.value) == message

        corpus, config, views = tmp_path / "c.jsonl", tmp_path / "config.json", tmp_path / "views.jsonl"
        save_corpus(Corpus(LabelSet(("bad", "good")), [idea("One claim.", "a")]), corpus)
        config.write_text(json.dumps({"llm": {"backend": "remote", "endpoint": "http://x"}}))
        argv = ["extract", "--in", corpus, "--out", views, "--config", config, "--quiet"]
        assert cli_main([str(arg) for arg in argv]) == 2
        assert capsys.readouterr().err == f"error: {corpus}: {message}\n"
        assert not views.exists()


class TestExtractCorpus:
    def test_failed_remote_completion_names_its_idea(self, monkeypatch):
        class Resp:
            status_code = 200

            def json(self):
                return {"choices": [{"message": {"content": "[Extracted Viewpoints in Sentence 1]\n[ok]"}}]}

        def fake_post(url, json, **kw):
            made.append(url)
            if "Second claim." in json["messages"][0]["content"]:
                raise requests.ConnectionError("down")
            return Resp()

        made = []
        monkeypatch.setattr(llm, "BACKOFF_S", 0.0)
        monkeypatch.setattr(requests, "post", fake_post)
        backend = LlmBackend(backend="remote", endpoint="http://x", model="m", max_inflight=1)
        with pytest.raises(LlmTransportError) as err:
            extract_corpus([idea("First claim.", "a"), idea("Second claim.", "b"), idea("Third claim.", "c")], backend)
        assert str(err.value) == "idea 'b': chat completion endpoint http://x: request failed after 3 attempts: down"
        assert len(made) == 4

    def test_thread_pool_keeps_input_order_and_posts_each_prompt_once(self, monkeypatch, tmp_path):
        """Six ideas through four threads, the later ones answered first:
        the records are a one-thread run's, in input order, and each
        prompt is posted once. One failing idea raises an error naming it,
        and no viewpoints file is written."""
        ideas = [idea(f"Claim {n} holds. It follows from {n}.", f"i{n}") for n in range(6)]
        posted, lock = [], threading.Lock()

        class Resp:
            status_code = 200

            def __init__(self, prompt):
                text, words = llm._mock_completion(prompt, "viewpoint_extraction", 0)
                self.body = {"choices": [{"message": {"content": text}}],
                             "usage": {"prompt_tokens": len(prompt), "completion_tokens": words}}

            def json(self):
                return self.body

        def fake_post(url, json, **kw):
            prompt = json["messages"][0]["content"]
            with lock:
                posted.append(prompt)
            n = next(n for n in range(6) if f"Claim {n} holds." in prompt)
            time.sleep(0.002 * (6 - n))  # the later ideas are answered first
            if f"Claim {failing} holds." in prompt:
                raise requests.ConnectionError("down")
            return Resp(prompt)

        monkeypatch.setattr(llm, "BACKOFF_S", 0.0)
        monkeypatch.setattr(requests, "post", fake_post)
        failing = None
        runs = {}
        for inflight in (1, 4):
            posted.clear()
            backend = LlmBackend(backend="remote", endpoint="http://x", model="m", max_inflight=inflight)
            runs[inflight] = extract_corpus(ideas, backend), sorted(posted)
        assert runs[4] == runs[1]
        assert [r.idea_id for r in runs[4][0][0]] == [f"i{n}" for n in range(6)]
        prompts = runs[4][1]
        assert len(prompts) == len(set(prompts)) == 6

        failing = 3
        split, views = tmp_path / "split.jsonl", tmp_path / "views.jsonl"
        save_corpus(Corpus(LabelSet(("bad", "good")), ideas), split)
        config = pipeline.validate_config({"llm": {"backend": "remote", "endpoint": "http://x", "max_inflight": 4}})
        with pytest.raises(LlmTransportError) as err:
            pipeline.run_extract({"split": split, "viewpoints": views}, config, {})
        assert str(err.value) == "idea 'i3': chat completion endpoint http://x: request failed after 3 attempts: down"
        assert not views.exists()

    def test_summary_reports_aggregates(self):
        ideas = [
            idea("One claim. Two claim. Three claim.", "a"),
            idea("Only claim here.", "b"),
        ]
        records, summary = extract_corpus(ideas, LlmBackend(relations=True))
        assert [r.idea_id for r in records] == ["a", "b"]
        assert summary["avg_viewpoints_per_idea"] == pytest.approx(2.0)
        assert summary["avg_words_per_viewpoint"] > 0
        assert "avg_tokens_per_evaluation" in summary
        assert "total_pairs" in summary and "avg_edge_density" in summary

    def test_density_definition(self):
        # 3 viewpoints, mock pairs consecutive (0-1): 1 pair over C(3,2)=3
        records, summary = extract_corpus(
            [idea("A one. B two. C three.", "a")], LlmBackend(relations=True)
        )
        assert len(records[0].viewpoints) == 3
        assert summary["avg_edge_density"] == pytest.approx(len(records[0].pairs) / 3)


class TestExtractionOracle:
    """The mock backend agrees with its regex reference in ``oracles``,
    output for output and message for message, on generated text that
    probes each string test it makes."""

    PIECES = (
        "Sentence", "sentence", "SENTENCE", "ſentence", "Sentence 12", " sentence 3 ", "entence", "xtracted",
        "EXTRACTED  viewpoints in Sentence 2", "Extracted Viewpoints", "extracted", "Viewpoints", "viewpointſ",
        "in", "İn", "ın", "12", "3", " ", "  ", "\n", "\t", "\x1c", "\xa0", "\u2028", "[", "]", "{", "}",
        ".", "!", "?", ". ", "\u212a", "K", "Graphs help", "café", "Title: ",
        "[The Start of Abstract]", "[The End of Abstract]", "[Sentence 1]", "[Extracted Viewpoints in Sentence 1]",
        "[Extracted Viewpoints]", "[Graphs help.]", "[ ]",
    )
    SPACES = ("", " ", "  ", "\x1c", "\xa0", "\u2028", "\n", "\t")
    MARKER_WORDS = (
        "Sentence", "sentence", "SENTENCE", "ſentence", "ſENTENCE", "Sentenced", "entence", "Extracted Viewpoints",
        "EXTRACTED  viewpoints in Sentence", "extracted viewpointſ", "Extracted vİewpoints ın ſentence",
        "Extracted Viewpoints in\xa0Sentence", "xtracted viewpoints", "Extracted",
    )
    COUNT = 6000

    def strings(self, seed: int, longest: int = 10) -> list[str]:
        """COUNT strings: every other one of random pieces, the rest
        marker look-alikes (a marker word between whitespace, then digits)."""
        rng = random.Random(seed)
        pick = rng.choice
        return [
            "".join(pick(self.PIECES) for _ in range(rng.randint(0, longest))) if i % 2 else
            pick(self.SPACES) + pick(self.MARKER_WORDS) + pick(self.SPACES) + pick(("12", "3", "", "x")) + pick(self.SPACES)
            for i in range(self.COUNT)
        ]

    @staticmethod
    def outcome(fn, arg):
        try:
            return fn(arg)
        except ValueError as exc:
            return type(exc), str(exc)

    def test_marker_test_sanitize_and_sentence_split(self):
        for text in self.strings(1):
            assert llm._is_marker(text) == oracles.is_marker(text), text
            assert llm._sanitize(text) == oracles.sanitize(text), text
            assert llm._split_sentences(text) == oracles.split_sentences(text), text

    def test_prompt_words(self):
        for t, a, v in zip(self.strings(10, longest=4), self.strings(11), self.strings(12)):
            for prompt in (render(VIEWPOINT_TEMPLATE, title=t, abstract=a),
                           render(RELATION_TEMPLATE, title=t, abstract=a, viewpoints=v)):
                assert llm._prompt_words(prompt) == len(prompt.split()), prompt

    def test_mock_completion(self):
        titles, abstracts, raw = self.strings(3, longest=4), self.strings(4), self.strings(5, longest=16)
        prompts = [render(VIEWPOINT_TEMPLATE, title=t, abstract=a) for t, a in zip(titles, abstracts)]
        prompts += ["[The Start of Abstract]\n" + a for a in abstracts[:500]]  # no end marker
        for prompt in prompts + raw:
            want = self.outcome(oracles.mock_viewpoints, prompt)
            if isinstance(want, str):  # the completion, and its word count
                want = want, len(want.split())
            assert self.outcome(llm._mock_viewpoints, prompt) == want, prompt
            assert llm._prompt_words(prompt) == len(prompt.split()), prompt

    @pytest.mark.parametrize("name", ["demo12", "separable40", "perfbench"])
    @pytest.mark.parametrize("relations", [False, True])
    def test_extract_corpus(self, monkeypatch, name, relations):
        if name == "perfbench":
            spec = importlib.util.spec_from_file_location("bench_corpus", ROOT / "perfbench" / "corpus.py")
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            ideas = module.make_corpus(100, 6, 0.5, seed=1)[0].ideas
        else:
            ideas = {"demo12": demo_corpus, "separable40": separable_corpus}[name]().ideas
        backend = LlmBackend(relations=relations)
        got = extract_corpus(ideas, backend, seed=3)
        def mock_viewpoints(prompt):
            text = oracles.mock_viewpoints(prompt)
            return text, len(text.split())

        for attr, reference in [("_mock_viewpoints", mock_viewpoints), ("_sanitize", oracles.sanitize),
                                ("_is_marker", oracles.is_marker), ("_prompt_words", lambda p: len(p.split())),
                                ("_split_sentences", oracles.split_sentences)]:
            monkeypatch.setattr(llm, attr, reference)
        assert got == extract_corpus(ideas, backend, seed=3)
