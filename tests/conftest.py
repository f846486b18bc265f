import random
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

# Deterministic news-ish vocabulary: enough types that coincidental overlaps
# are rare, sampled with Zipf-like weights so common words repeat naturally.
_SYLLABLES = [
    "ba", "co", "da", "el", "fi", "ga", "ho", "in", "ja", "ka",
    "lo", "ma", "ne", "or", "pa", "qui", "ra", "se", "ti", "ul",
    "ve", "wa", "xe", "yo", "zu", "bri", "cla", "dro", "fen", "gri",
]
_FUNCTION_WORDS = [
    "the", "of", "and", "to", "a", "in", "that", "for", "on", "with",
    "as", "was", "at", "by", "from", "has", "its", "but", "new", "said",
]


def make_vocab(size: int = 1500) -> list[str]:
    vocab = list(_FUNCTION_WORDS)
    i = 0
    while len(vocab) < size:
        first = _SYLLABLES[i % len(_SYLLABLES)]
        second = _SYLLABLES[(i // len(_SYLLABLES)) % len(_SYLLABLES)]
        third = _SYLLABLES[(i // len(_SYLLABLES) ** 2) % len(_SYLLABLES)]
        vocab.append(first + second + third)
        i += 1
    return vocab[:size]


def zipf_weights(size: int, exponent: float = 1.05) -> list[float]:
    return [1.0 / (rank**exponent) for rank in range(1, size + 1)]


def has_adjacent_dup(words: list[str], min_run: int) -> bool:
    """Whether some run of ``min_run`` or more words is directly repeated, the
    question ``oracles.find_adjacent_dup`` answers. Both copies of such a run
    begin with the same ``min_run`` words, so only later starts that share a
    start's first ``min_run`` words are compared with it."""
    starts: dict[tuple[str, ...], list[int]] = {}
    for i in range(len(words) - min_run + 1):
        starts.setdefault(tuple(words[i : i + min_run]), []).append(i)
    for same in starts.values():
        for a, i in enumerate(same):
            for j in same[a + 1 :]:
                if j - i >= min_run and words[i:j] == words[j : 2 * j - i]:
                    return True
    return False


def make_article(rng: random.Random, n_words: int, vocab, weights, min_dup_run: int = 5) -> str:
    """Random article text guaranteed to carry no adjacent duplicated run of
    ``min_dup_run`` words or more (resampled in the rare case one appears)."""
    while True:
        words = rng.choices(vocab, weights=weights, k=n_words)
        if not has_adjacent_dup(words, min_dup_run):
            return " ".join(words)


@pytest.fixture(scope="session")
def vocab():
    return make_vocab()


@pytest.fixture(scope="session")
def vocab_weights(vocab):
    return zipf_weights(len(vocab))


@pytest.fixture
def rng():
    return random.Random(20240517)


class _ScriptedHandler(BaseHTTPRequestHandler):
    """Answers each GET with the next scripted step for its path (404 once the
    script is empty). A step is a ``(status, body)`` pair, ``"drop"`` (close
    the connection without a response) or ``"truncate"`` (promise 100 body
    bytes, send 5, close)."""

    def do_GET(self):
        server = self.server
        server.requests.append(self.path)
        queued = server.script.get(self.path)
        step = queued.pop(0) if queued else (404, b"")
        self.close_connection = True
        if step == "drop":
            return
        if step == "truncate":
            status, body, length = 200, b"short", 100
        else:
            (status, body), length = step, len(step[1])
        self.send_response(status)
        self.send_header("Content-Length", str(length))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server(monkeypatch):
    """A real HTTP server on 127.0.0.1 with an ephemeral port.

    Set ``server.script[path]`` to a list of steps (see ``_ScriptedHandler``);
    ``server.requests`` records every requested path in order, and
    ``server.base`` is the ``http://127.0.0.1:<port>`` prefix for templates.
    Proxy variables are cleared so the client talks to the server directly.
    """
    for name in ("http_proxy", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    server = ThreadingHTTPServer(("127.0.0.1", 0), _ScriptedHandler)
    server.script, server.requests = {}, []
    server.base = f"http://127.0.0.1:{server.server_address[1]}"
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    yield server
    server.shutdown()
    server.server_close()
    thread.join(timeout=10)
    assert not thread.is_alive()
