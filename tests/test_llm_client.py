import http.server
import json
import os
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import vecport
from vecport import llm_client
from vecport.agents import ChatMessage
from vecport.cli import main
from vecport.corpus import bundled_corpus_dir
from vecport.errors import ConfigurationError, LlmError, ReplayExhaustedError
from vecport.executors import MockExecutor
from vecport.llm_client import MAX_TOKENS, RemoteClient, ReplayClient
from vecport.orchestrator import Budgets, TaskDeps, run_task

MSGS = [ChatMessage("user", "hello")]


def test_replay_list_returns_in_order():
    client = ReplayClient(["one", "two"])
    assert client.complete(MSGS) == "one"
    assert client.complete(MSGS) == "two"
    assert client.calls_made == 2


def test_replay_exhaustion_raises():
    client = ReplayClient(["only"])
    client.complete(MSGS)
    with pytest.raises(ReplayExhaustedError):
        client.complete(MSGS)


def test_replay_session_on_list_form_is_shared():
    client = ReplayClient(["a", "b"])
    s1 = client.session("case1")
    s2 = client.session("case2")
    assert s1.complete(MSGS) == "a"
    assert s2.complete(MSGS) == "b"


def test_replay_per_case_cursors_are_independent():
    client = ReplayClient({"x": ["x1", "x2"], "y": ["y1"]})
    sx = client.session("x")
    sy = client.session("y")
    assert sy.complete(MSGS) == "y1"
    assert sx.complete(MSGS) == "x1"
    assert sx.complete(MSGS) == "x2"
    assert client.calls_made == 3


def test_replay_per_case_requires_session():
    client = ReplayClient({"x": ["x1"]})
    with pytest.raises(ConfigurationError):
        client.complete(MSGS)
    with pytest.raises(ConfigurationError):
        client.session("unknown-case")


def test_replay_from_file_forms(tmp_path):
    list_file = tmp_path / "list.json"
    list_file.write_text(json.dumps(["r1"]))
    assert not ReplayClient.from_file(list_file).per_case

    keyed_file = tmp_path / "keyed.json"
    keyed_file.write_text(json.dumps({"case": ["r1"]}))
    assert ReplayClient.from_file(keyed_file).per_case

    # A case may be called "responses": its entry is one sequence among the others.
    responses_case = tmp_path / "responses_case.json"
    responses_case.write_text(json.dumps({"responses": ["a"], "vec_add": ["b"]}))
    client = ReplayClient.from_file(responses_case)
    assert client.per_case
    assert client.session("vec_add").complete(MSGS) == "b"
    assert client.session("responses").complete(MSGS) == "a"

    bad = tmp_path / "bad.json"
    bad.write_text("not json")
    with pytest.raises(ConfigurationError):
        ReplayClient.from_file(bad)


@pytest.mark.parametrize("data, message", [
    (["r1", 2], "replay list must contain strings"),
    ({"case": "r1"}, "replay entry 'case' must be a list of strings"),
    (7, "replay file must be a JSON list or object"),
], ids=["list_of_non_strings", "entry_not_a_list", "number"])
def test_replay_from_file_rejects_bad_shapes(tmp_path, data, message):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ConfigurationError, match=message):
        ReplayClient.from_file(path)


# --- remote client, against a loopback HTTP server ---------------------------

PROXY_VARS = ("http_proxy", "HTTP_PROXY", "https_proxy", "HTTPS_PROXY",
              "all_proxy", "ALL_PROXY", "no_proxy", "NO_PROXY")


def _completion(content):
    return json.dumps({"choices": [{"message": {"content": content}}]}).encode()


class _Handler(http.server.BaseHTTPRequestHandler):
    """Records each POST and answers with the next scripted (status, body, delay)."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.path, self.headers, json.loads(body)))
        status, reply, delay = self.server.replies.pop(0)
        time.sleep(delay)
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(reply)))
        self.end_headers()
        self.wfile.write(reply)

    def log_message(self, *args):
        pass


class _Server(http.server.ThreadingHTTPServer):
    def handle_error(self, request, client_address):
        pass  # a handler writing to a client that timed out


@pytest.fixture(autouse=True)
def no_backoff(monkeypatch):
    monkeypatch.setattr(llm_client, "BACKOFF_BASE_S", 0.0)


@pytest.fixture
def no_proxy_env(monkeypatch):
    for var in PROXY_VARS + ("VECPORT_API_KEY",):
        monkeypatch.delenv(var, raising=False)


@pytest.fixture
def server(no_proxy_env):
    srv = _Server(("127.0.0.1", 0), _Handler)
    srv.seen, srv.replies = [], []
    thread = threading.Thread(target=srv.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    yield srv
    srv.shutdown()
    srv.server_close()


def _client(port):
    return RemoteClient(endpoint=f"http://127.0.0.1:{port}/v1/chat", model="m")


def _reply(srv, status, body=b"", delay=0.0):
    srv.replies.append((status, body, delay))


def test_remote_success_first_try(server):
    _reply(server, 200, _completion("hi there"))
    client = _client(server.server_port)
    assert client.complete(MSGS, temperature=0.2) == "hi there"
    ((path, headers, payload),) = server.seen
    assert path == "/v1/chat"
    assert headers["Content-Type"] == "application/json"
    assert "Authorization" not in headers
    assert payload == {"model": "m", "messages": [{"role": "user", "content": "hello"}],
                       "temperature": 0.2, "max_tokens": MAX_TOKENS}


def test_remote_retries_on_server_error_then_succeeds(server):
    _reply(server, 503)
    _reply(server, 200, _completion("ok"))
    assert _client(server.server_port).complete(MSGS) == "ok"
    assert len(server.seen) == 2


def test_remote_retries_exhausted(no_proxy_env):
    with socket.socket() as sock:  # a port nothing listens on
        sock.bind(("127.0.0.1", 0))
        port = sock.getsockname()[1]
    with pytest.raises(LlmError, match="after 3 attempts") as excinfo:
        _client(port).complete(MSGS)
    assert isinstance(excinfo.value.__cause__, OSError)


def test_remote_non_retryable_error_raises_immediately(server):
    _reply(server, 401, b"bad key")
    _reply(server, 201, _completion("x"))  # a 2xx other than 200 is an error too
    client = _client(server.server_port)
    with pytest.raises(LlmError, match="HTTP 401: bad key"):
        client.complete(MSGS)
    assert len(server.seen) == 1
    with pytest.raises(LlmError, match="HTTP 201"):
        client.complete(MSGS)
    assert len(server.seen) == 2


def test_remote_malformed_payload(server):
    _reply(server, 200, b'{"nope": true}')
    _reply(server, 200, b"not json")
    client = _client(server.server_port)
    for _ in range(2):
        with pytest.raises(LlmError, match="malformed"):
            client.complete(MSGS)
    assert len(server.seen) == 2


def test_remote_null_content_is_a_blank_reply(server):
    _reply(server, 200, _completion(None))
    assert _client(server.server_port).complete(MSGS) == ""


@pytest.mark.parametrize("content", [7, ["a"], {"text": "a"}, True],
                         ids=["int", "list", "object", "bool"])
def test_remote_non_string_content_is_malformed(server, content):
    _reply(server, 200, _completion(content))
    with pytest.raises(LlmError, match="^malformed completion response: content is a "):
        _client(server.server_port).complete(MSGS)
    assert len(server.seen) == 1


def test_null_content_is_a_failed_attempt_not_a_crash(server, tmp_path, vec_add_case):
    _reply(server, 200, _completion(None))
    deps = TaskDeps(client=_client(server.server_port), executor=MockExecutor(),
                    log_dir=tmp_path / "attempts")
    outcome = run_task(vec_add_case, Budgets(translate_max=1, optimize_max=1), deps)
    assert not outcome.passed
    assert [a.note for a in outcome.all_attempts] == ["no code emitted"]


def test_remote_read_timeout_is_retried(server, monkeypatch):
    monkeypatch.setattr(llm_client, "TIMEOUT_S", 0.1)
    for _ in range(3):
        _reply(server, 200, _completion("late"), delay=0.5)
    with pytest.raises(LlmError, match="after 3 attempts.*timed out"):
        _client(server.server_port).complete(MSGS)


def test_remote_api_key_via_environment(server, monkeypatch):
    _reply(server, 200, _completion("x"))
    _reply(server, 200, _completion("x"))
    client = _client(server.server_port)
    client.complete(MSGS)
    monkeypatch.setenv("VECPORT_API_KEY", "sk-secret")
    client.complete(MSGS)
    (_, without_key, _), (_, with_key, _) = server.seen
    assert "Authorization" not in without_key
    assert with_key["Authorization"] == "Bearer sk-secret"


def test_translate_asks_the_endpoint(server, tmp_path):
    native = (bundled_corpus_dir() / "vec_add" / "native.c").read_text()
    for _ in range(2):  # the translation, then one optimize round
        _reply(server, 200, _completion(f"```c\n{native}```"))
    out = tmp_path / "out"
    assert main([
        "translate", "--endpoint", f"http://127.0.0.1:{server.server_port}/v1/chat",
        "--no-exec", "--case", "vec_add", "--translate-max", "1", "--optimize-max", "1",
        "--out", str(out),
    ]) == 0
    assert json.loads((out / "outcomes" / "vec_add.json").read_text())["passed"]
    assert [payload["max_tokens"] for _, _, payload in server.seen] == [MAX_TOKENS] * 2


def test_remote_session_is_shared():
    client = RemoteClient(endpoint="http://e", model="m")
    assert client.session("anything") is client


def test_cli_import_loads_only_the_standard_library():
    """Replay, analyze and report runs never pay for an HTTP stack."""
    src = str(Path(vecport.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    code = ("import sys; before = set(sys.modules); import vecport.cli; "
            "added = {m.split('.')[0] for m in set(sys.modules) - before}; "
            "print(sorted(added - sys.stdlib_module_names - {'vecport'}), "
            "'urllib.request' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    assert proc.stdout.split() == ["[]", "False"]
