"""Mock inference server in its own process, with server-side counters.

    python3 perfbench/server.py --seed 7 --workspace DIR

Wraps the program's `MockInferenceServer` around a `MockBackend` that maps
``sft``, ``rlvr`` and the workspace's candidate path to fixed coefficient
pairs. Prints its URL as the first line of standard output, serves until
standard input closes, then prints one JSON line of counters: requests per
route, TCP connections accepted and 5xx replies sent.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
from collections import Counter
from pathlib import Path

from workloads import CANDIDATE_COEFFS, LANDSCAPE, QUERY_JITTER, SOURCE_ALIASES, SRC

sys.path.insert(0, str(SRC))

from tvfuse.evaluator import MockBackend, MockInferenceServer, quadratic_landscape  # noqa: E402
from tvfuse.pipeline import WorkspacePaths  # noqa: E402


class Counters:
    def __init__(self):
        self._lock = threading.Lock()
        self._counts: Counter[str] = Counter()

    def bump(self, key: str) -> None:
        with self._lock:
            self._counts[key] += 1

    def snapshot(self) -> dict:
        with self._lock:
            routes = {k[1:]: v for k, v in self._counts.items() if k.startswith("=")}
            return {
                "routes": routes,
                "requests": sum(routes.values()),
                "connections": self._counts["connections"],
                "server_errors": self._counts["server_errors"],
            }


def counting_server(server: MockInferenceServer) -> Counters:
    """Count routes, accepted connections and 5xx replies of `server`."""
    counters = Counters()
    # MockInferenceServer exposes no hook for counting, so this reaches into
    # its socketserver instance.
    httpd = server._server
    base_handler = httpd.RequestHandlerClass

    class CountingHandler(base_handler):
        def do_POST(self):
            counters.bump("=" + self.path)
            super().do_POST()

        def send_response(self, code, message=None):
            if 500 <= code < 600:
                counters.bump("server_errors")
            super().send_response(code, message)

    accept = httpd.get_request

    def get_request():
        connection = accept()
        counters.bump("connections")
        return connection

    httpd.RequestHandlerClass = CountingHandler
    httpd.get_request = get_request
    return counters


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workspace", required=True)
    args = parser.parse_args()

    candidate = str(WorkspacePaths(Path(args.workspace)).candidate)
    aliases = {name: tuple(c) for name, c in SOURCE_ALIASES.items()}
    aliases[candidate] = tuple(CANDIDATE_COEFFS)
    landscape = quadratic_landscape(
        peak=tuple(LANDSCAPE["peak"]),
        falloff=LANDSCAPE["falloff"],
        ppl_base=LANDSCAPE["ppl_base"],
        ppl_slope=LANDSCAPE["ppl_slope"],
    )
    server = MockInferenceServer(MockBackend(landscape, seed=args.seed, aliases=aliases, query_jitter=QUERY_JITTER))
    counters = counting_server(server)
    server.start()
    try:
        print(server.url, flush=True)
        sys.stdin.read()
    finally:
        server.stop()
    print(json.dumps(counters.snapshot()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
