"""The ``fleet_mixed`` workload: two closed-loop clients against a fleet.

``tools/serve.py fleet`` runs in one subprocess with one worker, two
in-memory shards and a SQLite job queue.  Two :class:`RedesignClient`
threads in this process submit a seeded stream that mixes never-seen
flows (cache misses: the worker simulates and writes to the shards) with
repeats of a popular set warmed during set-up (hits: profiles come back
over the wire).  Each client polls at a fixed period well below a plan's
latency, and with two clients the worker always has the next job queued.
"""

from __future__ import annotations

import json
import os
import queue
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
import urllib.request
from pathlib import Path

from perfbench import checks, measure, workload
from perfbench.inproc import Loop
from perfbench.tracer import layer_metrics

CLIENTS = 2
SETUPS = 3
#: Fixed status-poll period (seconds).
POLL_SECONDS = 0.02
PLAN_TIMEOUT = 60.0
#: Requests generated ahead of the timed phase (far more than a run completes).
STREAM_LENGTH = 240
#: Leading requests whose outcome goes into the work record.
RECORDED = 9
#: Traced runs alternate untraced and traced blocks this many times.
TRACE_BLOCKS = 6


class Fleet:
    """One ``tools/serve.py fleet`` subprocess and its addresses."""

    def __init__(self, workdir: Path, traced: bool) -> None:
        self.workdir = workdir
        workdir.mkdir(parents=True)
        script = "perfbench/fleet_server.py" if traced else "tools/serve.py"
        self.stderr = open(workdir / "server.log", "wb")
        self.process = subprocess.Popen(
            [
                sys.executable, script, "--log-level", "warning", "fleet",
                "--shards", "2", "--fleet-workers", "1",
                "--port", "0", "--shard-port-base", "0",
                "--queue", str(workdir / "jobs.sqlite"),
            ],
            cwd=Path.cwd(),
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=self.stderr,
            text=True,
            bufsize=1,
        )
        self.lines: queue.Queue[str | None] = queue.Queue()
        threading.Thread(target=self._read, name="fleet-stdout", daemon=True).start()
        self.url = self._expect("fleet front-end listening on ").split()[-1]
        self.shards = [self._expect("  shard ").split()[-1] for _ in range(2)]

    def _read(self) -> None:
        for line in self.process.stdout:
            self.lines.put(line.rstrip("\n"))
        self.lines.put(None)

    def _expect(self, prefix: str, timeout: float = 60.0) -> str:
        deadline = time.monotonic() + timeout
        while True:
            try:
                line = self.lines.get(timeout=max(0.01, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError(f"fleet server printed no {prefix.strip()!r} line") from None
            if line is None:
                raise RuntimeError(f"fleet server exited: see {self.workdir / 'server.log'}")
            if line.startswith(prefix):
                return line

    def command(self, text: str) -> str:
        """One line of the traced server's control protocol."""
        self.process.stdin.write(text + "\n")
        self.process.stdin.flush()
        return self._expect("ok" if text != "dump" else "trace ")

    def metrics(self) -> list[dict]:
        """``GET /metrics`` of the front-end and of every shard."""
        documents = []
        for url in [self.url, *self.shards]:
            with urllib.request.urlopen(f"{url}/metrics", timeout=30) as response:
                documents.append(json.load(response)["metrics"])
        return documents

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdin.close()
        self.stderr.close()


def _plan(client, flow, config: dict) -> dict:
    """Submit, poll at a fixed period, fetch and decode one plan.

    Returns the result document with the wall time, the client thread's
    CPU time, the number of status polls and the submit and fetch spans.
    """
    from repro.service.results import result_from_dict

    cpu = time.thread_time()
    start = time.perf_counter()
    job = client.submit(flow, config)
    submitted = time.perf_counter()
    polls = 0
    while True:
        status = client.status(job)
        polls += 1
        if status["status"] in ("done", "failed"):
            break
        if time.perf_counter() - start > PLAN_TIMEOUT:
            raise TimeoutError(f"plan {job} still {status['status']} after {PLAN_TIMEOUT}s")
        time.sleep(POLL_SECONDS)
    if status["status"] == "failed":
        raise RuntimeError(f"plan {job} failed: {status.get('error')}")
    fetching = time.perf_counter()
    document = client.result_raw(job)
    result = result_from_dict(document)
    end = time.perf_counter()
    return {
        "document": document,
        "result": result,
        "wall": end - start,
        "cpu": time.thread_time() - cpu,
        "polls": polls,
        "submit": submitted - start,
        "fetch": end - fetching,
    }


def _inspect(flow, outcome: dict, expected_digest: str | None) -> tuple[str | None, dict, str]:
    """Check one fetched plan: ``(problem, record entry, document digest)``.

    Also sets ``outcome["kb"]``, the document's size as compact JSON.
    """
    result = outcome["result"]
    text = checks.canonical_json(outcome["document"])
    outcome["kb"] = len(text) / 1024.0
    found = checks.digest(text)
    problem = checks.skyline_problem(result)
    if problem is None and expected_digest is not None and found != expected_digest:
        problem = "repeat returned a different result document"
    entry = {
        "flow": flow.name,
        "alternatives": len(result.alternatives) + result.discarded_by_constraints,
        "skyline": len(result.skyline_indices),
    }
    return problem, entry, found


def _shard_counts(documents: list[dict]) -> tuple[float, float]:
    """Total ``cache.hits`` and ``cache.misses`` over the shards' scrapes."""
    counters = [doc.get("counters", {}) for doc in documents[1:]]
    return (
        sum(c.get("cache.hits", 0) for c in counters),
        sum(c.get("cache.misses", 0) for c in counters),
    )


def _histogram(document: dict, name: str) -> tuple[float, float]:
    data = document.get("histograms", {}).get(name, {})
    return data.get("count", 0), data.get("sum", 0.0)


def _mean_delta(before: dict, after: dict, name: str) -> float:
    """Mean of the observations a histogram gained between two scrapes."""
    (count0, sum0), (count1, sum1) = _histogram(before, name), _histogram(after, name)
    return (sum1 - sum0) / (count1 - count0) if count1 > count0 else 0.0


def _requests(documents: list[dict]) -> float:
    return sum(_histogram(doc, "service.request_seconds")[0] for doc in documents)


def _server_trace(fleet: Fleet) -> dict:
    """The traced server's span totals and sharded-cache wire counters."""
    return json.loads(fleet.command("dump")[len("trace "):])


def _setup(workdir: Path, traced: bool, popular, config, loop: Loop):
    """Start the fleet and warm the popular set: ``(fleet, digests, record)``."""
    from repro.service import RedesignClient

    fleet = Fleet(workdir, traced)
    try:
        client = RedesignClient(fleet.url)
        client.health()
        digests, record = [], []
        for flow in popular:
            problem, entry, found = _inspect(flow, _plan(client, flow, config), None)
            if problem is not None:
                loop.fail(f"warm-up {flow.name}: {problem}")
            digests.append(found)
            record.append(entry)
        client.close()
        hits, misses = _shard_counts(fleet.metrics())
        record.append({"shard_hits": hits, "shard_misses": misses})
    except BaseException:
        fleet.stop()
        raise
    return fleet, digests, record


def fleet_mixed(seed: int, seconds: float, trace: bool) -> dict:
    from repro.service import RedesignClient

    loop = Loop(tail_pct=75)
    config = workload.fleet_problem(seed)
    popular = workload.fleet_popular(seed)
    base = Path.cwd() / ".perfbench_state" / f"fleet-{os.getpid()}"
    shutil.rmtree(base, ignore_errors=True)
    fresh = workload.fresh_flows(seed)
    stream = workload.fleet_stream(seed, len(popular))
    requests = []
    for _ in range(STREAM_LENGTH):
        kind, index = next(stream)
        requests.append((kind, index, popular[index] if kind == "hit" else next(fresh)))

    setups, warmups = [], []
    fleet = None
    try:
        for attempt in range(SETUPS):
            if fleet is not None:
                fleet.stop()
            start = time.perf_counter()
            fleet, digests, warm = _setup(base / f"setup{attempt}", trace, popular, config, loop)
            setups.append(time.perf_counter() - start)
            warmups.append(warm)
        # Result documents are compared within one server only: see
        # README.md on the last-digit differences between processes.
        if any(warm != warmups[0] for warm in warmups):
            loop.fail("the repeated warm-ups did different work")
        clients = [RedesignClient(fleet.url) for _ in range(CLIENTS)]

        lock = threading.Lock()
        next_request = [0]
        done: list[dict] = []
        record: list[dict] = []

        def block_now() -> int:
            progress = 1.0 - (deadline - time.perf_counter()) / seconds
            return min(TRACE_BLOCKS - 1, max(0, int(progress * TRACE_BLOCKS)))

        def drive(client) -> None:
            while True:
                with lock:
                    index = next_request[0]
                    if index >= len(requests) or (
                        index >= RECORDED and time.perf_counter() >= deadline
                    ):
                        return
                    next_request[0] += 1
                    loop.attempted += 1
                kind, popular_index, flow = requests[index]
                block = block_now()
                try:
                    outcome = _plan(client, flow, config)
                except Exception:
                    with lock:
                        loop.fail(f"request {index} ({flow.name}): {traceback.format_exc(limit=3)}")
                    continue
                # A plan that straddles a trace toggle counts for neither side.
                outcome["traced"] = (block % 2 == 1) if block == block_now() else None
                expected = digests[popular_index] if kind == "hit" else None
                problem, entry, _ = _inspect(flow, outcome, expected)
                del outcome["document"], outcome["result"]
                # One shard lookup per alternative plus the baseline.
                outcome["lookups"] = (kind, entry["alternatives"] + 1)
                with lock:
                    if problem is not None:
                        loop.fail(f"request {index} ({flow.name}): {problem}")
                        continue
                    done.append(outcome)
                    if index < RECORDED:
                        record.append({"index": index, "kind": kind, **entry})

        before = fleet.metrics()
        wire_before = _server_trace(fleet)["wire"] if trace else {}
        cpu_server = measure.proc_cpu_seconds(fleet.process.pid)
        started = time.perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(target=drive, args=(client,), name=f"fleet-client-{i}")
            for i, client in enumerate(clients)
        ]
        for thread in threads:
            thread.start()
        if trace:
            for block in range(TRACE_BLOCKS):
                # Even blocks untraced, odd blocks traced.
                fleet.command("on" if block % 2 else "off")
                time.sleep(max(0.0, started + seconds * (block + 1) / TRACE_BLOCKS - time.perf_counter()))
            fleet.command("off")
        for thread in threads:
            thread.join(PLAN_TIMEOUT + seconds)
        elapsed = time.perf_counter() - started
        cpu_server = measure.proc_cpu_seconds(fleet.process.pid) - cpu_server
        after = fleet.metrics()
        server_trace = _server_trace(fleet) if trace else None
        peak_rss = measure.proc_peak_rss_mb(fleet.process.pid)
        for client in clients:
            client.close()
    finally:
        if fleet is not None:
            fleet.stop()
        shutil.rmtree(base, ignore_errors=True)

    if not done:
        raise RuntimeError("no fleet plan completed")
    record.sort(key=lambda entry: entry["index"])
    # The popular set was warmed during set-up, so repeats must hit on
    # every lookup and never-seen flows must miss on every lookup.
    expected = tuple(
        sum(count for kind, count in (item["lookups"] for item in done) if kind == want)
        for want in ("hit", "miss")
    )
    counted = tuple(a - b for a, b in zip(_shard_counts(after), _shard_counts(before)))
    if counted != expected:
        loop.fail(f"shard hits/misses {counted} != {expected} expected from the request mix")
    loop.walls = [item["wall"] for item in done]
    # Server CPU from /proc plus the clients' own CPU inside their plans.
    loop.cpus = [cpu_server / len(done) + item["cpu"] for item in done]
    lines = [loop.describe(), f"{len(done)} plans in {elapsed:.2f}s by {CLIENTS} clients"]
    # Which path the end-to-end figures weigh: repeats (shard hits over the
    # wire) against never-seen flows (simulate and write to the shards).
    for want in ("hit", "miss"):
        walls = [item["wall"] for item in done if item["lookups"][0] == want]
        if walls:
            lines.append(
                f"{want} plans: {len(walls)}, {sum(walls) / sum(loop.walls):.1%} of plan wall time, "
                f"median {statistics.median(walls) * 1000.0:.1f} ms"
            )
    out = {"loop": loop, "record": {"warm_up": warmups[-1], "requests": record}, "lines": lines}
    if not trace:
        end_to_end = loop.end_to_end(statistics.median(setups), peak_rss)
        end_to_end["plans_per_s"] = len(done) / elapsed
        out["end_to_end"] = end_to_end
        return out

    metrics, missing = layer_metrics(server_trace["spans"], expect_simulation=True)
    for layer in missing:
        lines.append(f"MISSING layer {layer}: its hook is gone or was never called")

    def mean(key: str) -> float:
        return sum(item[key] for item in done) / len(done)

    queue_wait = _mean_delta(before[0], after[0], "queue.enqueue_to_lease_seconds")
    worker_plan = _mean_delta(before[0], after[0], "queue.lease_to_ack_seconds")
    # Each client's transport counts the client<->front-end wire bytes.
    transports = [client._client for client in clients]
    wire_bytes = sum(t.bytes_sent + t.bytes_received for t in transports) + sum(
        server_trace["wire"].get(name, 0) - wire_before.get(name, 0)
        for name in ("bytes_sent", "bytes_received")
    )
    traced = [item["wall"] for item in done if item["traced"] is True]
    untraced = [item["wall"] for item in done if item["traced"] is False]
    metrics.update(
        {
            "client.submit_ms": mean("submit") * 1000.0,
            "client.polls_per_plan": mean("polls"),
            "client.result_ms": mean("fetch") * 1000.0,
            "client.result_kb": mean("kb"),
            "queue.wait_ms": queue_wait * 1000.0,
            "worker.plan_ms": worker_plan * 1000.0,
            "shard.hit_ratio": counted[0] / sum(counted) if sum(counted) else None,
            "wire.requests_per_plan": (_requests(after) - _requests(before)) / len(done),
            "wire.kb_per_plan": wire_bytes / 1024.0 / len(done),
            # The named spans of a fleet plan: submit, queue wait, worker, fetch.
            "trace.coverage": (mean("submit") + queue_wait + worker_plan + mean("fetch"))
            / mean("wall"),
            "trace.overhead": (
                statistics.median(traced) / statistics.median(untraced) if traced and untraced else None
            ),
        }
    )
    lines.append(
        f"trace: {len(traced)} traced / {len(untraced)} untraced plans; server spans cover "
        f"{server_trace['spans']['layers'].get('plan', [0])[0]} worker plans"
    )
    out["layers"] = metrics
    return out
