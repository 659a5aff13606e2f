"""``tools/serve.py`` with the benchmark's layer hooks, for traced fleet runs.

Usage (from the repository root; the arguments are those of
``tools/serve.py``)::

    python3 perfbench/fleet_server.py fleet --shards 2 --fleet-workers 1 ...

The server runs unchanged; this wrapper only adds the same hooks the
in-process workloads use, around the worker's planner and its sharded
cache tier, and a line protocol on standard input:

* ``on`` / ``off`` install or remove the hooks (answers ``ok``);
* ``dump`` answers ``trace <json>``: the span totals plus the wire
  counters of every sharded cache the server built.
"""

from __future__ import annotations

import json
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path.cwd()


def main() -> int:
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import repro.cache

    from perfbench.tracer import Tracer, planner_hooks

    tracer = Tracer(planner_hooks("repro.fleet.sharded", "ShardedProfileCache"))
    caches = []
    build = repro.cache.build_profile_cache

    def build_and_keep(*args, **kwargs):
        cache = build(*args, **kwargs)
        caches.append(cache)
        return cache

    # tools/serve.py imports build_profile_cache from repro.cache when
    # the fleet starts, so this is the binding its workers get.
    repro.cache.build_profile_cache = build_and_keep
    lock = threading.Lock()

    def control() -> None:
        for line in sys.stdin:
            command = line.strip()
            with lock:
                if command == "on":
                    tracer.install()
                    reply = "ok"
                elif command == "off":
                    tracer.uninstall()
                    reply = "ok"
                elif command == "dump":
                    wire = {}
                    for cache in caches:
                        for name, value in cache.wire_stats().items():
                            wire[name] = wire.get(name, 0) + value
                    reply = "trace " + json.dumps({"spans": tracer.snapshot(), "wire": wire})
                else:
                    reply = f"error unknown command {command!r}"
                print(reply, flush=True)

    threading.Thread(target=control, name="perfbench-control", daemon=True).start()
    serve = runpy.run_path(str(ROOT / "tools" / "serve.py"), run_name="perfbench_serve")
    return serve["main"](sys.argv[1:])


if __name__ == "__main__":
    raise SystemExit(main())
