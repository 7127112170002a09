"""The ``serve`` workload: a real ``repro serve`` under a closed loop.

One client replays a request sequence that is a pure function of the
workload seed.  It sends its next request only after the previous one
completed (POST, poll the job record, fetch the result), so a slower
server receives less load.  One client, not several: on a two-core host
a second one would time the scheduler's queueing, not the server.  The
mix:

* ~50% ``run`` jobs on ``beam_steering``/``cslc`` with fresh seeds —
  misses that write the journal, the disk tier and the result file;
* ~30% repeats of earlier requests — dedup reads;
* ~20% four-cell ``sweep`` jobs with fresh seeds.

Every result is checked against ``repro run ... --json`` for the same
cell, computed afterwards by ``child.py oracle`` through the CLI code.

The round trip is reported per request class (a dedup read, a ``run``
of one kernel/machine pair, a ``sweep``): ``latency_ms`` is the mean
round trip of the run's mix with each class at its median.  The mix is
multimodal, so its plain median sits on a boundary between classes and
jumps with it; the class medians do not.
"""

from __future__ import annotations

import http.client
import json
import random
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import harness
import layers
from harness import Ledger, Scratch

KERNELS = ("beam_steering", "cslc")
MACHINES = ("ppc", "altivec", "viram", "imagine", "raw")
SWEEP_CELLS = 4
#: p95 needs ten samples beyond it.
MIN_REQUESTS = 200
#: Boots sampled per run for ``setup_s`` (the last one serves the load).
SETUP_SAMPLES = 5
#: Processes re-computing the served cells after the load (untimed).
ORACLE_PROCS = 2
POLL_S = 0.005
HTTP_TIMEOUT_S = 30.0
#: A server still running this long after SIGTERM is killed.
DRAIN_TIMEOUT_S = 30.0
#: A server failing this many requests ends the load early.
MAX_ERRORS = 20


def request_sequence(seed: int):
    """Endless deterministic request stream for ``seed``.

    Every block of ten requests holds exactly 5 fresh ``run`` jobs, 3
    repeats and 2 ``sweep`` jobs, in a seeded order, and fresh cells
    deal every kernel/machine pair once per ten cells in a seeded order,
    so the mix does not drift with the seed.
    """
    rng = random.Random(seed)
    history: List[Dict[str, Any]] = []
    pairs: List[Tuple[str, str]] = []
    fresh = 0

    def cell() -> Dict[str, Any]:
        nonlocal fresh
        fresh += 1
        if not pairs:
            pairs.extend((k, m) for k in KERNELS for m in MACHINES)
            rng.shuffle(pairs)
        kernel, machine = pairs.pop()
        return {"kernel": kernel, "machine": machine,
                "seed": seed * 100000 + fresh}

    while True:
        block = ["run"] * 5 + ["repeat"] * 3 + ["sweep"] * 2
        rng.shuffle(block)
        for kind in block:
            if kind == "repeat" and history:
                yield rng.choice(history)
                continue
            if kind == "sweep":
                body = {"kind": "sweep",
                        "params": {"cells": [cell() for _ in range(SWEEP_CELLS)]}}
            else:
                body = {"kind": "run", "params": cell()}
            history.append(body)
            yield body


def _http(url: str, method: str, path: str,
          body: Optional[Dict[str, Any]] = None) -> Tuple[int, bytes]:
    host, port = url.split("//", 1)[1].rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=HTTP_TIMEOUT_S)
    try:
        data = json.dumps(body).encode() if body is not None else None
        headers = {"Content-Type": "application/json"} if data else {}
        conn.request(method, path, body=data, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


class Server:
    """One ``repro serve --workers 1`` process with fresh state dirs."""

    def __init__(self, scratch: Scratch, spans: Optional[Path] = None) -> None:
        self.base = scratch.fresh("serve")
        ready = self.base / "ready.json"
        argv = harness.repro_argv(
            "serve", "--port", "0", "--workers", "1", "--ready-file", str(ready)
        )
        if spans is not None:
            argv = harness.traced_argv(spans, *argv[1:])
        self.argv = argv
        self.out = self.base / "server"
        self.started = time.perf_counter()
        self.popen = harness.spawn(
            argv, harness.program_env(self.base), self.base, self.out
        )
        self.url = self._wait_ready(ready)
        self.setup_s = time.perf_counter() - self.started

    def _wait_ready(self, ready: Path) -> str:
        deadline = self.started + 60.0
        url = None
        while time.perf_counter() < deadline:
            if self.popen.poll() is not None:
                raise harness.BenchError(
                    f"repro serve exited early ({self.popen.returncode}): "
                    + self.out.with_suffix(".err").read_text()[-2000:]
                )
            if url is None and ready.is_file():
                try:
                    url = json.loads(ready.read_text())["url"]
                except (ValueError, KeyError):
                    url = None
            if url is not None:
                try:
                    status, _ = _http(url, "GET", "/healthz")
                except OSError:
                    status = 0
                if status == 200:
                    return url
            time.sleep(0.005)
        raise harness.BenchError("repro serve never became healthy")

    def stop(self) -> harness.Proc:
        """SIGTERM (graceful drain) and reap with the server's own RSS."""
        self.popen.send_signal(signal.SIGTERM)
        return harness.reap(
            self.popen, self.out, self.started, DRAIN_TIMEOUT_S, self.argv
        )


class Client:
    """Closed-loop load from one client: the next request is sent when
    the previous one has finished."""

    def __init__(self, url: str, seed: int) -> None:
        self.url = url
        self.stream = request_sequence(seed)
        self.records: List[Dict[str, Any]] = []
        self.errors = 0

    def round_trip(self, body: Dict[str, Any]) -> Dict[str, Any]:
        started = time.perf_counter()
        status, raw = _http(self.url, "POST", "/v1/jobs", body)
        submitted = time.perf_counter()
        rec: Dict[str, Any] = {
            "body": body,
            "class": _class(body, status),
            "submit_status": status,
            "submit_s": submitted - started,
        }
        if status not in (200, 202):
            rec["error"] = f"POST /v1/jobs -> {status}: {raw[:300]!r}"
            return rec
        job = json.loads(raw)
        jid = job["job"]
        while job.get("state") not in ("DONE", "FAILED"):
            time.sleep(POLL_S)
            status, raw = _http(self.url, "GET", f"/v1/jobs/{jid}")
            if status != 200:
                rec["error"] = f"GET job -> {status}"
                return rec
            job = json.loads(raw)
        if job["state"] != "DONE":
            rec["error"] = f"job {jid} {job['state']}: {job.get('error')}"
            return rec
        status, result = _http(self.url, "GET", f"/v1/jobs/{jid}/result")
        if status != 200:
            rec["error"] = f"GET result -> {status}"
            return rec
        rec.update(
            round_trip_s=time.perf_counter() - started, job=job, result=result
        )
        return rec

    def run(self, seconds: float, min_requests: int) -> float:
        """Drive the load; returns the wall time of the loop."""
        started = time.perf_counter()
        while (
            time.perf_counter() - started < seconds
            or len(self.records) < min_requests
        ) and self.errors <= MAX_ERRORS:
            body = next(self.stream)
            try:
                rec = self.round_trip(body)
            except (OSError, ValueError, KeyError,
                    http.client.HTTPException) as exc:
                rec = {"body": body, "error": repr(exc)}
            self.records.append(rec)
            self.errors += "error" in rec
        return time.perf_counter() - started


def _class(body: Dict[str, Any], status: int) -> str:
    """The request class a round trip is summarised under."""
    if status == 200:
        return "dedup"
    if body["kind"] == "run":
        return f"run:{body['params']['kernel']}.{body['params']['machine']}"
    return body["kind"]


def mix_latency(records: List[Dict[str, Any]]) -> float:
    """Mean round trip of the run's request mix, each request counted at
    its class's median (seconds)."""
    classes: Dict[str, List[float]] = {}
    for rec in records:
        if "round_trip_s" in rec:
            classes.setdefault(rec["class"], []).append(rec["round_trip_s"])
    total = sum(len(trips) for trips in classes.values())
    return sum(
        len(trips) * harness.median(trips) for trips in classes.values()
    ) / total


def _cells(body: Dict[str, Any]) -> List[Dict[str, Any]]:
    if body["kind"] == "run":
        return [body["params"]]
    return list(body["params"]["cells"])


def _key(cell: Dict[str, Any]) -> str:
    return f"{cell['kernel']}/{cell['machine']}/{cell['seed']}"


def verify(records: List[Dict[str, Any]], scratch: Scratch,
           ledger: Ledger) -> None:
    """Check every completed request against the CLI's output."""
    cells = [c for rec in records if "result" in rec for c in _cells(rec["body"])]
    oracles = []
    for n in range(ORACLE_PROCS):
        base = scratch.fresh("oracle")
        (base / "cells.json").write_text(json.dumps(cells[n::ORACLE_PROCS]))
        argv = [sys.executable, str(harness.CHILD), "oracle",
                str(base / "cells.json"), str(base / "expected.json")]
        out = base / "oracle"
        started = time.perf_counter()
        popen = harness.spawn(argv, harness.program_env(base), base, out)
        oracles.append((popen, out, started, argv, base))
    expected: Dict[str, Optional[str]] = {}
    for popen, out, started, argv, base in oracles:
        proc = harness.reap(popen, out, started, argv=argv)
        if ledger.check(proc.code == 0, "serve oracle", proc):
            expected.update(json.loads((base / "expected.json").read_text()))
    for rec in records:
        if "result" not in rec:
            ledger.check(False, "serve request", detail=rec.get("error", "?"))
            continue
        body = rec["body"]
        if body["kind"] == "run":
            ok = rec["result"].decode() == expected.get(_key(body["params"]))
        else:
            try:
                got = json.loads(rec["result"])
                want = [json.loads(expected[_key(c)]) for c in _cells(body)]
                ok = got == want
            except (ValueError, KeyError, TypeError):
                ok = False
        ledger.check(
            ok, f"serve {body['kind']}",
            detail="" if ok else
            f"result differs from the CLI: {json.dumps(body)}\n"
            f"{rec['result'][:2000].decode('utf-8', 'replace')}",
        )


def _service_metrics(records: List[Dict[str, Any]],
                     wall: float) -> Dict[str, float]:
    """Client-side ``service.*`` per-layer metrics from job records and
    the wall time of the load."""
    done = [r for r in records if "round_trip_s" in r and "job" in r]
    admitted = [r for r in done if r["submit_status"] == 202]
    posts = [r for r in records if "submit_status" in r]
    out = {
        "service.submit_ms": 1000 * harness.median(
            [r["submit_s"] for r in posts]
        ) if posts else 0.0,
        "service.dedup_ratio": (
            sum(r["submit_status"] == 200 for r in posts) / len(posts)
            if posts else 0.0
        ),
        "service.shed": float(
            sum(r["submit_status"] in (429, 503) for r in posts)
        ),
        "service.round_trip_p95_ms": 1000 * harness.percentile(
            [r["round_trip_s"] for r in done], 95
        ) if done else 0.0,
        "service.jobs_per_s": len(done) / wall,
    }
    if admitted:
        jobs = [r["job"] for r in admitted]
        out["service.queue_wait_ms"] = 1000 * harness.median(
            [j["started_at"] - j["submitted_at"] for j in jobs]
        )
        out["service.exec_ms"] = 1000 * harness.median(
            [j["finished_at"] - j["started_at"] for j in jobs]
        )
        out["service.client_overhead_ms"] = 1000 * harness.median(
            [
                r["round_trip_s"]
                - (r["job"]["finished_at"] - r["job"]["submitted_at"])
                for r in admitted
            ]
        )
    return out


def _drive(server: Server, seed: int, seconds: float, min_requests: int,
           ledger: Ledger):
    """Load ``server`` with the seed's request stream, then drain it."""
    client = Client(server.url, seed)
    try:
        wall = client.run(seconds, min_requests)
    finally:
        proc = server.stop()
    ledger.check(
        proc.code == 0, "serve drain", proc, "server did not drain cleanly"
    )
    return client.records, wall, proc


def _boot_sample(scratch: Scratch, ledger: Ledger) -> Server:
    """Boot a server for ``setup_s`` alone and stop it again."""
    server = Server(scratch)
    proc = server.stop()
    ledger.check(proc.code == 0, "serve boot", proc)
    return server


def run_serve(seed: int, seconds: float, trace: bool, scratch: Scratch,
              ledger: Ledger, min_requests: int = MIN_REQUESTS
              ) -> Dict[str, Any]:
    if trace:
        return _run_traced(seed, seconds, scratch, ledger, min_requests)
    # Boots before and after the load, so that ``setup_s`` sees the host
    # over the whole run; the last boot before the load serves it.
    before = SETUP_SAMPLES // 2
    boots = [_boot_sample(scratch, ledger) for _ in range(before)]
    boots.append(Server(scratch))
    records, wall, proc = _drive(
        boots[-1], seed, seconds, min_requests, ledger
    )
    boots += [
        _boot_sample(scratch, ledger)
        for _ in range(SETUP_SAMPLES - len(boots))
    ]
    # The (untimed) Table 3 probe overlaps the verification.
    probe = harness.Table3Probe(scratch)
    verify(records, scratch, ledger)
    table3 = probe.result(ledger)
    trips = [r["round_trip_s"] for r in records if "round_trip_s" in r]
    if not trips:
        return {"ok": False}
    p50_ms = 1000 * harness.median(trips)
    return {
        "ok": True,
        "setup_s": harness.median([s.setup_s for s in boots]),
        "latency_ms": 1000 * mix_latency(records),
        "rss_peak_mb": proc.maxrss_mb,
        "table3_log_error": table3,
        "named": {
            "serve_p50_ms": p50_ms,
            "serve_p95_ms": 1000 * harness.percentile(trips, 95),
            "serve_jobs_per_s": len(trips) / wall,
        },
        "detail": {
            "requests": len(records),
            "setup_seconds": [s.setup_s for s in boots],
            "completed": len(trips),
            "load_wall_s": wall,
            "round_trip_seconds": trips,
            "kinds": {
                kind: sum(r["body"]["kind"] == kind for r in records)
                for kind in ("run", "sweep")
            },
            **_service_metrics(records, wall),
        },
    }


def _run_traced(seed: int, seconds: float, scratch: Scratch, ledger: Ledger,
                min_requests: int) -> Dict[str, Any]:
    """Half the time untraced, half against a traced server, both with
    the same request stream; client-side ``service.*`` metrics come from
    the untraced half."""
    half = max(min_requests // 2, 1)
    plain, plain_wall, _ = _drive(
        Server(scratch), seed, seconds / 2, half, ledger
    )
    verify(plain, scratch, ledger)
    spans = scratch.fresh("spans") / "server-spans.json"
    traced, _, _ = _drive(
        Server(scratch, spans), seed, seconds / 2, half, ledger
    )
    verify(traced, scratch, ledger)
    plain_trips = [r["round_trip_s"] for r in plain if "round_trip_s" in r]
    traced_trips = [r["round_trip_s"] for r in traced if "round_trip_s" in r]
    if not plain_trips or not traced_trips or not spans.is_file():
        return {"ok": False}
    return {
        "ok": True,
        "per_layer": layers.per_layer_metrics(
            [[layers.load(spans)]],
            traced_walls=traced_trips,
            plain_walls=plain_trips,
            service=_service_metrics(plain, plain_wall),
        ),
    }
