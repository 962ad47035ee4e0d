"""``serve_tcp``: the path a job wrapper takes, through a real daemon."""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional

from harness import (
    REPO_SEED, SRC, check_ack_set, clock, digest, generator_cap,
    percentile, proc_cpu_s, proc_status_mb, proc_wchar,
)
from workload import (
    ZONE_ALPHA, ZONE_CAPACITY, Workload, cache_counts,
    cache_layer_times, parse_prometheus, scaled, scrape_sums,
)

from repro.core.cache import LandlordCache
from repro.obs import SpanRecorder
from repro.service import LandlordClient, ServiceError

STAGES = ("admission", "queue", "fsync", "apply", "ack")


class ServeTcp(Workload):
    """A real daemon on loopback TCP under a closed loop of blocking clients."""

    name = "serve_tcp"
    lap_size = 64   # submissions per lap at scale 1: one checkpoint period
    warmup = 40
    max_laps = 75   # the stream never repeats a spec; this bounds it

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.daemon: Optional[subprocess.Popen] = None
        self.clients: List[LandlordClient] = []
        self.threads = generator_cap()
        self.acks: List[tuple] = []   # (request_index, spec position)
        self.rtts: List[float] = []   # every timed submission, seconds

    def sizes(self) -> Dict[str, int]:
        lap = scaled(self.lap_size, self.scale, floor=2 * self.threads)
        lap -= lap % self.threads
        warmup = scaled(self.warmup, self.scale, floor=self.threads)
        return {"unique_specs": warmup + lap * self.max_laps, "repeats": 1,
                "lap_submissions": lap, "warmup_submissions": warmup,
                "generator_threads": self.threads,
                "nproc": os.cpu_count() or 1}

    def prepare(self) -> None:
        sizes = self.sizes()
        self.lap_n, self.warm_n = sizes["lap_submissions"], sizes["warmup_submissions"]
        self.acks = []
        self.bodies = [sorted(spec) for spec in self.specs]
        self.image = self.work.fresh("serve")
        port_file = self.image / "port"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        t0 = clock()
        with open(self.image / "daemon.err", "w") as err:
            self.daemon = subprocess.Popen(
                [sys.executable, "-m", "repro", "serve", "--scale", "paper",
                 "--alpha", str(ZONE_ALPHA), "--seed", str(REPO_SEED),
                 "--state", str(self.image / "state.json"),
                 "--port-file", str(port_file)],
                env=env, cwd=self.image, stdout=subprocess.DEVNULL, stderr=err)
        while not port_file.exists():
            if self.daemon.poll() is not None or clock() - t0 > 60:
                raise RuntimeError(
                    "daemon did not start: "
                    + (self.image / "daemon.err").read_text()[-2000:])
            time.sleep(0.005)
        self.layer["service.daemon.start_s"] = clock() - t0
        url = f"http://127.0.0.1:{int(port_file.read_text())}"
        self.clients = [LandlordClient(url) for _ in range(self.threads)]
        for i in range(self.warm_n):
            reply = self.clients[i % self.threads].submit(self.bodies[i])
            self.acks.append((reply["request_index"], i))

    def teardown(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []
        if self.daemon is not None:
            if self.daemon.poll() is None:
                self.daemon.kill()
            self.daemon.wait()
            self.daemon = None
        super().teardown()

    def observe_daemon(self) -> dict:
        pid = self.daemon.pid
        return {"at": clock(), "cpu_s": proc_cpu_s(pid),
                "wchar": proc_wchar(pid), "generator_cpu_s": proc_cpu_s(),
                "metrics": self.clients[0].metrics()}

    def begin(self) -> None:
        self.before = self.observe_daemon()

    def more_work(self) -> bool:
        return len(self.laps) < self.max_laps

    def lap(self, index: int, traced: bool) -> dict:
        base = self.warm_n + index * self.lap_n
        recorder = SpanRecorder(limit=self.lap_n) if traced else None
        results: List[List[tuple]] = [[] for _ in self.clients]

        def generate(k: int) -> None:
            client = self.clients[k]
            client.spans = recorder
            for position in range(base + k, base + self.lap_n, self.threads):
                t0 = clock()
                try:
                    reply = client.submit(self.bodies[position], retries=0)
                    outcome = (reply["request_index"], reply["trace_id"])
                except ServiceError as exc:
                    outcome = (None, str(exc))
                results[k].append((t0, clock(), position) + outcome)

        workers = [threading.Thread(target=generate, args=(k,))
                   for k in range(self.threads)]
        t0, cpu = clock(), self.cpu_s()
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()
        wall, cpu = clock() - t0, self.cpu_s() - cpu

        done = [r for per_thread in results for r in per_thread]
        acked = [r for r in done if r[3] is not None]
        self.attempted += len(done)
        self.failed_ops += len(done) - len(acked)
        self.acks.extend((r[3], r[2]) for r in acked)
        self.rtts.extend(end - start for start, end, *_ in acked)
        lap = {"traced": traced, "ops": len(acked), "wall_s": wall,
               "cpu_s": cpu,
               "latencies": [end - start for start, end, *_ in acked],
               "counts": {}}
        if traced:
            parent = self.spans.add("lap", t0, t0 + wall, None, index)
            lap["client_spans"] = {
                trace_id: self.spans.add("service.client.submit", start, end,
                                         parent, request_index)
                for start, end, _, request_index, trace_id in acked}
        return lap

    def finish(self) -> None:
        after = self.observe_daemon()
        status = self.clients[0].status()
        if self.traced:
            self.artifacts["metrics.prom"] = after["metrics"]
            self.attach_daemon_spans()
        for client in self.clients:
            client.close()
        if self.traced:
            # A clean shutdown: drain, covering snapshot, compaction.
            t0 = clock()
            self.daemon.send_signal(signal.SIGTERM)
            self.daemon.wait(timeout=60)
            self.layer["service.daemon.drain_s"] = clock() - t0
        else:
            self.daemon.kill()
            self.daemon.wait()
        self.daemon_layers(self.before, after, status)

        total = self.warm_n + sum(lap["ops"] for lap in self.laps)
        check_ack_set(self.checks, [index for index, _ in self.acks], total)
        # The daemon promises the state of a serial replay in ack order.
        serial = LandlordCache(ZONE_CAPACITY, ZONE_ALPHA, self.repo.size_of)
        for _, position in sorted(self.acks):
            serial.request(self.specs[position])
        self.recover(self.image, digest(serial.snapshot()), None)

    def attach_daemon_spans(self) -> None:
        """Hang the daemon's five stage spans under their client span.

        The daemon stamps spans with wall-clock starts; only their
        durations are used here, laid end to end from the client span's
        start, because the two processes share no monotonic origin.
        """
        by_trace = {}
        for lap in self.laps_of(True):
            by_trace.update(lap["client_spans"])
        held = self.clients[0].traces(n=len(self.acks))["traces"]
        for trace in held:
            parent = by_trace.get(trace["trace_id"])
            if parent is None:
                continue
            at = self.spans.spans[parent]["start"]
            for span in trace["spans"]:
                self.spans.add(f"service.daemon.{span['name']}", at,
                               at + span["duration"], parent,
                               trace["request_index"])
                at += span["duration"]

    def daemon_layers(self, before: dict, after: dict, status: dict) -> None:
        acked = sum(lap["ops"] for lap in self.laps)
        wall = after["at"] - before["at"]
        scraped_before = parse_prometheus(before["metrics"])
        scraped = parse_prometheus(after["metrics"])
        sums = scrape_sums(scraped_before, scraped)
        layer = self.layer
        for stage in STAGES:
            seconds, count = (
                scraped.get(series, 0.0) - scraped_before.get(series, 0.0)
                for series in (
                    f'service_stage_seconds_{field}{{stage="{stage}"}}'
                    for field in ("sum", "count")))
            layer[f"service.daemon.{stage}_ms_mean"] = (
                seconds / count * 1e3 if count else 0.0)
        latencies = self.rtts
        layer["service.client.rtt_ms_mean"] = (
            sum(latencies) / len(latencies) * 1e3 if latencies else 0.0)
        layer["service.client.rtt_ms_p99"] = percentile(latencies, 99) * 1e3
        layer["service.wire_ms_mean"] = layer["service.client.rtt_ms_mean"] - sum(
            layer[f"service.daemon.{stage}_ms_mean"] for stage in STAGES)
        windows = sums("service_batches_total", "")
        layer["service.daemon.windows"] = windows
        layer["service.daemon.batch_mean"] = (
            sums("service_batched_requests_total", "") / windows
            if windows else 0.0)
        layer["service.daemon.rejected_429"] = status["service"]["rejected"]
        cpu_s = after["cpu_s"] - before["cpu_s"]
        layer["service.daemon.cpu_ms_per_req"] = cpu_s / acked * 1e3 if acked else 0.0
        layer["service.daemon.idle_share"] = 1 - cpu_s / wall if wall else 0.0
        layer["service.daemon.wchar_bytes_per_req"] = (
            (after["wchar"] - before["wchar"]) / acked if acked else 0.0)
        layer["service.generator.cpu_share"] = (
            (after["generator_cpu_s"] - before["generator_cpu_s"]) / wall
            if wall else 0.0)
        layer.update(cache_layer_times(sums))
        layer["core.journal.fsync_s"] = sums("journal_fsync_seconds")
        layer["core.journal.encode_write_s"] = (
            sums("journal_append_seconds") - layer["core.journal.fsync_s"])
        layer["core.journal.fsyncs"] = sums("journal_fsync_seconds", "count")
        # With two clients racing, these counts are close to but not
        # exactly repeatable; they describe the run, not the workload.
        layer.update(cache_counts(
            status["lifetime"],
            scraped.get("landlord_candidates_examined_total", 0.0),
            status["images"], status.get("engine", {})))

    def cpu_s(self) -> float:
        daemon = self.daemon
        alive = daemon is not None and daemon.poll() is None
        return super().cpu_s() + (proc_cpu_s(daemon.pid) if alive else 0.0)

    def peak_rss_mb(self) -> float:
        return proc_status_mb("VmHWM", self.daemon.pid)  # it holds the cache

    def reconcile(self) -> Optional[dict]:
        traced = self.laps_of(True)
        if not traced:
            return None
        own = self.spans.self_times()
        parts = {f"service.daemon.{stage}": own.get(f"service.daemon.{stage}", 0.0)
                 for stage in STAGES}
        parts["service.wire"] = own.get("service.client.submit", 0.0)
        return {
            "what": "client-observed time of every traced submission",
            "total_s": sum(s for lap in traced for s in lap["latencies"]),
            "parts": parts,
        }

