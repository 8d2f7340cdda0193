"""fusionring benchmark: one workload, one seed, one process, one client thread.

    python3 bench/run.py --workload enumerate-le8 --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. One client runs the requests in a closed loop: one full pass over
the workload's inputs, then repeats of each request, spread over the run,
until about ``--seconds`` of measured time are spent. Each sample is scaled
to a reference host speed, measured by a fixed probe timed between samples
(``SpeedProbe``), and a request's latency is the median of its scaled
samples. Every output is checked outside the timed region.

With ``--trace 0`` the last stdout line holds the end-to-end metrics. With
``--trace 1`` every request also runs traced, and the last line holds the
per-layer metrics and the tracing overhead. The line before
it, also written to ``bench/out/``, records the seed, the environment,
sample counts, memory growth and every failed check.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "bench" / "out"
WORK = ROOT / "bench" / "work"
SETUP_REPEATS = 5
MAX_SAMPLES = 50         # per request and run
SAMPLE_EXPONENT = 0.35   # samples per request go as cost ** -SAMPLE_EXPONENT
OVERRUN = 1.1            # stop early if costs grew past the plan by this factor
PROBE_EVERY_S = 0.05     # measured seconds between speed probes
PROBE_WINDOW = 10        # fewest probes that give a sample's speed
PROBE_PAD_S = 0.5        # probes this close to a short sample give its speed
LONG_S = 0.25            # a sample this long gets PROBE_WINDOW // 2 probes each side
REFERENCE_PROBE_S = 0.002   # probe time that defines the reference speed
UNITS = {"setup_s": "s", "pass_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
         "peak_rss_mb": "MB"}


def vmrss_mb() -> float:
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmRSS:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmRSS missing from /proc/self/status")


def smoothed_quantile(values: list[float], q: float) -> float:
    """Mean of the samples ranked within q +- 0.05.

    Near p90 the requests are few and of mixed kinds, so the single sample at
    that rank jumps between runs; the mean of its neighbours moves less.
    """
    ordered = sorted(values)
    lo = int((q - 0.05) * len(ordered))
    hi = max(lo + 1, round((q + 0.05) * len(ordered)))
    return statistics.fmean(ordered[lo:hi])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def environment(numpy_version: str) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "machine": platform.machine(),
        "git_commit": git_commit(),
    }


def import_seconds() -> float:
    """Time to import the package in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import fusionring.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def plan_repeats(cost: list[float], budget: float) -> list[int]:
    """Samples per request so that the run spends about ``budget`` seconds.

    A request's number of samples goes as its cost to the power
    -SAMPLE_EXPONENT: a cheap request gets many samples, while an expensive
    one, whose share of a pass is large, still gets several. Every request
    gets at least one sample and at most MAX_SAMPLES; the scale is chosen by
    bisection so that the planned time fills the budget.
    """
    def planned(scale: float) -> list[int]:
        return [min(MAX_SAMPLES, max(1, int(scale / c ** SAMPLE_EXPONENT))) if c > 0
                else MAX_SAMPLES for c in cost]

    def spent(scale: float) -> float:
        return sum(k * c for k, c in zip(planned(scale), cost))

    lo, hi = 0.0, MAX_SAMPLES * max(cost) ** SAMPLE_EXPONENT
    for _ in range(60):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if spent(mid) <= budget else (lo, mid)
    return planned(lo)


class SpeedProbe:
    """Times a fixed reference computation between requests.

    The host's speed drifts by tens of per cent within minutes, which would
    swamp any change to the program. The probe runs code that never changes,
    so the median of its times around a request's sample measures the host's
    speed while the sample ran; ``factor`` scales a time to the speed at
    which the probe takes REFERENCE_PROBE_S. The probe runs outside the
    timed regions, with the collector off, so that the program's heap does
    not slow it.
    """

    def __init__(self) -> None:
        import numpy
        self._einsum = numpy.einsum
        self._cube = numpy.arange(4096, dtype=numpy.int64).reshape(16, 16, 16) % 5
        self.samples: list[float] = []   # seconds per probe
        self.times: list[float] = []     # perf_counter when each probe ended
        self._due = 0.0

    def _work(self) -> int:
        acc = {}
        for i in range(2000):
            k = (i * 7919) % 1009
            acc[k] = acc.get(k, 0) + i
        ranked = sorted(acc.items(), key=lambda kv: kv[1])
        return len(ranked) + int(self._einsum("ijk,jkl->il", self._cube, self._cube)[0, 0])

    def sample(self, count: int = 1) -> None:
        gc.disable()
        try:
            for _ in range(count):
                t0 = time.perf_counter()
                for _ in range(3):
                    self._work()
                t1 = time.perf_counter()
                self.samples.append(t1 - t0)
                self.times.append(t1)
        finally:
            gc.enable()

    def maybe_sample(self, measured: float) -> None:
        """Sample once per PROBE_EVERY_S of measured time."""
        if measured >= self._due:
            self._due = measured + PROBE_EVERY_S
            self.sample()

    def factor(self, start: float | None = None, end: float | None = None) -> float:
        """Scale factor over the whole run, or for a span of time.

        For a span, the probes taken within its length (at least PROBE_PAD_S)
        before its start or after its end count; if there are fewer than
        PROBE_WINDOW of them, the PROBE_WINDOW probes nearest its middle do.
        """
        if start is None:
            return REFERENCE_PROBE_S / statistics.median(self.samples)
        pad = max(end - start, PROBE_PAD_S)
        lo = bisect.bisect_left(self.times, start - pad)
        hi = bisect.bisect_right(self.times, end + pad)
        if hi - lo < PROBE_WINDOW:
            mid = bisect.bisect_left(self.times, (start + end) / 2)
            lo = max(0, min(mid - PROBE_WINDOW // 2, len(self.times) - PROBE_WINDOW))
            hi = lo + PROBE_WINDOW
        return REFERENCE_PROBE_S / statistics.median(self.samples[lo:hi])


def run_requests(requests, budget: float, probe: SpeedProbe, tracer=None) -> dict:
    """Run every request once, then repeat them until ``budget`` seconds are spent.

    The first round is one full pass; it gives each request's cost and the
    peak RSS. ``plan_repeats`` then sets each request's number of samples,
    and the samples are spread evenly over the following rounds, so that a
    request's median is taken over the whole run and a cheap request gets
    many samples while an expensive one gets few. Sample k of a request runs
    its variant k modulo their number. Each output is checked right after
    its call, outside the timed region. The speed probe runs once per
    PROBE_EVERY_S of measured time, and PROBE_WINDOW // 2 times before and
    after each sample longer than LONG_S.

    With a tracer, each sample runs the request untraced, traced and
    untraced again, back to back; the traced time is compared with the mean
    of the two untraced ones, so that drift in machine speed and state the
    program accumulates from call to call cancel out of the tracing overhead.
    """
    sequence = ("plain",) if tracer is None else ("plain", "traced", "plain")
    times = {mode: [[] for _ in requests] for mode in sequence}
    spans = [[] for _ in requests]   # per sample, perf_counter at its start and end
    executions: list[int] = []   # request index of each traced execution id
    failures, attempted, measured = [], 0, 0.0

    def sample(idx: int, rnd: int) -> None:
        nonlocal attempted, measured
        req = requests[idx]
        variant = req.variants[len(spans[idx]) % len(req.variants)]
        if spans[idx] and spans[idx][-1][1] - spans[idx][-1][0] > LONG_S:
            probe.sample(PROBE_WINDOW // 2)
        spent = {mode: [] for mode in times}
        start = time.perf_counter()
        for mode in sequence:
            traced = mode == "traced"
            if traced:
                tracer.request = len(executions)
                executions.append(idx)
                tracer.activate()
            t0 = time.perf_counter()
            try:
                result = variant.run()
            except Exception as exc:   # a crashing request is a failed check
                result = exc
            finally:
                end = time.perf_counter()
                spent[mode].append(end - t0)
                if traced:
                    tracer.deactivate()
            attempted += 1
            if isinstance(result, Exception):
                reason = f"raised {type(result).__name__}: {result}"
            else:
                reason = variant.check(result)
            if reason is not None:
                failures.append({"round": rnd, "input": req.label, "reason": reason})
            del result
        measured += sum(map(sum, spent.values()))
        spans[idx].append((start, end))
        if end - start > LONG_S:
            probe.sample(PROBE_WINDOW // 2)
        else:
            probe.maybe_sample(measured)
        for mode, values in spent.items():
            times[mode][idx].append(statistics.fmean(values))

    gc.collect()
    for idx in range(len(requests)):
        sample(idx, 0)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.collect()
    rss = [vmrss_mb()]

    cost = [sum(times[mode][idx][0] for mode in sequence) for idx in range(len(requests))]
    target = plan_repeats(cost, budget)
    rounds = max(target)
    # Request i runs in rounds floor(k * rounds / target[i]), k = 0 .. target[i] - 1.
    due = [{k * rounds // t for k in range(t)} for t in target]
    for rnd in range(1, rounds):
        if measured >= OVERRUN * budget:
            break
        for idx in range(len(requests)):
            if rnd in due[idx]:
                sample(idx, rnd)
    gc.collect()
    rss.append(vmrss_mb())
    return {"times": times, "executions": executions, "rss_mb": rss, "peak_rss_mb": peak,
            "failures": failures, "attempted": attempted, "measured_s": measured,
            "spans": spans, "rounds": rounds}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fusionring" / "__init__.py").is_file():
        print(f"error: no fusionring package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # One client thread: no BLAS helper threads (set before numpy loads).
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import numpy
    import fusionring
    import workloads
    from spans import Tracer, layer_metrics, layer_unit

    if Path(fusionring.__file__).resolve().parent != SRC / "fusionring":
        print(f"error: imported fusionring from {fusionring.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]

    workdir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"

    def set_up():
        shutil.rmtree(workdir, ignore_errors=True)
        imported = import_seconds()
        start = time.perf_counter()
        workdir.mkdir(parents=True)
        requests = build(args.seed, workdir)
        return requests, imported + time.perf_counter() - start

    probe = SpeedProbe()
    setup_s, setup_scaled_s = [], []
    try:
        for _ in range(1 if args.trace else SETUP_REPEATS):
            probe.sample(PROBE_WINDOW // 2)
            start = time.perf_counter()
            requests, seconds = set_up()
            end = time.perf_counter()
            probe.sample(PROBE_WINDOW // 2)
            setup_s.append(seconds)
            setup_scaled_s.append(seconds * probe.factor(start, end))
        tracer = Tracer() if args.trace else None
        run = run_requests(requests, args.seconds, probe, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    # One latency per request and mode: its median over the request's samples.
    median_s = {mode: [statistics.median(t) for t in per_req]
                for mode, per_req in run["times"].items()}
    plain_pass_s = sum(median_s["plain"])
    samples = [len(t) for t in run["times"]["plain"]]
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(numpy.__version__),
              "requests_per_pass": len(requests), "rounds": run["rounds"],
              "samples": sum(samples), "passes": sum(samples) / len(requests),
              "samples_min": min(samples),
              "samples_max": max(samples), "measured_s": run["measured_s"],
              "setup_s": setup_s}
    if tracer is not None:
        traced_pass_s = sum(median_s["traced"])
        weight = {ex: 1.0 / samples[idx] for ex, idx in enumerate(run["executions"])}
        metrics = layer_metrics(tracer.spans, weight, len(requests), traced_pass_s)
        metrics["tracing_overhead"] = traced_pass_s / plain_pass_s - 1
        detail["traced_pass_s"] = traced_pass_s
        detail["layer_share"] = {name[:-2]: value / traced_pass_s
                                 for name, value in metrics.items() if name.endswith(".s")}
    else:
        # Times at the reference host speed; the detail line keeps the raw ones.
        lat_ms = [1000.0 * statistics.median(t * probe.factor(*span) for t, span in zip(ts, sp))
                  for ts, sp in zip(run["times"]["plain"], run["spans"])]
        speed = probe.factor()
        metrics = {
            "setup_s": statistics.median(setup_scaled_s),
            "pass_s": sum(lat_ms) / 1000.0,
            "req_p50_ms": statistics.median(lat_ms),
            "req_p90_ms": smoothed_quantile(lat_ms, 0.9),
            # after the first round: later samples add what the caches pin, which
            # grows with the number of samples and so with speed (rss_growth_mb)
            "peak_rss_mb": run["peak_rss_mb"],
        }
        rss = run["rss_mb"]
        extra_passes = (sum(samples) - len(requests)) / len(requests)
        detail.update(
            speed_factor=speed, probe_samples=len(probe.samples),
            raw_pass_s=plain_pass_s,
            requests_beyond_p90=sum(1 for x in lat_ms if x > metrics["req_p90_ms"]),
            rss_growth_mb=(rss[1] - rss[0]) / extra_passes if extra_passes else None,
            rss_after_first_round_mb=rss[0], rss_at_end_mb=rss[1])
    failures = run["failures"]
    detail.update(attempted=run["attempted"], failed=len(failures),
                  failed_ratio=len(failures) / run["attempted"], failures=failures)
    for failure in failures:
        print(f"check failed: {failure['input']} (round {failure['round']}): "
              f"{failure['reason']}", file=sys.stderr)

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    latency_ms = {req.label: [round(x * 1000.0, 3) for x in lat]
                  for req, lat in zip(requests, run["times"]["plain"])}
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"detail": detail, "metrics": metrics, "latency_ms": latency_ms,
         "probe": {"s": probe.samples, "at": probe.times},
         "spans": run["spans"]}))
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "request", "outcome"],
             "spans": tracer.spans}))
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not failures,
        "attempted": run["attempted"],
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": UNITS.get(name) or layer_unit(name)}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
