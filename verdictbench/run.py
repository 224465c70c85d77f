"""Verdict benchmark for liecurv: one closed-loop caller, no threads.

Run from the root of a checkout:

    python3 verdictbench/run.py --workload plane-verdicts --seed 1 --seconds 35 --trace 0

With ``--trace 0`` the workload runs untraced, in whole cycles of its item
kinds, for about ``--seconds``, with a reference loop between items that
rescales their times to a fixed machine speed, and the end-to-end metrics are
printed.  With ``--trace 1`` a fixed list of items (``trace_cycles`` whole
cycles) runs item by item once untraced and twice traced, and the per-layer
metrics, the kernel probe and the tracing overhead are printed.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; a fuller record, and in traced runs the spans,
go to ``.verdictbench/`` in the checkout.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".verdictbench"
SETUP_RUNS = 7
TAIL_BEYOND = 10  # items that must lie beyond the reported tail latency
# On a shared host the machine's speed drifts by up to a factor of two over
# spells of seconds, much alike for every kind of work.  A fixed reference loop
# runs between items, and each item's time is rescaled to a machine on which
# the loop takes REF_SECONDS (about a 2.1 GHz Xeon core).
REF_SECONDS = 0.02
REF_STEPS = 16
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# a fresh interpreter imports liecurv and builds both algebras, then prints
# the monotonic clock, which the parent shares
_SETUP_CODE = (
    "import time\n"
    "import liecurv\n"
    "liecurv.so3()\n"
    "liecurv.so4()\n"
    "print(time.clock_gettime_ns(time.CLOCK_MONOTONIC), liecurv.__file__)\n"
)


def _fail(message: str):
    print(f"verdictbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_liecurv():
    """Import liecurv from this checkout's sources, and from nowhere else."""
    package = SRC / "liecurv"
    if not (package / "__init__.py").is_file():
        _fail(f"no liecurv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import liecurv

    if Path(liecurv.__file__).resolve().parent != package.resolve():
        _fail(f"imported liecurv from {liecurv.__file__}, not from {package}")
    return liecurv


# ---------------------------------------------------------------------------
# environment record

def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas() -> str:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def _git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(workload: str, seed: int) -> dict:
    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS if k in os.environ},
        "git_commit": _git_commit(),
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# measurement

class Reference:
    """A frozen miniature of liecurv's plane search that never calls liecurv.

    Each pass takes 48 orthonormal frames in R^6 through descent steps like
    liecurv's: a complete QR for the complement, sixteen central-difference
    perturbations per frame, curvature-like values from an einsum of a fixed
    6x6x6 tensor with the row stacks, a gradient step and a QR.  Its time
    tracks the machine's speed for that kind of work from moment to moment.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._t = rng.standard_normal((6, 6, 6))
        h = rng.standard_normal((6, 6))
        self._h = h @ h.T + 6.0 * np.eye(6)
        self._q0 = np.linalg.qr(rng.standard_normal((48, 6, 2)))[0]

    def _values(self, a, b):
        np, h = self._np, self._h
        br = np.einsum("ijk,ni,nj->nk", self._t, a, b)
        pa, pb = a @ h, b @ h
        gram = (
            np.einsum("nk,nk->n", pa, a) * np.einsum("nk,nk->n", pb, b)
            - np.einsum("nk,nk->n", pa, b) ** 2
        )
        return np.einsum("nk,nk->n", br @ h, br) / gram

    def seconds(self) -> float:
        np = self._np
        start = time.perf_counter()
        q = self._q0
        for _ in range(REF_STEPS):
            comp = np.linalg.qr(q, mode="complete")[0][:, :, 2:]
            pert = np.repeat(q[:, None], 16, axis=1)
            for c in range(2):
                for j in range(4):
                    pert[:, 8 * c + 2 * j, :, c] += 1e-4 * comp[:, :, j]
                    pert[:, 8 * c + 2 * j + 1, :, c] -= 1e-4 * comp[:, :, j]
            flat = pert.reshape(-1, 6, 2)
            fv = self._values(flat[:, :, 0], flat[:, :, 1]).reshape(48, 8, 2)
            grad = (fv[:, :, 0] - fv[:, :, 1]) / 2e-4
            grad /= np.linalg.norm(grad, axis=1)[:, None]
            move = np.stack(
                [np.einsum("rk,rdk->rd", grad[:, 4 * c:4 * c + 4], comp) for c in range(2)],
                axis=2,
            )
            q = np.linalg.qr(q - 0.01 * move)[0]
            self._values(q[:, :, 0], q[:, :, 1])
        return time.perf_counter() - start


def setup_once() -> float:
    """Seconds from spawning a fresh interpreter until liecurv is imported and
    so3() and so4() are built."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    start = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.run(
        [sys.executable, "-c", _SETUP_CODE],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=60,
        check=False,
    )
    if proc.returncode != 0:
        _fail(f"set-up interpreter exited {proc.returncode}: {proc.stderr.strip()}")
    end_ns, path = proc.stdout.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != (SRC / "liecurv").resolve():
        _fail(f"set-up interpreter imported liecurv from {path.strip()}")
    return (int(end_ns) - start) * 1e-9


@dataclass(frozen=True)
class Record:
    index: int
    kind: str
    latency_s: float  # as measured
    scaled_s: float  # rescaled to the reference machine speed
    errors: tuple[str, ...]
    outcome: object


def _call(workload, ctx, item, tracer=None):
    """Run one item: (seconds, result, error text or None).  A raised error
    fails the item, never the run."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = workload.run(ctx, item)
        else:
            tracer.item = item.index
            result = tracer.span(f"item.{item.kind}", workload.run, 0, (ctx, item), {})
    except Exception:  # noqa: BLE001 - the run must go on; the item fails
        return time.perf_counter() - start, None, traceback.format_exc()
    finally:
        if tracer is not None:
            tracer.item = None
    return time.perf_counter() - start, result, None


def _record(workload, item, latency: float, scaled: float, result, error) -> Record:
    if error is not None:
        return Record(item.index, item.kind, latency, scaled, (error,), None)
    checked = workload.check(item, result)
    return Record(item.index, item.kind, latency, scaled, checked.errors, checked.outcome)


def run_items(workload, ctx, items, tracer=None) -> list[Record]:
    """Run and check each item, unscaled."""
    records = []
    for item in items:
        latency, result, error = _call(workload, ctx, item, tracer)
        records.append(_record(workload, item, latency, latency, result, error))
    return records


def run_for(workload, ctx, seed: int, seconds: float):
    """Closed loop over whole cycles of the workload for about ``seconds``.

    The reference loop runs after every item; an item's time is scaled by
    REF_SECONDS over the mean of the loop's times just before and just after
    it.  The SETUP_RUNS set-up launches are spread over the run, so that they
    meet the machine at different speeds; their times are not rescaled, since
    each runs in its own process.  Another cycle starts only while it is
    expected to end within half a cycle of ``seconds``.
    """
    ref = Reference()
    setup_once()  # fills the bytecode cache; not counted
    cycle = len(workload.cycle)
    records, items, setup = [], [], []
    due = [seconds * (k + 0.5) / SETUP_RUNS for k in range(SETUP_RUNS)]

    def launch() -> float:
        setup.append(setup_once())
        return ref.seconds()

    start = time.perf_counter()
    before = ref.seconds()
    while True:
        cycle_start = time.perf_counter()
        for _ in range(cycle):
            item = workload.item(seed, len(items))
            items.append(item)
            latency, result, error = _call(workload, ctx, item)
            after = ref.seconds()
            scaled = latency * REF_SECONDS / (0.5 * (before + after))
            records.append(_record(workload, item, latency, scaled, result, error))
            before = after
            if due and time.perf_counter() - start >= due[0]:
                due.pop(0)
                before = launch()
        now = time.perf_counter()
        if now - start + 0.5 * (now - cycle_start) >= seconds:
            break
    for _ in due:
        launch()
    return records, items, setup


def latency_summary(records: list[Record], scaled: bool = False) -> dict:
    lat = sorted(r.scaled_s if scaled else r.latency_s for r in records)
    n = len(lat)
    # the highest percentile with TAIL_BEYOND items above it, or the maximum
    k = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    return {
        "items": n,
        "items_per_s": n / sum(lat),
        "p50_s": statistics.median(lat),
        "tail_s": lat[k],
        "tail_percentile": 100.0 * (k + 1) / n,
        "items_beyond_tail": n - 1 - k,
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# ---------------------------------------------------------------------------
# modes

def end_to_end(workload, ctx, seed: int, seconds: float, record: dict) -> list[Record]:
    records, items, setup = run_for(workload, ctx, seed, seconds)
    summary = latency_summary(records, scaled=True)
    raw = latency_summary(records)
    failed = sum(1 for r in records if r.errors)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    record["metrics"] = {
        "setup_s": _metric(statistics.median(setup), "s"),
        "items_per_s": _metric(summary["items_per_s"], "1/s"),
        "item_p50_s": _metric(summary["p50_s"], "s"),
        "item_tail_s": _metric(summary["tail_s"], "s"),
        "passed_frac": _metric((len(records) - failed) / len(records), "frac"),
        "peak_rss_mb": _metric(peak_mb, "MB"),
    }
    record["samples"] = {
        "setup_s": len(setup),
        "items": len(records),
        "item_tail_s": f"p{summary['tail_percentile']:.1f} of {len(records)} items, "
        f"{summary['items_beyond_tail']} beyond it",
    }
    record["unscaled"] = {
        "items_per_s": raw["items_per_s"],
        "item_p50_s": raw["p50_s"],
        "item_tail_s": raw["tail_s"],
    }
    record["setup_runs_s"] = setup
    record["item_latency_s"] = [[r.index, r.kind, r.latency_s, r.scaled_s] for r in records]
    record["items_per_kind"] = _per_kind(records)
    record["input_defects"] = _input_defects(workload, seed, items)
    return records


def traced(workload, ctx, seed: int, record: dict) -> list[Record]:
    from tracing import Tracer, kernel_probe

    items = [workload.item(seed, i) for i in range(workload.trace_cycles * len(workload.cycle))]
    tracers = (Tracer(), Tracer())
    reference, passes = [], ([], [])
    # item by item, so drift in machine speed hits all three runs alike, and
    # in rotating order, so the warm-up of running an input first favours none
    for item in items:
        for turn in range(3):
            slot = (item.index + turn) % 3
            if slot == 2:
                reference += run_items(workload, ctx, [item])
                continue
            tracers[slot].install()
            try:
                passes[slot].extend(run_items(workload, ctx, [item], tracers[slot]))
            finally:
                tracers[slot].uninstall()
    probe, probe_absent = kernel_probe(seed)

    defects = []
    counts = [tracer.counts() for tracer in tracers]
    for name in sorted(counts[0].keys() | counts[1].keys()):
        first, second = counts[0].get(name), counts[1].get(name)
        if first != second:
            defects.append(f"{name}: (calls, rows) {first} then {second} at the same seed")
    for ref, first, second in zip(reference, *passes):
        if not ref.outcome == first.outcome == second.outcome:
            defects.append(f"item {ref.index} ({ref.kind}): outcome differs between passes")
    defects.extend(_input_defects(workload, seed, items))

    untraced_rate = latency_summary(reference)["items_per_s"]
    traced_rate = latency_summary(passes[0])["items_per_s"]
    layer = tracers[0].layer_metrics()
    layer.update(probe)
    layer["trace_overhead_frac"] = ((untraced_rate - traced_rate) / untraced_rate, "frac")
    record["metrics"] = {name: _metric(v, unit) for name, (v, unit) in layer.items()}
    record["absent"] = sorted(set(tracers[0].absent) | set(probe_absent))
    record["determinism_defects"] = defects
    record["items_per_kind"] = _per_kind(reference)
    record["span_count"] = len(tracers[0].spans)
    record["spans_file"] = str(
        (OUT / f"{workload.name}-seed{seed}-spans.jsonl.gz").relative_to(ROOT)
    )
    tracers[0].write_spans(ROOT / record["spans_file"])
    return reference + passes[0] + passes[1]


def _per_kind(records: list[Record]) -> dict:
    out = {}
    for r in records:
        entry = out.setdefault(r.kind, {"items": 0, "latency_s": []})
        entry["items"] += 1
        entry["latency_s"].append(r.scaled_s)
    for entry in out.values():
        entry["median_s"] = statistics.median(entry.pop("latency_s"))
    return out


def _input_defects(workload, seed: int, items) -> list[str]:
    """The same seed must regenerate byte-identical inputs; another seed must not."""
    from workloads import inputs_digest

    n = len(items)
    used = inputs_digest(items)
    again = inputs_digest(workload.item(seed, i) for i in range(n))
    other = inputs_digest(workload.item(seed + 1, i) for i in range(n))
    defects = []
    if used != again:
        defects.append("the same seed generated different inputs")
    if used == other:
        defects.append("seeds differing by one generated identical inputs")
    return defects


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seed < 0:
        _fail("--seed must be non-negative")

    _import_liecurv()
    from workloads import WORKLOADS, Context

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = {"env": environment(workload.name, args.seed), "trace": args.trace}
    print("env " + json.dumps(record["env"], sort_keys=True))

    with tempfile.TemporaryDirectory(dir=OUT) as tmpdir:
        ctx = Context(Path(tmpdir))
        if args.trace:
            records = traced(workload, ctx, args.seed, record)
            defects = record["determinism_defects"]
        else:
            records = end_to_end(workload, ctx, args.seed, args.seconds, record)
            defects = record["input_defects"]

    failures = [r for r in records if r.errors]
    record["failures"] = [{"index": r.index, "kind": r.kind, "errors": r.errors} for r in failures]
    lines = defects + [f"item {r.index} ({r.kind}): {e}" for r in failures for e in r.errors]
    for line in lines:
        print("defect " + line.strip().replace("\n", " | "))
    for key in ("samples", "unscaled", "absent", "items_per_kind"):
        if key in record:
            print(f"{key} " + json.dumps(record[key], sort_keys=True))
    path = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    text = json.dumps(record, indent=1, sort_keys=True, default=str)
    path.write_text(text + "\n", encoding="utf-8")
    result = {
        "correct": not failures and not defects,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": record["metrics"],
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
