"""syzlab benchmark: time to a verified answer, plus a traced pass per layer.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is `universal`, `generic`, `cyclotomic` or `corpus` (workloads.py
says what each runs and how the seed changes it), or `all`, which runs
every workload round-robin, pass by pass, and prints the median and
quartiles of each end-to-end metric per workload.

Every measured CLI call runs in a fresh child process (child.py), one at
a time: a closed loop with one client, so each call starts with cold
in-process caches, as a user's does. A pass is one run over a workload's
calls. Passes repeat until S seconds have gone, at least one (two for
`corpus`). Every call is checked: a nonzero exit (exit 3 included), an
answer that differs from the pins in workloads.py, or corpus reports that
differ between the cache-cold, cache-hot and cache-disabled calls count
as failures.

--trace 0 reports the end-to-end metrics, each the median over passes:
  solve_s       seconds inside syzlab.cli.main, summed over a pass
  setup_s       seconds from child spawn until `import syzlab.cli` returns,
                summed over a pass: calls per pass times the median per
                call. Each run also spawns import-only probes, so that
                median has several samples where a pass has one call.
  peak_rss_mib  the highest child max-RSS in a pass
--trace 1 runs one untraced and one traced pass. It reports per-layer self
seconds and counts from the traced pass (tracer.py), `cache.hot_solve_s`
(solve_s of the cache-hot calls), `trace.solve_s` (solve_s of the traced
pass) and `trace.overhead_s` (traced minus untraced solve_s).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the quartiles over
passes and a description of the host. Children read and write only under
.perfbench_tmp/ in the checkout (their cache directory included), which is
removed at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
CHILD = Path(__file__).resolve().parent / "child.py"
RUN_LIMIT_S = 170  # a single-workload run must end within 180 s
PROBES = 10

END_TO_END = (("solve_s", "s"), ("setup_s", "s"), ("peak_rss_mib", "MiB"))


def _layer_s(layer):
    return lambda layers, counts: layers.get(layer, (0, 0.0))[1]


def _layer_calls(layer):
    return lambda layers, counts: layers.get(layer, (0, 0.0))[0]


def _count(key):
    return lambda layers, counts: counts.get(key, 0)


def _share(key, layer):
    def f(layers, counts):
        calls = layers.get(layer, (0, 0.0))[0]
        return counts.get(key, 0) / calls if calls else 0.0

    return f


# (metric, unit, value from the merged traces); cache.hot_solve_s,
# trace.solve_s and trace.overhead_s come from the solve times and are added
# in `trace_metrics`
PER_LAYER = (
    ("linalg.rank.s", "s", _layer_s("linalg.rank")),
    ("linalg.rank.calls", "count", _layer_calls("linalg.rank")),
    ("linalg.rank.cells", "count", _count("linalg.rank.cells")),
    ("linalg.rank.nnz", "count", _count("linalg.rank.nnz")),
    ("linalg.rank.cyclotomic_frac", "ratio", _share("linalg.rank.cyclotomic_calls", "linalg.rank")),
    ("linalg.rank.repeat_frac", "ratio", _share("linalg.rank.repeat_calls", "linalg.rank")),
    ("linalg.column_echelon_basis.s", "s", _layer_s("linalg.column_echelon_basis")),
    ("linalg.column_echelon_basis.cells", "count", _count("linalg.column_echelon_basis.cells")),
    ("invariants.block_basis_generic.s", "s", _layer_s("invariants.block_basis_generic")),
    ("invariants.block_basis_generic.calls", "count", _layer_calls("invariants.block_basis_generic")),
    ("invariants.block_basis_generic.monomials", "count", _count("invariants.block_basis_generic.monomials")),
    ("linalg.span_add.s", "s", _layer_s("linalg.span_add")),
    ("linalg.span_add.calls", "count", _layer_calls("linalg.span_add")),
    ("linalg.span_add.grew_frac", "ratio", _share("linalg.span_add.grew", "linalg.span_add")),
    ("invariants.minimal_generators.s", "s", _layer_s("invariants.minimal_generators")),
    ("invariants.noether_number.s", "s", _layer_s("invariants.noether_number")),
    ("koszul.differential.s", "s", _layer_s("koszul.differential")),
    ("koszul.differential.blocks", "count", _count("koszul.differential.blocks")),
    ("invariants.coords_in_basis.s", "s", _layer_s("invariants.coords_in_basis")),
    ("invariants.coords_in_basis.calls", "count", _layer_calls("invariants.coords_in_basis")),
    ("koszul.poly_mul.calls", "count", _layer_calls("koszul.poly_mul")),
    ("koszul.d2_check.s", "s", _layer_s("koszul.d2_check")),
    ("koszul.d2_check.blocks", "count", _layer_calls("koszul.d2_check")),
    ("koszul.tor_data.calls", "count", _layer_calls("koszul.tor_data")),
    ("koszul.tor_data.blocks", "count", _count("koszul.tor_data.blocks")),
    ("koszul.chain_blocks.s", "s", _layer_s("koszul.chain_blocks")),
    ("schur.domination_check.s", "s", _layer_s("schur.domination_check")),
    ("schur.dominant_weights.s", "s", _layer_s("schur.dominant_weights")),
    ("schur.schur_multiplicities.s", "s", _layer_s("schur.schur_multiplicities")),
    ("invariants.block_basis_monomial.s", "s", _layer_s("invariants.block_basis_monomial")),
    ("invariants.block_basis_monomial.calls", "count", _layer_calls("invariants.block_basis_monomial")),
    ("invariants.molien_series.s", "s", _layer_s("invariants.molien_series")),
    ("cache.get.s", "s", _layer_s("cache.get")),
    ("cache.get.hits", "count", _count("cache.get.hits")),
    ("cache.get.misses", "count", _count("cache.get.misses")),
    ("cache.put.s", "s", _layer_s("cache.put")),
    ("cache.put.bytes", "bytes", _count("cache.put.bytes")),
    ("groups.builtin_group.s", "s", _layer_s("groups.builtin_group")),
    ("groups.generate_group.s", "s", _layer_s("groups.generate_group")),
    ("groups.validate_irrep_catalog.s", "s", _layer_s("groups.validate_irrep_catalog")),
    ("cli.parse_problem.s", "s", _layer_s("cli.parse_problem")),
    ("cli.emit_report.s", "s", _layer_s("cli.emit_report")),
)


class RunDeadline(Exception):
    pass


@dataclass
class CallResult:
    rc: int
    setup_s: float | None
    solve_s: float | None
    rss_mib: float
    stdout: bytes
    stderr: str
    trace: dict | None


@dataclass
class PassResult:
    solve_s: float = 0.0
    hot_solve_s: float = 0.0
    rss_mib: float = 0.0
    setups: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    traces: list = field(default_factory=list)

    def add(self, call: CallResult, problem: str | None, hot: bool = False):
        """Account one call; `problem` is None when it passed its checks."""
        self.attempted += 1
        self.solve_s += call.solve_s or 0.0
        if hot:
            self.hot_solve_s += call.solve_s or 0.0
        self.rss_mib = max(self.rss_mib, call.rss_mib)
        if call.setup_s is not None:
            self.setups.append(call.setup_s)
        if call.trace is not None:
            self.traces.append(call.trace)
        if problem is not None:
            self.failed += 1
            sys.stderr.write(f"perfbench: failed call: {problem}\n")


class Runner:
    """Spawns child calls one at a time inside a private work directory."""

    def __init__(self, work: Path, deadline: float):
        self.work = work
        self.deadline = deadline
        self.serial = 0
        self.env = dict(os.environ)
        self.env["SYZLAB_CACHE_DIR"] = str(work / "cache-unused")
        self.env.pop("PYTHONPATH", None)

    def call(self, argv, trace: bool = False, env=None) -> CallResult:
        self.serial += 1
        stem = self.work / f"call{self.serial}"
        timing, out_path, err_path = (stem.with_suffix(s) for s in (".json", ".out", ".err"))
        cmd = [sys.executable, str(CHILD), str(timing), "1" if trace else "0", *argv]
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=self.work, env=env or self.env)
            killed, status, rusage = self._wait(proc)
        record = {}
        if timing.exists():
            record = json.loads(timing.read_text())
        stdout = out_path.read_bytes()
        stderr = err_path.read_text(errors="replace")
        for path in (timing, out_path, err_path):
            path.unlink(missing_ok=True)
        if killed:
            raise RunDeadline(f"{' '.join(argv)} did not finish within the run's time limit")
        imported_at = record.get("imported_at")
        return CallResult(
            rc=os.waitstatus_to_exitcode(status),
            setup_s=None if imported_at is None else imported_at - spawned,
            solve_s=record.get("solve_s"),
            rss_mib=rusage.ru_maxrss / 1024.0,
            stdout=stdout,
            stderr=stderr,
            trace=record.get("trace"),
        )

    def _wait(self, proc):
        # wait4 returns the child's own rusage; Popen.wait would discard it
        try:
            while True:
                pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    killed = False
                    break
                if time.monotonic() > self.deadline:
                    proc.kill()
                    _, status, rusage = os.wait4(proc.pid, 0)
                    killed = True
                    break
                time.sleep(0.02)
        except BaseException:
            # interrupted or terminated: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        return killed, status, rusage

    def probe_setup(self) -> float:
        call = self.call([])
        if call.rc != 0 or call.setup_s is None:
            raise SystemExit(f"perfbench: import-only probe failed:\n{call.stderr}")
        return call.setup_s


def _report_results(call: CallResult, what: str):
    """(results dict, None) when the call exited 0 with a JSON report, else
    (None, reason)."""
    if call.rc != 0 or call.solve_s is None:
        tail = call.stderr.strip().splitlines()[-1:] or [""]
        return None, f"{what}: exit {call.rc}: {tail[0]}"
    try:
        return json.loads(call.stdout)["results"], None
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"{what}: unreadable report ({exc})"


class Workload:
    """A workload's documents, written once per run, and its pass."""

    def __init__(self, name: str, seed: int, work: Path, runner: Runner):
        self.name = name
        self.runner = runner
        self.passes = 0
        docs = work / f"docs-{name}"
        docs.mkdir()
        if name == "universal":
            self.members = [("z2_universal", "universal", wl.load_problem(ROOT, "z2_universal"))]
        elif name == "generic":
            self.members = [("generic", "syzygies", wl.generic_doc(seed))]
        elif name == "cyclotomic":
            self.members = [("cyclotomic", "syzygies", wl.cyclotomic_doc(seed))]
        else:
            self.members = wl.corpus_members(ROOT, seed)
        self.paths = []
        for member, task, doc in self.members:
            path = docs / f"{member}.json"
            path.write_text(json.dumps(doc, indent=2) + "\n")
            self.paths.append(str(path))

    @property
    def min_passes(self) -> int:
        # a corpus pass is dozens of sub-second calls, which host noise moves
        # more than one long call; the median of two passes steadies it
        return 2 if self.name == "corpus" else 1

    @property
    def calls_per_pass(self) -> int:
        return len(self.members) * (3 if self.name == "corpus" else 1)

    def run_pass(self, trace: bool) -> PassResult:
        self.passes += 1
        if self.name == "corpus":
            return self._corpus_pass(trace)
        (member, task, _), path = self.members[0], self.paths[0]
        result = PassResult()
        call = self.runner.call([task, "--input", path, "--no-cache"], trace)
        results, problem = _report_results(call, member)
        if problem is None:
            mismatch = wl.check_heavy(self.name, results)
            problem = None if mismatch is None else f"{member}: {mismatch}"
        result.add(call, problem)
        return result

    def _corpus_pass(self, trace: bool) -> PassResult:
        # a fresh cache directory per pass: the first call of each member is cold
        env = dict(self.runner.env)
        env["SYZLAB_CACHE_DIR"] = str(self.runner.work / f"cache-{self.name}-{self.passes}")
        result = PassResult()
        for (member, task, _), path in zip(self.members, self.paths):
            base = [task, "--input", path]
            cold = self.runner.call(base, trace, env)
            hot = self.runner.call(base, trace, env)
            off = self.runner.call(base + ["--no-cache"], trace, env)
            for call, kind in ((cold, "cold"), (hot, "hot"), (off, "no-cache")):
                what = f"{member} ({kind})"
                results, problem = _report_results(call, what)
                if problem is None and wl.results_digest(results) != wl.CORPUS_RESULTS_SHA256[member]:
                    problem = f"{what}: results differ from the pinned digest"
                if problem is None and call.stdout != cold.stdout:
                    problem = f"{what}: report bytes differ from the cache-cold report"
                result.add(call, problem, hot=kind == "hot")
        return result


def _quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def end_to_end(workload: Workload, passes, setups):
    """metric -> samples whose median is the reported value. A pass's set-up
    is its number of calls times the set-up of one call, sampled on every
    call and probe of the run."""
    return {
        "solve_s": [p.solve_s for p in passes],
        "setup_s": [workload.calls_per_pass * s for s in setups],
        "peak_rss_mib": [p.rss_mib for p in passes],
    }


def trace_metrics(untraced: PassResult, traced: PassResult):
    layers, counts, missing = {}, {}, set()
    for tr in traced.traces:
        for name, (calls, self_s) in tr["layers"].items():
            acc = layers.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for key, value in tr["counts"].items():
            counts[key] = counts.get(key, 0) + value
        missing.update(tr["missing"])
    for layer in sorted(missing):
        sys.stderr.write(f"perfbench: layer {layer} not found in the engine; reported as 0\n")
    metrics = {name: {"value": f(layers, counts), "unit": unit} for name, unit, f in PER_LAYER}
    metrics["cache.hot_solve_s"] = {"value": untraced.hot_solve_s, "unit": "s"}
    metrics["trace.solve_s"] = {"value": traced.solve_s, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced.solve_s - untraced.solve_s, "unit": "s"}
    return metrics


def host() -> dict:
    info = {"python": platform.python_version(), "nproc": os.cpu_count(), "cpu_model": platform.processor()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            models = [line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")]
        if models:
            info["cpu_model"] = models[0]
        with open("/proc/loadavg", encoding="utf-8") as fh:
            info["loadavg"] = fh.read().split()[:3]
    except OSError:
        pass
    return info


def _check_checkout():
    missing = [
        str(p.relative_to(ROOT))
        for p in (ROOT / "src" / "syzlab" / "cli.py", ROOT / "problems")
        if not p.exists()
    ]
    if missing:
        raise SystemExit(
            f"perfbench: {', '.join(missing)} not found under {ROOT}; "
            "run from the root of a syzlab checkout"
        )


def run_one(args, work: Path) -> dict:
    runner = Runner(work, time.monotonic() + RUN_LIMIT_S)
    workload = Workload(args.workload, args.seed, work, runner)
    runner.probe_setup()  # compiles bytecode once; users do not pay that per call
    setups = [runner.probe_setup() for _ in range(PROBES)]
    start = time.monotonic()
    if args.trace:
        passes = [workload.run_pass(False), workload.run_pass(True)]
    else:
        passes = [workload.run_pass(False)]
        while time.monotonic() - start < args.seconds or len(passes) < workload.min_passes:
            passes.append(workload.run_pass(False))
    for p in passes:
        setups.extend(p.setups)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    if args.trace:
        metrics = trace_metrics(passes[0], passes[1])
        quartiles = {}
    else:
        series = end_to_end(workload, passes, setups)
        metrics = {}
        quartiles = {}
        for name, unit in END_TO_END:
            q1, med, q3 = _quartiles(series[name])
            metrics[name] = {"value": med, "unit": unit}
            quartiles[name] = [q1, med, q3]
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": len(passes),
        "setup_samples": len(setups),
        "quartiles": quartiles,
        "host": host(),
    }
    print(json.dumps({"detail": detail}))
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args, work: Path) -> dict:
    """Every workload round-robin, one pass each per round, so host drift
    falls on all of them alike."""
    runner = Runner(work, time.monotonic() + args.seconds + 1800)
    loads = [Workload(name, args.seed, work, runner) for name in wl.WORKLOADS]
    runner.probe_setup()
    setups = [runner.probe_setup() for _ in range(PROBES)]
    passes = {w.name: [] for w in loads}
    start = time.monotonic()
    rounds = 0
    while rounds == 0 or time.monotonic() - start < args.seconds:
        for i in range(len(loads)):
            w = loads[(rounds + i) % len(loads)]
            passes[w.name].append(w.run_pass(False))
        rounds += 1
    table = {}
    attempted = failed = 0
    for w in loads:
        ps = passes[w.name]
        attempted += sum(p.attempted for p in ps)
        failed += sum(p.failed for p in ps)
        series = end_to_end(w, ps, setups + [s for p in ps for s in p.setups])
        table[w.name] = {}
        for name, unit in END_TO_END:
            q1, med, q3 = _quartiles(series[name])
            table[w.name][name] = {"median": med, "q1": q1, "q3": q3, "unit": unit, "n": len(series[name])}
            print(f"{w.name:<11} {name:<13} median {med:10.4f} {unit:<4} q1 {q1:10.4f} q3 {q3:10.4f} n {len(series[name])}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "rounds": rounds, "workloads": table, "host": host()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="syzlab benchmark")
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes its children and its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all" and args.trace:
        parser.error("--workload all reports the end-to-end metrics only; use --trace 0")
    _check_checkout()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        result = run_all(args, work) if args.workload == "all" else run_one(args, work)
    except RunDeadline as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
