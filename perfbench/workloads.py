"""The three benchmark workloads: inputs, measured runs, traced runs.

Every workload is a pure function of ``(seed, seconds, sizes)``: inputs
come from ``repro``'s own generators under seeds derived from the
workload seed, so the program only ever sees generated inputs.  Each
workload returns a :class:`Result`; ``run.py`` prints it.

End-to-end metrics share one meaning per name across workloads (the
"op" is the workload's unit of work, see README.md):

====================  ===============  ==============  ===============
metric                ladder-sparse    serve-churn     grid-table2
====================  ===============  ==============  ===============
``setup_s``           fit              inputs + fit +  interpreter +
                                       daemon + base   grid imports
``op_p50_ms``         ``reconstruct``  apply + query   one grid pass
``throughput_per_s``  edges / s        rounds / s      cells / s
``jaccard``           vs. truth        base vs. truth  mean over cells
====================  ===============  ==============  ===============
"""

from __future__ import annotations

import dataclasses
import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

import tracing
from repro import datasets
from repro.core.marioh import MARIOH
from repro.datasets.hypercl import hypercl_like
from repro.experiments import orchestrator
from repro.hypergraph.graph import WeightedGraph
from repro.hypergraph.hypergraph import Hypergraph
from repro.hypergraph.projection import project
from repro.metrics.jaccard import jaccard_similarity, multi_jaccard_similarity
from repro.rng import derive_seed
from repro.serve import engine as serve_engine
from repro.serve.client import ServeClient
from repro.serve.daemon import ReconstructionServer
from repro.sharding.stitch import hypergraph_digest
from repro.store import artifacts, manifest

ROOT = Path(__file__).resolve().parent.parent
#: scratch space for checkpoints, stores, models and traces; inside the
#: checkout and ignored by git.
WORK = ROOT / ".bench_out"

#: set-ups per measured run; ``setup_s`` is their median.
SETUPS = 5

#: seed of every fitted model and of its training source.  The model is
#: a fixed artifact of the workload and ``--seed`` varies only the data
#: it serves: a model refitted per seed stops early at a different epoch
#: and scores differently, which moved the same workload's reconstruct
#: time up to 3x between seeds.
MODEL_SEED = 0


@dataclasses.dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    ladder_target_scale: float
    ladder_source_scale: float
    serve_base_scale: float
    serve_source_scale: float
    #: closed-loop rounds per requested second of ``serve-churn``.
    serve_rounds_per_second: float
    serve_batch: int
    grid_preset: str


FULL = Sizes(40, 10, 2, 2, 11.0, 5, "table2")
TINY = Sizes(1, 1, 0.5, 0.5, 10.0, 5, "quick")


@dataclasses.dataclass
class Result:
    """What one run prints: metrics, checks, and provenance."""

    workload: str
    metrics: Dict[str, Tuple[float, str]] = dataclasses.field(default_factory=dict)
    checks: List[Tuple[str, bool]] = dataclasses.field(default_factory=list)
    info: Dict[str, object] = dataclasses.field(default_factory=dict)
    inputs: Dict[str, str] = dataclasses.field(default_factory=dict)

    def check(self, name: str, ok: object) -> None:
        self.checks.append((name, bool(ok)))

    def check_summary(self) -> Dict[str, List[int]]:
        """``{check: [passed, attempted]}``."""
        summary: Dict[str, List[int]] = {}
        for name, ok in self.checks:
            entry = summary.setdefault(name, [0, 0])
            entry[0] += int(ok)
            entry[1] += 1
        return summary

    @property
    def failed(self) -> int:
        return sum(1 for _, ok in self.checks if not ok)


# ----------------------------------------------------------------------
# Shared helpers
# ----------------------------------------------------------------------
def timed(body: Callable[[], object]) -> Tuple[object, float]:
    start = time.perf_counter()
    value = body()
    return value, time.perf_counter() - start


def repeat_for(seconds: float, body: Callable[[], object], at_least: int = 1) -> None:
    """Call ``body`` at least ``at_least`` times, then again while a call
    as long as the last one still ends within ``seconds`` of the start,
    so that a run of long ops does not overshoot its window by one op."""
    start = time.perf_counter()
    for _ in range(at_least):
        last = time.perf_counter()
        body()
    while True:
        now = time.perf_counter()
        if now + (now - last) > start + seconds:
            return
        last = now
        body()


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in (0, 100])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def peak_rss_mb() -> float:
    """Peak resident set of this process plus the largest waited-for
    child (the serve daemon, the grid set-up interpreter)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def derived(seed: int, *path: object) -> int:
    return derive_seed(seed, ("perfbench",) + tuple(path))


def provenance(inputs: Dict[str, str]) -> Dict[str, object]:
    """Row keys of every result: input hashes, code identity, machine."""
    return {
        "inputs_sha256": inputs,
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def _source_sha256() -> str:
    """sha256 over the program's source files (path and bytes), so a
    result names the code that produced it even outside git."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


#: scratch directories made by this process, removed by :func:`cleanup`.
_SCRATCH: List[Path] = []


def fresh_dir(name: str) -> Path:
    path = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    _SCRATCH.append(path)
    return path


def cleanup() -> None:
    """Remove this process's scratch directories (stores, checkpoints)."""
    while _SCRATCH:
        shutil.rmtree(_SCRATCH.pop(), ignore_errors=True)


def subprocess_env() -> Dict[str, str]:
    """Child environment: the checkout's ``src`` on the path, no store."""
    env = {k: v for k, v in os.environ.items() if k != artifacts.STORE_ENV}
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


# ----------------------------------------------------------------------
# Ladders: one-shot reconstruction of a HyperCL target
# ----------------------------------------------------------------------
#: workload -> regime dataset whose statistics HyperCL borrows
LADDERS = {"ladder-sparse": "dblp"}


@dataclasses.dataclass
class LadderInputs:
    truth: Hypergraph
    target: WeightedGraph
    source: Hypergraph


def ladder_inputs(workload: str, seed: int, sizes: Sizes) -> LadderInputs:
    reference = datasets.load(LADDERS[workload], seed=0, store=False).hypergraph
    truth = hypercl_like(
        reference, scale=sizes.ladder_target_scale, seed=derived(seed, workload, "target")
    )
    source = hypercl_like(
        reference, scale=sizes.ladder_source_scale, seed=derived(MODEL_SEED, workload, "source")
    )
    return LadderInputs(truth, project(truth), source)


def ladder_fit(inputs: LadderInputs) -> MARIOH:
    """The program's set-up: fit the model (store disabled)."""
    return MARIOH(seed=MODEL_SEED).fit(inputs.source, store=False)


def ladder_setup(workload: str, seed: int, sizes: Sizes) -> Tuple[LadderInputs, MARIOH]:
    """Generate the inputs and fit the model."""
    inputs = ladder_inputs(workload, seed, sizes)
    return inputs, ladder_fit(inputs)


def run_ladder(workload: str, seed: int, seconds: float, sizes: Sizes) -> Result:
    result = Result(workload)
    # The inputs are generated once; set-up is the fit, done SETUPS times.
    inputs, inputs_s = timed(lambda: ladder_inputs(workload, seed, sizes))
    setups = []
    for _ in range(SETUPS):
        model, elapsed = timed(lambda: ladder_fit(inputs))
        setups.append(elapsed)
    result.inputs = {
        "target": manifest.hypergraph_sha256(inputs.truth),
        "source": manifest.hypergraph_sha256(inputs.source),
    }

    # The first reconstruct in a fresh process pays one-time costs
    # (lazy imports, allocator growth); it is reported on its own as
    # first_op_s and kept out of the op statistics.
    first, first_s = timed(lambda: model.reconstruct(inputs.target))
    digest = hypergraph_digest(first)
    result.check("project(reconstruction) == target", project(first) == inputs.target)

    times: List[float] = []

    def repetition() -> None:
        # Every repetition starts from the same heap: no garbage left by
        # the previous one for the cyclic collector to walk.
        gc.collect()
        recon, elapsed = timed(lambda: model.reconstruct(inputs.target))
        times.append(elapsed)
        result.check("digest stable across repetitions", hypergraph_digest(recon) == digest)

    repeat_for(seconds, repetition)

    golden = golden_value(workload, seed, sizes)
    if golden is not None:
        result.check("digest equals golden digest", digest == golden)
    edges = inputs.target.num_edges
    result.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (1e3 * statistics.median(times), "ms"),
        "throughput_per_s": (edges * len(times) / sum(times), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "jaccard": (jaccard_similarity(inputs.truth, first), "ratio"),
        "multi_jaccard": (multi_jaccard_similarity(inputs.truth, first), "ratio"),
    }
    result.info = {
        "digest": digest,
        "target_edges": edges,
        "target_nodes": inputs.target.num_nodes,
        "source_hyperedges": inputs.source.num_unique_edges,
        "iterations": model.n_iterations_,
        "repetitions": len(times),
        "inputs_s": inputs_s,
        "first_op_s": first_s,
        "fit_s": model.stage_times_.get("load_sample", 0.0) + model.stage_times_.get("train", 0.0),
        "reconstruct_s": statistics.median(times),
        "op_s": times,
    }
    return result


def trace_ladder(workload: str, seed: int, seconds: float, sizes: Sizes) -> Result:
    result = Result(workload)

    def one_pass() -> Tuple[MARIOH, Hypergraph, LadderInputs, float]:
        inputs, model = ladder_setup(workload, seed, sizes)
        recon, recon_s = timed(lambda: model.reconstruct(inputs.target))
        return model, recon, inputs, recon_s

    _, first, inputs, first_s = one_pass()
    digest = hypergraph_digest(first)
    _, plain_s = timed(one_pass)
    tracer = tracing.Tracer(OBSERVERS)
    with tracing.spans(tracer):
        (model, traced, _, _), traced_s = timed(one_pass)
    counter = tracing.CallCounter()
    with tracing.hot_calls(counter):
        _, counted, _, _ = one_pass()
    for name, recon in (("span pass", traced), ("hot-call pass", counted)):
        result.check(f"{name} digest unchanged", hypergraph_digest(recon) == digest)
    result.check("project(reconstruction) == target", project(first) == inputs.target)

    extra = {
        "warmup.first_op_s": first_s,
        "trace.overhead_ratio": traced_s / plain_s,
        "hypergraph.graph.weight_patch_hit_rate": _rate(model.snapshot_patch_stats_, "weight"),
        "hypergraph.graph.structural_patch_hit_rate": _rate(model.snapshot_patch_stats_, "structural"),
        "hypergraph.graph.compactions": model.snapshot_patch_stats_.get("compactions", 0),
        "core.features.row_cache_hit_rate": model.classifier.featurizer.row_cache_stats()["hit_rate"],
    }
    total, covered = tracer.children_of("core.marioh.MARIOH.reconstruct")
    extra["trace.reconstruct_coverage"] = covered / total if total else 0.0
    result.metrics = layer_metrics(tracer, counter, extra)
    result.info = {"digest": digest, "untraced_s": plain_s, "traced_s": traced_s,
                   "hot_warnings": tracing.warn_hot(tracer)}
    result.inputs = {"target": manifest.hypergraph_sha256(inputs.truth)}
    write_trace(tracer, workload, seed)
    return result


def _rate(stats: Dict[str, int], kind: str) -> float:
    hits, misses = stats.get(f"{kind}_hits", 0), stats.get(f"{kind}_misses", 0)
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# serve-churn: a live daemon under a closed-loop edit/query client
# ----------------------------------------------------------------------
@dataclasses.dataclass
class ServeInputs:
    base_truth: Hypergraph
    base: WeightedGraph
    source: Hypergraph
    stream: List[Tuple[str, int, int, int]]


def serve_inputs(seed: int, rounds: int, sizes: Sizes) -> ServeInputs:
    reference = datasets.load("dblp", seed=0, store=False).hypergraph
    truth = hypercl_like(reference, scale=sizes.serve_base_scale, seed=derived(seed, "serve", "base"))
    base = project(truth)
    source = hypercl_like(reference, scale=sizes.serve_source_scale, seed=derived(MODEL_SEED, "serve", "source"))
    stream = serve_engine.random_edit_stream(
        derived(seed, "serve", "stream"), rounds * sizes.serve_batch,
        n_nodes=max(base.nodes) + 1,
    )
    return ServeInputs(truth, base, source, stream)


def serve_fit(inputs: ServeInputs) -> MARIOH:
    return MARIOH(seed=MODEL_SEED, phase2_scope="component").fit(inputs.source, store=False)


def base_edits(graph: WeightedGraph) -> List[List[object]]:
    return [["add_edge", u, v, w] for u, v, w in sorted(graph.edges_with_weights())]


def load_base(client: ServeClient, inputs: ServeInputs, result: Result) -> Hypergraph:
    """Apply the base graph and fetch its full reconstruction."""
    edits = base_edits(inputs.base)
    for start in range(0, len(edits), 1000):
        result.check("base apply ok", client.apply(edits[start:start + 1000]).get("ok"))
    response = client.query()
    result.check("base query ok", response.get("ok"))
    served = Hypergraph(nodes=inputs.base.nodes)
    for members, multiplicity in response.get("edges", []):
        served.add(members, multiplicity)
    return served


def churn(client: ServeClient, inputs: ServeInputs, batch: int, result: Result,
          rounds: int) -> Tuple[List[float], List[float]]:
    """Closed loop: apply ``batch`` edits, then query their endpoints.

    Returns the client round trips of the applies and of the queries."""
    applies, queries = [], []
    for index in range(rounds):
        edits = inputs.stream[index * batch:(index + 1) * batch]
        touched = sorted({node for _, u, v, _ in edits for node in (u, v)})
        response, apply_s = timed(lambda: client.apply(edits))
        result.check("apply ok", response.get("ok"))
        response, query_s = timed(lambda: client.query(touched))
        result.check("query ok", response.get("ok"))
        applies.append(apply_s)
        queries.append(query_s)
    return applies, queries


def replayed_digest(model: MARIOH, inputs: ServeInputs, n_edits: int) -> str:
    graph = inputs.base.copy()
    serve_engine.replay_edits(graph, inputs.stream[:n_edits])
    return hypergraph_digest(model.reconstruct(graph))


class Daemon:
    """A ``python -m repro serve`` subprocess on a private checkpoint."""

    def __init__(self, model: MARIOH, workdir: Path) -> None:
        model_path = workdir / "model.json"
        model.save(model_path)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", str(model_path),
             "--checkpoint", str(workdir / "serve.ckpt")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=subprocess_env(), cwd=ROOT,
        )
        port = None
        for line in self.process.stdout:
            if line.startswith("serving on "):
                port = int(line.rsplit(":", 1)[1])
                break
        if port is None:
            self.stop()
            raise RuntimeError("serve daemon never reported its port")
        self.client = ServeClient("127.0.0.1", port, timeout=120.0)

    def stop(self) -> bool:
        """Drain-and-flush shutdown, then reap the process; True when the
        daemon acknowledged the shutdown and exited with status 0."""
        acknowledged = False
        client = getattr(self, "client", None)
        if client is not None:
            try:
                acknowledged = bool(client.shutdown().get("ok"))
            except (OSError, ValueError):  # daemon gone or reply cut short
                acknowledged = False
            client.close()
        try:
            self.process.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.communicate()
        return acknowledged and self.process.returncode == 0


def run_serve(seed: int, seconds: float, sizes: Sizes) -> Result:
    result = Result("serve-churn")
    rounds = max(1, int(round(sizes.serve_rounds_per_second * seconds)))
    setups, daemon = [], None
    try:
        for index in range(SETUPS):
            if daemon is not None:
                result.check("daemon exited cleanly", daemon.stop())
            workdir = fresh_dir(f"serve-{index}")

            def set_up():
                inputs = serve_inputs(seed, rounds, sizes)
                model = serve_fit(inputs)
                started = Daemon(model, workdir)
                return inputs, model, started, load_base(started.client, inputs, result)

            (inputs, model, daemon, served_base), elapsed = timed(set_up)
            setups.append(elapsed)
        applies, queries = churn(daemon.client, inputs, sizes.serve_batch, result, rounds)
        final = daemon.client.snapshot()
        stats = daemon.client.stats()
    finally:
        if daemon is not None:
            result.check("daemon exited cleanly", daemon.stop())
    result.check("no daemon errors", stats.get("server", {}).get("errors_total") == 0)
    n_edits = rounds * sizes.serve_batch
    result.check("daemon applied every edit", final.get("edits_applied") == len(base_edits(inputs.base)) + n_edits)
    expected = replayed_digest(model, inputs, n_edits)
    result.check("daemon digest equals one-shot reconstruct", final.get("digest") == expected)
    base_digest = hypergraph_digest(served_base)
    golden = golden_value("serve-churn", seed, sizes)
    if golden is not None:
        result.check("base digest equals golden digest", base_digest == golden)
    result.inputs = {"base": manifest.hypergraph_sha256(inputs.base_truth),
                     "source": manifest.hypergraph_sha256(inputs.source)}
    round_s = [a + q for a, q in zip(applies, queries)]
    result.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (1e3 * statistics.median(round_s), "ms"),
        "throughput_per_s": (len(round_s) / sum(round_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "jaccard": (jaccard_similarity(inputs.base_truth, served_base), "ratio"),
        "multi_jaccard": (multi_jaccard_similarity(inputs.base_truth, served_base), "ratio"),
    }
    result.info = {
        "digest": expected,
        "base_digest": base_digest,
        "rounds": rounds,
        "base_edges": inputs.base.num_edges,
        "apply_p50_ms": 1e3 * statistics.median(applies),
        "query_p50_ms": 1e3 * statistics.median(queries),
        "query_p90_ms": 1e3 * percentile(queries, 90),
        "round_s": round_s,
        "server": stats.get("server"),
        "engine": stats.get("engine"),
    }
    return result


class InProcessDaemon:
    """The daemon on threads of this process, so wrappers see it."""

    def __init__(self, model: MARIOH, workdir: Path) -> None:
        self.server = ReconstructionServer(
            serve_engine.StreamingReconstructor(model),
            checkpoint_path=str(workdir / "serve.ckpt"),
        ).start()
        self.client = ServeClient("127.0.0.1", self.server.port, timeout=120.0)

    def stop(self) -> None:
        self.client.shutdown()
        self.client.close()
        self.server.wait(timeout=60)
        self.server.close()


def trace_serve(seed: int, seconds: float, sizes: Sizes) -> Result:
    result = Result("serve-churn")
    rounds = max(1, int(round(sizes.serve_rounds_per_second * seconds / 3)))
    inputs = serve_inputs(seed, rounds, sizes)

    def one_pass(index: int):
        model = serve_fit(inputs)
        daemon = InProcessDaemon(model, fresh_dir(f"serve-trace-{index}"))
        try:
            load_base(daemon.client, inputs, result)
            applies, queries = churn(daemon.client, inputs, sizes.serve_batch, result, rounds)
            final = daemon.client.snapshot()
            engine_stats = dict(daemon.server.engine.stats)
        finally:
            daemon.stop()
        return model, final, engine_stats, applies[0] + queries[0]

    _, first, _, first_s = one_pass(0)
    _, plain_s = timed(lambda: one_pass(1))
    tracer = tracing.Tracer(OBSERVERS)
    with tracing.spans(tracer):
        (model, final, engine_stats, _), traced_s = timed(lambda: one_pass(2))
    counter = tracing.CallCounter()
    with tracing.hot_calls(counter):
        one_pass(3)
    expected = replayed_digest(model, inputs, rounds * sizes.serve_batch)
    result.check("daemon digest equals one-shot reconstruct", final.get("digest") == expected)
    result.check("warm-up pass digest equals one-shot reconstruct", first.get("digest") == expected)

    # The client is closed-loop, so its k-th request is the daemon's
    # k-th handled request.
    client_rtts = tracer.durations("serve.client.ServeClient.request")
    handles = tracer.durations("serve.daemon.ReconstructionServer._handle")
    overheads = [rtt - handle for rtt, handle in zip(client_rtts, handles)]
    hits = engine_stats["component_cache_hits"]
    misses = engine_stats["component_reconstructs"]
    extra = {
        "warmup.first_op_s": first_s,
        "trace.overhead_ratio": traced_s / plain_s,
        "serve.daemon.overhead_ms": 1e3 * statistics.median(overheads) if overheads else 0.0,
        "serve.engine.component_cache_hit_rate": hits / (hits + misses) if hits + misses else 0.0,
        "serve.engine.component_reconstruct_s": tracer.under(
            "core.marioh.MARIOH.reconstruct", "serve.engine.StreamingReconstructor.reconstruction"),
        "core.features.row_cache_hit_rate": model.classifier.featurizer.row_cache_stats()["hit_rate"],
    }
    result.metrics = layer_metrics(tracer, counter, extra)
    result.info = {"digest": expected, "rounds": rounds, "untraced_s": plain_s,
                   "traced_s": traced_s, "hot_warnings": tracing.warn_hot(tracer)}
    result.inputs = {"base": manifest.hypergraph_sha256(inputs.base_truth)}
    write_trace(tracer, "serve-churn", seed)
    return result


# ----------------------------------------------------------------------
# grid-table2: the Table II grid on the resilient orchestrator
# ----------------------------------------------------------------------
def grid_spec(seed: int, sizes: Sizes) -> orchestrator.GridSpec:
    """The preset grid with its two method seeds derived from ``seed``;
    the datasets keep the registry's default generation seed, as in
    Table II."""
    return orchestrator.preset_grid(
        sizes.grid_preset, seeds=tuple(derived(seed, "grid", index) % 2**31 for index in range(2))
    )


GRID_IMPORT = (
    "from repro.experiments import orchestrator, harness; "
    "orchestrator.preset_grid({preset!r}).cells(); harness.method_registry()"
)


def grid_setup(sizes: Sizes) -> float:
    """A fresh interpreter importing the grid entry point and building
    the spec: what ``python -m repro run-grid`` pays before cell one."""
    _, elapsed = timed(lambda: subprocess.run(
        [sys.executable, "-c", GRID_IMPORT.format(preset=sizes.grid_preset)],
        cwd=ROOT, env=subprocess_env(), check=True, timeout=120,
    ))
    return elapsed


def grid_pass(spec: orchestrator.GridSpec, tag: str):
    """One full grid, cells inline, on a fresh store and checkpoint."""
    workdir = fresh_dir(tag)
    # Every pass starts as cold as a fresh ``run-grid`` process: the
    # orchestrator's per-process bundle cache would otherwise serve a
    # later pass's datasets from memory.
    orchestrator._load_bundle.cache_clear()
    store = artifacts.ArtifactStore(workdir / "store")
    with artifacts.using_store(store):
        grid, elapsed = timed(lambda: orchestrator.run_grid(
            spec, workers=1, checkpoint_path=workdir / "grid.ckpt"))
    return grid, elapsed, store


def warmup_spec(spec: orchestrator.GridSpec) -> orchestrator.GridSpec:
    """One cell per method: the first pass in a process pays every
    method's one-time costs, which would otherwise weigh on whichever
    measured pass comes first."""
    return dataclasses.replace(spec, datasets=spec.datasets[:1], seeds=spec.seeds[:1])


def run_grid(seed: int, seconds: float, sizes: Sizes) -> Result:
    result = Result("grid-table2")
    setups = [grid_setup(sizes) for _ in range(SETUPS)]
    spec = grid_spec(seed, sizes)
    warm, warmup_s, _ = grid_pass(warmup_spec(spec), "grid-warm")
    result.check("no failed cells", not warm.failures)
    passes: List[Tuple[object, float]] = []

    def one_pass() -> None:
        grid, elapsed, _ = grid_pass(spec, f"grid-{len(passes)}")
        passes.append((grid, elapsed))
        result.check("no failed cells", not grid.failures)
        result.check("canonical_json identical across passes",
                     grid.canonical_json() == passes[0][0].canonical_json())

    repeat_for(seconds, one_pass, at_least=2)
    canonical = hashlib.sha256(passes[0][0].canonical_json().encode("utf-8")).hexdigest()
    golden = golden_value("grid-table2", seed, sizes)
    if golden is not None:
        result.check("canonical_json equals golden digest", canonical == golden)
    records = [r for grid, _ in passes for r in grid.cells.values() if r.get("status") == "ok"]
    cell_s = [float(r["wall_seconds"]) for r in records]
    n_cells = sum(len(grid.cells) for grid, _ in passes)
    first = [r for r in passes[0][0].cells.values() if r.get("status") == "ok"]
    result.inputs = {"grid_spec": hashlib.sha256(spec.fingerprint().encode("utf-8")).hexdigest()}
    pass_s = [elapsed for _, elapsed in passes]
    result.metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ms": (1e3 * statistics.median(pass_s), "ms"),
        "throughput_per_s": (n_cells / sum(pass_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "jaccard": (statistics.fmean(float(r["jaccard"]) for r in first), "ratio"),
        "multi_jaccard": (statistics.fmean(float(r["multi_jaccard"]) for r in first), "ratio"),
    }
    result.info = {"canonical_sha256": canonical, "passes": len(passes),
                   "warmup_s": warmup_s,
                   "cell_p50_ms": 1e3 * statistics.median(cell_s),
                   "cell_p90_ms": 1e3 * percentile(cell_s, 90),
                   "cells_per_pass": len(passes[0][0].cells), "pass_s": pass_s}
    return result


def trace_grid(seed: int, seconds: float, sizes: Sizes) -> Result:
    result = Result("grid-table2")
    spec = grid_spec(seed, sizes)
    # Warm-up: lazy imports and first-call costs land here, not in the
    # untraced pass the traced one is compared against.
    _, first_s, _ = grid_pass(warmup_spec(spec), "grid-warm")
    plain, plain_s, _ = grid_pass(spec, "grid-plain")
    tracer = tracing.Tracer(OBSERVERS)
    with tracing.spans(tracer):
        grid, traced_s, store = grid_pass(spec, "grid-traced")
    counter = tracing.CallCounter()
    with tracing.hot_calls(counter):
        counted, _, _ = grid_pass(spec, "grid-hot")
    for name, other in (("span pass", grid), ("hot-call pass", counted)):
        result.check(f"{name} canonical_json unchanged", other.canonical_json() == plain.canonical_json())
    result.check("no failed cells", not grid.failures)

    records = [r for r in grid.cells.values() if r.get("status") == "ok"]
    runtime = sum(float(r["runtime_seconds"]) for r in records)
    marioh = sum(float(r["runtime_seconds"]) for r in records if str(r["method"]).startswith("MARIOH"))
    hits, misses = store.stats["hits"], store.stats["misses"]
    extra = {
        "warmup.first_op_s": first_s,
        "trace.overhead_ratio": traced_s / plain_s,
        "experiments.orchestrator.cell_wall_p50_s": statistics.median(float(r["wall_seconds"]) for r in records),
        "experiments.orchestrator.retries": grid.stats.get("retries", 0),
        "experiments.orchestrator.marioh_runtime_share": marioh / runtime if runtime else 0.0,
        "store.artifacts.hit_rate": hits / (hits + misses) if hits + misses else 0.0,
    }
    result.metrics = layer_metrics(tracer, counter, extra)
    result.info = {"untraced_s": plain_s, "traced_s": traced_s, "hot_warnings": tracing.warn_hot(tracer)}
    result.inputs = {"grid_spec": hashlib.sha256(spec.fingerprint().encode("utf-8")).hexdigest()}
    write_trace(tracer, "grid-table2", seed)
    return result


# ----------------------------------------------------------------------
# Per-layer metrics
# ----------------------------------------------------------------------
#: per-layer metric -> (unit, how it is read from the trace).  ``total``
#: is inclusive seconds, ``self`` self seconds, ``calls`` the span count,
#: ``hot``/``hot_calls`` the CallCounter pass; names given as a tuple are
#: summed.  Metrics listed in ``EXTRA_UNITS`` are computed by the
#: workload itself.
SPAN_METRICS: Dict[str, Tuple[str, str, Tuple[str, ...]]] = {
    "core.filtering.filter_s": ("s", "total", ("core.filtering.filter_guaranteed_pairs",)),
    "core.search.sample_s": ("s", "total", ("core.search.sample_subcliques_stable", "core.search.sample_subcliques")),
    "core.search.iterations": ("count", "calls", ("core.search.bidirectional_search",)),
    "core.pool.build_s": ("s", "total", ("core.pool.CliqueCandidatePool.__init__",)),
    "core.pool.check_s": ("s", "total", ("core.pool.CliqueCandidatePool.check_invariants",)),
    "core.pool.update_s": ("s", "total", ("core.pool.CliqueCandidatePool.notify_edges_removed",)),
    "core.classifier.score_s": ("s", "total", ("core.classifier.CliqueClassifier.score",)),
    "core.features.featurize_s": ("s", "self", ("core.features.CliqueFeaturizer.featurize_many", "core.features.StructuralFeaturizer.featurize_many")),
    "ml.mlp.predict_s": ("s", "total", ("ml.mlp.MLPClassifier.predict_score", "ml.mlp.MLPClassifier.predict_proba")),
    "hypergraph.graph.decrement_s": ("s", "total", ("hypergraph.graph.WeightedGraph.decrement_clique",)),
    "hypergraph.graph.decrement_calls": ("count", "calls", ("hypergraph.graph.WeightedGraph.decrement_clique",)),
    "hypergraph.graph.neighbor_sets_s": ("s", "total", ("hypergraph.graph.WeightedGraph.neighbor_sets",)),
    "hypergraph.graph.neighbor_sets_calls": ("count", "calls", ("hypergraph.graph.WeightedGraph.neighbor_sets",)),
    "hypergraph.graph.snapshot_s": ("s", "total", ("hypergraph.graph.WeightedGraph.snapshot",)),
    "hypergraph.graph.touch_stamp_s": ("s", "hot", ("hypergraph.graph.WeightedGraph.clique_touch_stamp",)),
    "hypergraph.graph.touch_stamp_calls": ("count", "hot_calls", ("hypergraph.graph.WeightedGraph.clique_touch_stamp",)),
    "core.classifier.build_training_set_s": ("s", "total", ("core.classifier.CliqueClassifier.build_training_set",)),
    "ml.mlp.fit_s": ("s", "total", ("ml.mlp.MLPClassifier.fit",)),
    "core.marioh.fit_s": ("s", "total", ("core.marioh.MARIOH.fit",)),
    "core.marioh.reconstruct_s": ("s", "total", ("core.marioh.MARIOH.reconstruct",)),
    "serve.engine.apply_s": ("s", "total", ("serve.engine.StreamingReconstructor.apply",)),
    "serve.engine.check_invariants_s": ("s", "total", ("serve.engine.StreamingReconstructor.check_invariants",)),
    "serve.engine.refresh_s": ("s", "total", ("serve.engine.StreamingReconstructor.reconstruction",)),
    "serve.engine.component_digest_s": ("s", "total", ("serve.engine.component_digest",)),
    "resilience.checkpoint.write_s": ("s", "total", ("resilience.checkpoint.CheckpointStore.write",)),
    "resilience.checkpoint.writes": ("count", "calls", ("resilience.checkpoint.CheckpointStore.write",)),
    "datasets.registry.load_s": ("s", "total", ("datasets.registry.load",)),
    "store.artifacts.put_s": ("s", "total", ("store.artifacts.ArtifactStore.put",)),
    "store.artifacts.get_s": ("s", "total", ("store.artifacts.ArtifactStore.get",)),
}

#: counts derived from call arguments and results (Tracer observers).
OBSERVERS = {
    "core.search.bidirectional_search":
        lambda args, result: ("core.search.conversions", result[2]),
    "core.classifier.CliqueClassifier.score":
        lambda args, result: ("core.classifier.scored_candidates", len(args[1])),
}
OBSERVED = ("core.search.conversions", "core.classifier.scored_candidates")

EXTRA_UNITS = {
    "core.features.row_cache_hit_rate": "ratio",
    "hypergraph.graph.weight_patch_hit_rate": "ratio",
    "hypergraph.graph.structural_patch_hit_rate": "ratio",
    "hypergraph.graph.compactions": "count",
    "serve.engine.component_reconstruct_s": "s",
    "serve.engine.component_cache_hit_rate": "ratio",
    "serve.daemon.overhead_ms": "ms",
    "experiments.orchestrator.cell_wall_p50_s": "s",
    "experiments.orchestrator.retries": "count",
    "experiments.orchestrator.marioh_runtime_share": "ratio",
    "store.artifacts.hit_rate": "ratio",
    "warmup.first_op_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.reconstruct_coverage": "ratio",
}


def layer_metrics(tracer: tracing.Tracer, counter: tracing.CallCounter,
                  extra: Dict[str, float]) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric; a layer the workload never reaches reads 0."""
    summary = tracer.summary()
    metrics: Dict[str, Tuple[float, str]] = {}
    for metric, (unit, kind, names) in SPAN_METRICS.items():
        if kind == "hot":
            value = sum(counter.seconds(name) for name in names)
        elif kind == "hot_calls":
            value = sum(counter.calls.get(name, 0) for name in names)
        else:
            field = {"total": "total_s", "self": "self_s", "calls": "calls"}[kind]
            value = sum(summary.get(name, {}).get(field, 0) for name in names)
        metrics[metric] = (value, unit)
    for metric in OBSERVED:
        metrics[metric] = (tracer.counts.get(metric, 0), "count")
    for metric, unit in EXTRA_UNITS.items():
        if metric not in metrics:
            metrics[metric] = (extra.get(metric, 0), unit)
    return metrics


def write_trace(tracer: tracing.Tracer, workload: str, seed: int) -> None:
    WORK.mkdir(parents=True, exist_ok=True)
    tracer.write_chrome_trace(WORK / f"trace-{workload}-seed{seed}.json")


# ----------------------------------------------------------------------
# Golden digests (default seed, full sizes)
# ----------------------------------------------------------------------
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"
DEFAULT_SEED = 0


def golden_value(workload: str, seed: int, sizes: Sizes) -> Optional[str]:
    if seed != DEFAULT_SEED or sizes != FULL or not GOLDEN_PATH.exists():
        return None
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8")).get(workload)


#: workload -> (measured run, traced run), each ``f(seed, seconds, sizes)``.
RUNNERS = {
    "ladder-sparse": (functools.partial(run_ladder, "ladder-sparse"),
                      functools.partial(trace_ladder, "ladder-sparse")),
    "serve-churn": (run_serve, trace_serve),
    "grid-table2": (run_grid, trace_grid),
}
