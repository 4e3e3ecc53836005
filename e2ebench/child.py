"""One fresh-process step of the end-to-end benchmark (driven by ``run.py``).

Modes:

``probe``
    Import the package, plan the manifest and open the result store, then
    exit: the set-up part of a ``run all`` on its own.
``run``
    The real pipeline: ``build_manifest`` -> ``run_serial`` (with
    ``keep_going`` so failed cases are counted, not raised) ->
    ``write_outputs``.  With ``--trace``, timed spans are recorded around the
    calls into each layer's public functions (patched where their callers
    look them up; the package itself is not instrumented) and written to
    ``--spans`` when the run ends.
``verify``
    Audit a filled store against the manifest: every planned case must be
    present and digest-verified, and a seed-chosen sample of cases is
    re-simulated in-process (serial, no cache) and compared field by field
    with the stored result.  Also sums the measured-phase branches of the
    planned cases.

Every mode writes a JSON report to ``--report``.  ``run.py`` gives this
process a scrubbed environment with ``PYTHONPATH`` pointing at ``src``.
"""

from __future__ import annotations

import argparse
import builtins
import json
import random
import re
import sys
import time

from repro.experiments.executor import (
    ENGINE_VERSION,
    RunResultCache,
    SweepExecutor,
)
from repro.experiments.manifest import build_manifest
from repro.experiments.pipeline import run_serial
from repro.experiments.scaling import ExperimentScale
from repro.experiments.store import ResultStore

_KERNEL_SOURCE = re.compile(r"^<[^>]*kernel[^>]*>$")
#: Cases ``verify`` re-simulates in-process to check the store.
VERIFY_SAMPLE = 4


class Tracer:
    """In-memory span recorder for one serial run.

    A span is ``{id, name, start, end, parent, run}`` plus optional
    attributes; ``parent`` is the span open when it started (the run is
    serial, so open spans always nest).
    """

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans = []
        self._open = []

    def begin(self, name: str, **attrs) -> dict:
        span = {"id": len(self.spans), "name": name, "run": self.run_id,
                "parent": self._open[-1]["id"] if self._open else None,
                "start": time.perf_counter(), "end": None}
        span.update(attrs)
        self.spans.append(span)
        self._open.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        span = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(span)

    def patch(self, owner, attr: str, name: str, annotate=None) -> None:
        """Replace ``owner.attr`` by a wrapper timing each call as ``name``.

        ``annotate(span, args, kwargs, result)`` may add attributes to the
        span.
        """
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.begin(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.end(span)
                if annotate is not None:
                    annotate(span, args, kwargs, result)

        setattr(owner, attr, traced)

    def patch_generator(self, owner, attr: str, name: str) -> None:
        """Time every ``next()`` of the generator ``owner.attr`` returns."""
        original = getattr(owner, attr)
        tracer = self

        def traced(*args, **kwargs):
            inner = original(*args, **kwargs)
            while True:
                span = tracer.begin(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    tracer.end(span)
                yield item

        setattr(owner, attr, traced)


def _branches(result) -> int:
    return sum(stats.branches for stats in result.threads.values())


def install_layer_spans(tracer: Tracer) -> None:
    """Patch each layer's public entry points with timing wrappers."""
    from repro.attacks import harness
    from repro.cpu.core import SingleThreadCore
    from repro.cpu.smt import SmtCore
    from repro.experiments import ablations, pipeline, poc_attacks, runner
    from repro.security import analysis
    from repro.workloads.generator import SyntheticWorkload

    def pair_seed(span, args, kwargs, _result):
        span["pair"] = args[0].case
        span["seed"] = kwargs.get("seed", args[1] if len(args) > 1 else 0)

    def predictor_branches(span, _args, _kwargs, result):
        if result is not None:
            span["predictor"] = result.predictor
            span["branches"] = _branches(result)

    def experiment_key(span, args, _kwargs, _result):
        span["experiment"] = args[0].key

    tracer.patch(runner, "make_pair_workloads", "workloads.build",
                 annotate=pair_seed)
    tracer.patch_generator(SyntheticWorkload, "record_batches",
                           "workloads.trace")
    tracer.patch(runner, "build_bpu", "core.build_bpu")
    tracer.patch(SingleThreadCore, "run", "cpu.st_run",
                 annotate=predictor_branches)
    tracer.patch(SmtCore, "run", "cpu.smt_run", annotate=predictor_branches)
    tracer.patch(runner, "run_single_thread_case", "case")
    tracer.patch(runner, "run_smt_case", "case")
    tracer.patch(ResultStore, "put", "store.put")
    tracer.patch(ResultStore, "get", "store.get")
    tracer.patch(pipeline, "assemble_experiment", "pipeline.assemble",
                 annotate=experiment_key)
    tracer.patch(pipeline, "write_outputs", "pipeline.write")
    tracer.patch(pipeline, "register_store_manifest",
                 "pipeline.register_manifest")
    for module in (harness, analysis, poc_attacks, ablations):
        tracer.patch(module, "run_attack", "attacks.run_attack")

    # Kernel sources are compiled through the builtin, which is where the
    # predictor modules look ``compile`` up.
    original_compile = builtins.compile

    def traced_compile(source, filename, *args, **kwargs):
        if not (isinstance(filename, str) and _KERNEL_SOURCE.match(filename)):
            return original_compile(source, filename, *args, **kwargs)
        return tracer.call("engine.kernel_compile", original_compile,
                           source, filename, *args, **kwargs)

    builtins.compile = traced_compile


def _plan(args):
    keys = None if args.experiments == "all" else args.experiments.split(",")
    scale = ExperimentScale(seed=args.seed).scaled_by(args.scale)
    return build_manifest(keys=keys, scale=scale)


def _probe(args) -> dict:
    _plan(args)
    ResultStore(args.store)
    return {"setup_end": time.monotonic()}


def _run(args) -> dict:
    tracer = Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        install_layer_spans(tracer)
        manifest = tracer.call("manifest.plan", _plan, args)
        store = tracer.call("store.open", ResultStore, args.store)
    else:
        manifest = _plan(args)
        store = ResultStore(args.store)
    executor = SweepExecutor(jobs=args.jobs,
                             cache=RunResultCache(directory=False,
                                                  store=store),
                             keep_going=True)
    if tracer is not None:
        tracer.call("pipeline.run_serial", run_serial, manifest,
                    out_dir=args.out, executor=executor)
        with open(args.spans, "w", encoding="utf-8") as handle:
            json.dump(tracer.spans, handle)
    else:
        run_serial(manifest, out_dir=args.out, executor=executor)
    return {"manifest_hash": manifest.manifest_hash(),
            "experiments": manifest.keys,
            "unique_cases": len(manifest.unique_cases()),
            "simulated": executor.simulated,
            "cache_hits": executor.cache.hits,
            "store_hits": executor.cache.store_hits,
            "failures": len(executor.failures)}


def _verify(args) -> dict:
    from repro.cpu.stats import run_result_to_dict

    manifest = _plan(args)
    store = ResultStore(args.store)
    unique = manifest.unique_cases()
    missing = []
    branches = 0
    for key in unique:
        result = store.get(key)
        if result is None:
            missing.append(key)
        else:
            branches += _branches(result)
    sample = random.Random(args.seed).sample(sorted(unique),
                                             min(VERIFY_SAMPLE, len(unique)))
    reference = SweepExecutor(jobs=1, cache=RunResultCache(directory=False,
                                                           store=False))
    mismatched = []
    for key in sample:
        stored = store.get(key)
        fresh = reference.run_spec(unique[key])
        if stored is None or (run_result_to_dict(stored)
                              != run_result_to_dict(fresh)):
            mismatched.append(key)
    return {"unique_cases": len(unique), "missing": missing,
            "resimulated": sample, "mismatched": mismatched,
            "branches": branches}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("mode", choices=("probe", "run", "verify"))
    parser.add_argument("--experiments", required=True,
                        help="comma-separated experiment keys, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--report", required=True)
    parser.add_argument("--out")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans")
    parser.add_argument("--run-id", default="run")
    args = parser.parse_args(argv)
    mode = {"probe": _probe, "run": _run, "verify": _verify}[args.mode]
    report = mode(args)
    report["engine"] = ENGINE_VERSION
    with open(args.report, "w", encoding="utf-8") as handle:
        json.dump(report, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
