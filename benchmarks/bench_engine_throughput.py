"""Engine throughput benchmark: branches per second across engines/presets.

Two measurement groups, both on the default single-thread case (Table 3
case1, gcc+calculix, FPGA-prototype core):

* **Engine comparison** (TAGE, baseline preset) under three configurations:

  - ``seed_scalar`` — the per-record reference loop with the storage-layer
    fast paths disabled, i.e. every table access goes through the
    ``TableIsolation`` virtual dispatch exactly as in the seed engine;
  - ``scalar`` — the same per-record loop with this repo's storage fast
    paths active (what ``engine="scalar"`` runs today);
  - ``batched`` — the chunked-trace fast engine (the default).

* **Preset sweep** (batched engine): presets × predictors, so the perf
  trajectory tracks the paper's encoded mechanisms — which ride the fused
  XOR fast paths — and not just the baseline.

Every swept configuration is asserted to actually run on its intended fast
path (monomorphic passthrough or fused-XOR); a silent fallback to the
generic dispatch fails the benchmark rather than quietly reporting wrong
numbers.  Owner-tracking presets (``precise_flush``) have no fast path:
the smoke mode asserts they run the generated generic arm.

Writes ``BENCH_engine.json`` at the repository root.  Run with::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py

CI runs the reduced-scale smoke mode, which measures one encoded preset and
verifies the fast path without touching ``BENCH_engine.json``::

    PYTHONPATH=src python benchmarks/bench_engine_throughput.py \
        --smoke --preset noisy_xor_bp
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from repro.core.registry import resolve_preset  # noqa: E402
from repro.cpu.config import fpga_prototype  # noqa: E402
from repro.cpu.core import SingleThreadCore  # noqa: E402
from repro.experiments.executor import ENGINE_VERSION  # noqa: E402
from repro.experiments.runner import build_bpu  # noqa: E402
from repro.experiments.scaling import ExperimentScale  # noqa: E402
from repro.workloads.pairs import SINGLE_THREAD_PAIRS, make_pair_workloads  # noqa: E402

REPO_ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))
OUTPUT = os.path.join(REPO_ROOT, "BENCH_engine.json")

PAIR = SINGLE_THREAD_PAIRS[0]
SCALE = ExperimentScale()
REPEATS = int(os.environ.get("BENCH_REPEATS", "3"))

#: Preset sweep: baseline (passthrough fast path), the paper's headline
#: full-BP XOR mechanisms (fused-XOR fast path on every structure) and the
#: BTB-heavy presets (fused-XOR packed BTB, passthrough direction tables).
SWEEP_PRESETS = ("baseline", "xor_bp", "noisy_xor_bp", "xor_btb",
                 "noisy_xor_btb")
SWEEP_PREDICTORS = ("tage", "gshare")

#: Figure 10's other predictors with execute kernels; the smoke mode checks
#: that each one's kernel runs its intended arm, not the generic
#: ``DirectionPredictor.execute`` fallback.
SMOKE_KERNEL_PREDICTORS = ("tournament", "ltage", "tage_sc_l")


def _build_core(preset: str = "baseline", predictor: str = "tage",
                scale: ExperimentScale = SCALE) -> SingleThreadCore:
    config = fpga_prototype(predictor)
    workloads = make_pair_workloads(PAIR, seed=scale.seed)
    bpu = build_bpu(config, preset, seed=scale.seed + 1)
    return SingleThreadCore(config, bpu, workloads,
                            time_scale=scale.time_scale,
                            syscall_time_scale=scale.syscall_time_scale)


def _disable_fast_paths(core: SingleThreadCore) -> None:
    """Force every storage access through the isolation virtual dispatch.

    This reverts the monomorphic fast paths added on top of the seed engine,
    so the scalar loop measured afterwards is a faithful stand-in for the
    seed per-record engine (slightly optimistic: it still benefits from
    ``slots`` dataclasses, which makes the reported speedup conservative).
    """
    core.bpu.force_generic_dispatch()


def _expected_arm(mechanism: str, isolation) -> str:
    """Kernel arm a structure protected by ``mechanism`` must run."""
    if isolation.tracks_owner:
        # Owner tracking (Precise Flush) cannot be fused into the packed
        # arrays; its kernels are the generated generic arm.
        return "generic"
    return "fused-xor" if mechanism in ("xor", "noisy_xor") else "passthrough"


def assert_fast_path(core: SingleThreadCore, preset: str) -> None:
    """Fail loudly unless the intended kernel arms are active.

    Expectations are derived per structure from the preset's protection
    config: an XOR-mechanism structure must ride the fused-XOR fast path,
    an owner-tracking one the generic arm, anything else the passthrough
    fast path.  On top of the storage flags, both packed-BTB probe kernels
    (conditional and unconditional) and the direction predictor's execute
    kernel (gshare, TAGE, tournament, LTAGE or TAGE-SC-L) must report the
    matching specialisation arm.  Guards the benchmark and the CI smoke
    step against silent fallbacks to the generic dispatch.
    """
    bpu = core.bpu
    config = resolve_preset(preset)
    tables = bpu.direction.tables()
    want_pht = _expected_arm(config.pht_mechanism, tables[0].isolation)
    want_btb = _expected_arm(config.btb_mechanism, bpu.btb.isolation)
    if want_pht != "generic":
        for table in tables:
            active = (table._xor_fast if want_pht == "fused-xor"
                      else table._fast)
            if not active:
                raise AssertionError(
                    f"{preset}: table {table.name!r} is not on the "
                    f"{want_pht} fast path")
    if want_btb != "generic":
        btb_active = (bpu.btb._xor_fast if want_btb == "fused-xor"
                      else bpu.btb._fast)
        if not btb_active:
            raise AssertionError(f"{preset}: BTB is not on the fast path")
    for kind, kernel in (("conditional", bpu.btb.exec_conditional_kernel(0)),
                         ("unconditional", bpu.btb.exec_indirect_kernel(0))):
        if kernel.arm != want_btb:
            raise AssertionError(
                f"{preset}: {kind} BTB probe kernel runs the "
                f"{kernel.arm!r} arm, expected {want_btb!r}")
    exec_kernel = getattr(bpu.direction, "exec_kernel", None)
    if exec_kernel is None:
        raise AssertionError(
            f"{preset}: {bpu.direction.name} has no execute kernel and "
            "falls back to DirectionPredictor.execute")
    dir_arm = getattr(exec_kernel(0), "arm", None)
    if dir_arm != want_pht:
        raise AssertionError(
            f"{preset}: {bpu.direction.name} kernel runs the "
            f"{dir_arm!r} arm, expected {want_pht!r}")
    build_masks = getattr(bpu.direction, "_build_kernel_masks", None)
    if build_masks is not None:
        bundle = build_masks(0)
        arm = ("generic" if bundle is False
               else "fused-xor" if bundle[0] else "passthrough")
        if arm != want_pht:
            raise AssertionError(
                f"{preset}: TAGE kernel masks select the {arm!r} arm, "
                f"expected {want_pht!r}")


def _measure(engine: str, *, preset: str = "baseline", predictor: str = "tage",
             seed_equivalent: bool = False, repeats: int = REPEATS,
             scale: ExperimentScale = SCALE,
             check_fast_path: bool = False) -> dict:
    best = 0.0
    branches = 0
    for _ in range(repeats):
        core = _build_core(preset, predictor, scale)
        if seed_equivalent:
            _disable_fast_paths(core)
        elif check_fast_path:
            assert_fast_path(core, preset)
        start = time.perf_counter()
        result = core.run(target_branches=scale.st_target_branches,
                          warmup_branches=scale.st_warmup_branches,
                          engine=engine)
        elapsed = time.perf_counter() - start
        branches = sum(t.branches for t in result.threads.values())
        best = max(best, branches / elapsed)
        if check_fast_path and not seed_equivalent:
            # Re-check after the run: switches re-randomise masks mid-run
            # and must land back on the fast path, not the generic one.
            assert_fast_path(core, preset)
    return {"branches_per_second": round(best, 1),
            "branches_simulated": branches}


def run_smoke(preset: str, repeats: int) -> None:
    """Reduced-scale CI smoke: measure one preset, verify its kernel arms.

    TAGE is measured over ``repeats`` runs; the tournament, LTAGE and
    TAGE-SC-L kernels are checked over one run each.
    """
    scale = ExperimentScale(st_target_branches=4_000, st_warmup_branches=1_000)
    entry = _measure("batched", preset=preset, repeats=repeats, scale=scale,
                     check_fast_path=True)
    print(f"smoke {preset}: "
          f"{entry['branches_per_second']:,.0f} branches/s "
          f"({entry['branches_simulated']} branches), kernel arms verified")
    for predictor in SMOKE_KERNEL_PREDICTORS:
        entry = _measure("batched", preset=preset, predictor=predictor,
                         repeats=1, scale=scale, check_fast_path=True)
        print(f"smoke {preset} {predictor}: "
              f"{entry['branches_per_second']:,.0f} branches/s, "
              "kernel arms verified")


def main(argv=None) -> dict:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true",
                        help="reduced-scale fast-path smoke (no JSON output)")
    parser.add_argument("--preset", default="noisy_xor_bp",
                        help="preset used by --smoke (default: noisy_xor_bp)")
    parser.add_argument("--repeats", type=int, default=REPEATS)
    args = parser.parse_args(argv)

    if args.smoke:
        run_smoke(args.preset, args.repeats)
        return {}

    print(f"case={PAIR.case} ({PAIR.label()}), config=fpga_prototype, "
          f"engine={ENGINE_VERSION}, repeats={args.repeats}")
    engines = {}
    for label, engine, seed_equivalent in (
            ("seed_scalar", "scalar", True),
            ("scalar", "scalar", False),
            ("batched", "batched", False)):
        engines[label] = _measure(engine, seed_equivalent=seed_equivalent,
                                  repeats=args.repeats,
                                  check_fast_path=not seed_equivalent)
        print(f"  {label:12s} {engines[label]['branches_per_second']:>12,.0f} "
              "branches/s")

    presets = {}
    for predictor in SWEEP_PREDICTORS:
        presets[predictor] = {}
        for preset in SWEEP_PRESETS:
            entry = _measure("batched", preset=preset, predictor=predictor,
                             repeats=args.repeats, check_fast_path=True)
            presets[predictor][preset] = entry
            print(f"  {predictor:7s}/{preset:12s} "
                  f"{entry['branches_per_second']:>12,.0f} branches/s")

    batched = engines["batched"]["branches_per_second"]
    payload = {
        "benchmark": "engine_throughput",
        "engine_version": ENGINE_VERSION,
        "case": PAIR.case,
        "pair": PAIR.label(),
        "preset": "baseline",
        "config": "fpga_prototype",
        "target_branches": SCALE.st_target_branches,
        "warmup_branches": SCALE.st_warmup_branches,
        "engines": engines,
        "presets": presets,
        "speedup_batched_vs_seed_scalar": round(
            batched / engines["seed_scalar"]["branches_per_second"], 2),
        "speedup_batched_vs_scalar": round(
            batched / engines["scalar"]["branches_per_second"], 2),
    }
    with open(OUTPUT, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"speedup vs seed scalar loop: "
          f"{payload['speedup_batched_vs_seed_scalar']}x")
    print(f"wrote {OUTPUT}")
    return payload


if __name__ == "__main__":
    main()
