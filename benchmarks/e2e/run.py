"""The repo's benchmark: four closed-loop workloads, socket to socket.

One workload, one process (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload bulk_churn --seed 12 --seconds 10 --trace 0

prints every metric by name with its unit, checks answers, and ends with
one JSON line ``{"correct", "attempted", "failed", "metrics"}`` — the
end-to-end metrics with ``--trace 0``, the per-layer ones with
``--trace 1``.

Every workload, each in a fresh process::

    python3 benchmarks/e2e/run.py [--seed N] [--trace] [--quick] [--repeat N]

and ``run.py compare A.json B.json`` judges two result files against the
bounds in ``BENCHMARK.json``.  See README.md for the glossary.
"""

from __future__ import annotations

import argparse
import json
import signal
import statistics
import subprocess
import sys

import config

if not (config.SRC_DIR / "repro").is_dir():
    raise SystemExit(f"no program to measure: {config.SRC_DIR / 'repro'} is missing")
sys.path.insert(0, str(config.SRC_DIR))

import harness  # noqa: E402
import inproc  # noqa: E402
import layers  # noqa: E402
import measure  # noqa: E402
import wire  # noqa: E402

QUICK_SECONDS = 1.0


def benchmark_contract() -> dict:
    return json.loads((config.REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _pass_name(trace: bool) -> str:
    return "traced" if trace else "untraced"


def result_path(workload: str, trace: bool):
    return config.OUT_DIR / f"{workload}.{_pass_name(trace)}.json"


# -- one workload, this process -------------------------------------------


def run_workload(name: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    shape = config.shape_for(name, quick)
    transport_class = inproc.InProcess if shape.transport == "inproc" else wire.Wire

    def too_long(signum, frame):
        raise TimeoutError(f"{name} ran past {config.HARD_TIMEOUT_S:.0f} s")

    signal.signal(signal.SIGALRM, too_long)
    signal.alarm(int(config.HARD_TIMEOUT_S))
    transport = transport_class(shape, trace)
    try:
        return harness.run(transport, shape, seed, seconds)
    finally:
        # Every exit path, KeyboardInterrupt included, stops the child.
        transport.close()
        signal.alarm(0)


def print_workload(result: dict, contract: dict) -> None:
    window = result["window"]
    print(
        f"== {result['workload']} · seed {result['env']['seed']} · "
        f"{window['rounds']} timed rounds · {_pass_name(result['traced'])} =="
    )
    for metric in contract["end_to_end"]:
        name = metric["name"]
        note = ""
        if name == "setup_s":
            note = "median of " + " ".join(f"{s:.3f}" for s in window["setup_samples_s"])
        elif name == "cycle_p50_s":
            note = f"n={window['rounds']}"
        print(f"  {name:<28}{result['end_to_end'][name]:>16.6g} {metric['unit']:<6}{note}")
    if window["tail_percentile"] is None:
        tail = f"none: {window['rounds']} rounds leave no percentile 10 samples beyond it"
    else:
        tail = f"p{window['tail_percentile']:g} = {window['tail_s']:.6g} s (n={window['rounds']})"
    print(f"  {'e2e.cycle_tail_s':<28}{tail}")
    print(f"  {'e2e.cycle_iqr_s':<28}{window['iqr_s']:>16.6g} s")
    for name, value in result["per_layer"].items():
        unit = layers.LAYER_METRICS[name][0]
        source = "  source: program-counter" if name in layers.PROGRAM_COUNTERS else ""
        print(f"  {name:<28}{value:>16.6g} {unit:<6}{source}")
    ratio = result["failed"] / result["attempted"]
    print(f"  {'fail_ratio':<28}{ratio:>16.6g} ratio ({result['failed']} of {result['attempted']})")
    for text in result["failures"]:
        print(f"    FAILED {text}")


def contract_line(result: dict, contract: dict) -> str:
    """The last line of stdout the driver reads."""
    if result["traced"]:
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
        values = result["per_layer"]
    else:
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
        values = result["end_to_end"]
    return json.dumps(
        {
            "correct": result["failed"] == 0,
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {
                name: {"value": values[name], "unit": unit}
                for name, unit in units.items()
            },
        }
    )


# -- every workload, a fresh process each -----------------------------------


def run_all(args, contract: dict) -> int:
    names = [w["name"] for w in contract["workloads"]]
    passes = [False, True] if args.trace else [False]
    runs: dict[str, list[dict]] = {name: [] for name in names}
    traced: dict[str, dict] = {}
    failed = 0
    for repeat in range(args.repeat):
        for trace in passes if repeat == 0 else [False]:
            for name in names:
                command = [
                    sys.executable, __file__, "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds),
                    "--trace", str(int(trace)),
                ] + (["--quick"] if args.quick else [])
                done = subprocess.run(
                    command, timeout=config.HARD_TIMEOUT_S + 10, stdout=subprocess.PIPE, text=True
                )
                # Everything but the driver's JSON line, which ends a good run.
                lines = done.stdout.splitlines()
                print("\n".join(lines[:-1] if done.returncode == 0 else lines))
                if done.returncode != 0:
                    print(f"{name}: exit code {done.returncode}")
                    failed += 1
                    continue
                result = json.loads(result_path(name, trace).read_text(encoding="utf-8"))
                failed += result["failed"]
                if trace:
                    traced[name] = result
                else:
                    runs[name].append(result)
    for name, result in traced.items():
        if runs[name]:
            base = runs[name][0]["end_to_end"]["cycle_p50_s"]
            overhead = result["end_to_end"]["cycle_p50_s"] / base - 1.0
            print(f"{name}: trace.overhead_ratio {overhead:+.3f} (traced cycle_p50_s / untraced - 1)")
    document = {
        "quick": args.quick,
        "seconds": args.seconds,
        "runs": runs,
        "traced": traced,
    }
    out = config.OUT_DIR / ("results.quick.json" if args.quick else "results.json")
    out.write_text(json.dumps(document, indent=1), encoding="utf-8")
    if args.repeat > 1:
        print_spreads(runs, contract)
    print(f"wrote {out.relative_to(config.REPO_ROOT)}")
    return 1 if failed else 0


def metric_values(runs: list[dict], metric: str) -> list[float]:
    return [run["end_to_end"][metric] for run in runs]


def print_spreads(runs: dict[str, list[dict]], contract: dict) -> None:
    print(f"{'workload':<16}{'metric':<26}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
    for name, results in runs.items():
        for metric in contract["end_to_end"]:
            s = measure.quartile_spread(metric_values(results, metric["name"]))
            print(
                f"{name:<16}{metric['name']:<26}{s['median']:>12.6g}{s['q1']:>12.6g}"
                f"{s['q3']:>12.6g}{s['spread']:>9.4f}{metric['bound']:>7.2f}"
            )


# -- compare ----------------------------------------------------------------


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``ok`` / ``worse`` / ``unresolved`` per the choosing-metrics guide
    §6.5: a median no worse than the parent's by more than the bound is
    ``ok``; when run-to-run spread is wider than the bound the pairing is
    ``unresolved`` unless every run of the change beats every parent run."""
    sign = 1.0 if better == "lower" else -1.0
    base = statistics.median(parent)
    worsening = sign * (statistics.median(change) - base) / base
    spread = max(
        measure.quartile_spread(parent)["spread"], measure.quartile_spread(change)["spread"]
    )
    if spread > bound:
        all_better = max(sign * v for v in change) < min(sign * v for v in parent)
        return "ok" if all_better else "unresolved"
    return "worse" if worsening > bound else "ok"


def compare(path_a: str, path_b: str, contract: dict) -> int:
    with open(path_a, encoding="utf-8") as a, open(path_b, encoding="utf-8") as b:
        parent, change = json.load(a), json.load(b)
    if parent["quick"] or change["quick"]:
        print("warning: --quick results — populations too small for the bounds to mean anything")
    parent, change = parent["runs"], change["runs"]
    print(f"{'workload':<16}{'metric':<26}{'parent':>12}{'change':>12}{'delta':>9}{'bound':>7}  verdict")
    worse = 0
    for name in parent:
        for metric in contract["end_to_end"]:
            a_values = metric_values(parent[name], metric["name"])
            b_values = metric_values(change.get(name, []), metric["name"])
            if not a_values or not b_values:
                continue
            a_median, b_median = statistics.median(a_values), statistics.median(b_values)
            outcome = verdict(a_values, b_values, metric["better"], metric["bound"])
            worse += outcome == "worse"
            print(
                f"{name:<16}{metric['name']:<26}{a_median:>12.6g}{b_median:>12.6g}"
                f"{(b_median - a_median) / a_median:>+9.3f}{metric['bound']:>7.2f}  {outcome}"
                f" (n={len(a_values)} vs {len(b_values)})"
            )
    return 1 if worse else 0


# -- command line -------------------------------------------------------------


def main(argv: list[str]) -> int:
    contract = benchmark_contract()
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            raise SystemExit("usage: run.py compare A.json B.json")
        return compare(argv[1], argv[2], contract)

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, default=config.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measure for this long (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0, choices=(0, 1),
                        help="record spans and report the per-layer table")
    parser.add_argument("--quick", action="store_true",
                        help="a tenth of the populations, bounds off: smoke use only")
    parser.add_argument("--repeat", type=int, default=1,
                        help="run the whole untraced set N times and print spreads")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = QUICK_SECONDS if args.quick else float(contract["run_seconds"])
    config.require_numpy()
    config.OUT_DIR.mkdir(exist_ok=True)

    if args.workload is None:
        return run_all(args, contract)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
    result_path(args.workload, bool(args.trace)).write_text(
        json.dumps(result, indent=1), encoding="utf-8"
    )
    print_workload(result, contract)
    print(contract_line(result, contract))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
