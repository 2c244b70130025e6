"""fracweyl benchmark: fixed campaigns of CLI commands, checked and timed.

Run from the repository root:

    python3 bench/run.py --workload coefficients --seed 1 --seconds 30 --trace 0

One process, one client in a closed loop: the workload's commands go to
``fracweyl.cli.main(argv)`` back to back, and the whole list is repeated
while the next pass is expected to end within ``--seconds`` (at least one
pass).  ``--seed`` draws the fractional order ``s`` for every command that
takes ``--s``.  Each command's output is checked against bounds the
repository already uses; a failed command or check counts toward the
failures and does not stop the run.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json; ``--trace 1``
installs the wrappers of ``tracer.py`` and reports the per-layer metrics.
The workload times are scaled to a fixed host speed, measured during the
pass with the reference kernel of ``hostspeed.py``; the wall time is
printed beside them.
The last line of standard output is the JSON result; the lines before it
give the host, every metric with its unit, and the per-command figures.
The full record (with the spans of a traced run) goes to
``bench/results/<workload>-seed<seed>-trace<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

BLAS_THREADS = min(2, len(os.sched_getaffinity(0)))
S_RANGE = (0.4, 0.6)
SETUP_SAMPLES = 3

# Output bounds that already exist in the repository.
ROUTE_AGREEMENT_TOL = 1e-2   # A4, tests/test_acceptance.py
HALFSPACE_TOL = 0.10         # pass bound of lattice.halfspace_kernel_check

WORKLOADS = ("coefficients", "square", "checks")


def commands(workload: str, s: float) -> list[list[str]]:
    """The workload's fracweyl command lines; see bench/README.md for why."""
    S = repr(s)
    if workload == "coefficients":
        return [["constants", "--s", S, "--d", "2", "--volume", "1", "--surface", "4"]]
    if workload == "square":
        return [["verify-square", "--s", S, "--lattice-points", "64"]]
    if workload == "checks":
        return [["verify-halfspace", "--s", S, "--h", "0.5"],
                ["order-check", "--s-list", "0.25,0.5,0.75",
                 "--interval-points", "256", "--square-points", "40"],
                ["localization-check", "--shape", "disk", "--resolution", "16", "--points", "64"],
                ["localization-check", "--shape", "interval", "--resolution", "16",
                 "--points", "64"]]
    raise ValueError(f"unknown workload {workload!r}")


def draw_s(workload: str, seed: int) -> float:
    return random.Random(f"{seed}:{workload}").uniform(*S_RANGE)


def pin_blas():
    """Pin BLAS threads; takes effect only before numpy is first imported."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread pin")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def import_library():
    """Import the library into this process; returns (cli module, seconds)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    from fracweyl import cli
    return cli, time.perf_counter() - t0


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import fracweyl.cli; "
                 "print(repr(time.perf_counter() - t))")


def setup_samples(count: int) -> list[float]:
    """Import time of the library in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def host_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"nproc": len(os.sched_getaffinity(0)),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": BLAS_THREADS,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# -- output checks -----------------------------------------------------------

def parse_record(text: str) -> dict:
    """CSV record of a fracweyl command: name -> value."""
    lines = text.strip().splitlines()
    if not lines or lines[0] != "name,value,err,route":
        raise ValueError("output is not a fracweyl CSV record")
    return {name: float(value) for name, value, _ in
            (line.split(",", 2) for line in lines[1:])}


def check_constants(cli, argv, rec):
    l2, tilde = rec["L2"], rec["L2_tilde"]
    routes = (l2, rec["L2_eigenfunction"], rec["L2_energy_shift"])
    spread = max(abs(a - b) / max(abs(a), abs(b))
                 for i, a in enumerate(routes) for b in routes[i + 1:])
    failures = []
    if not 0.0 < l2 < tilde:
        failures.append(f"0 < L2 < L2_tilde violated: L2={l2!r}, L2_tilde={tilde!r}")
    if not spread < ROUTE_AGREEMENT_TOL:
        failures.append(f"L2 routes differ by {spread!r} (bound {ROUTE_AGREEMENT_TOL})")
    return failures, {"l2_route_spread": spread}


def check_square(cli, argv, rec):
    args = cli.build_parser().parse_args(argv)
    failures = []
    for key, tol in (("c0_rel_dev", args.c0_tol), ("c1_rel_dev", args.c1_tol)):
        if not rec[key] < tol:
            failures.append(f"{key}={rec[key]!r} not below {tol}")
    return failures, {"c0_rel_dev": rec["c0_rel_dev"], "c1_rel_dev": rec["c1_rel_dev"]}


def check_halfspace(cli, argv, rec):
    worst = rec["worst_rel_in_window"]
    failures = [] if worst < HALFSPACE_TOL else [
        f"halfspace_worst_rel={worst!r} not below {HALFSPACE_TOL}"]
    return failures, {"halfspace_worst_rel": worst}


CHECKS = {"constants": check_constants, "verify-square": check_square,
          "verify-halfspace": check_halfspace}

def run_command(cli, argv, speed=None) -> dict:
    """One command, timed, with its exit code and output checks.

    The time leaves out what ``speed``'s reference kernel took meanwhile.
    """
    buf = io.StringIO()
    failures, accuracy = [], {}
    busy0 = speed.busy if speed is not None else 0.0
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
    except Exception:  # a crashing command is a failed command; the run goes on
        traceback.print_exc()
        code = None
    elapsed = time.perf_counter() - t0
    if speed is not None:
        elapsed -= speed.busy - busy0
    if code != 0:
        failures.append(f"exit code {code}")
    elif argv[0] in CHECKS:
        try:
            failures, accuracy = CHECKS[argv[0]](cli, argv, parse_record(buf.getvalue()))
        except (ValueError, KeyError) as exc:
            failures.append(f"unreadable output: {exc!r}")
    return {"argv": argv, "exit": code, "seconds": elapsed, "failures": failures,
            "accuracy": accuracy}


def run_passes(cli, cmds, seconds, tracer=None, speed=None) -> list[list[dict]]:
    """Closed loop over the command list until the time is up (>= 1 pass)."""
    passes = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results = []
        for argv in cmds:
            if tracer is not None:
                tracer.run += 1
            results.append(run_command(cli, argv, speed))
        passes.append(results)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return passes


# -- metrics -----------------------------------------------------------------

def command_metric(argv) -> str:
    return argv[0].replace("-", "_") + "_s"


def end_to_end(passes, setup, factor=1.0) -> tuple[dict, dict]:
    """(end-to-end metrics, report-only metrics with units).

    The pass times are wall times scaled by the host-speed ``factor``; the
    import times in ``setup`` are wall times.
    """
    flat = [r for p in passes for r in p]
    failed = sum(1 for r in flat if r["failures"])
    workload_wall = statistics.median(sum(r["seconds"] for r in p) for p in passes)
    metrics = {
        "setup_s": statistics.median(setup),
        "workload_s": workload_wall * factor,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_share": 1.0 - failed / len(flat),
    }
    report = {"workload_wall_s": (workload_wall, "s"), "host_factor": (factor, "ratio")}
    for name in dict.fromkeys(command_metric(r["argv"]) for r in passes[0]):
        per_pass = [sum(r["seconds"] for r in p if command_metric(r["argv"]) == name)
                    for p in passes]
        report[name] = (statistics.median(per_pass) * factor, "s")
    report["fail_share"] = (failed / len(flat), "ratio")
    for r in passes[-1]:
        for key, value in r["accuracy"].items():
            report[key] = (value, "ratio")
    return metrics, report


LAYER_FIELDS = {".calls": 0, ".total_s": 1, ".self_s": 2, "_s": 1}


def per_layer(tracer, names, npasses, traced_s) -> dict:
    """Per-layer metrics of a traced run, per pass of the workload.

    A name is ``<traced name><suffix>`` with a suffix of LAYER_FIELDS (a
    bare ``_s`` is the total), a tracer counter, or one of the values
    computed below.
    """
    from tracer import COUNTERS, TARGETS
    totals = tracer.totals()
    traced = {name for _, _, name, _ in TARGETS}
    lookups = totals.get("halfline.gamma_table", (0,))[0]
    built = totals.get("halfline.gamma_values", (0,))[0]
    used, computed = tracer.used_eigenvalues()
    special = {
        "halfline.density_hit_ratio": (lookups - built) / lookups if lookups else 0.0,
        "lattice.eig_used_ratio": used / computed if computed else 0.0,
        "lattice.build_restricted_fractional.n_max": max(
            (a["n"] for a in tracer.span_attrs.values()), default=0),
        "trace.workload_s": traced_s,
        "trace.overhead_s": tracer.overhead_s() / npasses,
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        elif name in COUNTERS:
            out[name] = tracer.counters.get(name, 0) / npasses
        else:
            for suffix, field in LAYER_FIELDS.items():
                base = name[:-len(suffix)]
                if name.endswith(suffix) and base in traced:
                    out[name] = totals.get(base, (0, 0.0, 0.0))[field] / npasses
                    break
    return out


def with_units(values: dict, specs: list) -> dict:
    out = {}
    for spec in specs:
        if spec["name"] not in values:
            raise KeyError(f"benchmark computes no value for metric {spec['name']!r}")
        out[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    return out


# -- entry point -------------------------------------------------------------

def measure(workload, seed, seconds, trace, cmds=None) -> dict:
    """Run one workload; returns the full record (result under 'result').

    ``cmds`` defaults to the workload's command list; the self-check
    passes tiny commands instead.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    cli, import_s = import_library()
    s = draw_s(workload, seed)
    cmds = commands(workload, s) if cmds is None else cmds
    record = {"workload": workload, "seed": seed, "s": s, "trace": trace,
              "host": host_record(), "commands": cmds}
    if trace:
        from tracer import Tracer  # imports numpy, so only after the BLAS pin
        tracer = Tracer()
        tracer.install()
        try:
            passes = run_passes(cli, cmds, seconds, tracer)
        finally:
            tracer.uninstall()
        traced_s = statistics.median(sum(r["seconds"] for r in p) for p in passes)
        values = per_layer(tracer, [m["name"] for m in spec["per_layer"]],
                           len(passes), traced_s)
        metrics = with_units(values, spec["per_layer"])
        report = {}
        record["trace_data"] = tracer.dump()
    else:
        from hostspeed import HostSpeed, factor  # imports numpy: after the BLAS pin
        setup = [import_s] + setup_samples(SETUP_SAMPLES - 1)
        HostSpeed().calibrate()  # warm-up, not kept
        with HostSpeed() as speed:
            passes = run_passes(cli, cmds, seconds, speed=speed)
        if not speed.samples:  # a pass shorter than the sampling period
            speed.calibrate()
        values, report = end_to_end(passes, setup, factor(speed.samples))
        metrics = with_units(values, spec["end_to_end"])
        record["setup_samples_s"] = setup
        record["host_speed"] = {"factor": report["host_factor"][0],
                                "samples_s": speed.samples}
    flat = [r for p in passes for r in p]
    failed = sum(1 for r in flat if r["failures"])
    record["passes"] = passes
    record["report"] = report
    record["result"] = {"correct": failed == 0, "attempted": len(flat), "failed": failed,
                        "metrics": metrics}
    return record


def print_record(record):
    host = record["host"]
    print("host: " + ", ".join(f"{k}={v}" for k, v in host.items()))
    print(f"workload={record['workload']} seed={record['seed']} s={record['s']!r} "
          f"passes={len(record['passes'])}")
    for r in record["passes"][-1]:
        status = "ok" if not r["failures"] else "FAILED: " + "; ".join(r["failures"])
        print(f"command {' '.join(r['argv'])}: {r['seconds']:.3f} s, {status}")
    for name, m in record["result"]["metrics"].items():
        print(f"{name} {m['value']!r} {m['unit']}")
    for name, (value, unit) in record["report"].items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps(record["result"]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "fracweyl" / "cli.py").is_file():
        print(f"fracweyl sources not found under {SRC}", file=sys.stderr)
        return 2
    pin_blas()
    record = measure(args.workload, args.seed, args.seconds, args.trace)
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record))
    print_record(record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
