"""Fast self-check of the benchmark harness, at tiny sizes.

    python3 bench/selfcheck.py

Takes seconds, not the minutes of a real run.  It checks:

* the tracer's call counts, per-parent aggregates and self times on a
  small nested call tree;
* the output checks, on passing and failing fracweyl records;
* that the host-speed sampler takes reference samples while a command
  runs, and that their time is left out of the command's time;
* that every end-to-end and per-layer metric of BENCHMARK.json is emitted
  with its unit for every workload, in both modes, with tiny commands in
  place of the real ones;
* that the per-command timings and accuracy figures of the real command
  lists are reported with their units;
* that the benchmark exits non-zero, printing no result, where the
  library sources are missing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time

import run

run.pin_blas()

import hostspeed  # noqa: E402  (numpy must load after the pin)
from tracer import Tracer  # noqa: E402


def tiny_commands(workload: str, s: float) -> list[list[str]]:
    S = repr(s)
    return {
        "coefficients": [["kernels", "--s", S, "--mu", "2.0", "--t", "0.5"]],
        "square": [["order-check", "--s-list", S, "--interval-points", "8",
                    "--square-points", "4"]],
        "checks": [["localization-check", "--shape", "interval", "--resolution", "2",
                    "--points", "2", "--tolerance", "1"],
                   ["localization-check", "--shape", "disk", "--resolution", "2",
                    "--points", "2", "--tolerance", "1"]],
    }[workload]


def check_tracer():
    t = Tracer()
    fns = {}

    def leaf():
        return sum(range(20000))

    def inner():
        return fns["leaf"]() + fns["leaf"]()

    def outer():
        return fns["inner"]() + fns["leaf"]()

    fns["leaf"] = t._aggregate_wrapper(leaf, "leaf")
    fns["inner"] = t._span_wrapper(inner, "inner")
    fns["outer"] = t._span_wrapper(outer, "outer")
    fns["outer"]()
    fns["outer"]()
    tot = t.totals()
    assert tot["outer"][0] == 2 and tot["inner"][0] == 2 and tot["leaf"][0] == 6, tot
    assert t.aggregates[("leaf", "inner")][0] == 4
    assert t.aggregates[("leaf", "outer")][0] == 2
    for calls, total, self_s in tot.values():
        assert 0.0 <= self_s <= total, tot
    leaf_under_outer = t.aggregates[("leaf", "outer")][1]
    # a parent's self time also leaves out its children's wrapper bookkeeping
    gap = tot["outer"][1] - (tot["outer"][2] + tot["inner"][1] + leaf_under_outer)
    assert 0.0 <= gap <= t._own[0], (gap, t._own[0])
    inner_spans = [sp for sp in t.spans if sp[0] == "inner"]
    assert all(t.spans[sp[3]][0] == "outer" for sp in inner_spans)
    assert 0.0 < t.overhead_s(calls=2000, repeats=1) < tot["outer"][1]


def record(entries: dict) -> str:
    return "name,value,err,route\n" + "".join(
        f"{k},{v!r},0.0,test\n" for k, v in entries.items())


def check_output_checks(cli):
    good = {"L2": 0.02533, "L2_eigenfunction": 0.02534, "L2_energy_shift": 0.02535,
            "L2_tilde": 0.0398}
    argv = run.commands("coefficients", 0.5)[0]
    fails, acc = run.check_constants(cli, argv, run.parse_record(record(good)))
    assert not fails and 0.0 < acc["l2_route_spread"] < 1e-3, (fails, acc)
    fails, _ = run.check_constants(cli, argv, run.parse_record(
        record(dict(good, L2_tilde=0.02))))
    assert fails
    fails, _ = run.check_constants(cli, argv, run.parse_record(
        record(dict(good, L2_energy_shift=0.03))))
    assert fails
    argv = run.commands("square", 0.5)[0]
    fails, acc = run.check_square(cli, argv, run.parse_record(
        record({"c0_rel_dev": 0.016, "c1_rel_dev": 0.17})))
    assert not fails and set(acc) == {"c0_rel_dev", "c1_rel_dev"}
    fails, _ = run.check_square(cli, argv, run.parse_record(
        record({"c0_rel_dev": 0.05, "c1_rel_dev": 0.17})))
    assert fails
    argv = run.commands("checks", 0.5)[0]
    assert not run.check_halfspace(cli, argv, {"worst_rel_in_window": 0.03})[0]
    assert run.check_halfspace(cli, argv, {"worst_rel_in_window": 0.2})[0]


def check_host_speed():
    class Busy:
        @staticmethod
        def main(argv):
            t0 = time.perf_counter()
            while time.perf_counter() - t0 < 0.5:
                sum(range(1000))
            return 0

    with hostspeed.HostSpeed() as speed:
        result = run.run_command(Busy, ["kernels"], speed)
    assert len(speed.samples) >= 3, speed.samples
    assert abs(result["seconds"] + speed.busy - 0.5) < 0.05, (result["seconds"], speed.busy)
    assert abs(hostspeed.factor([hostspeed.NOMINAL_S] * 3) - 1.0) < 1e-12


def check_report_names():
    accuracy = {"constants": {"l2_route_spread": 5e-4},
                "verify-square": {"c0_rel_dev": 0.016, "c1_rel_dev": 0.17},
                "verify-halfspace": {"halfspace_worst_rel": 0.03}}
    expected = {"coefficients": {"constants_s", "l2_route_spread"},
                "square": {"verify_square_s", "c0_rel_dev", "c1_rel_dev"},
                "checks": {"verify_halfspace_s", "order_check_s", "localization_check_s",
                           "halfspace_worst_rel"}}
    for workload in run.WORKLOADS:
        passes = [[{"argv": argv, "seconds": 1.0, "failures": [],
                    "accuracy": accuracy.get(argv[0], {})}
                   for argv in run.commands(workload, 0.5)]]
        _, report = run.end_to_end(passes, [1.0])
        assert expected[workload] | {"fail_share", "workload_wall_s",
                                     "host_factor"} == set(report), report
        assert all(unit for _, unit in report.values())


def check_metrics(spec):
    for workload in run.WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmds = tiny_commands(workload, run.draw_s(workload, 1))
            rec = run.measure(workload, 1, 0.0, trace, cmds=cmds)
            result = rec["result"]
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["attempted"] == len(cmds), rec["passes"]
            wanted = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, set(got) ^ set(wanted)
            assert all(isinstance(m["value"], (int, float))
                       for m in result["metrics"].values())
            json.dumps(result)
            if trace:
                assert not rec["trace_data"]["missing_targets"]
                assert result["metrics"]["trace.workload_s"]["value"] > 0


def check_refuses_without_sources():
    where = run.RESULTS / "selfcheck-no-sources"
    shutil.rmtree(where, ignore_errors=True)
    (where / "bench").mkdir(parents=True)
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", where)
        for f in run.BENCH.glob("*.py"):
            shutil.copy(f, where / "bench")
        proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "checks",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=where, capture_output=True, text=True, timeout=120)
        assert proc.returncode != 0 and "{" not in proc.stdout, proc
    finally:
        shutil.rmtree(where)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    cli, _ = run.import_library()
    run.RESULTS.mkdir(exist_ok=True)
    check_tracer()
    check_output_checks(cli)
    check_host_speed()
    check_report_names()
    check_metrics(spec)
    check_refuses_without_sources()
    print("selfcheck ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
