"""Benchmark of the casimir package, run from the repository root.

    python3 perfbench/run.py --workload cold_sum --seed 0 --seconds 20 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of the workload; with
``--trace 1`` the per-module metrics of a run whose passes alternate between
untraced and with the shims of ``tracing.py`` installed.  Every time is in
reference seconds: seconds at a fixed machine speed, sampled during the run
(see ``speed.py``), because the speed of a shared host swings too much for
plain seconds to repeat.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it name each metric with its unit, and give
``failed_frac`` (failed / attempted) and the environment of the run.

The program is imported from ``src/`` of the working directory, never from
an installed copy; without ``src/casimir`` the benchmark exits with code 2.
Everything it writes stays under ``.bench_build/`` of the working directory.
Workloads and why they exist: see ``workloads.py``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import signal
import statistics
import subprocess
import sys

from speed import Speed, clock
from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
SETUP_PROBES = 3
SPEED_SAMPLES = 10    # reference loops before and after each setup probe
WORKER_TIMEOUT_S = 160
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("eval_ms_p50", "ms"),
              ("eval_ms_tail", "ms"), ("peak_rss_mb", "MB"))


def child_env(root: str) -> dict:
    """The program's src on the path and BLAS/OpenMP pinned to one thread:
    every workload is one caller in one process."""
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def _wait(proc: subprocess.Popen, timeout: float) -> None:
    """Wait for a child started in its own session; on timeout or when this
    process is interrupted, kill the whole session, so no grandchild
    outlives the benchmark."""
    try:
        proc.wait(timeout=timeout)
    except BaseException:
        _kill(proc)
        raise


def _kill(proc: subprocess.Popen) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    proc.wait()


def _exit_on_sigterm(signum, frame):
    raise SystemExit(128 + signum)


def setup_time(root: str, env: dict, workload: str, speed: Speed) -> float:
    """Reference seconds (``speed.py``) from starting a fresh interpreter
    until it is ready to issue the first timed evaluation.  The machine's
    speed is sampled here, in this process, before and after the probe."""
    for _ in range(SPEED_SAMPLES):
        speed.sample()
    t0 = clock()
    with subprocess.Popen([sys.executable, WORKER, "--workload", workload, "--setup-only"],
                          cwd=root, env=env, stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            line = proc.stdout.readline()
            t1 = clock()
            proc.stdout.read()
        except BaseException:
            _kill(proc)
            raise
        _wait(proc, 60)
    if line.strip() != b"ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed with exit code {proc.returncode}")
    for _ in range(SPEED_SAMPLES):
        speed.sample()
    return (t1 - t0) * speed.local_factor(t0, t1, SPEED_SAMPLES)


def environment(env: dict, cpus: int, load_before, load_after) -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": os.cpu_count(),
        "cpus_usable": cpus,
        "pinned_to_cpu": sorted(os.sched_getaffinity(0)),
        "blas_threads": {var: env[var] for var in THREAD_VARS},
        "loadavg_before": [round(x, 2) for x in load_before],
        "loadavg_after": [round(x, 2) for x in load_after],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="casimir benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="a few inputs and one setup probe (the harness's own test)")
    args = ap.parse_args(argv)

    signal.signal(signal.SIGTERM, _exit_on_sigterm)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "casimir", "__init__.py")):
        print("perfbench: src/casimir not found; run from the repository root",
              file=sys.stderr)
        return 2
    env = child_env(root)
    load_before = os.getloadavg()
    cpus = len(os.sched_getaffinity(0))
    # One core for this process and every process it starts: the speed
    # samples (speed.py) are taken on the core that does the work, also
    # when the work runs in a child process.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    setup = []
    if not args.trace:
        speed = Speed()
        setup = [setup_time(root, env, args.workload, speed)
                 for _ in range(1 if args.tiny else SETUP_PROBES)]

    cmd = [sys.executable, WORKER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.tiny:
        cmd.append("--tiny")
    with subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE,
                          start_new_session=True, text=True) as proc:
        try:
            out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            _kill(proc)
            print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
            return 1
        except BaseException:
            _kill(proc)
            raise
    if proc.returncode != 0:
        print(f"perfbench: worker failed with exit code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(out.strip().splitlines()[-1])
    load_after = os.getloadavg()

    tag = f"perfbench {args.workload} seed={args.seed} trace={args.trace}"
    print(f"{tag}: {res['inputs']} inputs per pass, passes={res['passes']}, "
          f"recorded outputs={'yes' if res['recorded'] else 'no'}; "
          f"times in reference seconds (perfbench/speed.py)")
    if args.trace:
        from tracing import LAYER_METRICS
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}
    else:
        res["setup_s"] = statistics.median(setup)
        metrics = {name: {"value": res[name], "unit": unit} for name, unit in END_TO_END}
    passes = res["passes"][-1]
    notes = {"setup_s": f"median of {len(setup)} fresh interpreters",
             "wall_s": f"one pass of the inputs that returned, each its mean over {passes}",
             "eval_ms_p50": f"lower median over {res.get('timed')} evaluations that returned",
             "eval_ms_tail": (f"p{res.get('tail_percentile', 0):.1f} over {res.get('timed')} "
                              f"evaluations, {res.get('tail_beyond')} samples beyond"),
             "peak_rss_mb": ("CLI children" if args.workload == "cli_tabulated"
                             else "worker process")}
    for name, m in metrics.items():
        print(f"  {name:30s} {m['value']:<14.6g} {m['unit']:6s} {notes.get(name, '')}")
    print(f"  {'failed_frac':30s} {res['failed'] / res['attempted']:<14.6g} "
          f"{'ratio':6s} {res['failed']} of {res['attempted']} evaluations")
    for problem in res["problems"]:
        print(f"  problem: {problem}")

    env_record = environment(env, cpus, load_before, load_after)
    print("env " + json.dumps(env_record))
    busy = env_record["cpus_usable"] - 0.5
    if max(load_before[0], load_after[0]) > busy:
        print(f"perfbench: warning: machine busy (load average {load_before[0]:.2f} before, "
              f"{load_after[0]:.2f} after, {env_record['cpus_usable']} cpus)", file=sys.stderr)
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
