"""Benchmark of the gatesid pipeline: gen-data -> train-rqvae -> encode-sids
-> train -> eval, run stage by stage the way a user runs it.

Usage (from the root of a gatesid checkout):

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

With --trace 0 every stage runs as its own ``python3 -m gatesid.cli``
process, one after another, and the end-to-end metrics come from the wall
clock around each child and from that child's own rusage (CPU time, peak
RSS). The five-stage pipeline is repeated in whole rounds until --seconds is
spent (at least two rounds) and each metric is the median over rounds.

With --trace 1 each round runs the pipeline twice, untraced as above and
then traced: every stage runs in its own process under perfbench/tracer.py,
which times calls into each gatesid module's public functions. The
per-layer metrics come from those spans; the gap between the two pipeline
times is the tracing overhead.

After timing, the outputs are checked (perfbench/checks.py). The last line
of standard output is one JSON object with the keys correct, attempted,
failed and metrics; the line before it records the environment. Measurement
is process-local: child rusage and in-process wrappers only.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from collections import defaultdict
from statistics import median

# One BLAS thread (at most nproc): a multi-threaded BLAS on a small shared
# machine makes the wall times depend on what else runs there.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
STAGES = ("gen-data", "train-rqvae", "encode-sids", "train", "eval")
SETUP_PER_ROUND = 4
MIN_ROUNDS = {0: 2, 1: 1}     # untraced rounds / traced pairs per run
CHILD_TIMEOUT_S = 150

# Config overrides per workload. The corpora are smaller than the gatesid
# defaults so that one run repeats the whole pipeline at least twice within
# its time budget; each keeps the property that makes it a workload.
WORKLOADS = {
    # desk model shapes (B=256, K=64, d_z=16); about 38 small training steps
    "desk": {"n_users": 100, "n_items": 800, "n_impressions": 12000, "epochs": 1},
    # reference-scale quantizer; n_items >= 10 * rq_codes so k-means keeps K=256
    "ref_quantizer": {"n_users": 100, "n_items": 2600, "n_impressions": 6000,
                      "rq_codes": 256, "rq_latent_dim": 64, "rq_kmeans_iters": 2,
                      "rq_epochs": 2, "epochs": 1},
    # reference-scale batch on 2,000 items: history ids repeat many times per batch
    "ref_batch": {"n_users": 170, "n_items": 2000, "n_impressions": 20000,
                  "batch_size": 4096, "epochs": 1},
}

# point-in-time check input: fixed, independent of --seed and of the workload
PROBE_CORPUS = {"n_users": 60, "n_items": 300, "n_impressions": 4000}
PROBE_SEED = 0

SETUP_CODE = ("import sys\n"
              "from gatesid import cli\n"
              "a = cli.build_parser().parse_args(sys.argv[1:])\n"
              "cli.runcfg.build_config(a.config, a.overrides + [f'seed={a.seed}'])\n")


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes


def run_child(argv, cwd, env, err_path):
    """Run one child to completion; returns (exit code, wall s, cpu s, peak RSS MB)."""
    with open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=subprocess.DEVNULL,
                                stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    cpu = usage.ru_utime + usage.ru_stime
    return proc.returncode, wall, cpu, usage.ru_maxrss / 1024.0


def _stderr_tail(path, lines=5):
    with open(path, errors="replace") as f:
        return " | ".join(f.read().strip().splitlines()[-lines:])


class Pipeline:
    """Runs the five stages for one workload and seed."""

    def __init__(self, src_dir, workload, seed):
        self.env = dict(os.environ, PYTHONPATH=src_dir, GATESID_LOG="quiet")
        # stages import gatesid from cached bytecode, as from an installed package
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.overrides = [a for k, v in WORKLOADS[workload].items()
                          for a in ("--set", f"{k}={v}")]
        self.seed = seed

    def stage_args(self, stage):
        return [stage, "--seed", str(self.seed)] + self.overrides

    def run(self, round_dir, traced):
        """One pass over the stages in round_dir; per-stage timings and spans."""
        os.makedirs(round_dir)
        timings, spans = {}, {}
        for stage in STAGES:
            err = os.path.join(round_dir, f"{stage}.err")
            if traced:
                span_path = os.path.join(round_dir, f"{stage}.spans.json")
                argv = [sys.executable, os.path.join(BENCH_DIR, "tracer.py"), span_path]
            else:
                argv = [sys.executable, "-m", "gatesid.cli"]
            code, wall, cpu, rss = run_child(argv + self.stage_args(stage),
                                             round_dir, self.env, err)
            if code != 0:
                raise BenchError(f"stage {stage} exited with {code}: {_stderr_tail(err)}")
            timings[stage] = {"wall": wall, "cpu": cpu, "rss_mb": rss}
            if traced:
                with open(span_path) as f:
                    spans[stage] = json.load(f)
        return timings, spans

    def setup_time(self, work_dir):
        """Interpreter start, import of gatesid.cli and config build, no stage work."""
        err = os.path.join(work_dir, "setup.err")
        argv = [sys.executable, "-c", SETUP_CODE] + self.stage_args("train")
        code, wall, _, _ = run_child(argv, work_dir, self.env, err)
        if code != 0:
            raise BenchError(f"set-up probe exited with {code}: {_stderr_tail(err)}")
        return wall


def artifact_digest(round_dir):
    """{relative path: (sha256, size)} for everything under round_dir/artifacts."""
    base = os.path.join(round_dir, "artifacts")
    out = {}
    for dirpath, _, files in os.walk(base):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as f:
                data = f.read()
            out[os.path.relpath(path, base)] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


# ---------------------------------------------------------------------------
# metrics


def end_to_end_metrics(setup, rounds, digest):
    # the other stages run too briefly to hold steady here (see README); their
    # wall times are per-layer metrics of the traced run
    def over_rounds(fn):
        return median([fn(r) for r in rounds])
    return {
        "setup_s": (median(setup), "s"),
        "pipeline_s": (over_rounds(lambda r: sum(r[s]["wall"] for s in STAGES)), "s"),
        "pipeline_cpu_s": (over_rounds(lambda r: sum(r[s]["cpu"] for s in STAGES)), "s"),
        "train_s": (over_rounds(lambda r: r["train"]["wall"]), "s"),
        "peak_rss_mb": (over_rounds(lambda r: max(r[s]["rss_mb"] for s in STAGES)), "MB"),
        "artifact_bytes": (sum(size for _, size in digest.values()), "bytes"),
    }


def _span_summary(spans_by_stage):
    """Per-round totals, call counts and self times by span name, plus the
    per-step samples of the training loop."""
    total, calls, self_s = defaultdict(float), defaultdict(int), defaultdict(float)
    auc_direct = 0.0
    steps = defaultdict(list)
    for spans in spans_by_stage.values():
        dur = [s["end"] - s["start"] for s in spans]
        covered = [0.0] * len(spans)
        kids = defaultdict(list)
        for i, s in enumerate(spans):
            if s["parent"] is not None:
                covered[s["parent"]] += dur[i]
                kids[s["parent"]].append(s)
        for i, s in enumerate(spans):
            total[s["name"]] += dur[i]
            calls[s["name"]] += 1
            self_s[s["name"]] += dur[i] - covered[i]
            parent = spans[s["parent"]]["name"] if s["parent"] is not None else None
            if s["name"] == "evalkit.auc" and parent == "evalkit.evaluate_model":
                auc_direct += dur[i]
            if s["name"] != "train.train_model":
                continue
            # a training step runs from make_batch to the optimizer's zero_grad
            loop = defaultdict(list)
            for k in kids[i]:
                loop[k["name"]].append(k)
            for b, z in zip(loop["train.make_batch"], loop["diffkernel.adamw_zero_grad"]):
                steps["step_ms"].append(1e3 * (z["end"] - b["start"]))
                steps["make_batch_ms"].append(1e3 * (b["end"] - b["start"]))
                steps["hist_slots"].append(b["hist_slots"])
                steps["hist_distinct"].append(b["hist_distinct"])
            for name, key in (("model.loss", "loss_ms"), ("diffkernel.backward", "backward_ms"),
                              ("diffkernel.adamw_step", "adamw_step_ms")):
                steps[key].extend(1e3 * (k["end"] - k["start"]) for k in loop[name])
            steps["tape_ops"].extend(k["tape_ops"] for k in loop["diffkernel.backward"])
    return total, calls, self_s, auc_direct, steps


def per_layer_metrics(pairs):
    """pairs: list of (untraced timings, traced timings, traced spans)."""
    per_round = defaultdict(list)
    pooled = defaultdict(list)
    for plain, traced, spans in pairs:
        total, calls, self_s, auc_direct, steps = _span_summary(spans)
        values = {
            "synthcorpus.generate_corpus.s": total["synthcorpus.generate_corpus"],
            "synthcorpus.save_corpus.s": total["synthcorpus.save_corpus"],
            "synthcorpus.load_corpus.s": total["synthcorpus.load_corpus"],
            "synthcorpus.load_corpus.calls": calls["synthcorpus.load_corpus"],
            "synthcorpus.impression_stat_features.s": total["synthcorpus.impression_stat_features"],
            "rqvae.kmeans_fit.s": total["rqvae.kmeans_fit"],
            "rqvae.kmeans_fit.calls": calls["rqvae.kmeans_fit"],
            "rqvae.rq_encode_batch.s": total["rqvae.rq_encode_batch"],
            "rqvae.rq_encode_batch.calls": calls["rqvae.rq_encode_batch"],
            "rqvae.train_rqvae.self_s": self_s["rqvae.train_rqvae"],
            "rqvae.assign_sids.s": total["rqvae.assign_sids"],
            "rqvae.sid_table_io.s": total["rqvae.save_sid_table"] + total["rqvae.load_sid_table"],
            "train.steps": len(steps["step_ms"]),
            "model.predict.s": total["model.predict"],
            "diffkernel.checkpoint_io.s": (total["diffkernel.save_arrays"]
                                           + total["diffkernel.load_arrays"]),
            "evalkit.evaluate_model.self_s": self_s["evalkit.evaluate_model"],
            "evalkit.auc.s": auc_direct,
            "evalkit.gauc.s": total["evalkit.gauc"],
            "trace.overhead_s": (sum(t["wall"] for t in traced.values())
                                 - sum(t["wall"] for t in plain.values())),
        }
        for stage in STAGES:
            key = stage.replace("-", "_")
            values[f"cli.{key}.wall_s"] = plain[stage]["wall"]
            values[f"cli.{key}.cpu_s"] = plain[stage]["cpu"]
            values[f"cli.{key}.peak_rss_mb"] = plain[stage]["rss_mb"]
        for k, v in values.items():
            per_round[k].append(v)
        for k, v in steps.items():
            pooled[k].extend(v)
    if not pooled["step_ms"]:
        raise BenchError("the traced run recorded no training steps")

    units = {"s": "s", "calls": "count", "steps": "count", "cpu_s": "s", "wall_s": "s",
             "peak_rss_mb": "MB", "self_s": "s", "overhead_s": "s"}
    m = {k: (median(v), units[k.rsplit(".", 1)[1]]) for k, v in per_round.items()}
    for key, name in (("step_ms", "train.step_ms.p50"),
                      ("make_batch_ms", "train.make_batch_ms.p50"),
                      ("loss_ms", "model.loss_ms.p50"),
                      ("backward_ms", "diffkernel.backward_ms.p50"),
                      ("adamw_step_ms", "diffkernel.adamw_step_ms.p50")):
        m[name] = (median(pooled[key]), "ms")
    m["train.hist_slots_per_step"] = (median(pooled["hist_slots"]), "count")
    m["train.hist_distinct_per_step"] = (median(pooled["hist_distinct"]), "count")
    m["diffkernel.tape_ops_per_step"] = (median(pooled["tape_ops"]), "count")
    return m


# ---------------------------------------------------------------------------
# checks


def run_checks(work, rc, digests):
    """Output checks after timing. Returns (correct, attempted, failed)."""
    import checks
    from gatesid import synthcorpus

    art = os.path.join(work, "run0", "artifacts")
    first = digests["run0"]
    ops = [
        ("gen-data output", lambda: checks.check_corpus(art, rc)),
        ("encode-sids output", lambda: checks.check_sids(art, rc)),
        ("eval output", lambda: checks.check_eval(art, rc)),
        ("determinism", lambda: [f"artifacts of {name} differ from run0"
                                 for name, d in digests.items() if d != first]),
    ]
    correct, failed = True, 0
    for name, op in ops:
        try:
            problems = op()
        except Exception as exc:  # malformed output: report it, keep checking
            problems = [f"check raised {exc!r}"]
        print(f"check {name}: {'ok' if not problems else 'FAIL'}", file=sys.stderr)
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        if problems:
            correct = False
            failed += 1

    # Known fault: impression_stat_features counts the impression's own day,
    # so its label leaks into its features. Counted as a failed operation;
    # it does not make the run incorrect.
    probe_cfg = synthcorpus.CorpusConfig(**PROBE_CORPUS)
    probe_dir = os.path.join(work, "probe")
    synthcorpus.save_corpus(probe_dir, synthcorpus.generate_corpus(probe_cfg, seed=PROBE_SEED))
    expo, clicks = checks.point_in_time_mismatch(probe_dir, probe_cfg)
    leak = expo > 0 or clicks > 0
    failed += int(leak)
    print(f"check point-in-time stat features: {'FAIL' if leak else 'ok'} "
          f"(exposures_7d differ on {expo:.1%}, clicks_7d on {clicks:.1%} of impressions)",
          file=sys.stderr)
    return correct, len(ops) + 1, failed


# ---------------------------------------------------------------------------
# entry point


def environment(workload, seed, rounds, report_path):
    """What a result was measured on, plus the model quality it reached."""
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {"workload": workload, "seed": seed, "rounds": rounds,
            "overrides": WORKLOADS[workload], "numpy": np.__version__,
            "blas": blas_name, "blas_threads": BLAS_THREADS,
            "cpu_count": os.cpu_count(), "python": sys.version.split()[0],
            "quality": _quality(report_path)}


def _quality(report_path):
    with open(report_path) as f:
        metrics = json.load(f)["metrics"]
    return {f"{task}_{kind}_{bucket}": metrics[task][bucket][kind]
            for task, kind in (("ctr", "auc"), ("ctcvr", "gauc"))
            for bucket in ("all", "new", "popular")}


def bench(args, src_dir, work):
    from gatesid import config as runcfg

    pipe = Pipeline(src_dir, args.workload, args.seed)
    rc = runcfg.build_config(None, [v for v in pipe.overrides if v != "--set"]
                             + [f"seed={args.seed}"])
    os.makedirs(work)
    # compile gatesid's bytecode once so no timed child pays for it
    err = os.path.join(work, "warmup.err")
    if run_child([sys.executable, "-c", "import gatesid.cli"], work, pipe.env, err)[0] != 0:
        raise BenchError(f"cannot import gatesid.cli: {_stderr_tail(err)}")

    setup, rounds, pairs, digests = [], [], [], {}
    t0 = time.perf_counter()
    while True:
        i = len(rounds)
        if not args.trace:
            # set-up probes spread over the run see the same host phases as the rounds
            setup += [pipe.setup_time(work) for _ in range(SETUP_PER_ROUND)]
        passes = ["run", "traced"] if args.trace else ["run"]
        if i % 2:
            passes.reverse()  # alternate which pass of a pair runs first
        out = {}
        for name in passes:
            pass_dir = os.path.join(work, f"{name}{i}")
            out[name] = pipe.run(pass_dir, traced=name == "traced")
            digests[f"{name}{i}"] = artifact_digest(pass_dir)
            if f"{name}{i}" != "run0":  # run0 stays for the output checks
                shutil.rmtree(pass_dir)
        rounds.append(out["run"][0])
        for name, (timings, _) in sorted(out.items()):
            print(f"round {i} {name}: {sum(t['wall'] for t in timings.values()):.3f} s ("
                  + ", ".join(f"{s} {t['wall']:.3f}" for s, t in timings.items()) + ")",
                  file=sys.stderr)
        if args.trace:
            pairs.append((out["run"][0], *out["traced"]))
        elapsed = time.perf_counter() - t0
        if len(rounds) >= MIN_ROUNDS[args.trace] and elapsed * (1 + 1 / len(rounds)) > args.seconds:
            break

    correct, attempted, failed = run_checks(work, rc, digests)
    if args.trace:
        metrics = per_layer_metrics(pairs)
    else:
        metrics = end_to_end_metrics(setup, rounds, digests["run0"])
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in sorted(metrics.items())}}
    report = os.path.join(work, "run0", "artifacts", "report.json")
    return result, environment(args.workload, args.seed, len(rounds), report)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None,
                        help="also append the result with its environment to this JSONL file")
    args = parser.parse_args(argv)

    root = os.getcwd()
    src_dir = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src_dir, "gatesid", "cli.py")):
        print(f"perfbench: no gatesid sources under {src_dir}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, src_dir)  # checks.py sits beside this script, already on the path
    work = os.path.join(root, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    try:
        result, env = bench(args, src_dir, work)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run still uses it
    print(json.dumps({"env": env}, sort_keys=True))
    if args.out:
        with open(args.out, "a") as f:
            f.write(json.dumps({"env": env, "trace": args.trace, **result}, sort_keys=True) + "\n")
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
