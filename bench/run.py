"""qcmine benchmark: seeded workloads, output checks, end-to-end and
per-layer metrics.

    python3 bench/run.py --workload mine_multi --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10 [--out BENCH_x.json]

One run measures one workload in this process. It generates its inputs in a
child process (cached under bench/.work), then calls the program's public
functions in passes: ``cli.mine`` over the whole dump, or
``cli.train_neural`` for the workload's fixed epochs. Passes repeat until
``--seconds`` of work time are measured (and at least a minimum number of
passes, so set-up is timed several times). Every pass's outputs are
checked against the generator's ground truth.

``--trace 0`` reports the end-to-end metrics named in BENCHMARK.json, each
the median over the run's passes. Their seconds are host-speed corrected
(see hostclock.py); the plain wall-clock figures are printed beside them
as ``wall_*``. ``--trace 1`` alternates untraced and
traced passes and reports the per-layer metrics from the traced ones, plus
the tracing overhead between the two kinds. ``--workload all`` runs every
workload, untraced and traced, each in its own process, and prints each
end-to-end metric with its median, tail percentile and sample count.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. The line before it holds
the run's details (samples, environment, workload properties, digests).
"""

from __future__ import annotations

import argparse
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
import traceback
from pathlib import Path
from time import perf_counter

import gen
import hostclock
import spans as tracing

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
WORK = BENCH / ".work"
WORKLOADS = ("mine_multi", "mine_ingest", "train_biv")
MIN_PASSES = {"mine_multi": 3, "mine_ingest": 5, "train_biv": 3}
MIN_TRACED_PASSES = 4   # untraced and traced alternate, two of each
WALL_CAP_S = 60.0       # past this, stop once the minimum passes are done
HARD_CAP_S = 120.0      # past this, start no further pass
MAX_FAILURES = 3
# Calibration unit of each workload's host-speed-corrected clock: the kind
# of work that dominates its passes.
CLOCK_KIND = {"mine_multi": "numpy", "mine_ingest": "python", "train_biv": "numpy"}
NOTES = [
    "setup_s and throughput_per_s use host-speed-corrected seconds (bench/hostclock.py): "
    "wall time scaled by fixed calibration units run between pieces of the work; "
    "wall_setup_s and wall_throughput_per_s are the uncorrected figures",
    "wait time: nothing in the program waits on a queue, so no per-layer wait time is reported",
    "per-layer counts and seconds are per pass (one cli.mine or cli.train_neural call); "
    "'/item' metrics are per ensemble-classified code block (mine) or per training "
    "instance-epoch (train_biv)",
]


# --------------------------------------------------------------------------
# Metric definitions (names and units come from BENCHMARK.json)
# --------------------------------------------------------------------------


def metric_specs() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layer = {m["name"]: m for m in spec["per_layer"]}
    return e2e, layer


def tail(values: list[float], better: str) -> tuple[str, float]:
    """The worst-side percentile with at least ten samples beyond it, or the
    worst sample when there are too few for one beyond the median."""
    n = len(values)
    worst_high = better == "lower"
    if n < 20:
        return ("max" if worst_high else "min"), (max(values) if worst_high else min(values))
    q = math.floor(100 * (n - 10) / n)
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return (f"p{q}", cuts[q - 1]) if worst_high else (f"p{100 - q}", cuts[100 - q - 1])


def describe(values: list[float], better: str) -> dict:
    label, worst = tail(values, better)
    return {"median": statistics.median(values), "tail": label, "tail_value": worst, "n": len(values)}


# --------------------------------------------------------------------------
# Environment
# --------------------------------------------------------------------------


def blas_info() -> dict:
    import numpy as np

    info = {"library": None, "version": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["library"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        pass
    import ctypes

    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib_path in sorted(libdir.glob("lib*openblas*.so*")):
        lib = ctypes.CDLL(str(lib_path))
        for fn in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                   "openblas_get_num_threads"):
            if hasattr(lib, fn):
                getter = getattr(lib, fn)
                getter.restype = ctypes.c_int
                info["threads"] = getter()
                return info
    return info


def environment() -> dict:
    import numpy as np

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {
        "commit": commit,
        "source_sha256": gen.program_hash(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }


# --------------------------------------------------------------------------
# Patches: where each public function is looked up
# --------------------------------------------------------------------------


def _add(key, fn):
    def count(counts, args, result):
        counts[key] += fn(args, result)

    return count


def clock_patches(clock: hostclock.HostClock):
    """The untraced pass's timers: set-up calls timed whole, the work
    window, and ticks at per-item boundaries (dump records, voter and
    training forwards, Adam steps) where the clock may close a piece."""
    from qcmine import cli, models, question_filter, train_eval

    return [
        (models, "load_model", clock.measured),
        (question_filter.QuestionFilterModel, "load", clock.measured),
        (cli, "load_labeled_instances", clock.measured),
        (cli, "build_vocabs", clock.measured),
        (models, "init_model", clock.measured),
        (cli, "mine", clock.window),
        (train_eval, "train", clock.window),
        (cli, "read_dump", clock.ticking_generator),
        (models, "predict_label", clock.ticking),
        (models, "forward_graph", clock.ticking),
        (train_eval, "adam_update", clock.ticking),
    ]


def full_patches(rec: tracing.Recorder):
    """A span around every per-layer boundary."""
    from qcmine import cli, models, nn_core, post_parser, question_filter, train_eval, vocab_embed

    unk = vocab_embed.UNK_ID
    howto = question_filter.QuestionLabel.HOW_TO
    abstain = train_eval.Decision.ABSTAIN

    def n_tokens(_args, stream):
        return len(stream.tokens)

    def count_lookup(counts, _args, ids):
        counts["vocab_embed.tokens"] += len(ids)
        counts["vocab_embed.unk"] += ids.count(unk)

    file_bytes = _add("models.load.bytes", lambda args, _r: os.path.getsize(args[0]))
    saved_bytes = _add("models.save.bytes", lambda args, _r: os.path.getsize(args[1]))
    patches = [
        (models, "load_model", "models.load", file_bytes, False),
        (question_filter.QuestionFilterModel, "load", "question_filter.load", None, False),
        (cli, "load_labeled_instances", "cli.load_labeled_instances", None, False),
        (cli, "build_vocabs", "cli.build_vocabs", None, False),
        (models, "init_model", "models.init", None, False),
        (train_eval, "train", "train_eval.train", None, False),
        (models, "save_model", "models.save", saved_bytes, False),
        (cli, "read_dump", "cli.read_dump", _add("cli.records", lambda a, r: 1), True),
        (cli, "parse_answer_post", "post_parser.parse", None, False),
        (cli, "tokenize_sequence", "post_parser.tokenize_sequence", None, False),
        (cli, "extract_instances", "post_parser.extract_instances",
         _add("post_parser.extract_instances.instances", lambda a, r: len(r)), False),
        (post_parser, "tokenize_text", "tokenize.text", _add("tokenize.text.tokens", n_tokens), False),
        (post_parser, "normalize_code", "tokenize.code", _add("tokenize.code.tokens", n_tokens), False),
        (question_filter, "tokenize_text", "tokenize.text",
         _add("tokenize.text.tokens", n_tokens), False),
        (question_filter, "featurize_question", "question_filter.featurize", None, False),
        (question_filter, "classify_question", "question_filter.classify",
         _add("question_filter.howto", lambda a, r: r[0] is howto), False),
        (question_filter, "predict_linear", "baselines.predict_linear", None, False),
        (vocab_embed.Vocabulary, "lookup_all", "vocab_embed.lookup", count_lookup, False),
        (models, "predict_label", lambda args: f"models.predict.{args[0].config.variant.value}",
         None, False),
        (models, "forward_graph", "models.forward_graph", None, False),
        (models, "bigru_encode", "nn_core.bigru_encode", None, False),
        (nn_core, "gru_step", "nn_core.gru_step", None, False),
        (train_eval, "ensemble", "train_eval.ensemble",
         _add("train_eval.decided", lambda a, r: r.decision is not abstain), False),
        (train_eval, "evaluate_model", "train_eval.evaluate_model", None, False),
        (train_eval, "backward", "nn_core.backward", None, False),
        (train_eval, "adam_update", "nn_core.adam", None, False),
    ]
    return [rec.timed(*p) for p in patches]


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------


class Fixture:
    def __init__(self, workload: str, seed: int):
        self.workload, self.seed = workload, seed
        self.shared, self.dir = gen.fixture_dirs(WORK / "fixtures", workload, seed)
        self.version = gen.GEN_VERSION
        self.truth = json.loads((self.dir / "truth.json").read_text())
        self.shared_truth = (
            json.loads((self.shared / "truth.json").read_text()) if workload != "train_biv" else {}
        )
        self.dump = self.dir / "dump.jsonl"
        self.voters = "small_checkpoints" if workload == "mine_ingest" else "checkpoints"
        self.out_dir = WORK / "runs" / f"{workload}-s{seed}"
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self.out_dir.mkdir(parents=True)

    def properties(self) -> dict:
        props = dict(self.truth["properties"])
        if self.shared_truth:
            props["word_vocab"] = self.shared_truth["word_vocab"]
            props["code_vocab"] = self.shared_truth["code_vocab"]
            props["checkpoint_bytes"] = self.shared_truth["checkpoint_bytes"][self.voters]
        return props


def _durations(spans, name) -> list[float]:
    return [dur for n, dur, _ in spans if n == name]


def _sample(clock: hostclock.HostClock | None, spans, setup_names, work_name, items) -> dict:
    """One pass's end-to-end sample. Untraced passes take the host-speed-
    corrected times from the clock and keep the wall times beside them;
    traced passes have wall times from their spans only."""
    if clock is None:
        setup = sum(sum(_durations(spans, n)) for n in setup_names)
        work = _durations(spans, work_name)[0]
        if work_name == "cli.mine":
            work -= setup
        return {"setup_s": setup, "throughput_per_s": items / work, "work_s": work}
    return {
        "setup_s": clock.setup_s,
        "throughput_per_s": items / clock.work_s,
        "work_s": clock.work_wall,
        "wall_setup_s": clock.setup_wall,
        "wall_throughput_per_s": items / clock.work_wall,
        "calibrations": len(clock.calibrations),
        "calibration_median_s": statistics.median(clock.calibrations),
    }


def mine_pass(fx: Fixture, rec: tracing.Recorder, run_id: str, traced: bool):
    from qcmine import cli

    ckpt = {v: fx.shared / p for v, p in fx.shared_truth[fx.voters].items()}
    out = fx.out_dir / "mined.jsonl"
    rec.run_id = run_id
    clock = None if traced else hostclock.HostClock(CLOCK_KIND[fx.workload])
    with rec.installed(full_patches(rec) if traced else clock_patches(clock)):
        with rec.span("cli.mine"):
            report = cli.mine(
                fx.dump, ckpt["biv_hnn"], ckpt["text_hnn"], ckpt["code_hnn"],
                fx.shared / fx.shared_truth["filter"], out,
            )
    sample = _sample(clock, rec.of_run(run_id), ("models.load", "question_filter.load"),
                     "cli.mine", report["records"])
    problems, digest = check_mine(fx.truth, report, out)
    extra = {
        "report": report,
        "items": fx.truth["multi_code_blocks"],
        "write_bytes": out.stat().st_size + Path(str(out) + ".abstentions.jsonl").stat().st_size,
    }
    return sample, problems, digest, extra


def check_mine(truth: dict, report: dict, out: Path) -> tuple[list[str], str]:
    """Compare a mine report and its outputs with the generator's truth.
    Returns (problems, digest of every ensemble decision)."""
    problems = [
        f"report {k} = {report.get(k)}, expected {v}"
        for k, v in truth["expected"].items()
        if report.get(k) != v
    ]
    ensemble_total = report["ensemble_pairs"] + report["ensemble_rejections"] + report["abstentions"]
    if ensemble_total != truth["multi_code_blocks"]:
        problems.append(
            f"ensemble decided + abstained = {ensemble_total}, "
            f"expected {truth['multi_code_blocks']} multi-code blocks"
        )
    codes = {int(q): c for q, c in truth["code_by_qid"].items()}
    decisions = {
        (qid, pos): ("label0", [0, 0, 0])
        for qid, blocks in codes.items() if len(blocks) > 1
        for pos in range(1, len(blocks) + 1)
    }
    lines = {"single_code": 0, "ensemble_mined": 0, "abstentions": 0}
    with open(out, encoding="utf-8") as f:
        for line in f:
            pair = json.loads(line)
            qid, pos, kind = pair["question_id"], pair["position"], pair["provenance"]
            lines[kind] = lines.get(kind, 0) + 1
            blocks = codes.get(qid, [])
            if not 1 <= pos <= len(blocks) or pair["code"] != blocks[pos - 1]:
                problems.append(f"pair {qid}:{pos} is not the generated code block")
            elif kind == "single_code" and len(blocks) != 1:
                problems.append(f"single-code pair {qid} has {len(blocks)} blocks")
            elif kind == "ensemble_mined":
                decisions[(qid, pos)] = ("label1", [1, 1, 1])
    with open(str(out) + ".abstentions.jsonl", encoding="utf-8") as f:
        for line in f:
            rec = json.loads(line)
            lines["abstentions"] += 1
            votes = rec["votes"]
            if len(votes) != 3 or len(set(votes)) == 1:
                problems.append(f"abstention {rec['question_id']}:{rec['position']} has votes {votes}")
            decisions[(rec["question_id"], rec["position"])] = ("abstain", votes)
    for kind, key in (("single_code", "single_code_pairs"), ("ensemble_mined", "ensemble_pairs"),
                      ("abstentions", "abstentions")):
        if lines[kind] != report[key]:
            problems.append(f"{lines[kind]} {kind} lines written, report says {report[key]}")
    canon = json.dumps(sorted([q, p, d, v] for (q, p), (d, v) in decisions.items()))
    return problems, hashlib.sha256(canon.encode()).hexdigest()[:16]


def train_pass(fx: Fixture, rec: tracing.Recorder, run_id: str, traced: bool):
    import numpy as np
    from qcmine import cli, models

    out = fx.out_dir / "biv_hnn.json"
    config = cli.load_config(fx.dir / "config.json")
    rec.run_id = run_id
    clock = None if traced else hostclock.HostClock(CLOCK_KIND[fx.workload])
    with rec.installed(full_patches(rec) if traced else clock_patches(clock)):
        with rec.span("cli.train_neural"):
            model, history = cli.train_neural(
                fx.dump, fx.dir / "train.csv", fx.dir / "valid.csv", config, "biv_hnn", out
            )
    items = fx.truth["train_instances"] * fx.truth["epochs"]
    sample = _sample(clock, rec.of_run(run_id),
                     ("cli.load_labeled_instances", "cli.build_vocabs", "models.init"),
                     "train_eval.train", items)
    problems = []
    losses = [h.train_loss for h in history]
    if len(losses) != fx.truth["epochs"] or not all(math.isfinite(x) for x in losses):
        problems.append(f"loss history {losses} is not {fx.truth['epochs']} finite values")
    loaded = models.load_model(out)
    if loaded.config.to_dict() != model.config.to_dict() or (
        loaded.word_vocab.token_to_id != model.word_vocab.token_to_id
        or loaded.code_vocab.token_to_id != model.code_vocab.token_to_id
    ):
        problems.append("checkpoint round trip changed the config or vocabularies")
    saved, reloaded = model.named_values(), loaded.named_values()
    if saved.keys() != reloaded.keys() or not all(
        np.array_equal(saved[k], reloaded[k]) for k in saved
    ):
        problems.append("checkpoint round trip changed parameter values")
    digest = hashlib.sha256(
        json.dumps([[h.epoch, h.train_loss.hex(), h.valid.to_dict()] for h in history]).encode()
    ).hexdigest()[:16]
    d_embed = model.config.d_embed
    extra = {
        "history": [[h.epoch, h.train_loss, h.valid.f1] for h in history],
        "items": items,
        "word_vocab": model.word_vocab.size,
        "code_vocab": model.code_vocab.size,
        "embedding_grad_bytes": (model.word_vocab.size + model.code_vocab.size) * d_embed * 8,
        "checkpoint_bytes": out.stat().st_size,
    }
    return sample, problems, digest, extra


# --------------------------------------------------------------------------
# Per-layer metrics from one traced pass
# --------------------------------------------------------------------------

LAYERS = ("cli", "post_parser", "tokenize", "question_filter", "baselines", "vocab_embed",
          "models", "nn_core", "train_eval")


def layer_metrics(rec: tracing.Recorder, run_id: str, counts: dict, extra: dict) -> dict:
    by_name = tracing.summarize(rec.of_run(run_id))

    def calls(name):
        return by_name.get(name, {}).get("calls", 0)

    def self_s(name):
        return by_name.get(name, {}).get("self_s", 0.0)

    def total_s(name):
        return by_name.get(name, {}).get("total_s", 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    items = extra.get("items", 0)
    report = extra.get("report", {})
    m = {
        "cli.read_dump.s": self_s("cli.read_dump"),
        "cli.records": counts.get("cli.records", 0),
        "cli.skip.parse_errors": report.get("parse_errors", 0),
        "cli.skip.domain": report.get("domain_skipped", 0),
        "cli.skip.non_howto": report.get("non_howto", 0),
        "cli.skip.no_code": report.get("no_code", 0),
        "cli.write.bytes": extra.get("write_bytes", 0),
        "post_parser.parse.calls": calls("post_parser.parse"),
        "post_parser.parse.s": self_s("post_parser.parse"),
        "post_parser.tokenize_sequence.s": self_s("post_parser.tokenize_sequence"),
        "post_parser.extract_instances.calls": calls("post_parser.extract_instances"),
        "post_parser.extract_instances.instances": counts.get("post_parser.extract_instances.instances", 0),
        "post_parser.extract_instances.s": self_s("post_parser.extract_instances"),
        "tokenize.text.calls": calls("tokenize.text"),
        "tokenize.text.tokens": counts.get("tokenize.text.tokens", 0),
        "tokenize.text.s": self_s("tokenize.text"),
        "tokenize.code.calls": calls("tokenize.code"),
        "tokenize.code.tokens": counts.get("tokenize.code.tokens", 0),
        "tokenize.code.s": self_s("tokenize.code"),
        "question_filter.featurize.s": self_s("question_filter.featurize"),
        "question_filter.classify.s": self_s("question_filter.classify"),
        "question_filter.howto_share": ratio(
            counts.get("question_filter.howto", 0), calls("question_filter.classify")
        ),
        "baselines.predict_linear.calls": calls("baselines.predict_linear"),
        "vocab_embed.lookup.tokens": counts.get("vocab_embed.tokens", 0),
        "vocab_embed.unk_share": ratio(counts.get("vocab_embed.unk", 0), counts.get("vocab_embed.tokens", 0)),
        "models.load.s": total_s("models.load"),
        "models.load.bytes": counts.get("models.load.bytes", 0),
        "models.save.s": total_s("models.save"),
        "models.save.bytes": counts.get("models.save.bytes", 0),
        "train_eval.ensemble.calls": calls("train_eval.ensemble"),
        "train_eval.ensemble.s": self_s("train_eval.ensemble"),
        "train_eval.ensemble.total_s": total_s("train_eval.ensemble"),
        "train_eval.decided_share": ratio(
            counts.get("train_eval.decided", 0), calls("train_eval.ensemble")
        ),
        "nn_core.gru_step.calls": ratio(calls("nn_core.gru_step"), items),
        "nn_core.gru_step.s": ratio(self_s("nn_core.gru_step"), items),
        "nn_core.bigru_encode.calls": ratio(calls("nn_core.bigru_encode"), items),
        "models.forward_graph.s": self_s("models.forward_graph"),
        "nn_core.backward.s": self_s("nn_core.backward"),
        "nn_core.adam.s": self_s("nn_core.adam"),
        "nn_core.embedding_grad.bytes": extra.get("embedding_grad_bytes", 0),
        "train_eval.evaluate_model.s": self_s("train_eval.evaluate_model"),
        "train_eval.evaluate_model.total_s": total_s("train_eval.evaluate_model"),
    }
    for variant in ("biv_hnn", "text_hnn", "code_hnn"):
        name = f"models.predict.{variant}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.s"] = self_s(name)
        m[f"{name}.total_s"] = total_s(name)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(
            e["self_s"] for name, e in by_name.items() if name.split(".", 1)[0] == layer
        )
    return m


# --------------------------------------------------------------------------
# One run
# --------------------------------------------------------------------------


def generate(workload: str, seed: int) -> None:
    subprocess.run(
        [sys.executable, str(BENCH / "gen.py"), "--workload", workload, "--seed", str(seed),
         "--cache", str(WORK / "fixtures")],
        check=True, timeout=900, stdout=sys.stderr,
    )


def check_digest(fx: Fixture, digest: str) -> list[str]:
    """The decisions (or loss history) of a seed must repeat across runs of
    the same program: the store is keyed by the qcmine source hash too, so a
    change that moves losses in their last bits starts a new digest."""
    store = WORK / "digests" / f"{fx.workload}-s{fx.seed}-{fx.version}-{gen.program_hash()}.json"
    if store.exists():
        previous = json.loads(store.read_text())["digest"]
        return [] if previous == digest else [f"digest {digest} differs from earlier run's {previous}"]
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps({"digest": digest}))
    return []


def run_workload(workload: str, seed: int, seconds: float, traced_mode: bool) -> dict:
    generate(workload, seed)
    e2e_spec, layer_spec = metric_specs()
    fx = Fixture(workload, seed)
    one_pass = train_pass if workload == "train_biv" else mine_pass
    rec = tracing.Recorder()
    passes, problems, digests = [], [], set()
    attempted = failed = 0
    start = perf_counter()
    while True:
        traced = traced_mode and attempted % 2 == 1
        run_id = f"{workload}:{seed}:{attempted}"
        attempted += 1
        counts_before = dict(rec.counts)
        try:
            sample, pass_problems, digest, extra = one_pass(fx, rec, run_id, traced)
        except Exception:  # a failed pass is counted, reported, and the run goes on
            traceback.print_exc()
            failed += 1
            problems.append(f"pass {run_id} raised")
            if failed >= MAX_FAILURES:
                break
            continue
        digests.add(digest)
        if pass_problems:
            failed += 1
            problems.extend(f"pass {run_id}: {p}" for p in pass_problems)
        counts = {k: v - counts_before.get(k, 0) for k, v in rec.counts.items()}
        passes.append({"traced": traced, "sample": sample, "digest": digest, "run_id": run_id,
                       "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                       "layers": layer_metrics(rec, run_id, counts, extra) if traced else None})
        if workload == "train_biv" and len(passes) == 1:
            fx.truth["properties"].update(
                {k: extra[k] for k in ("word_vocab", "code_vocab", "checkpoint_bytes", "history")}
            )
        work = sum(p["sample"]["work_s"] for p in passes)
        elapsed = perf_counter() - start
        minimum = MIN_TRACED_PASSES if traced_mode else MIN_PASSES[workload]
        if len(passes) >= minimum and (work >= seconds or elapsed > WALL_CAP_S):
            break
        if elapsed > HARD_CAP_S:
            break
    if len(digests) > 1:
        problems.append(f"passes disagree: digests {sorted(digests)}")
        failed += 1
    elif digests:
        problems.extend(check_digest(fx, digests.pop()))
    # Peak memory as one program call in a fresh process has it: at the end
    # of the first pass. Later passes in the same process sometimes add
    # allocator leftovers of earlier ones (+2 to +30 MB on mine_multi).
    peak_rss_mb = passes[0]["maxrss_mb"] if passes else resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0

    untraced = [p["sample"] for p in passes if not p["traced"]]
    summary = {}
    for name, spec in e2e_spec.items():
        values = [peak_rss_mb] if name == "peak_rss_mb" else [s[name] for s in untraced]
        if values:
            summary[name] = {**describe(values, spec["better"]), "unit": spec["unit"]}
    # The uncorrected wall-clock figures, for reference; not metrics.
    wall_summary = {
        f"wall_{name}": {**describe([s[f"wall_{name}"] for s in untraced], spec["better"]),
                         "unit": spec["unit"]}
        for name, spec in e2e_spec.items() if untraced and f"wall_{name}" in untraced[0]
    }
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(traced_mode),
        "summary": summary,
        "wall_summary": wall_summary,
        "error_share": failed / attempted,
        "passes": passes,
        "problems": problems,
        "digest": passes[0]["digest"] if passes else None,
        "properties": fx.properties(),
        "environment": environment(),
        "notes": NOTES,
    }
    if traced_mode:
        metrics = traced_metrics(passes, layer_spec)
        trace_dir = WORK / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        rec.write(trace_dir / f"{workload}.jsonl")
        detail["trace_file"] = str((trace_dir / f"{workload}.jsonl").relative_to(ROOT))
    else:
        metrics = {name: {"value": s["median"], "unit": s["unit"]} for name, s in summary.items()}
    shutil.rmtree(fx.out_dir, ignore_errors=True)
    return {
        "detail": detail,
        "result": {
            "correct": not problems and failed == 0 and len(metrics) > 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics,
        },
    }


def traced_metrics(passes: list[dict], layer_spec: dict) -> dict:
    """Per-layer metrics: mean over traced passes, plus the overhead of the
    traced passes' work time against the untraced ones."""
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    if not traced or not untraced:
        return {}
    out = {}
    for name, spec in layer_spec.items():
        if name == "trace.overhead_share":
            t = statistics.median(p["sample"]["work_s"] for p in traced)
            u = statistics.median(p["sample"]["work_s"] for p in untraced)
            value = (t - u) / u
        else:
            value = statistics.fmean(p["layers"][name] for p in traced)
        out[name] = {"value": value, "unit": spec["unit"]}
    return out


# --------------------------------------------------------------------------
# All workloads
# --------------------------------------------------------------------------


def run_child(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} trace {trace} exited {proc.returncode}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(seed: int, seconds: float, out: str | None) -> int:
    report = {"workloads": {}}
    attempted = failed = 0
    correct = True
    for workload in WORKLOADS:
        detail, result = run_child(workload, seed, seconds, 0)
        summary = {**detail["summary"], **detail["wall_summary"]}
        tdetail, tresult = run_child(workload, seed, seconds, 1)
        correct &= result["correct"] and tresult["correct"]
        w_attempted = result["attempted"] + tresult["attempted"]
        w_failed = result["failed"] + tresult["failed"]
        attempted += w_attempted
        failed += w_failed
        report["workloads"][workload] = {
            "end_to_end": summary,
            "error_share": w_failed / w_attempted,
            "per_layer": tresult["metrics"],
            "properties": detail["properties"],
            "problems": detail["problems"] + tdetail["problems"],
        }
        print(f"== {workload}  (error_share {w_failed}/{w_attempted} = {w_failed / w_attempted:.3f})")
        for name, s in summary.items():
            print(f"  {name:<22} median {s['median']:<12.6g} {s['tail']} {s['tail_value']:<12.6g}"
                  f" n={s['n']:<3} {s['unit']}")
        for name, m in tresult["metrics"].items():
            if m["value"]:
                print(f"    {name:<44} {m['value']:<14.6g} {m['unit']}")
    report["environment"] = tdetail["environment"]
    report["notes"] = NOTES
    for note in NOTES:
        print(f"note: {note}")
    if out:
        Path(out).write_text(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}}))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the combined report here (all only)")
    args = ap.parse_args(argv)
    if not (SRC / "qcmine" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"qcmine sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.out)
    sys.path.insert(0, str(SRC))
    res = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, s in {**res["detail"]["summary"], **res["detail"]["wall_summary"]}.items():
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']} "
              f"({s['tail']} {s['tail_value']:.6g}, n={s['n']})")
    print(f"{args.workload} error_share: {res['detail']['error_share']:.3f}")
    problems = res["detail"]["problems"]
    for p in problems[:20]:
        print(f"PROBLEM: {p}")
    if len(problems) > 20:
        print(f"PROBLEM: ... and {len(problems) - 20} more")
    print(json.dumps({"detail": res["detail"]}))
    print(json.dumps(res["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
