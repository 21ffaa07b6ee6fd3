"""Seeded input generator for the qcmine benchmark.

Writes everything a workload feeds the program, plus the ground truth the
benchmark checks the program's outputs against:

* a shared, seed-independent set of artifacts: the three ensemble voters
  (biv_hnn / text_hnn / code_hnn) at the paper's sizes with seeded,
  untrained weights over a ~20k-word vocabulary, the same voters at a small
  size for mine_ingest, and a trained question filter. Weight values do
  not change the compute, so one set serves every seed;
* per workload and seed: the dump (and, for ``train_biv``, the label CSVs
  and config) and ``truth.json``.

Everything lands in a cache directory keyed by workload, seed and a hash of
this file (the shared artifacts also by a hash of the qcmine sources, which
write them), so an edit to either invalidates it. Generation is never
timed; the benchmark runs this script in a child process so that its memory
does not count towards the workload's peak RSS.

    python3 bench/gen.py --workload mine_multi --seed 3 --cache bench/.work/fixtures
"""

from __future__ import annotations

import argparse
import bisect
import dataclasses
import hashlib
import html
import itertools
import json
import math
import os
import random
import shutil
import statistics
import sys
from pathlib import Path

GEN_VERSION = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]
SRC = Path(__file__).resolve().parents[1] / "src"

# Block lengths. The means are the ROADMAP's figures (title ~10, pre ~30,
# code ~60, post ~30 tokens); the lognormal spread around them is an
# assumption, not a measurement. Each entry: (mean, sigma of the logarithm).
LENGTHS = {
    "title": (8, 0.3),        # words after a two- or three-word opener
    "text_block": (30, 0.6),  # words, spread over one to three HTML elements
    "code_block": (7, 0.5),   # lines of 8 tokens, plus a 4-token print line
    "question": (20, 0.5),    # words of the question body
}
# Lengths are drawn in shuffled rounds of this many evenly spaced quantiles,
# so every seed draws nearly the same multiset of lengths and a workload's
# total work does not depend on its seed.
STRATA = 40
# HTML element kinds of prose, as Stack Overflow answers use them (weights).
TEXT_KINDS = [("p", 8), ("p_inline", 4), ("ul", 2), ("ol", 1), ("blockquote", 2), ("h2", 1)]
PRE_OPENERS = ["<pre><code>", '<pre class="lang-py prettyprint-override"><code>']

POOL_WORDS = 24000       # dump words are drawn Zipf-like from this pool ...
VOCAB_WORDS = 20000      # ... and the voters know its 20k most frequent
VOTER_SEED = 1803        # fixed: the shared artifacts do not depend on --seed
# mine_ingest never reaches the ensemble, so it loads voters this small; its
# passes then measure the pre-ensemble pipeline rather than checkpoint reads.
SMALL_VOTER = {"d_embed": 8, "d_token_gru": 4, "d_block": 4}
FILTER_QUESTIONS = 240
# The length features are unscaled (code blocks reach ~150 tokens): SGD needs
# a small step and many epochs to settle on the title keywords.
FILTER_EPOCHS = 200
FILTER_LR = 0.01

# Openers of equal word counts in both classes, so that only the title
# keywords tell the question filter a question's type.
HOWTO_OPENERS = ["How to", "How do I", "How can I"]
OTHER_OPENERS = ["What is", "Why does it", "Difference between the"]

# Each template is exactly 8 tokens both as normalized Python (VAR / NUMBER
# for names and literals; keywords survive the keep-list) and as a plain
# word/punctuation split, so every code block has the same size.
CODE_TEMPLATES = [
    "{a} = {b}({c}, {n})",
    "{a}.{b}({c}, {n})",
    "for {a} in {b}: {c} += {n}",
    "while {a} < {n}: {b} -= 1",
    "{a} = {b}[{n}] + {c}",
]


# --------------------------------------------------------------------------
# Words
# --------------------------------------------------------------------------

_SYLLABLES = [c + v for c in "bdgklmnprst" for v in "aeiou"]


def word_pool() -> list[str]:
    """POOL_WORDS distinct pseudo-words, most frequent first. Fixed for a
    generator version.

    Words are consonant-vowel syllables over letters that spell none of the
    question filter's title keywords (why, error, vs, how to, ...), so only
    the title opener decides a question's type. Names on the Python
    keep-list are left out, so every identifier normalizes to VAR.
    """
    from qcmine.tokenize import default_python_keep_list

    banned = {w.lower() for w in default_python_keep_list()}
    rng = random.Random(VOTER_SEED)
    words: list[str] = []
    seen: set[str] = set()
    while len(words) < POOL_WORDS:
        w = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(2, 4)))
        if w not in seen and w not in banned:
            seen.add(w)
            words.append(w)
    return words


class WordSampler:
    """Zipf-like draws (weight 1 / (rank + 10)) from the word pool."""

    def __init__(self, words: list[str], rng: random.Random):
        self.words = words
        self.rng = rng
        self.cum = list(itertools.accumulate(1.0 / (r + 10) for r in range(len(words))))

    def take(self, k: int) -> list[str]:
        total = self.cum[-1]
        return [
            self.words[bisect.bisect_left(self.cum, self.rng.random() * total)] for _ in range(k)
        ]


# --------------------------------------------------------------------------
# Posts
# --------------------------------------------------------------------------


class StratifiedLengths:
    """Lognormal lengths with a given mean, handed out in shuffled rounds of
    STRATA evenly spaced quantiles."""

    def __init__(self, rng: random.Random, mean: float, sigma: float):
        mu = math.log(mean) - sigma * sigma / 2
        normal = statistics.NormalDist()
        self.values = [
            max(1, round(math.exp(mu + sigma * normal.inv_cdf((i + 0.5) / STRATA))))
            for i in range(STRATA)
        ]
        self.rng = rng
        self.queue: list[int] = []

    def next(self) -> int:
        if not self.queue:
            self.queue = self.values[:]
            self.rng.shuffle(self.queue)
        return self.queue.pop()


class PostMaker:
    """Builds titles, text blocks and code blocks of drawn token lengths and
    keeps the token counts of what it built."""

    def __init__(self, rng: random.Random, words: list[str]):
        self.rng = rng
        self.sample = WordSampler(words, rng)
        self.lengths = {kind: StratifiedLengths(rng, *spec) for kind, spec in LENGTHS.items()}
        self.tokens = {"title": [], "text_block": [], "code_block": []}
        self.text_kinds = [kind for kind, w in TEXT_KINDS for _ in range(w)]

    def title(self, howto: bool) -> str:
        opener = self.rng.choice(HOWTO_OPENERS if howto else OTHER_OPENERS)
        n = self.lengths["title"].next()
        self.tokens["title"].append(len(opener.split()) + n)
        return f"{opener} {' '.join(self.sample.take(n))}"

    def text(self) -> str:
        """A text block of a drawn number of words (one token each), split
        over one to three prose elements."""
        words = self.sample.take(self.lengths["text_block"].next())
        self.tokens["text_block"].append(len(words))
        n_parts = min(len(words), self.rng.randint(1, 3))
        cuts = sorted(self.rng.sample(range(1, len(words)), n_parts - 1)) if n_parts > 1 else []
        return "".join(
            self._element(words[a:b]) for a, b in zip([0] + cuts, cuts + [len(words)])
        )

    def _element(self, words: list[str]) -> str:
        kind = self.rng.choice(self.text_kinds)
        if kind == "p_inline":
            i = self.rng.randrange(len(words))
            words = words[:i] + [f"<code>{words[i]}</code>"] + words[i + 1:]
        elif kind in ("ul", "ol") and len(words) > 1:
            k = self.rng.randint(2, min(4, len(words)))
            cuts = sorted(self.rng.sample(range(1, len(words)), k - 1))
            items = (" ".join(words[a:b]) for a, b in zip([0] + cuts, cuts + [len(words)]))
            return f"<{kind}>" + "".join(f"<li>{item}</li>" for item in items) + f"</{kind}>"
        body = " ".join(words)
        if kind == "blockquote":
            return f"<blockquote><p>{body}</p></blockquote>"
        if kind == "h2":
            return f"<h2>{body}</h2>"
        return f"<p>{body}</p>"

    def code(self) -> str:
        n_lines = self.lengths["code_block"].next()
        lines = []
        for _ in range(n_lines):
            a, b, c = self.sample.take(3)
            template = self.rng.choice(CODE_TEMPLATES)
            lines.append(template.format(a=a, b=b, c=c, n=self.rng.randint(0, 999)))
        lines.append(f"print({self.sample.take(1)[0]})")
        self.tokens["code_block"].append(n_lines * 8 + 4)
        return "\n".join(lines)

    def answer(self, n_code: int) -> tuple[str, list[str]]:
        """HTML of an answer alternating text and code: T (C T)*n_code.
        Returns (html, raw code blocks in order)."""
        parts = [self.text()]
        codes = []
        for _ in range(n_code):
            code = self.code()
            codes.append(code)
            parts.append(f"{self.rng.choice(PRE_OPENERS)}{html.escape(code)}\n</code></pre>")
            parts.append(self.text())
        return "".join(parts), codes

    def question_html(self) -> str:
        return f"<p>{' '.join(self.sample.take(self.lengths['question'].next()))}</p>"

    def token_lengths(self) -> dict:
        """Per block kind: count, mean and quantiles of the token lengths
        built so far."""
        out = {}
        for kind, values in self.tokens.items():
            if len(values) < 2:
                continue
            deciles = statistics.quantiles(values, n=10)
            out[kind] = {"n": len(values), "mean": round(statistics.fmean(values), 3),
                         "min": min(values), "p10": deciles[0], "p50": statistics.median(values),
                         "p90": deciles[8], "max": max(values)}
        return out


def record(qid, title, tags, answer_html, question_html):
    return {
        "question_id": qid,
        "title": title,
        "tags": tags,
        "question_body_html": question_html,
        "accepted_answer_html": answer_html,
    }


# --------------------------------------------------------------------------
# Workloads
# --------------------------------------------------------------------------

MINE_MULTI_RECORDS = 72                # code blocks cycle 2, 3, 4, 5
MINE_INGEST_RECORDS = 20000
TRAIN_INSTANCES = 100                  # one batch of 100 per epoch
VALID_INSTANCES = 20
# train_biv's dump also holds questions no label refers to, as a full dump
# does around its annotated sample; the set-up's dump reads pass over them.
TRAIN_UNLABELED = 10000
TRAIN_EPOCHS = 1
WORKLOADS = ("mine_multi", "mine_ingest", "train_biv")
KEEP_SEEDS = 4                         # per-seed fixtures kept per workload

# mine_ingest: (kind, share per 100 records, code blocks in the answer,
# tags, how-to title). Every record is decided before the ensemble:
# multi-code answers sit only under off-domain or non-how-to questions.
INGEST_MIX = [
    ("malformed", 1, 1, ["python"], True),
    ("domain_multi", 10, "multi", ["java"], True),
    ("domain_single", 10, 1, ["java"], True),
    ("non_howto_multi", 12, "multi", ["python"], False),
    ("non_howto_single", 13, 1, ["python"], False),
    ("no_code", 14, 0, ["python"], True),
    ("single_code", 40, 1, ["python"], True),
]
# The skip kinds read_dump documents. Wrong-typed fields ("tags": null,
# "accepted_answer_html": null) crash mine today and are left out until
# the ingestion path handles them.
MALFORMED_KINDS = ("bad_json", "missing_field", "bad_qid")


def _balanced(rng: random.Random, kinds: list, n: int) -> list:
    """n labels in the exact proportions of ``kinds`` ((label, weight)
    pairs), shuffled."""
    per = sum(w for _, w in kinds)
    out = [k for k, w in kinds for _ in range(w * n // per)]
    out += [kinds[-1][0]] * (n - len(out))
    rng.shuffle(out)
    return out


def _base_expected(records: int) -> dict:
    return {
        "records": records, "parse_errors": 0, "domain_skipped": 0,
        "non_howto": 0, "no_code": 0, "single_code_pairs": 0,
    }


def gen_mine_multi(seed: int, words: list[str], out: Path) -> dict:
    rng = random.Random(f"mine_multi:{seed}")
    maker = PostMaker(rng, words)
    counts = [2 + i % 4 for i in range(MINE_MULTI_RECORDS)]
    rng.shuffle(counts)
    code_by_qid = {}
    with open(out / "dump.jsonl", "w", encoding="utf-8") as f:
        for i, k in enumerate(counts):
            qid = 1_000_000 + seed * 10_000 + i
            answer, codes = maker.answer(k)
            code_by_qid[qid] = codes
            rec = record(qid, maker.title(True), ["python"], answer, maker.question_html())
            f.write(json.dumps(rec) + "\n")
    return {
        "expected": _base_expected(len(counts)),
        "multi_code_blocks": sum(counts),
        "code_by_qid": code_by_qid,
        "properties": {
            "records": len(counts),
            "code_blocks": sum(counts),
            "ensemble_blocks": sum(counts),
            "token_lengths": maker.token_lengths(),
        },
    }


def gen_mine_ingest(seed: int, words: list[str], out: Path) -> dict:
    rng = random.Random(f"mine_ingest:{seed}")
    maker = PostMaker(rng, words)
    mix = {kind: spec for kind, *spec in INGEST_MIX}
    kinds = _balanced(rng, [(kind, spec[0]) for kind, spec in mix.items()], MINE_INGEST_RECORDS)
    expected = _base_expected(len(kinds))
    malformed = {k: 0 for k in MALFORMED_KINDS}
    code_by_qid = {}
    n_code = 0
    with open(out / "dump.jsonl", "w", encoding="utf-8") as f:
        for i, kind in enumerate(kinds):
            _, k, tags, howto = mix[kind]
            k = rng.randint(2, 5) if k == "multi" else k
            qid = 2_000_000 + seed * 100_000 + i
            answer, codes = maker.answer(k)
            rec = record(qid, maker.title(howto), tags, answer, maker.question_html())
            if kind == "malformed":
                bad = MALFORMED_KINDS[sum(malformed.values()) % len(MALFORMED_KINDS)]
                malformed[bad] += 1
                expected["parse_errors"] += 1
                if bad == "bad_json":
                    f.write(json.dumps(rec)[:-7] + "\n")
                    continue
                if bad == "missing_field":
                    del rec["tags"]
                else:
                    rec["question_id"] = f"q{qid}"
            elif tags != ["python"]:
                expected["domain_skipped"] += 1
            elif k == 0:
                expected["no_code"] += 1
            elif not howto:
                expected["non_howto"] += 1
            else:
                expected["single_code_pairs"] += 1
                code_by_qid[qid] = codes
            n_code += k
            f.write(json.dumps(rec) + "\n")
    return {
        "expected": expected,
        "multi_code_blocks": 0,
        "malformed": malformed,
        "code_by_qid": code_by_qid,
        "properties": {
            "records": len(kinds),
            "code_blocks": n_code,
            "ensemble_blocks": 0,
            "token_lengths": maker.token_lengths(),
        },
    }


def gen_train_biv(seed: int, words: list[str], out: Path) -> dict:
    rng = random.Random(f"train_biv:{seed}")
    maker = PostMaker(rng, words)
    first_qid = qid = 3_000_000 + seed * 100_000
    n_code = 0
    with open(out / "dump.jsonl", "w", encoding="utf-8") as dump:
        for split, n_inst in (("train", TRAIN_INSTANCES), ("valid", VALID_INSTANCES)):
            rows = []
            labels = _balanced(rng, [(0, 1), (1, 1)], n_inst)
            while len(rows) < n_inst:
                k = rng.randint(2, 5)
                answer, _ = maker.answer(k)
                n_code += k
                for pos in range(1, min(k, n_inst - len(rows)) + 1):
                    rows.append((qid, pos, labels[len(rows)]))
                rec = record(qid, maker.title(True), ["python"], answer, maker.question_html())
                dump.write(json.dumps(rec) + "\n")
                qid += 1
            with open(out / f"{split}.csv", "w", encoding="utf-8") as f:
                f.write("question_id,code_position,label\n")
                f.writelines(f"{q},{p},{lab}\n" for q, p, lab in rows)
        for _ in range(TRAIN_UNLABELED):
            k = rng.randint(0, 5)
            answer, _ = maker.answer(k)
            n_code += k
            rec = record(qid, maker.title(True), ["python"], answer, maker.question_html())
            dump.write(json.dumps(rec) + "\n")
            qid += 1
    config = {
        "language": "python",
        "model": {"variant": "biv_hnn", "d_embed": 150, "d_token_gru": 64, "d_block": 128,
                  "seed": seed},
        "train": {"lr": 0.001, "batch_size": 100, "max_epochs": TRAIN_EPOCHS,
                  "patience": TRAIN_EPOCHS, "seed": seed},
    }
    (out / "config.json").write_text(json.dumps(config, indent=1))
    return {
        "train_instances": TRAIN_INSTANCES,
        "valid_instances": VALID_INSTANCES,
        "epochs": TRAIN_EPOCHS,
        "properties": {
            "records": qid - first_qid,
            "unlabeled_records": TRAIN_UNLABELED,
            "code_blocks": n_code,
            "train_instances": TRAIN_INSTANCES,
            "valid_instances": VALID_INSTANCES,
            "epochs": TRAIN_EPOCHS,
            "batch_size": 100,
            "token_lengths": maker.token_lengths(),
        },
    }


# --------------------------------------------------------------------------
# Shared artifacts: voters and question filter
# --------------------------------------------------------------------------


def _filter_questions(maker: PostMaker, n: int) -> list:
    """n featurized questions, alternating how-to and other, with answers of
    1-5 code blocks in both classes."""
    from qcmine import question_filter
    from qcmine.post_parser import parse_answer_post

    labeled = []
    for i in range(n):
        howto = i % 2 == 0
        answer, _ = maker.answer(1 + (i // 2) % 5)
        feats = question_filter.featurize_question(
            maker.title(howto),
            parse_answer_post(maker.question_html(), i),
            parse_answer_post(answer, i),
        )
        kind = question_filter.QuestionLabel.HOW_TO if howto else question_filter.QuestionLabel.NON_HOW_TO
        labeled.append((feats, kind))
    return labeled


def gen_shared(words: list[str], out: Path) -> dict:
    from qcmine import models, question_filter
    from qcmine.models import Variant, VariantConfig
    from qcmine.tokenize import Language, normalize_code
    from qcmine.vocab_embed import build_vocab

    rng = random.Random(VOTER_SEED)
    maker = PostMaker(rng, words)
    openers = " ".join(HOWTO_OPENERS + OTHER_OPENERS).lower().split()
    word_vocab = build_vocab([words[:VOCAB_WORDS] + openers])
    code_vocab = build_vocab(
        [normalize_code(maker.code(), Language.PYTHON).tokens for _ in range(50)]
    )
    qfilter = question_filter.train_question_filter(
        _filter_questions(maker, FILTER_QUESTIONS), epochs=FILTER_EPOCHS, lr=FILTER_LR, seed=VOTER_SEED
    )
    held_out = _filter_questions(maker, FILTER_QUESTIONS)
    # The score is linear in the length features, so a question is classified
    # right at every length if it is at each corner of the lengths' range.
    # The held-out set draws every length stratum, so its range is the
    # generator's.
    ranges = {
        name: (min(getattr(f, name) for f, _ in held_out), max(getattr(f, name) for f, _ in held_out))
        for name in ("n_code_blocks_answer", "max_code_block_len", "title_len")
    }
    corners = [
        (dataclasses.replace(f, **dict(zip(ranges, corner))), lab)
        for f, lab in held_out[:2]
        for corner in itertools.product(*ranges.values())
    ]
    checked = held_out + corners
    wrong = sum(question_filter.classify_question(f, qfilter)[0] is not lab for f, lab in checked)
    if wrong:
        raise RuntimeError(f"question filter misclassifies {wrong} of {len(checked)} questions")
    qfilter.save(out / "filter.json")

    voters = {}
    for prefix, sizes in (("", {}), ("small_", SMALL_VOTER)):
        files = voters[f"{prefix}checkpoints"] = {}
        for variant in (Variant.BIV_HNN, Variant.TEXT_HNN, Variant.CODE_HNN):
            cfg = VariantConfig(variant=variant, seed=VOTER_SEED, **sizes)
            path = out / f"{prefix}{variant.value}.json"
            models.save_model(models.init_model(cfg, word_vocab, code_vocab), path)
            files[variant.value] = path.name
    return {
        **voters,
        "filter": "filter.json",
        "word_vocab": word_vocab.size,
        "code_vocab": code_vocab.size,
        "checkpoint_bytes": {
            key: {v: (out / p).stat().st_size for v, p in files.items()}
            for key, files in voters.items()
        },
    }


# --------------------------------------------------------------------------
# Cache
# --------------------------------------------------------------------------


def _build(target: Path, make) -> dict:
    """Create ``target`` with ``make(tmp_dir) -> truth`` unless it exists.
    Built in a temporary directory and renamed, so an interrupted build
    leaves nothing that looks complete."""
    truth_path = target / "truth.json"
    if truth_path.exists():
        return json.loads(truth_path.read_text())
    tmp = target.with_name(f"{target.name}.tmp{os.getpid()}")
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    truth = make(tmp)
    (tmp / "truth.json").write_text(json.dumps(truth))
    shutil.rmtree(target, ignore_errors=True)
    tmp.rename(target)
    return truth


def program_hash() -> str:
    """Digest of the qcmine sources. The shared artifacts are written by the
    program itself (checkpoint and filter formats), so they are rebuilt when
    it changes."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "qcmine").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:12]


def fixture_dirs(cache: Path, workload: str, seed: int) -> tuple[Path, Path]:
    return (
        cache / f"shared-{GEN_VERSION}-{program_hash()}",
        cache / f"{workload}-s{seed}-{GEN_VERSION}",
    )


def generate(cache: Path, workload: str, seed: int) -> None:
    words = word_pool()
    shared, own = fixture_dirs(cache, workload, seed)
    if workload != "train_biv":
        _build(shared, lambda d: gen_shared(words, d))
    maker = {"mine_multi": gen_mine_multi, "mine_ingest": gen_mine_ingest,
             "train_biv": gen_train_biv}[workload]
    _build(own, lambda d: maker(seed, words, d))
    os.utime(own)  # marks it as recently used for the pruning below
    # drop fixtures of other generator versions, stale shared artifacts and
    # all but the most recently used seeds of this workload
    for old in cache.iterdir():
        stale = GEN_VERSION not in old.name or (old.name.startswith("shared-") and old != shared)
        if old.is_dir() and stale:
            shutil.rmtree(old, ignore_errors=True)
    seeds = sorted(cache.glob(f"{workload}-s*-{GEN_VERSION}"), key=lambda d: d.stat().st_mtime)
    for old in seeds[:-KEEP_SEEDS]:
        shutil.rmtree(old, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--cache", type=Path, required=True)
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    args.cache.mkdir(parents=True, exist_ok=True)
    generate(args.cache, args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
