"""The two workloads: set-up, one unit of timed work, and output checks.

Each workload's timed phase repeats a unit: one cold evaluation, or one
pass of 120 interactive answers. Both wait mostly on the fake server's
injected round trips, so their wall times measure the program's critical
path rather than how much CPU the host lends this machine. A unit drives
only the program's public modules, reached through their module attributes
so that tracing can wrap them. All units are closed loops from one
generator thread; the program's own pools run with the shipped parallelism
of 4.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import shutil
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import gen
from fakeserver import FakeServer
from langrepo import embed, evalharness, ingest, llm, prompts, repository, vqa
from tracing import QUESTION, EvalProbe, Patches

LATENCY_S = 0.020
N_VIDEOS, N_CAPTIONS, N_QUESTIONS = 12, 600, 10


@dataclass
class Unit:
    """What one unit of timed work did and how long it took."""

    wall_s: float
    question_s: list[float] = field(default_factory=list)
    requests: int = 0
    prompt_chars: int = 0
    attempted: int = 0
    violations: list[str] = field(default_factory=list)
    calls: list = field(default_factory=list)
    peak_inflight: int = 0
    peak_threads: int = 0
    backend_calls: dict = field(default_factory=dict)
    backend_prompt_chars: int = 0
    backend_reply_chars: int = 0
    steal_share: float = 0.0


class MeteredClient(llm.LlmClient):
    """LlmClient that also counts the prompt characters it is asked for.

    It counts summarize requests too, and those whose prompt lacks
    ``condition_on`` when that is set: the question a conditioned read must
    put into every summarize prompt.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._chars_lock = threading.Lock()
        self.prompt_chars = 0
        self.condition_on: str | None = None
        self.summarize_requests = 0
        self.unconditioned = 0

    def _count(self, n: int) -> None:
        with self._chars_lock:
            self.prompt_chars += n

    def generate(self, req):
        self._count(len(req.prompt))
        if req.purpose_tag == "summarize":
            missing = self.condition_on is not None and self.condition_on not in req.prompt
            with self._chars_lock:
                self.summarize_requests += 1
                self.unconditioned += missing
        return super().generate(req)

    def score(self, req):
        self._count(len(req.prefix) + len(req.continuation))
        return super().score(req)

    def requests(self) -> int:
        """Requests answered so far, by the backend or from the cache."""
        return sum(self.ledger.snapshot().values())


def make_client(app, latency_s: float, cache_dir=None):
    """A fresh client on a fresh fake server, as one CLI invocation makes."""
    server = FakeServer(llm.MockBackend(), latency_s)
    return MeteredClient(server, cache_dir=cache_dir, max_parallel=app.parallelism), server


def _account(unit: Unit, clients) -> None:
    for client, server in clients:
        unit.requests += client.requests()
        unit.prompt_chars += client.prompt_chars
        unit.calls.extend(server.records)
        unit.peak_inflight = max(unit.peak_inflight, server.peak_inflight)
        unit.peak_threads = max(unit.peak_threads, server.peak_threads)
        for purpose, n in server.calls.items():
            unit.backend_calls[purpose] = unit.backend_calls.get(purpose, 0) + n
        unit.backend_prompt_chars += server.prompt_chars
        unit.backend_reply_chars += server.reply_chars


# ---------------------------------------------------------------- checks


def _parts(total: int, n: int) -> list[int]:
    n = min(n, total)
    base, rem = divmod(total, n)
    return [base + 1] * rem + [base] * (n - rem)


def _law(p: int, cfg) -> int:
    """p - floor(x * |src|), with |src| = p - q and q the destination count."""
    if p < 2:
        return p
    q = max(1, min(int(p * cfg.dst_ratio + 0.5), p - 1))
    return p - math.floor(cfg.grouping_ratio * (p - q))


def check_repo(repo, n_captions: int) -> list[str]:
    """Count law on every entry and occurrence conservation on every scale."""
    cfg = repo.config
    bad = []
    total = n_captions
    for scale_index, (n_chunks, scale) in enumerate(zip(cfg.chunk_schedule, repo.scales)):
        entries = sorted(scale, key=lambda e: e.chunk_index)
        sizes = _parts(total, n_chunks)
        if len(entries) != len(sizes):
            bad.append(f"{repo.video_id} scale {scale_index}: {len(entries)} entries, expected {len(sizes)}")
            return bad
        for entry, p in zip(entries, sizes):
            if len(entry.descriptions) != _law(p, cfg):
                bad.append(
                    f"{repo.video_id} scale {scale_index} chunk {entry.chunk_index}: "
                    f"{len(entry.descriptions)} descriptions from {p}, count law says {_law(p, cfg)}"
                )
        occurrences = sum(d.occurrences for e in entries for d in e.descriptions)
        if occurrences != n_captions:
            bad.append(f"{repo.video_id} scale {scale_index}: {occurrences} occurrences, {n_captions} captions")
        total = sum(len(e.descriptions) for e in entries)
    if len(repo.scales) != len(cfg.chunk_schedule):
        bad.append(f"{repo.video_id}: {len(repo.scales)} scales for schedule {cfg.chunk_schedule}")
    return bad


def check_prediction(prediction, item) -> list[str]:
    """The mock scores an option -len/10, so the shortest (first) must win."""
    want_scores = [-len(o) / 10.0 for o in item.options]
    want = min(range(len(item.options)), key=lambda i: (len(item.options[i]), i))
    if prediction.per_option_scores != want_scores or prediction.choice_index != want:
        return [f"{item.question_id}: predicted {prediction.choice_index} {prediction.per_option_scores}, want {want}"]
    return []


def expected_descriptions(repo, question: str | None) -> list[str]:
    """What read_from_repo must return for this repository and question with
    the mock behind the client: one summary per entry of the scales read,
    scale ascending, then chunk index ascending, each of a prompt that holds
    the question exactly when the repository's config conditions on it."""
    cfg = repo.config
    take = len(repo.scales) if cfg.read_scales is None else max(1, min(cfg.read_scales, len(repo.scales)))
    mock = llm.MockBackend()
    out = []
    for scale in repo.scales[len(repo.scales) - take:]:
        for entry in sorted(scale, key=lambda e: e.chunk_index):
            lines = [repository.render_description_line(d, cfg) for d in entry.descriptions]
            prompt = prompts.render_summarize(lines, question if cfg.question_conditioning else None)
            out.append(mock.complete(llm.GenerationRequest(prompt=prompt, purpose_tag="summarize")))
    return out


def check_descriptions(descriptions, expected: list[str], question_id: str) -> list[str]:
    """The descriptions a question was answered from are the expected ones."""
    if len(descriptions) != len(expected):
        return [f"{question_id}: read returned {len(descriptions)} descriptions, want {len(expected)}"]
    wrong = [i for i, (got, want) in enumerate(zip(descriptions, expected)) if got != want]
    if wrong:
        return [f"{question_id}: descriptions {wrong} differ from the summaries of their entries"]
    return []


def digest(descriptions) -> str:
    """A digest of one question's descriptions, in order."""
    h = hashlib.blake2b(digest_size=16)
    for d in descriptions:
        h.update(d.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()


def _fingerprint(predictions, descriptions: dict[str, list[str]], repos=()) -> list[tuple]:
    """What must repeat exactly: each question's choice, scores and
    descriptions, and the canonical JSON of each repository built."""
    return [
        (p.question_id, p.choice_index, tuple(p.per_option_scores or ()), digest(descriptions.get(p.question_id, ())))
        for p in predictions
    ] + sorted((r.video_id, digest([repository.to_canonical_json(r)])) for r in repos)


# ------------------------------------------------------------- workloads


class Workload:
    name = ""
    # Builds plus questions in one unit: what a unit that raises takes away.
    unit_attempts = N_VIDEOS + N_VIDEOS * N_QUESTIONS

    def __init__(self, app, seed: int, work_dir: Path):
        self.app, self.seed, self.work_dir = app, seed, work_dir
        self.embedder = embed.Embedder(app.embed)
        self.setup_violations: list[str] = []
        self.save_s: list[float] = []  # every repository save of every set-up

    def setup(self, attempt_dir: Path) -> None:
        """Write the inputs, prepare what the unit needs, and warm the process
        up with the same work so that lazy initialization is not timed."""
        raise NotImplementedError

    def unit(self, index: int) -> Unit:
        raise NotImplementedError

    def _load_eval_inputs(self):
        """Dataset plus one caption set per video, as `langrepo eval` loads them."""
        items = evalharness.load_qa_dataset(self.dataset)
        captions = {
            vid: ingest.load_captions(self.captions_dir / f"{vid}.json")
            for vid in sorted({it.video_id for it in items})
        }
        return items, captions

    def _evaluate(self, cache_dir: Path, latency_s: float) -> tuple[Unit, list[tuple]]:
        """One timed evaluate of the whole dataset in langrepo mode."""
        probe = EvalProbe()
        patches = Patches()
        probe.install(patches, evalharness)
        try:
            start = time.perf_counter()
            items, captions = self._load_eval_inputs()
            client, server = make_client(self.app, latency_s, cache_dir)
            report = evalharness.evaluate(
                items, captions, self.app.build, "langrepo",
                evalharness.Providers(client=client, embedder=self.embedder),
                classifier="loglik", loglik_format="plain",
            )
            wall = time.perf_counter() - start
        finally:
            patches.restore()
        unit = Unit(wall_s=wall, question_s=list(probe.question_s))
        unit.attempted = len(items) + len(probe.builds)
        _account(unit, [(client, server)])
        unit.peak_threads = max(unit.peak_threads, probe.peak_threads)
        for _, repo in probe.builds:
            unit.violations += check_repo(repo, N_CAPTIONS)
        if len(probe.builds) != len(captions):
            unit.violations.append(f"{len(probe.builds)} builds for {len(captions)} videos")
        repos = {repo.video_id: repo for _, repo in probe.builds}
        for item, prediction in zip(items, report.predictions):
            unit.violations += check_prediction(prediction, item)
            unit.violations += check_descriptions(probe.descriptions.get(item.question_id, []),
                                                  expected_descriptions(repos[item.video_id], item.question),
                                                  item.question_id)
        return unit, _fingerprint(report.predictions, probe.descriptions, repos.values())


class EvalCold(Workload):
    name = "eval-cold"

    def setup(self, attempt_dir: Path) -> None:
        """Evaluate once into a disk cache, as a unit does (the warm-up and
        the reference every timed unit must repeat), then evaluate again
        with a fresh client on that cache: a re-evaluation must make no
        backend call and repeat the cold predictions and descriptions.
        The first evaluation runs at the injected latency so that set-up,
        like the units, waits mostly on round trips: at zero latency it is
        CPU-bound and a busy host slowed it by half."""
        self.captions_dir, self.dataset = gen.write_inputs(
            self.seed, attempt_dir, N_VIDEOS, N_CAPTIONS, N_QUESTIONS
        )
        cold, self.reference = self._evaluate(attempt_dir / "cache", LATENCY_S)
        warm, fingerprint = self._evaluate(attempt_dir / "cache", LATENCY_S)
        self.setup_violations = cold.violations + warm.violations
        if fingerprint != self.reference:
            self.setup_violations.append("warm re-evaluation predictions or descriptions differ from the cold one")
        if sum(warm.backend_calls.values()):
            self.setup_violations.append(f"warm re-evaluation made backend calls: {warm.backend_calls}")

    def unit(self, index: int) -> Unit:
        cache_dir = self.work_dir / f"cache-{index}"
        try:
            unit, fingerprint = self._evaluate(cache_dir, LATENCY_S)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        if fingerprint != self.reference:
            unit.violations.append("predictions or descriptions differ between repeated cold evaluations")
        return unit


class AnswerConditioned(Workload):
    name = "answer-conditioned"
    unit_attempts = N_VIDEOS * N_QUESTIONS

    def setup(self, attempt_dir: Path) -> None:
        """Build and save the conditioned repositories, then warm up by
        answering each video's first question as a unit does. Both run at
        the injected latency, so that set-up, like the units, waits mostly
        on round trips: a busy host then moves its time little more than
        theirs."""
        self.captions_dir, self.dataset = gen.write_inputs(
            self.seed, attempt_dir, N_VIDEOS, N_CAPTIONS, N_QUESTIONS
        )
        cfg = dataclasses.replace(self.app.build, question_conditioning=True)
        items, captions = self._load_eval_inputs()
        self.items = items
        self.repo_paths = {}
        self.setup_violations = []
        client, _ = make_client(self.app, LATENCY_S)
        for vid, caption_set in captions.items():
            repo = repository.build(caption_set, cfg, self.embedder, client)
            self.setup_violations += check_repo(repo, N_CAPTIONS)
            path = attempt_dir / f"{vid}.repo.json"
            start = time.perf_counter()
            repository.save(repo, path)
            self.save_s.append(time.perf_counter() - start)
            self.repo_paths[vid] = path
        loaded = {vid: repository.load(path) for vid, path in self.repo_paths.items()}
        for vid, repo in loaded.items():
            if repository.to_canonical_json(repo).encode("utf-8") != self.repo_paths[vid].read_bytes():
                self.setup_violations.append(f"{vid}: save/load/save is not byte-stable")
        self.expected = {it.question_id: expected_descriptions(loaded[it.video_id], it.question) for it in items}
        warm = self._answer_all(items[::N_QUESTIONS], LATENCY_S)
        self.setup_violations += warm.violations

    def _answer_all(self, items, latency_s: float) -> Unit:
        """Answer the questions in turn through load -> read -> answer, then
        check each prediction and the descriptions it was answered from
        against the values the mock must give."""
        client, server = make_client(self.app, latency_s)
        latencies, predictions, reads, requests = [], [], [], []
        start = time.perf_counter()
        for item in items:
            token = QUESTION.set(item.question_id)
            client.condition_on = item.question
            asked_before, unconditioned_before = client.summarize_requests, client.unconditioned
            asked = time.perf_counter()
            try:
                repo = repository.load(self.repo_paths[item.video_id])
                read = repository.read_from_repo(repo, repo.config, item.question, client)
                prediction = vqa.answer_loglik(read, item, self.app.loglik_format, client)
            finally:
                QUESTION.reset(token)
            latencies.append(time.perf_counter() - asked)
            predictions.append(prediction)
            reads.append(read)
            requests.append((repo.config.question_conditioning, client.summarize_requests - asked_before,
                             client.unconditioned - unconditioned_before))
        wall = time.perf_counter() - start

        violations = []
        for item, prediction, read, (conditioned, summarized, unconditioned) in zip(items, predictions, reads, requests):
            violations += check_prediction(prediction, item)
            violations += check_descriptions(read, self.expected[item.question_id], item.question_id)
            if not conditioned or summarized != len(read) or unconditioned:
                violations.append(f"{item.question_id}: question_conditioning {conditioned}, "
                                  f"{summarized} summarize requests for {len(read)} descriptions, "
                                  f"{unconditioned} of them without the question")
        unit = Unit(wall_s=wall, question_s=latencies, attempted=len(items), violations=violations)
        _account(unit, [(client, server)])
        return unit

    def unit(self, index: int) -> Unit:
        return self._answer_all(self.items, LATENCY_S)


WORKLOADS = {cls.name: cls for cls in (EvalCold, AnswerConditioned)}
assert set(WORKLOADS) == set(gen.WORKLOAD_WHY)
