"""Command-line entry point.

Commands: build a repository from a caption file, answer one question
against a saved repository, evaluate a QA dataset, run the input-length
ablation, and inspect a repository's entries. Exit codes: 0 success,
2 usage or configuration error, 1 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import sys
from pathlib import Path

from . import evalharness, repository
from .config import AppConfig, load_app_config, make_providers
from .errors import (
    ConfigError,
    EmptyInput,
    LangRepoError,
    MalformedFile,
    MissingCaptions,
    OptionCountError,
    UnsupportedFactor,
    VersionMismatch,
)
from .ingest import load_captions
from .repository import load as load_repo
from .repository import render_description_line, save as save_repo
from .vqa import QaItem, answer_generative, answer_loglik

USAGE_ERRORS = (
    ConfigError,
    MalformedFile,
    EmptyInput,
    UnsupportedFactor,
    OptionCountError,
    MissingCaptions,
    VersionMismatch,
)


def _existing(path: str) -> Path:
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"path does not exist: {p}")
    return p


def _app_config(args) -> AppConfig:
    return load_app_config(_existing(args.config))


def cmd_build(args) -> int:
    cfg = _app_config(args)
    captions = load_captions(_existing(args.captions))
    providers = make_providers(cfg, cache_dir=args.cache_dir)
    repo = repository.build(
        captions, cfg.build, providers.embedder, providers.client, captioner=args.captioner
    )
    save_repo(repo, args.out)
    print(f"wrote {args.out}")
    print(f"video {repo.video_id}: {len(repo.scales)} scale(s)")
    for scale_index, scale in enumerate(repo.scales):
        n_desc = sum(len(e.descriptions) for e in scale)
        print(f"  scale {scale_index}: {len(scale)} entries, {n_desc} descriptions")
    print(evalharness.format_ledger(providers.client.ledger.snapshot()))
    return 0


def cmd_answer(args) -> int:
    cfg = _app_config(args)
    repo = load_repo(_existing(args.repo))
    classifier = args.classifier or cfg.classifier
    item = QaItem(
        question_id="cli",
        video_id=repo.video_id,
        question=args.question,
        options=list(args.options),
    )
    if classifier == "generative" and len(item.options) != 5:
        raise OptionCountError(
            f"generative classifier requires exactly 5 options, got {len(item.options)}"
        )
    providers = make_providers(cfg, cache_dir=args.cache_dir)
    descriptions = repository.read_from_repo(repo, repo.config, args.question, providers.client)
    if classifier == "generative":
        prediction = answer_generative(descriptions, item, repo.duration_s, providers.client)
    else:
        prediction = answer_loglik(descriptions, item, cfg.loglik_format, providers.client)
    print(f"answer: [{prediction.choice_index}] {item.options[prediction.choice_index]}")
    if prediction.per_option_scores is not None:
        for i, (option, score) in enumerate(zip(item.options, prediction.per_option_scores)):
            print(f"  {i}: {score:+.4f}  {option}")
    if prediction.fallback:
        print("warning: reply was unparseable, fell back to option 0", file=sys.stderr)
    print(evalharness.format_ledger(providers.client.ledger.snapshot()))
    return 0


def _load_captions_for(items: list[QaItem], captions_dir: Path) -> dict:
    captions_by_video = {}
    for video_id in sorted({it.video_id for it in items}):
        path = captions_dir / f"{video_id}.json"
        if not path.exists():
            raise MissingCaptions(f"no caption file for video {video_id!r} at {path}")
        captions_by_video[video_id] = load_captions(path)
    return captions_by_video


def cmd_eval(args) -> int:
    cfg = _app_config(args)
    items = evalharness.load_qa_dataset(_existing(args.dataset))
    captions_by_video = _load_captions_for(items, _existing(args.captions_dir))
    providers = make_providers(cfg, cache_dir=args.cache_dir)
    report = evalharness.evaluate(
        items,
        captions_by_video,
        cfg.build,
        args.mode,
        providers,
        classifier=cfg.classifier,
        loglik_format=cfg.loglik_format,
        shuffle_seed=args.shuffle_seed,
    )
    print(evalharness.format_report(report))
    evalharness.write_report(report, args.report_out)
    evalharness.write_predictions(report.predictions, args.predictions_out)
    print(f"wrote {args.report_out} and {args.predictions_out}")
    return 0


def cmd_ablate_length(args) -> int:
    cfg = _app_config(args)
    items = evalharness.load_qa_dataset(_existing(args.dataset))
    captions_by_video = _load_captions_for(items, _existing(args.captions_dir))
    providers = make_providers(cfg, cache_dir=args.cache_dir)
    reports = evalharness.run_length_ablation(
        items,
        captions_by_video,
        cfg.build,
        args.mode,
        providers,
        factors=tuple(args.factors),
        classifier=cfg.classifier,
        loglik_format=cfg.loglik_format,
    )
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for factor, report in reports.items():
        print(f"--- rate factor {factor}x ---")
        print(evalharness.format_report(report))
        evalharness.write_report(report, out_dir / f"report-{factor}x.json")
    print(f"wrote {len(reports)} report(s) to {out_dir}")
    return 0


def cmd_inspect(args) -> int:
    repo = load_repo(_existing(args.repo))
    display_cfg = dataclasses.replace(
        repo.config, include_timestamps=True, include_occurrences=True
    )
    print(f"video {repo.video_id} ({repo.duration_s:g}s), {len(repo.scales)} scale(s)")
    print(f"provenance: {json.dumps(repo.provenance, sort_keys=True)}")
    for scale_index, scale in enumerate(repo.scales):
        if args.scale is not None and scale_index != args.scale:
            continue
        print(f"scale {scale_index}:")
        for entry in scale:
            print(f"  chunk {entry.chunk_index}:")
            for d in entry.descriptions:
                print(f"    {render_description_line(d, display_cfg)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="langrepo",
        description="Iterative multi-scale textual repository over captioned video chunks.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a repository from a caption file")
    p.add_argument("--captions", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--cache-dir", default=None, help="override the config's LLM cache directory")
    p.add_argument("--captioner", default="unknown", help="provenance tag for the caption source")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("answer", help="answer one question against a saved repository")
    p.add_argument("--repo", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--options", nargs="+", required=True)
    p.add_argument("--classifier", choices=["generative", "loglik"], default=None)
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("eval", help="evaluate a QA dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--captions-dir", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=list(evalharness.MODES), default="langrepo")
    p.add_argument("--report-out", default="report.json")
    p.add_argument("--predictions-out", default="predictions.json")
    p.add_argument("--cache-dir", default=None)
    p.add_argument(
        "--shuffle-seed", type=int, default=None,
        help="process items in a seeded random order (results are order-invariant)",
    )
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate-length", help="evaluate at 0.5x/1x/2x caption rates")
    p.add_argument("--dataset", required=True)
    p.add_argument("--captions-dir", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=list(evalharness.MODES), default="langrepo")
    p.add_argument("--factors", nargs="+", type=float, default=[0.5, 1.0, 2.0])
    p.add_argument("--out-dir", default=".")
    p.add_argument("--cache-dir", default=None)
    p.set_defaults(func=cmd_ablate_length)

    p = sub.add_parser("inspect", help="pretty-print a repository's entries")
    p.add_argument("--repo", required=True)
    p.add_argument("--scale", type=int, default=None)
    p.set_defaults(func=cmd_inspect)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LangRepoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
