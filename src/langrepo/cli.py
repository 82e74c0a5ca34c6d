"""Command-line entry point.

Commands: build a repository from a caption file, answer one question
against a saved repository, evaluate a QA dataset (at a chosen caption
rate, for the input-length study), and inspect a repository's entries.
Exit codes: 0 success, 2 a UsageError, 1 any other LangRepoError.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import logging
import os
import sys
from pathlib import Path

from . import evalharness, repository
from .config import load_app_config, make_providers
from .errors import ConfigError, LangRepoError, UsageError
from .ingest import RATE_FACTORS, load_captions, transform_rate
from .repository import load as load_repo
from .repository import render_description_line, save as save_repo
from .vqa import QaItem


def check_outputs(*flags_and_paths: tuple[str, str]) -> None:
    """UsageError naming the flag unless each output's parent is an existing directory and it is
    neither one nor a symlink loop, or naming both flags if two outputs resolve to one file."""
    flags_by_file: dict[str, str] = {}
    for flag, path in flags_and_paths:
        if Path(path).is_dir() or not Path(path).parent.is_dir():
            raise UsageError(f"{flag} {path}: an output must name a file in an existing directory")
        resolved = os.path.realpath(path)
        if os.path.islink(resolved):  # realpath leaves a symlink loop unresolved, where Path.resolve may raise
            raise UsageError(f"{flag} {path}: an output must not be a symlink loop")
        other = flags_by_file.setdefault(resolved, flag)
        if other != flag:
            raise UsageError(f"{other} and {flag} both name {resolved}: each output needs its own file")


def cmd_build(args) -> int:
    check_outputs(("--out", args.out))
    cfg = load_app_config(args.config)
    captions = load_captions(args.captions)
    providers = make_providers(cfg)
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
    cfg = load_app_config(args.config)
    repo = load_repo(args.repo)
    item = QaItem(
        question_id="cli",
        video_id=repo.video_id,
        question=args.question,
        options=list(args.options),
    )
    evalharness.check_classifier([item], cfg.classifier, cfg.loglik_format)
    providers = make_providers(cfg)
    descriptions = repository.read_from_repo(repo, repo.config, args.question, providers.client)
    prediction = evalharness.answer(
        item, descriptions, repo.duration_s, cfg.classifier, cfg.loglik_format, providers.client
    )
    print(f"answer: [{prediction.choice_index}] {item.options[prediction.choice_index]}")
    if prediction.per_option_scores is not None:
        for i, (option, score) in enumerate(zip(item.options, prediction.per_option_scores)):
            print(f"  {i}: {score:+.4f}  {option}")
    if prediction.fallback:
        print("warning: reply was unparseable, fell back to option 0", file=sys.stderr)
    print(evalharness.format_ledger(providers.client.ledger.snapshot()))
    return 0


def cmd_eval(args) -> int:
    check_outputs(("--report-out", args.report_out), ("--predictions-out", args.predictions_out))
    cfg = load_app_config(args.config)
    items = evalharness.load_qa_dataset(args.dataset)
    captions_by_video = {
        vid: transform_rate(load_captions(Path(args.captions_dir) / f"{vid}.json"), args.rate_factor)
        for vid in sorted({it.video_id for it in items})
    }
    providers = make_providers(cfg)
    report = evalharness.evaluate(
        items,
        captions_by_video,
        cfg.build,
        args.mode,
        providers,
        classifier=cfg.classifier,
        loglik_format=cfg.loglik_format,
    )
    print(evalharness.format_report(report))
    evalharness.write_report(report, args.report_out, rate_factor=args.rate_factor)
    evalharness.write_predictions(report.predictions, args.predictions_out)
    print(f"wrote {args.report_out} and {args.predictions_out}")
    return 0


def cmd_inspect(args) -> int:
    repo = load_repo(args.repo)
    if args.scale is not None and not 0 <= args.scale < len(repo.scales):
        raise ConfigError(f"--scale {args.scale} is out of range: the repository has {len(repo.scales)} scale(s)")
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
    p.add_argument("--captioner", default="unknown", help="provenance tag for the caption source")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("answer", help="answer one question against a saved repository")
    p.add_argument("--repo", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--question", required=True)
    p.add_argument("--options", nargs="+", required=True)
    p.set_defaults(func=cmd_answer)

    p = sub.add_parser("eval", help="evaluate a QA dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--captions-dir", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--mode", choices=list(evalharness.MODES), default="langrepo")
    p.add_argument(
        "--rate-factor", type=float, choices=RATE_FACTORS, default=1.0,
        help="thin out (0.5) or thicken (2.0) each caption stream, for the input-length study",
    )
    p.add_argument("--report-out", default="report.json")
    p.add_argument("--predictions-out", default="predictions.json")
    p.set_defaults(func=cmd_eval)

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
    except LangRepoError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
