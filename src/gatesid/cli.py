"""Command line pipeline: corpus generation, quantizer training, SID
assignment, ranking-model training, evaluation and ablations.

Every subcommand reads one flat RunConfig (defaults < config file < --set)
and prints a single JSON summary line on success, which also carries the
command's wall time (seconds) and the process's peak RSS (peak_rss_mb).
Exit codes: 0 success, 1 configuration or runtime error, 2 missing
prerequisite artifact.
"""

import argparse
import json
import logging
import os
import resource
import sys
import time

import numpy as np

from . import config as runcfg
from . import evalkit, rqvae, synthcorpus
from . import train as trainmod
from . import diffkernel as dk
from .model import GateSidModel, token_init_from_codebook

log = logging.getLogger("gatesid.cli")


def _setup_logging():
    name = os.environ.get("GATESID_LOG", "quiet").strip().lower()
    level = {"quiet": logging.WARNING, "info": logging.INFO,
             "debug": logging.DEBUG}.get(name, logging.WARNING)
    logging.basicConfig(level=level,
                        format="%(asctime)s %(name)s %(levelname)s %(message)s")


# ---------------------------------------------------------------------------
# shared loading helpers


def _load_corpus(rc):
    return synthcorpus.load_corpus(rc.corpus_dir, runcfg.corpus_config(rc))


def _token_init(rc):
    if not rc.token_warm_start:
        return None
    codebook, _ = rqvae.load_codebook(rc.codebook_path)
    return token_init_from_codebook(codebook, rc.d_token,
                                    target_norm=rc.token_target_norm)


# ---------------------------------------------------------------------------
# subcommands


def cmd_gen_data(rc):
    corpus = synthcorpus.generate_corpus(runcfg.corpus_config(rc), seed=rc.seed)
    synthcorpus.save_corpus(rc.corpus_dir, corpus)
    return {"command": "gen-data", "corpus_dir": rc.corpus_dir,
            "n_items": corpus.n_items, "n_users": corpus.n_users,
            "n_impressions": int(corpus.imp_user.size),
            "ctr": float(corpus.imp_click.mean())}


def cmd_train_rqvae(rc):
    corpus = _load_corpus(rc)
    cfg = runcfg.rqvae_config(rc)
    params, codebook, curve = rqvae.train_rqvae(corpus.item_content, cfg, seed=rc.seed)
    rqvae.save_codebook(rc.codebook_path, codebook, cfg, rc.seed, params=params)
    util = rqvae.codebook_utilization(corpus.item_content, params, codebook)
    return {"command": "train-rqvae", "codebook_path": rc.codebook_path,
            "final_loss": curve[-1], "utilization": [float(u) for u in util]}


def cmd_encode_sids(rc):
    corpus = _load_corpus(rc)
    codebook, params = rqvae.load_codebook(rc.codebook_path)
    sids = rqvae.assign_sids(corpus.item_content, params, codebook)
    rqvae.save_sid_table(rc.sid_table_path, np.arange(1, corpus.n_items + 1), sids)
    return {"command": "encode-sids", "sid_table_path": rc.sid_table_path,
            "n_items": corpus.n_items,
            "distinct_sids": int(len({tuple(r) for r in sids}))}


def cmd_train(rc):
    corpus = _load_corpus(rc)
    sid_table = rqvae.load_sid_table(rc.sid_table_path, corpus.n_items, rc.rq_codes, rc.rq_levels)
    model, curve = trainmod.train_model(
        corpus, sid_table, runcfg.model_config(rc), seed=rc.seed,
        train_config=runcfg.train_config(rc), token_init=_token_init(rc))
    model.save(rc.model_path, extra_meta={"loss_curve": curve, "seed": rc.seed})
    return {"command": "train", "model_path": rc.model_path,
            "variant": rc.variant, "seed": rc.seed, "final_loss": curve[-1]}


def cmd_eval(rc):
    corpus = _load_corpus(rc)
    model = GateSidModel.load(rc.model_path)
    if (model.n_items, model.n_users) != (corpus.n_items, corpus.n_users):
        raise ValueError(f"{rc.model_path}: the checkpoint has {model.n_items} items and "
                         f"{model.n_users} users, the corpus {rc.corpus_dir} has "
                         f"{corpus.n_items} items and {corpus.n_users} users")
    report = evalkit.evaluate_model(corpus, model, rc.test_frac)
    dk.write_json(rc.report_path, report)
    return {"command": "eval", "report_path": rc.report_path,
            "ctr_auc": report["metrics"]["ctr"]["all"]["auc"],
            "ctcvr_gauc": report["metrics"]["ctcvr"]["all"]["gauc"],
            "alignment": report["alignment"]["mean_paired_cosine"]}


def cmd_ablate(rc):
    corpus = _load_corpus(rc)
    sid_table = rqvae.load_sid_table(rc.sid_table_path, corpus.n_items, rc.rq_codes, rc.rq_levels)
    variants, seeds = runcfg.ablation_grid(rc)
    cells, summary = evalkit.run_ablation(
        corpus, sid_table, variants, seeds, runcfg.model_config(rc),
        train_config=runcfg.train_config(rc), token_init=_token_init(rc))
    dk.write_json(rc.ablation_json, {"summary": summary, "cells": {
        f"{variant}:{seed}": rep for (variant, seed), rep in cells.items()}})
    evalkit.write_ablation_csv(rc.ablation_csv, summary)
    failed = [f"{v}:{s}: {rep.removeprefix('error: ')}"
              for (v, s), rep in cells.items() if isinstance(rep, str)]
    if failed:
        raise RuntimeError(f"{len(failed)} of {len(cells)} ablation cells failed; "
                           f"first {failed[0]}")
    return {"command": "ablate", "ablation_json": rc.ablation_json,
            "ablation_csv": rc.ablation_csv,
            "variants": variants, "seeds": seeds}


COMMANDS = {
    "gen-data": cmd_gen_data,
    "train-rqvae": cmd_train_rqvae,
    "encode-sids": cmd_encode_sids,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="gatesid",
                                     description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="key=value config file")
        p.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                       dest="overrides", help="override one config key")
        p.add_argument("--seed", type=int, default=None,
                       help="shorthand for --set seed=N")
    return parser


def main(argv=None):
    _setup_logging()
    args = build_parser().parse_args(argv)
    overrides = list(args.overrides)
    if args.seed is not None:
        overrides.append(f"seed={args.seed}")
    try:
        rc = runcfg.build_config(args.config, overrides)
    except runcfg.ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    t0 = time.perf_counter()
    try:
        summary = COMMANDS[args.command](rc)
    except FileNotFoundError as exc:  # every loader opens its file before any work or write
        print(f"missing prerequisite artifact: {exc.filename}", file=sys.stderr)
        return 2
    except Exception as exc:
        log.debug("command failed", exc_info=True)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    summary.update(seconds=time.perf_counter() - t0,
                   peak_rss_mb=rss / (2**20 if sys.platform == "darwin" else 2**10))
    print(json.dumps(summary, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
