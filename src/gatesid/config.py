"""Flat run configuration shared by every pipeline stage.

One RunConfig carries all hyperparameters plus artifact paths, so a single
key=value file (or --set overrides) reproduces any run. Every field of the
module configs (CorpusConfig, RqVaeConfig, ModelConfig, TrainConfig) is a
key of the same name, type and default, except where ``_WIRING`` renames it
(the quantizer's ``rq_`` keys) or, for the model's variant, passes it on its
own.
Desk-scale defaults are active; the reference-scale values are noted next
to the module fields they replace.
"""

import dataclasses
from dataclasses import dataclass

from .model import VARIANTS, ModelConfig
from .rqvae import RqVaeConfig
from .synthcorpus import CorpusConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


# Fields of the per-module configs that do not read the RunConfig key of the
# same name: the key they read instead, or None for the model's variant, which
# the run config passes on its own. The quantizer's epochs, batch_size and lr
# must not take the ranking model's training values.
_WIRING = {
    RqVaeConfig: {"latent_dim": "rq_latent_dim", "levels": "rq_levels",
                  "codes_per_level": "rq_codes", "hidden_dim": "rq_hidden",
                  "beta": "rq_beta", "epochs": "rq_epochs", "batch_size": "rq_batch",
                  "lr": "rq_lr", "ema_decay": "rq_ema_decay",
                  "kmeans_iters": "rq_kmeans_iters"},
    ModelConfig: {"sid_levels": "rq_levels", "sid_codes": "rq_codes", "variant": None},
}


def _wired_fields(cls):
    """(field, RunConfig key) for each field of module config ``cls`` that a key sets."""
    wiring = _WIRING.get(cls, {})
    pairs = [(f, wiring.get(f.name, f.name)) for f in dataclasses.fields(cls)]
    return [(f, key) for f, key in pairs if key is not None]


def _module_keys():
    """(key, type, default) per RunConfig key that a module field reads; a key
    shared by two modules (content_dim, rq_levels, rq_codes) appears once."""
    keys = {}
    for cls in (CorpusConfig, RqVaeConfig, ModelConfig, TrainConfig):
        for f, key in _wired_fields(cls):
            keys.setdefault(key, (key, f.type, f.default))
    return list(keys.values())


@dataclass
class RunConfig(dataclasses.make_dataclass("ModuleKeys", _module_keys())):
    """The run-level keys, on top of one key per wired module config field."""
    seed: int = 0

    # artifact paths
    corpus_dir: str = "artifacts/corpus"
    codebook_path: str = "artifacts/codebook.rqv"
    sid_table_path: str = "artifacts/sids.csv"
    model_path: str = "artifacts/model.ckpt"
    report_path: str = "artifacts/report.json"
    ablation_json: str = "artifacts/ablation.json"
    ablation_csv: str = "artifacts/ablation.csv"
    gate_curve_csv: str = "artifacts/gate_curve.csv"
    emb_sid_csv: str = "artifacts/emb_sid.csv"
    emb_item_csv: str = "artifacts/emb_item.csv"

    # ranking model
    variant: str = "full"
    token_warm_start: bool = True
    token_target_norm: float = 4.0

    # ablation harness
    ablate_variants: str = "full,no_grca,no_gfsa,avg_fusion"
    ablate_seeds: str = "0,1,2"


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key, text):
    typ = _FIELDS[key].type
    text = text.strip()
    try:
        if typ is bool:
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        return typ(text)
    except ValueError as exc:
        raise ConfigError(f"config key '{key}': {exc}") from None


def _parse_pair(text, where):
    """One key=value setting -> (key, typed value); ``where`` prefixes errors."""
    if "=" not in text:
        raise ConfigError(f"{where}: expected key=value, got {text!r}")
    key, val = text.split("=", 1)
    key = key.strip()
    if key not in _FIELDS:
        raise ConfigError(f"{where}: unknown config key '{key}'")
    return key, _coerce(key, val)


def parse_config_text(text, source="<config>"):
    """key=value lines; blank lines and # comments ignored."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, val = _parse_pair(line, f"{source}:{lineno}")
            out[key] = val
    return out


def build_config(config_path=None, overrides=None):
    """Defaults, then file values, then --set overrides (highest precedence)."""
    values = {}
    if config_path is not None:
        try:
            with open(config_path) as f:
                text = f.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {config_path}: {exc}") from None
        values.update(parse_config_text(text, source=config_path))
    for item in overrides or []:
        key, val = _parse_pair(item, "--set")
        values[key] = val
    cfg = RunConfig(**values)
    if cfg.variant not in VARIANTS:
        raise ConfigError(f"unknown variant '{cfg.variant}'; expected one of {VARIANTS}")
    return cfg


# ---------------------------------------------------------------------------
# views onto the per-module configs


def _view(cls, rc):
    """Keyword arguments for dataclass ``cls`` read from RunConfig ``rc``."""
    return {f.name: getattr(rc, key) for f, key in _wired_fields(cls)}


def corpus_config(rc):
    return CorpusConfig(**_view(CorpusConfig, rc))


def rqvae_config(rc):
    return RqVaeConfig(**_view(RqVaeConfig, rc))


def model_overrides(rc):
    """ModelConfig keyword arguments; the variant is passed on its own."""
    return _view(ModelConfig, rc)


def train_config(rc):
    return TrainConfig(**_view(TrainConfig, rc))
