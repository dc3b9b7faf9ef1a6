"""Flat run configuration shared by every pipeline stage.

One RunConfig carries all hyperparameters plus artifact paths, so a single
key=value file (or --set overrides) reproduces any run. Desk-scale defaults
are active; the reference-scale values (codebooks of 256, latent dim 64,
batch 4096) are noted next to the fields they replace and can be restored
by overriding the corresponding keys.
"""

import dataclasses
from dataclasses import dataclass

from .model import VARIANTS, ModelConfig
from .rqvae import RqVaeConfig
from .synthcorpus import CorpusConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
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

    # synthetic corpus
    n_users: int = 500
    n_items: int = 2000
    n_impressions: int = 60000
    n_days: int = 30
    content_dim: int = 64
    n_topics: int = 16
    topic_noise: float = 0.35
    cold_fraction: float = 0.3
    l_max: int = 20
    label_noise: float = 0.02
    new_age_days: int = 20
    popular_age_days: int = 300
    max_age_days: int = 365
    exposure_boost: float = 1.5
    factor_dim: int = 16
    factor_clusters: int = 24
    user_anchors: int = 4
    drift_step: float = 0.08
    hist_state_window: int = 10
    hist_state_blend: float = 0.95
    base_ctr: float = 0.03
    sem_gain: float = 0.6
    sem_floor: float = 0.05
    quality_gain: float = 0.2
    collab_gain: float = 0.5

    # residual quantizer (reference scale: rq_codes=256, rq_latent_dim=64)
    rq_latent_dim: int = 16
    rq_levels: int = 4
    rq_codes: int = 64
    rq_hidden: int = 32
    rq_beta: float = 0.25
    rq_epochs: int = 10
    rq_batch: int = 256
    rq_lr: float = 1e-3
    rq_ema_decay: float = 0.99
    rq_kmeans_iters: int = 25

    # ranking model
    d_token: int = 32
    d_user: int = 16
    attn_dim: int = 32
    attn_init_gain: float = 4.0
    gate_hidden: int = 32
    head_hidden1: int = 128
    head_hidden2: int = 64
    tau: float = 0.1
    lam: float = 0.1
    variant: str = "full"
    token_warm_start: bool = True
    token_target_norm: float = 4.0

    # training (reference scale: batch_size=4096)
    epochs: int = 2
    batch_size: int = 256
    lr: float = 5e-3
    weight_decay: float = 1e-5
    test_frac: float = 0.2

    # ablation harness
    ablate_variants: str = "full,no_grca,no_gfsa,avg_fusion"
    ablate_seeds: str = "0,1,2"


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key, text):
    typ = _FIELDS[key].type
    text = text.strip()
    try:
        if typ == "bool" or typ is bool:
            low = text.lower()
            if low in ("true", "1", "yes"):
                return True
            if low in ("false", "0", "no"):
                return False
            raise ValueError(f"not a boolean: {text!r}")
        if typ == "int" or typ is int:
            return int(text)
        if typ == "float" or typ is float:
            return float(text)
        return text
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


# Fields of the per-module configs that do not read the RunConfig key of the
# same name: the key they read instead, or None for a field that the run
# config leaves at the module default. The quantizer's epochs, batch_size, lr
# and weight_decay must not take the ranking model's training values.
_WIRING = {
    RqVaeConfig: {"latent_dim": "rq_latent_dim", "levels": "rq_levels",
                  "codes_per_level": "rq_codes", "hidden_dim": "rq_hidden",
                  "beta": "rq_beta", "epochs": "rq_epochs", "batch_size": "rq_batch",
                  "lr": "rq_lr", "ema_decay": "rq_ema_decay",
                  "kmeans_iters": "rq_kmeans_iters", "weight_decay": None},
    # d_item is derived in model_overrides; l_max comes from the corpus
    ModelConfig: {"sid_levels": "rq_levels", "sid_codes": "rq_codes", "d_item": None,
                  "variant": None, "l_max": None, "n_stat": None},
}


def _view(cls, rc):
    """Keyword arguments for dataclass ``cls`` read from RunConfig ``rc``."""
    wiring = _WIRING.get(cls, {})
    keys = {f.name: wiring.get(f.name, f.name) for f in dataclasses.fields(cls)}
    return {name: getattr(rc, key) for name, key in keys.items() if key is not None}


def corpus_config(rc):
    return CorpusConfig(**_view(CorpusConfig, rc))


def rqvae_config(rc):
    return RqVaeConfig(**_view(RqVaeConfig, rc))


def model_overrides(rc):
    return {**_view(ModelConfig, rc), "d_item": rc.rq_levels * rc.d_token}


def train_config(rc):
    return TrainConfig(**_view(TrainConfig, rc))
