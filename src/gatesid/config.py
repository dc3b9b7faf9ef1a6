"""Flat run configuration shared by every pipeline stage.

One RunConfig carries all hyperparameters plus artifact paths, so a single
key=value file (or --set overrides) reproduces any run. Every field of the
module configs (CorpusConfig, RqVaeConfig, ModelConfig, TrainConfig) is a
key of the same name, type and default, except where ``_WIRING`` renames it
(the quantizer's ``rq_`` keys). Desk-scale defaults are active; the
reference-scale values are noted next to the module fields they replace.
"""

import dataclasses
import math
from dataclasses import dataclass

from .model import VARIANTS, ModelConfig
from .rqvae import RqVaeConfig
from .synthcorpus import CorpusConfig
from .train import TrainConfig


class ConfigError(ValueError):
    pass


# Fields of the per-module configs that do not read the RunConfig key of the
# same name, and the key they read instead. The quantizer's epochs, batch_size
# and lr must not take the ranking model's training values.
_WIRING = {
    RqVaeConfig: {"latent_dim": "rq_latent_dim", "levels": "rq_levels",
                  "codes_per_level": "rq_codes", "hidden_dim": "rq_hidden",
                  "beta": "rq_beta", "epochs": "rq_epochs", "batch_size": "rq_batch",
                  "lr": "rq_lr", "ema_decay": "rq_ema_decay",
                  "kmeans_iters": "rq_kmeans_iters"},
    ModelConfig: {"sid_levels": "rq_levels", "sid_codes": "rq_codes"},
}


def _wired_fields(cls):
    """(field, RunConfig key) for each field of module config ``cls``."""
    return [(f, _WIRING.get(cls, {}).get(f.name, f.name)) for f in dataclasses.fields(cls)]


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

    # ablation harness
    ablate_variants: str = "full,no_grca,no_gfsa,avg_fusion"
    ablate_seeds: str = "0,1,2"


_FIELDS = {f.name: f for f in dataclasses.fields(RunConfig)}


def _coerce(key, text):
    try:
        return _FIELDS[key].type(text.strip())
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
    """Defaults, then file values, then --set overrides (highest precedence).
    An unknown variant, an int other than seed below 1, a float that is not
    finite, a tau that is not above 0 or a cold_fraction outside [0, 1] is a
    ConfigError naming the key."""
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
    ablation_grid(cfg)  # checks variant too
    for key, f in _FIELDS.items():  # before any stage runs
        v = getattr(cfg, key)
        if f.type is int and key != "seed" and v < 1:  # a size or a loop count
            raise ConfigError(f"config key '{key}': must be at least 1, got {v}")
        if f.type is float and not math.isfinite(v):
            raise ConfigError(f"config key '{key}': must be finite, got {v}")
    if cfg.tau <= 0:  # InfoNCE divides by it
        raise ConfigError(f"config key 'tau': must be above 0, got {cfg.tau}")
    if not 0 <= cfg.cold_fraction <= 1:
        raise ConfigError(f"config key 'cold_fraction': must be in [0, 1], "
                          f"got {cfg.cold_fraction}")
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


def model_config(rc):
    return ModelConfig(**_view(ModelConfig, rc))


def train_config(rc):
    return TrainConfig(**_view(TrainConfig, rc))


def ablation_grid(rc):
    """The ablation's variants and seeds, from the comma lists ablate_variants
    and ablate_seeds. An empty list, an unknown variant, there or in
    ``variant``, or a seed that is not an integer is a ConfigError naming the
    key and the entry."""
    for key in ("ablate_variants", "ablate_seeds"):
        if not getattr(rc, key).replace(",", "").strip():
            raise ConfigError(f"config key '{key}': empty list")
    variants = [v.strip() for v in rc.ablate_variants.split(",") if v.strip()]
    for key, v in [("variant", rc.variant)] + [("ablate_variants", v) for v in variants]:
        if v not in VARIANTS:
            raise ConfigError(f"config key '{key}': unknown variant '{v}'; "
                              f"expected one of {VARIANTS}")
    try:
        return variants, [int(s) for s in rc.ablate_seeds.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"config key 'ablate_seeds': {exc}") from None
