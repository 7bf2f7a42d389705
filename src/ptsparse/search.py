"""Evolutionary search over per-layer sparsity distributions.

A genome is one real gene per prunable layer. Decoding over-prunes every
layer to the excessive rate, then returns the residual keep-budget across
layers through a softmax over the genes. Fitness is calibration accuracy of
the masked network after BN recalibration on noise-perturbed calibration
batches; evaluation itself runs on clean data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import ExperimentConfig
from .nn.network import Network, predict_distribution
from .sparsity import (SparsityDistribution, included_layers, regrow_distribution,
                       topk_mask)


CROSSOVER_RATE = 0.5   # chance that a child takes uniform crossover
MUTATION_STD = 0.5     # std of the Gaussian added to every gene of a child
P_E_OFFSET = 0.05      # the excessive rate P_e is min(P + P_E_OFFSET, 1)


@dataclass
class FitnessRecord:
    genome: np.ndarray
    distribution: SparsityDistribution
    fitness: float


def decode(genome: np.ndarray, net: Network, cfg: ExperimentConfig) -> SparsityDistribution:
    """Regrow the residual (P_e - P) * numel(W) after pruning every layer to
    P_e, in shares softmax(genome) (sparsity.regrow_distribution)."""
    idxs = included_layers(net, set(cfg.exclude_layers))
    numels = np.array([net.layers[i].weight.size for i in idxs], dtype=float)
    genome = np.asarray(genome, dtype=np.float64)
    if genome.shape != (len(idxs),):
        raise ValueError(f"genome length {genome.size} != prunable layers {len(idxs)}")
    p_e = min(cfg.sparsity + P_E_OFFSET, 1.0)
    shares = predict_distribution(genome[None])[0]
    return regrow_distribution(idxs, numels, shares, cfg.sparsity, p_e)


def noised_batches(inputs: np.ndarray, batch_size: int, rng, noise_std: float):
    """Batches of inputs, as layer 0 reads them (Network.as_input), with
    additive Gaussian noise scaled per input unit of layer 0: per feature of
    (N, F) rows, per channel of an NCHW batch."""
    axes = (0, *range(2, inputs.ndim))
    scale = noise_std * inputs.std(axis=axes, keepdims=True)
    for start in range(0, len(inputs), batch_size):
        batch = inputs[start:start + batch_size]
        yield batch + rng.standard_normal(batch.shape) * scale


def fitness(genome: np.ndarray, teacher: Network, calib, cfg: ExperimentConfig,
            seed: int) -> FitnessRecord:
    """Prune a copy of the teacher at the decoded rates, recalibrate BN on
    noised calibration batches, score accuracy on the clean calibration set."""
    if len(calib.inputs) == 0:
        raise ValueError("empty calibration set")
    dist = decode(genome, teacher, cfg)
    net = teacher.copy()
    masks = {i: topk_mask(net.layers[i].weight, r)
             for i, r in zip(dist.layer_indices, dist.rates)}
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    net.bn_recalibrate(noised_batches(teacher.as_input(calib.inputs), cfg.batch_size,
                                      rng, cfg.noise_std), masks=masks)
    acc = net.accuracy(calib.inputs, calib.labels, masks=masks)
    return FitnessRecord(genome=np.array(genome), distribution=dist, fitness=acc)


@dataclass
class GenerationStats:
    generation: int
    best: float
    mean: float
    worst: float
    elite_rates: list[float] = field(default_factory=list)

    def format(self) -> str:
        rates = " ".join(f"{r:.3f}" for r in self.elite_rates)
        return (f"gen={self.generation} best={self.best:.4f} mean={self.mean:.4f} "
                f"worst={self.worst:.4f} elite_rates=[{rates}]")


def _eval_seed(seed: int, generation: int, index: int) -> int:
    # deterministic per (seed, generation, individual); order-independent
    ss = np.random.SeedSequence(entropy=(seed, generation, index))
    return int(ss.generate_state(1)[0])


def evolve(teacher: Network, calib, cfg: ExperimentConfig,
           seed: int) -> tuple[FitnessRecord, list[GenerationStats]]:
    """Tournament selection + uniform crossover + Gaussian mutation with
    elitism. Elites carry their records forward unevaluated, so the running
    best is non-decreasing."""
    n_layers = len(included_layers(teacher, set(cfg.exclude_layers)))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE7)))
    pop = [rng.standard_normal(n_layers) for _ in range(cfg.population)]
    records = [fitness(g, teacher, calib, cfg, seed=_eval_seed(seed, 0, i))
               for i, g in enumerate(pop)]
    history: list[GenerationStats] = []

    def record_gen(gen, recs):
        fits = [r.fitness for r in recs]
        best = max(recs, key=lambda r: r.fitness)
        st = GenerationStats(generation=gen, best=max(fits),
                             mean=float(np.mean(fits)), worst=min(fits),
                             elite_rates=list(best.distribution.rates))
        history.append(st)

    record_gen(0, records)
    for gen in range(1, cfg.generations + 1):
        records.sort(key=lambda r: r.fitness, reverse=True)
        elites = records[:cfg.elites]
        children = []
        while len(children) < cfg.population - cfg.elites:
            pa = _tournament(records, cfg, rng)
            pb = _tournament(records, cfg, rng)
            child = pa.genome.copy()
            if rng.random() < CROSSOVER_RATE:
                take = rng.random(n_layers) < 0.5
                child[take] = pb.genome[take]
            child = child + rng.standard_normal(n_layers) * MUTATION_STD
            children.append(child)
        child_records = [fitness(g, teacher, calib, cfg,
                                 seed=_eval_seed(seed, gen, i))
                         for i, g in enumerate(children)]
        records = elites + child_records
        record_gen(gen, records)
    return max(records, key=lambda r: r.fitness), history


def _tournament(records, cfg, rng):
    picks = rng.integers(0, len(records), size=min(cfg.tournament, len(records)))
    return max((records[i] for i in picks), key=lambda r: r.fitness)
