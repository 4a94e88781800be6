"""Genetic-algorithm search over a performance model.

RFHOC and DAC both couple a learned performance model with a genetic
algorithm that searches the configuration space against the model's
predictions. This is a standard real-coded GA in the unit cube:
tournament selection, uniform crossover, Gaussian mutation, elitism.
"""
from __future__ import annotations

from collections.abc import Callable

import numpy as np

from repro.core.config_space import ConfigSpace

POP_SIZE = 40
GENERATIONS = 25
MUTATION_SIGMA = 0.15  # Gaussian mutation scale in unit space
CROSSOVER_RATE = 0.7   # chance a gene comes from the first parent


def ga_minimize(
    space: ConfigSpace,
    fitness: Callable[[np.ndarray], np.ndarray],
    *,
    rng: np.random.Generator,
) -> dict:
    """Minimize ``fitness`` (batch: (n, d) unit matrix → (n,) scores)."""
    d = space.dim
    pop = rng.random((POP_SIZE, d))
    scores = fitness(pop)
    for _ in range(GENERATIONS):
        children = np.empty_like(pop)
        for i in range(POP_SIZE):
            # binary tournament ×2 for the two parents
            a, b = rng.integers(POP_SIZE, size=2)
            p1 = pop[a] if scores[a] < scores[b] else pop[b]
            a, b = rng.integers(POP_SIZE, size=2)
            p2 = pop[a] if scores[a] < scores[b] else pop[b]
            mask = rng.random(d) < CROSSOVER_RATE
            child = np.where(mask, p1, p2)
            mut = rng.random(d) < 0.2
            child = np.where(
                mut, np.clip(child + rng.normal(0, MUTATION_SIGMA, d), 0, 1), child
            )
            children[i] = child
        child_scores = fitness(children)
        # elitist merge: keep the best POP_SIZE of parents ∪ children
        allpop = np.vstack([pop, children])
        allsc = np.concatenate([scores, child_scores])
        keep = np.argsort(allsc, kind="stable")[:POP_SIZE]
        pop, scores = allpop[keep], allsc[keep]
    return space.from_unit(pop[0])
