"""Simulated user study (Section 8.8, Table 3).

The paper's study put 10 multiple-choice questions (one correct cause,
three random distractors) to 20 human participants in three competence
cohorts, showing each a latency plot plus DBSherlock's predicates.  Humans
are unavailable offline, so we model a participant as a *noisy reader of
the predicate evidence*: for every answer option, the participant
perceives how well that cause's canonical signature matches the shown
predicates (the causal-model confidence on the question's dataset) plus
Gaussian reading noise whose magnitude falls with competence.  A
zero-competence participant perceives pure noise, reproducing the 2.5/10
random baseline; higher cohorts approach the evidence-optimal answer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.causal import CausalModel, score_models
from repro.data.dataset import Dataset
from repro.data.regions import RegionSpec

__all__ = ["Cohort", "StudyQuestion", "UserStudy", "COHORTS"]


@dataclass(frozen=True)
class Cohort:
    """One experience level from Table 3.

    ``noise`` is the std-dev of the perception noise added to the (0..1)
    evidence scores; 0 = evidence-optimal reader, large = random guesser.
    """

    name: str
    n_participants: int
    noise: float


#: The paper's three cohorts.  Noise levels are calibrated so the cohorts
#: land near the paper's 7.5 / 7.8 / 7.8 correct answers out of 10.
COHORTS: List[Cohort] = [
    Cohort("Preliminary DB Knowledge", 20, 0.24),
    Cohort("DB Usage Experience", 15, 0.20),
    Cohort("DB Research or DBA Experience", 13, 0.19),
]


@dataclass
class StudyQuestion:
    """One multiple-choice question: an anomaly plus four candidate causes."""

    dataset: Dataset
    spec: RegionSpec
    correct_cause: str
    options: List[str]

    def __post_init__(self) -> None:
        if self.correct_cause not in self.options:
            raise ValueError("options must include the correct cause")
        if len(set(self.options)) != len(self.options):
            raise ValueError("options must be distinct")


class UserStudy:
    """Run the simulated questionnaire against a set of causal models."""

    def __init__(
        self,
        models: Dict[str, CausalModel],
        questions: Sequence[StudyQuestion],
    ) -> None:
        if not questions:
            raise ValueError("the study needs at least one question")
        self.models = dict(models)
        self.questions = list(questions)
        self._evidence_cache: List[Dict[str, float]] = [
            self._evidence(q) for q in self.questions
        ]

    def _evidence(self, question: StudyQuestion) -> Dict[str, float]:
        """Objective per-option evidence: model confidence on the dataset.

        Options without a known model read as zero evidence — mirroring a
        participant for whom the predicates ring no bells for that cause.
        """
        known = [o for o in question.options if o in self.models]
        confidences = score_models(
            [self.models[o].predicates for o in known],
            question.dataset,
            question.spec,
        ).confidences
        scores = dict(zip(known, confidences))
        return {o: scores.get(o, 0.0) for o in question.options}

    def simulate_participant(
        self, noise: float, rng: np.random.Generator
    ) -> int:
        """Number of correct answers (out of ``len(questions)``)."""
        correct = 0
        for question, evidence in zip(self.questions, self._evidence_cache):
            perceived = {
                option: evidence[option] + rng.normal(0.0, max(noise, 1e-9))
                for option in question.options
            }
            answer = max(perceived, key=perceived.get)
            if answer == question.correct_cause:
                correct += 1
        return correct

    def run_cohort(
        self, cohort: Cohort, seed: Optional[int] = None
    ) -> Tuple[float, List[int]]:
        """Average correct answers for a cohort; returns (mean, raw scores)."""
        rng = np.random.default_rng(seed)
        scores = [
            self.simulate_participant(cohort.noise, rng)
            for _ in range(cohort.n_participants)
        ]
        return float(np.mean(scores)), scores

    def random_baseline(self) -> float:
        """Expected correct answers with no predicates (uniform guessing)."""
        return sum(1.0 / len(q.options) for q in self.questions)
