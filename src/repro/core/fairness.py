"""The eight-step fair-comparison methodology (paper §IV-C, Fig. 9).

The paper's normative contribution: a CUDA/OpenCL comparison is *fair*
exactly when all eight steps of the development flow are configured the
same.  We model the flow as data — a :class:`ComparisonConfig` records
each step's configuration for one implementation — and :func:`audit`
reports the steps on which two configurations diverge, with the paper's
role attribution (programmer / compiler / user) for each step.

``describe(benchmark, api)`` derives a configuration automatically from
a benchmark's resolved options and the toolchain, so experiments can
state *why* a given comparison is or is not fair.
"""
from __future__ import annotations

import dataclasses
import enum
from typing import Mapping, Optional

from ..runtime.overhead import front_end

__all__ = [
    "Step",
    "Role",
    "STEP_ROLES",
    "ComparisonConfig",
    "FairnessFinding",
    "audit",
    "is_fair",
]


class Step(enum.IntEnum):
    """The eight steps of Fig. 9, in flow order."""

    PROBLEM_DESCRIPTION = 1
    ALGORITHM_TRANSLATION = 2
    IMPLEMENTATION = 3
    NATIVE_KERNEL_OPTIMIZATIONS = 4
    FIRST_STAGE_COMPILATION = 5
    SECOND_STAGE_COMPILATION = 6
    PROGRAM_CONFIGURATION = 7
    RUNNING_ON_GPUS = 8


class Role(enum.Enum):
    """Who controls a step (Fig. 9's three roles)."""

    PROGRAMMER = "programmer"
    COMPILER = "compiler"
    USER = "user"


#: the paper's role assignment: programmers own steps 1-4, compilers 5-6,
#: users 7-8
STEP_ROLES: dict = {
    Step.PROBLEM_DESCRIPTION: Role.PROGRAMMER,
    Step.ALGORITHM_TRANSLATION: Role.PROGRAMMER,
    Step.IMPLEMENTATION: Role.PROGRAMMER,
    Step.NATIVE_KERNEL_OPTIMIZATIONS: Role.PROGRAMMER,
    Step.FIRST_STAGE_COMPILATION: Role.COMPILER,
    Step.SECOND_STAGE_COMPILATION: Role.COMPILER,
    Step.PROGRAM_CONFIGURATION: Role.USER,
    Step.RUNNING_ON_GPUS: Role.USER,
}


@dataclasses.dataclass(frozen=True)
class ComparisonConfig:
    """One implementation's configuration of the eight steps.

    Each field is a hashable description of the corresponding step.
    ``native_optimizations`` is where texture memory, constant memory
    and unroll pragmas live — the paper's §IV-B gap sources (a)-(c);
    ``first_stage_compiler`` is gap source (d).
    """

    problem: str
    algorithm: str
    implementation: str  # API family + host structure
    native_optimizations: tuple  # sorted (name, value) pairs
    first_stage_compiler: str  # "nvopencc" | "clc"
    second_stage_compiler: str  # "ptxas" backend identity
    problem_parameters: tuple  # sorted (name, value) pairs
    algorithmic_parameters: tuple  # work-group size etc.
    device: str

    def step_value(self, step: Step):
        return {
            Step.PROBLEM_DESCRIPTION: self.problem,
            Step.ALGORITHM_TRANSLATION: self.algorithm,
            Step.IMPLEMENTATION: self.implementation,
            Step.NATIVE_KERNEL_OPTIMIZATIONS: self.native_optimizations,
            Step.FIRST_STAGE_COMPILATION: self.first_stage_compiler,
            Step.SECOND_STAGE_COMPILATION: self.second_stage_compiler,
            Step.PROGRAM_CONFIGURATION: (
                self.problem_parameters,
                self.algorithmic_parameters,
            ),
            Step.RUNNING_ON_GPUS: self.device,
        }[step]


@dataclasses.dataclass(frozen=True)
class FairnessFinding:
    step: Step
    role: Role
    left: object
    right: object

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"step {int(self.step)} ({self.step.name.lower()}, "
            f"{self.role.value}): {self.left!r} != {self.right!r}"
        )


def audit(left: ComparisonConfig, right: ComparisonConfig) -> list:
    """All steps on which the two configurations differ."""
    out = []
    for step in Step:
        lv, rv = left.step_value(step), right.step_value(step)
        if lv != rv:
            out.append(FairnessFinding(step, STEP_ROLES[step], lv, rv))
    return out


def is_fair(left: ComparisonConfig, right: ComparisonConfig, allow_compiler_steps: bool = True) -> bool:
    """The paper's definition, with one pragmatic relaxation.

    Steps 5-6 necessarily differ between CUDA and OpenCL (different
    front ends exist by construction); the paper's point is that all
    *programmer- and user-controlled* steps must match.  Pass
    ``allow_compiler_steps=False`` for the strict literal reading.
    """
    findings = audit(left, right)
    if allow_compiler_steps:
        findings = [f for f in findings if f.role is not Role.COMPILER]
    return not findings


def describe(
    benchmark_name: str,
    api_name: str,
    device: str,
    options: Mapping,
    size_params: Mapping,
    wg: object,
) -> ComparisonConfig:
    """Derive a step configuration from a benchmark run's inputs."""
    return ComparisonConfig(
        problem=benchmark_name,
        algorithm=benchmark_name,  # both dialects share one algorithm here
        implementation=f"{benchmark_name}-host-shared",
        native_optimizations=tuple(sorted((k, str(v)) for k, v in options.items())),
        first_stage_compiler=front_end(api_name)[0].name,
        second_stage_compiler="ptxas",
        problem_parameters=tuple(sorted((k, str(v)) for k, v in size_params.items())),
        algorithmic_parameters=(("wg", str(wg)),),
        device=device,
    )
