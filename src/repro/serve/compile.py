"""The plan compiler, under its serving-layer import path.

:class:`Instruction`, :class:`CompiledPlan` and :func:`compile_plan` live
in :mod:`repro.core.sequence`, beside the plan they execute:
``TransformationPlan.apply`` runs the compiled program, and
``PipelineArtifact`` caches one per artifact. They are re-exported here
for :mod:`repro.serve` and for code that imports them from this module.
"""

from repro.core.sequence import CompiledPlan, Instruction, compile_plan

__all__ = ["Instruction", "CompiledPlan", "compile_plan"]
