"""Differential-testing utilities: random PPS-C program generation, and
(imported explicitly, by tests only) the reference evaluator in
:mod:`repro.testing.reference` and the naive partitioners in
:mod:`repro.testing.baselines`."""

from repro.testing.progen import GeneratorConfig, ProgramGenerator, random_pps_source

__all__ = ["GeneratorConfig", "ProgramGenerator", "random_pps_source"]
