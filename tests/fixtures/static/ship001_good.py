"""SHIP001 good fixture: module-level dataclass binders only."""

from dataclasses import dataclass


class MaskProgram:  # stand-in for repro.algebra.predicates.MaskProgram
    def __init__(self, binders):
        self.binders = binders


@dataclass(frozen=True)
class ConstBinder:
    position: int
    constant: object

    def __call__(self, part):
        return part.column(self.position)


def compile_program(store, comparisons):
    program = MaskProgram([ConstBinder(0, 1.5) for _ in comparisons])
    return store.select_gather(program)
