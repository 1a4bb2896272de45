"""SHIP001 bad fixture: unpicklable work in shipping positions."""


class MaskProgram:  # stand-in for repro.algebra.predicates.MaskProgram
    def __init__(self, binders):
        self.binders = binders


class NakedBinder:  # not a dataclass: unpicklable by convention
    pass


def compile_program(store):
    def local_binder(part):  # nested: never pickles
        return part

    program = MaskProgram([lambda part: part])  # lambda binder
    other = MaskProgram([local_binder])  # closure binder
    selected = store.select_gather(lambda part: bytearray(len(part)))  # lambda masker
    return program, other, selected


def nested_binder_class():
    class InnerBinder:  # local class: never pickles
        pass

    return InnerBinder
