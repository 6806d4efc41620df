"""Seeded random program generator shared by the unit and acceptance suites."""

import random

from cswp.core import (
    BINARY01,
    FULL,
    ARITY,
    Const,
    Free,
    Instruction,
    MemRead,
    PriorOutput,
    Program,
)

MNEMONIC_POOL = list(ARITY)


def random_program(
    rng: random.Random,
    max_instructions: int = 8,
    max_width: int = 4,
    max_full_inputs: int = 2,
    max_binary_inputs: int = 2,
    mem_size: int = 4,
) -> Program:
    width = rng.randint(1, max_width)
    n_full = rng.randint(0, max_full_inputs)
    n_bin = rng.randint(0, max_binary_inputs)
    free_inputs = [(f"f{i}", FULL) for i in range(n_full)]
    free_inputs += [(f"b{i}", BINARY01) for i in range(n_bin)]
    rng.shuffle(free_inputs)

    def random_source(index):
        kinds = ["const"]
        if free_inputs:
            kinds.append("free")
        if index > 0:
            kinds += ["prior", "prior"]  # bias toward dataflow
        if mem_size > 0:
            kinds.append("mem")
        kind = rng.choice(kinds)
        if kind == "const":
            return Const(rng.randrange(1 << width))
        if kind == "free":
            name, _ = rng.choice(free_inputs)
            return Free(name)
        if kind == "prior":
            return PriorOutput(rng.randrange(index))
        return MemRead(rng.randrange(mem_size))

    instructions = []
    for index in range(rng.randint(1, max_instructions)):
        mnemonic = rng.choice(MNEMONIC_POOL)
        if mnemonic == "load":
            inputs = (MemRead(rng.randrange(mem_size)),)
        else:
            inputs = tuple(random_source(index) for _ in range(ARITY[mnemonic]))
        mem_dest = None
        if mnemonic == "store" or (rng.random() < 0.15 and mem_size > 0):
            mem_dest = rng.randrange(mem_size)
        instructions.append(Instruction(mnemonic, inputs, mem_dest))

    return Program(
        width=width,
        mem_size=mem_size,
        instructions=tuple(instructions),
        free_inputs=tuple(free_inputs),
    )
