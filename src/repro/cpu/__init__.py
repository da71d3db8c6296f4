"""CPU substrate: memory-access traces and the TISA mini ISA, assembler, interpreter."""

from .assembler import AssemblyError, Program, ProgramBuilder, assemble
from .interpreter import CoreTimings, ExecutionResult, Interpreter, run_program
from .isa import INSTRUCTION_SIZE, NUM_REGISTERS, Instruction, Opcode
from .trace import AccessKind, MemoryAccess, Trace

__all__ = [
    "AssemblyError",
    "Program",
    "ProgramBuilder",
    "assemble",
    "CoreTimings",
    "ExecutionResult",
    "Interpreter",
    "run_program",
    "INSTRUCTION_SIZE",
    "NUM_REGISTERS",
    "Instruction",
    "Opcode",
    "AccessKind",
    "MemoryAccess",
    "Trace",
]
