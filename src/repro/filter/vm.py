"""The packet-filter interpreter and program validator."""

from repro.filter.insn import JUMP_OPS, Insn, Op, RET_OPS


class FilterError(Exception):
    """Raised for invalid programs (validation) or runtime faults."""


MAX_PROGRAM_LEN = 512


class FilterProgram(list):
    """A compiled filter program: a plain instruction list that can also
    hold its threaded-code cache (a bare ``list`` takes no attributes).
    """

    #: Threaded-code cache: a tuple of (op, k, jt, jf) tuples built on
    #: first run, so the interpreter loop costs one indexed load and a
    #: tuple unpack per instruction instead of three attribute loads.
    #: Invalidated by length change; replacing instructions in place
    #: after the first run is not supported (programs are immutable
    #: once installed).
    _code = None

#: The dispatch order of :meth:`FilterMachine.run`'s if/elif chain.
#: Unpacked into locals at the top of ``run`` — inside the interpreter
#: loop a local load is much cheaper than ``Op.X`` (a global load plus
#: an attribute load per comparison).
_DISPATCH_OPS = (
    Op.LD_B, Op.LD_H, Op.LD_W, Op.LD_IND_B, Op.LD_IND_H, Op.LDX_MSH,
    Op.LD_LEN, Op.LD_IMM, Op.LDX_IMM, Op.TAX, Op.TXA, Op.AND, Op.OR,
    Op.RSH, Op.LSH, Op.ADD, Op.SUB, Op.JEQ, Op.JGT, Op.JGE, Op.JSET,
    Op.RET, Op.RET_A,
)


def validate(program):
    """Check a filter program before installation.

    Enforces the classic BPF safety rules: non-empty, bounded length,
    forward-only jumps with in-range targets, and a terminal RET on the
    last instruction (so execution cannot run off the end).
    """
    if not program:
        raise FilterError("empty filter program")
    if len(program) > MAX_PROGRAM_LEN:
        raise FilterError("program too long: %d" % len(program))
    for i, insn in enumerate(program):
        if not isinstance(insn, Insn):
            raise FilterError("instruction %d is not an Insn: %r" % (i, insn))
        if insn.op in JUMP_OPS:
            for target in (insn.jt, insn.jf):
                if target < 0:
                    raise FilterError("instruction %d: backward jump" % i)
                if i + 1 + target > len(program) - 1:
                    raise FilterError(
                        "instruction %d: jump target %d out of range"
                        % (i, i + 1 + target)
                    )
    if program[-1].op not in RET_OPS:
        raise FilterError("last instruction must be a RET")
    return program


class FilterMachine:
    """Executes validated filter programs against packets."""

    def __init__(self):
        self.packets_examined = 0
        self.insns_executed = 0

    def run(self, program, packet):
        """Run ``program`` on ``packet``.

        Returns ``(accepted_bytes, insn_count)``; ``accepted_bytes`` of 0
        means reject.  Loads beyond the packet reject the packet (the BPF
        convention) rather than faulting the kernel.
        """
        self.packets_examined += 1
        a = 0
        x = 0
        pc = 0
        executed = 0
        end = len(program)
        try:
            code = program._code  # class default None on FilterProgram
        except AttributeError:
            code = None  # plain-list program
        if code is None or len(code) != end:
            code = tuple((i.op, i.k, i.jt, i.jf) for i in program)
            try:
                program._code = code
            except AttributeError:
                pass  # plain-list program: rebuilt per run
        (LD_B, LD_H, LD_W, LD_IND_B, LD_IND_H, LDX_MSH, LD_LEN, LD_IMM,
         LDX_IMM, TAX, TXA, AND, OR, RSH, LSH, ADD, SUB, JEQ, JGT, JGE,
         JSET, RET, RET_A) = _DISPATCH_OPS
        while pc < end:
            op, k, jt, jf = code[pc]
            executed += 1
            try:
                if op is LD_B:
                    a = packet[k]
                elif op is LD_H:
                    a = (packet[k] << 8) | packet[k + 1]
                elif op is LD_W:
                    a = (
                        (packet[k] << 24)
                        | (packet[k + 1] << 16)
                        | (packet[k + 2] << 8)
                        | packet[k + 3]
                    )
                elif op is LD_IND_B:
                    a = packet[x + k]
                elif op is LD_IND_H:
                    a = (packet[x + k] << 8) | packet[x + k + 1]
                elif op is LDX_MSH:
                    x = 4 * (packet[k] & 0x0F)
                elif op is LD_LEN:
                    a = len(packet)
                elif op is LD_IMM:
                    a = k
                elif op is LDX_IMM:
                    x = k
                elif op is TAX:
                    x = a
                elif op is TXA:
                    a = x
                elif op is AND:
                    a &= k
                elif op is OR:
                    a |= k
                elif op is RSH:
                    a >>= k
                elif op is LSH:
                    a = (a << k) & 0xFFFFFFFF
                elif op is ADD:
                    a = (a + k) & 0xFFFFFFFF
                elif op is SUB:
                    a = (a - k) & 0xFFFFFFFF
                elif op is JEQ:
                    pc += jt if a == k else jf
                elif op is JGT:
                    pc += jt if a > k else jf
                elif op is JGE:
                    pc += jt if a >= k else jf
                elif op is JSET:
                    pc += jt if a & k else jf
                elif op is RET:
                    self.insns_executed += executed
                    return k, executed
                elif op is RET_A:
                    self.insns_executed += executed
                    return a, executed
                else:  # pragma: no cover - the Op enum is closed
                    raise FilterError("unknown op %r" % op)
            except IndexError:
                # Load beyond packet end: reject, as real BPF does.
                self.insns_executed += executed
                return 0, executed
            pc += 1
        raise FilterError("program ran off the end (validator bug)")

    def matches(self, program, packet):
        """Convenience: True iff the program accepts the packet."""
        accepted, _count = self.run(program, packet)
        return accepted > 0
