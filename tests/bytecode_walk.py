"""The one bytecode walk of the ``dis`` guards (``test_enum_reads``,
``test_slots``, ``test_table_path``)."""

import dis
import types


def instructions(func):
    """Every instruction of ``func``'s code and of each code object nested
    in it (a comprehension, say)."""
    codes = [func.__code__]
    while codes:
        code = codes.pop()
        yield from dis.get_instructions(code)
        codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
