"""Reference evaluator for Tiny-C: program output straight from source.

The benchmark checks every build of the paper suite against an expected
output that must not come from the compiler under test.  This module
produces it by walking the :mod:`repro.lang` AST (after semantic
analysis has resolved names) with plain Python semantics for 32-bit
two's-complement words.  It imports nothing from ``repro.ir``,
``repro.opt``, ``repro.backend``, ``repro.linker`` or
``repro.machine``.

Memory is one flat list of words, as on the PRISM machine: globals sit
at fixed addresses, each call's parameters and locals get a fresh frame
on a stack, array names decay to their address, and ``p + 1`` is the
next word.  Function values are opaque integers that index a table.

To regenerate the committed expected outputs::

    PYTHONPATH=src python3 perfbench/tinyc_eval.py --write
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.lang import ast
from repro.lang.sema import (
    BuiltinSymbol,
    FunctionSymbol,
    GlobalSymbol,
    LocalSymbol,
    analyze_source,
)

EXPECTED_DIR = Path(__file__).resolve().parent / "expected"

_MASK = 0xFFFFFFFF
_SIGN = 0x80000000
_GLOBAL_BASE = 16
_FUNCTION_BASE = 1 << 28

# Statement completion codes; ``None``/0 means "fall through".
_BREAK, _CONTINUE, _RETURN = 1, 2, 3


class EvalError(Exception):
    """The program did something the evaluator cannot give meaning to."""


def _wrap(value: int) -> int:
    return ((value + _SIGN) & _MASK) - _SIGN


def _div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    quotient = abs(a) // abs(b)
    return _wrap(-quotient if (a < 0) != (b < 0) else quotient)


def _rem(a: int, b: int) -> int:
    return _wrap(a - _div(a, b) * b)


def _binary(op: str, lhs, rhs):
    """Closure for a non-short-circuit binary operator."""
    if op == "+":
        return lambda fp: ((lhs(fp) + rhs(fp) + _SIGN) & _MASK) - _SIGN
    if op == "-":
        return lambda fp: ((lhs(fp) - rhs(fp) + _SIGN) & _MASK) - _SIGN
    if op == "*":
        return lambda fp: ((lhs(fp) * rhs(fp) + _SIGN) & _MASK) - _SIGN
    if op == "/":
        return lambda fp: _div(lhs(fp), rhs(fp))
    if op == "%":
        return lambda fp: _rem(lhs(fp), rhs(fp))
    if op == "&":
        return lambda fp: lhs(fp) & rhs(fp)
    if op == "|":
        return lambda fp: lhs(fp) | rhs(fp)
    if op == "^":
        return lambda fp: lhs(fp) ^ rhs(fp)
    if op == "<<":
        return lambda fp: _wrap(lhs(fp) << (rhs(fp) & 31))
    if op == ">>":
        return lambda fp: lhs(fp) >> (rhs(fp) & 31)
    if op == "==":
        return lambda fp: int(lhs(fp) == rhs(fp))
    if op == "!=":
        return lambda fp: int(lhs(fp) != rhs(fp))
    if op == "<":
        return lambda fp: int(lhs(fp) < rhs(fp))
    if op == "<=":
        return lambda fp: int(lhs(fp) <= rhs(fp))
    if op == ">":
        return lambda fp: int(lhs(fp) > rhs(fp))
    if op == ">=":
        return lambda fp: int(lhs(fp) >= rhs(fp))
    raise EvalError(f"unknown binary operator {op!r}")


def _combine(op: str, old: int, rhs: int) -> int:
    """Compound assignment ``old op= rhs``."""
    return _binary(op, lambda _fp: old, lambda _fp: rhs)(0)


class Program:
    """A linked Tiny-C program ready to evaluate.

    Args:
        sources: ``{module_name: source_text}``.
        memory_words: Size of the word memory (globals plus stack).
    """

    def __init__(self, sources: dict, memory_words: int = 1 << 20):
        self.memory = [0] * memory_words
        self.output: list = []
        self._sp = 0
        self._result = [0]
        infos = [
            analyze_source(text, name)
            for name, text in sorted(sources.items())
        ]
        self._global_addr: dict = {}
        address = _GLOBAL_BASE
        for info in infos:
            for symbol in info.globals.values():
                if symbol.is_extern_ref:
                    continue
                self._global_addr[symbol.qualified_name] = address
                words = (
                    list(symbol.array_init or [])
                    if symbol.is_array
                    else [symbol.init or 0]
                )
                for index, word in enumerate(words):
                    self.memory[address + index] = _wrap(word)
                address += symbol.size_words
        self._stack_base = address
        names = sorted(
            function.symbol.qualified_name
            for info in infos
            for function in info.function_infos
        )
        self._function_ids = {
            name: _FUNCTION_BASE + index for index, name in enumerate(names)
        }
        self._functions: dict = {}
        for info in infos:
            for function in info.function_infos:
                self._functions[
                    self._function_ids[function.symbol.qualified_name]
                ] = self._compile_function(function)

    # -- running ----------------------------------------------------------

    def run(self) -> tuple:
        """Evaluate ``main``; returns ``(output, exit_code)``."""
        if "main" not in self._function_ids:
            raise EvalError("program has no main")
        self._sp = self._stack_base
        self.output.clear()
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(max(limit, 50_000))
        try:
            exit_code = self._functions[self._function_ids["main"]]([])
        finally:
            sys.setrecursionlimit(limit)
        return "".join(self.output), exit_code

    # -- functions --------------------------------------------------------

    def _compile_function(self, function):
        offsets: dict = {}
        size = 0
        for local in list(function.params) + list(function.locals):
            offsets[local.uid] = size
            size += local.size_words
        body = self._statement(function.definition.body, offsets)
        memory = self.memory
        result = self._result
        program = self
        limit = len(memory)

        def call(args):
            fp = program._sp
            if fp + size > limit:
                raise EvalError("stack overflow")
            program._sp = fp + size
            for index, value in enumerate(args):
                memory[fp + index] = value
            result[0] = 0
            body(fp)
            program._sp = fp
            return result[0]

        return call

    # -- statements -------------------------------------------------------

    def _statement(self, stmt, offsets):
        if isinstance(stmt, ast.Block):
            parts = [self._statement(s, offsets) for s in stmt.statements]

            def block(fp):
                for part in parts:
                    status = part(fp)
                    if status:
                        return status
                return 0

            return block
        if isinstance(stmt, ast.ExprStmt):
            expr = self._expr(stmt.expr, offsets)

            def expression(fp):
                expr(fp)
                return 0

            return expression
        if isinstance(stmt, ast.LocalDecl):
            return self._local_decl(stmt, offsets)
        if isinstance(stmt, ast.IfStmt):
            cond = self._expr(stmt.cond, offsets)
            then = self._statement(stmt.then_body, offsets)
            if stmt.else_body is None:
                return lambda fp: then(fp) if cond(fp) else 0
            otherwise = self._statement(stmt.else_body, offsets)
            return lambda fp: then(fp) if cond(fp) else otherwise(fp)
        if isinstance(stmt, ast.WhileStmt):
            return self._loop(None, stmt.cond, None, stmt.body, offsets)
        if isinstance(stmt, ast.ForStmt):
            return self._loop(
                stmt.init, stmt.cond, stmt.step, stmt.body, offsets
            )
        if isinstance(stmt, ast.DoWhileStmt):
            cond = self._expr(stmt.cond, offsets)
            body = self._statement(stmt.body, offsets)

            def do_while(fp):
                while True:
                    status = body(fp)
                    if status == _BREAK:
                        return 0
                    if status == _RETURN:
                        return _RETURN
                    if not cond(fp):
                        return 0

            return do_while
        if isinstance(stmt, ast.ReturnStmt):
            result = self._result
            if stmt.value is None:
                return lambda fp: _RETURN
            value = self._expr(stmt.value, offsets)

            def ret(fp):
                result[0] = value(fp)
                return _RETURN

            return ret
        if isinstance(stmt, ast.BreakStmt):
            return lambda fp: _BREAK
        if isinstance(stmt, ast.ContinueStmt):
            return lambda fp: _CONTINUE
        if isinstance(stmt, ast.EmptyStmt):
            return lambda fp: 0
        raise EvalError(f"unknown statement {type(stmt).__name__}")

    def _loop(self, init, cond, step, body, offsets):
        init = self._expr(init, offsets) if init is not None else None
        cond = self._expr(cond, offsets) if cond is not None else None
        step = self._expr(step, offsets) if step is not None else None
        body = self._statement(body, offsets)

        def loop(fp):
            if init is not None:
                init(fp)
            while cond is None or cond(fp):
                status = body(fp)
                if status == _BREAK:
                    break
                if status == _RETURN:
                    return _RETURN
                if step is not None:
                    step(fp)
            return 0

        return loop

    def _local_decl(self, decl, offsets):
        memory = self.memory
        offset = offsets[decl.symbol.uid]
        if decl.array_size is not None:
            if decl.array_init is None:
                return lambda fp: 0
            words = [_wrap(w) for w in decl.array_init]
            words += [0] * (decl.array_size - len(words))

            def init_array(fp):
                memory[fp + offset: fp + offset + len(words)] = words
                return 0

            return init_array
        if decl.init is None:

            def zero(fp):
                memory[fp + offset] = 0
                return 0

            return zero
        value = self._expr(decl.init, offsets)

        def init_scalar(fp):
            memory[fp + offset] = value(fp)
            return 0

        return init_scalar

    # -- expressions ------------------------------------------------------

    def _expr(self, expr, offsets):
        memory = self.memory
        if isinstance(expr, ast.IntLiteral):
            value = _wrap(expr.value)
            return lambda fp: value
        if isinstance(expr, ast.NameExpr):
            return self._name_value(expr, offsets)
        if isinstance(expr, ast.UnaryExpr):
            if expr.op == "&":
                return self._address(expr.operand, offsets)
            operand = self._expr(expr.operand, offsets)
            if expr.op == "*":
                return lambda fp: memory[operand(fp)]
            if expr.op == "-":
                return lambda fp: _wrap(-operand(fp))
            if expr.op == "~":
                return lambda fp: ~operand(fp)
            if expr.op == "!":
                return lambda fp: int(operand(fp) == 0)
            raise EvalError(f"unknown unary operator {expr.op!r}")
        if isinstance(expr, ast.BinaryExpr):
            lhs = self._expr(expr.lhs, offsets)
            rhs = self._expr(expr.rhs, offsets)
            if expr.op == "&&":
                return lambda fp: int(bool(lhs(fp)) and bool(rhs(fp)))
            if expr.op == "||":
                return lambda fp: int(bool(lhs(fp)) or bool(rhs(fp)))
            return _binary(expr.op, lhs, rhs)
        if isinstance(expr, ast.AssignExpr):
            return self._assign(expr, offsets)
        if isinstance(expr, ast.IncDecExpr):
            address = self._address(expr.target, offsets)
            delta, prefix = expr.delta, expr.is_prefix

            def incdec(fp):
                where = address(fp)
                old = memory[where]
                new = _wrap(old + delta)
                memory[where] = new
                return new if prefix else old

            return incdec
        if isinstance(expr, ast.CallExpr):
            return self._call(expr, offsets)
        if isinstance(expr, ast.IndexExpr):
            address = self._address(expr, offsets)
            return lambda fp: memory[address(fp)]
        if isinstance(expr, ast.CondExpr):
            cond = self._expr(expr.cond, offsets)
            then = self._expr(expr.then, offsets)
            otherwise = self._expr(expr.otherwise, offsets)
            return lambda fp: then(fp) if cond(fp) else otherwise(fp)
        raise EvalError(f"unknown expression {type(expr).__name__}")

    def _name_value(self, expr, offsets):
        memory = self.memory
        symbol = expr.symbol
        if isinstance(symbol, LocalSymbol):
            offset = offsets[symbol.uid]
            if symbol.is_array:
                return lambda fp: fp + offset
            return lambda fp: memory[fp + offset]
        if isinstance(symbol, GlobalSymbol):
            address = self._global_address(symbol)
            if symbol.is_array:
                return lambda fp: address
            return lambda fp: memory[address]
        if isinstance(symbol, FunctionSymbol):
            value = self._function_ids[symbol.qualified_name]
            return lambda fp: value
        raise EvalError(f"{expr.name!r} has no value")

    def _global_address(self, symbol) -> int:
        try:
            return self._global_addr[symbol.qualified_name]
        except KeyError:
            raise EvalError(
                f"undefined global {symbol.qualified_name!r}"
            ) from None

    def _address(self, expr, offsets):
        """Closure computing the word address of an lvalue."""
        if isinstance(expr, ast.NameExpr):
            symbol = expr.symbol
            if isinstance(symbol, LocalSymbol):
                offset = offsets[symbol.uid]
                return lambda fp: fp + offset
            if isinstance(symbol, GlobalSymbol):
                address = self._global_address(symbol)
                return lambda fp: address
            if isinstance(symbol, FunctionSymbol):
                value = self._function_ids[symbol.qualified_name]
                return lambda fp: value
        if isinstance(expr, ast.IndexExpr):
            base = self._expr(expr.base, offsets)
            index = self._expr(expr.index, offsets)
            return lambda fp: base(fp) + index(fp)
        if isinstance(expr, ast.UnaryExpr) and expr.op == "*":
            return self._expr(expr.operand, offsets)
        raise EvalError("expression has no address")

    def _assign(self, expr, offsets):
        memory = self.memory
        address = self._address(expr.target, offsets)
        value = self._expr(expr.value, offsets)
        if expr.op is None:

            def assign(fp):
                where = address(fp)
                result = value(fp)
                memory[where] = result
                return result

            return assign
        op = expr.op

        def compound(fp):
            where = address(fp)
            old = memory[where]
            result = _combine(op, old, value(fp))
            memory[where] = result
            return result

        return compound

    def _call(self, expr, offsets):
        args = [self._expr(arg, offsets) for arg in expr.args]
        functions = self._functions
        callee = expr.callee
        if not expr.is_indirect:
            symbol = callee.symbol
            if isinstance(symbol, BuiltinSymbol):
                return self._builtin(symbol.name, args)
            if not isinstance(symbol, FunctionSymbol):
                raise EvalError(f"cannot call {callee.name!r}")
            ident = self._function_ids.get(symbol.qualified_name)
            if ident is None:
                raise EvalError(
                    f"undefined function {symbol.qualified_name!r}"
                )
            return lambda fp: functions[ident]([arg(fp) for arg in args])
        while isinstance(callee, ast.UnaryExpr) and callee.op == "*":
            callee = callee.operand
        target = self._expr(callee, offsets)

        def indirect(fp):
            values = [arg(fp) for arg in args]
            function = functions.get(target(fp))
            if function is None:
                raise EvalError("indirect call through a non-function")
            return function(values)

        return indirect

    def _builtin(self, name, args):
        (arg,) = args
        output = self.output.append
        if name == "print":

            def print_(fp):
                output(f"{arg(fp)}\n")
                return 0

            return print_

        def putc(fp):
            output(chr(arg(fp) & 0xFF))
            return 0

        return putc


def evaluate(sources: dict) -> dict:
    """Expected ``{"output", "exit_code"}`` of a whole program."""
    output, exit_code = Program(sources).run()
    return {"output": output, "exit_code": exit_code}


def expected_path(program: str) -> Path:
    return EXPECTED_DIR / f"{program}.json"


def expected_outputs() -> dict:
    """Program name -> its evaluator result, for every Table-3 program."""
    from repro.workloads import all_workloads

    return {
        name: evaluate(workload.sources)
        for name, workload in all_workloads().items()
    }


def load_expected() -> dict:
    """The committed expected outputs, keyed by program name."""
    return {
        path.stem: json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(EXPECTED_DIR.glob("*.json"))
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--write", action="store_true",
        help="rewrite the committed expected outputs",
    )
    args = parser.parse_args(argv)
    results = expected_outputs()
    committed = load_expected()
    stale = sorted(
        name for name in results if committed.get(name) != results[name]
    )
    if args.write:
        EXPECTED_DIR.mkdir(exist_ok=True)
        for name, result in results.items():
            expected_path(name).write_text(
                json.dumps(result, indent=1) + "\n", encoding="utf-8"
            )
        print(f"wrote {len(results)} expected outputs")
        return 0
    for name in stale:
        print(f"stale: {name}")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
