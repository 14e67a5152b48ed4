"""Recursive-descent parser for Tiny-C.

The grammar is a restricted C89: ``int``-centric declarations, pointers,
fixed-size arrays, functions, ``static``/``extern`` linkage, and full
structured control flow with C operator precedence.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.lang import ast
from repro.lang.errors import ParseError
from repro.lang.lexer import tokenize
from repro.lang.tokens import Token, TokenKind

# Binary operator precedence, higher binds tighter.  Logical && / || are
# handled here too; short-circuit lowering happens during IR generation.
_BINARY_PRECEDENCE = {
    "||": 1,
    "&&": 2,
    "|": 3,
    "^": 4,
    "&": 5,
    "==": 6,
    "!=": 6,
    "<": 7,
    ">": 7,
    "<=": 7,
    ">=": 7,
    "<<": 8,
    ">>": 8,
    "+": 9,
    "-": 9,
    "*": 10,
    "/": 10,
    "%": 10,
}

_BINARY_TOKEN_OPS = {
    TokenKind.OR_OR: "||",
    TokenKind.AND_AND: "&&",
    TokenKind.PIPE: "|",
    TokenKind.CARET: "^",
    TokenKind.AMP: "&",
    TokenKind.EQ: "==",
    TokenKind.NE: "!=",
    TokenKind.LT: "<",
    TokenKind.GT: ">",
    TokenKind.LE: "<=",
    TokenKind.GE: ">=",
    TokenKind.LSHIFT: "<<",
    TokenKind.RSHIFT: ">>",
    TokenKind.PLUS: "+",
    TokenKind.MINUS: "-",
    TokenKind.STAR: "*",
    TokenKind.SLASH: "/",
    TokenKind.PERCENT: "%",
}

_UNARY_OPS = {
    TokenKind.MINUS: "-",
    TokenKind.BANG: "!",
    TokenKind.TILDE: "~",
    TokenKind.STAR: "*",
    TokenKind.AMP: "&",
}

_PREFIX_KINDS = frozenset(_UNARY_OPS) | {
    TokenKind.PLUS,
    TokenKind.PLUS_PLUS,
    TokenKind.MINUS_MINUS,
}

_COMPOUND_ASSIGN_OPS = {
    TokenKind.PLUS_ASSIGN: "+",
    TokenKind.MINUS_ASSIGN: "-",
    TokenKind.STAR_ASSIGN: "*",
    TokenKind.SLASH_ASSIGN: "/",
    TokenKind.PERCENT_ASSIGN: "%",
}


# Nesting bounds.  The parser and the passes after it are recursive, so
# without a bound a deeply nested input overflows the interpreter's
# recursion limit (1000 frames); with one it is a located ParseError.

#: Deepest the parser itself may recurse: each statement inside another,
#: each sub-expression and each prefix operator is one level, and a
#: level costs the parser at most six Python frames.
MAX_NESTING = 120
#: Deepest the syntax tree may nest.  It counts the levels above plus
#: each link of a chain such as ``a + b + c`` or ``a[i][j]``, which the
#: parser builds in a loop but whose tree nests to the left, so a
#: chain's links count on top of its deepest operand.  Later passes
#: spend at most two frames per level of tree.
MAX_TREE_DEPTH = 300


class Parser:
    """Parses one Tiny-C compilation unit into an :class:`ast.Module`."""

    def __init__(self, tokens: list[Token], module_name: str = "<input>"):
        self._tokens = tokens
        self._pos = 0
        self._module_name = module_name
        # Nesting of the construct being parsed (the parser's own
        # recursion), and the deepest level the expression being parsed
        # has reached so far, chain links included.
        self._depth = 0
        self._reached = 0

    # -- token plumbing -------------------------------------------------

    def _peek(self, offset: int = 0) -> Token:
        index = min(self._pos + offset, len(self._tokens) - 1)
        return self._tokens[index]

    def _advance(self) -> Token:
        token = self._tokens[self._pos]
        if token.kind is not TokenKind.EOF:
            self._pos += 1
        return token

    def _check(self, kind: TokenKind) -> bool:
        return self._peek().kind is kind

    def _accept(self, kind: TokenKind) -> Optional[Token]:
        if self._check(kind):
            return self._advance()
        return None

    def _nest(self, token: Token) -> None:
        """Enter one more level of nesting (see :data:`MAX_NESTING`);
        the caller leaves it with ``self._depth -= 1``.  A parse error
        abandons the parser, so error paths need not unwind."""
        self._depth += 1
        if self._depth > MAX_NESTING:
            raise ParseError(
                f"nesting deeper than {MAX_NESTING} levels", token.location
            )
        if self._depth > self._reached:
            self._reached = self._depth

    def _chain(self, links: int, token: Token) -> None:
        """Check a chain ``links`` long over the operands parsed so far
        (see :data:`MAX_TREE_DEPTH`)."""
        if self._reached + links > MAX_TREE_DEPTH:
            raise ParseError(
                f"expression nests deeper than {MAX_TREE_DEPTH} levels",
                token.location,
            )

    def _expect(self, kind: TokenKind, what: str = "") -> Token:
        if self._check(kind):
            return self._advance()
        found = self._peek()
        expected = what or kind.value
        raise ParseError(
            f"expected {expected}, found {found.kind.value} {found.text!r}",
            found.location,
        )

    # -- top level ------------------------------------------------------

    def parse_module(self) -> ast.Module:
        """Parse the whole token stream into a module."""
        start = self._peek().location
        decls: list[ast.TopDecl] = []
        while not self._check(TokenKind.EOF):
            decls.extend(self._parse_top_decl())
        return ast.Module(start, self._module_name, decls)

    def _parse_top_decl(self) -> list[ast.TopDecl]:
        if self._accept(TokenKind.KW_EXTERN):
            return self._parse_extern_decl()
        is_static = bool(self._accept(TokenKind.KW_STATIC))
        if self._check(TokenKind.KW_VOID):
            return [self._parse_function("void", is_static)]
        self._expect(TokenKind.KW_INT, "'int', 'void', 'static' or 'extern'")
        # Disambiguate: function definition/prototype vs variable declaration.
        # A function has the shape  int [*]* NAME (  ... .
        save = self._pos
        pointer_level = 0
        while self._accept(TokenKind.STAR):
            pointer_level += 1
        name_token = self._expect(TokenKind.IDENT, "declarator name")
        if self._check(TokenKind.LPAREN):
            self._pos = save
            return [self._parse_function("int", is_static, pointer_level)]
        self._pos = save
        return self._parse_global_vars(is_static)

    def _parse_extern_decl(self) -> list[ast.TopDecl]:
        self._expect(TokenKind.KW_INT, "'int' after 'extern'")
        pointer_level = 0
        while self._accept(TokenKind.STAR):
            pointer_level += 1
        name_token = self._expect(TokenKind.IDENT, "name after 'extern int'")
        if self._check(TokenKind.LPAREN):
            param_count = self._parse_prototype_params()
            self._expect(TokenKind.SEMICOLON)
            return [
                ast.ExternFuncDecl(
                    name_token.location, name_token.text, "int", param_count
                )
            ]
        is_array = False
        if self._accept(TokenKind.LBRACKET):
            # `extern int a[];` or with an ignored size.
            self._accept(TokenKind.INT_LITERAL)
            self._expect(TokenKind.RBRACKET)
            is_array = True
        decls: list[ast.TopDecl] = [
            ast.ExternVarDecl(
                name_token.location, name_token.text, pointer_level, is_array
            )
        ]
        while self._accept(TokenKind.COMMA):
            pointer_level = 0
            while self._accept(TokenKind.STAR):
                pointer_level += 1
            name_token = self._expect(TokenKind.IDENT)
            is_array = False
            if self._accept(TokenKind.LBRACKET):
                self._accept(TokenKind.INT_LITERAL)
                self._expect(TokenKind.RBRACKET)
                is_array = True
            decls.append(
                ast.ExternVarDecl(
                    name_token.location, name_token.text, pointer_level, is_array
                )
            )
        self._expect(TokenKind.SEMICOLON)
        return decls

    def _parse_prototype_params(self) -> int:
        """Parse a prototype parameter list, returning the parameter count."""
        self._expect(TokenKind.LPAREN)
        if self._accept(TokenKind.RPAREN):
            return 0
        if self._check(TokenKind.KW_VOID) and self._peek(1).kind is TokenKind.RPAREN:
            self._advance()
            self._advance()
            return 0
        count = 0
        while True:
            self._expect(TokenKind.KW_INT, "parameter type")
            while self._accept(TokenKind.STAR):
                pass
            self._accept(TokenKind.IDENT)
            count += 1
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN)
        return count

    def _parse_function(
        self, return_type: str, is_static: bool, _pointer_level: int = 0
    ) -> ast.TopDecl:
        if return_type == "void":
            self._expect(TokenKind.KW_VOID)
        while self._accept(TokenKind.STAR):
            pass
        name_token = self._expect(TokenKind.IDENT, "function name")
        params = self._parse_params()
        if self._accept(TokenKind.SEMICOLON):
            return ast.ExternFuncDecl(
                name_token.location, name_token.text, return_type, len(params)
            )
        for param in params:
            if param.name.startswith("__anon"):
                raise ParseError(
                    "function definition parameters must be named",
                    param.location,
                )
        body = self._parse_block()
        return ast.FunctionDef(
            name_token.location,
            name_token.text,
            return_type,
            params,
            body,
            is_static,
        )

    def _parse_params(self) -> list[ast.Param]:
        self._expect(TokenKind.LPAREN)
        params: list[ast.Param] = []
        if self._accept(TokenKind.RPAREN):
            return params
        if self._check(TokenKind.KW_VOID) and self._peek(1).kind is TokenKind.RPAREN:
            self._advance()
            self._advance()
            return params
        index = 0
        while True:
            type_token = self._expect(TokenKind.KW_INT, "parameter type")
            pointer_level = 0
            while self._accept(TokenKind.STAR):
                pointer_level += 1
            name_token = self._accept(TokenKind.IDENT)
            if name_token is not None:
                params.append(
                    ast.Param(
                        name_token.location, name_token.text, pointer_level
                    )
                )
            else:
                # Unnamed parameter: legal in prototypes only; the caller
                # rejects definitions that use one.
                params.append(
                    ast.Param(type_token.location, f"__anon{index}",
                              pointer_level)
                )
            index += 1
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.RPAREN)
        return params

    def _parse_global_vars(self, is_static: bool) -> list[ast.TopDecl]:
        decls: list[ast.TopDecl] = []
        while True:
            decls.append(self._parse_one_global(is_static))
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.SEMICOLON)
        return decls

    def _parse_one_global(self, is_static: bool) -> ast.GlobalVarDecl:
        pointer_level = 0
        while self._accept(TokenKind.STAR):
            pointer_level += 1
        name_token = self._expect(TokenKind.IDENT, "variable name")
        array_size: Optional[int] = None
        declared_empty_array = False
        if self._accept(TokenKind.LBRACKET):
            if self._check(TokenKind.RBRACKET):
                declared_empty_array = True
            else:
                array_size = self._parse_const_expr_int()
            self._expect(TokenKind.RBRACKET)
        init: Optional[int] = None
        array_init: Optional[list[int]] = None
        if self._accept(TokenKind.ASSIGN):
            if array_size is not None or declared_empty_array:
                array_init = self._parse_array_initializer()
                if array_size is None:
                    array_size = len(array_init)
                elif len(array_init) > array_size:
                    raise ParseError(
                        f"too many initializers for array of {array_size}",
                        name_token.location,
                    )
            else:
                init = self._parse_const_expr_int()
        elif declared_empty_array:
            raise ParseError(
                "array declared with [] requires an initializer",
                name_token.location,
            )
        return ast.GlobalVarDecl(
            name_token.location,
            name_token.text,
            is_static,
            pointer_level,
            array_size,
            init,
            array_init,
        )

    def _parse_array_initializer(self) -> list[int]:
        if self._check(TokenKind.STRING_LITERAL):
            token = self._advance()
            # NUL-terminated, one character per word.
            return [ord(ch) for ch in str(token.value)] + [0]
        self._expect(TokenKind.LBRACE, "'{' or string literal")
        values: list[int] = []
        if not self._check(TokenKind.RBRACE):
            while True:
                values.append(self._parse_const_expr_int())
                if not self._accept(TokenKind.COMMA):
                    break
        self._expect(TokenKind.RBRACE)
        return values

    def _parse_const_expr_int(self) -> int:
        expr = self.parse_expr()
        return evaluate_const_expr(expr)

    # -- statements -----------------------------------------------------

    def _parse_block(self) -> ast.Block:
        open_token = self._expect(TokenKind.LBRACE)
        statements: list[ast.Stmt] = []
        while not self._check(TokenKind.RBRACE):
            if self._check(TokenKind.EOF):
                raise ParseError("unterminated block", open_token.location)
            statements.extend(self._parse_block_item())
        self._expect(TokenKind.RBRACE)
        return ast.Block(open_token.location, statements)

    def _parse_block_item(self) -> list[ast.Stmt]:
        if self._check(TokenKind.KW_INT):
            return self._parse_local_decls()
        return [self._parse_statement()]

    def _parse_local_decls(self) -> list[ast.Stmt]:
        self._expect(TokenKind.KW_INT)
        decls: list[ast.Stmt] = []
        while True:
            decls.append(self._parse_one_local())
            if not self._accept(TokenKind.COMMA):
                break
        self._expect(TokenKind.SEMICOLON)
        return decls

    def _parse_one_local(self) -> ast.LocalDecl:
        pointer_level = 0
        while self._accept(TokenKind.STAR):
            pointer_level += 1
        name_token = self._expect(TokenKind.IDENT, "variable name")
        array_size: Optional[int] = None
        if self._accept(TokenKind.LBRACKET):
            array_size = self._parse_const_expr_int()
            self._expect(TokenKind.RBRACKET)
        init: Optional[ast.Expr] = None
        array_init: Optional[list[int]] = None
        if self._accept(TokenKind.ASSIGN):
            if array_size is not None:
                array_init = self._parse_array_initializer()
                if len(array_init) > array_size:
                    raise ParseError(
                        f"too many initializers for array of {array_size}",
                        name_token.location,
                    )
            else:
                init = self.parse_assignment()
        return ast.LocalDecl(
            name_token.location,
            name_token.text,
            pointer_level,
            array_size,
            init,
            array_init,
        )

    def _parse_statement(self) -> ast.Stmt:
        token = self._peek()
        self._nest(token)
        statement = self._parse_statement_at(token)
        self._depth -= 1
        return statement

    def _parse_statement_at(self, token: Token) -> ast.Stmt:
        kind = token.kind
        if kind is TokenKind.LBRACE:
            return self._parse_block()
        if kind is TokenKind.KW_IF:
            return self._parse_if()
        if kind is TokenKind.KW_WHILE:
            return self._parse_while()
        if kind is TokenKind.KW_DO:
            return self._parse_do_while()
        if kind is TokenKind.KW_FOR:
            return self._parse_for()
        if kind is TokenKind.KW_RETURN:
            self._advance()
            value = None
            if not self._check(TokenKind.SEMICOLON):
                value = self.parse_expr()
            self._expect(TokenKind.SEMICOLON)
            return ast.ReturnStmt(token.location, value)
        if kind is TokenKind.KW_BREAK:
            self._advance()
            self._expect(TokenKind.SEMICOLON)
            return ast.BreakStmt(token.location)
        if kind is TokenKind.KW_CONTINUE:
            self._advance()
            self._expect(TokenKind.SEMICOLON)
            return ast.ContinueStmt(token.location)
        if kind is TokenKind.SEMICOLON:
            self._advance()
            return ast.EmptyStmt(token.location)
        expr = self.parse_expr()
        self._expect(TokenKind.SEMICOLON)
        return ast.ExprStmt(token.location, expr)

    def _parse_if(self) -> ast.IfStmt:
        token = self._expect(TokenKind.KW_IF)
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        then_body = self._parse_statement()
        else_body = None
        if self._accept(TokenKind.KW_ELSE):
            else_body = self._parse_statement()
        return ast.IfStmt(token.location, cond, then_body, else_body)

    def _parse_while(self) -> ast.WhileStmt:
        token = self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self._parse_statement()
        return ast.WhileStmt(token.location, cond, body)

    def _parse_do_while(self) -> ast.DoWhileStmt:
        token = self._expect(TokenKind.KW_DO)
        body = self._parse_statement()
        self._expect(TokenKind.KW_WHILE)
        self._expect(TokenKind.LPAREN)
        cond = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        self._expect(TokenKind.SEMICOLON)
        return ast.DoWhileStmt(token.location, body, cond)

    def _parse_for(self) -> ast.ForStmt:
        token = self._expect(TokenKind.KW_FOR)
        self._expect(TokenKind.LPAREN)
        init: Optional[Union[ast.Expr, ast.LocalDecl]] = None
        if not self._check(TokenKind.SEMICOLON):
            init = self.parse_expr()
        self._expect(TokenKind.SEMICOLON)
        cond = None
        if not self._check(TokenKind.SEMICOLON):
            cond = self.parse_expr()
        self._expect(TokenKind.SEMICOLON)
        step = None
        if not self._check(TokenKind.RPAREN):
            step = self.parse_expr()
        self._expect(TokenKind.RPAREN)
        body = self._parse_statement()
        return ast.ForStmt(token.location, init, cond, step, body)

    # -- expressions ----------------------------------------------------

    def parse_assignment(self) -> ast.Expr:
        """Parse a full expression (assignment level, comma not supported)."""
        self._nest(self._peek())
        expr = self._parse_ternary()
        token = self._peek()
        if token.kind is TokenKind.ASSIGN:
            self._advance()
            value = self.parse_assignment()
            expr = ast.AssignExpr(token.location, expr, value, None)
        elif token.kind in _COMPOUND_ASSIGN_OPS:
            self._advance()
            value = self.parse_assignment()
            expr = ast.AssignExpr(
                token.location, expr, value, _COMPOUND_ASSIGN_OPS[token.kind]
            )
        self._depth -= 1
        return expr

    # One frame less per parenthesized level than a wrapper method.
    parse_expr = parse_assignment

    def _parse_ternary(self) -> ast.Expr:
        cond = self._parse_binary(1)
        token = self._peek()
        if token.kind is TokenKind.QUESTION:
            self._advance()
            self._nest(token)
            then = self.parse_expr()
            self._expect(TokenKind.COLON)
            otherwise = self._parse_ternary()
            self._depth -= 1
            return ast.CondExpr(token.location, cond, then, otherwise)
        return cond

    def _parse_binary(self, min_precedence: int) -> ast.Expr:
        reached, self._reached = self._reached, self._depth
        left = self._parse_unary()
        links = 0
        while True:
            token = self._peek()
            op = _BINARY_TOKEN_OPS.get(token.kind)
            if op is None:
                break
            precedence = _BINARY_PRECEDENCE[op]
            if precedence < min_precedence:
                break
            self._advance()
            right = self._parse_binary(precedence + 1)
            left = ast.BinaryExpr(token.location, op, left, right)
            links += 1
            self._chain(links, token)
        self._reached = max(reached, self._reached + links)
        return left

    def _parse_unary(self) -> ast.Expr:
        token = self._peek()
        kind = token.kind
        if kind not in _PREFIX_KINDS:
            return self._parse_postfix()
        self._advance()
        self._nest(token)
        operand = self._parse_unary()
        self._depth -= 1
        if kind is TokenKind.PLUS:
            return operand
        if kind is TokenKind.PLUS_PLUS:
            return ast.IncDecExpr(token.location, operand, 1, True)
        if kind is TokenKind.MINUS_MINUS:
            return ast.IncDecExpr(token.location, operand, -1, True)
        return ast.UnaryExpr(token.location, _UNARY_OPS[kind], operand)

    def _parse_postfix(self) -> ast.Expr:
        reached, self._reached = self._reached, self._depth
        expr = self._parse_primary()
        links = 0
        while True:
            token = self._peek()
            if token.kind is TokenKind.LPAREN:
                self._advance()
                args: list[ast.Expr] = []
                if not self._check(TokenKind.RPAREN):
                    while True:
                        args.append(self.parse_assignment())
                        if not self._accept(TokenKind.COMMA):
                            break
                self._expect(TokenKind.RPAREN)
                expr = ast.CallExpr(token.location, expr, args)
            elif token.kind is TokenKind.LBRACKET:
                self._advance()
                index = self.parse_expr()
                self._expect(TokenKind.RBRACKET)
                expr = ast.IndexExpr(token.location, expr, index)
            elif token.kind is TokenKind.PLUS_PLUS:
                self._advance()
                expr = ast.IncDecExpr(token.location, expr, 1, False)
            elif token.kind is TokenKind.MINUS_MINUS:
                self._advance()
                expr = ast.IncDecExpr(token.location, expr, -1, False)
            else:
                self._reached = max(reached, self._reached + links)
                return expr
            links += 1
            self._chain(links, token)

    def _parse_primary(self) -> ast.Expr:
        token = self._peek()
        if token.kind is TokenKind.INT_LITERAL:
            self._advance()
            return ast.IntLiteral(token.location, int(token.value))
        if token.kind is TokenKind.CHAR_LITERAL:
            self._advance()
            return ast.IntLiteral(token.location, int(token.value))
        if token.kind is TokenKind.IDENT:
            self._advance()
            return ast.NameExpr(token.location, token.text)
        if token.kind is TokenKind.LPAREN:
            self._advance()
            expr = self.parse_expr()
            self._expect(TokenKind.RPAREN)
            return expr
        raise ParseError(
            f"expected expression, found {token.kind.value} {token.text!r}",
            token.location,
        )


def evaluate_const_expr(expr: ast.Expr) -> int:
    """Evaluate a constant expression (literals + arithmetic) to an int."""
    if isinstance(expr, ast.IntLiteral):
        return expr.value
    if isinstance(expr, ast.UnaryExpr):
        value = evaluate_const_expr(expr.operand)
        if expr.op == "-":
            return -value
        if expr.op == "~":
            return ~value
        if expr.op == "!":
            return int(value == 0)
        raise ParseError(f"operator {expr.op!r} not allowed in constant", expr.location)
    if isinstance(expr, ast.BinaryExpr):
        lhs = evaluate_const_expr(expr.lhs)
        rhs = evaluate_const_expr(expr.rhs)
        return _apply_const_binop(expr.op, lhs, rhs, expr)
    raise ParseError("expression is not constant", expr.location)


def _apply_const_binop(op: str, lhs: int, rhs: int, expr: ast.Expr) -> int:
    if op == "+":
        return lhs + rhs
    if op == "-":
        return lhs - rhs
    if op == "*":
        return lhs * rhs
    if op == "/":
        if rhs == 0:
            raise ParseError("division by zero in constant", expr.location)
        return int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs
    if op == "%":
        if rhs == 0:
            raise ParseError("division by zero in constant", expr.location)
        return lhs - rhs * (int(lhs / rhs) if (lhs < 0) != (rhs < 0) else lhs // rhs)
    if op == "<<":
        return lhs << rhs
    if op == ">>":
        return lhs >> rhs
    if op == "&":
        return lhs & rhs
    if op == "|":
        return lhs | rhs
    if op == "^":
        return lhs ^ rhs
    if op == "==":
        return int(lhs == rhs)
    if op == "!=":
        return int(lhs != rhs)
    if op == "<":
        return int(lhs < rhs)
    if op == ">":
        return int(lhs > rhs)
    if op == "<=":
        return int(lhs <= rhs)
    if op == ">=":
        return int(lhs >= rhs)
    if op == "&&":
        return int(bool(lhs) and bool(rhs))
    if op == "||":
        return int(bool(lhs) or bool(rhs))
    raise ParseError(f"operator {op!r} not allowed in constant", expr.location)


def parse_module(source: str, module_name: str = "<input>") -> ast.Module:
    """Lex and parse ``source`` into a module AST."""
    return Parser(tokenize(source, module_name), module_name).parse_module()
