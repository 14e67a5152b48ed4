"""Parser unit tests."""

import pytest

from repro import compile_program, run_executable
from repro.lang import ast
from repro.lang.errors import CompileError, ParseError
from repro.lang.parser import (
    MAX_NESTING,
    MAX_TREE_DEPTH,
    evaluate_const_expr,
    parse_module,
)
from tests.support import deeply_nested_source


def parse(source):
    return parse_module(source, "test")


def parse_expr(source):
    module = parse(f"int f() {{ return {source}; }}")
    func = module.decls[0]
    return func.body.statements[0].value


def test_empty_module():
    module = parse("")
    assert module.decls == []
    assert module.name == "test"


def test_global_scalar():
    module = parse("int g;")
    decl = module.decls[0]
    assert isinstance(decl, ast.GlobalVarDecl)
    assert decl.name == "g"
    assert decl.array_size is None
    assert decl.init is None


def test_global_with_initializer():
    decl = parse("int g = -42;").decls[0]
    assert decl.init == -42


def test_global_constant_expression_initializer():
    decl = parse("int g = 3 * (4 + 5);").decls[0]
    assert decl.init == 27


def test_static_global():
    decl = parse("static int g;").decls[0]
    assert decl.is_static


def test_global_comma_list():
    module = parse("int a, b = 2, c;")
    names = [d.name for d in module.decls]
    assert names == ["a", "b", "c"]
    assert module.decls[1].init == 2


def test_global_array():
    decl = parse("int a[10];").decls[0]
    assert decl.array_size == 10
    assert decl.array_init is None


def test_global_array_with_initializer():
    decl = parse("int a[4] = {1, 2, 3};").decls[0]
    assert decl.array_size == 4
    assert decl.array_init == [1, 2, 3]


def test_global_array_inferred_size():
    decl = parse("int a[] = {1, 2, 3};").decls[0]
    assert decl.array_size == 3


def test_global_array_string_initializer():
    decl = parse('int s[] = "ab";').decls[0]
    assert decl.array_init == [97, 98, 0]
    assert decl.array_size == 3


def test_array_too_many_initializers_rejected():
    with pytest.raises(ParseError):
        parse("int a[2] = {1, 2, 3};")


def test_empty_array_requires_initializer():
    with pytest.raises(ParseError):
        parse("int a[];")


def test_pointer_global():
    decl = parse("int *p;").decls[0]
    assert decl.pointer_level == 1


def test_extern_variable():
    decl = parse("extern int g;").decls[0]
    assert isinstance(decl, ast.ExternVarDecl)
    assert not decl.is_array


def test_extern_array():
    decl = parse("extern int a[];").decls[0]
    assert decl.is_array


def test_extern_function():
    decl = parse("extern int f(int, int);").decls[0]
    assert isinstance(decl, ast.ExternFuncDecl)
    assert decl.param_count == 2


def test_function_prototype_without_extern():
    decl = parse("int f(int a);").decls[0]
    assert isinstance(decl, ast.ExternFuncDecl)
    assert decl.param_count == 1


def test_function_definition():
    decl = parse("int f(int a, int b) { return a; }").decls[0]
    assert isinstance(decl, ast.FunctionDef)
    assert [p.name for p in decl.params] == ["a", "b"]
    assert decl.return_type == "int"


def test_void_function():
    decl = parse("void f() { return; }").decls[0]
    assert decl.return_type == "void"


def test_void_parameter_list():
    decl = parse("int f(void) { return 0; }").decls[0]
    assert decl.params == []


def test_pointer_parameter():
    decl = parse("int f(int *p) { return 0; }").decls[0]
    assert decl.params[0].pointer_level == 1


def test_precedence_mul_over_add():
    expr = parse_expr("1 + 2 * 3")
    assert isinstance(expr, ast.BinaryExpr)
    assert expr.op == "+"
    assert isinstance(expr.rhs, ast.BinaryExpr)
    assert expr.rhs.op == "*"


def test_precedence_shift_below_add():
    expr = parse_expr("1 << 2 + 3")
    assert expr.op == "<<"
    assert expr.rhs.op == "+"


def test_precedence_comparison_below_shift():
    expr = parse_expr("1 < 2 >> 3")
    assert expr.op == "<"


def test_precedence_logical():
    expr = parse_expr("a || b && c")
    assert expr.op == "||"
    assert expr.rhs.op == "&&"


def test_precedence_bitwise_chain():
    expr = parse_expr("a | b ^ c & d")
    assert expr.op == "|"
    assert expr.rhs.op == "^"
    assert expr.rhs.rhs.op == "&"


def test_left_associativity():
    expr = parse_expr("a - b - c")
    assert expr.op == "-"
    assert isinstance(expr.lhs, ast.BinaryExpr)
    assert expr.lhs.op == "-"


def test_assignment_right_associative():
    expr = parse_expr("a = b = 1")
    assert isinstance(expr, ast.AssignExpr)
    assert isinstance(expr.value, ast.AssignExpr)


def test_compound_assignment():
    expr = parse_expr("a += 2")
    assert isinstance(expr, ast.AssignExpr)
    assert expr.op == "+"


def test_ternary():
    expr = parse_expr("a ? 1 : 2")
    assert isinstance(expr, ast.CondExpr)


def test_ternary_nests_rightward():
    expr = parse_expr("a ? 1 : b ? 2 : 3")
    assert isinstance(expr.otherwise, ast.CondExpr)


def test_unary_operators():
    for op in ("-", "!", "~", "*", "&"):
        expr = parse_expr(f"{op}a")
        assert isinstance(expr, ast.UnaryExpr)
        assert expr.op == op


def test_increment_decrement():
    pre = parse_expr("++a")
    post = parse_expr("a--")
    assert isinstance(pre, ast.IncDecExpr) and pre.is_prefix and pre.delta == 1
    assert isinstance(post, ast.IncDecExpr)
    assert not post.is_prefix and post.delta == -1


def test_call_and_index_postfix():
    expr = parse_expr("f(1, 2)[3]")
    assert isinstance(expr, ast.IndexExpr)
    assert isinstance(expr.base, ast.CallExpr)
    assert len(expr.base.args) == 2


def test_statements_parse():
    module = parse(
        """
        int f(int n) {
          int x = 0;
          if (n > 0) x = 1; else x = 2;
          while (n) { n = n - 1; continue; }
          do { x++; } while (x < 3);
          for (n = 0; n < 4; n++) { if (n == 2) break; }
          ;
          return x;
        }
        """
    )
    body = module.decls[0].body
    assert isinstance(body.statements[0], ast.LocalDecl)
    assert isinstance(body.statements[1], ast.IfStmt)
    assert isinstance(body.statements[2], ast.WhileStmt)
    assert isinstance(body.statements[3], ast.DoWhileStmt)
    assert isinstance(body.statements[4], ast.ForStmt)
    assert isinstance(body.statements[5], ast.EmptyStmt)
    assert isinstance(body.statements[6], ast.ReturnStmt)


def test_local_array_declaration():
    module = parse("int f() { int a[4] = {1, 2}; return a[0]; }")
    decl = module.decls[0].body.statements[0]
    assert decl.array_size == 4
    assert decl.array_init == [1, 2]


def test_local_comma_list():
    module = parse("int f() { int a = 1, b, *p; return a; }")
    decls = module.decls[0].body.statements[:3]
    assert [d.name for d in decls] == ["a", "b", "p"]
    assert decls[2].pointer_level == 1


def test_for_with_empty_clauses():
    module = parse("int f() { for (;;) break; return 0; }")
    loop = module.decls[0].body.statements[0]
    assert loop.init is None and loop.cond is None and loop.step is None


def test_missing_semicolon_rejected():
    with pytest.raises(ParseError):
        parse("int f() { return 0 }")


def test_unterminated_block_rejected():
    with pytest.raises(ParseError):
        parse("int f() { return 0;")


def test_garbage_expression_rejected():
    with pytest.raises(ParseError):
        parse("int f() { return +; }")


def test_const_expr_evaluation():
    cases = {
        "1 + 2 * 3": 7,
        "-(4 - 6)": 2,
        "7 / 2": 3,
        "-7 / 2": -3,
        "-7 % 2": -1,
        "1 << 4": 16,
        "~0": -1,
        "!5": 0,
        "3 == 3": 1,
        "2 > 5 || 1": 1,
    }
    for source, expected in cases.items():
        module = parse(f"int g = {source};")
        assert module.decls[0].init == expected, source


def test_const_expr_division_by_zero_rejected():
    with pytest.raises(ParseError):
        parse("int g = 1 / 0;")


def test_const_expr_rejects_names():
    with pytest.raises(ParseError):
        parse("int g = x + 1;")


def test_array_size_constant_expression():
    decl = parse("int a[2 * 8];").decls[0]
    assert decl.array_size == 16


# Pathological nesting: the recursive-descent parser (and the passes
# after it) would overflow Python's stack; the depth bound turns that
# into a located compile error.

@pytest.mark.parametrize("shape,depth", [("parens", 200), ("ifs", 400)])
def test_too_deep_nesting_is_a_located_compile_error(shape, depth):
    with pytest.raises(CompileError) as excinfo:
        compile_program({"deep": deeply_nested_source(shape, depth)})
    error = excinfo.value
    assert isinstance(error, ParseError)
    assert error.message == f"nesting deeper than {MAX_NESTING} levels"
    assert (error.location.module, error.location.line) == ("deep", 3)
    assert error.location.column > 1
    assert str(error).startswith(f"deep:3:{error.location.column}: ")


@pytest.mark.parametrize("shape", ["parens", "ifs"])
def test_nesting_just_inside_the_bound_compiles(shape):
    # The function body, the assignment or statement around the nest
    # and its innermost operand use the remaining levels.
    source = deeply_nested_source(shape, MAX_NESTING - 4)
    stats = run_executable(compile_program({"deep": source}).executable)
    assert stats.exit_code == (1 if shape == "parens" else 2)


def _grouped_chains(groups, links):
    """Chains of ``links`` links, each group the first operand of the
    next: every chain alone is shallow, but the tree nests deep."""
    expr = "1"
    for _ in range(groups):
        expr = "(" + expr + " + 1" * links + ")"
    return f"int f() {{ return {expr}; }}"


def test_chains_count_on_top_of_their_deepest_operand():
    with pytest.raises(ParseError) as excinfo:
        parse(_grouped_chains(12, 30))
    assert excinfo.value.message == (
        f"expression nests deeper than {MAX_TREE_DEPTH} levels"
    )
    assert parse(_grouped_chains(8, 30))
    # The tree bound, not the parser's, stops a long flat chain.
    with pytest.raises(ParseError, match="expression nests deeper"):
        parse_expr(" + ".join(["1"] * (MAX_TREE_DEPTH + 1)))
