//! Mini-C source emitter: turns an AST back into compilable text.

use alberta_benchmarks::minigcc::{BinOp, Expr, Program, Stmt};
use std::fmt::Write;

/// Emits a program as mini-C source accepted by the minigcc front end.
pub fn emit(program: &Program) -> String {
    let mut out = String::new();
    for g in &program.globals {
        let kw = if g.is_static { "static " } else { "" };
        match g.array_len {
            Some(len) => {
                let _ = writeln!(out, "{kw}int {}[{len}];", g.name);
            }
            None => {
                let _ = writeln!(out, "{kw}int {} = {};", g.name, g.init);
            }
        }
    }
    for f in &program.functions {
        let kw = if f.is_static { "static " } else { "" };
        let params = f
            .params
            .iter()
            .map(|p| format!("int {p}"))
            .collect::<Vec<_>>()
            .join(", ");
        let _ = writeln!(out, "{kw}int {}({params}) {{", f.name);
        for s in &f.body {
            emit_stmt(&mut out, s, 1);
        }
        out.push_str("}\n");
    }
    out
}

fn emit_stmt(out: &mut String, s: &Stmt, depth: usize) {
    let pad = "  ".repeat(depth);
    match s {
        Stmt::Decl(name, e) => {
            let _ = writeln!(out, "{pad}int {name} = {};", emit_expr(e));
        }
        Stmt::Assign(name, e) => {
            let _ = writeln!(out, "{pad}{name} = {};", emit_expr(e));
        }
        Stmt::Store(name, i, v) => {
            let _ = writeln!(out, "{pad}{name}[{}] = {};", emit_expr(i), emit_expr(v));
        }
        Stmt::If(c, t, e) => {
            let _ = writeln!(out, "{pad}if ({}) {{", emit_expr(c));
            for x in t {
                emit_stmt(out, x, depth + 1);
            }
            if e.is_empty() {
                let _ = writeln!(out, "{pad}}}");
            } else {
                let _ = writeln!(out, "{pad}}} else {{");
                for x in e {
                    emit_stmt(out, x, depth + 1);
                }
                let _ = writeln!(out, "{pad}}}");
            }
        }
        Stmt::While(c, b) => {
            let _ = writeln!(out, "{pad}while ({}) {{", emit_expr(c));
            for x in b {
                emit_stmt(out, x, depth + 1);
            }
            let _ = writeln!(out, "{pad}}}");
        }
        Stmt::Return(e) => {
            let _ = writeln!(out, "{pad}return {};", emit_expr(e));
        }
        Stmt::Expr(e) => {
            let _ = writeln!(out, "{pad}{};", emit_expr(e));
        }
    }
}

fn op_str(op: BinOp) -> &'static str {
    match op {
        BinOp::Add => "+",
        BinOp::Sub => "-",
        BinOp::Mul => "*",
        BinOp::Div => "/",
        BinOp::Mod => "%",
        BinOp::Lt => "<",
        BinOp::Gt => ">",
        BinOp::Le => "<=",
        BinOp::Ge => ">=",
        BinOp::Eq => "==",
        BinOp::Ne => "!=",
        BinOp::And => "&&",
        BinOp::Or => "||",
    }
}

/// Emits an expression (fully parenthesized, so precedence never shifts).
pub(crate) fn emit_expr(e: &Expr) -> String {
    match e {
        Expr::Num(n) => {
            if *n < 0 {
                format!("({n})")
            } else {
                n.to_string()
            }
        }
        Expr::Var(name) => name.clone(),
        Expr::Bin(op, l, r) => format!("({} {} {})", emit_expr(l), op_str(*op), emit_expr(r)),
        Expr::Neg(i) => format!("(-{})", emit_expr(i)),
        Expr::Not(i) => format!("(!{})", emit_expr(i)),
        Expr::Call(name, args) => {
            let args = args.iter().map(emit_expr).collect::<Vec<_>>().join(", ");
            format!("{name}({args})")
        }
        Expr::Index(name, idx) => format!("{name}[{}]", emit_expr(idx)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_benchmarks::minigcc::{lex, parse};

    /// Parse → emit → parse must be a fixpoint (ASTs equal).
    #[test]
    fn round_trip_is_a_fixpoint() {
        let src = "\
int g = -4;\nint buf[8];\nstatic int f(int a, int b) {\n  int x = (a + b) * 2;\n\
  if (x > 3) {\n    x = x - 1;\n  } else {\n    buf[x % 8] = f(x, 0);\n  }\n\
  while (x < 10) {\n    x = x + g;\n  }\n  return -x + !b;\n}\n\
int main() {\n  f(1, 2);\n  return f(3, 4);\n}\n";
        let first = parse(&lex(src).unwrap()).unwrap();
        let emitted = emit(&first);
        let second = parse(&lex(&emitted).unwrap()).unwrap();
        assert_eq!(first, second, "emitted source:\n{emitted}");
    }

    #[test]
    fn negative_literals_are_parenthesized() {
        // `x - -3` without parens would lex as `x - - 3`, which parses;
        // but `(-3)` is unambiguous everywhere including `a * -3`.
        let e = Expr::Bin(
            BinOp::Mul,
            Box::new(Expr::Var("a".into())),
            Box::new(Expr::Num(-3)),
        );
        assert_eq!(emit_expr(&e), "(a * (-3))");
    }

    #[test]
    fn generated_programs_round_trip() {
        use alberta_workloads::csrc::CSourceGen;
        use alberta_workloads::Scale;
        let gen = CSourceGen::standard(Scale::Test);
        for seed in 0..4 {
            let src = gen.generate(seed).source;
            let ast = parse(&lex(&src).unwrap()).unwrap();
            let emitted = emit(&ast);
            let reparsed = parse(&lex(&emitted).unwrap()).unwrap();
            assert_eq!(ast, reparsed, "seed {seed}");
        }
    }
}
