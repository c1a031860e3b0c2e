//! AST-level optimizer: constant folding, dead-code elimination, and
//! (profile-guidable) call inlining.

use super::ast::{BinOp, Expr, Function, Program, Stmt};
use super::compile::OptOptions;
use alberta_profile::Profiler;

/// Evaluates a binary operation with mini-C semantics (division and
/// modulo by zero yield 0; `&&`/`||` are integer ops over already
/// evaluated operands). Shared with the VM so folding is always sound.
pub(crate) fn eval_bin(op: BinOp, l: i64, r: i64) -> i64 {
    match op {
        BinOp::Add => l.wrapping_add(r),
        BinOp::Sub => l.wrapping_sub(r),
        BinOp::Mul => l.wrapping_mul(r),
        BinOp::Div => {
            if r == 0 {
                0
            } else {
                l.wrapping_div(r)
            }
        }
        BinOp::Mod => {
            if r == 0 {
                0
            } else {
                l.wrapping_rem(r)
            }
        }
        BinOp::Lt => (l < r) as i64,
        BinOp::Gt => (l > r) as i64,
        BinOp::Le => (l <= r) as i64,
        BinOp::Ge => (l >= r) as i64,
        BinOp::Eq => (l == r) as i64,
        BinOp::Ne => (l != r) as i64,
        BinOp::And => (l != 0 && r != 0) as i64,
        BinOp::Or => (l != 0 || r != 0) as i64,
    }
}

/// Runs the configured passes over a program. The profiler accounts the
/// optimizer's own work (it is part of the gcc benchmark's execution).
pub fn optimize(mut program: Program, options: &OptOptions, profiler: &mut Profiler) -> Program {
    if options.inline_calls || !options.force_inline.is_empty() {
        program = inline_pass(program, options, profiler);
    }
    if options.fold_constants {
        for f in &mut program.functions {
            for s in &mut f.body {
                fold_stmt(s, profiler);
            }
        }
    }
    if options.dead_code_elimination {
        for f in &mut program.functions {
            dce_block(&mut f.body, profiler);
        }
    }
    if let Some(order) = &options.function_order {
        // Profile-guided layout: reorder function emission by hotness.
        // Unlisted functions keep their relative order at the end.
        let mut reordered = Vec::with_capacity(program.functions.len());
        for name in order {
            if let Some(pos) = program.functions.iter().position(|f| &f.name == name) {
                reordered.push(program.functions.remove(pos));
            }
        }
        reordered.append(&mut program.functions);
        program.functions = reordered;
    }
    program
}

fn fold_expr(e: &mut Expr, profiler: &mut Profiler) {
    profiler.retire(1);
    match e {
        Expr::Bin(op, l, r) => {
            fold_expr(l, profiler);
            fold_expr(r, profiler);
            if let (Expr::Num(a), Expr::Num(b)) = (&**l, &**r) {
                *e = Expr::Num(eval_bin(*op, *a, *b));
                profiler.retire(2);
            }
        }
        Expr::Neg(inner) => {
            fold_expr(inner, profiler);
            if let Expr::Num(n) = &**inner {
                *e = Expr::Num(n.wrapping_neg());
            }
        }
        Expr::Not(inner) => {
            fold_expr(inner, profiler);
            if let Expr::Num(n) = &**inner {
                *e = Expr::Num((*n == 0) as i64);
            }
        }
        Expr::Call(_, args) => {
            for a in args {
                fold_expr(a, profiler);
            }
        }
        Expr::Index(_, idx) => fold_expr(idx, profiler),
        Expr::Num(_) | Expr::Var(_) => {}
    }
}

fn fold_stmt(s: &mut Stmt, profiler: &mut Profiler) {
    match s {
        Stmt::Decl(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => {
            fold_expr(e, profiler)
        }
        Stmt::Store(_, i, v) => {
            fold_expr(i, profiler);
            fold_expr(v, profiler);
        }
        Stmt::If(c, t, e) => {
            fold_expr(c, profiler);
            for x in t.iter_mut().chain(e.iter_mut()) {
                fold_stmt(x, profiler);
            }
        }
        Stmt::While(c, b) => {
            fold_expr(c, profiler);
            for x in b {
                fold_stmt(x, profiler);
            }
        }
    }
}

fn dce_block(block: &mut Vec<Stmt>, profiler: &mut Profiler) {
    let mut out = Vec::with_capacity(block.len());
    for mut s in block.drain(..) {
        profiler.retire(1);
        match &mut s {
            Stmt::If(Expr::Num(n), t, e) => {
                let branch = if *n != 0 { t } else { e };
                let mut taken = std::mem::take(branch);
                dce_block(&mut taken, profiler);
                out.extend(taken);
                continue;
            }
            Stmt::If(_, t, e) => {
                dce_block(t, profiler);
                dce_block(e, profiler);
            }
            Stmt::While(Expr::Num(0), _) => continue,
            Stmt::While(_, b) => dce_block(b, profiler),
            // A pure expression statement (no calls) has no effect.
            Stmt::Expr(e) if !has_call(e) => continue,
            _ => {}
        }
        out.push(s);
    }
    // Drop everything after an unconditional return, including returns
    // exposed by constant-branch flattening above.
    if let Some(pos) = out.iter().position(|s| matches!(s, Stmt::Return(_))) {
        out.truncate(pos + 1);
    }
    *block = out;
}

fn has_call(e: &Expr) -> bool {
    match e {
        Expr::Call(_, _) => true,
        Expr::Bin(_, l, r) => has_call(l) || has_call(r),
        Expr::Neg(i) | Expr::Not(i) => has_call(i),
        Expr::Index(_, i) => has_call(i),
        Expr::Num(_) | Expr::Var(_) => false,
    }
}

/// A function is inlinable when its only `return` is the final statement
/// of its body and it does not call itself.
fn inlinable(f: &Function, budget: usize) -> bool {
    fn returns_in(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::Return(_) => 1,
                Stmt::If(_, t, e) => returns_in(t) + returns_in(e),
                Stmt::While(_, b) => returns_in(b),
                _ => 0,
            })
            .sum()
    }
    fn calls_self(stmts: &[Stmt], name: &str) -> bool {
        fn in_expr(e: &Expr, name: &str) -> bool {
            match e {
                Expr::Call(n, args) => n == name || args.iter().any(|a| in_expr(a, name)),
                Expr::Bin(_, l, r) => in_expr(l, name) || in_expr(r, name),
                Expr::Neg(i) | Expr::Not(i) => in_expr(i, name),
                Expr::Index(_, i) => in_expr(i, name),
                _ => false,
            }
        }
        stmts.iter().any(|s| match s {
            Stmt::Decl(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => {
                in_expr(e, name)
            }
            Stmt::Store(_, i, v) => in_expr(i, name) || in_expr(v, name),
            Stmt::If(c, t, e) => in_expr(c, name) || calls_self(t, name) || calls_self(e, name),
            Stmt::While(c, b) => in_expr(c, name) || calls_self(b, name),
        })
    }
    let size: usize = f.body.len();
    matches!(f.body.last(), Some(Stmt::Return(_)))
        && returns_in(&f.body) == 1
        && size <= budget
        && !calls_self(&f.body, &f.name)
}

struct Inliner {
    program_functions: Vec<Function>,
    budget: usize,
    force: Vec<String>,
    heuristic: bool,
    counter: usize,
}

impl Inliner {
    fn should_inline(&self, callee: &str) -> bool {
        let Some(f) = self.program_functions.iter().find(|f| f.name == callee) else {
            return false;
        };
        if self.force.iter().any(|n| n == callee) {
            return inlinable(f, usize::MAX);
        }
        self.heuristic && inlinable(f, self.budget)
    }

    fn fresh(&mut self, base: &str) -> String {
        self.counter += 1;
        format!("__inl{}_{base}", self.counter)
    }

    /// Rewrites an expression, hoisting inlinable calls into `pre`.
    fn rewrite_expr(&mut self, e: &mut Expr, pre: &mut Vec<Stmt>, profiler: &mut Profiler) {
        profiler.retire(1);
        match e {
            Expr::Bin(_, l, r) => {
                self.rewrite_expr(l, pre, profiler);
                self.rewrite_expr(r, pre, profiler);
            }
            Expr::Neg(i) | Expr::Not(i) => self.rewrite_expr(i, pre, profiler),
            Expr::Index(_, i) => self.rewrite_expr(i, pre, profiler),
            Expr::Call(name, args) => {
                for a in args.iter_mut() {
                    self.rewrite_expr(a, pre, profiler);
                }
                if self.should_inline(name) {
                    let callee = self
                        .program_functions
                        .iter()
                        .find(|f| f.name == *name)
                        .expect("checked by should_inline")
                        .clone();
                    let result = self.splice(&callee, std::mem::take(args), pre, profiler);
                    *e = Expr::Var(result);
                }
            }
            Expr::Num(_) | Expr::Var(_) => {}
        }
    }

    /// Splices a callee body into `pre`; returns the result temp name.
    fn splice(
        &mut self,
        callee: &Function,
        args: Vec<Expr>,
        pre: &mut Vec<Stmt>,
        profiler: &mut Profiler,
    ) -> String {
        // Bind parameters to temps (evaluated once, in order).
        let mut rename: Vec<(String, String)> = Vec::new();
        for (param, arg) in callee.params.iter().zip(args) {
            let t = self.fresh(param);
            pre.push(Stmt::Decl(t.clone(), arg));
            rename.push((param.clone(), t));
        }
        // Rename the callee's locals.
        let mut body = callee.body.clone();
        let locals = collect_decls(&body);
        for l in locals {
            let t = self.fresh(&l);
            rename.push((l, t));
        }
        rename_block(&mut body, &rename);
        // The final statement is the unique return.
        let Some(Stmt::Return(ret)) = body.pop() else {
            unreachable!("inlinable guarantees a trailing return");
        };
        profiler.retire(body.len() as u64 + 2);
        pre.extend(body);
        let result = self.fresh("ret");
        pre.push(Stmt::Decl(result.clone(), ret));
        result
    }

    fn rewrite_block(&mut self, block: &mut Vec<Stmt>, profiler: &mut Profiler) {
        let mut out = Vec::with_capacity(block.len());
        for mut s in block.drain(..) {
            let mut pre = Vec::new();
            match &mut s {
                Stmt::Decl(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => {
                    self.rewrite_expr(e, &mut pre, profiler)
                }
                Stmt::Store(_, i, v) => {
                    self.rewrite_expr(i, &mut pre, profiler);
                    self.rewrite_expr(v, &mut pre, profiler);
                }
                Stmt::If(c, t, els) => {
                    self.rewrite_expr(c, &mut pre, profiler);
                    self.rewrite_block(t, profiler);
                    self.rewrite_block(els, profiler);
                }
                // While conditions re-evaluate per iteration: hoisting a
                // call out of one would change semantics, so loop
                // conditions are never rewritten.
                Stmt::While(_, b) => {
                    self.rewrite_block(b, profiler);
                }
            }
            out.extend(pre);
            out.push(s);
        }
        *block = out;
    }
}

fn collect_decls(stmts: &[Stmt]) -> Vec<String> {
    let mut out = Vec::new();
    for s in stmts {
        match s {
            Stmt::Decl(n, _) => out.push(n.clone()),
            Stmt::If(_, t, e) => {
                out.extend(collect_decls(t));
                out.extend(collect_decls(e));
            }
            Stmt::While(_, b) => out.extend(collect_decls(b)),
            _ => {}
        }
    }
    out
}

fn rename_block(stmts: &mut [Stmt], rename: &[(String, String)]) {
    let map = |n: &mut String| {
        if let Some((_, t)) = rename.iter().find(|(from, _)| from == n) {
            *n = t.clone();
        }
    };
    fn rename_expr(e: &mut Expr, rename: &[(String, String)]) {
        match e {
            Expr::Var(n) => {
                if let Some((_, t)) = rename.iter().find(|(from, _)| from == n) {
                    *n = t.clone();
                }
            }
            Expr::Bin(_, l, r) => {
                rename_expr(l, rename);
                rename_expr(r, rename);
            }
            Expr::Neg(i) | Expr::Not(i) => rename_expr(i, rename),
            Expr::Index(_, i) => rename_expr(i, rename),
            Expr::Call(_, args) => {
                for a in args {
                    rename_expr(a, rename);
                }
            }
            Expr::Num(_) => {}
        }
    }
    for s in stmts {
        match s {
            Stmt::Decl(n, e) | Stmt::Assign(n, e) => {
                map(n);
                rename_expr(e, rename);
            }
            Stmt::Store(_, i, v) => {
                rename_expr(i, rename);
                rename_expr(v, rename);
            }
            Stmt::Return(e) | Stmt::Expr(e) => rename_expr(e, rename),
            Stmt::If(c, t, els) => {
                rename_expr(c, rename);
                rename_block(t, rename);
                rename_block(els, rename);
            }
            Stmt::While(c, b) => {
                rename_expr(c, rename);
                rename_block(b, rename);
            }
        }
    }
}

fn inline_pass(mut program: Program, options: &OptOptions, profiler: &mut Profiler) -> Program {
    let snapshot = program.functions.clone();
    let mut inliner = Inliner {
        program_functions: snapshot,
        budget: options.inline_budget,
        force: options.force_inline.clone(),
        heuristic: options.inline_calls,
        counter: 0,
    };
    for f in &mut program.functions {
        inliner.rewrite_block(&mut f.body, profiler);
    }
    program
}

#[cfg(test)]
mod tests {
    use super::super::lexer::lex;
    use super::super::parser::parse;
    use super::*;

    fn opt(src: &str, options: &OptOptions) -> Program {
        let mut p = Profiler::default();
        let program = parse(&lex(src).unwrap()).unwrap();
        let out = optimize(program, options, &mut p);
        let _ = p.finish();
        out
    }

    #[test]
    fn folds_constant_expressions() {
        let program = opt(
            "int main() { return 2 + 3 * 4; }",
            &OptOptions {
                fold_constants: true,
                ..OptOptions::none()
            },
        );
        assert_eq!(program.functions[0].body, vec![Stmt::Return(Expr::Num(14))]);
    }

    #[test]
    fn folding_respects_div_zero_semantics() {
        let program = opt(
            "int main() { return 7 / 0 + 7 % 0; }",
            &OptOptions {
                fold_constants: true,
                ..OptOptions::none()
            },
        );
        assert_eq!(program.functions[0].body, vec![Stmt::Return(Expr::Num(0))]);
    }

    #[test]
    fn dce_removes_constant_branches_and_dead_tails() {
        let program = opt(
            "int main() { if (1) { return 5; } else { return 6; } return 7; }",
            &OptOptions {
                fold_constants: true,
                dead_code_elimination: true,
                ..OptOptions::none()
            },
        );
        assert_eq!(program.functions[0].body, vec![Stmt::Return(Expr::Num(5))]);
    }

    #[test]
    fn dce_drops_while_zero_and_pure_statements() {
        let program = opt(
            "int main() { int x = 1; while (0) { x = 2; } x + 3; return x; }",
            &OptOptions {
                fold_constants: true,
                dead_code_elimination: true,
                ..OptOptions::none()
            },
        );
        assert_eq!(
            program.functions[0].body.len(),
            2,
            "{:?}",
            program.functions[0].body
        );
    }

    #[test]
    fn inlines_trailing_return_functions() {
        let program = opt(
            "int add(int a, int b) { return a + b; }\nint main() { return add(2, 3); }",
            &OptOptions {
                inline_calls: true,
                inline_budget: 8,
                ..OptOptions::none()
            },
        );
        let main = program.function("main").unwrap();
        // The call is gone from main's body.
        fn any_call(stmts: &[Stmt]) -> bool {
            fn in_expr(e: &Expr) -> bool {
                match e {
                    Expr::Call(_, _) => true,
                    Expr::Bin(_, l, r) => in_expr(l) || in_expr(r),
                    Expr::Neg(i) | Expr::Not(i) => in_expr(i),
                    Expr::Index(_, i) => in_expr(i),
                    _ => false,
                }
            }
            stmts.iter().any(|s| match s {
                Stmt::Decl(_, e) | Stmt::Assign(_, e) | Stmt::Return(e) | Stmt::Expr(e) => {
                    in_expr(e)
                }
                Stmt::Store(_, i, v) => in_expr(i) || in_expr(v),
                Stmt::If(c, t, e2) => in_expr(c) || any_call(t) || any_call(e2),
                Stmt::While(c, b) => in_expr(c) || any_call(b),
            })
        }
        assert!(!any_call(&main.body), "{:?}", main.body);
    }

    #[test]
    fn recursive_functions_are_never_inlined() {
        let program = opt(
            "int fib(int n) { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }\n\
             int main() { return fib(5); }",
            &OptOptions {
                inline_calls: true,
                inline_budget: 100,
                ..OptOptions::none()
            },
        );
        // fib has two returns and self-calls; main must keep its call.
        let main = program.function("main").unwrap();
        let Stmt::Return(e) = &main.body[0] else {
            panic!()
        };
        assert!(matches!(e, Expr::Call(_, _)));
    }

    #[test]
    fn function_order_reorders_emission() {
        let program = opt(
            "int a() { return 1; }\nint b() { return 2; }\nint main() { return a() + b(); }",
            &OptOptions {
                function_order: Some(vec!["main".into(), "b".into()]),
                ..OptOptions::none()
            },
        );
        let names: Vec<&str> = program.functions.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["main", "b", "a"]);
    }

    #[test]
    fn eval_bin_covers_all_ops() {
        assert_eq!(eval_bin(BinOp::And, 2, 3), 1);
        assert_eq!(eval_bin(BinOp::And, 0, 3), 0);
        assert_eq!(eval_bin(BinOp::Or, 0, 0), 0);
        assert_eq!(eval_bin(BinOp::Ge, 3, 3), 1);
        assert_eq!(eval_bin(BinOp::Sub, i64::MIN, 1), i64::MAX, "wrapping");
    }
}
