//! Abstract syntax tree of the mini-C subset.

/// Binary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/` (division by zero yields 0)
    Div,
    /// `%` (modulo by zero yields 0)
    Mod,
    /// `<`
    Lt,
    /// `>`
    Gt,
    /// `<=`
    Le,
    /// `>=`
    Ge,
    /// `==`
    Eq,
    /// `!=`
    Ne,
    /// `&&` (non-short-circuit; both sides are pure in mini-C)
    And,
    /// `||`
    Or,
}

/// Expressions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expr {
    /// Integer literal.
    Num(i64),
    /// Variable reference (local, parameter, or global scalar).
    Var(String),
    /// Binary operation.
    Bin(BinOp, Box<Expr>, Box<Expr>),
    /// Unary negation `-e`.
    Neg(Box<Expr>),
    /// Logical not `!e`.
    Not(Box<Expr>),
    /// Function call.
    Call(String, Vec<Expr>),
    /// Global array load `name[idx]`.
    Index(String, Box<Expr>),
}

/// Statements.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Stmt {
    /// `int name = expr;`
    Decl(String, Expr),
    /// `name = expr;`
    Assign(String, Expr),
    /// `name[idx] = expr;`
    Store(String, Expr, Expr),
    /// `if (cond) { .. } else { .. }`
    If(Expr, Vec<Stmt>, Vec<Stmt>),
    /// `while (cond) { .. }`
    While(Expr, Vec<Stmt>),
    /// `return expr;`
    Return(Expr),
    /// Bare expression statement (evaluated for side effects of calls).
    Expr(Expr),
}

/// A global definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Global {
    /// Name.
    pub name: String,
    /// Initial value (scalars only).
    pub init: i64,
    /// `Some(len)` for arrays (zero-initialized).
    pub array_len: Option<usize>,
    /// Whether declared `static`.
    pub is_static: bool,
}

/// A function definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Function {
    /// Name.
    pub name: String,
    /// Parameter names.
    pub params: Vec<String>,
    /// Body statements.
    pub body: Vec<Stmt>,
    /// Whether declared `static`.
    pub is_static: bool,
}

/// A top-level item (used by the parser before splitting).
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Item {
    /// A global variable or array.
    Global(Global),
    /// A function definition.
    Function(Function),
    /// An `extern int f(...);` declaration (no-op at link time here).
    ExternDecl(String),
}

/// A parsed translation unit.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Program {
    /// Global variables in declaration order.
    pub globals: Vec<Global>,
    /// Functions in declaration order.
    pub functions: Vec<Function>,
}

impl Program {
    /// Looks up a function by name.
    pub fn function(&self, name: &str) -> Option<&Function> {
        self.functions.iter().find(|f| f.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Statement count of `stmts`, nested blocks included.
    fn stmt_count(stmts: &[Stmt]) -> usize {
        stmts
            .iter()
            .map(|s| match s {
                Stmt::If(_, t, e) => 1 + stmt_count(t) + stmt_count(e),
                Stmt::While(_, b) => 1 + stmt_count(b),
                _ => 1,
            })
            .sum()
    }

    #[test]
    fn stmt_count_is_recursive() {
        let p = Program {
            globals: vec![],
            functions: vec![Function {
                name: "f".into(),
                params: vec![],
                is_static: false,
                body: vec![
                    Stmt::Decl("x".into(), Expr::Num(1)),
                    Stmt::While(
                        Expr::Num(0),
                        vec![Stmt::If(
                            Expr::Num(1),
                            vec![Stmt::Return(Expr::Num(2))],
                            vec![],
                        )],
                    ),
                ],
            }],
        };
        assert_eq!(stmt_count(&p.functions[0].body), 4);
        assert!(p.function("f").is_some());
        assert!(p.function("g").is_none());
    }
}
