//! `OneFile`: merges multi-file mini-C programs into a single compilation
//! unit.
//!
//! The paper ships a tool named OneFile that "can be used to combine
//! multiple-file C source code into a single compilation unit that is
//! suitable for the gcc benchmark", whose challenges it lists as
//! "tracking all files and external declaration, name-mangling the
//! identifiers to avoid collision, and properly handling preprocessing
//! logic". This crate rebuilds the tool for the mini-C subset compiled by
//! `alberta-benchmarks::minigcc`:
//!
//! 1. each input file is parsed with the real minigcc front end;
//! 2. file-local (`static`) globals and functions are mangled to
//!    `name__u<k>` and every reference inside their file is rewritten;
//! 3. duplicate *external* definitions are reported as link errors;
//! 4. the merged AST is emitted back to source with [`emit`], ready for
//!    the gcc benchmark.
//!
//! # Examples
//!
//! ```
//! use alberta_onefile::merge;
//! use alberta_workloads::csrc::CFile;
//!
//! # fn main() -> Result<(), alberta_onefile::MergeError> {
//! let files = vec![
//!     CFile { name: "a.c".into(), source: "static int k = 1;\nint fa() { return k; }\n".into() },
//!     CFile { name: "b.c".into(), source: "static int k = 2;\nint fb() { return k; }\n".into() },
//!     CFile { name: "main.c".into(), source: "extern int fa();\nextern int fb();\nint main() { return fa() * 10 + fb(); }\n".into() },
//! ];
//! let merged = merge(&files)?;
//! assert!(merged.source.contains("k__u0"));
//! assert!(merged.source.contains("k__u1"));
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]
#![warn(unnameable_types)]

mod emitter;

pub use emitter::emit;

use alberta_benchmarks::minigcc::{lex, parse, Expr, Program, Stmt};
use alberta_workloads::csrc::CFile;
use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;

/// Error from a merge attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MergeError {
    /// A file failed to lex or parse.
    Parse {
        /// Offending file name.
        file: String,
        /// Front-end message.
        message: String,
    },
    /// Two files define the same external (non-static) symbol.
    DuplicateExternal {
        /// The colliding symbol.
        symbol: String,
        /// First defining file.
        first: String,
        /// Second defining file.
        second: String,
    },
    /// No input files were given.
    Empty,
}

impl fmt::Display for MergeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MergeError::Parse { file, message } => write!(f, "cannot parse {file}: {message}"),
            MergeError::DuplicateExternal {
                symbol,
                first,
                second,
            } => write!(
                f,
                "external symbol {symbol} defined in both {first} and {second}"
            ),
            MergeError::Empty => write!(f, "no input files"),
        }
    }
}

impl Error for MergeError {}

/// Output of a successful merge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Merged {
    /// The merged AST.
    pub program: Program,
    /// The emitted single-file source.
    pub source: String,
    /// How many identifiers were mangled.
    pub mangled: usize,
}

/// Merges `files` into a single compilation unit.
///
/// # Errors
///
/// Returns [`MergeError::Parse`] when a file is rejected by the front
/// end, [`MergeError::DuplicateExternal`] when external definitions
/// collide, and [`MergeError::Empty`] for an empty input.
pub fn merge(files: &[CFile]) -> Result<Merged, MergeError> {
    if files.is_empty() {
        return Err(MergeError::Empty);
    }
    let mut out = Program::default();
    let mut external_defs: Vec<(String, String)> = Vec::new(); // (symbol, file)
    let mut mangled = 0usize;
    for (k, file) in files.iter().enumerate() {
        let tokens = lex(&file.source).map_err(|message| MergeError::Parse {
            file: file.name.clone(),
            message,
        })?;
        let mut program = parse(&tokens).map_err(|message| MergeError::Parse {
            file: file.name.clone(),
            message,
        })?;

        // Collect this file's static (file-local) symbol names.
        let statics: BTreeSet<String> = program
            .globals
            .iter()
            .filter(|g| g.is_static)
            .map(|g| g.name.clone())
            .chain(
                program
                    .functions
                    .iter()
                    .filter(|f| f.is_static)
                    .map(|f| f.name.clone()),
            )
            .collect();

        // Mangle statics and rewrite references within the file.
        let suffix = format!("__u{k}");
        for g in &mut program.globals {
            if g.is_static {
                g.name.push_str(&suffix);
                g.is_static = false;
                mangled += 1;
            }
        }
        for f in &mut program.functions {
            if f.is_static {
                f.name.push_str(&suffix);
                f.is_static = false;
                mangled += 1;
            }
            rewrite_block(&mut f.body, &statics, &suffix);
        }

        // External definitions must be unique across files (mangled
        // statics carry the per-file suffix and can no longer collide).
        for g in &program.globals {
            if !g.name.ends_with(&suffix) {
                check_unique(&mut external_defs, &g.name, &file.name)?;
            }
        }
        for f in &program.functions {
            if !f.name.ends_with(&suffix) {
                check_unique(&mut external_defs, &f.name, &file.name)?;
            }
        }

        out.globals.append(&mut program.globals);
        out.functions.append(&mut program.functions);
    }
    let source = emit(&out);
    Ok(Merged {
        program: out,
        source,
        mangled,
    })
}

fn check_unique(
    defs: &mut Vec<(String, String)>,
    symbol: &str,
    file: &str,
) -> Result<(), MergeError> {
    if let Some((_, first)) = defs.iter().find(|(s, _)| s == symbol) {
        return Err(MergeError::DuplicateExternal {
            symbol: symbol.to_owned(),
            first: first.clone(),
            second: file.to_owned(),
        });
    }
    defs.push((symbol.to_owned(), file.to_owned()));
    Ok(())
}

fn rewrite_block(stmts: &mut [Stmt], statics: &BTreeSet<String>, suffix: &str) {
    for s in stmts {
        match s {
            Stmt::Decl(_, e) | Stmt::Return(e) | Stmt::Expr(e) => rewrite_expr(e, statics, suffix),
            Stmt::Assign(name, e) => {
                if statics.contains(name) {
                    name.push_str(suffix);
                }
                rewrite_expr(e, statics, suffix);
            }
            Stmt::Store(name, i, v) => {
                if statics.contains(name) {
                    name.push_str(suffix);
                }
                rewrite_expr(i, statics, suffix);
                rewrite_expr(v, statics, suffix);
            }
            Stmt::If(c, t, e) => {
                rewrite_expr(c, statics, suffix);
                rewrite_block(t, statics, suffix);
                rewrite_block(e, statics, suffix);
            }
            Stmt::While(c, b) => {
                rewrite_expr(c, statics, suffix);
                rewrite_block(b, statics, suffix);
            }
        }
    }
}

fn rewrite_expr(e: &mut Expr, statics: &BTreeSet<String>, suffix: &str) {
    match e {
        Expr::Var(name) | Expr::Index(name, _) => {
            if statics.contains(name.as_str()) {
                name.push_str(suffix);
            }
            if let Expr::Index(_, idx) = e {
                rewrite_expr(idx, statics, suffix);
            }
        }
        Expr::Bin(_, l, r) => {
            rewrite_expr(l, statics, suffix);
            rewrite_expr(r, statics, suffix);
        }
        Expr::Neg(i) | Expr::Not(i) => rewrite_expr(i, statics, suffix),
        Expr::Call(name, args) => {
            if statics.contains(name.as_str()) {
                name.push_str(suffix);
            }
            for a in args {
                rewrite_expr(a, statics, suffix);
            }
        }
        Expr::Num(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_benchmarks::minigcc::{MiniGcc, OptOptions};
    use alberta_profile::Profiler;
    use alberta_workloads::csrc::MultiFileGen;

    /// Cheap smoke check that `source` looks like mini-C: a `main` and
    /// balanced braces.
    fn looks_like_minic(source: &str) -> bool {
        source.contains("int main()") && source.matches('{').count() == source.matches('}').count()
    }

    fn run_source(src: &str) -> i64 {
        let mut p = Profiler::default();
        let (r, _) = MiniGcc::compile_and_run(src, &OptOptions::default(), &mut p).unwrap();
        let _ = p.finish();
        r
    }

    #[test]
    fn merged_collisions_match_unique_name_reference() {
        // With the same seed, the generator produces semantically
        // identical programs whether or not statics collide; merging the
        // colliding variant must therefore give the same result as simply
        // concatenating the unique-name variant.
        for seed in 0..6 {
            let colliding = MultiFileGen {
                colliding_statics: true,
                ..MultiFileGen::standard()
            }
            .generate(seed);
            let unique = MultiFileGen {
                colliding_statics: false,
                ..MultiFileGen::standard()
            }
            .generate(seed);
            let merged = merge(&colliding.files).unwrap();
            let reference: String = unique
                .files
                .iter()
                .map(|f| f.source.as_str())
                .collect::<Vec<_>>()
                .join("\n");
            assert_eq!(
                run_source(&merged.source),
                run_source(&reference),
                "seed {seed}"
            );
            assert!(merged.mangled > 0);
        }
    }

    #[test]
    fn merged_source_reparses() {
        let prog = MultiFileGen::standard().generate(9);
        let merged = merge(&prog.files).unwrap();
        assert!(looks_like_minic(&merged.source));
        let reparsed = parse(&lex(&merged.source).unwrap()).unwrap();
        assert_eq!(reparsed.functions.len(), merged.program.functions.len());
    }

    #[test]
    fn static_scoping_is_preserved() {
        // Two files with static counters: each unit must keep its own.
        let files = vec![
            CFile {
                name: "a.c".into(),
                source: "static int c = 10;\nint bump_a() { c = c + 1; return c; }\n".into(),
            },
            CFile {
                name: "b.c".into(),
                source: "static int c = 100;\nint bump_b() { c = c + 1; return c; }\n".into(),
            },
            CFile {
                name: "main.c".into(),
                source: "extern int bump_a();\nextern int bump_b();\n\
                         int main() { bump_a(); bump_b(); return bump_a() * 1000 + bump_b(); }\n"
                    .into(),
            },
        ];
        let merged = merge(&files).unwrap();
        assert_eq!(run_source(&merged.source), 12 * 1000 + 102);
    }

    #[test]
    fn duplicate_externals_are_link_errors() {
        let files = vec![
            CFile {
                name: "a.c".into(),
                source: "int f() { return 1; }\n".into(),
            },
            CFile {
                name: "b.c".into(),
                source: "int f() { return 2; }\n".into(),
            },
        ];
        let err = merge(&files).unwrap_err();
        match err {
            MergeError::DuplicateExternal {
                symbol,
                first,
                second,
            } => {
                assert_eq!(symbol, "f");
                assert_eq!(first, "a.c");
                assert_eq!(second, "b.c");
            }
            other => panic!("wrong error {other:?}"),
        }
    }

    #[test]
    fn parse_errors_name_the_file() {
        let files = vec![CFile {
            name: "broken.c".into(),
            source: "int main( { return 0; }".into(),
        }];
        let err = merge(&files).unwrap_err();
        assert!(err.to_string().contains("broken.c"));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(merge(&[]), Err(MergeError::Empty));
    }

    #[test]
    fn static_arrays_are_mangled_too() {
        let files = vec![
            CFile {
                name: "a.c".into(),
                source: "static int buf[4];\nint put(int v) { buf[0] = v; return buf[0]; }\n"
                    .into(),
            },
            CFile {
                name: "main.c".into(),
                source: "extern int put(int v);\nint main() { return put(7); }\n".into(),
            },
        ];
        let merged = merge(&files).unwrap();
        assert!(merged.source.contains("buf__u0"), "{}", merged.source);
        assert_eq!(run_source(&merged.source), 7);
    }
}
