//! `502.gcc_r` stand-in: a compiler for the mini-C subset, plus the
//! virtual machine that executes its bytecode.
//!
//! The pipeline mirrors a classic ahead-of-time compiler:
//!
//! ```text
//! source ── lexer ──> tokens ── parser ──> AST ── optimizer ──> AST
//!        ── codegen ──> bytecode module ── vm ──> result + edge profile
//! ```
//!
//! The benchmark run is the *compilation* (like SPEC's gcc, which
//! compiles its input file) followed by one execution of the produced
//! program to validate code generation. The compiler is also the
//! foundation of the `alberta-fdo` crate: the VM collects per-branch and
//! per-call edge profiles, and the code generator accepts profile-guided
//! options (hot-function layout and call inlining).

mod ast;
mod compile;
mod lexer;
mod opt;
mod parser;
pub mod vm;

pub use ast::{BinOp, Expr, Function, Global, Program, Stmt};
pub use compile::{compile, FuncCode, Module, Op, OptOptions};
pub use lexer::{lex, Token};
pub use opt::optimize;
pub use parser::parse;
use vm::run;
pub use vm::{run_with_inputs, EdgeProfile};

use crate::{find_workload, fnv1a, standard_set, BenchError, Benchmark, RunOutput};
use alberta_profile::Profiler;
use alberta_workloads::csrc::{self, CSource};
use alberta_workloads::{Named, Scale};

/// The gcc mini-benchmark.
#[derive(Debug)]
pub struct MiniGcc {
    workloads: Vec<Named<CSource>>,
}

impl MiniGcc {
    /// Builds the benchmark with its standard workload set.
    pub(crate) fn new(scale: Scale) -> Self {
        MiniGcc {
            workloads: standard_set(scale, csrc::train, csrc::refrate, csrc::alberta_set),
        }
    }

    /// Compiles and runs a source string end to end (the library entry
    /// point shared with examples and the FDO laboratory).
    ///
    /// # Errors
    ///
    /// Returns [`BenchError::InvalidInput`] on any front-end, codegen, or
    /// runtime failure.
    pub fn compile_and_run(
        source: &str,
        options: &OptOptions,
        profiler: &mut Profiler,
    ) -> Result<(i64, EdgeProfile), BenchError> {
        let invalid = |reason: String| BenchError::InvalidInput {
            benchmark: "502.gcc_r",
            reason,
        };
        let front = profiler.register_function("gcc::frontend", 4200);
        profiler.enter(front);
        let front_result = lex(source).and_then(|tokens| {
            profiler.retire(tokens.len() as u64 * 3);
            parse(&tokens)
        });
        profiler.exit();
        let program = front_result.map_err(invalid)?;

        let opt_fn = profiler.register_function("gcc::optimize", 2600);
        profiler.enter(opt_fn);
        let program = optimize(program, options, profiler);
        profiler.exit();

        let codegen = profiler.register_function("gcc::codegen", 3000);
        profiler.enter(codegen);
        let module = compile(&program, options, profiler).map_err(invalid)?;
        profiler.exit();

        let (result, edges) = run(&module, profiler).map_err(|e| invalid(e.to_string()))?;
        Ok((result, edges))
    }
}

impl Benchmark for MiniGcc {
    fn name(&self) -> &'static str {
        "502.gcc_r"
    }

    fn short_name(&self) -> &'static str {
        "gcc"
    }

    fn workload_names(&self) -> Vec<String> {
        self.workloads.iter().map(|n| n.name.clone()).collect()
    }

    fn run(&self, workload: &str, profiler: &mut Profiler) -> Result<RunOutput, BenchError> {
        let w = find_workload(&self.workloads, self.name(), workload)?;
        let (result, edges) =
            MiniGcc::compile_and_run(&w.source, &OptOptions::default(), profiler)?;
        Ok(RunOutput {
            checksum: fnv1a([result as u64, edges.total_branches()]),
            work: edges.executed_ops(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eval(source: &str) -> i64 {
        let mut p = Profiler::default();
        let (r, _) = MiniGcc::compile_and_run(source, &OptOptions::default(), &mut p).unwrap();
        let _ = p.finish();
        r
    }

    #[test]
    fn arithmetic_and_precedence() {
        assert_eq!(eval("int main() { return 2 + 3 * 4; }"), 14);
        assert_eq!(eval("int main() { return (2 + 3) * 4; }"), 20);
        assert_eq!(eval("int main() { return 10 - 2 - 3; }"), 5);
        assert_eq!(eval("int main() { return 17 % 5 + 18 / 3; }"), 8);
        assert_eq!(eval("int main() { return -3 + 5; }"), 2);
        assert_eq!(eval("int main() { return !0 + !7; }"), 1);
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval("int main() { return 3 < 5; }"), 1);
        assert_eq!(eval("int main() { return 5 <= 4; }"), 0);
        assert_eq!(eval("int main() { return 1 && 2; }"), 1);
        assert_eq!(eval("int main() { return 0 || 0; }"), 0);
        assert_eq!(eval("int main() { return 4 == 4; }"), 1);
        assert_eq!(eval("int main() { return 4 != 4; }"), 0);
    }

    #[test]
    fn division_by_zero_yields_zero() {
        // Documented mini-C semantics: x/0 == 0, x%0 == 0.
        assert_eq!(eval("int main() { int z = 0; return 7 / z; }"), 0);
        assert_eq!(eval("int main() { int z = 0; return 7 % z; }"), 0);
    }

    #[test]
    fn locals_params_and_calls() {
        let src = "\
int add(int a, int b) { return a + b; }\n\
int main() { int x = add(2, 3); return add(x, 10); }\n";
        assert_eq!(eval(src), 15);
    }

    #[test]
    fn control_flow() {
        let src = "\
int main() {\n\
  int acc = 0;\n\
  int i = 0;\n\
  while (i < 10) {\n\
    if (i % 2 == 0) { acc = acc + i; } else { acc = acc - 1; }\n\
    i = i + 1;\n\
  }\n\
  return acc;\n\
}\n";
        assert_eq!(eval(src), 2 + 4 + 6 + 8 - 5);
    }

    #[test]
    fn globals_and_arrays() {
        let src = "\
int g = 5;\n\
int buf[8];\n\
int main() {\n\
  buf[3] = g * 2;\n\
  g = buf[3] + 1;\n\
  return g + buf[3];\n\
}\n";
        assert_eq!(eval(src), 21);
    }

    #[test]
    fn recursion_works() {
        let src = "\
int fib(int n) {\n\
  if (n < 2) { return n; }\n\
  return fib(n - 1) + fib(n - 2);\n\
}\n\
int main() { return fib(12); }\n";
        assert_eq!(eval(src), 144);
    }

    #[test]
    fn array_index_wraps_via_modulo_semantics() {
        // Out-of-range indices are clamped modulo the array length
        // (documented mini-C semantics; avoids UB in generated programs).
        let src = "int buf[4];\nint main() { buf[6] = 9; return buf[2]; }\n";
        assert_eq!(eval(src), 9);
    }

    #[test]
    fn generated_workloads_compile_and_run_deterministically() {
        let b = MiniGcc::new(Scale::Test);
        for name in ["train", "refrate", "alberta.0", "alberta.7"] {
            let mut p1 = Profiler::default();
            let mut p2 = Profiler::default();
            let r1 = b.run(name, &mut p1).unwrap();
            let r2 = b.run(name, &mut p2).unwrap();
            assert_eq!(r1, r2, "{name} must be deterministic");
            assert!(r1.work > 0);
        }
    }

    #[test]
    fn optimization_preserves_semantics_on_generated_programs() {
        use alberta_workloads::csrc::CSourceGen;
        let gen = CSourceGen::standard(Scale::Test);
        for seed in 0..6 {
            let src = gen.generate(seed).source;
            let mut p1 = Profiler::default();
            let mut p2 = Profiler::default();
            let none = OptOptions::none();
            let full = OptOptions::default();
            let (r_none, _) = MiniGcc::compile_and_run(&src, &none, &mut p1).unwrap();
            let (r_full, _) = MiniGcc::compile_and_run(&src, &full, &mut p2).unwrap();
            assert_eq!(r_none, r_full, "optimizer changed semantics (seed {seed})");
        }
    }

    #[test]
    fn front_end_rejects_garbage() {
        let mut p = Profiler::default();
        for bad in [
            "int main( { return 0; }",
            "int main() { return ; }",
            "float main() { return 0; }",
            "int main() { x = 1; return x; }",
            "int main() { return 0 }",
        ] {
            assert!(
                MiniGcc::compile_and_run(bad, &OptOptions::default(), &mut p).is_err(),
                "{bad:?} should be rejected"
            );
        }
    }

    #[test]
    fn missing_main_is_an_error() {
        let mut p = Profiler::default();
        let err = MiniGcc::compile_and_run("int f() { return 1; }", &OptOptions::default(), &mut p)
            .unwrap_err();
        assert!(err.to_string().contains("main"));
    }
}
