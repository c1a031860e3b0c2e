//! Stack-machine interpreter for compiled mini-C modules.
//!
//! Executes bytecode while reporting events to the profiler (every op
//! retires, branches feed the predictor model, global/array accesses feed
//! the cache model, calls feed the I-cache model) and collecting an
//! [`EdgeProfile`] — the feedback data FDO consumes.

use super::compile::{Module, Op};
use super::opt::eval_bin;
use alberta_profile::{FnId, Profiler};
use std::collections::BTreeMap;
use std::error::Error;
use std::fmt;

const GLOBALS_REGION: u64 = 0x2_0000_0000;
const ARRAYS_REGION: u64 = 0x2_1000_0000;
const STACK_REGION: u64 = 0x2_2000_0000;

/// Runtime failure of a mini-C program.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum VmError {
    /// Executed-op budget exhausted (runaway loop).
    StepLimit {
        /// The configured budget.
        limit: u64,
    },
    /// Call depth exceeded the stack bound.
    StackOverflow {
        /// The configured bound.
        depth: usize,
    },
    /// Internal consistency failure (malformed bytecode).
    Corrupt {
        /// Description.
        detail: String,
    },
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VmError::StepLimit { limit } => write!(f, "step limit of {limit} ops exceeded"),
            VmError::StackOverflow { depth } => write!(f, "call depth exceeded {depth}"),
            VmError::Corrupt { detail } => write!(f, "corrupt bytecode: {detail}"),
        }
    }
}

impl Error for VmError {}

/// Execution feedback: the raw material of FDO.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct EdgeProfile {
    /// Per-branch-site (function index, op index) → (taken, total).
    pub branches: BTreeMap<(u16, u32), (u64, u64)>,
    /// Per-call-edge (caller index, callee index) → count.
    pub calls: BTreeMap<(u16, u16), u64>,
    /// Ops executed per function, indexed like `Module::funcs`.
    pub fn_ops: Vec<u64>,
    /// Function names parallel to `fn_ops`.
    pub fn_names: Vec<String>,
}

impl EdgeProfile {
    /// Total executed ops across all functions.
    pub fn executed_ops(&self) -> u64 {
        self.fn_ops.iter().sum()
    }

    /// Total dynamic conditional branches.
    pub fn total_branches(&self) -> u64 {
        self.branches.values().map(|(_, total)| total).sum()
    }

    /// Function names sorted hottest-first — the FDO layout order.
    pub fn hot_function_order(&self) -> Vec<String> {
        let mut idx: Vec<usize> = (0..self.fn_names.len()).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(self.fn_ops[i]));
        idx.into_iter().map(|i| self.fn_names[i].clone()).collect()
    }

    /// Callees whose incoming call count is at least `min_calls`,
    /// hottest first — the FDO inlining candidates.
    pub fn hot_callees(&self, min_calls: u64) -> Vec<String> {
        let mut per_callee: BTreeMap<u16, u64> = BTreeMap::new();
        for (&(_, callee), &count) in &self.calls {
            *per_callee.entry(callee).or_default() += count;
        }
        let mut hot: Vec<(u64, u16)> = per_callee
            .into_iter()
            .filter(|&(_, count)| count >= min_calls)
            .map(|(callee, count)| (count, callee))
            .collect();
        hot.sort_by_key(|&(count, _)| std::cmp::Reverse(count));
        hot.into_iter()
            .map(|(_, callee)| self.fn_names[callee as usize].clone())
            .collect()
    }

    /// Merges another profile into this one (the paper's "combined
    /// profiling" across multiple training workloads).
    pub fn merge(&mut self, other: &EdgeProfile) {
        for (site, &(taken, total)) in &other.branches {
            let e = self.branches.entry(*site).or_insert((0, 0));
            e.0 += taken;
            e.1 += total;
        }
        for (edge, &count) in &other.calls {
            *self.calls.entry(*edge).or_default() += count;
        }
        if self.fn_ops.is_empty() {
            self.fn_ops = other.fn_ops.clone();
            self.fn_names = other.fn_names.clone();
        } else if self.fn_names == other.fn_names {
            for (a, b) in self.fn_ops.iter_mut().zip(&other.fn_ops) {
                *a += b;
            }
        }
    }
}

/// Default executed-op budget.
pub const DEFAULT_STEP_LIMIT: u64 = 200_000_000;

/// Maximum call depth.
pub(crate) const MAX_CALL_DEPTH: usize = 512;

/// Runs `main` with no arguments; returns its value and the edge profile.
///
/// # Errors
///
/// Returns [`VmError`] on step-limit exhaustion, stack overflow, or
/// malformed bytecode.
pub(crate) fn run(module: &Module, profiler: &mut Profiler) -> Result<(i64, EdgeProfile), VmError> {
    run_with_limit(module, profiler, DEFAULT_STEP_LIMIT)
}

/// [`run`] with an explicit step budget.
///
/// # Errors
///
/// Same conditions as [`run`].
pub(crate) fn run_with_limit(
    module: &Module,
    profiler: &mut Profiler,
    step_limit: u64,
) -> Result<(i64, EdgeProfile), VmError> {
    run_with_inputs(module, profiler, step_limit, &[])
}

/// `run_with_limit` plus pre-seeded global state: each `(name, values)`
/// entry fills the named global array (truncated/zero-padded to its
/// declared length) or, for a single value, the named global scalar. This
/// is how workload data reaches mini-C programs — the FDO laboratory's
/// equivalent of command-line input files.
///
/// # Errors
///
/// Same conditions as `run`; unknown names are ignored (the program may
/// have been compiled without the optional input buffer).
pub fn run_with_inputs(
    module: &Module,
    profiler: &mut Profiler,
    step_limit: u64,
    inputs: &[(String, Vec<i64>)],
) -> Result<(i64, EdgeProfile), VmError> {
    // Register every function in module (layout) order: the Top-Down
    // model lays code out in registration order, so profile-guided
    // function reordering changes I-cache behaviour — the mechanism the
    // FDO experiments measure.
    let fn_ids: Vec<FnId> = module
        .funcs
        .iter()
        .map(|f| profiler.register_function(&format!("cc::{}", f.name), f.code.len() as u32 * 6))
        .collect();

    let mut globals = module.global_init.clone();
    let mut arrays: Vec<Vec<i64>> = module.array_lens.iter().map(|&n| vec![0; n]).collect();
    for (name, values) in inputs {
        if let Some(a) = module.array_names.iter().position(|n| n == name) {
            for (slot, v) in arrays[a]
                .iter_mut()
                .zip(values.iter().chain(std::iter::repeat(&0)))
            {
                *slot = *v;
            }
        } else if let Some(g) = module.global_names.iter().position(|n| n == name) {
            if let Some(&v) = values.first() {
                globals[g] = v;
            }
        }
    }
    let mut edges = EdgeProfile {
        branches: BTreeMap::new(),
        calls: BTreeMap::new(),
        fn_ops: vec![0; module.funcs.len()],
        fn_names: module.funcs.iter().map(|f| f.name.clone()).collect(),
    };

    struct Frame {
        func: u16,
        pc: u32,
        locals: Vec<i64>,
        stack_base: usize,
    }

    let main_idx = module.main as u16;
    let mut frames = vec![Frame {
        func: main_idx,
        pc: 0,
        locals: vec![0; module.funcs[module.main].locals as usize],
        stack_base: 0,
    }];
    profiler.enter(fn_ids[module.main]);
    let mut stack: Vec<i64> = Vec::with_capacity(256);
    let mut steps = 0u64;

    macro_rules! pop {
        () => {
            stack.pop().ok_or_else(|| VmError::Corrupt {
                detail: "operand stack underflow".to_owned(),
            })?
        };
    }

    loop {
        let frame = frames.last_mut().ok_or_else(|| VmError::Corrupt {
            detail: "no active frame".to_owned(),
        })?;
        let func = &module.funcs[frame.func as usize];
        let op = *func
            .code
            .get(frame.pc as usize)
            .ok_or_else(|| VmError::Corrupt {
                detail: format!("pc {} out of range in {}", frame.pc, func.name),
            })?;
        steps += 1;
        if steps > step_limit {
            // Unwind profiler scopes so callers can still finish it.
            for _ in 0..frames.len() {
                profiler.exit();
            }
            return Err(VmError::StepLimit { limit: step_limit });
        }
        edges.fn_ops[frame.func as usize] += 1;
        profiler.retire(1);
        let cur_func = frame.func;
        let cur_pc = frame.pc;
        let site = ((cur_func as u32) << 20) | cur_pc;
        frame.pc += 1;
        match op {
            Op::Const(n) => stack.push(n),
            Op::LoadLocal(s) => {
                profiler.load(STACK_REGION + frames.len() as u64 * 256 + s as u64 * 8);
                stack.push(frames.last().expect("frame").locals[s as usize]);
            }
            Op::StoreLocal(s) => {
                let v = pop!();
                profiler.store(STACK_REGION + frames.len() as u64 * 256 + s as u64 * 8);
                frames.last_mut().expect("frame").locals[s as usize] = v;
            }
            Op::LoadGlobal(g) => {
                profiler.load(GLOBALS_REGION + g as u64 * 8);
                stack.push(globals[g as usize]);
            }
            Op::StoreGlobal(g) => {
                let v = pop!();
                profiler.store(GLOBALS_REGION + g as u64 * 8);
                globals[g as usize] = v;
            }
            Op::LoadArr(a) => {
                let idx = pop!();
                let arr = &arrays[a as usize];
                let i = (idx.rem_euclid(arr.len() as i64)) as usize;
                profiler.load(ARRAYS_REGION + a as u64 * (1 << 16) + i as u64 * 8);
                stack.push(arr[i]);
            }
            Op::StoreArr(a) => {
                let v = pop!();
                let idx = pop!();
                let arr = &mut arrays[a as usize];
                let i = (idx.rem_euclid(arr.len() as i64)) as usize;
                profiler.store(ARRAYS_REGION + a as u64 * (1 << 16) + i as u64 * 8);
                arr[i] = v;
            }
            Op::Bin(op) => {
                let r = pop!();
                let l = pop!();
                stack.push(eval_bin(op, l, r));
            }
            Op::Neg => {
                let v = pop!();
                stack.push(v.wrapping_neg());
            }
            Op::Not => {
                let v = pop!();
                stack.push((v == 0) as i64);
            }
            Op::Jump(t) => {
                frames.last_mut().expect("frame").pc = t;
            }
            Op::JumpIfZero(t) => {
                let v = pop!();
                let taken = v == 0;
                profiler.branch(site, taken);
                let e = edges.branches.entry((cur_func, cur_pc)).or_insert((0, 0));
                e.0 += taken as u64;
                e.1 += 1;
                if taken {
                    frames.last_mut().expect("frame").pc = t;
                }
            }
            Op::Call(callee) => {
                if frames.len() >= MAX_CALL_DEPTH {
                    for _ in 0..frames.len() {
                        profiler.exit();
                    }
                    return Err(VmError::StackOverflow {
                        depth: MAX_CALL_DEPTH,
                    });
                }
                let callee_code = &module.funcs[callee as usize];
                let argc = callee_code.params as usize;
                if stack.len() < argc {
                    return Err(VmError::Corrupt {
                        detail: format!("call to {} lacks arguments", callee_code.name),
                    });
                }
                let mut locals = vec![0i64; callee_code.locals as usize];
                for i in (0..argc).rev() {
                    locals[i] = pop!();
                }
                let caller = frames.last().expect("frame").func;
                *edges.calls.entry((caller, callee)).or_default() += 1;
                // Call overhead beyond the bytecode op itself: frame
                // setup, register save/restore — the micro-ops a real
                // call burns and inlining eliminates.
                profiler.retire(6);
                profiler.enter(fn_ids[callee as usize]);
                frames.push(Frame {
                    func: callee,
                    pc: 0,
                    locals,
                    stack_base: stack.len(),
                });
            }
            Op::Ret => {
                let v = pop!();
                let frame = frames.pop().expect("frame");
                stack.truncate(frame.stack_base);
                profiler.retire(2); // frame teardown overhead
                profiler.exit();
                if frames.is_empty() {
                    return Ok((v, edges));
                }
                stack.push(v);
            }
            Op::Pop => {
                let _ = pop!();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::compile::{compile, OptOptions};
    use super::super::lexer::lex;
    use super::super::parser::parse;
    use super::*;

    fn run_src(src: &str) -> Result<(i64, EdgeProfile), VmError> {
        let module = compile(
            &parse(&lex(src).unwrap()).unwrap(),
            &OptOptions::none(),
            &mut Profiler::default(),
        )
        .unwrap();
        let mut p = Profiler::default();
        let out = run(&module, &mut p);
        if out.is_ok() {
            let _ = p.finish();
        }
        out
    }

    #[test]
    fn step_limit_stops_runaway_loops() {
        let module = compile(
            &parse(&lex("int main() { int x = 1; while (x) { x = 1; } return 0; }").unwrap())
                .unwrap(),
            &OptOptions::none(),
            &mut Profiler::default(),
        )
        .unwrap();
        let mut p = Profiler::default();
        let err = run_with_limit(&module, &mut p, 10_000).unwrap_err();
        assert!(matches!(err, VmError::StepLimit { .. }));
        let _ = p.finish(); // scopes were unwound on error
    }

    #[test]
    fn stack_overflow_detected() {
        let err =
            run_src("int f(int n) { return f(n + 1); }\nint main() { return f(0); }").unwrap_err();
        assert!(matches!(err, VmError::StackOverflow { .. }));
    }

    #[test]
    fn edge_profile_counts_branches_and_calls() {
        let (_, edges) = run_src(
            "int inc(int a) { return a + 1; }\n\
             int main() { int i = 0; while (i < 10) { i = inc(i); } return i; }",
        )
        .unwrap();
        assert_eq!(edges.calls.values().sum::<u64>(), 10);
        // The while condition: 11 evaluations, 1 taken (exit).
        let (taken, total) = edges.branches.values().copied().next().unwrap();
        assert_eq!(total, 11);
        assert_eq!(taken, 1);
        assert!(edges.executed_ops() > 0);
        assert_eq!(edges.total_branches(), 11);
    }

    #[test]
    fn hot_function_order_puts_busy_functions_first() {
        let (_, edges) = run_src(
            "int busy(int a) { int i = 0; while (i < 50) { i = i + 1; } return a; }\n\
             int idle(int a) { return a; }\n\
             int main() { idle(1); return busy(1); }",
        )
        .unwrap();
        let order = edges.hot_function_order();
        assert_eq!(order[0], "busy");
    }

    #[test]
    fn hot_callees_filters_by_count() {
        let (_, edges) = run_src(
            "int f(int a) { return a; }\n\
             int main() { int i = 0; while (i < 20) { i = f(i) + 1; } return i; }",
        )
        .unwrap();
        assert_eq!(edges.hot_callees(10), vec!["f".to_owned()]);
        assert!(edges.hot_callees(100).is_empty());
    }

    #[test]
    fn merge_accumulates() {
        let (_, a) =
            run_src("int main() { int i = 0; while (i < 3) { i = i + 1; } return i; }").unwrap();
        let mut merged = a.clone();
        merged.merge(&a);
        assert_eq!(merged.total_branches(), 2 * a.total_branches());
        assert_eq!(merged.executed_ops(), 2 * a.executed_ops());
    }

    #[test]
    fn error_messages_render() {
        assert!(VmError::StepLimit { limit: 5 }.to_string().contains('5'));
        assert!(VmError::StackOverflow { depth: 9 }
            .to_string()
            .contains('9'));
    }
}
