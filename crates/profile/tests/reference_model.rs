//! The profiler against a reference model of its per-hook logic.
//!
//! On its common path a profiler hook makes one counter add and one
//! compare: `tick` compares the event count with the injected fault's
//! precomputed index, and `add_retired` compares the retired-op count
//! with one checkpoint, the least of the op past the budget, the next
//! interval end and the next detail-window edge. The innermost scope's
//! work is credited only where that scope changes or is read. The
//! reference below applies every check on every hook instead: the fault
//! `match` in `tick`, immediate `fn_work` and call-tree credit, and the
//! budget, interval and window checks on every retire.
//!
//! Seeded random hook programs run under random budgets, interval
//! lengths, detail windows, sampling intervals and faults. Both sides
//! must finish with equal profiles, field for field, or abort at the
//! same event with the same payload.

mod common;

use alberta_profile::{
    BudgetExceeded, DetailWindow, Event, EventChunks, EventTrace, FnId, Footprint,
    IntervalSnapshot, Profile, Profiler, ProfilerFault, SampleConfig, Totals, WARM_DILUTION,
    WARM_MEMORY_DILUTION,
};
use common::{arb_program, Action};
use proptest::prelude::*;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// The hooks a program drives, on the profiler or on the reference.
trait Hooks {
    fn enter(&mut self, f: usize);
    fn exit(&mut self);
    fn retire(&mut self, n: u64);
    fn branch(&mut self, site: u32, taken: bool);
    fn load(&mut self, addr: u64);
    fn store(&mut self, addr: u64);
    fn event_count(&self) -> u64;
}

impl Hooks for Profiler {
    fn enter(&mut self, f: usize) {
        Profiler::enter(self, FnId(f as u32));
    }
    fn exit(&mut self) {
        Profiler::exit(self);
    }
    fn retire(&mut self, n: u64) {
        Profiler::retire(self, n);
    }
    fn branch(&mut self, site: u32, taken: bool) {
        Profiler::branch(self, site, taken);
    }
    fn load(&mut self, addr: u64) {
        Profiler::load(self, addr);
    }
    fn store(&mut self, addr: u64) {
        Profiler::store(self, addr);
    }
    fn event_count(&self) -> u64 {
        Profiler::event_count(self)
    }
}

/// One open scope of the reference.
#[derive(Debug, Clone, Copy)]
struct Frame {
    func: usize,
    sampled: bool,
    offered: bool,
}

/// One call-tree node of the reference: a distinct call path.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Node {
    func: Option<FnId>,
    parent: u32,
    calls: u64,
    exclusive: u64,
    inclusive: u64,
}

/// The per-hook profiler: every check on every hook.
struct Reference {
    fn_work: Vec<u64>,
    fn_calls: Vec<u64>,
    stack: Vec<Frame>,
    totals: Totals,
    trace: EventTrace,
    chunks: EventChunks,
    nodes: Vec<Node>,
    cursor: u32,
    sampling: SampleConfig,
    branch_phase: u32,
    mem_phase: u32,
    call_phase: u32,
    events: u64,
    intervals: Vec<IntervalSnapshot>,
    interval_start: Totals,
    interval_fn_work: Vec<u64>,
    next_interval_end: u64,
    windows: Vec<DetailWindow>,
    window_cursor: usize,
    trace_gated: bool,
    trace_on: bool,
    lines: HashSet<u64>,
    pages: HashSet<u64>,
}

impl Reference {
    fn new(sampling: SampleConfig, nfuncs: usize) -> Self {
        Reference {
            fn_work: vec![0; nfuncs],
            fn_calls: vec![0; nfuncs],
            stack: Vec::new(),
            totals: Totals::default(),
            trace: EventTrace::with_capacity(sampling.trace_capacity),
            chunks: EventChunks::default(),
            nodes: vec![Node {
                func: None,
                parent: 0,
                calls: 0,
                exclusive: 0,
                inclusive: 0,
            }],
            cursor: 0,
            sampling,
            branch_phase: 0,
            mem_phase: 0,
            call_phase: 0,
            events: 0,
            intervals: Vec::new(),
            interval_start: Totals::default(),
            interval_fn_work: Vec::new(),
            next_interval_end: sampling.interval_work.unwrap_or(u64::MAX),
            windows: Vec::new(),
            window_cursor: 0,
            trace_gated: false,
            trace_on: true,
            lines: HashSet::new(),
            pages: HashSet::new(),
        }
    }

    fn with_detail_windows(
        sampling: SampleConfig,
        nfuncs: usize,
        windows: &[(u64, u64)],
        stride: u64,
    ) -> Self {
        let mut sorted: Vec<(u64, u64)> = windows.iter().copied().filter(|(s, e)| e > s).collect();
        sorted.sort_unstable();
        let mut r = Reference::new(sampling, nfuncs);
        r.trace.preset_weight(stride);
        r.windows = sorted
            .iter()
            .map(|&(start_ops, end_ops)| DetailWindow {
                start_ops,
                end_ops,
                trace_start: 0,
                trace_end: 0,
            })
            .collect();
        r.trace_gated = true;
        r.trace_on = false;
        r.update_windows();
        r
    }

    fn update_windows(&mut self) {
        if !self.trace_gated {
            return;
        }
        let ops = self.totals.retired_ops;
        loop {
            let Some(window) = self.windows.get_mut(self.window_cursor) else {
                self.trace_on = false;
                return;
            };
            if ops < window.start_ops {
                self.trace_on = false;
                return;
            }
            if ops < window.end_ops {
                if !self.trace_on {
                    self.trace_on = true;
                    window.trace_start = self.trace.len();
                }
                return;
            }
            let at = self.trace.len();
            if !self.trace_on {
                window.trace_start = at;
            }
            window.trace_end = at;
            self.trace_on = false;
            self.window_cursor += 1;
        }
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            lines: self.lines.len() as u64,
            pages: self.pages.len() as u64,
        }
    }

    fn touch(&mut self, addr: u64) {
        self.lines.insert(addr / Footprint::LINE_BYTES);
        self.pages.insert(addr / Footprint::PAGE_BYTES);
    }

    fn cut_interval(&mut self) {
        let fn_work = self
            .fn_work
            .iter()
            .enumerate()
            .map(|(i, &w)| w - self.interval_fn_work.get(i).copied().unwrap_or(0))
            .collect();
        self.intervals.push(IntervalSnapshot {
            index: self.intervals.len(),
            start_ops: self.interval_start.retired_ops,
            end_ops: self.totals.retired_ops,
            totals: self.totals.delta_since(&self.interval_start),
            fn_work,
            footprint: self.footprint(),
        });
        self.interval_start = self.totals;
        self.interval_fn_work.clone_from(&self.fn_work);
    }

    fn tick(&mut self) {
        self.events += 1;
        match self.sampling.fault {
            Some(ProfilerFault::PanicAtEvent(n)) if self.events == n => {
                panic!("injected fault: forced panic at event {n}");
            }
            Some(ProfilerFault::CorruptEvents { at }) if self.events == at => {
                self.totals.taken_branches += 1 << 40;
            }
            _ => {}
        }
    }

    fn add_retired(&mut self, n: u64) {
        self.totals.retired_ops += n;
        if let Some(budget) = self.sampling.work_budget {
            if self.totals.retired_ops > budget {
                std::panic::panic_any(BudgetExceeded {
                    budget,
                    retired_ops: self.totals.retired_ops,
                });
            }
        }
        if let Some(frame) = self.stack.last() {
            self.fn_work[frame.func] += n;
            self.nodes[self.cursor as usize].exclusive += n;
        }
        if self.totals.retired_ops >= self.next_interval_end {
            let iw = self.sampling.interval_work.unwrap_or(u64::MAX);
            self.cut_interval();
            self.next_interval_end = (self.totals.retired_ops / iw + 1).saturating_mul(iw);
        }
        self.update_windows();
    }

    /// Offers `event` to the trace: kept at the sampling stride while
    /// the window gate is open, diluted by `dilution` while it is shut.
    fn offer(&mut self, event: Event, open: bool, dilution: u64) {
        if open {
            self.trace.push(&mut self.chunks, event);
        } else if self.trace_gated {
            self.trace.push_diluted(&mut self.chunks, event, dilution);
        }
    }

    fn sample_mem(&mut self, addr: u64) {
        self.mem_phase += 1;
        if self.mem_phase >= self.sampling.mem_interval {
            self.mem_phase = 0;
            self.offer(Event::Mem { addr }, self.trace_on, WARM_MEMORY_DILUTION);
        }
    }

    /// The finished run, as the profiler's [`Profile`] would report it.
    fn finish(mut self) -> Outcome {
        assert!(self.stack.is_empty(), "programs are balanced");
        if self.sampling.interval_work.is_some()
            && self.totals.retired_ops > self.interval_start.retired_ops
        {
            self.cut_interval();
        }
        let at = self.trace.len();
        for window in &mut self.windows[self.window_cursor..] {
            if !self.trace_on {
                window.trace_start = at;
            }
            window.trace_end = at;
            self.trace_on = false;
        }
        for index in (0..self.nodes.len()).rev() {
            let total = self.nodes[index].exclusive + self.nodes[index].inclusive;
            self.nodes[index].inclusive = total;
            if index != 0 {
                let parent = self.nodes[index].parent as usize;
                self.nodes[parent].inclusive += total;
            }
        }
        let footprint = self.footprint();
        Outcome::Finished(Box::new(Finished {
            events: self.events,
            totals: self.totals,
            fn_work: self.fn_work,
            fn_calls: self.fn_calls,
            nodes: self.nodes,
            intervals: self.intervals,
            windows: self.windows,
            trace: (
                self.trace.len(),
                self.trace.weight(),
                self.trace.decimations(),
            ),
            chunks: self.chunks,
            footprint,
        }))
    }
}

impl Hooks for Reference {
    fn enter(&mut self, f: usize) {
        self.tick();
        self.fn_calls[f] += 1;
        self.totals.calls += 1;
        let func = Some(FnId(f as u32));
        let parent = self.cursor;
        let child = self
            .nodes
            .iter()
            .position(|n| n.parent == parent && n.func == func);
        self.cursor = match child {
            Some(child) => child as u32,
            None => {
                self.nodes.push(Node {
                    func,
                    parent,
                    calls: 0,
                    exclusive: 0,
                    inclusive: 0,
                });
                (self.nodes.len() - 1) as u32
            }
        };
        self.nodes[self.cursor as usize].calls += 1;
        self.call_phase += 1;
        let phase_hit = self.call_phase >= self.sampling.call_interval;
        if phase_hit {
            self.call_phase = 0;
        }
        let sampled = phase_hit && self.trace_on;
        if phase_hit {
            self.offer(
                Event::Call {
                    callee: FnId(f as u32),
                },
                sampled,
                WARM_DILUTION,
            );
        }
        self.stack.push(Frame {
            func: f,
            sampled,
            offered: phase_hit,
        });
    }

    fn exit(&mut self) {
        self.tick();
        let frame = self.stack.pop().expect("programs are balanced");
        self.cursor = self.nodes[self.cursor as usize].parent;
        if frame.offered {
            self.offer(Event::Return, frame.sampled, WARM_DILUTION);
        }
    }

    fn retire(&mut self, n: u64) {
        self.tick();
        self.add_retired(n);
    }

    fn branch(&mut self, site: u32, taken: bool) {
        self.tick();
        self.totals.branches += 1;
        self.totals.taken_branches += taken as u64;
        self.add_retired(1);
        self.branch_phase += 1;
        if self.branch_phase >= self.sampling.branch_interval {
            self.branch_phase = 0;
            self.offer(Event::Branch { site, taken }, self.trace_on, WARM_DILUTION);
        }
    }

    fn load(&mut self, addr: u64) {
        self.tick();
        self.touch(addr);
        self.totals.loads += 1;
        self.add_retired(1);
        self.sample_mem(addr);
    }

    fn store(&mut self, addr: u64) {
        self.tick();
        self.touch(addr);
        self.totals.stores += 1;
        self.add_retired(1);
        self.sample_mem(addr);
    }

    fn event_count(&self) -> u64 {
        self.events
    }
}

/// Everything a finished run reports.
#[derive(Debug, PartialEq, Eq)]
struct Finished {
    events: u64,
    totals: Totals,
    fn_work: Vec<u64>,
    fn_calls: Vec<u64>,
    nodes: Vec<Node>,
    intervals: Vec<IntervalSnapshot>,
    windows: Vec<DetailWindow>,
    /// Length, weight and decimations of the retained trace.
    trace: (usize, u64, u32),
    chunks: EventChunks,
    footprint: Footprint,
}

impl Finished {
    fn of(events: u64, profile: Profile) -> Self {
        let nodes = profile
            .calltree
            .nodes()
            .iter()
            .map(|n| Node {
                func: n.func,
                parent: n.parent,
                calls: n.calls,
                exclusive: n.exclusive,
                inclusive: n.inclusive,
            })
            .collect();
        Finished {
            events,
            totals: profile.totals,
            fn_work: profile.fn_work,
            fn_calls: profile.fn_calls,
            nodes,
            intervals: profile.intervals,
            windows: profile.windows,
            trace: (
                profile.trace.len(),
                profile.trace.weight(),
                profile.trace.decimations(),
            ),
            chunks: profile.chunks,
            footprint: profile.footprint,
        }
    }
}

/// How a run ended.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    Finished(Box<Finished>),
    /// A budget abort, at this event.
    Budget {
        event: u64,
        payload: BudgetExceeded,
    },
    /// An injected panic, at this event, with its message.
    Panicked {
        event: u64,
        message: String,
    },
}

/// One generated run: the program and the profiler set-up it runs under.
#[derive(Debug, Clone)]
struct Case {
    nfuncs: usize,
    program: Vec<Action>,
    sampling: SampleConfig,
    /// Detail windows and their stride; `None` for a plain profiler.
    windows: Option<(Vec<(u64, u64)>, u64)>,
}

/// Replays `program` through `hooks`. Noise steps touch addresses spread
/// over a few pages, so the footprint sees both line and page changes.
fn drive(hooks: &mut impl Hooks, program: &[Action]) {
    for (step, action) in program.iter().enumerate() {
        match *action {
            Action::Enter(f) => hooks.enter(f),
            Action::Exit => hooks.exit(),
            Action::Retire(n) => hooks.retire(n),
            Action::Noise => {
                let step = step as u64;
                hooks.branch((step % 7) as u32, step.is_multiple_of(3));
                hooks.load(0x1000 + (step * 0x9E37 % 0x4000));
                hooks.store(0x9000 + step * 24);
            }
        }
    }
}

/// Runs `program` on `hooks`, catching a budget abort or injected panic.
fn outcome<H: Hooks>(
    mut hooks: H,
    program: &[Action],
    finish: impl FnOnce(H) -> Outcome,
) -> Outcome {
    match catch_unwind(AssertUnwindSafe(|| drive(&mut hooks, program))) {
        Ok(()) => finish(hooks),
        Err(payload) => {
            let event = hooks.event_count();
            if let Some(&payload) = payload.downcast_ref::<BudgetExceeded>() {
                Outcome::Budget { event, payload }
            } else {
                let message = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .expect("injected panics carry a message");
                Outcome::Panicked { event, message }
            }
        }
    }
}

/// Runs `case` on the profiler and on the reference.
fn run_both(case: &Case) -> (Outcome, Outcome) {
    quiet_expected_panics();
    let (mut profiler, reference) = match &case.windows {
        None => (
            Profiler::new(case.sampling),
            Reference::new(case.sampling, case.nfuncs),
        ),
        Some((windows, stride)) => (
            Profiler::with_detail_windows(case.sampling, windows, *stride),
            Reference::with_detail_windows(case.sampling, case.nfuncs, windows, *stride),
        ),
    };
    for f in 0..case.nfuncs {
        profiler.register_function(&format!("f{f}"), 64);
    }
    let actual = outcome(profiler, &case.program, |p| {
        let events = p.event_count();
        Outcome::Finished(Box::new(Finished::of(events, p.finish())))
    });
    let expected = outcome(reference, &case.program, Reference::finish);
    (actual, expected)
}

/// Silences the default panic report for budget aborts and injected
/// faults, which these tests provoke by the hundred; every other panic
/// still reports.
fn quiet_expected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let expected = payload.is::<BudgetExceeded>()
                || payload
                    .downcast_ref::<String>()
                    .is_some_and(|m| m.starts_with("injected fault"));
            if !expected {
                default(info);
            }
        }));
    });
}

/// Retired ops and hook events of a whole program.
fn program_size(program: &[Action]) -> (u64, u64) {
    program
        .iter()
        .fold((0, 0), |(ops, events), action| match action {
            Action::Retire(n) => (ops + n, events + 1),
            Action::Noise => (ops + 3, events + 3),
            Action::Enter(_) | Action::Exit => (ops, events + 1),
        })
}

/// Up to three sorted, non-overlapping windows over `[0, span]`; they
/// may start at op 0, touch end to start, be empty or lie past the run.
fn arb_windows(rng: &mut TestRng, span: u64) -> Vec<(u64, u64)> {
    let mut edges: Vec<u64> = (0..2 * rng.below(4)).map(|_| rng.below(span + 1)).collect();
    edges.sort_unstable();
    if rng.below(3) == 0 {
        if let Some(first) = edges.first_mut() {
            *first = 0;
        }
    }
    if rng.below(3) == 0 && edges.len() >= 4 {
        edges[2] = edges[1];
    }
    edges.chunks(2).map(|pair| (pair[0], pair[1])).collect()
}

fn arb_case(seed: u64) -> Case {
    let mut rng = TestRng::new(seed);
    let nfuncs = 1 + rng.below(5) as usize;
    let scale = [1, 1, 10, 300][rng.below(4) as usize];
    let mut program = arb_program(&mut rng, nfuncs);
    for action in &mut program {
        if let Action::Retire(n) = action {
            *n *= scale;
        }
    }
    let (ops, events) = program_size(&program);
    let sampling = SampleConfig {
        branch_interval: 1 + rng.below(3) as u32,
        mem_interval: 1 + rng.below(3) as u32,
        call_interval: 1 + rng.below(3) as u32,
        trace_capacity: [4, 64, 1 << 20][rng.below(3) as usize],
        work_budget: (rng.below(3) == 0).then(|| rng.below(ops + 10)),
        interval_work: (rng.below(3) != 0).then(|| 1 + rng.below(300)),
        fault: match rng.below(6) {
            0 => Some(ProfilerFault::PanicAtEvent(1 + rng.below(events + 2))),
            1 => Some(ProfilerFault::CorruptEvents {
                at: 1 + rng.below(events + 2),
            }),
            _ => None,
        },
    };
    let windows = (rng.below(2) == 0).then(|| (arb_windows(&mut rng, ops + 20), 1 + rng.below(3)));
    Case {
        nfuncs,
        program,
        sampling,
        windows,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The profiler and the per-hook reference end every run alike.
    #[test]
    fn profiler_matches_the_per_hook_reference(seed in any::<u64>()) {
        let case = arb_case(seed);
        let (actual, expected) = run_both(&case);
        prop_assert_eq!(actual, expected, "{:?}", case);
    }
}

/// A scoped program: `f0` wraps `f1`, whose body is `body`, then the
/// tail retires in `f0` again.
fn nested(body: &[Action]) -> Vec<Action> {
    let mut program = vec![Action::Enter(0), Action::Retire(3), Action::Enter(1)];
    program.extend_from_slice(body);
    program.extend([Action::Exit, Action::Noise, Action::Retire(7), Action::Exit]);
    program
}

#[test]
fn edge_cases_match_the_per_hook_reference() {
    let base = SampleConfig::default();
    let noisy: Vec<Action> = [Action::Noise, Action::Retire(2)].repeat(40);
    let cases = [
        // One retire jumps several interval ends and two whole windows.
        Case {
            nfuncs: 2,
            program: nested(&[Action::Noise, Action::Retire(1000), Action::Noise]),
            sampling: base.with_interval_work(100),
            windows: Some((vec![(50, 60), (120, 130), (2000, 2100)], 1)),
        },
        // A window opening at op 0.
        Case {
            nfuncs: 2,
            program: nested(&noisy),
            sampling: base,
            windows: Some((vec![(0, 40), (90, 120)], 2)),
        },
        // Back-to-back windows.
        Case {
            nfuncs: 2,
            program: nested(&noisy),
            sampling: base.with_interval_work(64),
            windows: Some((vec![(10, 20), (20, 30), (30, 45)], 1)),
        },
        // A budget landing inside one retire(n).
        Case {
            nfuncs: 2,
            program: nested(&[Action::Retire(50), Action::Retire(50), Action::Retire(50)]),
            sampling: base.with_work_budget(105),
            windows: None,
        },
        // A budget equal to a prefix sum trips only past it.
        Case {
            nfuncs: 2,
            program: nested(&[Action::Retire(50), Action::Retire(50), Action::Retire(50)]),
            sampling: base.with_work_budget(103),
            windows: None,
        },
        // Faults at event 1.
        Case {
            nfuncs: 2,
            program: nested(&noisy),
            sampling: base.with_fault(ProfilerFault::PanicAtEvent(1)),
            windows: None,
        },
        Case {
            nfuncs: 2,
            program: nested(&noisy),
            sampling: base.with_fault(ProfilerFault::CorruptEvents { at: 1 }),
            windows: Some((vec![(5, 50)], 1)),
        },
    ];
    for case in &cases {
        let (actual, expected) = run_both(case);
        assert_eq!(actual, expected, "{case:?}");
    }
    // The cases reach what they name: aborts where asked, and the
    // budget at 103 = 3 + 50 + 50 trips at the next retire, event 6,
    // not at it.
    let (budget, _) = run_both(&cases[4]);
    assert_eq!(
        budget,
        Outcome::Budget {
            event: 6,
            payload: BudgetExceeded {
                budget: 103,
                retired_ops: 153,
            },
        }
    );
    let (fault, _) = run_both(&cases[5]);
    assert!(
        matches!(fault, Outcome::Panicked { event: 1, .. }),
        "{fault:?}"
    );
}
