//! The line-delimited canonical-JSON pipe protocol between the process
//! supervisor and its worker subprocesses.
//!
//! Every message is one [`crate::json::Value`] rendered with
//! [`Value::render_compact`] — a single line, parsed back with the same
//! strict parser the report schema uses. The supervisor speaks first:
//! one [`SupervisorMsg::Config`] carrying the complete suite
//! configuration (scale, sampling, model, fault plan), then a stream of
//! [`SupervisorMsg::Task`] dispatches and a final
//! [`SupervisorMsg::Shutdown`]. The worker answers with
//! [`WorkerMsg::Hello`] (handshake), [`WorkerMsg::Beat`] (heartbeat,
//! carrying the in-flight task id as its progress payload), and
//! [`WorkerMsg::Result`] (the task's fate plus its measurements and
//! buffered log records).
//!
//! # Determinism
//!
//! The [`WorkloadRun`] codec is lossless for every field that enters a
//! report: `u64` quantities stay exact, and `f64` measurements use
//! Rust's shortest round-trip formatting, so a run decoded from the
//! pipe summarizes bit-identically to the same run computed in-process.
//! Statuses cross the pipe as rendered error text and are rehydrated as
//! [`BenchError::Remote`], whose `Display` echoes the text verbatim —
//! report artifacts built from remote statuses match the serial
//! rendering byte for byte.

use crate::characterize::{RunStatus, WorkloadRun};
use crate::faults::{FaultKind, FaultPlan};
use crate::json::{self, nullable, opt, req, DecodeError, Value};
use crate::log::{LogLevel, LogRecord};
use crate::sampling::{PhaseSampling, SamplingPolicy, SamplingStats};
use alberta_benchmarks::BenchError;
use alberta_profile::{PathRow, PathTable, ProfilerFault, SampleConfig};
use alberta_stats::variation::TopDownRatios;
use alberta_uarch::{
    CacheConfig, DramConfig, MachineConfig, MemoryProfile, MpkiPoint, PredictorKind, TopDownReport,
};
use alberta_workloads::Scale;
use std::collections::BTreeMap;
use std::sync::Mutex;

/// Protocol revision. A worker whose `hello` declares a different
/// revision is killed — supervisor and worker are always the same
/// binary, so a mismatch means the pipe is not speaking to a worker at
/// all.
pub const PROTOCOL_VERSION: u64 = 1;

/// How the worker executes its tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerMode {
    /// `run_workload_with` only — any failure is final (the strict
    /// pipeline's per-run unit).
    Strict,
    /// The resilient unit: guarded run, in-worker retry at reduced
    /// scale for retryable errors, fault-plan application.
    Resilient,
}

/// The complete suite configuration a worker needs to rebuild its runs,
/// sent once per worker as the first message.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Execution mode for every task of this worker.
    pub mode: WorkerMode,
    /// Scale the suite was built at.
    pub scale: Scale,
    /// Event-sampling configuration (including any injected profiler
    /// fault and work budget).
    pub sampling: SampleConfig,
    /// Full-measurement vs phase-sampled estimation.
    pub policy: SamplingPolicy,
    /// Machine model parameters.
    pub machine: MachineConfig,
    /// Branch-predictor kind.
    pub predictor: PredictorKind,
    /// The fault plan, including process-level kinds the worker injects
    /// on itself.
    pub faults: FaultPlan,
    /// Per-task deadline in retired ops — the deterministic work-budget
    /// clock. The worker clamps its effective
    /// [`SampleConfig::work_budget`] to this for every task.
    pub deadline_work: Option<u64>,
    /// Heartbeat interval in milliseconds — how often the worker sends
    /// [`WorkerMsg::Beat`] while a task is in flight.
    pub beat_ms: u64,
}

/// One task dispatch: run `workload` of `benchmark`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskMsg {
    /// Task id — the task's index in the sweep's canonical run order.
    pub id: u64,
    /// Benchmark short name.
    pub benchmark: String,
    /// Workload name.
    pub workload: String,
    /// 1-based dispatch attempt, so in-worker fault injection can be
    /// bounded per attempt (`attempts: 1` faults fire only on the first
    /// dispatch).
    pub attempt: u32,
    /// The originating request label, when the task was dispatched on
    /// behalf of a characterization-service request. The worker echoes
    /// it verbatim in [`TaskResult`], which is how span logs prove the
    /// label survived the process boundary.
    pub request: Option<String>,
}

/// Supervisor → worker messages.
#[derive(Debug, Clone)]
pub enum SupervisorMsg {
    /// The one-time configuration message.
    Config(Box<WorkerConfig>),
    /// A task dispatch.
    Task(TaskMsg),
    /// Orderly shutdown; the worker exits 0.
    Shutdown,
}

/// A task's fate as the worker reports it, before the supervisor
/// rehydrates errors into [`BenchError::Remote`] (the worker-side
/// `&'static str` benchmark names cannot cross the pipe).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RemoteStatus {
    /// Clean run.
    Ok,
    /// Failed, salvaged by the in-worker retry.
    Degraded {
        /// Rendered original error.
        error: String,
        /// The original error's retryability verdict.
        retryable: bool,
        /// Scale the successful retry ran at.
        retried_at: Scale,
    },
    /// Lost for good.
    Failed {
        /// Rendered error.
        error: String,
        /// The error's retryability verdict.
        retryable: bool,
    },
}

impl RemoteStatus {
    /// Projects a worker-side [`RunStatus`] to its wire form.
    pub fn from_status(status: &RunStatus) -> Self {
        match status {
            RunStatus::Ok => RemoteStatus::Ok,
            RunStatus::Degraded { error, retried_at } => RemoteStatus::Degraded {
                error: error.to_string(),
                retryable: error.is_retryable(),
                retried_at: *retried_at,
            },
            RunStatus::Failed { error } => RemoteStatus::Failed {
                error: error.to_string(),
                retryable: error.is_retryable(),
            },
        }
    }

    /// Rehydrates the supervisor-side [`RunStatus`], attaching the
    /// benchmark name the supervisor still holds as `&'static str`.
    pub fn into_status(self, benchmark: &'static str) -> RunStatus {
        match self {
            RemoteStatus::Ok => RunStatus::Ok,
            RemoteStatus::Degraded {
                error,
                retryable,
                retried_at,
            } => RunStatus::Degraded {
                error: BenchError::Remote {
                    benchmark,
                    retryable,
                    message: error,
                },
                retried_at,
            },
            RemoteStatus::Failed { error, retryable } => RunStatus::Failed {
                error: BenchError::Remote {
                    benchmark,
                    retryable,
                    message: error,
                },
            },
        }
    }
}

/// One finished task: its fate, measurements, deterministic accounting,
/// and the log records buffered during the run (flushed by the
/// supervisor in canonical task order, like the thread scheduler does).
#[derive(Debug, Clone)]
pub struct TaskResult {
    /// The task id this result answers.
    pub id: u64,
    /// The run's fate.
    pub status: RemoteStatus,
    /// Measurements, for survivors.
    pub run: Option<WorkloadRun>,
    /// In-worker retry attempts (the deterministic accounting field of
    /// [`crate::RunMetrics`]).
    pub retries: u32,
    /// Retired ops consumed.
    pub budget_consumed: u64,
    /// Log records captured during the run, in emission order.
    pub logs: Vec<LogRecord>,
    /// The request label from [`TaskMsg`], echoed verbatim.
    pub request: Option<String>,
}

/// Worker → supervisor messages.
#[derive(Debug, Clone)]
pub enum WorkerMsg {
    /// Handshake: the worker is alive and speaks `protocol`.
    Hello {
        /// The worker's [`PROTOCOL_VERSION`].
        protocol: u64,
    },
    /// Heartbeat: task `id` is still making progress.
    Beat {
        /// The in-flight task id.
        id: u64,
    },
    /// A finished task.
    Result(Box<TaskResult>),
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn s(text: &str) -> Value {
    Value::Str(text.to_owned())
}

fn nullable_u64(v: Option<u64>) -> Value {
    v.map(Value::UInt).unwrap_or(Value::Null)
}

fn profiler_fault_value(fault: ProfilerFault) -> Value {
    match fault {
        ProfilerFault::PanicAtEvent(at) => {
            obj(vec![("kind", s("panic_at_event")), ("at", Value::UInt(at))])
        }
        ProfilerFault::CorruptEvents { at } => {
            obj(vec![("kind", s("corrupt_events")), ("at", Value::UInt(at))])
        }
    }
}

fn sample_config_value(c: &SampleConfig) -> Value {
    obj(vec![
        ("branch_interval", Value::UInt(c.branch_interval.into())),
        ("mem_interval", Value::UInt(c.mem_interval.into())),
        ("call_interval", Value::UInt(c.call_interval.into())),
        ("trace_capacity", Value::UInt(c.trace_capacity as u64)),
        ("work_budget", nullable_u64(c.work_budget)),
        ("interval_work", nullable_u64(c.interval_work)),
        (
            "fault",
            c.fault.map(profiler_fault_value).unwrap_or(Value::Null),
        ),
    ])
}

/// A sampling policy as its canonical wire object. Shared by the worker
/// pipe protocol and the characterization-service request codec (where
/// it also enters the content-addressed cache key).
pub fn sampling_policy_value(p: &SamplingPolicy) -> Value {
    match p {
        SamplingPolicy::Full => obj(vec![("kind", s("full"))]),
        SamplingPolicy::Phase(phase) => obj(vec![
            ("kind", s("phase")),
            ("interval_work", Value::UInt(phase.interval_work)),
            ("k", Value::UInt(phase.k as u64)),
            ("seed", Value::UInt(phase.seed)),
        ]),
    }
}

fn cache_config_value(c: &CacheConfig) -> Value {
    obj(vec![
        ("size_bytes", Value::UInt(c.size_bytes)),
        ("line_bytes", Value::UInt(c.line_bytes)),
        ("ways", Value::UInt(c.ways)),
    ])
}

/// A machine model configuration as its canonical wire object. Field
/// order is fixed, so the rendering is stable enough to hash.
pub fn machine_value(m: &MachineConfig) -> Value {
    obj(vec![
        ("issue_width", Value::Float(m.issue_width)),
        ("mispredict_penalty", Value::Float(m.mispredict_penalty)),
        ("l2_latency", Value::Float(m.l2_latency)),
        ("l3_latency", Value::Float(m.l3_latency)),
        ("memory_latency", Value::Float(m.memory_latency)),
        ("tlb_penalty", Value::Float(m.tlb_penalty)),
        ("icache_penalty", Value::Float(m.icache_penalty)),
        ("memory_parallelism", Value::Float(m.memory_parallelism)),
        ("uops_per_unit", Value::Float(m.uops_per_unit)),
        ("taken_branch_bubble", Value::Float(m.taken_branch_bubble)),
        ("baseline_frontend", Value::Float(m.baseline_frontend)),
        ("baseline_badspec", Value::Float(m.baseline_badspec)),
        ("baseline_backend", Value::Float(m.baseline_backend)),
        ("icache", cache_config_value(&m.icache)),
        ("l1d", cache_config_value(&m.l1d)),
        ("l2", cache_config_value(&m.l2)),
        ("l3", cache_config_value(&m.l3)),
        ("dtlb_entries", Value::UInt(m.dtlb_entries)),
        ("dram", dram_config_value(&m.dram)),
        ("fetch_probe_bytes", Value::UInt(m.fetch_probe_bytes)),
    ])
}

fn dram_config_value(d: &DramConfig) -> Value {
    obj(vec![
        ("banks", Value::UInt(d.banks)),
        ("row_bytes", Value::UInt(d.row_bytes)),
        ("line_bytes", Value::UInt(d.line_bytes)),
    ])
}

/// A branch-predictor kind as its canonical wire object.
pub fn predictor_value(p: PredictorKind) -> Value {
    match p {
        PredictorKind::StaticTaken => obj(vec![("kind", s("static-taken"))]),
        PredictorKind::Bimodal { bits } => obj(vec![
            ("kind", s("bimodal")),
            ("bits", Value::UInt(bits.into())),
        ]),
        PredictorKind::Gshare { bits } => obj(vec![
            ("kind", s("gshare")),
            ("bits", Value::UInt(bits.into())),
        ]),
        PredictorKind::Tournament { bits } => obj(vec![
            ("kind", s("tournament")),
            ("bits", Value::UInt(bits.into())),
        ]),
    }
}

fn fault_kind_value(kind: FaultKind) -> Value {
    match kind {
        FaultKind::MalformedWorkload => obj(vec![("kind", s("malformed_workload"))]),
        FaultKind::PanicAtEvent(at) => {
            obj(vec![("kind", s("panic_at_event")), ("at", Value::UInt(at))])
        }
        FaultKind::ExhaustBudget { budget } => obj(vec![
            ("kind", s("exhaust_budget")),
            ("budget", Value::UInt(budget)),
        ]),
        FaultKind::CorruptEvents { at } => {
            obj(vec![("kind", s("corrupt_events")), ("at", Value::UInt(at))])
        }
        FaultKind::WorkerCrash { attempts, clean } => obj(vec![
            ("kind", s("worker_crash")),
            ("attempts", Value::UInt(attempts.into())),
            ("clean", Value::Bool(clean)),
        ]),
        FaultKind::WorkerHang { attempts } => obj(vec![
            ("kind", s("worker_hang")),
            ("attempts", Value::UInt(attempts.into())),
        ]),
        FaultKind::ResultCorrupt { attempts } => obj(vec![
            ("kind", s("result_corrupt")),
            ("attempts", Value::UInt(attempts.into())),
        ]),
    }
}

fn fault_plan_value(plan: &FaultPlan) -> Value {
    let faults = plan
        .faults()
        .iter()
        .map(|f| {
            obj(vec![
                ("benchmark", s(&f.benchmark)),
                ("workload", s(&f.workload)),
                ("kind", fault_kind_value(f.kind)),
            ])
        })
        .collect();
    obj(vec![
        ("seed", Value::UInt(plan.seed())),
        ("faults", Value::Array(faults)),
    ])
}

fn report_value(r: &TopDownReport) -> Value {
    obj(vec![
        ("front_end", Value::Float(r.ratios.front_end)),
        ("back_end", Value::Float(r.ratios.back_end)),
        ("bad_speculation", Value::Float(r.ratios.bad_speculation)),
        ("retiring", Value::Float(r.ratios.retiring)),
        ("cycles", Value::Float(r.cycles)),
        ("retired_ops", Value::UInt(r.retired_ops)),
        ("ipc", Value::Float(r.ipc)),
        ("mispredict_rate", Value::Float(r.mispredict_rate)),
        ("mispredicts_per_kops", Value::Float(r.mispredicts_per_kops)),
        ("l1d_miss_ratio", Value::Float(r.l1d_miss_ratio)),
        ("l2_miss_ratio", Value::Float(r.l2_miss_ratio)),
        ("l3_miss_ratio", Value::Float(r.l3_miss_ratio)),
        ("dtlb_miss_ratio", Value::Float(r.dtlb_miss_ratio)),
        ("icache_miss_ratio", Value::Float(r.icache_miss_ratio)),
        ("predictor", s(r.predictor)),
        ("memory", memory_profile_value(&r.memory)),
    ])
}

/// A run's memory-hierarchy characterization as its canonical object —
/// the `memory` section of both the worker pipe's run codec and the
/// report schema's measures.
pub fn memory_profile_value(m: &MemoryProfile) -> Value {
    let curve = m
        .mpki_curve
        .iter()
        .map(|p| {
            obj(vec![
                ("size_bytes", Value::UInt(p.size_bytes)),
                ("mpki", Value::Float(p.mpki)),
            ])
        })
        .collect();
    obj(vec![
        ("l1_mpki", Value::Float(m.l1_mpki)),
        ("l2_mpki", Value::Float(m.l2_mpki)),
        ("l3_mpki", Value::Float(m.l3_mpki)),
        ("row_hit_rate", Value::Float(m.row_hit_rate)),
        ("dram_bytes", Value::Float(m.dram_bytes)),
        ("footprint_lines", Value::UInt(m.footprint_lines)),
        ("footprint_pages", Value::UInt(m.footprint_pages)),
        ("mpki_curve", Value::Array(curve)),
    ])
}

/// Method coverage (method name → percent of attributed work) as its
/// canonical object, in method-name order.
pub fn coverage_value(coverage: &BTreeMap<String, f64>) -> Value {
    Value::Object(
        coverage
            .iter()
            .map(|(method, pct)| (method.clone(), Value::Float(*pct)))
            .collect(),
    )
}

fn sampling_stats_value(st: &SamplingStats) -> Value {
    obj(vec![
        ("interval_work", Value::UInt(st.interval_work)),
        ("intervals", Value::UInt(st.intervals as u64)),
        ("clusters", Value::UInt(st.clusters as u64)),
        ("detailed_ops", Value::UInt(st.detailed_ops)),
        ("total_ops", Value::UInt(st.total_ops)),
    ])
}

/// A workload run's measurements as their canonical wire object. The
/// codec is lossless (see the module docs), so a run decoded from this
/// form summarizes bit-identically to the in-process original.
pub fn run_value(run: &WorkloadRun) -> Value {
    let paths = run
        .paths
        .rows()
        .iter()
        .map(|row| {
            Value::Array(vec![
                s(&row.path),
                Value::UInt(row.calls),
                Value::UInt(row.exclusive),
                Value::UInt(row.inclusive),
            ])
        })
        .collect();
    obj(vec![
        ("workload", s(&run.workload)),
        ("report", report_value(&run.report)),
        ("coverage", coverage_value(&run.coverage)),
        ("paths", Value::Array(paths)),
        ("work", Value::UInt(run.work)),
        ("checksum", Value::UInt(run.checksum)),
        (
            "sampling",
            run.sampling
                .as_ref()
                .map(sampling_stats_value)
                .unwrap_or(Value::Null),
        ),
    ])
}

/// A remote run status as its canonical wire object.
pub fn status_value(status: &RemoteStatus) -> Value {
    match status {
        RemoteStatus::Ok => obj(vec![("kind", s("ok"))]),
        RemoteStatus::Degraded {
            error,
            retryable,
            retried_at,
        } => obj(vec![
            ("kind", s("degraded")),
            ("error", s(error)),
            ("retryable", Value::Bool(*retryable)),
            ("retried_at", s(retried_at.name())),
        ]),
        RemoteStatus::Failed { error, retryable } => obj(vec![
            ("kind", s("failed")),
            ("error", s(error)),
            ("retryable", Value::Bool(*retryable)),
        ]),
    }
}

fn log_record_value(record: &LogRecord) -> Value {
    obj(vec![
        ("level", s(&record.level.to_string())),
        ("target", s(record.target)),
        ("message", s(&record.message)),
    ])
}

impl SupervisorMsg {
    /// Renders the message as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            SupervisorMsg::Config(c) => obj(vec![
                ("type", s("config")),
                ("protocol", Value::UInt(PROTOCOL_VERSION)),
                (
                    "mode",
                    s(match c.mode {
                        WorkerMode::Strict => "strict",
                        WorkerMode::Resilient => "resilient",
                    }),
                ),
                ("scale", s(c.scale.name())),
                ("sampling", sample_config_value(&c.sampling)),
                ("policy", sampling_policy_value(&c.policy)),
                ("machine", machine_value(&c.machine)),
                ("predictor", predictor_value(c.predictor)),
                ("faults", fault_plan_value(&c.faults)),
                ("deadline_work", nullable_u64(c.deadline_work)),
                ("beat_ms", Value::UInt(c.beat_ms)),
            ]),
            SupervisorMsg::Task(t) => {
                let mut fields = vec![
                    ("type", s("task")),
                    ("id", Value::UInt(t.id)),
                    ("benchmark", s(&t.benchmark)),
                    ("workload", s(&t.workload)),
                    ("attempt", Value::UInt(t.attempt.into())),
                ];
                if let Some(request) = &t.request {
                    fields.push(("request", s(request)));
                }
                obj(fields)
            }
            SupervisorMsg::Shutdown => obj(vec![("type", s("shutdown"))]),
        };
        value.render_compact()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem.
    pub fn decode(line: &str) -> Result<SupervisorMsg, DecodeError> {
        let value = json::parse(line).map_err(|e| e.to_string())?;
        match req(&value, "type")? {
            "config" => {
                let protocol: u64 = req(&value, "protocol")?;
                if protocol != PROTOCOL_VERSION {
                    return Err(format!(
                        "protocol mismatch: worker speaks {PROTOCOL_VERSION}, \
                         supervisor sent {protocol}"
                    ));
                }
                Ok(SupervisorMsg::Config(Box::new(decode_config(&value)?)))
            }
            "task" => Ok(SupervisorMsg::Task(TaskMsg {
                id: req(&value, "id")?,
                benchmark: req(&value, "benchmark")?,
                workload: req(&value, "workload")?,
                attempt: req(&value, "attempt")?,
                request: opt(&value, "request")?,
            })),
            "shutdown" => Ok(SupervisorMsg::Shutdown),
            other => Err(format!("unknown supervisor message type {other:?}")),
        }
    }
}

impl WorkerMsg {
    /// Renders the message as one protocol line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            WorkerMsg::Hello { protocol } => obj(vec![
                ("type", s("hello")),
                ("protocol", Value::UInt(*protocol)),
            ]),
            WorkerMsg::Beat { id } => obj(vec![("type", s("beat")), ("id", Value::UInt(*id))]),
            WorkerMsg::Result(r) => {
                let mut fields = vec![
                    ("type", s("result")),
                    ("id", Value::UInt(r.id)),
                    ("status", status_value(&r.status)),
                    ("run", r.run.as_ref().map(run_value).unwrap_or(Value::Null)),
                    ("retries", Value::UInt(r.retries.into())),
                    ("budget_consumed", Value::UInt(r.budget_consumed)),
                    (
                        "logs",
                        Value::Array(r.logs.iter().map(log_record_value).collect()),
                    ),
                ];
                if let Some(request) = &r.request {
                    fields.push(("request", s(request)));
                }
                obj(fields)
            }
        };
        value.render_compact()
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// A description of the first structural problem.
    pub fn decode(line: &str) -> Result<WorkerMsg, DecodeError> {
        let value = json::parse(line).map_err(|e| e.to_string())?;
        match req(&value, "type")? {
            "hello" => Ok(WorkerMsg::Hello {
                protocol: req(&value, "protocol")?,
            }),
            "beat" => Ok(WorkerMsg::Beat {
                id: req(&value, "id")?,
            }),
            "result" => Ok(WorkerMsg::Result(Box::new(TaskResult {
                id: req(&value, "id")?,
                status: decode_status(req(&value, "status")?)?,
                run: nullable(&value, "run")?.map(decode_run).transpose()?,
                retries: req(&value, "retries")?,
                budget_consumed: req(&value, "budget_consumed")?,
                logs: req::<&[Value]>(&value, "logs")?
                    .iter()
                    .map(decode_log_record)
                    .collect::<Result<_, _>>()?,
                request: opt(&value, "request")?,
            }))),
            other => Err(format!("unknown worker message type {other:?}")),
        }
    }
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn decode_profiler_fault(value: &Value) -> Result<ProfilerFault, DecodeError> {
    match req(value, "kind")? {
        "panic_at_event" => Ok(ProfilerFault::PanicAtEvent(req(value, "at")?)),
        "corrupt_events" => Ok(ProfilerFault::CorruptEvents {
            at: req(value, "at")?,
        }),
        other => Err(format!("unknown profiler fault kind {other:?}")),
    }
}

/// Parses a profiler configuration, rejecting the zero trace capacity
/// and zero interval length that no run can use: `Profiler::new` would
/// panic on either.
fn decode_sample_config(value: &Value) -> Result<SampleConfig, DecodeError> {
    let config = SampleConfig {
        branch_interval: req(value, "branch_interval")?,
        mem_interval: req(value, "mem_interval")?,
        call_interval: req(value, "call_interval")?,
        trace_capacity: req(value, "trace_capacity")?,
        work_budget: nullable(value, "work_budget")?,
        interval_work: nullable(value, "interval_work")?,
        fault: nullable(value, "fault")?
            .map(decode_profiler_fault)
            .transpose()?,
    };
    if config.trace_capacity == 0 {
        return Err("field \"trace_capacity\" must be positive".to_owned());
    }
    if config.interval_work == Some(0) {
        return Err("field \"interval_work\" must be positive".to_owned());
    }
    Ok(config)
}

/// Parses a sampling policy from its canonical wire object.
///
/// # Errors
///
/// The first structural problem, as text.
pub fn decode_sampling_policy(value: &Value) -> Result<SamplingPolicy, DecodeError> {
    match req(value, "kind")? {
        "full" => Ok(SamplingPolicy::Full),
        "phase" => Ok(SamplingPolicy::Phase(PhaseSampling {
            interval_work: req(value, "interval_work")?,
            k: req(value, "k")?,
            seed: req(value, "seed")?,
        })),
        other => Err(format!("unknown sampling policy {other:?}")),
    }
}

fn decode_cache_config(value: &Value) -> Result<CacheConfig, DecodeError> {
    Ok(CacheConfig {
        size_bytes: req(value, "size_bytes")?,
        line_bytes: req(value, "line_bytes")?,
        ways: req(value, "ways")?,
    })
}

/// Parses a machine configuration from its canonical wire object.
///
/// # Errors
///
/// The first structural problem, as text.
pub fn decode_machine(value: &Value) -> Result<MachineConfig, DecodeError> {
    Ok(MachineConfig {
        issue_width: req(value, "issue_width")?,
        mispredict_penalty: req(value, "mispredict_penalty")?,
        l2_latency: req(value, "l2_latency")?,
        l3_latency: req(value, "l3_latency")?,
        memory_latency: req(value, "memory_latency")?,
        tlb_penalty: req(value, "tlb_penalty")?,
        icache_penalty: req(value, "icache_penalty")?,
        memory_parallelism: req(value, "memory_parallelism")?,
        uops_per_unit: req(value, "uops_per_unit")?,
        taken_branch_bubble: req(value, "taken_branch_bubble")?,
        baseline_frontend: req(value, "baseline_frontend")?,
        baseline_badspec: req(value, "baseline_badspec")?,
        baseline_backend: req(value, "baseline_backend")?,
        icache: decode_cache_config(req(value, "icache")?)?,
        l1d: decode_cache_config(req(value, "l1d")?)?,
        l2: decode_cache_config(req(value, "l2")?)?,
        l3: decode_cache_config(req(value, "l3")?)?,
        dtlb_entries: req(value, "dtlb_entries")?,
        dram: decode_dram_config(req(value, "dram")?)?,
        fetch_probe_bytes: req(value, "fetch_probe_bytes")?,
    })
}

fn decode_dram_config(value: &Value) -> Result<DramConfig, DecodeError> {
    Ok(DramConfig {
        banks: req(value, "banks")?,
        row_bytes: req(value, "row_bytes")?,
        line_bytes: req(value, "line_bytes")?,
    })
}

/// Parses a predictor kind from its canonical wire object.
///
/// # Errors
///
/// The first structural problem, as text.
pub fn decode_predictor(value: &Value) -> Result<PredictorKind, DecodeError> {
    match req(value, "kind")? {
        "static-taken" => Ok(PredictorKind::StaticTaken),
        "bimodal" => Ok(PredictorKind::Bimodal {
            bits: req(value, "bits")?,
        }),
        "gshare" => Ok(PredictorKind::Gshare {
            bits: req(value, "bits")?,
        }),
        "tournament" => Ok(PredictorKind::Tournament {
            bits: req(value, "bits")?,
        }),
        other => Err(format!("unknown predictor kind {other:?}")),
    }
}

fn decode_fault_kind(value: &Value) -> Result<FaultKind, DecodeError> {
    match req(value, "kind")? {
        "malformed_workload" => Ok(FaultKind::MalformedWorkload),
        "panic_at_event" => Ok(FaultKind::PanicAtEvent(req(value, "at")?)),
        "exhaust_budget" => Ok(FaultKind::ExhaustBudget {
            budget: req(value, "budget")?,
        }),
        "corrupt_events" => Ok(FaultKind::CorruptEvents {
            at: req(value, "at")?,
        }),
        "worker_crash" => Ok(FaultKind::WorkerCrash {
            attempts: req(value, "attempts")?,
            clean: req(value, "clean")?,
        }),
        "worker_hang" => Ok(FaultKind::WorkerHang {
            attempts: req(value, "attempts")?,
        }),
        "result_corrupt" => Ok(FaultKind::ResultCorrupt {
            attempts: req(value, "attempts")?,
        }),
        other => Err(format!("unknown fault kind {other:?}")),
    }
}

fn decode_fault_plan(value: &Value) -> Result<FaultPlan, DecodeError> {
    let mut plan = FaultPlan::new(req(value, "seed")?);
    for fault in req::<&[Value]>(value, "faults")? {
        plan = plan.inject(
            req::<String>(fault, "benchmark")?,
            req::<String>(fault, "workload")?,
            decode_fault_kind(req(fault, "kind")?)?,
        );
    }
    Ok(plan)
}

fn decode_config(value: &Value) -> Result<WorkerConfig, DecodeError> {
    Ok(WorkerConfig {
        mode: match req(value, "mode")? {
            "strict" => WorkerMode::Strict,
            "resilient" => WorkerMode::Resilient,
            other => return Err(format!("unknown worker mode {other:?}")),
        },
        scale: req(value, "scale")?,
        sampling: decode_sample_config(req(value, "sampling")?)?,
        policy: decode_sampling_policy(req(value, "policy")?)?,
        machine: decode_machine(req(value, "machine")?)?,
        predictor: decode_predictor(req(value, "predictor")?)?,
        faults: decode_fault_plan(req(value, "faults")?)?,
        deadline_work: nullable(value, "deadline_work")?,
        beat_ms: req(value, "beat_ms")?,
    })
}

/// The predictor names [`TopDownReport`] can carry — the fixed set the
/// decoder interns `&'static str` names from.
const PREDICTOR_NAMES: [&str; 4] = ["static-taken", "bimodal", "gshare", "tournament"];

fn intern_predictor(name: &str) -> Result<&'static str, DecodeError> {
    PREDICTOR_NAMES
        .iter()
        .find(|n| **n == name)
        .copied()
        .ok_or_else(|| format!("unknown predictor name {name:?}"))
}

fn decode_report(value: &Value) -> Result<TopDownReport, DecodeError> {
    Ok(TopDownReport {
        ratios: TopDownRatios {
            front_end: req(value, "front_end")?,
            back_end: req(value, "back_end")?,
            bad_speculation: req(value, "bad_speculation")?,
            retiring: req(value, "retiring")?,
        },
        cycles: req(value, "cycles")?,
        retired_ops: req(value, "retired_ops")?,
        ipc: req(value, "ipc")?,
        mispredict_rate: req(value, "mispredict_rate")?,
        mispredicts_per_kops: req(value, "mispredicts_per_kops")?,
        l1d_miss_ratio: req(value, "l1d_miss_ratio")?,
        l2_miss_ratio: req(value, "l2_miss_ratio")?,
        l3_miss_ratio: req(value, "l3_miss_ratio")?,
        dtlb_miss_ratio: req(value, "dtlb_miss_ratio")?,
        icache_miss_ratio: req(value, "icache_miss_ratio")?,
        predictor: intern_predictor(req(value, "predictor")?)?,
        memory: decode_memory_profile(req(value, "memory")?)?,
    })
}

/// Parses a memory-hierarchy characterization from its canonical
/// object — the inverse of [`memory_profile_value`].
///
/// # Errors
///
/// The first structural problem, as text.
pub fn decode_memory_profile(value: &Value) -> Result<MemoryProfile, DecodeError> {
    let curve = req::<&[Value]>(value, "mpki_curve")?
        .iter()
        .map(|point| {
            Ok(MpkiPoint {
                size_bytes: req(point, "size_bytes")?,
                mpki: req(point, "mpki")?,
            })
        })
        .collect::<Result<Vec<_>, DecodeError>>()?;
    Ok(MemoryProfile {
        l1_mpki: req(value, "l1_mpki")?,
        l2_mpki: req(value, "l2_mpki")?,
        l3_mpki: req(value, "l3_mpki")?,
        row_hit_rate: req(value, "row_hit_rate")?,
        dram_bytes: req(value, "dram_bytes")?,
        footprint_lines: req(value, "footprint_lines")?,
        footprint_pages: req(value, "footprint_pages")?,
        mpki_curve: curve,
    })
}

fn decode_sampling_stats(value: &Value) -> Result<SamplingStats, DecodeError> {
    Ok(SamplingStats {
        interval_work: req(value, "interval_work")?,
        intervals: req(value, "intervals")?,
        clusters: req(value, "clusters")?,
        detailed_ops: req(value, "detailed_ops")?,
        total_ops: req(value, "total_ops")?,
    })
}

/// Parses a workload run from its canonical wire object — the inverse
/// of [`run_value`].
///
/// # Errors
///
/// The first structural problem, as text.
pub fn decode_run(value: &Value) -> Result<WorkloadRun, DecodeError> {
    let mut rows = Vec::new();
    for row in req::<&[Value]>(value, "paths")? {
        let row = row.as_array().ok_or("path row must be an array")?;
        let [path, calls, exclusive, inclusive] = row else {
            return Err("path row must have four elements".to_owned());
        };
        rows.push(PathRow {
            path: path
                .as_str()
                .ok_or("path row [0] must be a string")?
                .to_owned(),
            calls: calls.as_u64().ok_or("path row [1] must be an integer")?,
            exclusive: exclusive
                .as_u64()
                .ok_or("path row [2] must be an integer")?,
            inclusive: inclusive
                .as_u64()
                .ok_or("path row [3] must be an integer")?,
        });
    }
    Ok(WorkloadRun {
        workload: req(value, "workload")?,
        report: decode_report(req(value, "report")?)?,
        coverage: decode_coverage(req(value, "coverage")?)?,
        paths: PathTable::from_rows(rows),
        work: req(value, "work")?,
        checksum: req(value, "checksum")?,
        sampling: nullable(value, "sampling")?
            .map(decode_sampling_stats)
            .transpose()?,
    })
}

/// Parses method coverage from its canonical object — the inverse of
/// [`coverage_value`].
///
/// # Errors
///
/// A [`DecodeError`] naming the first method whose share is not a
/// number.
pub fn decode_coverage(value: &Value) -> Result<BTreeMap<String, f64>, DecodeError> {
    let fields = value.as_object().ok_or("coverage must be an object")?;
    fields
        .iter()
        .map(|(method, pct)| {
            let pct = pct
                .as_f64()
                .ok_or_else(|| format!("coverage of {method:?} must be a number"))?;
            Ok((method.clone(), pct))
        })
        .collect()
}

/// Parses a remote run status from its canonical wire object.
///
/// # Errors
///
/// The first structural problem, as text.
pub fn decode_status(value: &Value) -> Result<RemoteStatus, DecodeError> {
    match req(value, "kind")? {
        "ok" => Ok(RemoteStatus::Ok),
        "degraded" => Ok(RemoteStatus::Degraded {
            error: req(value, "error")?,
            retryable: req(value, "retryable")?,
            retried_at: req(value, "retried_at")?,
        }),
        "failed" => Ok(RemoteStatus::Failed {
            error: req(value, "error")?,
            retryable: req(value, "retryable")?,
        }),
        other => Err(format!("unknown status kind {other:?}")),
    }
}

/// Interns a log-target name back to `&'static str`. Known targets map
/// to their static literals; novel ones are leaked once into a global
/// cache — the set of targets is a small fixed vocabulary, so the leak
/// is bounded.
fn intern_target(name: &str) -> &'static str {
    const KNOWN: [&str; 4] = ["run", "suite", "supervisor", "worker"];
    if let Some(known) = KNOWN.iter().find(|k| **k == name) {
        return known;
    }
    static CACHE: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut cache = CACHE.lock().unwrap_or_else(|p| p.into_inner());
    if let Some(hit) = cache.iter().find(|t| **t == name) {
        return hit;
    }
    let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
    cache.push(leaked);
    leaked
}

fn decode_log_record(value: &Value) -> Result<LogRecord, DecodeError> {
    Ok(LogRecord {
        level: LogLevel::parse(req(value, "level")?)?,
        target: intern_target(req(value, "target")?),
        message: req(value, "message")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_uarch::TopDownModel;

    fn sample_run() -> WorkloadRun {
        WorkloadRun {
            workload: "alberta.3".to_owned(),
            report: TopDownReport {
                ratios: TopDownRatios {
                    front_end: 0.125,
                    back_end: 0.5,
                    bad_speculation: 0.0625,
                    retiring: 0.3125,
                },
                cycles: 12345.678,
                retired_ops: u64::MAX - 7,
                ipc: 2.5,
                mispredict_rate: 0.01,
                mispredicts_per_kops: 10.5,
                l1d_miss_ratio: 0.02,
                l2_miss_ratio: 0.3,
                l3_miss_ratio: 0.125,
                dtlb_miss_ratio: 0.001,
                icache_miss_ratio: 0.0,
                predictor: "gshare",
                memory: MemoryProfile {
                    l1_mpki: 6.25,
                    l2_mpki: 1.875,
                    l3_mpki: 0.25,
                    row_hit_rate: 0.75,
                    dram_bytes: 4096.0,
                    footprint_lines: 321,
                    footprint_pages: 17,
                    mpki_curve: vec![
                        MpkiPoint {
                            size_bytes: 16 * 1024,
                            mpki: 7.5,
                        },
                        MpkiPoint {
                            size_bytes: 32 * 1024,
                            mpki: 6.25,
                        },
                    ],
                },
            },
            coverage: [("kernel".to_owned(), 62.5), ("main".to_owned(), 37.5)]
                .into_iter()
                .collect(),
            paths: PathTable::from_rows(vec![
                PathRow {
                    path: "main".to_owned(),
                    calls: 1,
                    exclusive: 3,
                    inclusive: 100,
                },
                PathRow {
                    path: "main;kernel".to_owned(),
                    calls: 42,
                    exclusive: 97,
                    inclusive: 97,
                },
            ]),
            work: 4096,
            checksum: 0xDEAD_BEEF_CAFE_F00D,
            sampling: Some(SamplingStats {
                interval_work: 1024,
                intervals: 9,
                clusters: 3,
                detailed_ops: 3072,
                total_ops: 9216,
            }),
        }
    }

    #[test]
    fn config_round_trips() {
        let reference = TopDownModel::reference();
        let config = WorkerConfig {
            mode: WorkerMode::Resilient,
            scale: Scale::Train,
            sampling: SampleConfig {
                work_budget: Some(1 << 40),
                fault: Some(ProfilerFault::PanicAtEvent(17)),
                ..SampleConfig::default()
            },
            policy: SamplingPolicy::phase(),
            machine: *reference.config(),
            predictor: reference.predictor(),
            faults: FaultPlan::new(9)
                .inject("mcf", "train", FaultKind::MalformedWorkload)
                .inject(
                    "xz",
                    "refrate",
                    FaultKind::WorkerCrash {
                        attempts: 1,
                        clean: true,
                    },
                )
                .inject("lbm", "alberta.1", FaultKind::WorkerHang { attempts: 2 })
                .inject("gcc", "train", FaultKind::ResultCorrupt { attempts: 3 }),
            deadline_work: Some(1 << 30),
            beat_ms: 40,
        };
        let line = SupervisorMsg::Config(Box::new(config.clone())).encode();
        assert!(!line.contains('\n'));
        let SupervisorMsg::Config(decoded) = SupervisorMsg::decode(&line).unwrap() else {
            panic!("expected a config message");
        };
        assert_eq!(decoded.mode, config.mode);
        assert_eq!(decoded.scale, config.scale);
        assert_eq!(decoded.sampling, config.sampling);
        assert_eq!(decoded.policy, config.policy);
        assert_eq!(decoded.machine, config.machine);
        assert_eq!(decoded.predictor, config.predictor);
        assert_eq!(decoded.faults, config.faults);
        assert_eq!(decoded.deadline_work, config.deadline_work);
        assert_eq!(decoded.beat_ms, config.beat_ms);
    }

    #[test]
    fn config_rejects_a_profiler_no_run_can_use() {
        let line = |sampling: SampleConfig| {
            let reference = TopDownModel::reference();
            SupervisorMsg::Config(Box::new(WorkerConfig {
                mode: WorkerMode::Strict,
                scale: Scale::Test,
                sampling,
                policy: SamplingPolicy::Full,
                machine: *reference.config(),
                predictor: reference.predictor(),
                faults: FaultPlan::new(0),
                deadline_work: None,
                beat_ms: 40,
            }))
            .encode()
        };
        let zero_capacity = SampleConfig {
            trace_capacity: 0,
            ..SampleConfig::default()
        };
        let zero_interval = SampleConfig {
            interval_work: Some(0),
            ..SampleConfig::default()
        };
        for (sampling, field) in [
            (zero_capacity, "trace_capacity"),
            (zero_interval, "interval_work"),
        ] {
            let err = SupervisorMsg::decode(&line(sampling))
                .err()
                .unwrap_or_else(|| panic!("{field} 0 must be rejected"));
            assert!(
                err.contains(&format!("{field:?} must be positive")),
                "{err}"
            );
        }
        assert!(SupervisorMsg::decode(&line(SampleConfig::default())).is_ok());
    }

    #[test]
    fn task_and_shutdown_round_trip() {
        let task = TaskMsg {
            id: 19,
            benchmark: "deepsjeng".to_owned(),
            workload: "alberta.7".to_owned(),
            attempt: 2,
            request: Some("storm-m1#4".to_owned()),
        };
        let line = SupervisorMsg::Task(task.clone()).encode();
        let SupervisorMsg::Task(decoded) = SupervisorMsg::decode(&line).unwrap() else {
            panic!("expected a task message");
        };
        assert_eq!(decoded, task);
        // Unlabeled tasks (plain sweeps) omit the field entirely.
        let bare = TaskMsg {
            request: None,
            ..task
        };
        let line = SupervisorMsg::Task(bare.clone()).encode();
        assert!(!line.contains("request"));
        let SupervisorMsg::Task(decoded) = SupervisorMsg::decode(&line).unwrap() else {
            panic!("expected a task message");
        };
        assert_eq!(decoded, bare);
        assert!(matches!(
            SupervisorMsg::decode(&SupervisorMsg::Shutdown.encode()).unwrap(),
            SupervisorMsg::Shutdown
        ));
    }

    #[test]
    fn result_round_trips_with_exact_measurements() {
        let run = sample_run();
        let result = TaskResult {
            id: 3,
            status: RemoteStatus::Degraded {
                error: "benchmark mcf panicked while running \"train\": boom".to_owned(),
                retryable: true,
                retried_at: Scale::Test,
            },
            run: Some(run.clone()),
            retries: 1,
            budget_consumed: 9216,
            logs: vec![LogRecord {
                level: LogLevel::Warn,
                target: "run",
                message: "mcf/train: retrying\nwith a newline".to_owned(),
            }],
            request: Some("e2e#11".to_owned()),
        };
        let line = WorkerMsg::Result(Box::new(result.clone())).encode();
        assert!(!line.contains('\n'), "framing must stay line-delimited");
        let WorkerMsg::Result(decoded) = WorkerMsg::decode(&line).unwrap() else {
            panic!("expected a result message");
        };
        assert_eq!(decoded.id, result.id);
        assert_eq!(decoded.status, result.status);
        assert_eq!(decoded.retries, result.retries);
        assert_eq!(decoded.budget_consumed, result.budget_consumed);
        assert_eq!(decoded.logs, result.logs);
        assert_eq!(decoded.request, result.request);
        let decoded_run = decoded.run.expect("run survived");
        assert_eq!(decoded_run.workload, run.workload);
        assert_eq!(decoded_run.checksum, run.checksum);
        assert_eq!(decoded_run.work, run.work);
        assert_eq!(decoded_run.report.retired_ops, run.report.retired_ops);
        assert_eq!(
            decoded_run.report.cycles.to_bits(),
            run.report.cycles.to_bits()
        );
        assert_eq!(
            decoded_run.report.ratios.front_end.to_bits(),
            run.report.ratios.front_end.to_bits()
        );
        assert_eq!(decoded_run.report.predictor, run.report.predictor);
        assert_eq!(decoded_run.coverage, run.coverage);
        assert_eq!(decoded_run.paths.rows(), run.paths.rows());
        assert_eq!(decoded_run.sampling, run.sampling);
    }

    #[test]
    fn statuses_rehydrate_as_remote_errors_with_verbatim_text() {
        let original = RunStatus::Failed {
            error: BenchError::Panicked {
                benchmark: "mcf",
                workload: "train".to_owned(),
                message: "boom".to_owned(),
            },
        };
        let wire = RemoteStatus::from_status(&original);
        let rehydrated = wire.into_status("mcf");
        let (RunStatus::Failed { error: a }, RunStatus::Failed { error: b }) =
            (&original, &rehydrated)
        else {
            panic!("statuses must stay Failed");
        };
        assert_eq!(a.to_string(), b.to_string(), "rendered text is preserved");
        assert_eq!(a.is_retryable(), b.is_retryable());
        assert_eq!(b.benchmark(), "mcf");
    }

    #[test]
    fn hello_and_beat_round_trip() {
        let line = WorkerMsg::Hello {
            protocol: PROTOCOL_VERSION,
        }
        .encode();
        assert!(matches!(
            WorkerMsg::decode(&line).unwrap(),
            WorkerMsg::Hello {
                protocol: PROTOCOL_VERSION
            }
        ));
        let line = WorkerMsg::Beat { id: 77 }.encode();
        assert!(matches!(
            WorkerMsg::decode(&line).unwrap(),
            WorkerMsg::Beat { id: 77 }
        ));
    }

    #[test]
    fn garbled_lines_are_rejected() {
        assert!(WorkerMsg::decode("").is_err());
        assert!(WorkerMsg::decode("{\"type\":\"result\",\"id\":3,\"status\":").is_err());
        assert!(WorkerMsg::decode("{\"type\":\"nonsense\"}").is_err());
        assert!(SupervisorMsg::decode("[1,2,3]").is_err());
    }

    #[test]
    fn log_targets_intern_to_static_names() {
        assert_eq!(intern_target("run"), "run");
        let novel = intern_target("custom-target");
        assert_eq!(novel, "custom-target");
        // The same novel target interns to the same leaked allocation.
        assert!(std::ptr::eq(
            novel.as_ptr(),
            intern_target("custom-target").as_ptr()
        ));
    }
}
