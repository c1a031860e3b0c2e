//! The `alberta-serve` daemon: a TCP accept loop over the wire
//! protocol.
//!
//! Each connection gets its own handler thread that reads messages,
//! buffers requests, and on `Drain` resolves them through the shared
//! [`Engine`]. Grouped connections rendezvous in a registry: the drain
//! of every member blocks until the whole group has drained, the last
//! member resolves the union as one batch, and each member then writes
//! its own share in request-id order. The batch a group's requests
//! resolve in — and therefore every counter the storm gates on — is a
//! function of the group's contents alone, never of socket timing.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use alberta_core::telemetry::{request_label, Plane};
use alberta_core::{log_info, log_warn};

use crate::engine::{BatchRequest, Engine, ResolvedRequest};
use crate::wire::{self, ClientMsg, GroupInfo, ServerMsg, WIRE_VERSION};

/// A group rendezvous: members park their requests here and wait for
/// the union batch to resolve.
struct Group {
    size: u64,
    inner: Mutex<GroupInner>,
    cv: Condvar,
}

#[derive(Default)]
struct GroupInner {
    /// Drained members' pending requests (already labeled and
    /// tokenized), by member index.
    drained: BTreeMap<u64, Vec<BatchRequest>>,
    /// Resolved responses, partitioned by member index.
    results: Option<BTreeMap<u64, Vec<ResolvedRequest>>>,
    /// Members that have collected their share.
    picked: u64,
}

/// The characterization daemon.
pub struct Daemon {
    listener: TcpListener,
    engine: Arc<Engine>,
    groups: Arc<Mutex<HashMap<String, Arc<Group>>>>,
    shutdown: Arc<AtomicBool>,
}

impl Daemon {
    /// Binds to `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    ///
    /// # Errors
    ///
    /// Any I/O error from binding.
    pub fn bind(addr: &str, engine: Engine) -> io::Result<Daemon> {
        Ok(Daemon {
            listener: TcpListener::bind(addr)?,
            engine: Arc::new(engine),
            groups: Arc::new(Mutex::new(HashMap::new())),
            shutdown: Arc::new(AtomicBool::new(false)),
        })
    }

    /// The bound address.
    ///
    /// # Errors
    ///
    /// Any I/O error from querying the socket.
    pub fn local_addr(&self) -> io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves connections until a client sends `Shutdown`. Each
    /// connection is handled on its own thread; handler panics are
    /// contained to their connection.
    pub fn run(self) {
        let addr = self.listener.local_addr().ok();
        std::thread::scope(|scope| {
            for stream in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let engine = Arc::clone(&self.engine);
                let groups = Arc::clone(&self.groups);
                let shutdown = Arc::clone(&self.shutdown);
                scope.spawn(move || {
                    // A broken connection only loses that client.
                    let _ = handle_connection(stream, &engine, &groups, &shutdown, addr);
                });
            }
        });
    }
}

/// Drives one connection from handshake to EOF.
fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    groups: &Mutex<HashMap<String, Arc<Group>>>,
    shutdown: &AtomicBool,
    addr: Option<std::net::SocketAddr>,
) -> io::Result<()> {
    let (mut reader, mut writer) = wire::split(stream)?;

    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Ok(());
    }
    let (client, group) = match ClientMsg::decode(line.trim_end()) {
        Ok(ClientMsg::Hello {
            protocol,
            client,
            group,
        }) if protocol == WIRE_VERSION => (client.unwrap_or_else(|| "anon".to_owned()), group),
        Ok(ClientMsg::Hello { protocol, .. }) => {
            log_warn!(
                "daemon",
                "rejected connection: client speaks protocol {protocol}, daemon speaks \
                 {WIRE_VERSION}"
            );
            send(
                &mut writer,
                &ServerMsg::Error {
                    id: 0,
                    message: format!(
                        "protocol mismatch: client speaks {protocol}, daemon speaks {WIRE_VERSION}"
                    ),
                },
            )?;
            return Ok(());
        }
        _ => {
            send(
                &mut writer,
                &ServerMsg::Error {
                    id: 0,
                    message: "expected hello".to_owned(),
                },
            )?;
            return Ok(());
        }
    };
    send(
        &mut writer,
        &ServerMsg::Hello {
            protocol: WIRE_VERSION,
        },
    )?;
    engine
        .metrics()
        .inc(Plane::Volatile, "alberta_connections_total", 1);
    match &group {
        Some(info) => log_info!(
            "daemon",
            "client {client:?} connected (group {:?}, member {}/{})",
            info.id,
            info.member,
            info.size
        ),
        None => log_info!("daemon", "client {client:?} connected"),
    }

    // Requests are labeled and tokenized at receipt: the client minted
    // the id, the hello named the client, and the group (when any)
    // fixes the member index — nothing about the label depends on when
    // the drain happens.
    let member = group.as_ref().map_or(0, |info| info.member);
    let mut pending: Vec<BatchRequest> = Vec::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(());
        }
        match ClientMsg::decode(line.trim_end()) {
            Ok(ClientMsg::Request { id, spec }) => pending.push(BatchRequest {
                token: (member, id),
                request: request_label(&client, id),
                spec: *spec,
            }),
            Ok(ClientMsg::Drain) => {
                log_info!(
                    "daemon",
                    "client {client:?} drains {} request(s)",
                    pending.len()
                );
                let responses = match &group {
                    None => engine.resolve_batch(&std::mem::take(&mut pending)),
                    Some(info) => drain_grouped(engine, groups, info, std::mem::take(&mut pending)),
                };
                let count = responses.len() as u64;
                for resolved in responses {
                    let msg = match resolved.result {
                        Ok(body) => ServerMsg::Response {
                            id: resolved.token.1,
                            counts: resolved.counts,
                            body,
                        },
                        Err(message) => ServerMsg::Error {
                            id: resolved.token.1,
                            message,
                        },
                    };
                    send(&mut writer, &msg)?;
                }
                send(&mut writer, &ServerMsg::Drained { responses: count })?;
            }
            Ok(ClientMsg::Metrics) => {
                send(
                    &mut writer,
                    &ServerMsg::Metrics {
                        document: engine.metrics_document().to_value(),
                    },
                )?;
            }
            Ok(ClientMsg::Spans) => {
                send(
                    &mut writer,
                    &ServerMsg::Spans {
                        spans: engine.spans_value(),
                    },
                )?;
            }
            Ok(ClientMsg::Shutdown) => {
                log_info!("daemon", "client {client:?} requested shutdown");
                shutdown.store(true, Ordering::SeqCst);
                send(&mut writer, &ServerMsg::Bye)?;
                // Unblock the accept loop so `run` can observe the flag.
                if let Some(addr) = addr {
                    let _ = TcpStream::connect(addr);
                }
                return Ok(());
            }
            Ok(ClientMsg::Hello { .. }) => {
                send(
                    &mut writer,
                    &ServerMsg::Error {
                        id: 0,
                        message: "duplicate hello".to_owned(),
                    },
                )?;
            }
            Err(message) => {
                send(&mut writer, &ServerMsg::Error { id: 0, message })?;
            }
        }
    }
}

/// A grouped drain: park this member's requests, resolve the union once
/// the whole group has drained, and return this member's share. The
/// last member to pick up retires the group, so a later storm can reuse
/// the same group id.
fn drain_grouped(
    engine: &Engine,
    groups: &Mutex<HashMap<String, Arc<Group>>>,
    info: &GroupInfo,
    pending: Vec<BatchRequest>,
) -> Vec<ResolvedRequest> {
    let group = {
        let mut registry = groups.lock().expect("group registry poisoned");
        Arc::clone(registry.entry(info.id.clone()).or_insert_with(|| {
            Arc::new(Group {
                size: info.size,
                inner: Mutex::new(GroupInner::default()),
                cv: Condvar::new(),
            })
        }))
    };

    let mut inner = group.inner.lock().expect("group poisoned");
    inner.drained.insert(info.member, pending);
    if inner.drained.len() as u64 == group.size {
        // Last member in: resolve the union on this thread while the
        // others wait.
        let batch: Vec<BatchRequest> = std::mem::take(&mut inner.drained)
            .into_values()
            .flatten()
            .collect();
        drop(inner);
        let resolved = engine.resolve_batch(&batch);
        let mut partitioned: BTreeMap<u64, Vec<ResolvedRequest>> = BTreeMap::new();
        for response in resolved {
            partitioned
                .entry(response.token.0)
                .or_default()
                .push(response);
        }
        inner = group.inner.lock().expect("group poisoned");
        inner.results = Some(partitioned);
        group.cv.notify_all();
    }
    while inner.results.is_none() {
        inner = group.cv.wait(inner).expect("group poisoned");
    }
    let mine = inner
        .results
        .as_mut()
        .expect("results just observed")
        .remove(&info.member)
        .unwrap_or_default();
    inner.picked += 1;
    if inner.picked == group.size {
        inner.results = None;
        inner.picked = 0;
        groups
            .lock()
            .expect("group registry poisoned")
            .remove(&info.id);
    }
    mine
}

fn send(writer: &mut TcpStream, msg: &ServerMsg) -> io::Result<()> {
    wire::send_line(writer, msg.encode())
}
