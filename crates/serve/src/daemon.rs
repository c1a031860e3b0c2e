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
//! Shutdown closes the registry, so a member still waiting for its
//! group ends its connection instead of holding up `run`.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use alberta_core::{log_warn, request_label, Plane};

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
    /// Set at shutdown: a member still waiting returns without a batch.
    closed: bool,
}

/// The group rendezvous in progress, by group id.
#[derive(Default)]
struct Groups {
    open: HashMap<String, Arc<Group>>,
    /// Set at shutdown: no member joins a group after it.
    closed: bool,
}

/// The characterization daemon.
pub struct Daemon {
    listener: TcpListener,
    engine: Arc<Engine>,
    groups: Arc<Mutex<Groups>>,
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
            groups: Arc::new(Mutex::new(Groups::default())),
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
    /// contained to their connection. On shutdown every connection
    /// still open is shut down, so a handler blocked reading from an
    /// idle client sees end-of-file, and every group rendezvous is
    /// closed, so a member waiting for the rest of its group returns;
    /// then `run` returns.
    pub fn run(self) {
        let addr = self.listener.local_addr().ok();
        let open = OpenConnections::default();
        std::thread::scope(|scope| {
            for (id, stream) in self.listener.incoming().enumerate() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                let registered = match open.register(id, &stream) {
                    Ok(registered) => registered,
                    Err(e) => {
                        log_warn!("daemon", "dropping connection: {e}");
                        continue;
                    }
                };
                let engine = Arc::clone(&self.engine);
                let groups = Arc::clone(&self.groups);
                let shutdown = Arc::clone(&self.shutdown);
                scope.spawn(move || {
                    let _registered = registered;
                    // A broken connection only loses that client.
                    let _ = handle_connection(stream, &engine, &groups, &shutdown, addr);
                });
            }
            open.shut_down_all();
            close_groups(&self.groups);
        });
    }
}

/// Closes the group registry and every group in it, waking the members
/// that wait in [`drain_grouped`].
fn close_groups(groups: &Mutex<Groups>) {
    // Collected first: the last member of a group locks the registry
    // while it holds its group's lock.
    let open: Vec<Arc<Group>> = {
        let mut registry = groups.lock().expect("group registry poisoned");
        registry.closed = true;
        registry.open.values().cloned().collect()
    };
    for group in open {
        group.inner.lock().expect("group poisoned").closed = true;
        group.cv.notify_all();
    }
}

/// The connections whose handlers are still running, each by a clone
/// of its stream, so that shutdown can close them from the accept loop.
#[derive(Default)]
struct OpenConnections {
    // Every update is a single insert or remove, so a panic elsewhere
    // never leaves the map half-updated: a poisoned lock is recovered.
    streams: Mutex<BTreeMap<usize, TcpStream>>,
}

impl OpenConnections {
    /// Records connection `id`, returning the guard that forgets it when
    /// its handler ends.
    ///
    /// # Errors
    ///
    /// Any I/O error from cloning the stream.
    fn register(&self, id: usize, stream: &TcpStream) -> io::Result<Registered<'_>> {
        let clone = stream.try_clone()?;
        self.lock().insert(id, clone);
        Ok(Registered { id, open: self })
    }

    /// Shuts down both directions of every registered connection.
    fn shut_down_all(&self) {
        for stream in self.lock().values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<usize, TcpStream>> {
        self.streams.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Removes its connection from [`OpenConnections`] when the handler
/// ends, by return or by panic.
struct Registered<'a> {
    id: usize,
    open: &'a OpenConnections,
}

impl Drop for Registered<'_> {
    fn drop(&mut self) {
        self.open.lock().remove(&self.id);
    }
}

/// Drives one connection from handshake to EOF.
fn handle_connection(
    stream: TcpStream,
    engine: &Engine,
    groups: &Mutex<Groups>,
    shutdown: &AtomicBool,
    addr: Option<std::net::SocketAddr>,
) -> io::Result<()> {
    let (mut reader, mut writer) = wire::split(stream)?;

    let mut line = String::new();
    if !next_line(&mut reader, &mut writer, &mut line)? {
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

    // Requests are labeled and tokenized at receipt: the client minted
    // the id, the hello named the client, and the group (when any)
    // fixes the member index — nothing about the label depends on when
    // the drain happens.
    let member = group.as_ref().map_or(0, |info| info.member);
    let mut pending: Vec<BatchRequest> = Vec::new();
    loop {
        if !next_line(&mut reader, &mut writer, &mut line)? {
            return Ok(());
        }
        match ClientMsg::decode(line.trim_end()) {
            Ok(ClientMsg::Request { id, spec }) => pending.push(BatchRequest {
                token: (member, id),
                request: request_label(&client, id),
                spec: *spec,
            }),
            Ok(ClientMsg::Drain) => {
                let batch = std::mem::take(&mut pending);
                let responses = match &group {
                    None => engine.resolve_batch(&batch),
                    Some(info) => match drain_grouped(engine, groups, info, batch) {
                        Some(responses) => responses,
                        // The daemon is shutting down.
                        None => return Ok(()),
                    },
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
/// the same group id. `None` when the daemon shuts down before this
/// member's share is resolved.
fn drain_grouped(
    engine: &Engine,
    groups: &Mutex<Groups>,
    info: &GroupInfo,
    pending: Vec<BatchRequest>,
) -> Option<Vec<ResolvedRequest>> {
    let group = {
        let mut registry = groups.lock().expect("group registry poisoned");
        if registry.closed {
            return None;
        }
        Arc::clone(registry.open.entry(info.id.clone()).or_insert_with(|| {
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
        if inner.closed {
            return None;
        }
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
            .open
            .remove(&info.id);
    }
    Some(mine)
}

/// Reads a client's next line into `line`. `Ok(false)` ends the
/// connection: the client closed it, or sent a line the wire refuses
/// (over [`wire::MAX_LINE_BYTES`], or not UTF-8), which is answered
/// with an error first.
fn next_line(
    reader: &mut impl BufRead,
    writer: &mut TcpStream,
    line: &mut String,
) -> io::Result<bool> {
    match wire::read_line(reader, line) {
        Ok(n) => Ok(n > 0),
        Err(e) if e.kind() == io::ErrorKind::InvalidData => {
            log_warn!("daemon", "closing connection: {e}");
            let message = e.to_string();
            send(writer, &ServerMsg::Error { id: 0, message })?;
            Ok(false)
        }
        Err(e) => Err(e),
    }
}

fn send(writer: &mut TcpStream, msg: &ServerMsg) -> io::Result<()> {
    wire::send_line(writer, msg.encode())
}
