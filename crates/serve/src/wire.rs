//! The line-delimited wire protocol between `alberta-serve` and its
//! clients.
//!
//! Every message is one line of compact canonical JSON with a `type`
//! discriminator, mirroring the worker pipe protocol in
//! `alberta_core::protocol`: a versioned hello handshake first, then
//! typed messages. A client optionally declares group membership in its
//! hello; the daemon holds the drain of every member of a group until
//! the whole group has drained, resolves the union as one batch, and
//! answers each member in canonical token order — which is what makes
//! the storm's counters independent of socket arrival order.
//!
//! Both ends frame the stream through `split` and `send_line`: the
//! socket carries `TCP_NODELAY`, and each message goes out with its
//! newline as one buffer in one write. A message split across two
//! writes, or held back by Nagle's algorithm, waits on the peer's
//! delayed ACK — tens of milliseconds per round trip.

use std::io::{self, BufReader, Write};
use std::net::TcpStream;

use alberta_core::json::{self, opt, req, DecodeError, Value};

use crate::engine::ResponseCounts;
use crate::spec::RequestSpec;

/// Wire protocol version; the hello handshake rejects mismatches.
///
/// v2 added the optional `client` name in the hello (the first half of
/// every request label) and the `metrics`/`spans` telemetry commands;
/// v3 retired the `stats` command, whose counters the `metrics`
/// document holds.
pub const WIRE_VERSION: u64 = 3;

/// Prepares a connected stream for the line protocol: sets
/// `TCP_NODELAY` and splits the stream into a buffered line reader and
/// a writer for `send_line`.
///
/// # Errors
///
/// Any I/O error from setting the option or cloning the socket.
pub(crate) fn split(stream: TcpStream) -> io::Result<(BufReader<TcpStream>, TcpStream)> {
    stream.set_nodelay(true)?;
    let writer = stream.try_clone()?;
    Ok((BufReader::new(stream), writer))
}

/// Writes one encoded message and its newline as one buffer.
///
/// # Errors
///
/// Any I/O error from the write.
pub(crate) fn send_line(writer: &mut TcpStream, mut line: String) -> io::Result<()> {
    line.push('\n');
    writer.write_all(line.as_bytes())
}

/// A client's group membership: requests from all `size` members are
/// resolved as one batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupInfo {
    /// Group identity (all members use the same id).
    pub id: String,
    /// Number of members the daemon must wait for.
    pub size: u64,
    /// This member's index, `0..size`; orders the batch.
    pub member: u64,
}

impl GroupInfo {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("id".to_owned(), Value::Str(self.id.clone())),
            ("size".to_owned(), Value::UInt(self.size)),
            ("member".to_owned(), Value::UInt(self.member)),
        ])
    }

    fn from_value(value: &Value) -> Result<Self, DecodeError> {
        Ok(GroupInfo {
            id: req(value, "id")?,
            size: req(value, "size")?,
            member: req(value, "member")?,
        })
    }
}

/// Client-to-daemon messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientMsg {
    /// Handshake; must be the first message on a connection.
    Hello {
        /// The client's [`WIRE_VERSION`].
        protocol: u64,
        /// Self-chosen client name; the first half of every request
        /// label this connection mints (`client#id`). Anonymous
        /// connections are labeled `anon`.
        client: Option<String>,
        /// Optional group membership.
        group: Option<GroupInfo>,
    },
    /// Enqueue a characterization request.
    Request {
        /// Client-chosen id, echoed on the response.
        id: u64,
        /// What to characterize (boxed: the spec dwarfs every other
        /// message).
        spec: Box<RequestSpec>,
    },
    /// Resolve everything enqueued (for a grouped client: wait for the
    /// whole group, then resolve the union) and stream the responses.
    Drain,
    /// Ask for the engine's two-plane metrics document.
    Metrics,
    /// Ask for the engine's ordered span log.
    Spans,
    /// Ask the daemon to stop accepting connections and exit.
    Shutdown,
}

impl ClientMsg {
    /// Encodes to one compact line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            ClientMsg::Hello {
                protocol,
                client,
                group,
            } => {
                let mut fields = vec![
                    ("type".to_owned(), Value::Str("hello".to_owned())),
                    ("protocol".to_owned(), Value::UInt(*protocol)),
                ];
                if let Some(client) = client {
                    fields.push(("client".to_owned(), Value::Str(client.clone())));
                }
                if let Some(group) = group {
                    fields.push(("group".to_owned(), group.to_value()));
                }
                Value::Object(fields)
            }
            ClientMsg::Request { id, spec } => Value::Object(vec![
                ("type".to_owned(), Value::Str("request".to_owned())),
                ("id".to_owned(), Value::UInt(*id)),
                ("spec".to_owned(), spec.to_value()),
            ]),
            ClientMsg::Drain => {
                Value::Object(vec![("type".to_owned(), Value::Str("drain".to_owned()))])
            }
            ClientMsg::Metrics => {
                Value::Object(vec![("type".to_owned(), Value::Str("metrics".to_owned()))])
            }
            ClientMsg::Spans => {
                Value::Object(vec![("type".to_owned(), Value::Str("spans".to_owned()))])
            }
            ClientMsg::Shutdown => {
                Value::Object(vec![("type".to_owned(), Value::Str("shutdown".to_owned()))])
            }
        };
        value.render_compact()
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the problem.
    pub fn decode(line: &str) -> Result<Self, DecodeError> {
        let value = json::parse(line).map_err(|e| format!("malformed message: {e}"))?;
        match req(&value, "type")? {
            "hello" => Ok(ClientMsg::Hello {
                protocol: req(&value, "protocol")?,
                client: opt(&value, "client")?,
                group: value.get("group").map(GroupInfo::from_value).transpose()?,
            }),
            "request" => Ok(ClientMsg::Request {
                id: req(&value, "id")?,
                spec: Box::new(RequestSpec::from_value(req(&value, "spec")?)?),
            }),
            "drain" => Ok(ClientMsg::Drain),
            "metrics" => Ok(ClientMsg::Metrics),
            "spans" => Ok(ClientMsg::Spans),
            "shutdown" => Ok(ClientMsg::Shutdown),
            other => Err(format!("unknown client message type {other:?}")),
        }
    }
}

/// Daemon-to-client messages.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerMsg {
    /// Handshake reply.
    Hello {
        /// The daemon's [`WIRE_VERSION`].
        protocol: u64,
    },
    /// One resolved request.
    Response {
        /// The request id this answers.
        id: u64,
        /// Key-satisfaction counts.
        counts: ResponseCounts,
        /// The canonical body (a run record or a benchmark report).
        body: Value,
    },
    /// One failed request (bad benchmark or workload name).
    Error {
        /// The request id this answers.
        id: u64,
        /// What was wrong.
        message: String,
    },
    /// End of a drain: every enqueued request has been answered.
    Drained {
        /// Responses (including errors) sent before this marker.
        responses: u64,
    },
    /// The engine's two-plane metrics document (a
    /// `alberta_report::MetricsDocument` wire value).
    Metrics {
        /// The document as its canonical wire object.
        document: Value,
    },
    /// The engine's ordered span log (a canonical array of span
    /// events).
    Spans {
        /// The log as its canonical wire array.
        spans: Value,
    },
    /// Acknowledges a shutdown request.
    Bye,
}

impl ServerMsg {
    /// Encodes to one compact line (no trailing newline).
    pub fn encode(&self) -> String {
        let value = match self {
            ServerMsg::Hello { protocol } => Value::Object(vec![
                ("type".to_owned(), Value::Str("hello".to_owned())),
                ("protocol".to_owned(), Value::UInt(*protocol)),
            ]),
            ServerMsg::Response { id, counts, body } => Value::Object(vec![
                ("type".to_owned(), Value::Str("response".to_owned())),
                ("id".to_owned(), Value::UInt(*id)),
                (
                    "counts".to_owned(),
                    Value::Object(vec![
                        ("computed".to_owned(), Value::UInt(counts.computed)),
                        ("cached".to_owned(), Value::UInt(counts.cached)),
                        ("coalesced".to_owned(), Value::UInt(counts.coalesced)),
                        ("failed".to_owned(), Value::UInt(counts.failed)),
                    ]),
                ),
                ("body".to_owned(), body.clone()),
            ]),
            ServerMsg::Error { id, message } => Value::Object(vec![
                ("type".to_owned(), Value::Str("error".to_owned())),
                ("id".to_owned(), Value::UInt(*id)),
                ("message".to_owned(), Value::Str(message.clone())),
            ]),
            ServerMsg::Drained { responses } => Value::Object(vec![
                ("type".to_owned(), Value::Str("drained".to_owned())),
                ("responses".to_owned(), Value::UInt(*responses)),
            ]),
            ServerMsg::Metrics { document } => Value::Object(vec![
                ("type".to_owned(), Value::Str("metrics".to_owned())),
                ("document".to_owned(), document.clone()),
            ]),
            ServerMsg::Spans { spans } => Value::Object(vec![
                ("type".to_owned(), Value::Str("spans".to_owned())),
                ("spans".to_owned(), spans.clone()),
            ]),
            ServerMsg::Bye => {
                Value::Object(vec![("type".to_owned(), Value::Str("bye".to_owned()))])
            }
        };
        value.render_compact()
    }

    /// Decodes one line.
    ///
    /// # Errors
    ///
    /// A [`DecodeError`] naming the problem.
    pub fn decode(line: &str) -> Result<Self, DecodeError> {
        let value = json::parse(line).map_err(|e| format!("malformed message: {e}"))?;
        match req(&value, "type")? {
            "hello" => Ok(ServerMsg::Hello {
                protocol: req(&value, "protocol")?,
            }),
            "response" => {
                let counts: &Value = req(&value, "counts")?;
                Ok(ServerMsg::Response {
                    id: req(&value, "id")?,
                    counts: ResponseCounts {
                        computed: req(counts, "computed")?,
                        cached: req(counts, "cached")?,
                        coalesced: req(counts, "coalesced")?,
                        failed: req(counts, "failed")?,
                    },
                    body: req::<&Value>(&value, "body")?.clone(),
                })
            }
            "error" => Ok(ServerMsg::Error {
                id: req(&value, "id")?,
                message: req(&value, "message")?,
            }),
            "drained" => Ok(ServerMsg::Drained {
                responses: req(&value, "responses")?,
            }),
            "metrics" => Ok(ServerMsg::Metrics {
                document: req::<&Value>(&value, "document")?.clone(),
            }),
            "spans" => Ok(ServerMsg::Spans {
                spans: req::<&Value>(&value, "spans")?.clone(),
            }),
            "bye" => Ok(ServerMsg::Bye),
            other => Err(format!("unknown server message type {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alberta_core::Scale;
    use std::io::BufRead;
    use std::net::TcpListener;

    #[test]
    fn split_sets_nodelay_on_both_ends_and_lines_arrive_whole() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = listener.local_addr().expect("bound address");
        let connected = TcpStream::connect(addr).expect("connect");
        let (accepted, _) = listener.accept().expect("accept");
        let (_, mut client) = split(connected).expect("split the client end");
        let (mut daemon, _) = split(accepted).expect("split the daemon end");
        assert!(client.nodelay().expect("client option"), "client end");
        assert!(
            daemon.get_ref().nodelay().expect("daemon option"),
            "daemon end"
        );

        send_line(&mut client, ClientMsg::Drain.encode()).expect("send");
        let mut line = String::new();
        daemon.read_line(&mut line).expect("receive");
        assert_eq!(line, format!("{}\n", ClientMsg::Drain.encode()));
    }

    #[test]
    fn client_messages_round_trip() {
        let messages = vec![
            ClientMsg::Hello {
                protocol: WIRE_VERSION,
                client: Some("storm-m2".to_owned()),
                group: Some(GroupInfo {
                    id: "storm-1".to_owned(),
                    size: 4,
                    member: 2,
                }),
            },
            ClientMsg::Request {
                id: 7,
                spec: Box::new(RequestSpec::new("mcf", Some("alberta.1"), Scale::Test)),
            },
            ClientMsg::Drain,
            ClientMsg::Metrics,
            ClientMsg::Spans,
            ClientMsg::Shutdown,
        ];
        for msg in messages {
            let line = msg.encode();
            assert!(!line.contains('\n'), "one message, one line");
            assert_eq!(ClientMsg::decode(&line).expect("round trip"), msg);
        }
    }

    #[test]
    fn anonymous_hello_omits_the_client_field() {
        let msg = ClientMsg::Hello {
            protocol: WIRE_VERSION,
            client: None,
            group: None,
        };
        let line = msg.encode();
        assert!(!line.contains("client"), "{line}");
        assert_eq!(ClientMsg::decode(&line).unwrap(), msg);
    }

    #[test]
    fn server_messages_round_trip() {
        let messages = vec![
            ServerMsg::Hello {
                protocol: WIRE_VERSION,
            },
            ServerMsg::Error {
                id: 3,
                message: "unknown benchmark \"nope\"".to_owned(),
            },
            ServerMsg::Drained { responses: 12 },
            ServerMsg::Metrics {
                document: Value::Object(vec![("schema_version".to_owned(), Value::UInt(1))]),
            },
            ServerMsg::Spans {
                spans: Value::Array(vec![Value::Object(vec![(
                    "seq".to_owned(),
                    Value::UInt(0),
                )])]),
            },
            ServerMsg::Bye,
        ];
        for msg in messages {
            let line = msg.encode();
            assert!(!line.contains('\n'), "one message, one line");
            assert_eq!(ServerMsg::decode(&line).expect("round trip"), msg);
        }
    }
}
