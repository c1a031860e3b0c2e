//! A blocking client for the `alberta-serve` wire protocol.

use std::io::{BufRead, BufReader};
use std::net::TcpStream;

use alberta_core::json::Value;
use alberta_report::MetricsDocument;

use crate::engine::ResponseCounts;
use crate::spec::RequestSpec;
use crate::wire::{self, ClientMsg, GroupInfo, ServerMsg, WIRE_VERSION};

/// Anything that can go wrong talking to the daemon, flattened to text.
pub type ClientError = String;

/// One answered request.
#[derive(Debug, Clone)]
pub struct Response {
    /// The request id this answers.
    pub id: u64,
    /// Key-satisfaction counts (zeroed for errors).
    pub counts: ResponseCounts,
    /// The canonical body, or the daemon's error message.
    pub result: Result<Value, String>,
}

/// A connected client. Requests are buffered daemon-side until
/// [`Client::drain`].
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects anonymously (the daemon labels the connection `anon`).
    ///
    /// # Errors
    ///
    /// Connection failures, protocol mismatches, or a malformed
    /// handshake reply.
    pub fn connect(addr: &str, group: Option<GroupInfo>) -> Result<Client, ClientError> {
        Client::connect_named(addr, None, group)
    }

    /// Connects and performs the hello handshake, declaring a client
    /// name (the first half of every request label this connection
    /// mints) and optional group membership.
    ///
    /// # Errors
    ///
    /// Connection failures, protocol mismatches, or a malformed
    /// handshake reply.
    pub fn connect_named(
        addr: &str,
        name: Option<&str>,
        group: Option<GroupInfo>,
    ) -> Result<Client, ClientError> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let (reader, writer) = wire::split(stream).map_err(|e| e.to_string())?;
        let mut client = Client {
            reader,
            writer,
            next_id: 0,
        };
        client.send(&ClientMsg::Hello {
            protocol: WIRE_VERSION,
            client: name.map(str::to_owned),
            group,
        })?;
        match client.receive()? {
            ServerMsg::Hello { protocol } if protocol == WIRE_VERSION => Ok(client),
            ServerMsg::Hello { protocol } => Err(format!(
                "daemon speaks protocol {protocol}, not {WIRE_VERSION}"
            )),
            ServerMsg::Error { message, .. } => Err(message),
            other => Err(format!("unexpected handshake reply: {other:?}")),
        }
    }

    /// Enqueues a request and returns its id.
    ///
    /// # Errors
    ///
    /// Write failures.
    pub fn request(&mut self, spec: &RequestSpec) -> Result<u64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        self.send(&ClientMsg::Request {
            id,
            spec: Box::new(spec.clone()),
        })?;
        Ok(id)
    }

    /// Resolves everything enqueued and returns the responses in
    /// request-id order. For a grouped client this blocks until the
    /// whole group has drained.
    ///
    /// # Errors
    ///
    /// I/O failures or unexpected messages.
    pub fn drain(&mut self) -> Result<Vec<Response>, ClientError> {
        self.send(&ClientMsg::Drain)?;
        let mut responses = Vec::new();
        loop {
            match self.receive()? {
                ServerMsg::Response { id, counts, body } => responses.push(Response {
                    id,
                    counts,
                    result: Ok(body),
                }),
                ServerMsg::Error { id, message } => responses.push(Response {
                    id,
                    counts: ResponseCounts::default(),
                    result: Err(message),
                }),
                ServerMsg::Drained { responses: count } => {
                    if count as usize != responses.len() {
                        return Err(format!(
                            "drain announced {count} responses but sent {}",
                            responses.len()
                        ));
                    }
                    return Ok(responses);
                }
                other => return Err(format!("unexpected message during drain: {other:?}")),
            }
        }
    }

    /// Fetches the engine's two-plane metrics document.
    ///
    /// # Errors
    ///
    /// I/O failures, unexpected messages, or a malformed document.
    pub fn metrics(&mut self) -> Result<MetricsDocument, ClientError> {
        self.send(&ClientMsg::Metrics)?;
        match self.receive()? {
            ServerMsg::Metrics { document } => MetricsDocument::from_value(&document),
            other => Err(format!("unexpected reply to metrics: {other:?}")),
        }
    }

    /// Fetches the engine's ordered span log (a canonical array of span
    /// events).
    ///
    /// # Errors
    ///
    /// I/O failures or unexpected messages.
    pub fn spans(&mut self) -> Result<Value, ClientError> {
        self.send(&ClientMsg::Spans)?;
        match self.receive()? {
            ServerMsg::Spans { spans } => Ok(spans),
            other => Err(format!("unexpected reply to spans: {other:?}")),
        }
    }

    /// Asks the daemon to shut down, consuming the client.
    ///
    /// # Errors
    ///
    /// I/O failures or unexpected messages.
    pub fn shutdown(mut self) -> Result<(), ClientError> {
        self.send(&ClientMsg::Shutdown)?;
        match self.receive()? {
            ServerMsg::Bye => Ok(()),
            other => Err(format!("unexpected reply to shutdown: {other:?}")),
        }
    }

    fn send(&mut self, msg: &ClientMsg) -> Result<(), ClientError> {
        wire::send_line(&mut self.writer, msg.encode()).map_err(|e| format!("send: {e}"))
    }

    fn receive(&mut self) -> Result<ServerMsg, ClientError> {
        let mut line = String::new();
        let n = self
            .reader
            .read_line(&mut line)
            .map_err(|e| format!("receive: {e}"))?;
        if n == 0 {
            return Err("daemon closed the connection".to_owned());
        }
        ServerMsg::decode(line.trim_end())
    }
}
