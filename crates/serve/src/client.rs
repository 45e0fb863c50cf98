//! A blocking client for the query protocol — the substrate of
//! `dim query` and of tests.

use std::io;
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::{Duration, Instant};

use dim_cluster::wire::{protocol_err, read_frame, write_frame};
use dim_cluster::Backoff;

use crate::auth::Credentials;
use crate::proto::{
    decode_response_batch, encode_batch, spread_estimate, QueryRequest, QueryResponse,
    SketchStats, REQ_BATCH, RESP_BATCH,
};

/// A constrained top-k reply, with the spread estimate precomputed.
#[derive(Clone, Debug, PartialEq)]
pub struct TopKResult {
    /// Selected seeds, in selection order (forced includes first).
    pub seeds: Vec<u32>,
    /// Marginal coverage of each seed at its application point.
    pub marginals: Vec<u64>,
    /// RR sets covered by the full seed set.
    pub covered: u64,
    /// Estimated influence spread `n · covered / θ`.
    pub spread: f64,
}

/// Retry policy for [`QueryClient::connect_with`]: keep attempting until
/// `deadline` elapses, sleeping a jittered exponential backoff between
/// attempts (50 ms doubling to a 2 s cap) — the same shape as the cluster
/// rendezvous join path, so a client riding out a server restart behaves
/// like a (re)joining worker. With `credentials` set, every successful
/// connect authenticates before the client is handed back, so callers
/// never see a half-open tenant connection.
#[derive(Clone, Debug)]
pub struct ConnectOptions {
    /// Total time to keep retrying before giving up.
    pub deadline: Duration,
    /// Tenant credentials for a multi-tenant server; `None` for
    /// single-tenant servers (no AUTH handshake).
    pub credentials: Option<Credentials>,
}

impl Default for ConnectOptions {
    fn default() -> Self {
        ConnectOptions {
            deadline: Duration::from_secs(10),
            credentials: None,
        }
    }
}

/// First backoff delay of [`QueryClient::connect_with`]; doubles per failed
/// attempt up to [`MAX_DELAY`].
const BASE_DELAY: Duration = Duration::from_millis(50);
/// Backoff cap.
const MAX_DELAY: Duration = Duration::from_secs(2);
/// Seed for the jitter stream.
const JITTER_SEED: u64 = 0x51ce_5eed;

/// One connection to a [`crate::Server`]. Requests are answered in order
/// over a single stream; open one client per thread for parallel load.
pub struct QueryClient {
    stream: TcpStream,
}

impl QueryClient {
    /// Connects to a running server (single attempt). Use
    /// [`QueryClient::connect_with`] to ride out a restarting server.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<QueryClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(QueryClient { stream })
    }

    /// Connects with retries: failed attempts back off with jitter until
    /// `options.deadline` elapses, then the last error is returned. A
    /// load-shed server accepts and then closes — that surfaces as an
    /// error on first use, not here, so shed clients don't hammer the
    /// accept queue.
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        options: &ConnectOptions,
    ) -> io::Result<QueryClient> {
        // Resolve once: per-attempt resolution would charge DNS latency
        // against the retry budget.
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        if addrs.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "address resolved to nothing",
            ));
        }
        let deadline = Instant::now() + options.deadline;
        let mut backoff = Backoff::new(BASE_DELAY, MAX_DELAY, JITTER_SEED);
        loop {
            let attempt = QueryClient::connect(&addrs[..]).and_then(|mut client| {
                if let Some(creds) = &options.credentials {
                    client.authenticate(creds)?;
                }
                Ok(client)
            });
            match attempt {
                Ok(client) => return Ok(client),
                // A typed rejection (wrong token, unknown tenant,
                // protocol mismatch) will not heal with time — fail now
                // instead of hammering the server until the deadline.
                Err(e) if e.kind() == io::ErrorKind::InvalidData => return Err(e),
                Err(e) => {
                    let delay = backoff.next_delay();
                    let now = Instant::now();
                    if now + delay >= deadline {
                        return Err(e);
                    }
                    std::thread::sleep(delay);
                }
            }
        }
    }

    /// Authenticates this connection as a tenant (the first frame on a
    /// connection to a multi-tenant server). Returns the generation the
    /// connection will query. Typed server rejections (wrong token,
    /// unknown tenant) surface as errors carrying the server's message.
    pub fn authenticate(&mut self, credentials: &Credentials) -> io::Result<u64> {
        match self.expect(&credentials.auth_request())? {
            QueryResponse::AuthOk { tenant, generation } => {
                if tenant != credentials.tenant {
                    return Err(protocol_err(&format!(
                        "server scoped us to tenant {tenant:?}, asked for {:?}",
                        credentials.tenant
                    )));
                }
                Ok(generation)
            }
            other => Err(protocol_err(&format!("unexpected reply {other:?}"))),
        }
    }

    /// Sends one request and decodes the reply. A server-side
    /// [`QueryResponse::Error`] comes back as `Ok(Error { .. })`; wire
    /// failures and undecodable replies are `Err`.
    pub fn request(&mut self, req: &QueryRequest) -> io::Result<QueryResponse> {
        write_frame(&mut self.stream, req.opcode(), &req.encode())?;
        let (opcode, body) = read_frame(&mut self.stream)?;
        QueryResponse::decode(opcode, &body)
            .ok_or_else(|| protocol_err(&format!("malformed response (opcode {opcode:#04x})")))
    }

    fn expect(&mut self, req: &QueryRequest) -> io::Result<QueryResponse> {
        match self.request(req)? {
            QueryResponse::Error { code, message } => {
                Err(protocol_err(&format!("server error {code}: {message}")))
            }
            resp => Ok(resp),
        }
    }

    /// Sends a pipelined batch in one frame and returns the replies in
    /// request order. Per-query failures come back as
    /// [`QueryResponse::Error`] entries; only wire-level failures are
    /// `Err`. Empty input short-circuits without touching the wire.
    pub fn batch(&mut self, requests: &[QueryRequest]) -> io::Result<Vec<QueryResponse>> {
        if requests.is_empty() {
            return Ok(Vec::new());
        }
        write_frame(&mut self.stream, REQ_BATCH, &encode_batch(requests))?;
        let (opcode, body) = read_frame(&mut self.stream)?;
        if opcode != RESP_BATCH {
            // A batch-level failure (e.g. malformed frame) is one error
            // response.
            return match QueryResponse::decode(opcode, &body) {
                Some(QueryResponse::Error { code, message }) => {
                    Err(protocol_err(&format!("server error {code}: {message}")))
                }
                _ => Err(protocol_err(&format!(
                    "unexpected batch reply (opcode {opcode:#04x})"
                ))),
            };
        }
        let replies = decode_response_batch(&body)
            .ok_or_else(|| protocol_err("malformed batch response"))?;
        if replies.len() != requests.len() {
            return Err(protocol_err(&format!(
                "batch reply count {} != request count {}",
                replies.len(),
                requests.len()
            )));
        }
        Ok(replies)
    }

    /// Coverage and estimated spread of an arbitrary seed set.
    pub fn spread(&mut self, seeds: &[u32]) -> io::Result<(u64, f64)> {
        match self.expect(&QueryRequest::Spread {
            seeds: seeds.to_vec(),
        })? {
            QueryResponse::Spread {
                covered,
                theta,
                num_nodes,
            } => Ok((covered, spread_estimate(covered, theta, num_nodes))),
            other => Err(protocol_err(&format!("unexpected reply {other:?}"))),
        }
    }

    /// Constrained top-k selection (see
    /// [`dim_coverage::constrained_greedy`] for the semantics).
    pub fn top_k(&mut self, k: u32, include: &[u32], exclude: &[u32]) -> io::Result<TopKResult> {
        match self.expect(&QueryRequest::TopK {
            k,
            include: include.to_vec(),
            exclude: exclude.to_vec(),
        })? {
            QueryResponse::TopK {
                seeds,
                marginals,
                covered,
                theta,
                num_nodes,
            } => Ok(TopKResult {
                seeds,
                marginals,
                covered,
                spread: spread_estimate(covered, theta, num_nodes),
            }),
            other => Err(protocol_err(&format!("unexpected reply {other:?}"))),
        }
    }

    /// Sketch statistics — also the health check.
    pub fn stats(&mut self) -> io::Result<SketchStats> {
        match self.expect(&QueryRequest::Stats)? {
            QueryResponse::Stats(s) => Ok(s),
            other => Err(protocol_err(&format!("unexpected reply {other:?}"))),
        }
    }

    /// Admin: ask the server to hot-swap to the latest committed store
    /// generation. Returns `(generation, changed)`.
    pub fn reload(&mut self) -> io::Result<(u64, bool)> {
        match self.expect(&QueryRequest::Reload)? {
            QueryResponse::Reload {
                generation,
                changed,
            } => Ok((generation, changed)),
            other => Err(protocol_err(&format!("unexpected reply {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn connect_with_gives_up_at_deadline() {
        // A port nothing listens on: bind-then-drop reserves one.
        let addr = {
            let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap()
        };
        let start = Instant::now();
        let options = ConnectOptions {
            deadline: Duration::from_millis(300),
            credentials: None,
        };
        assert!(QueryClient::connect_with(addr, &options).is_err());
        let elapsed = start.elapsed();
        assert!(elapsed < Duration::from_secs(5), "kept retrying: {elapsed:?}");
    }

    #[test]
    fn connect_with_succeeds_once_server_appears() {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        // Accept in the background so the TCP handshake completes.
        let accept = std::thread::spawn(move || listener.accept().map(|_| ()));
        let client = QueryClient::connect_with(addr, &ConnectOptions::default());
        assert!(client.is_ok());
        accept.join().unwrap().unwrap();
    }
}
