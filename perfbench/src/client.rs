//! The in-process server and the bounded open-loop client.
//!
//! The server is a `denali-serve` [`Server`] behind a loopback TCP
//! listener that accepts exactly one connection and serves it through
//! the crate's own `serve_lines` transport and worker pool. The client
//! holds that single connection: the calling thread sends
//! id-correlated requests on a fixed schedule (an open loop: a request
//! is sent when it is due, whether or not earlier ones have been
//! answered), and one receiver thread reads the pipelined responses.
//! Latency is timed from each request's scheduled send, so a stall
//! also charges the requests queued behind it; how late the sender ran
//! is reported beside it.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use denali_serve::pool::Pool;
use denali_serve::{Server, ServerConfig};

/// The server side: the shared [`Server`] and the thread serving the
/// one connection.
pub struct ServerHandle {
    /// The server (for direct `handle_line` calls and counters).
    pub server: Arc<Server>,
    thread: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Waits until the connection has closed, the pool has drained and
    /// every follower has answered.
    pub fn join(mut self) {
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// Starts a server on an ephemeral loopback port and connects a client
/// to it.
///
/// # Errors
///
/// Fails if the server cannot be built or the socket cannot be bound
/// or connected.
pub fn start(config: ServerConfig, workers: usize) -> std::io::Result<(ServerHandle, Client)> {
    let queue = config.queue;
    let server = Arc::new(Server::new(config)?);
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let served = Arc::clone(&server);
    let thread = std::thread::Builder::new()
        .name("bench-server".to_owned())
        .spawn(move || {
            let Ok((stream, _)) = listener.accept() else {
                return;
            };
            let _ = stream.set_nodelay(true);
            let Ok(read_half) = stream.try_clone() else {
                return;
            };
            let pool = Pool::with_depth_gauge(
                workers,
                queue,
                Some(Arc::clone(&served.metrics().queue_depth)),
            );
            let out = Arc::new(Mutex::new(stream));
            let _ =
                denali_serve::server::serve_lines(&served, &pool, BufReader::new(read_half), &out);
            // Workers first: finishing leaders is what releases the
            // followers waited on next.
            drop(pool);
            served.drain_followers();
        })?;
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    let client = Client::new(stream)?;
    Ok((
        ServerHandle {
            server,
            thread: Some(thread),
        },
        client,
    ))
}

#[derive(Default)]
struct Inbox {
    responses: HashMap<u64, (Instant, String)>,
    closed: bool,
}

/// One connection: the caller sends, a receiver thread collects.
pub struct Client {
    writer: TcpStream,
    inbox: Arc<(Mutex<Inbox>, Condvar)>,
    receiver: Option<JoinHandle<()>>,
    next_id: u64,
}

/// What one scheduled leg of requests produced, in send order.
pub struct Leg {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Milliseconds from each request's scheduled send to its response.
    pub latency_ms: Vec<f64>,
    /// Milliseconds each request was sent after its scheduled time.
    pub late_ms: Vec<f64>,
    /// Each response line with its `{"v":1,"id":N,` prefix removed, so
    /// that equal requests can be compared byte for byte.
    pub bodies: Vec<String>,
    /// Seconds from the first scheduled send to the last response.
    pub span_s: f64,
}

impl Client {
    fn new(stream: TcpStream) -> std::io::Result<Client> {
        let inbox: Arc<(Mutex<Inbox>, Condvar)> = Arc::default();
        let read_half = stream.try_clone()?;
        let shared = Arc::clone(&inbox);
        let receiver = std::thread::Builder::new()
            .name("bench-receiver".to_owned())
            .spawn(move || {
                let reader = BufReader::new(read_half);
                for line in reader.lines() {
                    let Ok(line) = line else { break };
                    let at = Instant::now();
                    let Some(id) = response_id(&line) else {
                        continue;
                    };
                    let (lock, cond) = &*shared;
                    lock.lock().unwrap().responses.insert(id, (at, line));
                    cond.notify_all();
                }
                let (lock, cond) = &*shared;
                lock.lock().unwrap().closed = true;
                cond.notify_all();
            })?;
        Ok(Client {
            writer: stream,
            inbox,
            receiver: Some(receiver),
            next_id: 1,
        })
    }

    /// Sends `requests` (request objects without an `id`, each as the
    /// text after its opening brace) open-loop at `rate` per second and
    /// waits for every response.
    ///
    /// # Errors
    ///
    /// Fails if the connection breaks or a response does not arrive
    /// within `timeout`.
    pub fn run_leg(
        &mut self,
        requests: &[String],
        rate: f64,
        timeout: Duration,
    ) -> Result<Leg, String> {
        let first = self.next_id;
        self.next_id += requests.len() as u64;
        let interval = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now() + Duration::from_millis(2);
        let mut scheduled = Vec::with_capacity(requests.len());
        let mut late_ms = Vec::with_capacity(requests.len());
        for (i, body) in requests.iter().enumerate() {
            let due = start + interval * i as u32;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let sent = Instant::now();
            let line = format!("{{\"id\":{},{body}\n", first + i as u64);
            self.writer
                .write_all(line.as_bytes())
                .map_err(|e| format!("send failed: {e}"))?;
            scheduled.push(due);
            late_ms.push(sent.saturating_duration_since(due).as_secs_f64() * 1e3);
        }
        let ids = first..first + requests.len() as u64;
        let deadline = Instant::now() + timeout;
        let (lock, cond) = &*self.inbox;
        let mut inbox = lock.lock().unwrap();
        while !ids.clone().all(|id| inbox.responses.contains_key(&id)) {
            if inbox.closed {
                return Err("connection closed before every response arrived".to_owned());
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(format!("responses missing after {timeout:?}"));
            }
            inbox = cond.wait_timeout(inbox, deadline - now).unwrap().0;
        }
        let mut latency_ms = Vec::with_capacity(requests.len());
        let mut bodies = Vec::with_capacity(requests.len());
        let mut last = start;
        for (id, due) in ids.zip(&scheduled) {
            let (at, line) = inbox.responses.remove(&id).expect("checked above");
            latency_ms.push(at.saturating_duration_since(*due).as_secs_f64() * 1e3);
            last = last.max(at);
            let prefix = format!("{{\"v\":1,\"id\":{id},");
            bodies.push(line.strip_prefix(&prefix).unwrap_or(&line).to_owned());
        }
        Ok(Leg {
            rate,
            latency_ms,
            late_ms,
            bodies,
            span_s: last.saturating_duration_since(start).as_secs_f64(),
        })
    }

    /// Closes the sending half and waits for the receiver to see the
    /// server close its end.
    pub fn close(mut self) {
        let _ = self.writer.shutdown(Shutdown::Write);
        if let Some(receiver) = self.receiver.take() {
            let _ = receiver.join();
        }
    }
}

/// The numeric `id` of a response line (`{"v":1,"id":N,...`).
fn response_id(line: &str) -> Option<u64> {
    let rest = line.strip_prefix("{\"v\":1,\"id\":")?;
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_ids_parse() {
        assert_eq!(response_id(r#"{"v":1,"id":42,"status":"ok"}"#), Some(42));
        assert_eq!(response_id(r#"{"v":1,"id":null,"status":"error"}"#), None);
    }
}
