//! Hand-rolled HTTP/1.1 responder serving the live observability
//! plane — zero dependencies, one thread, `std::net` only.
//!
//! [`MetricsServer::bind`] spawns a single accept thread over a
//! [`std::net::TcpListener`] that answers three `GET` routes:
//!
//! * `/metrics` — Prometheus text exposition
//!   ([`expo::render`]) of a point-in-time
//!   snapshot captured under one supervisor lock acquisition,
//! * `/healthz` — `ok` liveness probe,
//! * `/report` — the current [`MonitorReport`](crate::MonitorReport)
//!   as pretty-printed JSON.
//!
//! Scrapes are **read-only**: the handler only ever calls pure
//! supervisor accessors (via [`ExpoSnapshot::capture`]), so attaching
//! a scraper leaves reports, traces, digests and checkpoints
//! byte-identical to an unscraped run. The one observable side effect
//! is deliberate and off the data plane: each `/metrics` hit bumps a
//! process-local scrape counter and, when an
//! [`EventBus`] is attached to the supervisor,
//! publishes [`OpEvent::MetricsScraped`](crate::OpEvent) — the bus is
//! observational by contract.
//!
//! Requests are handled serially on the accept thread: a scrape
//! renders in microseconds, and serialising scrapes keeps the lock
//! pressure on the drain plane bounded by one snapshot at a time.
use crate::bridge::SharedSupervisor;
use crate::bus::{EventBus, OpEvent};
use crate::expo::{self, ExpoSnapshot};
use crate::pool::PoolStatsHandle;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Largest request head (request line + headers) we will buffer.
const MAX_REQUEST_BYTES: usize = 8 * 1024;

/// A live `/metrics` + `/healthz` + `/report` endpoint over a shared
/// supervisor. Dropping (or [`MetricsServer::shutdown`]) stops the
/// accept thread and releases its supervisor handle, so a daemon can
/// still reclaim the supervisor with
/// [`SharedSupervisor::try_into_inner`] afterwards.
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    scrapes: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for MetricsServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsServer")
            .field("addr", &self.addr)
            .field("scrapes", &self.scrapes())
            .finish_non_exhaustive()
    }
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`; port `0` picks a free
    /// port — read it back with [`MetricsServer::local_addr`]) and
    /// spawns the responder thread. `drain` supplies the optional
    /// steal/park gauges of a consumer pool.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure (address in use, permission, …).
    pub fn bind(
        addr: SocketAddr,
        shared: SharedSupervisor,
        drain: Option<PoolStatsHandle>,
    ) -> io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let scrapes = Arc::new(AtomicU64::new(0));
        let bus = shared.with(|s| s.bus().cloned());
        let handle = {
            let stop = Arc::clone(&stop);
            let scrapes = Arc::clone(&scrapes);
            std::thread::Builder::new()
                .name("rejuv-metrics".to_owned())
                .spawn(move || serve(&listener, &stop, &scrapes, &shared, drain.as_ref(), &bus))?
        };
        Ok(MetricsServer {
            addr,
            stop,
            scrapes,
            handle: Some(handle),
        })
    }

    /// The actually-bound address (resolves port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// `/metrics` requests served so far.
    pub fn scrapes(&self) -> u64 {
        self.scrapes.load(Ordering::Relaxed)
    }

    /// Stops accepting, joins the responder thread and drops its
    /// supervisor handle. Equivalent to dropping the server; provided
    /// for explicit sequencing before
    /// [`SharedSupervisor::try_into_inner`].
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = handle.join();
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Accept loop: serially answer connections until `stop` flips.
fn serve(
    listener: &TcpListener,
    stop: &AtomicBool,
    scrapes: &AtomicU64,
    shared: &SharedSupervisor,
    drain: Option<&PoolStatsHandle>,
    bus: &Option<Arc<EventBus>>,
) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => {
                if stop.load(Ordering::SeqCst) {
                    return;
                }
                continue;
            }
        };
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let _ = handle_connection(stream, scrapes, shared, drain, bus);
    }
}

/// Reads one request head off the stream, up to the terminating blank
/// line or [`MAX_REQUEST_BYTES`].
fn read_request_head(stream: &mut TcpStream) -> io::Result<String> {
    let mut buf = Vec::with_capacity(512);
    let mut chunk = [0u8; 512];
    loop {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            break;
        }
        buf.extend_from_slice(&chunk[..n]);
        if buf.windows(4).any(|w| w == b"\r\n\r\n") || buf.len() >= MAX_REQUEST_BYTES {
            break;
        }
    }
    Ok(String::from_utf8_lossy(&buf).into_owned())
}

/// Parses the request line and serves the matching route.
fn handle_connection(
    mut stream: TcpStream,
    scrapes: &AtomicU64,
    shared: &SharedSupervisor,
    drain: Option<&PoolStatsHandle>,
    bus: &Option<Arc<EventBus>>,
) -> io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let head = read_request_head(&mut stream)?;
    let request_line = head.lines().next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts.next().unwrap_or("");
    let path = parts.next().unwrap_or("");
    let path = path.split('?').next().unwrap_or(path);

    if method != "GET" {
        return respond(
            &mut stream,
            "405 Method Not Allowed",
            "text/plain; charset=utf-8",
            "method not allowed\n",
        );
    }
    match path {
        "/metrics" => {
            let serial = scrapes.fetch_add(1, Ordering::Relaxed) + 1;
            let pool_stats = drain.and_then(|d| d.stats());
            // One lock acquisition: every series in the body describes
            // the same instant.
            let body = shared.with(|s| {
                let mut snap = ExpoSnapshot::capture(s).with_scrapes(serial);
                if let Some(stats) = &pool_stats {
                    snap = snap.with_drain(stats);
                }
                expo::render(&snap)
            });
            if let Some(bus) = bus {
                bus.publish(OpEvent::MetricsScraped { serial });
            }
            respond(
                &mut stream,
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                &body,
            )
        }
        "/healthz" => respond(&mut stream, "200 OK", "text/plain; charset=utf-8", "ok\n"),
        "/report" => {
            let report = shared.report();
            let body =
                serde_json::to_string_pretty(&report).unwrap_or_else(|_| "{}".to_owned()) + "\n";
            respond(
                &mut stream,
                "200 OK",
                "application/json; charset=utf-8",
                &body,
            )
        }
        _ => respond(
            &mut stream,
            "404 Not Found",
            "text/plain; charset=utf-8",
            "not found\n",
        ),
    }
}

/// Writes a full HTTP/1.1 response and closes the connection.
fn respond(stream: &mut TcpStream, status: &str, content_type: &str, body: &str) -> io::Result<()> {
    let head = format!(
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::tests::sraa;
    use crate::supervisor::{Supervisor, SupervisorConfig};

    fn shared_supervisor() -> SharedSupervisor {
        SharedSupervisor::new(
            Supervisor::with_specs(SupervisorConfig::default(), &[sraa()]).unwrap(),
        )
    }

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        let (head, body) = response
            .split_once("\r\n\r\n")
            .expect("response has a blank line");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn serves_metrics_healthz_report_and_404() {
        let shared = shared_supervisor();
        let server = MetricsServer::bind("127.0.0.1:0".parse().unwrap(), shared.clone(), None)
            .expect("bind an ephemeral port");
        let addr = server.local_addr();

        let (head, body) = get(addr, "/healthz");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert_eq!(body, "ok\n");

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"));
        crate::expo::lint(&body).expect("served body lints clean");
        assert!(body.contains("rejuv_exposition_scrapes_total 1"));

        let (_, body) = get(addr, "/metrics");
        assert!(body.contains("rejuv_exposition_scrapes_total 2"));

        let (head, body) = get(addr, "/report");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        let report: crate::supervisor::MonitorReport =
            serde_json::from_str(&body).expect("report parses");
        assert_eq!(report.shards.len(), 1);

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        assert_eq!(server.scrapes(), 2);
        server.shutdown();
        // With the responder's handle gone the supervisor is
        // reclaimable again.
        assert!(shared.try_into_inner().is_ok());
    }

    #[test]
    fn bind_failure_surfaces_as_io_error() {
        let occupied = TcpListener::bind("127.0.0.1:0").expect("pre-bind");
        let addr = occupied.local_addr().unwrap();
        let err = MetricsServer::bind(addr, shared_supervisor(), None);
        assert!(err.is_err(), "second bind of {addr} must fail");
    }

    #[test]
    fn non_get_methods_are_rejected() {
        let server = MetricsServer::bind("127.0.0.1:0".parse().unwrap(), shared_supervisor(), None)
            .expect("bind");
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        write!(stream, "POST /metrics HTTP/1.1\r\nHost: x\r\n\r\n").expect("send");
        let mut response = String::new();
        stream.read_to_string(&mut response).expect("read");
        assert!(response.starts_with("HTTP/1.1 405"), "{response}");
    }
}
