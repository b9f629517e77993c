//! A minimal blocking HTTP client for the service: just enough for the
//! load generator, the integration tests and the programmatic example.
//! Reuses one keep-alive connection per [`Client`]; [`Pool`] keeps a few
//! of them per upstream for the forwarding tiers.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One response as the client sees it.
#[derive(Debug, Clone)]
pub struct ClientResponse {
    /// Status code.
    pub status: u16,
    /// Lower-cased header names with values.
    pub headers: Vec<(String, String)>,
    /// Body bytes.
    pub body: Vec<u8>,
}

impl ClientResponse {
    /// First value of a (case-insensitively named) header.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// The body as UTF-8 (lossy).
    pub fn body_string(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive connection to one server.
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr`; connects lazily on the first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client { addr, stream: None }
    }

    fn stream(&mut self) -> std::io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect_timeout(&self.addr, Duration::from_secs(5))?;
            s.set_read_timeout(Some(Duration::from_secs(120)))?;
            s.set_nodelay(true)?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().unwrap())
    }

    /// Issues a `GET`.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None, &[])
    }

    /// Issues a `GET` with extra request headers (see
    /// [`Client::post_with_headers`]). Forwarding tiers use this to
    /// propagate trace context on read paths.
    pub fn get_with_headers(
        &mut self,
        path: &str,
        headers: &[(String, String)],
    ) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None, headers)
    }

    /// Issues a `POST` with a body.
    pub fn post(
        &mut self,
        path: &str,
        content_type: &str,
        body: &[u8],
    ) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some((content_type, body)), &[])
    }

    /// Issues a `POST` with a body and extra request headers (name,
    /// value pairs — names should be lower-case; values must not contain
    /// CR/LF). The cluster router uses this to ride its event cursor
    /// along with fanned-out writes.
    pub fn post_with_headers(
        &mut self,
        path: &str,
        content_type: &str,
        body: &[u8],
        headers: &[(String, String)],
    ) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some((content_type, body)), headers)
    }

    /// Issues a `DELETE`.
    pub fn delete(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("DELETE", path, None, &[])
    }

    /// Issues a `DELETE` with extra request headers (see
    /// [`Client::post_with_headers`]).
    pub fn delete_with_headers(
        &mut self,
        path: &str,
        headers: &[(String, String)],
    ) -> std::io::Result<ClientResponse> {
        self.request("DELETE", path, None, headers)
    }

    /// Whether an error means the server cannot have acted on the
    /// request: the socket broke with **zero** response bytes. The
    /// server answers every request it reads, so silence implies the
    /// request was never read — retrying cannot duplicate work. A
    /// mid-response failure ([`std::io::ErrorKind::UnexpectedEof`]) is
    /// deliberately *not* retriable: the request did run.
    fn is_unprocessed(e: &std::io::Error) -> bool {
        matches!(
            e.kind(),
            std::io::ErrorKind::BrokenPipe
                | std::io::ErrorKind::ConnectionReset
                | std::io::ErrorKind::ConnectionAborted
        )
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<(&str, &[u8])>,
        headers: &[(String, String)],
    ) -> std::io::Result<ClientResponse> {
        let reused = self.stream.is_some();
        match self.request_once(method, path, body, headers) {
            // retry exactly once, and only when a *reused* keep-alive
            // connection (which the server may have closed while idle)
            // failed before the server saw the request
            Err(e) if reused && Self::is_unprocessed(&e) => {
                self.request_once(method, path, body, headers)
            }
            other => other,
        }
    }

    fn request_once(
        &mut self,
        method: &str,
        path: &str,
        body: Option<(&str, &[u8])>,
        headers: &[(String, String)],
    ) -> std::io::Result<ClientResponse> {
        let stream = self.stream()?;
        let mut head = format!("{method} {path} HTTP/1.1\r\nhost: antruss\r\n");
        for (name, value) in headers {
            head.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some((ct, b)) = body {
            head.push_str(&format!(
                "content-type: {ct}\r\ncontent-length: {}\r\n",
                b.len()
            ));
        }
        head.push_str("\r\n");
        let attempt = (|| {
            stream.write_all(head.as_bytes())?;
            if let Some((_, b)) = body {
                stream.write_all(b)?;
            }
            stream.flush()?;
            read_response(stream)
        })();
        let resp = match attempt {
            Ok(r) => r,
            Err(e) => {
                self.stream = None; // never reuse a broken connection
                return Err(e);
            }
        };
        if resp
            .header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
        {
            self.stream = None;
        }
        Ok(resp)
    }
}

/// Idle keep-alive connections a [`Pool`] keeps. The tier above checks
/// one out per forward and returns it on success, so the hot path pays
/// no TCP handshake. Kept small: the upstream dedicates a worker to a
/// connection for as long as it stays open, so every *idle* pooled
/// connection pins an upstream worker — over-pooling would starve small
/// worker pools outright.
const POOL_PER_UPSTREAM: usize = 4;

/// Pooled connections idle longer than this are dropped at checkout
/// instead of reused. Closing them promptly releases the upstream
/// worker each open connection pins, long before the upstream's own
/// 30 s idle deadline would — without this, a burst that opens more
/// connections than the upstream has workers can leave a later request
/// queued behind an *idle* connection for the full deadline.
const POOL_IDLE_MAX: Duration = Duration::from_secs(2);

/// Keep-alive connections to one upstream (a backend behind the router,
/// the router or serving node behind an edge): at most
/// [`POOL_PER_UPSTREAM`] idle, none reused after [`POOL_IDLE_MAX`].
pub struct Pool {
    addr: SocketAddr,
    /// Idle connections, newest last, each stamped with when it went
    /// idle.
    idle: Mutex<Vec<(Client, Instant)>>,
}

impl Pool {
    /// An empty pool for `addr`.
    pub fn new(addr: SocketAddr) -> Pool {
        Pool {
            addr,
            idle: Mutex::new(Vec::new()),
        }
    }

    /// One exchange over a pooled connection (a fresh one when none is
    /// idle). `POST` sends `body` (empty when `None`) as JSON. The
    /// connection returns to the pool on success and is dropped on
    /// failure; the client's single retry covers the idle-close race (a
    /// pooled connection the upstream reaped mid-idle).
    pub fn send(
        &self,
        method: &str,
        path: &str,
        body: Option<&[u8]>,
        headers: &[(String, String)],
    ) -> std::io::Result<ClientResponse> {
        let mut client = self.checkout();
        let body = (method == "POST").then(|| ("application/json", body.unwrap_or_default()));
        let result = client.request(method, path, body, headers);
        if result.is_ok() {
            self.checkin(client);
        }
        result
    }

    fn checkout(&self) -> Client {
        let mut idle = self.idle.lock().expect("upstream pool lock poisoned");
        // retire EVERY over-age connection, not just the newest —
        // entries at the bottom of this LIFO would otherwise sit idle
        // forever, pinning an upstream worker each
        idle.retain(|(_, since)| since.elapsed() < POOL_IDLE_MAX);
        idle.pop()
            .map(|(client, _)| client)
            .unwrap_or_else(|| Client::new(self.addr))
    }

    fn checkin(&self, client: Client) {
        let mut idle = self.idle.lock().expect("upstream pool lock poisoned");
        if idle.len() < POOL_PER_UPSTREAM {
            idle.push((client, Instant::now()));
        }
    }
}

fn read_response(stream: &mut TcpStream) -> std::io::Result<ClientResponse> {
    let mut buf = Vec::new();
    let head_end = loop {
        if let Some(pos) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break pos;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return if buf.is_empty() {
                // closed before any response byte: the server never read
                // the request (idle keep-alive close) — safe to retry
                Err(std::io::Error::new(
                    std::io::ErrorKind::ConnectionAborted,
                    "connection closed before the response",
                ))
            } else {
                Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "connection closed mid-response",
                ))
            };
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).into_owned();
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad status line {status_line:?}"),
            )
        })?;
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let content_length: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .unwrap_or(0);
    let mut body = buf[head_end + 4..].to_vec();
    while body.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(ClientResponse {
        status,
        headers,
        body,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pool() -> Pool {
        Pool::new("127.0.0.1:9".parse().unwrap())
    }

    #[test]
    fn checkin_keeps_at_most_the_cap() {
        let pool = pool();
        for _ in 0..POOL_PER_UPSTREAM + 3 {
            pool.checkin(Client::new(pool.addr));
        }
        assert_eq!(pool.idle.lock().unwrap().len(), POOL_PER_UPSTREAM);
    }

    #[test]
    fn connections_idle_past_the_limit_are_not_handed_out() {
        let pool = pool();
        let stale = Instant::now()
            .checked_sub(POOL_IDLE_MAX + Duration::from_millis(1))
            .expect("monotonic clock has run long enough");
        {
            let mut idle = pool.idle.lock().unwrap();
            for port in [1, 2] {
                let addr = SocketAddr::from(([127, 0, 0, 1], port));
                idle.push((Client::new(addr), stale));
            }
        }
        // both stale entries are retired, and a fresh connection to the
        // pool's own upstream is handed out instead
        assert_eq!(pool.checkout().addr, pool.addr);
        assert!(pool.idle.lock().unwrap().is_empty());

        // a fresh entry below a stale one is reused; the stale one goes
        let fresh = SocketAddr::from(([127, 0, 0, 1], 3));
        {
            let mut idle = pool.idle.lock().unwrap();
            idle.push((Client::new(SocketAddr::from(([127, 0, 0, 1], 4))), stale));
            idle.push((Client::new(fresh), Instant::now()));
        }
        assert_eq!(pool.checkout().addr, fresh);
        assert!(pool.idle.lock().unwrap().is_empty());
    }
}
