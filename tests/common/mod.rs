//! What the chaos, distributed and trace suites share: [`FaultProxy`], the
//! one place a fault is injected between a coordinator and a shard — on the
//! network, where real faults happen, so a shard server answers only its
//! protocol.
//!
//! A proxy listens on its own port and forwards to one shard. It serves each
//! connection's requests in turn, keep-alive included, since the
//! coordinator reuses its idle connection to a shard: the proxy reads a
//! request, replays it to the shard on a connection of its own with the same
//! method, path, headers and body (and `Connection: close`), reads the reply
//! to EOF, and relays it framed for the downstream connection — spoiled by
//! the next [`Fault`] of its plan, taken per request in the order the
//! requests arrive. A fault that answers completely (`None`, `Delay`,
//! `Error`, `Corrupt`) leaves the connection open for the next request; one
//! that breaks it (`Refuse`, `Kill`, `Truncate`, `Garbage`) closes it.

#![allow(
    dead_code,
    reason = "each suite compiles this module and arms only the faults it needs"
)]

use atlas::serve::http::{self, Response};
use atlas::serve::wire::Json;
use atlas::serve::ServerHandle;
use std::collections::VecDeque;
use std::io::{BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a proxy does to the request that consumes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Forward unchanged (an explicit pass-through slot in a plan).
    None,
    /// Sleep this many milliseconds, then forward.
    Delay(u64),
    /// Close the connection without answering.
    Refuse,
    /// Answer a synthetic error with this status, without asking the shard.
    Error(u16),
    /// Relay only the first `keep_per_mille`/1000 of the shard's reply
    /// bytes, then close the connection.
    Truncate(u16),
    /// Relay the shard's `/shard/select` count reply with its first count —
    /// the first cut's first region — one higher: the cut then counts a row
    /// more than the shard's working rows when it partitions them. A reply
    /// without counts passes unchanged.
    Corrupt,
    /// Answer bytes that are not HTTP, then close the connection.
    Garbage,
    /// Hang up on this request and every later one until re-armed.
    Kill,
}

impl Fault {
    /// The fault as the chaos suite's plan journal records it.
    pub fn to_json(&self) -> Json {
        let kind = |name: &str| ("fault", Json::from(name));
        Json::object(match self {
            Fault::None => vec![kind("none")],
            Fault::Delay(ms) => vec![kind("delay"), ("ms", Json::from(*ms))],
            Fault::Refuse => vec![kind("refuse")],
            Fault::Error(status) => vec![kind("error"), ("status", Json::from(u64::from(*status)))],
            Fault::Truncate(keep) => vec![
                kind("truncate"),
                ("keep_per_mille", Json::from(u64::from(*keep))),
            ],
            Fault::Corrupt => vec![kind("corrupt")],
            Fault::Garbage => vec![kind("garbage")],
            Fault::Kill => vec![kind("kill")],
        })
    }
}

/// How long the proxy waits for a request, and for the shard's whole reply:
/// far above every timeout a suite gives its coordinator.
const PATIENCE: Duration = Duration::from_secs(60);

/// The largest request or reply body the proxy reads, far above any a suite
/// sends.
const MAX_BODY: usize = 64 << 20;

/// The armed plan: each request pops the front entry; a consumed
/// [`Fault::Kill`] sets `dead`, which only the next [`FaultProxy::arm`]
/// clears.
#[derive(Default)]
struct Plan {
    faults: VecDeque<Fault>,
    dead: bool,
}

/// A fault-injecting TCP proxy in front of one shard server.
pub struct FaultProxy {
    addr: SocketAddr,
    plan: Arc<Mutex<Plan>>,
    stop: Arc<AtomicBool>,
    accepted: Arc<AtomicUsize>,
    acceptor: Option<JoinHandle<()>>,
}

impl FaultProxy {
    /// Listen on an ephemeral local port, forwarding to `shard`, with
    /// nothing armed.
    pub fn start(shard: SocketAddr) -> FaultProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("the proxy binds");
        let addr = listener.local_addr().expect("a bound proxy has an address");
        let plan = Arc::new(Mutex::new(Plan::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let accepted = Arc::new(AtomicUsize::new(0));
        let acceptor = {
            let (plan, stop, accepted) =
                (Arc::clone(&plan), Arc::clone(&stop), Arc::clone(&accepted));
            std::thread::spawn(move || {
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(client) = client else { continue };
                    accepted.fetch_add(1, Ordering::SeqCst);
                    let plan = Arc::clone(&plan);
                    // Detached: a straggling `Delay` must not hold up the
                    // test that armed it, and `relay` has no path that panics.
                    std::thread::spawn(move || relay(client, shard, &plan));
                }
            })
        };
        FaultProxy {
            addr,
            plan,
            stop,
            accepted,
            acceptor: Some(acceptor),
        }
    }

    /// Where coordinators connect instead of the shard.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// How many connections the proxy has accepted.
    pub fn accepted(&self) -> usize {
        self.accepted.load(Ordering::SeqCst)
    }

    /// Replace whatever was armed with `faults`, one per later request, and
    /// revive a killed proxy.
    pub fn arm(&self, faults: Vec<Fault>) {
        let mut plan = lock(&self.plan);
        plan.faults = faults.into();
        plan.dead = false;
    }
}

impl Drop for FaultProxy {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the acceptor so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// One proxy in front of each of `shards`, and the addresses to give a
/// coordinator instead of theirs.
pub fn proxies(shards: &[ServerHandle]) -> (Vec<FaultProxy>, Vec<String>) {
    let proxies: Vec<FaultProxy> = shards
        .iter()
        .map(|shard| FaultProxy::start(shard.addr()))
        .collect();
    let addrs = proxies
        .iter()
        .map(|proxy| proxy.addr().to_string())
        .collect();
    (proxies, addrs)
}

fn lock(plan: &Mutex<Plan>) -> MutexGuard<'_, Plan> {
    match plan.lock() {
        Ok(guard) => guard,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The fault of the next request: the plan's front entry, or `Kill` while
/// the proxy is killed.
fn next_fault(plan: &Mutex<Plan>) -> Fault {
    let mut plan = lock(plan);
    if plan.dead {
        return Fault::Kill;
    }
    let fault = plan.faults.pop_front().unwrap_or(Fault::None);
    plan.dead = fault == Fault::Kill;
    fault
}

/// Serve one connection's requests, each under the next fault of `plan`,
/// until a fault, the client or the shard ends it. Every failure — the
/// client gone, the shard unreachable — ends it by hanging up, as a broken
/// network would.
fn relay(mut client: TcpStream, shard: SocketAddr, plan: &Mutex<Plan>) {
    let _ = client.set_read_timeout(Some(PATIENCE));
    let Ok(reader) = client.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(reader);
    loop {
        let deadline = Instant::now() + PATIENCE;
        let Ok(request) = http::read_request(&mut reader, MAX_BODY, Some(deadline)) else {
            break;
        };
        let fault = next_fault(plan);
        if let Fault::Delay(ms) = fault {
            std::thread::sleep(Duration::from_millis(ms));
        }
        let keep_alive = request.wants_keep_alive();
        // The reply, and whether the connection stays open after it.
        let (reply, open) = match fault {
            Fault::Refuse | Fault::Kill => (None, false),
            Fault::Error(status) => {
                let response = Response::error(status, "injected fault: synthetic shard error");
                let mut bytes = Vec::new();
                // Writing to a Vec cannot fail.
                let _ = http::write_response(&mut bytes, &response, keep_alive);
                (Some(bytes), keep_alive)
            }
            Fault::Garbage => (
                Some(b"\x00\x7fatlas-chaos garbage bytes\r\n\r\n".to_vec()),
                false,
            ),
            Fault::None | Fault::Delay(_) => (
                forward(shard, &request).map(|reply| reframe(reply, keep_alive)),
                keep_alive,
            ),
            Fault::Truncate(keep_per_mille) => {
                let reply = forward(shard, &request).map(|mut reply| {
                    reply.truncate(reply.len() * usize::from(keep_per_mille.min(1000)) / 1000);
                    reply
                });
                (reply, false)
            }
            Fault::Corrupt => (
                forward(shard, &request)
                    .map(|reply| corrupt(reframe(reply, keep_alive), keep_alive)),
                keep_alive,
            ),
        };
        let Some(reply) = reply else {
            break;
        };
        if client
            .write_all(&reply)
            .and_then(|()| client.flush())
            .is_err()
            || !open
        {
            break;
        }
    }
    let _ = client.shutdown(Shutdown::Both);
}

/// Replay `request` to the shard on a connection of its own, closed by the
/// reply, and read the whole reply; `None` when the shard cannot be reached
/// or does not answer in time.
fn forward(shard: SocketAddr, request: &http::Request) -> Option<Vec<u8>> {
    let mut upstream = TcpStream::connect_timeout(&shard, PATIENCE).ok()?;
    upstream.set_read_timeout(Some(PATIENCE)).ok()?;
    let mut head = format!(
        "{} {} HTTP/1.1\r\nConnection: close\r\n",
        request.method, request.path
    );
    for (name, value) in request
        .headers
        .iter()
        .filter(|(name, _)| name != "connection")
    {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    upstream.write_all(head.as_bytes()).ok()?;
    upstream.write_all(&request.body).ok()?;
    let mut reply = Vec::new();
    upstream.read_to_end(&mut reply).ok()?;
    Some(reply)
}

/// `reply` with its `Connection` header saying whether the downstream
/// connection stays open. A reply without a whole head passes unchanged.
fn reframe(reply: Vec<u8>, keep_alive: bool) -> Vec<u8> {
    let Some(end) = reply.windows(4).position(|w| w == b"\r\n\r\n") else {
        return reply;
    };
    let Ok(head) = std::str::from_utf8(&reply[..end]) else {
        return reply;
    };
    let mut out = Vec::with_capacity(reply.len() + 16);
    for line in head.split("\r\n") {
        if !line.to_ascii_lowercase().starts_with("connection:") {
            out.extend_from_slice(line.as_bytes());
            out.extend_from_slice(b"\r\n");
        }
    }
    let connection = if keep_alive { "keep-alive" } else { "close" };
    out.extend_from_slice(format!("Connection: {connection}").as_bytes());
    out.extend_from_slice(&reply[end..]);
    out
}

/// `reply` with its first count one higher (see [`Fault::Corrupt`]),
/// re-encoded for a downstream connection that stays open or not. A reply
/// without counts passes unchanged.
fn corrupt(reply: Vec<u8>, keep_alive: bool) -> Vec<u8> {
    let Ok(response) = http::read_response(&mut reply.as_slice(), MAX_BODY, None) else {
        return reply;
    };
    let Some(mut json) = response.json() else {
        return reply;
    };
    let Some(first) = first_count(&mut json) else {
        return reply;
    };
    *first = Json::from(first.index().unwrap_or(0) + 1);
    let mut out = Vec::new();
    // Writing to a Vec cannot fail.
    let response = Response::json(response.status, &json);
    let _ = http::write_response(&mut out, &response, keep_alive);
    out
}

/// The first count of a count reply: the first cell of its first product.
fn first_count(json: &mut Json) -> Option<&mut Json> {
    let Json::Obj(members) = json else {
        return None;
    };
    let (_, cells) = members.iter_mut().find(|(key, _)| key == "cells")?;
    let Json::Arr(products) = cells else {
        return None;
    };
    let Json::Arr(first) = products.first_mut()? else {
        return None;
    };
    first.first_mut()
}
