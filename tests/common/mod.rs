//! What the chaos, distributed and trace suites share: [`FaultProxy`], the
//! one place a fault is injected between a coordinator and a shard — on the
//! network, where real faults happen, so a shard server answers only its
//! protocol.
//!
//! A proxy listens on its own port and forwards each connection to one
//! shard. The coordinator's client sends `Connection: close`, so every
//! connection carries one request: the proxy reads it, replays it to the
//! shard with the same method, path, headers and body, reads the reply to
//! EOF, and relays it — spoiled by the next [`Fault`] of its plan, taken in
//! the order the connections arrive.

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
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What a proxy does to the connection that consumes it.
#[derive(Debug, Clone, PartialEq)]
pub enum Fault {
    /// Forward unchanged (an explicit pass-through slot in a plan).
    None,
    /// Sleep this many milliseconds, then forward.
    Delay(u64),
    /// Close without answering.
    Refuse,
    /// Answer a synthetic error with this status, without asking the shard.
    Error(u16),
    /// Relay only the first `keep_per_mille`/1000 of the shard's reply
    /// bytes, then close.
    Truncate(u16),
    /// Relay the shard's `/shard/select` count reply with its first count —
    /// the first cut's first region — one higher: the cut then counts a row
    /// more than the shard's working rows when it partitions them. A reply
    /// without counts passes unchanged.
    Corrupt,
    /// Answer bytes that are not HTTP.
    Garbage,
    /// Hang up on this connection and every later one until re-armed.
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

/// The armed plan: each connection pops the front entry; a consumed
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
        let acceptor = {
            let (plan, stop) = (Arc::clone(&plan), Arc::clone(&stop));
            std::thread::spawn(move || {
                for client in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(client) = client else { continue };
                    // Taken here, in arrival order, before any request is read.
                    let fault = {
                        let mut plan = lock(&plan);
                        if plan.dead {
                            Fault::Kill
                        } else {
                            let fault = plan.faults.pop_front().unwrap_or(Fault::None);
                            plan.dead = fault == Fault::Kill;
                            fault
                        }
                    };
                    // Detached: a straggling `Delay` must not hold up the
                    // test that armed it, and `relay` has no path that panics.
                    std::thread::spawn(move || relay(client, shard, fault));
                }
            })
        };
        FaultProxy {
            addr,
            plan,
            stop,
            acceptor: Some(acceptor),
        }
    }

    /// Where coordinators connect instead of the shard.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Replace whatever was armed with `faults`, one per later connection,
    /// and revive a killed proxy.
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

/// Serve one connection under `fault`. Every failure — the client gone, the
/// shard unreachable — ends it by hanging up, as a broken network would.
fn relay(mut client: TcpStream, shard: SocketAddr, fault: Fault) {
    let _ = client.set_read_timeout(Some(PATIENCE));
    let Ok(reader) = client.try_clone() else {
        return;
    };
    let deadline = Instant::now() + PATIENCE;
    let Ok(request) = http::read_request(&mut BufReader::new(reader), MAX_BODY, Some(deadline))
    else {
        return;
    };
    if let Fault::Delay(ms) = fault {
        std::thread::sleep(Duration::from_millis(ms));
    }
    let reply = match fault {
        Fault::Refuse | Fault::Kill => None,
        Fault::Error(status) => {
            let response = Response::error(status, "injected fault: synthetic shard error");
            let mut bytes = Vec::new();
            // Writing to a Vec cannot fail.
            let _ = http::write_response(&mut bytes, &response, false);
            Some(bytes)
        }
        Fault::Garbage => Some(b"\x00\x7fatlas-chaos garbage bytes\r\n\r\n".to_vec()),
        Fault::None | Fault::Delay(_) => forward(shard, &request),
        Fault::Truncate(keep_per_mille) => forward(shard, &request).map(|mut reply| {
            reply.truncate(reply.len() * usize::from(keep_per_mille.min(1000)) / 1000);
            reply
        }),
        Fault::Corrupt => forward(shard, &request).map(corrupt),
    };
    if let Some(reply) = reply {
        let _ = client.write_all(&reply);
        let _ = client.flush();
    }
    let _ = client.shutdown(Shutdown::Both);
}

/// Replay `request` to the shard and read its whole reply; `None` when the
/// shard cannot be reached or does not answer in time.
fn forward(shard: SocketAddr, request: &http::Request) -> Option<Vec<u8>> {
    let mut upstream = TcpStream::connect_timeout(&shard, PATIENCE).ok()?;
    upstream.set_read_timeout(Some(PATIENCE)).ok()?;
    let mut head = format!("{} {} HTTP/1.1\r\n", request.method, request.path);
    for (name, value) in &request.headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    upstream.write_all(head.as_bytes()).ok()?;
    upstream.write_all(&request.body).ok()?;
    let mut reply = Vec::new();
    upstream.read_to_end(&mut reply).ok()?;
    Some(reply)
}

/// `reply` with its first count one higher (see [`Fault::Corrupt`]),
/// re-encoded. A reply without counts passes unchanged.
fn corrupt(reply: Vec<u8>) -> Vec<u8> {
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
    let _ = http::write_response(&mut out, &Response::json(response.status, &json), false);
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
