//! Token-addressed exploration histories with TTL eviction.
//!
//! Every `POST /sessions` creates a [`WireSession`] — the dataset it
//! explores and an [`atlas_explorer::History`] of what each step showed — and
//! hands back an opaque token. A wire session owns no engine: each explore or
//! drill runs on the dataset's current snapshot (through its shared result
//! cache), so after an append the next step sees the new rows while the
//! history keeps every step as it was answered. Requests address the session
//! by token; a session idle longer than the TTL is evicted on the next sweep,
//! and when the table is full the least recently used session makes room —
//! the server never grows without bound.
//!
//! Sessions are stored behind per-session mutexes, so two requests for the
//! *same* token serialise while requests for different tokens proceed in
//! parallel.

use atlas_explorer::History;
use std::collections::hash_map::RandomState;
use std::collections::BTreeMap;
use std::hash::BuildHasher;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// A live wire session: what a client explores and what it was shown.
pub struct WireSession {
    /// The dataset this session explores.
    pub dataset: String,
    /// The steps answered so far, each as the client saw it.
    pub history: History,
    /// Last time a request touched this session.
    pub last_used: Instant,
}

/// Aggregate counters for `/metrics`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionCounters {
    /// Sessions currently alive.
    pub live: usize,
    /// Sessions created since boot.
    pub created: u64,
    /// Sessions evicted (TTL or capacity) since boot.
    pub evicted: u64,
}

/// The token-addressed session table.
pub struct SessionManager {
    ttl: Duration,
    max_sessions: usize,
    sessions: Mutex<BTreeMap<String, Arc<Mutex<WireSession>>>>,
    counter: AtomicU64,
    created: AtomicU64,
    evicted: AtomicU64,
    /// Per-process random key folded into tokens so they are not guessable
    /// across server restarts.
    token_key: u64,
}

impl SessionManager {
    /// A manager evicting sessions idle for `ttl`, holding at most
    /// `max_sessions` (at least 1) at a time.
    pub fn new(ttl: Duration, max_sessions: usize) -> SessionManager {
        SessionManager {
            ttl,
            max_sessions: max_sessions.max(1),
            sessions: Mutex::new(BTreeMap::new()),
            counter: AtomicU64::new(1),
            created: AtomicU64::new(0),
            evicted: AtomicU64::new(0),
            // `RandomState` is seeded from the OS per process; hashing a
            // constant through it yields a process-unique key without any
            // extra deps.
            token_key: RandomState::new().hash_one(0xA71A5u64),
        }
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<String, Arc<Mutex<WireSession>>>> {
        match self.sessions.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    fn next_token(&self) -> String {
        let n = self.counter.fetch_add(1, Ordering::Relaxed);
        // Mix the counter with the process key (splitmix64 finaliser) so
        // tokens look opaque while staying collision-free per process.
        let mut x = n ^ self.token_key;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        format!("s{n:x}-{x:016x}")
    }

    /// Register a new session over `dataset`, returning its token. Evicts
    /// expired sessions first; if the table is still full, the least recently
    /// used session is evicted to make room.
    pub fn create(&self, dataset: impl Into<String>) -> String {
        self.evict_expired();
        let token = self.next_token();
        let wire = Arc::new(Mutex::new(WireSession {
            dataset: dataset.into(),
            history: History::new(),
            last_used: Instant::now(),
        }));
        let mut sessions = self.lock();
        while sessions.len() >= self.max_sessions {
            // Evict the least recently used session. Entries whose lock is
            // held are in use right now and are skipped.
            let victim = lru_victim(sessions.iter().filter_map(|(token, slot)| {
                slot.try_lock().ok().map(|s| (token.clone(), s.last_used))
            }));
            match victim {
                Some(token) => {
                    sessions.remove(&token);
                    self.evicted.fetch_add(1, Ordering::Relaxed);
                }
                None => break, // every session is busy; admit anyway
            }
        }
        sessions.insert(token.clone(), wire);
        self.created.fetch_add(1, Ordering::Relaxed);
        token
    }

    /// Look up a session by token, refreshing its recency. Returns `None`
    /// for unknown tokens and for sessions whose TTL has expired (which are
    /// removed on the spot).
    pub fn get(&self, token: &str) -> Option<Arc<Mutex<WireSession>>> {
        let mut sessions = self.lock();
        let slot = Arc::clone(sessions.get(token)?);
        // A busy session (lock held by a concurrent request) is by
        // definition not expired.
        if let Ok(mut session) = slot.try_lock() {
            if session.last_used.elapsed() > self.ttl {
                drop(session);
                sessions.remove(token);
                self.evicted.fetch_add(1, Ordering::Relaxed);
                return None;
            }
            session.last_used = Instant::now();
        }
        Some(slot)
    }

    /// Remove a session explicitly (`DELETE /sessions/:id`).
    pub fn remove(&self, token: &str) -> bool {
        self.lock().remove(token).is_some()
    }

    /// Drop every session idle longer than the TTL; returns how many went.
    pub fn evict_expired(&self) -> usize {
        let mut sessions = self.lock();
        let before = sessions.len();
        // A busy session (lock held by a concurrent request) is by
        // definition not expired.
        sessions.retain(|_, slot| {
            slot.try_lock()
                .map_or(true, |session| session.last_used.elapsed() <= self.ttl)
        });
        let expired = before - sessions.len();
        self.evicted.fetch_add(expired as u64, Ordering::Relaxed);
        expired
    }

    /// Current counters.
    pub fn counters(&self) -> SessionCounters {
        SessionCounters {
            live: self.lock().len(),
            created: self.created.load(Ordering::Relaxed),
            evicted: self.evicted.load(Ordering::Relaxed),
        }
    }
}

/// Pick the LRU eviction victim under a **total** order: ties on `last_used`
/// (coarse clocks make same-instant sessions routine) break by token.
///
/// The session table walks its candidates in token order, so the smallest
/// token would win a tie anyway; the explicit tie-break keeps the pick a
/// function of the candidates alone, whatever order they arrive in —
/// eviction decides which tokens later requests can still resolve.
fn lru_victim(candidates: impl Iterator<Item = (String, Instant)>) -> Option<String> {
    candidates
        .min_by(|a, b| a.1.cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
        .map(|(token, _)| token)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokens_are_unique_and_resolvable() {
        let manager = SessionManager::new(Duration::from_secs(60), 16);
        let a = manager.create("census");
        let b = manager.create("census");
        assert_ne!(a, b);
        assert!(manager.get(&a).is_some());
        assert!(manager.get(&b).is_some());
        assert!(manager.get("sdeadbeef").is_none());
        assert_eq!(manager.counters().live, 2);
        assert_eq!(manager.counters().created, 2);
    }

    #[test]
    fn ttl_eviction_removes_idle_sessions() {
        let manager = SessionManager::new(Duration::from_millis(30), 16);
        let token = manager.create("census");
        assert!(manager.get(&token).is_some());
        std::thread::sleep(Duration::from_millis(60));
        // Either path notices the expiry: an explicit sweep or a lookup.
        assert_eq!(manager.evict_expired(), 1);
        assert!(manager.get(&token).is_none());
        assert_eq!(manager.counters().live, 0);
        assert_eq!(manager.counters().evicted, 1);
    }

    #[test]
    fn lookup_of_an_expired_token_evicts_it() {
        let manager = SessionManager::new(Duration::from_millis(30), 16);
        let token = manager.create("census");
        std::thread::sleep(Duration::from_millis(60));
        assert!(manager.get(&token).is_none());
        assert_eq!(manager.counters().evicted, 1);
    }

    #[test]
    fn capacity_evicts_the_least_recently_used_session() {
        let manager = SessionManager::new(Duration::from_secs(60), 2);
        let a = manager.create("census");
        let b = manager.create("census");
        // Touch `a` so `b` becomes the LRU victim.
        std::thread::sleep(Duration::from_millis(5));
        assert!(manager.get(&a).is_some());
        let c = manager.create("census");
        assert!(manager.get(&a).is_some(), "recently used survives");
        assert!(manager.get(&b).is_none(), "LRU session was evicted");
        assert!(manager.get(&c).is_some());
        assert_eq!(manager.counters().live, 2);
    }

    #[test]
    fn lru_victim_tie_break_does_not_depend_on_iteration_order() {
        // Regression: ties on `last_used` were once broken by HashMap
        // iteration order, so the evicted session varied per process.
        let now = Instant::now();
        let forward = [("s2".to_string(), now), ("s1".to_string(), now)];
        let reverse = [("s1".to_string(), now), ("s2".to_string(), now)];
        assert_eq!(lru_victim(forward.into_iter()), Some("s1".to_string()));
        assert_eq!(lru_victim(reverse.into_iter()), Some("s1".to_string()));
        // A strictly older session still wins over the token order.
        let older = now - Duration::from_millis(10);
        let mixed = [("s1".to_string(), now), ("s9".to_string(), older)];
        assert_eq!(lru_victim(mixed.into_iter()), Some("s9".to_string()));
        assert_eq!(lru_victim(std::iter::empty()), None);
    }

    #[test]
    fn remove_is_idempotent() {
        let manager = SessionManager::new(Duration::from_secs(60), 4);
        let token = manager.create("census");
        assert!(manager.remove(&token));
        assert!(!manager.remove(&token));
        assert!(manager.get(&token).is_none());
    }
}
