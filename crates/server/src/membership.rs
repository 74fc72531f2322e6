//! Worker membership: heartbeat-based failure detection.
//!
//! Workers register with the coordinator by sending `{"op":"join",
//! "addr":…}` and keep re-sending it on a timer — the join *is* the
//! heartbeat.  The coordinator marks a worker dead when its last
//! heartbeat is older than the configured window, or immediately when
//! a dial fails (a refused connection is faster evidence than a
//! missed timer).  Death is not eviction: a worker that heartbeats
//! again after being declared dead rejoins, and the coordinator's
//! join acknowledgement tells it so, which is the cue to warm its
//! cache shard from peers via [`crate::gossip`].

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct WorkerState {
    last_seen: Instant,
    alive: bool,
    /// Jobs the worker admits before it sheds.
    capacity: usize,
}

/// The coordinator's live view of its worker fleet.
#[derive(Debug, Default)]
pub struct Membership {
    workers: Mutex<HashMap<String, WorkerState>>,
}

impl Membership {
    /// An empty membership table.
    #[must_use]
    pub fn new() -> Membership {
        Membership::default()
    }

    /// Records a heartbeat from `addr`, and its `capacity` when it
    /// announces one (an unknown worker's defaults to 0).  Returns
    /// `true` when this is a *rejoin* — the worker was previously
    /// unknown or declared dead — which is the caller's cue to suggest
    /// cache warming.
    pub fn heartbeat(&self, addr: &str, capacity: Option<usize>) -> bool {
        let mut workers = self.workers.lock().expect("membership lock");
        let state = workers.entry(addr.to_string()).or_insert(WorkerState {
            last_seen: Instant::now(),
            alive: false,
            capacity: 0,
        });
        let rejoined = !state.alive;
        state.last_seen = Instant::now();
        state.alive = true;
        state.capacity = capacity.unwrap_or(state.capacity);
        rejoined
    }

    /// Declares every worker whose last heartbeat is older than
    /// `fail_after` dead.  Returns the addresses that died in this
    /// sweep (for re-dispatch of their work units).
    pub fn sweep(&self, fail_after: Duration) -> Vec<String> {
        let mut workers = self.workers.lock().expect("membership lock");
        let now = Instant::now();
        let mut died = Vec::new();
        for (addr, state) in workers.iter_mut() {
            if state.alive && now.duration_since(state.last_seen) > fail_after {
                state.alive = false;
                died.push(addr.clone());
            }
        }
        died.sort();
        died
    }

    /// Declares `addr` dead right now (a failed dial).
    pub fn mark_dead(&self, addr: &str) {
        if let Some(state) = self
            .workers
            .lock()
            .expect("membership lock")
            .get_mut(addr)
        {
            state.alive = false;
        }
    }

    /// The alive worker addresses, sorted (a stable input for ring
    /// construction).
    #[must_use]
    pub fn alive(&self) -> Vec<String> {
        let workers = self.workers.lock().expect("membership lock");
        let mut alive: Vec<String> = workers
            .iter()
            .filter(|(_, s)| s.alive)
            .map(|(a, _)| a.clone())
            .collect();
        alive.sort();
        alive
    }

    /// The jobs the alive workers admit before they shed, summed.
    #[must_use]
    pub fn capacity(&self) -> usize {
        let workers = self.workers.lock().expect("membership lock");
        workers.values().filter(|s| s.alive).map(|s| s.capacity).sum()
    }

    /// `(alive, dead)` counts.
    #[must_use]
    pub fn counts(&self) -> (usize, usize) {
        let workers = self.workers.lock().expect("membership lock");
        let alive = workers.values().filter(|s| s.alive).count();
        (alive, workers.len() - alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joins_heartbeats_and_rejoins() {
        let m = Membership::new();
        assert!(m.heartbeat("w1", None), "first contact is a join");
        assert!(!m.heartbeat("w1", None), "repeat heartbeat is not a rejoin");
        m.mark_dead("w1");
        assert_eq!(m.alive(), Vec::<String>::new());
        assert!(m.heartbeat("w1", None), "heartbeat after death is a rejoin");
        assert_eq!(m.alive(), ["w1"]);
        assert!(m.heartbeat("w2", Some(18)));
        assert!(!m.heartbeat("w2", None), "a plain heartbeat keeps the capacity");
        assert_eq!(m.capacity(), 18);
        m.mark_dead("w2");
        assert_eq!(m.capacity(), 0, "only alive workers count");
    }

    #[test]
    fn sweep_kills_only_stale_workers() {
        let m = Membership::new();
        m.heartbeat("w1", None);
        m.heartbeat("w2", None);
        assert_eq!(m.sweep(Duration::from_secs(60)), Vec::<String>::new());
        std::thread::sleep(Duration::from_millis(30));
        m.heartbeat("w2", None); // w2 stays fresh
        assert_eq!(m.sweep(Duration::from_millis(20)), ["w1"]);
        assert_eq!(m.alive(), ["w2"]);
        assert_eq!(m.counts(), (1, 1));
        // A second sweep reports nothing new.
        assert_eq!(m.sweep(Duration::from_millis(20)), Vec::<String>::new());
    }
}
