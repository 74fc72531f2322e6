//! Worker membership: heartbeat-based failure detection.
//!
//! Workers register with the coordinator by sending `{"op":"join",
//! "addr":…}` and keep re-sending it on a timer — the join *is* the
//! heartbeat.  A worker counts as dead when its last heartbeat is
//! older than the configured window, judged whenever the table is
//! consulted, or as soon as a dial fails (a refused connection is
//! faster evidence than a missed timer).  Death is not eviction: a
//! worker that heartbeats again after being declared dead rejoins, and
//! the coordinator's join acknowledgement tells it so, which is the
//! cue to warm its cache shard from peers via [`crate::gossip`].

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

#[derive(Debug, Clone)]
struct WorkerState {
    last_seen: Instant,
    /// Cleared by a failed dial; a heartbeat sets it again.
    alive: bool,
    /// Jobs the worker admits before it sheds.
    capacity: usize,
}

/// The coordinator's live view of its worker fleet.
#[derive(Debug)]
pub struct Membership {
    workers: Mutex<HashMap<String, WorkerState>>,
    /// A worker whose last heartbeat is older than this is dead.
    fail_after: Duration,
}

impl Membership {
    /// An empty membership table that declares a worker dead once its
    /// last heartbeat is older than `fail_after`.
    #[must_use]
    pub fn new(fail_after: Duration) -> Membership {
        Membership {
            workers: Mutex::new(HashMap::new()),
            fail_after,
        }
    }

    /// Whether `state` is alive at `now`: not marked dead, and heard
    /// from within the window.
    fn live(&self, state: &WorkerState, now: Instant) -> bool {
        state.alive && now.duration_since(state.last_seen) <= self.fail_after
    }

    /// Records a heartbeat from `addr`, and its `capacity` when it
    /// announces one (an unknown worker's defaults to 0).  Returns
    /// `true` when this is a *rejoin* — the worker was previously
    /// unknown or declared dead — which is the caller's cue to suggest
    /// cache warming.
    pub fn heartbeat(&self, addr: &str, capacity: Option<usize>) -> bool {
        let mut workers = self.workers.lock().expect("membership lock");
        let now = Instant::now();
        let state = workers.entry(addr.to_string()).or_insert(WorkerState {
            last_seen: now,
            alive: false,
            capacity: 0,
        });
        let rejoined = !self.live(state, now);
        state.last_seen = now;
        state.alive = true;
        state.capacity = capacity.unwrap_or(state.capacity);
        rejoined
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
        let now = Instant::now();
        let mut alive: Vec<String> = workers
            .iter()
            .filter(|(_, s)| self.live(s, now))
            .map(|(a, _)| a.clone())
            .collect();
        alive.sort();
        alive
    }

    /// The jobs the alive workers admit before they shed, summed.
    #[must_use]
    pub fn capacity(&self) -> usize {
        let workers = self.workers.lock().expect("membership lock");
        let now = Instant::now();
        workers.values().filter(|s| self.live(s, now)).map(|s| s.capacity).sum()
    }

    /// `(alive, dead)` counts.
    #[must_use]
    pub fn counts(&self) -> (usize, usize) {
        let workers = self.workers.lock().expect("membership lock");
        let now = Instant::now();
        let alive = workers.values().filter(|s| self.live(s, now)).count();
        (alive, workers.len() - alive)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn joins_heartbeats_and_rejoins() {
        let m = Membership::new(Duration::from_secs(60));
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
    fn stale_workers_count_as_dead_when_consulted() {
        // A generous window: nobody goes stale.
        let patient = Membership::new(Duration::from_secs(60));
        patient.heartbeat("w1", None);
        patient.heartbeat("w2", None);
        assert_eq!(patient.alive(), ["w1", "w2"]);

        // w1 falls silent for longer than the window; w2 stays fresh
        // (the window leaves it 100 ms of scheduling slack).
        let m = Membership::new(Duration::from_millis(100));
        m.heartbeat("w1", Some(3));
        m.heartbeat("w2", Some(5));
        std::thread::sleep(Duration::from_millis(150));
        m.heartbeat("w2", None);
        assert_eq!(m.alive(), ["w2"]);
        assert_eq!(m.counts(), (1, 1));
        assert_eq!(m.capacity(), 5, "a stale worker's capacity does not count");
        // Consulting again changes nothing...
        assert_eq!(m.alive(), ["w2"]);
        // ...and a stale worker's next heartbeat is a rejoin.
        assert!(m.heartbeat("w1", None));
        assert_eq!(m.alive(), ["w1", "w2"]);
    }
}
