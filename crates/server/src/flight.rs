//! Singleflight: at most one in-flight execution per cache key.
//!
//! When several workers pick up requests with the same digest, one of
//! them becomes the *leader* and runs the job; the others park until
//! it finishes.  The leader may hand its reply to the parked followers
//! (a coordinator, which holds no cache, does); otherwise a follower
//! wakes with nothing, re-checks the cache the leader filled, and
//! answers from it.  The worst case — the leader fails without caching
//! or handing over — is handled by the wait/retry loop in the worker:
//! a parked follower wakes, finds the key free, and becomes the next
//! leader.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// One flight: `None` while the leader runs, then the reply it handed
/// over (itself `None` when it handed nothing).
#[derive(Debug, Default)]
struct Flight {
    outcome: Mutex<Option<Option<String>>>,
    landed: Condvar,
}

/// The in-flight key registry.
#[derive(Debug, Default)]
pub struct Singleflight {
    inner: Mutex<HashMap<String, Arc<Flight>>>,
}

impl Singleflight {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Singleflight {
        Singleflight::default()
    }

    /// Tries to become the leader for `key`.  Returns `true` on
    /// success; the caller then *must* call [`Singleflight::finish`].
    pub fn begin(&self, key: &str) -> bool {
        let mut flights = self.inner.lock().expect("flight lock");
        if flights.contains_key(key) {
            false
        } else {
            flights.insert(key.to_string(), Arc::default());
            true
        }
    }

    /// Blocks while `key` is in flight and returns the reply its leader
    /// handed over.  Returns `None` at once if the key is not in
    /// flight, and `None` after the wait if the leader handed nothing;
    /// the caller then re-checks the cache and may try
    /// [`Singleflight::begin`] again.
    pub fn wait(&self, key: &str) -> Option<String> {
        let flight = self.inner.lock().expect("flight lock").get(key).cloned()?;
        let mut outcome = flight.outcome.lock().expect("flight lock");
        loop {
            if let Some(handed) = outcome.as_ref() {
                return handed.clone();
            }
            outcome = flight.landed.wait(outcome).expect("flight lock");
        }
    }

    /// Releases leadership of `key`, hands `reply` to every waiter, and
    /// wakes them.
    pub fn finish(&self, key: &str, reply: Option<String>) {
        let Some(flight) = self.inner.lock().expect("flight lock").remove(key) else {
            return;
        };
        *flight.outcome.lock().expect("flight lock") = Some(reply);
        flight.landed.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_leader_per_key() {
        let f = Singleflight::new();
        assert!(f.begin("k"));
        assert!(!f.begin("k"));
        assert!(f.begin("other"));
        f.finish("k", None);
        assert!(f.begin("k"));
    }

    #[test]
    fn waiters_block_until_finish() {
        let f = Arc::new(Singleflight::new());
        assert!(f.begin("k"));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let f = Arc::clone(&f);
                std::thread::spawn(move || f.wait("k"))
            })
            .collect();
        std::thread::sleep(std::time::Duration::from_millis(30));
        assert!(handles.iter().all(|h| !h.is_finished()), "waiters stay parked");
        f.finish("k", Some("reply".into()));
        for h in handles {
            assert_eq!(h.join().unwrap().as_deref(), Some("reply"));
        }
        // The hand-over belongs to that flight only.
        assert_eq!(f.wait("k"), None);
    }
}
