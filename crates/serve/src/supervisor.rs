//! The background deadline flusher: one supervisor thread per fleet.
//!
//! Before this module existed, `FlushPolicy::max_wait` only fired when a
//! ticket holder was *blocked in [`crate::ShardTicket::wait`]* — an idle
//! endpoint whose callers polled with `try_wait`, or simply walked away, sat
//! on its open tile forever. The supervisor makes the deadline real: each
//! [`crate::ShardedFleet`] spawns **one** flusher thread, when its first
//! tile with a deadline opens, that sleeps until the earliest open-tile
//! deadline across all endpoint replicas, drains every expired tile
//! through the normal batch path, and goes back to sleep. With no open tile
//! anywhere it parks indefinitely — an idle fleet costs zero wakeups, and a
//! fleet that only ever scores whole batches (which open no tile) never
//! starts the thread at all.
//!
//! Coordination is a single epoch-counted condvar:
//!
//! * opening a tile reports its deadline through [`TileNotifier::notify`]
//!   (outside the tile lock — the notification never nests inside a
//!   critical section), which also spawns the flusher on the fleet's first
//!   such tile. If the OS refuses the thread, flushing falls back to
//!   blocked `wait()` callers, which fire `max_wait` themselves, and the
//!   next tile tries again. The epoch moves only when the flusher must look
//!   again: it is idle, it sleeps until a *later* deadline (then it is
//!   woken to re-derive its earliest one), or it is scanning (then it scans
//!   again before it sleeps, so no tile is missed). A tile that expires no
//!   earlier than the one the flusher is armed for, or never, wakes
//!   nothing — a busy endpoint opening thousands of tiles costs the flusher
//!   no wakeups;
//! * dropping the fleet sets the shutdown flag and **joins** the thread, so
//!   no flusher outlives its endpoints;
//! * every lock site goes through [`crate::sync`], so a panicking scorer
//!   thread cannot poison the supervisor to death — the flusher recovers
//!   the guard and keeps flushing.
//!
//! The flusher never holds a lock across a drain (or any sleep): it
//! snapshots the endpoint list, releases, and calls
//! [`crate::fleet::Endpoint::flush_expired`], which itself takes the tile
//! out under the lock and drains outside it. This is the guard discipline
//! `hmd_lint`'s `lock-discipline` rule checks for the serve crate.

use crate::fleet::Endpoint;
use crate::sync::{unpoison, LockExt};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

/// Returns the fleet's current replica list, or `None` once the fleet is
/// gone. It must hold only a `Weak` reference back, or the flusher would
/// keep its own fleet alive forever.
pub(crate) type Snapshot = Box<dyn Fn() -> Option<Vec<Arc<Endpoint>>> + Send + Sync>;

#[derive(Default)]
struct State {
    shutdown: bool,
    /// Set once a tile with a deadline has asked for the flusher thread
    /// (cleared again if the spawn failed).
    started: bool,
    /// Bumped whenever a tile opens that the flusher must consider; the
    /// flusher re-derives its earliest deadline whenever the epoch moves,
    /// so a tile opened between its scan and its sleep can never be missed
    /// (the classic lost-wakeup shape).
    epoch: u64,
    /// What the flusher is doing, as of its last look at the state.
    flusher: Flusher,
}

/// The flusher's phase, which decides whether a new tile must move the
/// epoch.
#[derive(Default, Clone, Copy, PartialEq, Eq)]
enum Flusher {
    /// Scanning (or not started): it will look at the epoch before it
    /// sleeps.
    #[default]
    Scanning,
    /// Asleep with no open tile anywhere.
    Idle,
    /// Asleep until this deadline.
    Until(Instant),
}

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    /// Scans the flusher has made: what the wakeup-count test pins.
    scans: AtomicU64,
    snapshot: Snapshot,
    /// The flusher thread, once spawned; joined on fleet drop.
    handle: Mutex<Option<JoinHandle<()>>>,
}

impl Shared {
    /// Spawns the flusher thread; on failure, lets a later tile retry.
    fn spawn_flusher(self: &Arc<Shared>) {
        let shared = Arc::clone(self);
        let spawned = std::thread::Builder::new()
            .name("hmd-serve-flusher".into())
            .spawn(move || run(&shared));
        match spawned {
            Ok(handle) => {
                *self.handle.lock_unpoisoned() = Some(handle);
            }
            Err(_) => {
                self.state.lock_unpoisoned().started = false;
            }
        }
    }
}

/// Handed to every [`Endpoint`] at construction: pokes the fleet's flusher
/// when a fresh tile (with a fresh deadline) opens. Cloneable and cheap;
/// calling it outside any tile lock is the caller's contract.
#[derive(Clone)]
pub(crate) struct TileNotifier {
    shared: Arc<Shared>,
}

impl TileNotifier {
    /// Reports a tile opened with `deadline` (`None`: it never expires),
    /// spawning the flusher if this is the fleet's first such tile.
    pub(crate) fn notify(&self, deadline: Option<Instant>) {
        let Some(deadline) = deadline else {
            return;
        };
        let (wake, spawn) = {
            let mut state = self.shared.state.lock_unpoisoned();
            let spawn = !state.started && !state.shutdown;
            state.started = true;
            let look = match state.flusher {
                Flusher::Until(armed) => deadline < armed,
                Flusher::Scanning | Flusher::Idle => true,
            };
            if look {
                state.epoch = state.epoch.wrapping_add(1);
            }
            // A scanning (or unstarted) flusher sees the epoch move before
            // it sleeps.
            (look && state.flusher != Flusher::Scanning, spawn)
        };
        if spawn {
            self.shared.spawn_flusher();
        }
        if wake {
            self.shared.wake.notify_all();
        }
    }
}

/// The per-fleet flusher: spawned by the first tile with a deadline,
/// joined on fleet drop.
pub(crate) struct Supervisor {
    shared: Arc<Shared>,
}

impl Supervisor {
    /// A supervisor whose flusher will scan the replicas `snapshot` lists.
    pub(crate) fn new(snapshot: Snapshot) -> Supervisor {
        Supervisor {
            shared: Arc::new(Shared {
                state: Mutex::new(State::default()),
                wake: Condvar::new(),
                scans: AtomicU64::new(0),
                snapshot,
                handle: Mutex::new(None),
            }),
        }
    }

    pub(crate) fn notifier(&self) -> TileNotifier {
        TileNotifier {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Scans the flusher has made so far.
    #[cfg(test)]
    pub(crate) fn scans(&self) -> u64 {
        self.shared.scans.load(Ordering::SeqCst)
    }

    /// Whether the flusher thread has been spawned.
    #[cfg(test)]
    pub(crate) fn spawned(&self) -> bool {
        self.shared.handle.lock_unpoisoned().is_some()
    }

    /// Whether the flusher sleeps until an open tile's deadline.
    #[cfg(test)]
    pub(crate) fn armed(&self) -> bool {
        matches!(
            self.shared.state.lock_unpoisoned().flusher,
            Flusher::Until(_)
        )
    }

    /// Signals shutdown and joins the flusher. Idempotent; called from the
    /// owning fleet's `Drop`.
    pub(crate) fn shutdown(&self) {
        {
            let mut state = self.shared.state.lock_unpoisoned();
            state.shutdown = true;
        }
        self.shared.wake.notify_all();
        let handle = self.shared.handle.lock_unpoisoned().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }
}

/// The flusher loop: scan → flush expired → sleep until the earliest
/// deadline (or forever when no tile is open) → repeat. Exits on shutdown
/// or when the owning fleet has been dropped (`snapshot` returns `None`).
fn run(shared: &Shared) {
    loop {
        let seen = {
            let mut state = shared.state.lock_unpoisoned();
            if state.shutdown {
                return;
            }
            state.flusher = Flusher::Scanning;
            state.epoch
        };
        shared.scans.fetch_add(1, Ordering::SeqCst);
        let endpoints = match (shared.snapshot)() {
            Some(endpoints) => endpoints,
            None => return,
        };
        // No guard is live here: expired tiles drain through the same
        // outside-the-lock path as caller-driven flushes.
        let now = Instant::now();
        let mut next: Option<Instant> = None;
        for endpoint in &endpoints {
            endpoint.flush_expired(now);
            if let Some(deadline) = endpoint.tile_deadline() {
                next = Some(next.map_or(deadline, |n: Instant| n.min(deadline)));
            }
        }
        let mut state = shared.state.lock_unpoisoned();
        while !state.shutdown && state.epoch == seen {
            state.flusher = next.map_or(Flusher::Idle, Flusher::Until);
            match next {
                Some(deadline) => {
                    let now = Instant::now();
                    if deadline <= now {
                        break;
                    }
                    let (guard, _) = unpoison(shared.wake.wait_timeout(state, deadline - now));
                    state = guard;
                    if Instant::now() >= deadline {
                        break;
                    }
                }
                None => state = unpoison(shared.wake.wait(state)),
            }
        }
        if state.shutdown {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shutdown_without_spawn_is_a_no_op() {
        let supervisor = Supervisor::new(Box::new(|| None));
        supervisor.notifier().notify(None);
        assert!(
            !supervisor.spawned(),
            "a tile that never expires needs no flusher"
        );
        supervisor.shutdown();
        supervisor.shutdown();
    }

    #[test]
    fn spawned_flusher_exits_when_its_fleet_is_gone() {
        // A snapshot whose owner is already gone: the thread must exit on
        // its own, and shutdown must join it without hanging.
        let supervisor = Supervisor::new(Box::new(|| None));
        supervisor.notifier().notify(Some(Instant::now()));
        assert!(supervisor.spawned());
        supervisor.shutdown();
    }
}
