//! A snapshot cell: shared serve-time state that can be replaced while
//! workers read it, without a reader-side lock.
//!
//! The cell holds the current value as an `Arc` behind a `Mutex`, plus a
//! generation number bumped on every publish. Each worker keeps its own
//! `(generation, Arc<T>)` pin. Per request it makes one acquire-load of the
//! generation and, while that matches its pin, reads its own `Arc` — no
//! lock, no reference-count traffic, no shared write. Only after a publish
//! does a worker take the mutex once to re-pin. A request therefore sees
//! exactly one value, never a mixture, and a replaced value lives until the
//! last worker pinned to it starts its next request.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Source of every cell's generations. One process-wide counter means no
/// two cells ever hand out the same generation, so a pin taken from one
/// cell never matches another.
static NEXT_GENERATION: AtomicU64 = AtomicU64::new(1);

fn next_generation() -> u64 {
    NEXT_GENERATION.fetch_add(1, Ordering::Relaxed)
}

/// A worker's pinned copy of a [`Snapshot`]'s value: the generation it was
/// taken at and the value itself. `None` until first pinned.
pub(crate) type Pin<T> = Option<(u64, Arc<T>)>;

pub(crate) struct Snapshot<T> {
    current: Mutex<Arc<T>>,
    /// Generation of `current`; written only while holding the mutex. The
    /// `Release` store in `update` pairs with the `Acquire` load in `pin`,
    /// though it publishes nothing the mutex does not: a worker that sees a
    /// new generation reads the value under the mutex.
    generation: AtomicU64,
}

impl<T> Snapshot<T> {
    pub(crate) fn new(value: T) -> Snapshot<T> {
        Snapshot {
            current: Mutex::new(Arc::new(value)),
            generation: AtomicU64::new(next_generation()),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Arc<T>> {
        // Every update replaces the `Arc` whole after its closure returns,
        // so a panic under the lock leaves the previous value intact.
        self.current.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current value, pinned at its generation.
    pub(crate) fn load(&self) -> (u64, Arc<T>) {
        let current = self.lock();
        (
            self.generation.load(Ordering::Relaxed),
            Arc::clone(&current),
        )
    }

    /// The value a request should use: `pinned`'s own copy while no publish
    /// has happened since it was taken, otherwise the current value, which
    /// replaces the pin.
    pub(crate) fn pin<'p>(&self, pinned: &'p mut Pin<T>) -> &'p T {
        let generation = self.generation.load(Ordering::Acquire);
        if pinned.as_ref().is_some_and(|(at, _)| *at != generation) {
            *pinned = None;
        }
        &pinned.get_or_insert_with(|| self.load()).1
    }

    /// Run `f` on the current value with publishes held off.
    pub(crate) fn read<R>(&self, f: impl FnOnce(&T) -> R) -> R {
        f(&self.lock())
    }

    /// Run `f` on the current value with publishes held off; if it returns
    /// a replacement, publish that under a fresh generation.
    pub(crate) fn update(&self, f: impl FnOnce(&T) -> Option<T>) {
        let mut current = self.lock();
        if let Some(next) = f(&current) {
            *current = Arc::new(next);
            self.generation.store(next_generation(), Ordering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pin_follows_publishes_and_never_matches_another_cell() {
        let a = Snapshot::new(1);
        let b = Snapshot::new(1);
        let mut pinned = None;
        assert_eq!(*a.pin(&mut pinned), 1);
        let first = pinned.as_ref().map(|(g, _)| *g);
        assert_eq!(*a.pin(&mut pinned), 1);
        assert_eq!(
            pinned.as_ref().map(|(g, _)| *g),
            first,
            "no publish, no re-pin"
        );

        a.update(|v| Some(v + 1));
        assert_eq!(*a.pin(&mut pinned), 2);
        a.update(|_| None);
        assert_eq!(a.read(|v| *v), 2, "a declined update publishes nothing");

        // A pin taken from `a` is stale for `b`, which was never published.
        assert_eq!(*b.pin(&mut pinned), 1);
        assert_ne!(pinned.as_ref().map(|(g, _)| *g), first);
    }
}
