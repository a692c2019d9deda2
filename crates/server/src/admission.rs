//! Admission: the bounded accept→work queue, the acceptor's O(1) shed
//! path, and the drain-deadline helpers every wait consults once
//! shutdown begins.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use crate::Shared;

/// Bounded accept→work handoff. `try_push` is O(1) and never blocks the
/// acceptor; `notify_one` wakes exactly one worker.
pub(crate) struct Queue {
    inner: Mutex<VecDeque<TcpStream>>,
    cond: Condvar,
    pub(crate) capacity: usize,
}

impl Queue {
    pub(crate) fn new(capacity: usize) -> Queue {
        Queue {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            cond: Condvar::new(),
            capacity,
        }
    }

    fn try_push(&self, s: TcpStream) -> Result<(), TcpStream> {
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        if q.len() >= self.capacity {
            return Err(s);
        }
        q.push_back(s);
        drop(q);
        self.cond.notify_one();
        Ok(())
    }

    pub(crate) fn depth(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Wake every worker blocked in [`Shared::pop_conn`].
    pub(crate) fn wake_all(&self) {
        self.cond.notify_all();
    }

    /// Refuse every still-queued connection with `shed`; returns how many.
    pub(crate) fn refuse_all(&self, shed: &[u8]) -> usize {
        let mut dropped = 0usize;
        let mut q = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        while let Some(stream) = q.pop_front() {
            dropped += 1;
            write_shed(&stream, shed);
        }
        dropped
    }
}

impl Shared {
    pub(crate) fn draining(&self) -> bool {
        self.drain_at_nanos.load(Ordering::Acquire) != u64::MAX
    }

    fn drain_instant(&self) -> Option<Instant> {
        let n = self.drain_at_nanos.load(Ordering::Acquire);
        (n != u64::MAX).then(|| self.base + Duration::from_nanos(n))
    }

    fn drain_expired(&self) -> bool {
        self.drain_instant().is_some_and(|d| Instant::now() >= d)
    }

    /// `now + budget`, capped by the drain deadline once draining.
    pub(crate) fn eff_deadline(&self, budget: Duration) -> Instant {
        let t = Instant::now() + budget;
        match self.drain_instant() {
            Some(d) if d < t => d,
            _ => t,
        }
    }

    /// Worker-side pickup: blocks (in 20ms condvar slices) until a
    /// connection is available or shutdown empties the well. Once the
    /// drain deadline has passed, remaining queued connections are left
    /// for [`Server::shutdown`](crate::Server::shutdown) to refuse with
    /// `503`.
    pub(crate) fn pop_conn(&self) -> Option<TcpStream> {
        let mut q = self
            .queue
            .inner
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            if self.shutdown.load(Ordering::Acquire) && self.drain_expired() {
                return None;
            }
            if let Some(s) = q.pop_front() {
                return Some(s);
            }
            if self.shutdown.load(Ordering::Acquire) {
                return None;
            }
            let (guard, _) = self
                .queue
                .cond
                .wait_timeout(q, Duration::from_millis(20))
                .unwrap_or_else(PoisonError::into_inner);
            q = guard;
        }
    }
}

pub(crate) fn accept_loop(shared: &Shared, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    // The shutdown wake-up connection (or a straggler).
                    drop(stream);
                    return;
                }
                shared.stats.accepted.fetch_add(1, Ordering::Relaxed);
                let _ = stream.set_nodelay(true);
                if let Err(stream) = shared.queue.try_push(stream) {
                    // O(1) load shed: prebuilt bytes, no parsing, short
                    // write timeout so a dead peer can't stall accepts.
                    shared.stats.shed.fetch_add(1, Ordering::Relaxed);
                    write_shed(&stream, &shared.shed_response);
                }
            }
            Err(_) => {
                if shared.shutdown.load(Ordering::Acquire) {
                    return;
                }
                // Transient accept failure (e.g. fd pressure): back off a
                // beat instead of spinning.
                std::thread::sleep(Duration::from_millis(10));
            }
        }
    }
}

/// Shed-path write: prebuilt bytes, bounded write, brief linger.
fn write_shed(stream: &TcpStream, bytes: &[u8]) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_millis(200)));
    let mut s = stream;
    if s.write_all(bytes).is_ok() {
        let _ = stream.shutdown(Shutdown::Write);
        let _ = stream.set_read_timeout(Some(Duration::from_millis(10)));
        let mut buf = [0u8; 1024];
        let _ = s.read(&mut buf);
    }
}
