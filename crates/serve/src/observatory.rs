//! Server-side observability plane: fleet metric aggregation, per-worker
//! crash-tail rings, and the bounded per-subscriber queues behind the
//! `Subscribe`/`EventBatch` protocol.
//!
//! Everything here is **passive**: the observatory watches the streams
//! the campaign already produces and never feeds back into job
//! scheduling, record bytes, or checkpoint state. A slow or dead
//! subscriber loses events (accounted in `subscriber_lagged`), never
//! stalls the queue.

use std::collections::{BTreeMap, VecDeque};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;
use uvf_trace::{Event, MemorySink, PrometheusSink, Sink as _};

/// The server's metrics brain: one [`PrometheusSink`] holding both the
/// fleet-merged worker series and the server-level series
/// (`jobs_*`, `lease_renewals`, `worker_liveness`, queue-wait and
/// job-duration histograms), plus one bounded [`MemorySink`] ring per
/// worker for crash forensics.
pub struct Observatory {
    metrics: PrometheusSink,
    rings: Mutex<BTreeMap<u64, Arc<MemorySink>>>,
    ring_cap: usize,
    /// Where `crash_tail_worker<id>.jsonl` dumps land; `None` disables
    /// dumping (the in-memory tail still accumulates).
    crash_dir: Option<PathBuf>,
}

impl Observatory {
    pub(crate) fn new(ring_cap: usize, crash_dir: Option<PathBuf>) -> Observatory {
        Observatory {
            metrics: PrometheusSink::new(),
            rings: Mutex::new(BTreeMap::new()),
            ring_cap,
            crash_dir,
        }
    }

    /// The underlying metrics store (server series are added through it).
    #[must_use]
    pub fn metrics(&self) -> &PrometheusSink {
        &self.metrics
    }

    /// Fold one event a worker streamed in: fleet aggregation plus that
    /// worker's crash-tail ring.
    pub(crate) fn worker_event(&self, worker: u64, event: &Event) {
        self.metrics.record_from(worker, event);
        let ring = Arc::clone(
            self.rings
                .lock()
                .expect("observatory poisoned")
                .entry(worker)
                .or_insert_with(|| Arc::new(MemorySink::new(self.ring_cap))),
        );
        ring.record(event);
    }

    /// Mark `worker` alive (`uvf_worker_liveness{worker="N"} 1`).
    pub(crate) fn worker_alive(&self, worker: u64) {
        self.metrics.set_worker_gauge("worker_liveness", worker, 1);
    }

    /// Mark `worker` dead and dump its ring to `crash_tail_worker<id>.jsonl`
    /// under the crash dir, if it ever streamed an event. Dumping is
    /// best-effort forensics; failures are swallowed by design.
    pub(crate) fn worker_dead(&self, worker: u64) {
        self.metrics.set_worker_gauge("worker_liveness", worker, 0);
        let ring = self
            .rings
            .lock()
            .expect("observatory poisoned")
            .get(&worker)
            .cloned();
        if let (Some(dir), Some(ring)) = (&self.crash_dir, ring) {
            let _ = std::fs::create_dir_all(dir);
            let _ = ring.dump(dir.join(format!("crash_tail_worker{worker}.jsonl")));
        }
    }

    /// Render the combined fleet + server exposition.
    #[must_use]
    pub fn render(&self) -> String {
        self.metrics.render()
    }
}

struct SubscriberBuf {
    buf: VecDeque<Event>,
    /// Cumulative events dropped because the queue overflowed.
    dropped: u64,
}

/// One subscriber's bounded event queue. The publisher (the server, under
/// its state lock) pushes whole blocks; the subscriber's writer thread
/// drains batches at its own pace. Overflow evicts the *oldest* events —
/// the stream keeps up with the present and the gap is accounted — so a
/// throttled observer can never apply backpressure to the campaign. The
/// writer sleeps on `wake` until a push, a close or a [`Subscriber::wake`]
/// (campaign finished or stopped).
pub(crate) struct Subscriber {
    cap: usize,
    state: Mutex<SubscriberBuf>,
    wake: Condvar,
    closed: AtomicBool,
}

impl Subscriber {
    pub(crate) fn new(cap: usize) -> Subscriber {
        Subscriber {
            cap: cap.max(1),
            state: Mutex::new(SubscriberBuf {
                buf: VecDeque::new(),
                dropped: 0,
            }),
            wake: Condvar::new(),
            closed: AtomicBool::new(false),
        }
    }

    /// Append a block of published events, evicting from the front when
    /// the bound is exceeded. Returns how many events were dropped *by
    /// this push* (0 for a keeping-up subscriber).
    pub(crate) fn push_block(&self, events: &[Event]) -> u64 {
        let mut state = self.state.lock().expect("subscriber poisoned");
        state.buf.extend(events.iter().cloned());
        let mut newly_dropped = 0u64;
        while state.buf.len() > self.cap {
            state.buf.pop_front();
            newly_dropped += 1;
        }
        state.dropped += newly_dropped;
        self.wake.notify_all();
        newly_dropped
    }

    /// Take up to `max` queued events plus the cumulative drop count.
    pub(crate) fn pop_batch(&self, max: usize) -> (Vec<Event>, u64) {
        let mut state = self.state.lock().expect("subscriber poisoned");
        let take = state.buf.len().min(max);
        (state.buf.drain(..take).collect(), state.dropped)
    }

    /// Block until events are queued, the subscription is closed or
    /// `done()` holds. Whoever makes `done()` true must then call
    /// [`Subscriber::wake`].
    pub(crate) fn wait(&self, done: impl Fn() -> bool) {
        let state = self.state.lock().expect("subscriber poisoned");
        let _state = self
            .wake
            .wait_while(state, |s| s.buf.is_empty() && !self.is_closed() && !done())
            .expect("subscriber poisoned");
    }

    /// Wake the writer to re-check its exit conditions. Taking the queue
    /// lock orders this after any predicate check already in progress,
    /// so the wakeup cannot be lost.
    pub(crate) fn wake(&self) {
        let _state = self.state.lock().expect("subscriber poisoned");
        self.wake.notify_all();
    }

    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::SeqCst);
        self.wake();
    }

    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::SeqCst)
    }
}

/// Shared run flags: `stop` is the operator's abort switch, `finished`
/// flips once every job is terminal *and* all its events are published —
/// the signal subscriber writers use to send their final `done` batch.
pub(crate) struct Flags {
    pub(crate) stop: AtomicBool,
    pub(crate) finished: AtomicBool,
    /// The server's main loop naps on `settled` between supervision polls;
    /// [`Flags::finish`] cuts the nap short.
    nap: Mutex<()>,
    settled: Condvar,
}

impl Flags {
    pub(crate) fn new() -> Arc<Flags> {
        Arc::new(Flags {
            stop: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            nap: Mutex::new(()),
            settled: Condvar::new(),
        })
    }

    /// Flip `finished` and wake the main loop.
    pub(crate) fn finish(&self) {
        self.finished.store(true, Ordering::SeqCst);
        let _nap = self.nap.lock().expect("flags poisoned");
        self.settled.notify_all();
    }

    /// Sleep up to `timeout`, or until the campaign finishes or stops.
    pub(crate) fn nap(&self, timeout: Duration) {
        let nap = self.nap.lock().expect("flags poisoned");
        let _nap = self
            .settled
            .wait_timeout_while(nap, timeout, |()| {
                !self.finished.load(Ordering::SeqCst) && !self.stop.load(Ordering::SeqCst)
            })
            .expect("flags poisoned");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use uvf_trace::EventKind;

    fn ev(seq: u64) -> Event {
        Event {
            seq,
            kind: EventKind::Instant,
            name: "e".into(),
            span: None,
            parent: None,
            sim_ms: None,
            wall_ns: None,
            fields: Vec::new(),
        }
    }

    #[test]
    fn subscriber_queue_bounds_and_accounts_drops() {
        let sub = Subscriber::new(3);
        assert_eq!(sub.push_block(&[ev(0), ev(1)]), 0);
        // Five queued against a cap of three: the two oldest go.
        assert_eq!(sub.push_block(&[ev(2), ev(3), ev(4)]), 2);
        let (batch, dropped) = sub.pop_batch(10);
        assert_eq!(dropped, 2);
        assert_eq!(
            batch.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![2, 3, 4],
            "the queue keeps the newest events"
        );
        // Drop accounting is cumulative across pushes.
        assert_eq!(sub.push_block(&[ev(5), ev(6), ev(7), ev(8)]), 1);
        let (_, dropped) = sub.pop_batch(10);
        assert_eq!(dropped, 3);
    }

    #[test]
    fn pop_batch_respects_max_and_preserves_order() {
        let sub = Subscriber::new(100);
        let events: Vec<Event> = (0..10).map(ev).collect();
        sub.push_block(&events);
        let (first, _) = sub.pop_batch(4);
        let (rest, _) = sub.pop_batch(100);
        let seqs: Vec<u64> = first.iter().chain(&rest).map(|e| e.seq).collect();
        assert_eq!(seqs, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn dead_worker_dumps_its_flight_tail() {
        let dir = std::env::temp_dir().join(format!("uvf-observatory-{}", std::process::id()));
        std::fs::create_dir_all(&dir).ok();
        let obs = Observatory::new(4, Some(dir.clone()));
        obs.worker_alive(9);
        for seq in 0..6u64 {
            obs.worker_event(9, &ev(seq));
        }
        obs.worker_dead(9);
        let dump = dir.join("crash_tail_worker9.jsonl");
        let text = std::fs::read_to_string(&dump).expect("crash tail written");
        assert_eq!(text.lines().count(), 4, "bounded to the ring capacity");
        assert!(text.lines().all(|l| l.starts_with('{')));
        assert_eq!(
            obs.metrics().gauge("worker_liveness").get(&Some(9)),
            Some(&0)
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
