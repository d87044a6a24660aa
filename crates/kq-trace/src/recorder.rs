//! The process-global recorder: TLS buffers, the sink, and the session.
//!
//! # Overhead model
//!
//! With no session active, [`enabled`] is one `Relaxed` atomic load and
//! every builder ([`span`], [`instant`], [`counter`], [`meta`]) returns an
//! inert `None` wrapper before touching the clock or allocating — the cost
//! of an instrumentation point is a branch. With a session active, a span
//! costs two `Instant::now()` reads plus a push onto the thread's own
//! buffer behind an uncontended per-thread mutex; the only locks shared
//! across threads (the sink and the buffer registry) are taken once per
//! thread lifetime and once per session boundary.
//!
//! # Why a buffer registry instead of TLS destructors
//!
//! The obvious design — flush each thread's buffer from its
//! `thread_local!` destructor — silently loses records: `thread::scope`
//! returns when every spawned closure has *returned*, which happens
//! before the OS thread runs its TLS destructors. A scoped pool worker
//! can therefore flush after the executor (and the session) has already
//! finished. Instead, every thread's buffer is an `Arc` registered in a
//! process-global registry the moment the thread first records, and
//! [`TraceSession::finish`] drains every registered buffer directly —
//! live threads included. The TLS destructor only moves leftovers to the
//! sink and deregisters; correctness never depends on when it runs.
//!
//! # Sessions
//!
//! Exactly one session records at a time: [`TraceSession::start`] holds a
//! process-global lock until `finish`, so concurrent tests (or a future
//! daemon's concurrent requests) serialize instead of interleaving their
//! records. Timestamps come from one process-wide monotonic epoch, so
//! they are comparable across threads within a session.

use crate::record::{Kind, Record};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

static ENABLED: AtomicBool = AtomicBool::new(false);
static SINK: Mutex<Vec<Record>> = Mutex::new(Vec::new());
static REGISTRY: Mutex<Vec<Arc<Mutex<Vec<Record>>>>> = Mutex::new(Vec::new());
static SESSION: Mutex<()> = Mutex::new(());
static EPOCH: OnceLock<Instant> = OnceLock::new();
static NEXT_TID: AtomicU64 = AtomicU64::new(0);

/// True when a [`TraceSession`] is live. The one check every
/// instrumentation point pays when tracing is off.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Nanoseconds since the process trace epoch (first use).
fn now_ns() -> u64 {
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

struct TlsBuf {
    tid: u64,
    buf: Arc<Mutex<Vec<Record>>>,
}

impl TlsBuf {
    fn new() -> TlsBuf {
        let buf = Arc::new(Mutex::new(Vec::new()));
        registry().push(Arc::clone(&buf));
        TlsBuf {
            tid: NEXT_TID.fetch_add(1, Ordering::Relaxed),
            buf,
        }
    }
}

impl Drop for TlsBuf {
    fn drop(&mut self) {
        // Lock order (everywhere): sink, then registry/buffer. Holding the
        // sink throughout serializes this against a concurrent `finish`,
        // so leftovers either land in the sink before `finish` takes it
        // or are drained from the buffer by `finish` itself.
        let mut sink = sink();
        let records = std::mem::take(&mut *lock(&self.buf));
        sink.extend(records);
        registry().retain(|b| !Arc::ptr_eq(b, &self.buf));
    }
}

thread_local! {
    static TLS: TlsBuf = TlsBuf::new();
}

fn sink() -> MutexGuard<'static, Vec<Record>> {
    SINK.lock().unwrap_or_else(|e| e.into_inner())
}

fn registry() -> MutexGuard<'static, Vec<Arc<Mutex<Vec<Record>>>>> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

fn lock(buf: &Mutex<Vec<Record>>) -> MutexGuard<'_, Vec<Record>> {
    buf.lock().unwrap_or_else(|e| e.into_inner())
}

fn push(record: Record) {
    // `try_with` so a record emitted during thread teardown (after the TLS
    // destructor ran) is dropped instead of panicking.
    let _ = TLS.try_with(|t| lock(&t.buf).push(record));
}

fn current_tid() -> u64 {
    TLS.try_with(|t| t.tid).unwrap_or(u64::MAX)
}

/// One recording window. Holds the process-global session lock from
/// [`start`](TraceSession::start) to [`finish`](TraceSession::finish);
/// records emitted anywhere in the process in between are collected.
pub struct TraceSession {
    guard: Option<MutexGuard<'static, ()>>,
}

impl TraceSession {
    /// Begins recording, waiting for any other live session to finish.
    pub fn start() -> TraceSession {
        let guard = SESSION.lock().unwrap_or_else(|e| e.into_inner());
        // Discard anything a previous session's stragglers left behind —
        // both the sink and every live thread's buffer.
        {
            let mut sink = sink();
            sink.clear();
            for buf in registry().iter() {
                lock(buf).clear();
            }
        }
        ENABLED.store(true, Ordering::SeqCst);
        TraceSession { guard: Some(guard) }
    }

    /// Stops recording and returns every record, ordered by start time.
    ///
    /// Drains every registered thread buffer directly — including threads
    /// whose TLS destructors have not run yet (`thread::scope` returns
    /// before they do), so scoped pool workers never lose records.
    pub fn finish(mut self) -> Vec<Record> {
        ENABLED.store(false, Ordering::SeqCst);
        let mut records = {
            let mut sink = sink();
            for buf in registry().iter() {
                let drained = std::mem::take(&mut *lock(buf));
                sink.extend(drained);
            }
            std::mem::take(&mut *sink)
        };
        records.sort_by_key(|r| (r.t0, r.t1, r.tid));
        drop(self.guard.take());
        records
    }
}

impl Drop for TraceSession {
    fn drop(&mut self) {
        if self.guard.take().is_some() {
            // Abandoned without `finish` (error path): stop recording.
            ENABLED.store(false, Ordering::SeqCst);
        }
    }
}

struct SpanInner {
    cat: &'static str,
    name: &'static str,
    label: String,
    si: Option<u64>,
    ni: Option<u64>,
    seq: Option<u64>,
    v: Option<f64>,
    t0: u64,
}

/// An in-flight span; records its interval when dropped (or via
/// [`Span::done`]). Inert — no clock, no allocation — when tracing is off.
pub struct Span(Option<SpanInner>);

/// Opens a span now. The builder methods are no-ops on an inert span, so
/// callers pay nothing for labels when tracing is off.
#[inline]
pub fn span(cat: &'static str, name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    Span(Some(SpanInner {
        cat,
        name,
        label: String::new(),
        si: None,
        ni: None,
        seq: None,
        v: None,
        t0: now_ns(),
    }))
}

impl Span {
    /// Attaches a human-readable label.
    pub fn label(mut self, label: impl AsRef<str>) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.label = label.as_ref().to_owned();
        }
        self
    }

    /// Attaches the statement index.
    pub fn si(mut self, si: usize) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.si = Some(si as u64);
        }
        self
    }

    /// Attaches the node / stage / segment index.
    pub fn ni(mut self, ni: usize) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.ni = Some(ni as u64);
        }
        self
    }

    /// Attaches the chunk / piece / round ordinal.
    pub fn seq(mut self, seq: usize) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.seq = Some(seq as u64);
        }
        self
    }

    /// Attaches an auxiliary quantity (bytes, chunks, ...).
    pub fn v(mut self, v: f64) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.v = Some(v);
        }
        self
    }

    /// Renames the span, for work whose kind is only known once it ran.
    pub fn rename(mut self, name: &'static str) -> Span {
        if let Some(inner) = &mut self.0 {
            inner.name = name;
        }
        self
    }

    /// Ends the span now (equivalent to dropping it).
    pub fn done(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(inner) = self.0.take() {
            push(Record {
                kind: Kind::Span,
                cat: inner.cat.to_owned(),
                name: inner.name.to_owned(),
                label: inner.label,
                si: inner.si,
                ni: inner.ni,
                seq: inner.seq,
                t0: inner.t0,
                t1: now_ns(),
                tid: current_tid(),
                v: inner.v,
            });
        }
    }
}

/// A point record under construction ([`instant`], [`counter`], or
/// [`meta`]); emitted when dropped. Inert when tracing is off.
pub struct Event(Option<Record>);

fn event(kind: Kind, cat: &'static str, name: &'static str, v: Option<f64>) -> Event {
    if !enabled() {
        return Event(None);
    }
    let now = now_ns();
    Event(Some(Record {
        kind,
        cat: cat.to_owned(),
        name: name.to_owned(),
        label: String::new(),
        si: None,
        ni: None,
        seq: None,
        t0: now,
        t1: now,
        tid: current_tid(),
        v,
    }))
}

/// A point event at the current time.
#[inline]
pub fn instant(cat: &'static str, name: &'static str) -> Event {
    event(Kind::Instant, cat, name, None)
}

/// A named quantity observed at the current time.
#[inline]
pub fn counter(cat: &'static str, name: &'static str, v: f64) -> Event {
    event(Kind::Counter, cat, name, Some(v))
}

/// A structural record (graph node, dependency edge, run config).
#[inline]
pub fn meta(cat: &'static str, name: &'static str) -> Event {
    event(Kind::Meta, cat, name, None)
}

impl Event {
    /// Attaches a human-readable label.
    pub fn label(mut self, label: impl AsRef<str>) -> Event {
        if let Some(r) = &mut self.0 {
            r.label = label.as_ref().to_owned();
        }
        self
    }

    /// Attaches the statement index.
    pub fn si(mut self, si: usize) -> Event {
        if let Some(r) = &mut self.0 {
            r.si = Some(si as u64);
        }
        self
    }

    /// Attaches the node / stage / segment index.
    pub fn ni(mut self, ni: usize) -> Event {
        if let Some(r) = &mut self.0 {
            r.ni = Some(ni as u64);
        }
        self
    }

    /// Attaches the chunk / piece / round ordinal.
    pub fn seq(mut self, seq: usize) -> Event {
        if let Some(r) = &mut self.0 {
            r.seq = Some(seq as u64);
        }
        self
    }

    /// Attaches (or overrides) the value.
    pub fn v(mut self, v: f64) -> Event {
        if let Some(r) = &mut self.0 {
            r.v = Some(v);
        }
        self
    }

    /// Emits the record now (equivalent to dropping it).
    pub fn emit(self) {}
}

impl Drop for Event {
    fn drop(&mut self) {
        if let Some(record) = self.0.take() {
            push(record);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_emits_nothing() {
        // No session: builders are inert.
        span("t", "noop").label("x").si(1).done();
        counter("t", "noop", 1.0).emit();
        let session = TraceSession::start();
        let records = session.finish();
        assert!(records.is_empty(), "{records:?}");
    }

    #[test]
    fn session_collects_spans_across_scoped_threads() {
        let session = TraceSession::start();
        span("t", "main").label("m").done();
        std::thread::scope(|scope| {
            for i in 0..4 {
                scope.spawn(move || {
                    span("t", "worker").seq(i).done();
                });
            }
        });
        let records = session.finish();
        assert_eq!(records.len(), 5);
        assert_eq!(records.iter().filter(|r| r.name == "worker").count(), 4);
        let tids: std::collections::HashSet<u64> = records
            .iter()
            .filter(|r| r.name == "worker")
            .map(|r| r.tid)
            .collect();
        assert_eq!(tids.len(), 4, "one tid per worker thread");
        for r in &records {
            assert!(r.t1 >= r.t0);
        }
    }

    #[test]
    fn sessions_serialize_and_do_not_leak_records() {
        let first = TraceSession::start();
        span("t", "first").done();
        let got = first.finish();
        assert_eq!(got.len(), 1);
        let second = TraceSession::start();
        span("t", "second").done();
        let got = second.finish();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].name, "second");
    }

    #[test]
    fn records_sort_by_start_time() {
        let session = TraceSession::start();
        let outer = span("t", "outer");
        span("t", "inner").done();
        outer.done();
        instant("t", "after").emit();
        let records = session.finish();
        let names: Vec<&str> = records.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner", "after"]);
    }

    #[test]
    fn abandoned_session_stops_recording() {
        let session = TraceSession::start();
        drop(session);
        assert!(!enabled());
        let session = TraceSession::start();
        assert!(enabled());
        assert!(session.finish().is_empty());
    }
}
