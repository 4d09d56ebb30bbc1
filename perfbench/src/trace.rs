//! In-memory spans recorded around the calls the benchmark makes into each
//! layer, and a decoder wrapper that records a span around every
//! frame-group decode the batch engine (or a serving shard) asks for.
//!
//! A span carries its name, duration, the frames it covered and the span
//! that caused it (`parent`, 0 for none). Spans are kept in memory and
//! summarised when the run ends; nothing is written while measuring.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ldpc_codes::CompiledCode;
use ldpc_core::decoder::DecoderConfig;
use ldpc_core::{
    CascadeStats, DecodeError, DecodeOutput, DecodeWorkspace, Decoder, MsgOf, WorkspacePool,
};
use ldpc_serve::DecoderPolicy;

/// Span name of one `Decoder::decode_group_into` call.
pub const GROUP: &str = "core.decoder.group";

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub dur_ns: u64,
    pub frames: u32,
}

#[derive(Debug)]
pub struct Tracer {
    on: AtomicBool,
    next_id: AtomicU32,
    /// The open span that spans recorded from other threads (group decodes
    /// inside a batch) attach to.
    parent: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records nothing until [`Tracer::set`] turns it on.
    pub fn new() -> Arc<Self> {
        Arc::new(Tracer {
            on: AtomicBool::new(false),
            next_id: AtomicU32::new(1),
            parent: AtomicU32::new(0),
            spans: Mutex::new(Vec::with_capacity(1 << 16)),
        })
    }

    pub fn set(&self, on: bool) {
        self.on.store(on, Ordering::SeqCst);
    }

    pub fn on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn new_id(&self) -> u32 {
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Makes `id` the parent of spans recorded until the next call (0 ends
    /// the attachment).
    pub fn set_parent(&self, id: u32) {
        self.parent.store(id, Ordering::SeqCst);
    }

    pub fn record(&self, id: u32, parent: u32, name: &'static str, start: Instant, frames: usize) {
        let span = Span {
            id,
            parent,
            name,
            dur_ns: start.elapsed().as_nanos() as u64,
            frames: frames as u32,
        };
        self.spans.lock().expect("span buffer poisoned").push(span);
    }

    /// Runs `f` inside a span named `name` when tracing is on.
    pub fn time<T>(&self, name: &'static str, frames: usize, f: impl FnOnce() -> T) -> T {
        if !self.on() {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.record(self.new_id(), 0, name, start, frames);
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }
}

/// Durations (ns) of the spans named `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur_ns as f64)
        .collect()
}

/// `(Σ duration ns, Σ frames)` of the spans named `name`.
pub fn totals(spans: &[Span], name: &str) -> (f64, f64) {
    spans
        .iter()
        .filter(|s| s.name == name)
        .fold((0.0, 0.0), |(t, f), s| {
            (t + s.dur_ns as f64, f + f64::from(s.frames))
        })
}

/// A decoder that records a [`GROUP`] span around every frame-group decode
/// and otherwise forwards every call unchanged, so outputs, workspaces and
/// counters are exactly the wrapped decoder's.
#[derive(Debug, Clone)]
pub struct Traced<D> {
    pub inner: D,
    pub tracer: Arc<Tracer>,
}

impl<D: Decoder + Clone> Decoder for Traced<D> {
    type Arith = D::Arith;

    fn arithmetic(&self) -> &Self::Arith {
        self.inner.arithmetic()
    }

    fn config(&self) -> &DecoderConfig {
        self.inner.config()
    }

    fn schedule_name(&self) -> &'static str {
        self.inner.schedule_name()
    }

    fn decode_into(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<MsgOf<Self>>,
        out: &mut DecodeOutput,
    ) -> Result<(), DecodeError> {
        self.inner.decode_into(compiled, llrs, ws, out)
    }

    fn workspace_for(&self, compiled: &CompiledCode) -> DecodeWorkspace<MsgOf<Self>> {
        self.inner.workspace_for(compiled)
    }

    fn workspace_pool(&self) -> Option<&WorkspacePool<MsgOf<Self>>> {
        self.inner.workspace_pool()
    }

    fn preferred_group_width(&self, compiled: &CompiledCode) -> usize {
        self.inner.preferred_group_width(compiled)
    }

    fn decode_group_into(
        &self,
        compiled: &CompiledCode,
        llrs: &[f64],
        ws: &mut DecodeWorkspace<MsgOf<Self>>,
        outs: &mut [DecodeOutput],
    ) -> Result<(), DecodeError> {
        if !self.tracer.on() {
            return self.inner.decode_group_into(compiled, llrs, ws, outs);
        }
        let parent = self.tracer.parent.load(Ordering::Relaxed);
        let start = Instant::now();
        let result = self.inner.decode_group_into(compiled, llrs, ws, outs);
        self.tracer
            .record(self.tracer.new_id(), parent, GROUP, start, outs.len());
        result
    }

    fn cascade_stats(&self) -> Option<CascadeStats> {
        self.inner.cascade_stats()
    }

    fn set_effort_level(&self, level: u8) -> bool {
        self.inner.set_effort_level(level)
    }

    fn effort_level(&self) -> u8 {
        self.inner.effort_level()
    }

    fn detached_clone(&self) -> Self {
        Traced {
            inner: self.inner.detached_clone(),
            tracer: Arc::clone(&self.tracer),
        }
    }
}

/// Serving-layer factory for a [`Traced`] decoder: the service clones it
/// into every shard, and every shard records into the same tracer.
#[derive(Debug, Clone)]
pub struct TracedPolicy<P> {
    pub policy: P,
    pub tracer: Arc<Tracer>,
}

impl<P: DecoderPolicy> DecoderPolicy for TracedPolicy<P> {
    type Decoder = Traced<P::Decoder>;

    fn build_decoder(&self) -> Self::Decoder {
        Traced {
            inner: self.policy.build_decoder(),
            tracer: Arc::clone(&self.tracer),
        }
    }

    fn label(&self) -> String {
        self.policy.label()
    }
}
