//! The measurement loop shared by every workload.
//!
//! A run has three phases:
//!
//! 1. **Set-up**, repeated a few times: build the engine
//!    (or direct context), then warm it until a wave links no program
//!    and creates no GL object (cold kernels: links exactly one program
//!    per op). The median of the set-up times is `setup_s`.
//! 2. **Untraced window**: a closed loop driven by one client thread
//!    for [`Options::seconds`] after a one-second unmeasured ramp (or,
//!    for a workload with [`Served::ops_per_engine`], fixed-size episodes
//!    on fresh engines until their op time reaches it). Every output is
//!    checked bit for bit. The end-to-end metrics and the snapshot
//!    counter deltas come from here.
//! 3. **Replay** on one direct [`ComputeContext`] configured like an
//!    engine worker: a few ops give the modelled device time, and with
//!    tracing on, the same ops are replayed untraced and traced, with
//!    spans around every call into a layer's public functions.

use crate::report::Metrics;
use crate::stats::{self, ratio};
use crate::trace::{self, Tracer};
use gpes_core::codec;
use gpes_core::serve::KernelRegistry;
use gpes_core::{
    CompletionSet, ComputeContext, ComputeError, ContextStats, Engine, EngineSnapshot, JobHandle,
    PassRecord, TensorData,
};
use gpes_gles2::Dispatch;
use gpes_perf::{estimate_gpu, gpu_run_from_passes, Vc4Gpu};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Span names: one per layer boundary the benchmark calls across.
pub const OP: &str = "op";
/// `KernelRegistry::check`.
pub const CHECK: &str = "registry.check";
/// `KernelRegistry::register`.
pub const REGISTER: &str = "registry.register";
/// `KernelSpec::build`, `PipelineSpec::build`, `KernelBuilder::build`.
pub const BUILD: &str = "context.build";
/// `ComputeContext::upload*`.
pub const UPLOAD: &str = "context.upload";
/// `ComputeContext::run_*_with`, `Pipeline::run_seeded`.
pub const DISPATCH: &str = "context.dispatch";
/// `ComputeContext::read_array*`, `PipelineRun::read_any`.
pub const READBACK: &str = "context.readback";
/// Host `codec::*::encode_slice`.
pub const ENCODE: &str = "codec.encode";
/// Host `codec::*::decode_slice`.
pub const DECODE: &str = "codec.decode";

/// Set-ups repeat until they have taken this long (at least
/// `MIN_SETUPS`, at most `MAX_SETUPS` times); `setup_s` is their median.
/// A few-millisecond engine set-up thus gets a median over hundreds of
/// repeats, a paper-sized direct one over three.
const SETUP_BUDGET: Duration = Duration::from_secs(1);
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 400;
/// Target length of the window slices whose quantiles are averaged
/// into the latency metrics, and the fewest ops a slice may hold (ten
/// beyond its p90).
const SLICE: Duration = Duration::from_secs(1);
const MIN_SLICE_SAMPLES: usize = 100;
/// Warm waves tried before a run gives up on reaching steady state.
const MAX_WARM_WAVES: usize = 64;
/// Unmeasured closed-loop time between the last set-up and the window:
/// the first second after set-up runs measurably slower than the rest.
const RAMP: Duration = Duration::from_secs(1);
/// Ops replayed to model the device time.
const MODEL_OPS: u64 = 2;
/// Model ops start at a multiple of this, so their op numbers modulo
/// every input pool size (and modulo the cold kernels' constant range)
/// are the same in every run: the f32 pack shader's taken-branch count
/// depends on the data, so fixed inputs keep `device_ms` exactly
/// repeatable.
const MODEL_OP_ALIGN: u64 = 1 << 23;
/// Wall-time budget that sizes the traced replay, and its op bounds.
const REPLAY_BUDGET: Duration = Duration::from_millis(1000);
const REPLAY_MIN_OPS: u64 = 3;
const REPLAY_MAX_OPS: u64 = 64;

/// Command-line options of one run.
#[derive(Debug, Clone)]
pub struct Options {
    /// Input seed.
    pub seed: u64,
    /// Length of the untraced window.
    pub seconds: f64,
    /// Whether to replay traced and report the per-layer metrics.
    pub trace: bool,
    /// Flip the host references, so every op must be counted failed
    /// (the harness self-test).
    pub corrupt_reference: bool,
}

/// Ops checked and ops failed; an error, a refused submission or a
/// wrong output each count as one failure.
#[derive(Debug, Default)]
pub struct Tally {
    /// Ops whose outcome was checked.
    pub attempted: u64,
    /// Ops that errored or returned a wrong output.
    pub failed: u64,
    /// The first failure, for the diagnostics.
    pub first_failure: Option<String>,
}

impl Tally {
    fn note(&mut self, ok: bool, op: u64, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(format!("op {op}: {}", why()));
            }
        }
    }
}

/// What a run hands back to `main`.
pub struct Outcome {
    /// Checked and failed ops over every phase.
    pub tally: Tally,
    /// End-to-end and (traced runs) per-layer values.
    pub metrics: Metrics,
    /// The pinned configuration, as `key → value`.
    pub record: Vec<(&'static str, String)>,
    /// The traced replay's spans, when traced.
    pub spans: Option<Tracer>,
}

/// What one direct op reports besides its timing.
pub struct OpRecord {
    /// Bytes this op uploaded (resident inputs excluded).
    pub upload_bytes: u64,
    /// Bytes this op read back.
    pub readback_bytes: u64,
    /// The host tensors the op read back, in a fixed order.
    pub outputs: Vec<TensorData>,
}

/// One op performed on a direct context through the public API, with
/// spans around each layer call. Engine workloads perform exactly the
/// upload → build → dispatch → read sequence a worker performs.
pub trait DirectOp {
    /// Runs op `op` on `cc`. `registry` is the engine's registry for
    /// workloads that admit kernels per op.
    ///
    /// # Errors
    ///
    /// Any library error; the harness counts it as a failed op.
    fn run(
        &self,
        cc: &mut ComputeContext,
        registry: Option<&KernelRegistry>,
        op: u64,
        tr: &mut Tracer,
    ) -> Result<OpRecord, ComputeError>;

    /// Whether `outputs` of op `op` equal the host reference bit for bit.
    fn check(&self, op: u64, outputs: &[TensorData]) -> bool;

    /// The host tensors op `op` uploads, for timing the codecs on them.
    fn inputs(&self, op: u64) -> Vec<Arc<TensorData>>;

    /// Whether the context-counter change over a wave of `ops` ops shows
    /// a warmed-up context.
    fn steady(&self, churn: &Churn, _ops: u64) -> bool {
        churn.gl_objects() == 0
    }
}

/// A workload served by an [`Engine`].
pub trait Served: DirectOp {
    /// The job's result type.
    type Out;
    /// Jobs the client keeps in flight.
    fn in_flight(&self, workers: usize) -> usize;
    /// Ops to run before the first steady-state check.
    fn min_warm_ops(&self) -> u64 {
        0
    }
    /// For a workload whose every op leaves state behind in the engine:
    /// the window runs as episodes of this many ops, each on a freshly
    /// built and warmed engine, so that the state (and the memory it
    /// holds) is bounded and the same on a fast and a slow host. `None`:
    /// one engine, after a ramp, for the whole window.
    fn ops_per_engine(&self) -> Option<u64> {
        None
    }
    /// CPUs the run is confined to: the process pins itself to the first
    /// this many it may use before building any engine, so `nproc`
    /// workers means one per kept CPU. `None`: every CPU.
    fn cpus(&self) -> Option<usize> {
        None
    }
    /// Submits op `op`.
    ///
    /// # Errors
    ///
    /// Admission or validation errors.
    fn submit(
        &self,
        engine: &Engine,
        registry: &KernelRegistry,
        op: u64,
    ) -> Result<JobHandle<Self::Out>, ComputeError>;
    /// Whether `out` is bit for bit the host reference of op `op`.
    fn verify(&self, op: u64, out: &Self::Out) -> bool;
}

/// Context counters over an interval: the churn the steady-state guard
/// and the window metrics read.
#[derive(Debug, Clone, Copy)]
pub struct Churn {
    /// Programs compiled and linked.
    pub linked: u64,
    /// Programs installed from the shared cache.
    pub adopted: u64,
    /// Textures allocated (pool misses).
    pub textures_created: u64,
    /// Textures served from the pool.
    pub pool_hits: u64,
    /// Kernel builds served by the context's own program cache.
    pub cache_hits: u64,
    /// f32 tensors across the host boundary.
    pub f32_transfers: u64,
    /// Non-f32 tensors across the host boundary.
    pub quant_transfers: u64,
}

impl Churn {
    fn between(after: &ContextStats, before: &ContextStats) -> Churn {
        Churn {
            linked: after.programs_linked - before.programs_linked,
            adopted: after.programs_adopted - before.programs_adopted,
            textures_created: after.textures_created - before.textures_created,
            pool_hits: after.texture_pool_hits - before.texture_pool_hits,
            cache_hits: after.program_cache_hits - before.program_cache_hits,
            f32_transfers: after.f32_host_transfers - before.f32_host_transfers,
            quant_transfers: after.quantized_host_transfers - before.quantized_host_transfers,
        }
    }

    /// GL objects created: programs linked or adopted, and textures.
    pub fn gl_objects(&self) -> u64 {
        self.linked + self.adopted + self.textures_created
    }
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn dispatch_label(d: Dispatch) -> String {
    match d {
        Dispatch::Serial => "serial".into(),
        Dispatch::Auto => "auto".into(),
        Dispatch::Parallel(n) => format!("parallel{n}"),
    }
}

// ---- closed loop ----------------------------------------------------------

enum Stop {
    /// Submit this many ops.
    Ops(u64),
    /// Submit until the instant.
    At(Instant),
}

struct LoopStats {
    /// Submit-to-observed latency of every correct op, in ms, by slice
    /// of the loop's time.
    latencies: stats::Slices,
    /// Total duration of the accepted submit calls, and their count.
    submit_us: f64,
    submits: u64,
    elapsed_s: f64,
}

impl LoopStats {
    fn new() -> LoopStats {
        LoopStats {
            latencies: stats::Slices::new(SLICE.as_secs_f64(), MIN_SLICE_SAMPLES),
            submit_us: 0.0,
            submits: 0,
            elapsed_s: 0.0,
        }
    }

    /// Appends `next`, run right after `self`.
    fn extend(&mut self, next: &LoopStats) {
        self.latencies.append(&next.latencies);
        self.submit_us += next.submit_us;
        self.submits += next.submits;
        self.elapsed_s += next.elapsed_s;
    }
}

/// One client thread keeping `in_flight` jobs outstanding: the next op
/// is submitted only when an earlier one has been observed.
#[allow(clippy::too_many_arguments)]
fn closed_loop<W: Served>(
    w: &W,
    engine: &Engine,
    registry: &KernelRegistry,
    in_flight: usize,
    stop: Stop,
    next_op: &mut u64,
    tally: &mut Tally,
) -> LoopStats {
    let mut set: CompletionSet<W::Out> = CompletionSet::new();
    let mut pending: HashMap<u64, (u64, Instant)> = HashMap::new();
    let mut out = LoopStats::new();
    let mut issued = 0u64;
    let start = Instant::now();
    loop {
        while set.len() < in_flight
            && match stop {
                Stop::Ops(n) => issued < n,
                Stop::At(t) => Instant::now() < t,
            }
        {
            let op = *next_op;
            *next_op += 1;
            issued += 1;
            let t0 = Instant::now();
            match w.submit(engine, registry, op) {
                Ok(handle) => {
                    out.submit_us += t0.elapsed().as_secs_f64() * 1e6;
                    out.submits += 1;
                    let token = set.insert(handle);
                    pending.insert(token, (op, t0));
                }
                Err(e) => tally.note(false, op, || format!("submit: {e}")),
            }
        }
        let Some((token, result)) = set.wait_any() else {
            break;
        };
        let (op, t0) = pending.remove(&token).expect("every token was inserted");
        let latency = t0.elapsed();
        match result {
            Ok(value) => {
                let ok = w.verify(op, &value);
                tally.note(ok, op, || "output differs from the host reference".into());
                if ok {
                    out.latencies
                        .push(latency.as_secs_f64() * 1e3, start.elapsed().as_secs_f64());
                }
            }
            Err(e) => tally.note(false, op, || e.to_string()),
        }
    }
    out.elapsed_s = start.elapsed().as_secs_f64();
    out.latencies.close(out.elapsed_s);
    out
}

/// Runs waves until one leaves the engine's contexts steady.
fn warm_engine<W: Served>(
    w: &W,
    engine: &Engine,
    registry: &KernelRegistry,
    in_flight: usize,
    next_op: &mut u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let wave = (in_flight as u64 * 4).max(8);
    let mut done = 0;
    for _ in 0..MAX_WARM_WAVES {
        let before = engine.snapshot().context;
        closed_loop(
            w,
            engine,
            registry,
            in_flight,
            Stop::Ops(wave),
            next_op,
            tally,
        );
        let delta = Churn::between(&engine.snapshot().context, &before);
        done += wave;
        if done >= w.min_warm_ops() && w.steady(&delta, wave) {
            return Ok(());
        }
    }
    Err(format!(
        "no steady wave after {MAX_WARM_WAVES} warm waves of {wave} ops"
    ))
}

// ---- direct ops -------------------------------------------------------------

/// One direct op as the harness saw it.
struct Ran {
    record: Option<OpRecord>,
    correct: bool,
    passes: Vec<PassRecord>,
    /// Programs the op brought into the context, linked here or by the
    /// registry (modelled as compile time).
    new_programs: u64,
    wall: Duration,
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one op inside an `op` span, timing it with its own clock (the
/// closure guard's independent wall time), then (outside the timing)
/// checks it and drains its pass log.
fn direct_op<W: DirectOp>(
    w: &W,
    cc: &mut ComputeContext,
    registry: Option<&KernelRegistry>,
    op: u64,
    tr: &mut Tracer,
    tally: &mut Tally,
) -> Ran {
    let programs = |s: ContextStats| s.programs_linked + s.programs_adopted;
    let before = programs(cc.stats());
    let t0 = Instant::now();
    tr.begin(OP, op);
    let result = w.run(cc, registry, op, tr);
    tr.end();
    let wall = t0.elapsed();
    let passes = cc.take_pass_log();
    let new_programs = programs(cc.stats()) - before;
    let (record, correct) = match result {
        Ok(rec) => {
            let ok = w.check(op, &rec.outputs);
            tally.note(ok, op, || "output differs from the host reference".into());
            (Some(rec), ok)
        }
        Err(e) => {
            tally.note(false, op, || e.to_string());
            (None, false)
        }
    };
    Ran {
        record,
        correct,
        passes,
        new_programs,
        wall,
    }
}

/// Runs ops until one leaves the context steady.
fn warm_direct<W: DirectOp>(
    w: &W,
    cc: &mut ComputeContext,
    registry: Option<&KernelRegistry>,
    next_op: &mut u64,
    tally: &mut Tally,
) -> Result<(), String> {
    let mut off = Tracer::new(false);
    for _ in 0..MAX_WARM_WAVES {
        let before = cc.stats();
        direct_op(w, cc, registry, *next_op, &mut off, tally);
        *next_op += 1;
        if w.steady(&Churn::between(&cc.stats(), &before), 1) {
            return Ok(());
        }
    }
    Err(format!("no steady op after {MAX_WARM_WAVES} warm ops"))
}

/// Mean modelled VideoCore IV cost of `MODEL_OPS` ops, in ms.
fn model_device<W: DirectOp>(
    w: &W,
    cc: &mut ComputeContext,
    registry: Option<&KernelRegistry>,
    next_op: &mut u64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) {
    let mut off = Tracer::new(false);
    let mut sums = [0.0f64; 5];
    let mut n = 0.0;
    *next_op = next_op.div_ceil(MODEL_OP_ALIGN) * MODEL_OP_ALIGN;
    for _ in 0..MODEL_OPS {
        let ran = direct_op(w, cc, registry, *next_op, &mut off, tally);
        if let Some(rec) = &ran.record {
            let run = gpu_run_from_passes(
                &ran.passes,
                ran.new_programs,
                rec.upload_bytes,
                rec.readback_bytes,
            );
            let e = estimate_gpu(&Vc4Gpu::raspberry_pi1(), &run);
            for (s, v) in sums.iter_mut().zip([
                e.compile_s,
                e.upload_s,
                e.exec_s,
                e.readback_s,
                e.overhead_s,
            ]) {
                *s += v * 1e3;
            }
            n += 1.0;
        }
        *next_op += 1;
    }
    let [compile, upload, exec, readback, overhead] = sums.map(|s| ratio(s, n));
    metrics.set("device_ms", compile + upload + exec + readback + overhead);
    metrics.set("perf.compile_ms", compile);
    metrics.set("perf.upload_ms", upload);
    metrics.set("perf.exec_ms", exec);
    metrics.set("perf.readback_ms", readback);
    metrics.set("perf.overhead_ms", overhead);
}

// ---- codecs -------------------------------------------------------------

fn encode(t: &TensorData) -> Vec<u8> {
    match t {
        TensorData::U8(v) => codec::ubyte::encode_slice(v, v.len()),
        TensorData::I8(v) => codec::sbyte::encode_slice(v, v.len()),
        TensorData::U16(v) => codec::ushort::encode_slice(v, v.len()),
        TensorData::I16(v) => codec::sshort::encode_slice(v, v.len()),
        TensorData::U32(v) => codec::uint::encode_slice(v, v.len()),
        TensorData::I32(v) => codec::sint::encode_slice(v, v.len()),
        TensorData::F32(v) => codec::float32::encode_slice(v, v.len()),
    }
}

/// The RGBA8 framebuffer bytes a readback of `t` decodes: 4-byte types
/// fill the texel, byte types sit in R and short types in R and A.
fn framebuffer_bytes(t: &TensorData) -> Vec<u8> {
    if t.scalar().bytes_per_element() == 4 {
        return encode(t);
    }
    let packed = encode(t);
    let per = t.scalar().bytes_per_element();
    packed
        .chunks_exact(per)
        .flat_map(|c| [c[0], 0, 0, c[per - 1]])
        .collect()
}

fn decode(t: &TensorData, bytes: &[u8]) -> usize {
    let n = t.len();
    match t {
        TensorData::U8(_) => codec::ubyte::decode_slice(bytes, n).len(),
        TensorData::I8(_) => codec::sbyte::decode_slice(bytes, n).len(),
        TensorData::U16(_) => codec::ushort::decode_slice(bytes, n).len(),
        TensorData::I16(_) => codec::sshort::decode_slice(bytes, n).len(),
        TensorData::U32(_) => codec::uint::decode_slice(bytes, n).len(),
        TensorData::I32(_) => codec::sint::decode_slice(bytes, n).len(),
        TensorData::F32(_) => codec::float32::decode_slice(bytes, n).len(),
    }
}

/// Times the host codecs on the op's own tensors, as root spans outside
/// the op (the library runs them inside upload and readback, where a
/// caller cannot separate them). Returns `(encoded, decoded)` texels.
fn codec_spans(inputs: &[Arc<TensorData>], rec: &OpRecord, op: u64, tr: &mut Tracer) -> (u64, u64) {
    let mut texels = (0, 0);
    for t in inputs {
        black_box(tr.span(ENCODE, op, || encode(black_box(t))));
        texels.0 += t.len() as u64;
    }
    for t in &rec.outputs {
        let bytes = framebuffer_bytes(t);
        black_box(tr.span(DECODE, op, || decode(t, black_box(&bytes))));
        texels.1 += t.len() as u64;
    }
    texels
}

// ---- traced replay ----------------------------------------------------------

/// The per-layer metrics of the traced replay. Untraced and traced ops
/// alternate (so both see the same machine conditions) until the replay
/// budget is spent; the traced ones give the layer self times, and the
/// difference of the two kinds' wall times (each measured by
/// [`direct_op`]'s own clock) the tracing overhead. The same number of traced
/// ops under the other rasteriser dispatch gives the band speed-up.
#[allow(clippy::too_many_arguments)]
fn traced_replay<W: DirectOp>(
    w: &W,
    cc: &mut ComputeContext,
    registry: Option<&KernelRegistry>,
    dispatch: Dispatch,
    next_op: &mut u64,
    tally: &mut Tally,
    metrics: &mut Metrics,
) -> Result<Tracer, String> {
    let mut off = Tracer::new(false);
    let mut tr = Tracer::new(true);
    let mut untraced_ms = Vec::new();
    let mut traced_ms = Vec::new();
    let mut wall_ns = BTreeMap::new();
    let (mut fragments, mut shader_ops, mut batches, mut fallbacks) = (0u64, 0u64, 0u64, 0u64);
    let (mut enc_texels, mut dec_texels) = (0u64, 0u64);
    let started = Instant::now();
    let mut n = 0u64;
    while n < REPLAY_MAX_OPS && (n < REPLAY_MIN_OPS || started.elapsed() < REPLAY_BUDGET) {
        let ran = direct_op(w, cc, registry, *next_op, &mut off, tally);
        untraced_ms.push(ran.wall.as_secs_f64() * 1e3);
        *next_op += 1;

        let op = *next_op;
        *next_op += 1;
        let ran = direct_op(w, cc, registry, op, &mut tr, tally);
        traced_ms.push(ran.wall.as_secs_f64() * 1e3);
        wall_ns.insert(op, nanos(ran.wall));
        for p in &ran.passes {
            let f = &p.stats.fs_profile;
            fragments += p.stats.fragments_shaded;
            shader_ops += f.alu_ops + f.sfu_ops + f.tex_fetches + f.branches + f.calls;
            batches += p.stats.spmd_batches;
            fallbacks += p.stats.scalar_fallbacks;
        }
        if let Some(rec) = &ran.record {
            let (e, d) = codec_spans(&w.inputs(op), rec, op, &mut tr);
            enc_texels += e;
            dec_texels += d;
        }
        n += 1;
    }
    let b = trace::breakdown(tr.spans(), &wall_ns)?;

    let other = match dispatch {
        Dispatch::Serial => Dispatch::Auto,
        _ => Dispatch::Serial,
    };
    cc.set_dispatch(other);
    let mut band = Tracer::new(true);
    let mut band_wall_ns = BTreeMap::new();
    for _ in 0..n {
        let ran = direct_op(w, cc, registry, *next_op, &mut band, tally);
        band_wall_ns.insert(*next_op, nanos(ran.wall));
        *next_op += 1;
    }
    cc.set_dispatch(dispatch);
    let other_dispatch_us = trace::breakdown(band.spans(), &band_wall_ns)?.per_op_us(DISPATCH);
    let (serial_us, auto_us) = match dispatch {
        Dispatch::Serial => (b.per_op_us(DISPATCH), other_dispatch_us),
        _ => (other_dispatch_us, b.per_op_us(DISPATCH)),
    };

    let ops = b.ops as f64;
    metrics.set("registry.check_us", b.per_op_us(CHECK));
    metrics.set("registry.register_us", b.per_op_us(REGISTER));
    metrics.set("context.build_us", b.per_op_us(BUILD));
    metrics.set("context.upload_us", b.per_op_us(UPLOAD));
    metrics.set("context.dispatch_us", b.per_op_us(DISPATCH));
    metrics.set("context.readback_us", b.per_op_us(READBACK));
    metrics.set("context.unattributed_us", b.per_op_us(OP));
    let ns = |name: &str| b.self_ns.get(name).copied().unwrap_or(0) as f64;
    metrics.set(
        "codec.encode_ns_per_texel",
        ratio(ns(ENCODE), enc_texels as f64),
    );
    metrics.set(
        "codec.decode_ns_per_texel",
        ratio(ns(DECODE), dec_texels as f64),
    );
    metrics.set("shade.fragments_per_op", ratio(fragments as f64, ops));
    metrics.set("shade.ops_per_op", ratio(shader_ops as f64, ops));
    metrics.set("shade.ns_per_op", ratio(ns(DISPATCH), shader_ops as f64));
    metrics.set("shade.spmd_batches_per_op", ratio(batches as f64, ops));
    metrics.set(
        "shade.scalar_fallbacks_per_op",
        ratio(fallbacks as f64, ops),
    );
    metrics.set("raster.band_speedup", ratio(serial_us, auto_us));
    let base = stats::median(&untraced_ms);
    metrics.set(
        "trace.overhead_pct",
        ratio(stats::median(&traced_ms) - base, base) * 100.0,
    );
    Ok(tr)
}

// ---- window metrics ---------------------------------------------------------

fn more_setups(setups: &[f64], started: Instant) -> bool {
    setups.len() < MIN_SETUPS || (setups.len() < MAX_SETUPS && started.elapsed() < SETUP_BUDGET)
}

/// `setup_s` is the median of the run's set-ups; the first, in a cold
/// process, is kept as a diagnostic so one-time process costs still show.
fn setup_metrics(metrics: &mut Metrics, setups: &[f64]) {
    metrics.set("setup_s", stats::median(setups));
    metrics.set(
        "client.first_setup_s",
        setups.first().copied().unwrap_or(0.0),
    );
}

/// p50 and p90 are time averages: the window is cut into slices of at
/// least [`SLICE`] and [`MIN_SLICE_SAMPLES`] ops, and each slice's
/// quantile is averaged, weighted by the slice's length. The host's
/// cores switch between a fast and a ~1.8x slower state every few
/// seconds, so per-op latency is bimodal and a quantile over the whole
/// window jumps between the modes with the share of time spent slow;
/// the slice average moves in proportion to that share, as throughput
/// does. p99 is averaged the same way.
fn latency_metrics(metrics: &mut Metrics, latencies: &stats::Slices, elapsed_s: f64) {
    metrics.set(
        "throughput_per_s",
        ratio(latencies.count() as f64, elapsed_s),
    );
    metrics.set("latency_p50_ms", latencies.time_average(|s| s.p50));
    metrics.set("latency_p90_ms", latencies.time_average(|s| s.p90));
    metrics.set("client.latency_p99_ms", latencies.time_average(|s| s.p99));
    metrics.set("client.samples", latencies.count() as f64);
}

fn context_metrics(metrics: &mut Metrics, d: &Churn, ops: f64) {
    metrics.set(
        "cache.hit_ratio",
        ratio(
            d.cache_hits as f64,
            (d.cache_hits + d.linked + d.adopted) as f64,
        ),
    );
    metrics.set("context.links_per_op", ratio(d.linked as f64, ops));
    metrics.set(
        "context.textures_created_per_op",
        ratio(d.textures_created as f64, ops),
    );
    metrics.set(
        "context.pool_hit_ratio",
        ratio(
            d.pool_hits as f64,
            (d.pool_hits + d.textures_created) as f64,
        ),
    );
    metrics.set(
        "context.f32_transfers_per_op",
        ratio(d.f32_transfers as f64, ops),
    );
    metrics.set(
        "context.quant_transfers_per_op",
        ratio(d.quant_transfers as f64, ops),
    );
}

/// Exact window mean of a histogram from two cumulative snapshots
/// (to within the histogram's whole-microsecond mean).
fn window_mean_us(
    after: &gpes_core::LatencyHistogram,
    before: &gpes_core::LatencyHistogram,
) -> f64 {
    let total = |h: &gpes_core::LatencyHistogram| h.mean_micros() as f64 * h.count() as f64;
    ratio(
        total(after) - total(before),
        (after.count() - before.count()) as f64,
    )
}

fn serve_metrics(
    metrics: &mut Metrics,
    before: &EngineSnapshot,
    after: &EngineSnapshot,
    loop_stats: &LoopStats,
) {
    let queue = window_mean_us(&after.queue_latency, &before.queue_latency);
    let service = window_mean_us(&after.service_latency, &before.service_latency);
    let latency_us = loop_stats.latencies.mean() * 1e3;
    metrics.set(
        "serve.submit_us",
        ratio(loop_stats.submit_us, loop_stats.submits as f64),
    );
    metrics.set("serve.queue_wait_us", queue);
    metrics.set("serve.service_us", service);
    metrics.set("serve.wake_us", latency_us - queue - service);
    metrics.set(
        "serve.completed",
        (after.completed - before.completed) as f64,
    );
    metrics.set("serve.failed", (after.failed - before.failed) as f64);
    metrics.set("serve.rejected", (after.rejected - before.rejected) as f64);
    metrics.set("serve.retried", (after.retried - before.retried) as f64);
    metrics.set(
        "serve.queue_high_water",
        after.queue_depth_high_water as f64,
    );
    let tenants = |s: &EngineSnapshot| {
        s.tenants
            .iter()
            .fold((0, 0), |(r, e), t| (r + t.rejected, e + t.evicted))
    };
    let (rej0, ev0) = tenants(before);
    let (rej1, ev1) = tenants(after);
    metrics.set("registry.rejected", (rej1 - rej0) as f64);
    metrics.set("registry.evicted", (ev1 - ev0) as f64);
    let ops = loop_stats.latencies.count() as f64;
    let (c0, c1) = (
        before.shared_cache.unwrap_or_default(),
        after.shared_cache.unwrap_or_default(),
    );
    metrics.set(
        "cache.links_per_op",
        ratio((c1.links - c0.links) as f64, ops),
    );
    metrics.set("cache.evictions", (c1.evictions - c0.evictions) as f64);
    context_metrics(
        metrics,
        &Churn::between(&after.context, &before.context),
        ops,
    );
    let (r0, r1) = (before.residents, after.residents);
    metrics.set(
        "resident.hit_ratio",
        ratio(
            (r1.hits - r0.hits) as f64,
            (r1.hits - r0.hits + r1.uploads - r0.uploads) as f64,
        ),
    );
}

/// Zeroes the metrics of layers a direct-context workload never enters:
/// the engine's queue and workers, the registry, the shared program
/// cache's evictions and resident inputs.
fn absent_serving_layers(metrics: &mut Metrics) {
    for name in [
        "serve.submit_us",
        "serve.queue_wait_us",
        "serve.service_us",
        "serve.wake_us",
        "serve.completed",
        "serve.failed",
        "serve.rejected",
        "serve.retried",
        "serve.queue_high_water",
        "registry.rejected",
        "registry.evicted",
        "cache.evictions",
        "resident.hit_ratio",
    ] {
        metrics.set(name, 0.0);
    }
}

/// A direct context configured the way an engine worker configures
/// its own: rasteriser dispatch pinned, the engine's shared program
/// cache attached.
fn worker_like_context(engine: &Engine, dispatch: Dispatch) -> Result<ComputeContext, String> {
    let mut cc = ComputeContext::new(256, 256).map_err(|e| e.to_string())?;
    cc.set_dispatch(dispatch);
    if let Some(cache) = engine.cache() {
        cc.set_shared_program_cache(Arc::clone(cache));
    }
    Ok(cc)
}

// ---- the two run shapes -----------------------------------------------------

/// Confines the calling thread, and every thread it spawns afterwards,
/// to the first `n` CPUs it may run on; the CPUs kept, or `None` when
/// the platform cannot.
#[cfg(target_os = "linux")]
fn pin_to_cpus(n: usize) -> Option<Vec<usize>> {
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }
    let mut mask = [0u64; 16];
    let size = std::mem::size_of_val(&mask);
    // SAFETY: `mask` is a writable buffer of `size` bytes; pid 0 names
    // the calling thread.
    if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpus: Vec<usize> = (0..size * 8)
        .filter(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)
        .take(n)
        .collect();
    let mut keep = [0u64; 16];
    for &c in &cpus {
        keep[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `keep` is a readable buffer of `size` bytes; pid 0 names
    // the calling thread.
    (unsafe { sched_setaffinity(0, size, keep.as_ptr()) } == 0).then_some(cpus)
}

#[cfg(not(target_os = "linux"))]
fn pin_to_cpus(_n: usize) -> Option<Vec<usize>> {
    None
}

/// Runs an engine workload: `nproc` workers, one client thread.
///
/// # Errors
///
/// Engine construction failures and broken steady-state or closure
/// guards.
pub fn run_served<W: Served>(w: &W, o: &Options) -> Result<Outcome, String> {
    let pinned = match w.cpus() {
        Some(n) => {
            let cpus = pin_to_cpus(n).ok_or("could not pin the run to its CPUs")?;
            cpus.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join(",")
        }
        None => "no".into(),
    };
    let workers = std::thread::available_parallelism().map_or(1, |n| n.get());
    let in_flight = w.in_flight(workers);
    let dispatch = Dispatch::Serial;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut next_op = 0u64;

    let build = |next_op: &mut u64, tally: &mut Tally| -> Result<Engine, String> {
        let e = Engine::builder()
            .workers(workers)
            .dispatch(dispatch)
            .exec_mode(gpes_core::ExecMode::default())
            .build()
            .map_err(|e| format!("engine: {e}"))?;
        warm_engine(w, &e, &e.registry(), in_flight, next_op, tally)?;
        Ok(e)
    };

    let mut setups = Vec::new();
    let mut engine: Option<Engine> = None;
    let setup_start = Instant::now();
    while more_setups(&setups, setup_start) {
        if let Some(old) = engine.take() {
            old.shutdown();
        }
        let t0 = Instant::now();
        let e = build(&mut next_op, &mut tally)?;
        setups.push(t0.elapsed().as_secs_f64());
        engine = Some(e);
    }
    let mut engine = engine.expect("at least one set-up");

    // The window: one closed loop for the time, or episodes of a fixed
    // op count, each on a freshly built and warmed engine (untimed),
    // until the episodes' op time reaches the window length.
    let mut window = LoopStats::new();
    let (before, after, last) = loop {
        let registry = engine.registry();
        let stop = match w.ops_per_engine() {
            Some(n) => Stop::Ops(n),
            None => {
                closed_loop(
                    w,
                    &engine,
                    &registry,
                    in_flight,
                    Stop::At(Instant::now() + RAMP),
                    &mut next_op,
                    &mut tally,
                );
                Stop::At(Instant::now() + Duration::from_secs_f64(o.seconds))
            }
        };
        let before = engine.snapshot();
        let part = closed_loop(
            w,
            &engine,
            &registry,
            in_flight,
            stop,
            &mut next_op,
            &mut tally,
        );
        let after = engine.snapshot();
        window.extend(&part);
        if w.ops_per_engine().is_none() || window.elapsed_s >= o.seconds {
            break (before, after, part);
        }
        engine.shutdown();
        engine = build(&mut next_op, &mut tally)?;
    };
    let registry = engine.registry();

    setup_metrics(&mut metrics, &setups);
    latency_metrics(&mut metrics, &window.latencies, window.elapsed_s);
    // Counters from the last closed loop (the whole window, or the last
    // episode), with the client's view of that same loop.
    serve_metrics(&mut metrics, &before, &after, &last);

    let mut cc = worker_like_context(&engine, dispatch)?;
    warm_direct(w, &mut cc, Some(&registry), &mut next_op, &mut tally)?;
    model_device(
        w,
        &mut cc,
        Some(&registry),
        &mut next_op,
        &mut tally,
        &mut metrics,
    );
    let spans = if o.trace {
        Some(traced_replay(
            w,
            &mut cc,
            Some(&registry),
            dispatch,
            &mut next_op,
            &mut tally,
            &mut metrics,
        )?)
    } else {
        None
    };
    drop(cc);
    engine.shutdown();
    metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(Outcome {
        tally,
        metrics,
        record: vec![
            ("exec_mode", after.exec_mode.clone()),
            ("dispatch", dispatch_label(dispatch)),
            ("pinned_cpus", pinned),
            ("workers", workers.to_string()),
            ("in_flight", in_flight.to_string()),
        ],
        spans,
    })
}

/// Runs a workload on one direct context, no engine: each op is one
/// call sequence on the client thread.
///
/// # Errors
///
/// Context construction failures and broken steady-state or closure
/// guards.
pub fn run_direct<W: DirectOp>(w: &W, o: &Options) -> Result<Outcome, String> {
    let dispatch = Dispatch::Auto;
    let mut tally = Tally::default();
    let mut metrics = Metrics::default();
    let mut next_op = 0u64;

    let mut setups = Vec::new();
    let mut context = None;
    let setup_start = Instant::now();
    while more_setups(&setups, setup_start) {
        drop(context.take());
        let t0 = Instant::now();
        let mut cc = ComputeContext::new(256, 256).map_err(|e| format!("context: {e}"))?;
        cc.set_dispatch(dispatch);
        warm_direct(w, &mut cc, None, &mut next_op, &mut tally)?;
        setups.push(t0.elapsed().as_secs_f64());
        context = Some(cc);
    }
    let mut cc = context.expect("at least one set-up");

    let mut off = Tracer::new(false);
    let mut latencies = stats::Slices::new(SLICE.as_secs_f64(), MIN_SLICE_SAMPLES);
    let before = cc.stats();
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(o.seconds);
    while Instant::now() < deadline {
        let ran = direct_op(w, &mut cc, None, next_op, &mut off, &mut tally);
        next_op += 1;
        if ran.correct {
            latencies.push(ran.wall.as_secs_f64() * 1e3, start.elapsed().as_secs_f64());
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    latencies.close(elapsed_s);
    let delta = Churn::between(&cc.stats(), &before);
    let correct = latencies.count() as f64;

    setup_metrics(&mut metrics, &setups);
    latency_metrics(&mut metrics, &latencies, elapsed_s);
    context_metrics(&mut metrics, &delta, correct);
    metrics.set("cache.links_per_op", ratio(delta.linked as f64, correct));
    absent_serving_layers(&mut metrics);
    model_device(w, &mut cc, None, &mut next_op, &mut tally, &mut metrics);
    let spans = if o.trace {
        Some(traced_replay(
            w,
            &mut cc,
            None,
            dispatch,
            &mut next_op,
            &mut tally,
            &mut metrics,
        )?)
    } else {
        None
    };
    let exec_mode = cc.exec_mode().label();
    drop(cc);
    metrics.set("peak_rss_mb", peak_rss_mb());
    Ok(Outcome {
        tally,
        metrics,
        record: vec![
            ("exec_mode", exec_mode),
            ("dispatch", dispatch_label(dispatch)),
            ("pinned_cpus", "no".into()),
            ("workers", "0".into()),
            ("in_flight", "1".into()),
        ],
        spans,
    })
}
